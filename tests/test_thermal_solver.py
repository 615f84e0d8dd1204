"""Unit tests for the finite-volume thermal solver."""

import dataclasses

import numpy as np
import pytest

from repro.geometry.chip import ChipGeometry
from repro.netlist.placement import Placement
from repro.thermal.solver import ThermalSolver


@pytest.fixture
def chip():
    return ChipGeometry(width=100e-6, height=100e-6, num_layers=4,
                        row_height=2e-6, row_pitch=2.5e-6)


@pytest.fixture
def solver(chip, tech):
    return ThermalSolver(chip, tech, nx=8, ny=8)


class TestBasicPhysics:
    def test_zero_power_zero_temperature(self, solver, chip):
        field = solver.solve_powers(np.zeros((8, 8, 4)))
        assert np.allclose(field.active, 0.0)

    def test_temperatures_positive_with_power(self, solver):
        p = np.zeros((8, 8, 4))
        p[4, 4, 2] = 1e-3
        field = solver.solve_powers(p)
        assert field.active.min() >= 0.0
        assert field.max_temperature > 0.0

    def test_linear_in_power(self, solver):
        p = np.zeros((8, 8, 4))
        p[3, 3, 1] = 1e-3
        f1 = solver.solve_powers(p)
        f2 = solver.solve_powers(2 * p)
        assert np.allclose(f2.active, 2 * f1.active, rtol=1e-9)

    def test_superposition(self, solver):
        a = np.zeros((8, 8, 4))
        b = np.zeros((8, 8, 4))
        a[1, 1, 0] = 5e-4
        b[6, 6, 3] = 7e-4
        fa = solver.solve_powers(a)
        fb = solver.solve_powers(b)
        fab = solver.solve_powers(a + b)
        assert np.allclose(fab.active, fa.active + fb.active, rtol=1e-9)

    def test_hotspot_peaks_at_source(self, solver):
        p = np.zeros((8, 8, 4))
        p[2, 5, 3] = 1e-3
        field = solver.solve_powers(p)
        i, j, k = np.unravel_index(field.active.argmax(),
                                   field.active.shape)
        assert (i, j, k) == (2, 5, 3)

    def test_power_near_sink_is_cooler(self, solver):
        """The paper's premise: the same power dissipated closer to the
        heat sink produces lower temperatures."""
        total = 1e-3
        bottom = np.zeros((8, 8, 4))
        bottom[:, :, 0] = total / 64
        top = np.zeros((8, 8, 4))
        top[:, :, 3] = total / 64
        f_bottom = solver.solve_powers(bottom)
        f_top = solver.solve_powers(top)
        assert f_bottom.mean_temperature < f_top.mean_temperature
        # gradient strong enough for the paper's reductions
        assert f_top.mean_temperature > 1.3 * f_bottom.mean_temperature

    def test_uniform_power_matches_1d_estimate(self, chip, tech):
        """Uniform heating on layer 0 ~ film + half-layer conduction."""
        solver = ThermalSolver(chip, tech, nx=4, ny=4)
        q = 1e6  # W/m^2
        p = np.zeros((4, 4, 4))
        p[:, :, 0] = q * chip.footprint_area / 16
        field = solver.solve_powers(p)
        r_area = (1.0 / tech.heat_sink_convection
                  + 0.5 * chip.layer_thickness
                  / tech.thermal_conductivity)
        expected = q * r_area
        assert field.active[:, :, 0].mean() == pytest.approx(expected,
                                                             rel=0.1)


class TestSubstrate:
    def test_substrate_planes_disabled_by_default(self, solver):
        assert solver.n_substrate == 0

    def test_substrate_raises_temperature(self, chip, tech):
        with_sub = dataclasses.replace(tech,
                                       substrate_in_thermal_path=True)
        p = np.zeros((8, 8, 4))
        p[:, :, 0] = 1e-5
        t_no = ThermalSolver(chip, tech, nx=8, ny=8).solve_powers(p)
        t_yes = ThermalSolver(chip, with_sub, nx=8, ny=8,
                              n_substrate=3).solve_powers(p)
        assert t_yes.mean_temperature > t_no.mean_temperature
        assert t_yes.substrate.shape == (8, 8, 3)


class TestPlacementInterface:
    def test_solve_placement(self, chip, tech, tiny_netlist, solver):
        pl = Placement.random(tiny_netlist, chip, seed=1)
        powers = np.full(tiny_netlist.num_cells, 1e-5)
        field = solver.solve_placement(pl, powers)
        temps = field.cell_temperatures(pl)
        assert temps.shape == (6,)
        assert np.all(temps > 0)

    def test_power_shape_checked(self, solver):
        with pytest.raises(ValueError):
            solver.solve_powers(np.zeros((4, 4, 4)))

    def test_cell_powers_shape_checked(self, chip, tech, tiny_netlist,
                                       solver):
        pl = Placement.random(tiny_netlist, chip, seed=1)
        with pytest.raises(ValueError):
            solver.solve_placement(pl, np.zeros(3))

    def test_field_at_clamps(self, solver, chip):
        p = np.zeros((8, 8, 4))
        p[0, 0, 0] = 1e-4
        field = solver.solve_powers(p)
        assert field.at(-1.0, -1.0, 0) == field.active[0, 0, 0]
        assert field.at(1.0, 1.0, 3) == field.active[7, 7, 3]

    def test_invalid_grid(self, chip, tech):
        with pytest.raises(ValueError):
            ThermalSolver(chip, tech, nx=0, ny=4)


class TestEnergyBalance:
    def test_heat_flux_out_equals_power_in(self, chip, tech):
        """Steady state: all injected power leaves through the films."""
        solver = ThermalSolver(chip, tech, nx=6, ny=6)
        p = np.zeros((6, 6, 4))
        p[2, 3, 1] = 2e-3
        field = solver.solve_powers(p)
        dx = chip.width / 6
        dy = chip.height / 6
        # bottom film flux (dominant by far)
        r_film = 1.0 / (tech.heat_sink_convection * dx * dy)
        r_half = (0.5 * chip.layer_thickness
                  / (tech.thermal_conductivity * dx * dy))
        g = 1.0 / (r_film + r_half)
        bottom_flux = float((field.active[:, :, 0] * g).sum())
        assert bottom_flux == pytest.approx(2e-3, rel=0.05)
