"""Tests for the closed-form thermal surrogate and the exact solver's
shared LU cache.

The contracts pinned here:

- the calibrated surrogate stays within 5% relative L2 error of the
  exact finite-volume solver on real placements, across generated
  netlists at three scales;
- ``move_delta`` agrees with the difference of two full surrogate
  solves (the O(1) inner-loop path is exact w.r.t. the model);
- the placer never solves temperature fields: a thermal run completes
  with the exact solver disabled;
- the shared LU cache is keyed on content, so two solver objects over
  identical geometry share one factorization.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.config import PlacementConfig
from repro.core.placer import Placer3D
from repro.geometry.chip import ChipGeometry
from repro.metrics.wirelength import compute_net_metrics
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.placement import Placement
from repro.thermal.power import PowerModel
from repro.thermal.solver import ThermalSolver
from repro.thermal.solver import _LU_CACHE  # noqa: the shared cache
from repro.thermal.surrogate import (SurrogateThermalModel, power_map_of,
                                     relative_error, spreading_kernel)


_NO_SPARSE_CHILD = """
import sys

import repro
import repro.cli
import repro.service
from repro import PlacementConfig, Placer3D, evaluate_placement
from repro import load_benchmark
from repro.core.pipeline import PipelineSpec, StageEntry

netlist = load_benchmark("ibm01", scale=0.01)
for alpha_temp in (0.0, 1e-5):
    result = Placer3D(netlist, PlacementConfig(alpha_temp=alpha_temp)).run()
assert "scipy.sparse" not in sys.modules, "the placer loaded scipy.sparse"
print("placed")
spec = PipelineSpec(entries=(StageEntry("quadratic"), StageEntry("detailed")))
Placer3D(netlist, PlacementConfig(), spec=spec).run()
assert "scipy.sparse" in sys.modules
print("quadratic")
report = evaluate_placement(result.placement, thermal=True)
assert report.max_temperature > report.average_temperature > 0
print("evaluated")
"""


def _chip(netlist, tech, num_layers=4):
    return ChipGeometry.for_cell_area(
        netlist.total_cell_area, num_layers,
        netlist.average_cell_height,
        whitespace=tech.whitespace,
        inter_row_space=tech.inter_row_space,
        min_row_width=24.0 * netlist.average_cell_width,
        layer_thickness=tech.layer_thickness,
        interlayer_thickness=tech.interlayer_thickness,
        substrate_thickness=tech.substrate_thickness)


def _power_map(netlist, chip, tech, nx, ny, seed=3):
    placement = Placement.random(netlist, chip, seed=seed)
    powers = PowerModel(netlist, tech).cell_powers(
        compute_net_metrics(placement))
    return power_map_of(placement, powers, nx, ny)


class TestSpreadingKernel:
    def test_finite_everywhere(self):
        g = np.linspace(0.0, 3.0, 7)
        a, b, c = np.meshgrid(g, g, g, indexing="ij")
        out = spreading_kernel(a, b, c)
        assert np.all(np.isfinite(out))

    def test_symmetric_in_lateral_args(self):
        a = np.full((4,), 0.5)
        b = np.linspace(0.1, 2.0, 4)
        c = np.linspace(2.0, 0.1, 4)
        assert np.allclose(spreading_kernel(a, b, c),
                           spreading_kernel(a, c, b))


class TestSurrogateAccuracy:
    @pytest.mark.parametrize("num_cells", [60, 120, 240])
    def test_calibrated_error_under_five_percent(self, tech, num_cells):
        spec = GeneratorSpec(name=f"sur{num_cells}",
                             num_cells=num_cells,
                             total_area=num_cells * 5e-12, seed=17)
        netlist = generate_netlist(spec)
        chip = _chip(netlist, tech)
        solver = ThermalSolver(chip, tech)
        surrogate = SurrogateThermalModel(chip, tech)
        pmap = _power_map(netlist, chip, tech,
                          surrogate.nx, surrogate.ny)
        surrogate.calibrate(solver, extra_power_maps=[pmap])
        error = relative_error(surrogate.solve_powers(pmap),
                               solver.solve_powers(pmap))
        assert error < 0.05

    def test_out_of_sample_placement(self, tech):
        """A placement the calibration never saw stays accurate."""
        spec = GeneratorSpec(name="oos", num_cells=120,
                             total_area=120 * 5e-12, seed=17)
        netlist = generate_netlist(spec)
        chip = _chip(netlist, tech)
        solver = ThermalSolver(chip, tech)
        surrogate = SurrogateThermalModel(chip, tech)
        surrogate.calibrate(solver)  # probe sources only
        pmap = _power_map(netlist, chip, tech,
                          surrogate.nx, surrogate.ny, seed=99)
        error = relative_error(surrogate.solve_powers(pmap),
                               solver.solve_powers(pmap))
        assert error < 0.05

    def test_move_delta_matches_solve_difference(self, tech):
        spec = GeneratorSpec(name="delta", num_cells=60,
                             total_area=60 * 5e-12, seed=17)
        netlist = generate_netlist(spec)
        chip = _chip(netlist, tech)
        solver = ThermalSolver(chip, tech)
        surrogate = SurrogateThermalModel(chip, tech)
        surrogate.calibrate(solver)
        nx, ny, nl = surrogate.nx, surrogate.ny, chip.num_layers
        pmap = np.zeros((nx, ny, nl), dtype=np.float64)
        pmap[2, 3, 0] = 1e-4
        before = surrogate.solve_powers(pmap).active.ravel()
        old_tile = 2 * ny + 3
        new_tile = (nx - 2) * ny + (ny - 2)
        pmap[2, 3, 0] = 0.0
        pmap[nx - 2, ny - 2, nl - 1] = 1e-4
        after = surrogate.solve_powers(pmap).active.ravel()
        delta = surrogate.move_delta(old_tile, 0, new_tile, nl - 1,
                                     1e-4)
        assert np.allclose(after - before, delta, atol=1e-12)

    def test_deterministic_calibration(self, tech):
        spec = GeneratorSpec(name="detcal", num_cells=60,
                             total_area=60 * 5e-12, seed=17)
        netlist = generate_netlist(spec)
        chip = _chip(netlist, tech)
        fits = []
        for _ in range(2):
            surrogate = SurrogateThermalModel(chip, tech)
            fits.append(surrogate.calibrate(ThermalSolver(chip, tech)))
        assert fits[0].to_dict() == fits[1].to_dict()


class TestPlacerSolvesNoFields:
    def test_thermal_run_never_calls_exact_solver(self, monkeypatch):
        """Eq. 3 prices heat in closed form; fields are evaluation-side."""
        def refuse(self, *args, **kwargs):
            raise AssertionError("placer solved a temperature field")

        monkeypatch.setattr(ThermalSolver, "solve_powers", refuse)
        spec = GeneratorSpec(name="nofield", num_cells=90,
                             total_area=90 * 5e-12, seed=11)
        netlist = generate_netlist(spec)
        config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=4e-5,
                                 num_layers=3, seed=3,
                                 legalization_rounds=2)
        result = Placer3D(netlist, config).run()
        assert result.objective > 0
        assert len(result.round_seconds) == 2

    def test_placer_never_loads_sparse_solver(self):
        """Importing the package, the CLI and the service, and placing
        with or without the thermal term, leave ``scipy.sparse``
        unloaded; the quadratic stage and the thermal evaluation load
        it when they run (a fresh interpreter, so no other test's
        imports count)."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _NO_SPARSE_CHILD],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["placed", "quadratic", "evaluated"]


class TestLUSharedCache:
    def test_identical_geometry_shares_factorization(self, tech):
        chip = ChipGeometry(width=100e-6, height=100e-6, num_layers=4,
                            row_height=2e-6, row_pitch=2.5e-6)
        a = ThermalSolver(chip, tech, nx=8, ny=8)
        b = ThermalSolver(chip, tech, nx=8, ny=8)
        assert a.factor_key() == b.factor_key()
        p = np.zeros((8, 8, 4))
        p[4, 4, 2] = 1e-3
        fa = a.solve_powers(p)
        entries = len(_LU_CACHE)
        fb = b.solve_powers(p)
        assert len(_LU_CACHE) == entries  # b reused a's factorization
        assert np.array_equal(fa.active, fb.active)

    def test_different_geometry_new_entry(self, tech):
        chip1 = ChipGeometry(width=100e-6, height=100e-6, num_layers=4,
                             row_height=2e-6, row_pitch=2.5e-6)
        chip2 = ChipGeometry(width=200e-6, height=100e-6, num_layers=4,
                             row_height=2e-6, row_pitch=2.5e-6)
        a = ThermalSolver(chip1, tech, nx=8, ny=8)
        b = ThermalSolver(chip2, tech, nx=8, ny=8)
        assert a.factor_key() != b.factor_key()

