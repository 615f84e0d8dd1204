"""Unit tests for the simple thermal-resistance model."""

import dataclasses

import numpy as np
import pytest

from repro import PlacementConfig, load_benchmark
from repro.core.context import auto_chip
from repro.core.netweights import compute_net_weights
from repro.core.objective import ObjectiveState
from repro.geometry.chip import ChipGeometry
from repro.netlist.csr import signal_csr
from repro.netlist.placement import Placement
from repro.thermal.power import PowerModel
from repro.thermal.resistance import ResistanceModel


@pytest.fixture
def chip():
    return ChipGeometry(width=100e-6, height=100e-6, num_layers=4,
                        row_height=2e-6, row_pitch=2.5e-6)


@pytest.fixture
def model(chip, tech):
    return ResistanceModel(chip, tech)


AREA = 5e-12


class TestCellResistance:
    def test_positive(self, model):
        assert model.cell_resistance(50e-6, 50e-6, 0, AREA) > 0

    def test_increases_with_layer(self, model):
        rs = [model.cell_resistance(50e-6, 50e-6, z, AREA)
              for z in range(4)]
        assert rs == sorted(rs)
        assert rs[3] > 1.5 * rs[0]  # strong vertical gradient

    def test_scales_inversely_with_area(self, model):
        r1 = model.cell_resistance(50e-6, 50e-6, 1, AREA)
        r2 = model.cell_resistance(50e-6, 50e-6, 1, 2 * AREA)
        assert r2 == pytest.approx(0.5 * r1, rel=1e-6)

    def test_dominated_by_down_path(self, model, chip, tech):
        """The heat-sink path conductance should dominate the total."""
        r = model.cell_resistance(50e-6, 50e-6, 0, AREA)
        r_down = (chip.layer_center_height(0)
                  / (tech.thermal_conductivity * AREA)
                  + 1.0 / (tech.heat_sink_convection * AREA))
        assert r == pytest.approx(r_down, rel=0.01)

    def test_substrate_in_path_raises_resistance(self, chip, tech):
        with_sub = dataclasses.replace(tech,
                                       substrate_in_thermal_path=True)
        r_no = ResistanceModel(chip, tech).cell_resistance(
            50e-6, 50e-6, 0, AREA)
        r_yes = ResistanceModel(chip, with_sub).cell_resistance(
            50e-6, 50e-6, 0, AREA)
        assert r_yes > 2 * r_no

    def test_zero_area_rejected(self, model):
        with pytest.raises(ValueError):
            model.cell_resistance(0, 0, 0, 0.0)

    def test_lateral_position_effect_is_tiny(self, model, chip):
        center = model.cell_resistance(50e-6, 50e-6, 2, AREA)
        corner = model.cell_resistance(1e-6, 1e-6, 2, AREA)
        assert corner == pytest.approx(center, rel=0.01)

    def test_adiabatic_secondary_surfaces(self, chip, tech):
        iso = dataclasses.replace(tech, secondary_convection=0.0)
        r = ResistanceModel(chip, iso).cell_resistance(50e-6, 50e-6, 3,
                                                       AREA)
        assert r > 0  # only the down path remains


class TestVerticalProfile:
    def test_fit_matches_layer_values(self, model, chip):
        prof = model.vertical_profile(area=AREA)
        for z in range(4):
            fitted = prof.r0 + prof.slope * chip.layer_center_height(z)
            actual = model.layer_resistance(z, AREA)
            assert fitted == pytest.approx(actual, rel=0.05)

    def test_slope_positive(self, model):
        assert model.vertical_profile(area=AREA).slope > 0

    def test_single_layer_profile(self, tech):
        chip1 = ChipGeometry(width=100e-6, height=100e-6, num_layers=1,
                             row_height=2e-6, row_pitch=2.5e-6)
        prof = ResistanceModel(chip1, tech).vertical_profile(area=AREA)
        assert prof.r0 > 0
        assert prof.slope > 0

    def test_profile_slope_matches_marginal_layer_cost(self, model,
                                                       chip, tech):
        prof = model.vertical_profile(area=AREA)
        # slope * pitch should be close to the per-layer resistance step
        step = (model.layer_resistance(1, AREA)
                - model.layer_resistance(0, AREA))
        assert prof.slope * chip.layer_pitch == pytest.approx(step,
                                                              rel=0.1)


def _scalar_r_by_layer(rm, chip, areas):
    """The per-(layer, cell) table as scalar calls (reference)."""
    cx = 0.5 * chip.width
    cy = 0.5 * chip.height
    return np.array(
        [[rm.cell_resistance(cx, cy, layer, float(a)) for a in areas]
         for layer in range(chip.num_layers)],
        dtype=np.float64)


def _scalar_r_net(rm, placement, areas):
    """Per-net driver resistance sums as scalar calls (reference)."""
    r_net = np.zeros(placement.netlist.num_nets)
    for nid, drivers in enumerate(signal_csr(placement.netlist).drivers):
        total = 0.0
        for d in drivers:
            total += rm.cell_resistance(
                float(placement.x[d]), float(placement.y[d]),
                int(placement.z[d]), float(areas[d]))
        r_net[nid] = total
    return r_net


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64),
                          np.asarray(b).view(np.int64))


class TestVectorized:
    """Array calls reproduce the scalar calls bit for bit."""

    @pytest.fixture(scope="class")
    def netlist(self):
        return load_benchmark("ibm01", scale=0.03)

    @pytest.mark.parametrize("substrate", [False, True])
    def test_tables_match_scalar_loops(self, netlist, substrate):
        base = PlacementConfig(alpha_temp=1e-5)
        config = dataclasses.replace(base, tech=dataclasses.replace(
            base.tech, substrate_in_thermal_path=substrate))
        chip = auto_chip(netlist, config)
        rng = np.random.default_rng(5)
        n = netlist.num_cells
        # a few centres just outside the die exercise the edge clamp
        placement = Placement(
            netlist, chip, x=rng.uniform(-0.05, 1.0, n) * chip.width,
            y=rng.uniform(0.0, 1.05, n) * chip.height,
            z=rng.integers(0, chip.num_layers, n))
        rm = ResistanceModel(chip, config.tech)
        areas = np.maximum(netlist.areas, 1e-18)

        obj = ObjectiveState(placement, config)
        assert _same_bits(obj._r_by_layer,
                          _scalar_r_by_layer(rm, chip, areas))

        power_model = PowerModel(netlist, config.tech)
        weights = compute_net_weights(placement, config, power_model)
        r_net = _scalar_r_net(rm, placement, areas)
        assert np.count_nonzero(r_net) > 0
        assert _same_bits(weights.lateral, 1.0 + config.alpha_temp
                          * r_net * power_model.s_wl)
        assert _same_bits(weights.vertical, 1.0 + config.alpha_temp
                          * r_net * power_model.s_ilv / config.alpha_ilv)

    def test_array_of_one_equals_scalar(self, model):
        r = model.cell_resistance(np.array([30e-6]), np.array([70e-6]),
                                  np.array([2]), np.array([AREA]))
        assert r.shape == (1,)
        assert _same_bits(r[0], model.cell_resistance(30e-6, 70e-6, 2,
                                                      AREA))

    def test_nonpositive_area_in_array_rejected(self, model):
        with pytest.raises(ValueError, match="area must be positive"):
            model.cell_resistance(50e-6, 50e-6, 0,
                                  np.array([AREA, 0.0, AREA]))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_layer_out_of_range_in_array_rejected(self, model, bad):
        with pytest.raises(IndexError, match=f"layer {bad} out of range"):
            model.cell_resistance(50e-6, 50e-6, np.array([0, bad, 1]),
                                  AREA)
