"""Unit tests for the simple thermal-resistance model."""

import dataclasses

import pytest

from repro.geometry.chip import ChipGeometry
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
