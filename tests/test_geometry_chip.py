"""Unit tests for repro.geometry.chip."""

import pytest

from repro.geometry.chip import ChipGeometry


def simple_chip(**overrides) -> ChipGeometry:
    params = dict(width=100e-6, height=50e-6, num_layers=4,
                  row_height=2e-6, row_pitch=2.5e-6)
    params.update(overrides)
    return ChipGeometry(**params)


class TestConstruction:
    def test_rows_per_layer(self):
        chip = simple_chip()
        assert chip.rows_per_layer == 20  # 50um / 2.5um

    def test_bounds(self):
        chip = simple_chip()
        b = chip.bounds
        assert (b.xlo, b.xhi) == (0.0, 100e-6)
        assert (b.zlo, b.zhi) == (0, 3)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            simple_chip(width=-1.0)
        with pytest.raises(ValueError):
            simple_chip(num_layers=0)
        with pytest.raises(ValueError):
            simple_chip(row_pitch=1e-6)  # pitch < row height

    def test_areas(self):
        chip = simple_chip()
        assert chip.footprint_area == pytest.approx(5e-9)
        assert chip.placement_area == pytest.approx(2e-8)


class TestVerticalStack:
    def test_layer_pitch(self):
        chip = simple_chip()
        assert chip.layer_pitch == pytest.approx(6.4e-6)

    def test_stack_height(self):
        chip = simple_chip()
        # 4 layers of 5.7um + 3 gaps of 0.7um
        assert chip.stack_height == pytest.approx(4 * 5.7e-6 + 3 * 0.7e-6)

    def test_layer_center_heights_increase(self):
        chip = simple_chip()
        heights = [chip.layer_center_height(z) for z in range(4)]
        assert heights == sorted(heights)
        assert heights[0] == pytest.approx(0.5 * 5.7e-6)
        assert heights[1] - heights[0] == pytest.approx(chip.layer_pitch)

    def test_distance_to_heat_sink_includes_substrate(self):
        chip = simple_chip()
        d0 = chip.distance_to_heat_sink(0)
        assert d0 == pytest.approx(500e-6 + 0.5 * 5.7e-6)

    def test_layer_out_of_range(self):
        chip = simple_chip()
        with pytest.raises(IndexError):
            chip.layer_base_height(4)
        with pytest.raises(IndexError):
            chip.layer_base_height(-1)


class TestRows:
    def test_row_lookup_by_y(self):
        chip = simple_chip()
        row = chip.row_of_y(6e-6)
        assert row.index == 2
        assert row.y == pytest.approx(5e-6)

    def test_row_of_y_clamps(self):
        chip = simple_chip()
        assert chip.row_of_y(-5e-6).index == 0
        assert chip.row_of_y(1.0).index == chip.rows_per_layer - 1

    def test_rows_on_layer_count(self):
        chip = simple_chip()
        rows = chip.rows_on_layer(2)
        assert len(rows) == chip.rows_per_layer
        assert all(r.layer == 2 for r in rows)

    def test_row_index_out_of_range(self):
        chip = simple_chip()
        with pytest.raises(IndexError):
            chip.row(0, chip.rows_per_layer)

    def test_snap_y_to_row(self):
        chip = simple_chip()
        assert chip.snap_y_to_row(6.1e-6) == pytest.approx(5e-6)
        assert chip.snap_y_to_row(6.4e-6) == pytest.approx(7.5e-6)

    def test_clamp_layer(self):
        chip = simple_chip()
        assert chip.clamp_layer(-0.6) == 0
        assert chip.clamp_layer(1.4) == 1
        assert chip.clamp_layer(9.0) == 3


class TestForCellArea:
    def test_capacity_exceeds_demand(self):
        area = 1000 * 5e-12
        chip = ChipGeometry.for_cell_area(area, num_layers=4,
                                          row_height=2e-6)
        row_capacity = (chip.rows_per_layer * chip.width * chip.row_height
                        * chip.num_layers)
        assert row_capacity >= area

    def test_whitespace_respected(self):
        area = 1000 * 5e-12
        chip = ChipGeometry.for_cell_area(area, num_layers=2,
                                          row_height=2e-6,
                                          whitespace=0.10)
        row_capacity = (chip.rows_per_layer * chip.width * chip.row_height
                        * chip.num_layers)
        # utilization should be <= 90% (plus row rounding slack)
        assert area / row_capacity <= 0.90 + 1e-9

    def test_height_is_whole_rows(self):
        chip = ChipGeometry.for_cell_area(1e-9, num_layers=4,
                                          row_height=2e-6)
        n = chip.height / chip.row_pitch
        assert abs(n - round(n)) < 1e-6

    def test_min_row_width_widens_die(self):
        area = 100 * 5e-12
        narrow = ChipGeometry.for_cell_area(area, 4, 2e-6)
        wide = ChipGeometry.for_cell_area(area, 4, 2e-6,
                                          min_row_width=50e-6)
        assert wide.width >= 50e-6 * (1 - 1e-9)
        assert wide.width > narrow.width

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ChipGeometry.for_cell_area(-1.0, 4, 2e-6)
        with pytest.raises(ValueError):
            ChipGeometry.for_cell_area(1e-9, 4, 2e-6, whitespace=1.0)
