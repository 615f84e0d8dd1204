"""Unit tests for repro.geometry.density."""

import numpy as np
import pytest

from repro.geometry.chip import ChipGeometry
from repro.geometry.density import DensityMesh


@pytest.fixture
def chip():
    return ChipGeometry(width=80e-6, height=40e-6, num_layers=2,
                        row_height=2e-6, row_pitch=2.5e-6)


@pytest.fixture
def mesh(chip):
    return DensityMesh(chip, nx=8, ny=4)


class TestGeometry:
    def test_bin_dimensions(self, mesh):
        assert mesh.bin_width == pytest.approx(10e-6)
        assert mesh.bin_height == pytest.approx(10e-6)
        assert mesh.bin_capacity == pytest.approx(1e-10)

    def test_bin_of_interior(self, mesh):
        assert mesh.bin_of(15e-6, 5e-6, 1) == (1, 0, 1)

    def test_bin_of_clamps_out_of_range(self, mesh):
        assert mesh.bin_of(-1e-6, 100e-6, 5) == (0, 3, 1)

    def test_bin_center_maps_back(self, mesh):
        for index in [(0, 0, 0), (7, 3, 1), (4, 2, 0)]:
            x, y, z = mesh.bin_center(index)
            assert mesh.bin_of(x, y, z) == index

    def test_invalid_index_raises(self, mesh):
        with pytest.raises(IndexError):
            mesh.bin_center((8, 0, 0))

    def test_invalid_mesh_size(self, chip):
        with pytest.raises(ValueError):
            DensityMesh(chip, nx=0, ny=1)


class TestNeighbors:
    def test_bins_within_radius_zero(self, mesh):
        assert mesh.bins_within((3, 2, 1), 0) == [(3, 2, 1)]

    def test_bins_within_radius_one_interior(self, mesh):
        bins = mesh.bins_within((3, 2, 0), 1)
        assert len(bins) == 3 * 3 * 2  # z clipped to 2 layers
        assert (3, 2, 0) in bins

    def test_bins_within_clips_at_edges(self, mesh):
        bins = mesh.bins_within((0, 0, 0), 1)
        assert len(bins) == 2 * 2 * 2


class TestOccupancy:
    def test_add_and_density(self, mesh):
        mesh.add_cell(0, 5e-6, 5e-6, 0, 5e-11)
        assert mesh.densities[0, 0, 0] == pytest.approx(0.5)
        assert mesh.max_density == pytest.approx(0.5)

    def test_remove_cell(self, mesh):
        idx = mesh.add_cell(1, 5e-6, 5e-6, 0, 5e-11)
        mesh.remove_cell(1, idx, 5e-11)
        assert mesh.densities[idx] == pytest.approx(0.0)
        assert mesh.members(idx) == []

    def test_remove_missing_cell_raises(self, mesh):
        with pytest.raises(KeyError):
            mesh.remove_cell(42, (0, 0, 0), 1e-12)

    def test_members_tracks_ids(self, mesh):
        mesh.add_cell(3, 5e-6, 5e-6, 0, 1e-12)
        mesh.add_cell(9, 6e-6, 6e-6, 0, 1e-12)
        assert sorted(mesh.members((0, 0, 0))) == [3, 9]

    def test_build_resets(self, mesh):
        mesh.add_cell(0, 5e-6, 5e-6, 0, 1e-12)
        mesh.build([(1, 15e-6, 5e-6, 1, 2e-12)])
        assert mesh.members((0, 0, 0)) == []
        assert mesh.members((1, 0, 1)) == [1]
        assert mesh.area_in((1, 0, 1)) == pytest.approx(2e-12)

    def test_overflow(self, mesh):
        mesh.add_cell(0, 5e-6, 5e-6, 0, 1.5e-10)  # density 1.5
        assert mesh.overflow(1.0) == pytest.approx(5e-11)
        assert mesh.overflow(2.0) == 0.0

    def test_densities_shape(self, mesh):
        assert mesh.densities.shape == (8, 4, 2)


class TestRowDensities:
    def test_rows_and_max_equal_the_density_array_exactly(self, mesh,
                                                          chip):
        rng = np.random.default_rng(4)
        for cid in range(40):
            mesh.add_cell(cid, float(rng.uniform(0.0, chip.width)),
                          float(rng.uniform(0.0, chip.height)),
                          int(rng.integers(0, chip.num_layers)),
                          float(rng.uniform(1e-12, 3e-10)))
        dens = mesh.densities
        assert mesh.max_density == float(dens.max())


class TestFactories:
    def test_coarse_mesh_bin_size(self, chip):
        mesh = DensityMesh.coarse_for(chip, avg_cell_width=5e-6,
                                      avg_cell_height=2e-6)
        assert mesh.bin_width == pytest.approx(10e-6)
        assert mesh.bin_height == pytest.approx(4e-6)

    def test_fine_mesh_smaller_bins(self, chip):
        coarse = DensityMesh.coarse_for(chip, 5e-6, 2e-6)
        fine = DensityMesh.fine_for(chip, 5e-6, 2e-6)
        assert fine.nx >= coarse.nx
        assert fine.ny >= coarse.ny
