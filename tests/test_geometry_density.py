"""Unit tests for repro.geometry.density."""

import numpy as np
import pytest

from repro.geometry.chip import ChipGeometry
from repro.geometry.density import DensityMesh, axis_bins
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement


@pytest.fixture
def chip():
    return ChipGeometry(width=80e-6, height=40e-6, num_layers=2,
                        row_height=2e-6, row_pitch=2.5e-6)


@pytest.fixture
def mesh(chip):
    return DensityMesh(chip, nx=8, ny=4)


def _bins_at(mesh, x, y, z):
    """The one bin of a single point, as an ``(i, j, k)`` tuple."""
    return tuple(int(b[0]) for b in mesh.bins_at(
        np.array([x]), np.array([y]), np.array([z])))


def _placement(chip, cells):
    """A placement of one movable cell per ``(x, y, layer, area)``."""
    netlist = Netlist("mesh")
    for n, (_, _, _, area) in enumerate(cells):
        netlist.add_cell(f"c{n}", area / 1e-6, 1e-6)
    x, y, z, _ = zip(*cells)
    return Placement(netlist, chip, x=x, y=y, z=z)


class TestGeometry:
    def test_bin_dimensions(self, mesh):
        assert mesh.bin_width == pytest.approx(10e-6)
        assert mesh.bin_height == pytest.approx(10e-6)
        assert mesh.bin_capacity == pytest.approx(1e-10)

    def test_bin_of_interior(self, mesh):
        assert _bins_at(mesh, 15e-6, 5e-6, 1) == (1, 0, 1)

    def test_bin_of_clamps_out_of_range(self, mesh):
        assert _bins_at(mesh, -1e-6, 100e-6, 5) == (0, 3, 1)

    def test_negative_coordinates_floor_before_clamping(self):
        # floor(-0.5) is -1, which clamps to bin 0; truncation would
        # give 0 too, but -1.5 must not land in bin -1
        coords = np.array([-15.0, -0.5, 0.0, 9.99, 10.0, 79.9, 80.0, 1e9])
        assert axis_bins(coords, 10.0, 8).tolist() == [0, 0, 0, 0, 1, 7,
                                                       7, 7]

    def test_bin_center_maps_back(self, mesh):
        # the rule maps every bin's centre point back to the bin, so a
        # cell added "at the bin's centre" is in that bin
        i, j, k = np.meshgrid(np.arange(mesh.nx), np.arange(mesh.ny),
                              np.arange(mesh.nz), indexing="ij")
        bins = mesh.bins_at((i.ravel() + 0.5) * mesh.bin_width,
                            (j.ravel() + 0.5) * mesh.bin_height, k.ravel())
        for got, want in zip(bins, (i, j, k)):
            assert np.array_equal(got, want.ravel())

    def test_invalid_index_raises(self, mesh):
        with pytest.raises(IndexError):
            mesh.area_in((8, 0, 0))
        with pytest.raises(IndexError, match=r"\(0, 4, 0\)"):
            mesh.bins_within(np.array([[1, 1, 0], [0, 4, 0]]), 1)

    def test_invalid_mesh_size(self, chip):
        with pytest.raises(ValueError):
            DensityMesh(chip, nx=0, ny=1)


class TestNeighbors:
    @staticmethod
    def _within(mesh, centre, radius):
        owner, bins = mesh.bins_within(np.array([centre]), radius)
        assert (owner == 0).all()
        return [tuple(b) for b in bins.tolist()]

    def test_bins_within_radius_zero(self, mesh):
        assert self._within(mesh, (3, 2, 1), 0) == [(3, 2, 1)]

    def test_bins_within_radius_one_interior(self, mesh):
        bins = self._within(mesh, (3, 2, 0), 1)
        assert len(bins) == 3 * 3 * 2  # z clipped to 2 layers
        assert (3, 2, 0) in bins
        assert bins == sorted(bins)  # (i, j, k) order

    def test_bins_within_clips_at_edges(self, mesh):
        bins = self._within(mesh, (0, 0, 0), 1)
        assert len(bins) == 2 * 2 * 2

    def test_bins_within_many_centres(self, mesh):
        centres = [(0, 0, 0), (3, 2, 1), (7, 3, 1)]
        owner, bins = mesh.bins_within(np.array(centres), 1)
        assert np.array_equal(owner, np.sort(owner))
        for q, centre in enumerate(centres):
            assert [tuple(b) for b in bins[owner == q].tolist()] == \
                self._within(mesh, centre, 1)


class TestOccupancy:
    def test_add_and_density(self, mesh):
        mesh.add_area((0, 0, 0), 5e-11)
        assert mesh.densities[0, 0, 0] == pytest.approx(0.5)
        assert mesh.max_density == pytest.approx(0.5)

    def test_remove_cell(self, mesh):
        mesh.add_area((0, 0, 0), 5e-11)
        mesh.remove_area((0, 0, 0), 5e-11)
        assert mesh.densities[0, 0, 0] == 0.0

    def test_remove_clears_only_a_tiny_negative_residue(self, mesh):
        mesh.add_area((1, 0, 0), 0.1)
        mesh.add_area((1, 0, 0), 0.2)
        mesh.remove_area((1, 0, 0), 0.3)  # 0.1 + 0.2 - 0.3 > 0
        assert mesh.area_in((1, 0, 0)) == 0.1 + 0.2 - 0.3
        mesh.add_area((2, 0, 0), 1e-12)
        mesh.remove_area((2, 0, 0), 1e-12 + 5e-25)  # residue -5e-25
        assert mesh.area_in((2, 0, 0)) == 0.0
        mesh.remove_area((3, 0, 0), 2e-24)  # a real deficit stays
        assert mesh.area_in((3, 0, 0)) == -2e-24

    def test_build_resets(self, mesh, chip):
        mesh.add_area((0, 0, 0), 1e-12)
        mesh.build_from_placement(
            _placement(chip, [(15e-6, 5e-6, 1, 2e-12)]),
            np.array([2e-12]))
        assert mesh.area_in((0, 0, 0)) == 0.0
        assert mesh.area_in((1, 0, 1)) == pytest.approx(2e-12)

    def test_build_bins_cells_by_the_rule(self, mesh, chip):
        cells = [(15e-6, 5e-6, 1, 2e-12), (79.99e-6, 39.99e-6, 0, 3e-12),
                 (80e-6, 40e-6, 0, 4e-12), (0.0, 0.0, 1, 5e-12)]
        pl = _placement(chip, cells)
        mesh.build_from_placement(pl, pl.netlist.areas)
        assert [_bins_at(mesh, x, y, z) for x, y, z, _ in cells] \
            == [b for b in zip(*(a.tolist() for a in mesh.bins_of(pl)))]
        assert mesh.area_in((7, 3, 0)) == pytest.approx(7e-12)
        assert mesh.area_in((0, 0, 1)) == pytest.approx(5e-12)

    def test_overflow(self, mesh):
        mesh.add_area((0, 0, 0), 1.5e-10)  # density 1.5
        assert mesh.overflow(1.0) == pytest.approx(5e-11)
        assert mesh.overflow(2.0) == 0.0

    def test_densities_shape(self, mesh):
        assert mesh.densities.shape == (8, 4, 2)


class TestRowDensities:
    def test_rows_and_max_equal_the_density_array_exactly(self, mesh,
                                                          chip):
        rng = np.random.default_rng(4)
        for _ in range(40):
            index = (int(rng.integers(0, mesh.nx)),
                     int(rng.integers(0, mesh.ny)),
                     int(rng.integers(0, chip.num_layers)))
            mesh.add_area(index, float(rng.uniform(1e-12, 3e-10)))
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
