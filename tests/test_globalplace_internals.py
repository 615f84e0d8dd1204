"""Internal-mechanism tests for global placement: subgraph building,
balance targets, tolerance derivation and weight refresh."""

import struct

import numpy as np
import pytest

from repro.core.config import PlacementConfig
from repro.core.globalplace import (MIN_PARTITION_TOLERANCE,
                                    PARTITION_PASSES, GlobalPlacer, Region)
from repro.core.pipeline import PipelineSpec
from repro.core.placer import Placer3D
from repro.netlist.net import PinRole
from repro.netlist.netlist import Netlist
from repro.netlist.placement import Placement
from repro.netlist.suite import load_benchmark
from repro.parallel import task_seed
from repro.partition.subproblem import BisectionTask, solve
from tests.conftest import make_chip


@pytest.fixture
def placer(small_netlist, thermal_config):
    chip = make_chip(small_netlist,
                     num_layers=thermal_config.num_layers)
    pl = Placement.at_center(small_netlist, chip)
    return GlobalPlacer(pl, thermal_config)


class TestWeightRefresh:
    def test_weights_populated_when_thermal(self, placer):
        placer._refresh_weights()
        assert placer._lateral_w.max() > 1.0
        assert placer._trr_w.max() > 0.0

    def test_weights_stay_ones_when_cold(self, small_netlist, config):
        chip = make_chip(small_netlist)
        pl = Placement.at_center(small_netlist, chip)
        cold = GlobalPlacer(pl, config)
        cold._refresh_weights()
        assert np.all(cold._lateral_w == 1.0)
        assert np.all(cold._trr_w == 0.0)


class TestSplitMechanics:
    def test_split_partitions_all_cells(self, placer):
        movable = placer.netlist.movable_ids
        chip = placer.chip
        region = Region(movable, 0.0, chip.width, 0.0, chip.height,
                        0, chip.num_layers - 1)
        children = placer._split(region)
        assert len(children) == 2
        union = np.concatenate([c.cell_ids for c in children])
        np.testing.assert_array_equal(np.sort(union), movable)
        for child in children:
            assert child.cell_ids.dtype == np.int64
            assert not child.cell_ids.flags.writeable

    def test_lateral_children_tile_region(self, placer):
        movable = placer.netlist.movable_ids
        chip = placer.chip
        # force a lateral cut: single layer
        region = Region(movable, 0.0, chip.width, 0.0, chip.height,
                        0, 0)
        a, b = placer._split(region)
        assert a.xhi == pytest.approx(b.xlo) or \
            a.yhi == pytest.approx(b.ylo)
        assert a.zlo == a.zhi == 0

    def test_z_children_split_layers(self, placer):
        movable = placer.netlist.movable_ids
        chip = placer.chip
        # force a z cut with a deep, narrow region
        region = Region(movable, 0.0, 1e-9, 0.0, 1e-9,
                        0, chip.num_layers - 1)
        assert placer._choose_axis(region) == "z"
        a, b = placer._split(region)
        assert a.zhi + 1 == b.zlo
        assert a.zlo == 0 and b.zhi == chip.num_layers - 1

    def test_area_balanced_cutline(self, placer):
        """The cut line must land near the area split, not the middle,
        when the partition is uneven."""
        movable = placer.netlist.movable_ids
        chip = placer.chip
        region = Region(movable, 0.0, chip.width, 0.0, chip.height,
                        0, 0)
        a, b = placer._split(region)
        areas = placer.netlist.areas
        area_a = float(sum(areas[c] for c in a.cell_ids))
        area_b = float(sum(areas[c] for c in b.cell_ids))
        if a.xhi == pytest.approx(b.xlo):
            frac_geo = a.width / region.width
        else:
            frac_geo = a.height / region.height
        frac_area = area_a / (area_a + area_b)
        assert frac_geo == pytest.approx(frac_area, abs=1e-6)


class TestFinalize:
    def test_single_layer_terminal(self, placer):
        region = Region(np.array([0, 1], dtype=np.int64), 0.0, 1e-5,
                        0.0, 1e-5, 2, 2)
        placer._finalize(region)
        pl = placer.placement
        assert pl.z[0] == 2 and pl.z[1] == 2
        assert pl.x[0] == pytest.approx(0.5e-5)

    def test_multi_layer_terminal_balances_area(self, placer):
        ids = np.arange(8, dtype=np.int64)
        region = Region(ids, 0.0, 1e-5, 0.0, 1e-5, 0, 3)
        placer._finalize(region)
        pl = placer.placement
        areas = placer.netlist.areas
        per_layer = np.zeros(4)
        for c in ids:
            per_layer[int(pl.z[c])] += areas[c]
        # greedy largest-first balancing: spread within one max cell
        assert per_layer.max() - per_layer.min() <= \
            float(areas[ids].max()) + 1e-18
        assert (per_layer > 0).sum() >= 3  # actually uses the layers


# ----------------------------------------------------------------------
# Terminal propagation, one level at a time
# ----------------------------------------------------------------------
def _reference_task(placer, region):
    """The former per-region, per-net, per-pin loop that built a
    region's task, kept as the reference of the level builder."""
    axis = placer._choose_axis(region)
    cells = region.cell_ids
    local = {cid: i for i, cid in enumerate(cells)}
    k = len(cells)
    areas = placer.netlist.areas
    z_mid = 0
    cut = 0.0
    if axis == "x":
        cut = 0.5 * (region.xlo + region.xhi)
    elif axis == "y":
        cut = 0.5 * (region.ylo + region.yhi)
    else:
        z_mid = (region.zlo + region.zhi) // 2
    nets, weights = [], []
    terminal_of_side = {0: -1, 1: -1}
    vertex_weights = [float(areas[c]) for c in cells]
    fixed = [-1] * k

    def terminal(side):
        if terminal_of_side[side] < 0:
            terminal_of_side[side] = len(vertex_weights)
            vertex_weights.append(0.0)
            fixed.append(side)
        return terminal_of_side[side]

    px, py, pz = placer.placement.x, placer.placement.y, placer.placement.z

    def side_of_external(cid):
        if axis == "x":
            return 0 if px[cid] <= cut else 1
        if axis == "y":
            return 0 if py[cid] <= cut else 1
        return 0 if pz[cid] <= z_mid else 1

    weight_arr = placer._vertical_w if axis == "z" else placer._lateral_w
    seen = set()
    for cid in cells:
        for nid in placer.netlist.nets_of_cell(cid):
            if nid in seen:
                continue
            seen.add(nid)
            internal = []
            ext_sides = set()
            for pc in placer.netlist.nets[nid].unique_cell_ids:
                li = local.get(pc)
                if li is not None:
                    internal.append(li)
                else:
                    ext_sides.add(side_of_external(pc))
            if len(ext_sides) == 2:
                continue
            pins = list(internal)
            for s in sorted(ext_sides):
                pins.append(terminal(s))
            if len(pins) < 2:
                continue
            weights.append(float(weight_arr[nid]))
            nets.append(pins)
    if axis == "z" and placer.config.thermal_enabled \
            and placer.config.use_trr_nets:
        scale = placer.chip.layer_pitch / placer.config.alpha_ilv
        for cid in cells:
            w = float(placer._trr_w[cid])
            if w > 0.0:
                nets.append([local[cid], terminal(0)])
                weights.append(w * scale)
    if axis == "z":
        target = (z_mid - region.zlo + 1) / region.layers
    else:
        target = 0.5
    capacity = (region.width * region.height * region.layers
                / (1.0 + placer.config.tech.inter_row_space))
    used = float(sum(vertex_weights))
    whitespace = max(0.0, 1.0 - used / capacity) if capacity > 0 else 0.0
    tolerance = max(MIN_PARTITION_TOLERANCE, 0.5 * whitespace)
    return BisectionTask.from_nets(
        nets, weights, vertex_weights, fixed, target=target,
        tolerance=tolerance, num_starts=placer.config.partition_starts,
        max_passes=PARTITION_PASSES,
        seed=task_seed(placer.config.seed, region.path), key=region.path)


def _pin_lists(task):
    ptr = task.net_ptr.tolist()
    pins = task.pin_vertices.tolist()
    return [pins[a:b] for a, b in zip(ptr[:-1], ptr[1:])]


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def assert_same_task(task, ref):
    """Equal hypergraphs and bit-equal scalars; the task's own pins
    already ascending and distinct within each net."""
    nets = _pin_lists(task)
    assert nets == [sorted(set(pins)) for pins in nets]
    assert nets == [sorted(set(pins)) for pins in _pin_lists(ref)]
    assert task.hypergraph().nets == nets
    for name in ("net_weights", "vertex_weights", "fixed"):
        got, want = getattr(task, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    for name in ("target", "tolerance", "seed", "key", "num_starts",
                 "max_passes"):
        got, want = getattr(task, name), getattr(ref, name)
        assert type(got) is type(want), name
        assert _bits(got) == _bits(want), name


GLOBAL_ONLY = PipelineSpec.from_dict({"pipeline": [{"stage": "global"}]})


class TestLevelBuilderReference:
    """Every region of every level of a run, against the reference."""

    @pytest.mark.parametrize("circuit, scale, options, axes", [
        ("synthetic2k", 1.0, {}, "xyz"),
        ("ibm01", 0.03, {"alpha_temp": 5.2e-3}, "xyz"),
        ("ibm01", 0.05, {"num_layers": 1}, "xy"),
    ], ids=["synthetic2k", "ibm01-trr", "ibm01-1layer"])
    def test_every_level_matches_reference(self, monkeypatch, circuit,
                                           scale, options, axes):
        built = GlobalPlacer._build_tasks
        levels = []
        seen = set()
        trr_regions = []

        def checked(self, regions):
            tasks = built(self, regions)
            assert len(tasks) == len(regions)
            for region, task in zip(regions, tasks):
                assert_same_task(task, _reference_task(self, region))
                axis = self._choose_axis(region)
                seen.add(axis)
                if axis == "z" and self.config.thermal_enabled \
                        and (self._trr_w[region.cell_ids] > 0).any():
                    trr_regions.append(region.path)
            levels.append(len(tasks))
            return tasks

        monkeypatch.setattr(GlobalPlacer, "_build_tasks", checked)
        config = PlacementConfig(**options)
        Placer3D(load_benchmark(circuit, scale=scale), config,
                 spec=GLOBAL_ONLY).run()
        assert len(levels) >= 8 and max(levels) >= 32
        assert "".join(sorted(seen)) == axes
        # the thermal run has TRR nets on its z cuts
        assert bool(trr_regions) == config.thermal_enabled


class TestHandBuiltLevel:
    """One level of hand-built regions, each hitting one rule."""

    #: ``name -> cells``; region A holds cells 0-3, region B 6-7,
    #: cell 4 sits left of A's cut and on layer 0, cell 5 right of it
    #: and on layer 1, and cells 8-9 (region C) have no nets.
    NETS = {
        "a_both_sides": (0, 4, 5),  # external pins on both sides
        "a_side1": (2, 5),          # A's first terminal: side 1
        "a_internal": (1, 0),
        "a_one_pin": (3,),          # fewer than two pins
        "a_one_cell": (1, 1),       # fewer than two distinct pins
        "a_side0": (3, 4),
        "b_above": (6, 5),          # B's only signal terminal: side 1
        "b_internal": (6, 7),
    }

    @pytest.fixture
    def level(self):
        netlist = Netlist("hand")
        for i in range(10):
            netlist.add_cell(f"c{i}", 2e-6, 1e-6)
        for name, cells in self.NETS.items():
            netlist.add_net(name, [(c, PinRole.SINK) for c in cells])
        config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=5.2e-3,
                                 num_layers=2)
        chip = make_chip(netlist, num_layers=2)
        placer = GlobalPlacer(Placement(netlist, chip), config)
        placer.placement.x[4], placer.placement.z[4] = 0.1 * chip.width, 0
        placer.placement.x[5], placer.placement.z[5] = 0.9 * chip.width, 1
        placer._trr_w = np.zeros(netlist.num_cells)
        placer._trr_w[7] = 0.25
        regions = [
            Region(np.arange(4, dtype=np.int64), 0.0, chip.width, 0.0,
                   0.1 * chip.width, 0, 0, path=2),
            Region(np.array([6, 7], dtype=np.int64), 0.0, 1e-9, 0.0,
                   1e-9, 0, 1, path=3),
            Region(np.array([8, 9], dtype=np.int64), 0.0, chip.width,
                   0.0, chip.height, 0, 0, path=4),
        ]
        return placer, regions, placer._build_tasks(regions)

    def test_matches_reference(self, level):
        placer, regions, tasks = level
        for region, task in zip(regions, tasks):
            assert_same_task(task, _reference_task(placer, region))

    def test_lateral_cut_drops_and_numbers_terminals(self, level):
        placer, regions, (a, _, _) = level
        assert placer._choose_axis(regions[0]) == "x"
        # both-sides, one-pin and one-cell nets dropped; the side-1
        # terminal is needed first, so it is vertex 4
        assert _pin_lists(a) == [[0, 1], [2, 4], [3, 5]]
        assert a.fixed.tolist() == [-1, -1, -1, -1, 1, 0]
        assert a.vertex_weights[4:].tolist() == [0.0, 0.0]
        assert a.net_weights.tolist() == [1.0, 1.0, 1.0]

    def test_trr_nets_claim_side0_terminal_last(self, level):
        placer, regions, (_, b, _) = level
        assert placer._choose_axis(regions[1]) == "z"
        assert _pin_lists(b) == [[0, 2], [0, 1], [1, 3]]
        assert b.fixed.tolist() == [-1, -1, 1, 0]
        scale = placer.chip.layer_pitch / placer.config.alpha_ilv
        assert b.net_weights.tolist() == [1.0, 1.0, 0.25 * scale]

    def test_region_without_nets(self, level):
        _, _, (_, _, c) = level
        assert c.num_nets == 0 and c.net_ptr.tolist() == [0]
        assert c.fixed.tolist() == [-1, -1]
        assert c.hypergraph().nets == []
        assert len(solve(c)) == 2

    def test_each_region_alone_builds_the_same_task(self, level):
        placer, regions, tasks = level
        for region, task in zip(regions, tasks):
            [alone] = placer._build_tasks([region])
            assert_same_task(alone, task)

