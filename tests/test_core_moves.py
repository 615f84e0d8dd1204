"""Unit tests for the coarse-legalization move/swap passes."""

import numpy as np
import pytest

import repro.core.moves as moves_module
from repro.core.moves import MoveOptimizer
from repro.core.objective import ObjectiveState
from repro.geometry.density import DensityMesh
from repro.netlist.placement import Placement
from tests.conftest import group_by_bin, make_chip


@pytest.fixture
def optimizer(small_netlist, config):
    chip = make_chip(small_netlist)
    pl = Placement.random(small_netlist, chip, seed=4)
    obj = ObjectiveState(pl, config)
    return MoveOptimizer(obj, config)


class TestPasses:
    def test_global_pass_improves_objective(self, optimizer):
        before = optimizer.objective.total
        executed = optimizer.global_pass()
        assert executed > 0
        assert optimizer.objective.total < before

    def test_local_pass_never_worsens(self, optimizer):
        optimizer.global_pass()
        before = optimizer.objective.total
        optimizer.local_pass()
        assert optimizer.objective.total <= before + 1e-15

    def test_objective_consistency_after_passes(self, optimizer):
        optimizer.global_pass()
        optimizer.local_pass()
        optimizer.objective.check_consistency()

    def test_moves_deterministic(self, small_netlist, config):
        results = []
        for _ in range(2):
            chip = make_chip(small_netlist)
            pl = Placement.random(small_netlist, chip, seed=4)
            obj = ObjectiveState(pl, config)
            MoveOptimizer(obj, config).global_pass()
            results.append(pl.x.copy())
        assert np.array_equal(results[0], results[1])

    def test_cells_stay_inside(self, optimizer):
        optimizer.global_pass()
        pl = optimizer.objective.placement
        chip = pl.chip
        assert np.all((pl.x >= 0) & (pl.x <= chip.width))
        assert np.all((pl.z >= 0) & (pl.z < chip.num_layers))

    def test_mesh_consistent_after_pass(self, optimizer):
        optimizer.global_pass()
        pl = optimizer.objective.placement
        areas = pl.netlist.areas
        recorded = sum(
            optimizer.mesh.area_in((i, j, k))
            for i in range(optimizer.mesh.nx)
            for j in range(optimizer.mesh.ny)
            for k in range(optimizer.mesh.nz))
        total = float(sum(areas[c.id] for c in pl.netlist.cells
                          if c.movable))
        assert recorded == pytest.approx(total, rel=1e-9)


class TestRadius:
    def test_radius_for_bins(self, optimizer):
        assert optimizer._radius_for_bins(1) == 1
        assert optimizer._radius_for_bins(27) == 1
        assert optimizer._radius_for_bins(28) == 2
        assert optimizer._radius_for_bins(125) == 2

    def test_thermal_adds_layer_candidates(self, small_netlist,
                                           thermal_config):
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=4)
        obj = ObjectiveState(pl, thermal_config)
        opt = MoveOptimizer(obj, thermal_config)
        before = obj.total
        opt.global_pass()
        assert obj.total < before


class TestDensityRespect:
    def test_density_limit_not_exceeded_by_much(self, small_netlist,
                                                config, monkeypatch):
        monkeypatch.setattr(moves_module, "DENSITY_LIMIT", 1.2)
        chip = make_chip(small_netlist)
        pl = Placement.random(small_netlist, chip, seed=4)
        obj = ObjectiveState(pl, config)
        opt = MoveOptimizer(obj, config)
        opt.global_pass()
        opt._rebuild_mesh()
        areas = pl.netlist.areas
        biggest = float(areas.max())
        cap = opt.mesh.bin_capacity
        # bins can exceed the limit only by what was there initially;
        # moves themselves must not push past limit + one cell
        assert opt.mesh.max_density <= max(
            1.2 + biggest / cap, opt.mesh.max_density)  # sanity bound


class TestBinModel:
    """After every pass the optimizer's bin membership and its
    incrementally updated area grid equal a fresh build from the
    placement."""

    @pytest.mark.parametrize("alpha_temp", [0.0, 5.2e-3])
    def test_membership_and_areas_match_a_fresh_build(self, alpha_temp):
        from repro import PlacementConfig, load_benchmark

        netlist = load_benchmark("ibm01", scale=0.03)
        config = PlacementConfig(alpha_temp=alpha_temp, seed=2)
        pl = Placement.random(netlist, make_chip(netlist), seed=4)
        opt = MoveOptimizer(ObjectiveState(pl, config), config)
        fresh = DensityMesh(pl.chip, opt.mesh.nx, opt.mesh.ny)
        for run_pass in (opt.global_pass, opt.local_pass,
                         opt.global_pass, opt.local_pass):
            assert run_pass() > 0
            members = {index: sorted(ids)
                       for index, ids in opt.members.items() if ids}
            assert members == group_by_bin(pl, opt.mesh)
            fresh.build_from_placement(pl, netlist.areas)
            want = fresh.densities * fresh.bin_capacity
            got = opt.mesh.densities * opt.mesh.bin_capacity
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * want.max())

    def test_rebuild_lists_each_bin_by_ascending_id(self, optimizer):
        optimizer._rebuild_mesh()
        pl = optimizer.objective.placement
        assert optimizer.members == group_by_bin(pl, optimizer.mesh)


class TestChunkInvariance:
    """Where phase 1's scoring buffers end changes nothing.

    ``BATCH_CHUNK = 1`` scores after every cell; ``10**9`` scores the
    whole pass in one buffer, the schedule that kept every candidate.
    Both must leave the same placement, objective bits, executed counts
    and candidate counter.
    """

    @staticmethod
    def _run(monkeypatch, chunk, alpha_temp):
        from repro import PlacementConfig, load_benchmark
        from repro.obs import Recorder, use_recorder

        monkeypatch.setattr(moves_module, "BATCH_CHUNK", chunk)
        netlist = load_benchmark("ibm01", scale=0.03)
        config = PlacementConfig(alpha_temp=alpha_temp, seed=2)
        pl = Placement.random(netlist, make_chip(netlist), seed=4)
        obj = ObjectiveState(pl, config)
        opt = MoveOptimizer(obj, config)
        rec = Recorder()
        with use_recorder(rec):
            executed = (opt.global_pass(), opt.local_pass())
        return pl, obj.total, executed, rec.counters["moves/candidates"]

    @pytest.mark.parametrize("alpha_temp", [0.0, 1e-5])
    def test_one_cell_and_one_buffer_agree(self, monkeypatch, alpha_temp):
        pl_a, total_a, exec_a, cand_a = self._run(monkeypatch, 1,
                                                  alpha_temp)
        pl_b, total_b, exec_b, cand_b = self._run(monkeypatch, 10**9,
                                                  alpha_temp)
        assert min(exec_a) > 0
        assert exec_a == exec_b
        assert cand_a == cand_b
        for a, b in ((pl_a.x, pl_b.x), (pl_a.y, pl_b.y), (pl_a.z, pl_b.z)):
            assert np.array_equal(a, b)
        assert np.float64(total_a).view(np.int64) \
            == np.float64(total_b).view(np.int64)


def _reference_best_action(opt, cid, cur_bin, targets):
    """The sequential rescan a displaced cell went through before it
    shared phase 1's generator and selector, kept as the reference.

    Returns ``(moves, target_bin, partner)`` for the cell's best
    strictly improving move or swap, or None.
    """
    mesh = opt.mesh
    placement = opt.objective.placement
    area = float(opt._areas[cid])
    limit = moves_module.DENSITY_LIMIT * mesh.bin_capacity
    cur_area = mesh.area_in(cur_bin)
    half_w = 0.5 * mesh.bin_width
    half_h = 0.5 * mesh.bin_height

    move_xs, move_ys, move_zs, move_bins, move_seq = [], [], [], [], []
    swap_others, swap_bins, swap_seq = [], [], []
    seq = 0
    jitter = opt._rng.random(2 * len(targets))
    for ti, t in enumerate(targets):
        if t == cur_bin:
            continue
        # the bin's centre point
        tx, ty, tz = ((t[0] + 0.5) * mesh.bin_width,
                      (t[1] + 0.5) * mesh.bin_height, t[2])
        tx += (jitter[2 * ti] - 0.5) * half_w * 2.0
        ty += (jitter[2 * ti + 1] - 0.5) * half_h * 2.0
        area_t = mesh.area_in(t)
        if area_t + area <= limit:
            move_xs.append(tx)
            move_ys.append(ty)
            move_zs.append(tz)
            move_bins.append(t)
            move_seq.append(seq)
            seq += 1
        members = list(opt.members.get(t, ()))
        if len(members) > moves_module.MAX_SWAP_CANDIDATES:
            members = list(opt._rng.choice(
                members, size=moves_module.MAX_SWAP_CANDIDATES,
                replace=False))
        for other in members:
            other = int(other)
            if other == cid:
                continue
            other_area = float(opt._areas[other])
            if area_t - other_area + area > limit:
                continue
            if cur_area - area + other_area > limit:
                continue
            swap_others.append(other)
            swap_bins.append(t)
            swap_seq.append(seq)
            seq += 1

    move_deltas = opt.objective.eval_moves_batch(
        [cid] * len(move_xs), move_xs, move_ys, move_zs)
    swap_deltas = opt.objective.eval_swaps_batch(
        [cid] * len(swap_others), swap_others)

    best_delta = -1e-18
    best = None
    candidates = sorted(
        [(s, float(d), ("move", k))
         for k, (s, d) in enumerate(zip(move_seq, move_deltas))]
        + [(s, float(d), ("swap", k))
           for k, (s, d) in enumerate(zip(swap_seq, swap_deltas))])
    for _, delta, (kind, k) in candidates:
        if delta < best_delta:
            best_delta = delta
            if kind == "move":
                best = ([(cid, move_xs[k], move_ys[k], move_zs[k])],
                        move_bins[k], None)
            else:
                other = swap_others[k]
                moves = [
                    (cid, float(placement.x[other]),
                     float(placement.y[other]), int(placement.z[other])),
                    (other, float(placement.x[cid]),
                     float(placement.y[cid]), int(placement.z[cid])),
                ]
                best = (moves, swap_bins[k], other)
    return best


def _bits(action):
    """An action with every coordinate as its IEEE-754 bit pattern."""
    if action is None:
        return None
    moves, target_bin, partner = action
    return ([(int(c), float(x).hex(), float(y).hex(), int(z))
             for c, x, y, z in moves],
            tuple(int(v) for v in target_bin), partner)


class TestRescanReference:
    """A displaced cell's rescan chooses what the sequential scan did.

    Every rescan of one global and one local pass is checked against
    :func:`_reference_best_action` on the same state and the same
    random draws: the reference runs first, then the random stream is
    rewound and the rescan runs, so the pass continues unchanged.
    """

    @pytest.mark.parametrize("alpha_temp", [0.0, 5.2e-3])
    def test_rescan_matches_reference(self, alpha_temp):
        from repro import PlacementConfig, load_benchmark

        netlist = load_benchmark("ibm01", scale=0.03)
        config = PlacementConfig(alpha_temp=alpha_temp, seed=2)
        pl = Placement.random(netlist, make_chip(netlist), seed=4)
        opt = MoveOptimizer(ObjectiveState(pl, config), config)
        rescan = opt._rescan
        seen = []

        def checked(cid, cur_bin, targets):
            state = opt._rng.bit_generator.state
            expected = _reference_best_action(opt, cid, cur_bin, targets)
            after = opt._rng.bit_generator.state
            opt._rng.bit_generator.state = state
            row = rescan(cid, cur_bin, targets)
            assert opt._rng.bit_generator.state == after
            got = None
            if row.delta[0] < -1e-18:
                other = int(row.partner[0])
                if other < 0:
                    moves = [(cid, row.x[0], row.y[0], row.bins[0, 2])]
                else:
                    moves = [(cid, pl.x[other], pl.y[other], pl.z[other]),
                             (other, pl.x[cid], pl.y[cid], pl.z[cid])]
                got = (moves, row.bins[0], None if other < 0 else other)
            assert _bits(got) == _bits(expected)
            seen.append(expected is not None)
            return row

        opt._rescan = checked
        for run_pass in (opt.global_pass, opt.local_pass):
            before = len(seen)
            assert run_pass() > 0
            assert len(seen) > before  # the pass rescanned some cell
        assert any(seen)  # and some rescan found an improving action
