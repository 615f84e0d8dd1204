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


class TestBlockInvariance:
    """Where phase 1's cell blocks end changes nothing.

    ``CELL_BLOCK = 1`` generates and scores every cell on its own;
    ``10**9`` the whole pass in one block.  Both must leave the same
    placement, objective bits, executed counts and candidate counter.
    """

    @staticmethod
    def _run(monkeypatch, block, alpha_temp):
        from repro import PlacementConfig, load_benchmark
        from repro.obs import Recorder, use_recorder

        monkeypatch.setattr(moves_module, "CELL_BLOCK", block)
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
    def test_one_cell_and_one_block_agree(self, monkeypatch, alpha_temp):
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


def _reference_targets(opt, centre, local_only, radius):
    """The former scalar target rule, kept as the reference: the bins
    within ``radius`` of ``centre`` by nested (i, j, k) loops, then, in
    a thermal global pass, the rest of the vertical stack at the
    centre's lateral position by ascending layer."""
    mesh = opt.mesh
    ci, cj, ck = centre
    targets = []
    for i in range(max(0, ci - radius), min(mesh.nx, ci + radius + 1)):
        for j in range(max(0, cj - radius), min(mesh.ny, cj + radius + 1)):
            for k in range(max(0, ck - radius),
                           min(mesh.nz, ck + radius + 1)):
                targets.append((i, j, k))
    if not local_only and opt.config.alpha_temp > 0:
        for k in range(mesh.nz):
            if (ci, cj, k) not in targets:
                targets.append((ci, cj, k))
    return targets


class _ReferenceBuffers:
    """The former per-candidate scoring buffers of one block: moves
    ``(cell, x, y, bin)`` and swaps ``(cell, partner, bin)``, and in
    ``entry`` every candidate in generation order (``k`` for move
    ``k``, ``~k`` for swap ``k``); ``span`` holds where each cell's
    entries start, plus a final end."""

    def __init__(self):
        self.mv_cell, self.mv_x, self.mv_y, self.mv_bin = [], [], [], []
        self.sw_a, self.sw_b, self.sw_bin = [], [], []
        self.entry, self.span = [], [0]

    def unified(self):
        """The candidates as ``(cell, partner, x, y, bins, span)``
        arrays, a move's partner -1 and a swap's point 0.0."""
        rows = []
        for e in self.entry:
            if e >= 0:
                rows.append((self.mv_cell[e], -1, self.mv_x[e],
                             self.mv_y[e], self.mv_bin[e]))
            else:
                rows.append((self.sw_a[~e], self.sw_b[~e], 0.0, 0.0,
                             self.sw_bin[~e]))
        cell, partner, x, y, bins = (list(col) for col in zip(*rows)) \
            if rows else ([], [], [], [], [])
        return (np.asarray(cell, dtype=np.int64),
                np.asarray(partner, dtype=np.int64),
                np.asarray(x, dtype=np.float64),
                np.asarray(y, dtype=np.float64),
                np.asarray(bins, dtype=np.int64).reshape(-1, 3),
                np.asarray(self.span, dtype=np.int64))


def _collect_candidates(opt, cid, cur_bin, targets, cand, centred):
    """The former scalar scan of one cell's move/swap candidates, kept
    as the reference: two jitter values per target, then a swap-partner
    sample per crowded target bin, drawn from ``opt.members`` lists;
    the landing point of a rescanned (``centred``) cell is written the
    other way (DESIGN.md, "Two WL associations")."""
    mesh = opt.mesh
    areas = opt._areas
    area = float(areas[cid])
    limit = moves_module.DENSITY_LIMIT * mesh.bin_capacity
    bin_area = mesh._area
    bw = mesh.bin_width
    bh = mesh.bin_height
    cur_area = float(bin_area[cur_bin])
    jitter = opt._rng.random(2 * len(targets)).tolist()
    for ti, t in enumerate(targets):
        if t == cur_bin:
            continue
        area_t = float(bin_area[t])
        if area_t + area <= limit:
            u, v = jitter[2 * ti], jitter[2 * ti + 1]
            cand.entry.append(len(cand.mv_cell))
            cand.mv_cell.append(cid)
            if centred:
                cand.mv_x.append((t[0] + 0.5) * bw
                                 + (u - 0.5) * (0.5 * bw) * 2.0)
                cand.mv_y.append((t[1] + 0.5) * bh
                                 + (v - 0.5) * (0.5 * bh) * 2.0)
            else:
                cand.mv_x.append((t[0] + u) * bw)
                cand.mv_y.append((t[1] + v) * bh)
            cand.mv_bin.append(t)
        members = opt.members.get(t)
        if not members:
            continue
        if len(members) > moves_module.MAX_SWAP_CANDIDATES:
            members = list(opt._rng.choice(
                members, size=moves_module.MAX_SWAP_CANDIDATES,
                replace=False))
        for other in members:
            other = int(other)
            if other == cid:
                continue
            other_area = float(areas[other])
            if area_t - other_area + area > limit:
                continue
            if cur_area - area + other_area > limit:
                continue
            cand.entry.append(~len(cand.sw_a))
            cand.sw_a.append(cid)
            cand.sw_b.append(other)
            cand.sw_bin.append(t)
    cand.span.append(len(cand.entry))


def _float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestPhaseOneReference:
    """Every block the generator builds, in phase 1 and in rescans,
    equals the former per-cell scan's buffers on the same state and
    the same random draws: the same entries in the same order, the
    same spans, the same landing-point bits and the same random-stream
    state after the block.  The reference runs first, then the stream
    is rewound and the generator runs, so the pass continues
    unchanged."""

    @pytest.mark.parametrize("alpha_temp", [0.0, 5.2e-3])
    def test_blocks_match_reference(self, monkeypatch, alpha_temp):
        from repro import PlacementConfig, load_benchmark

        monkeypatch.setattr(moves_module, "CELL_BLOCK", 50)
        netlist = load_benchmark("ibm01", scale=0.03)
        config = PlacementConfig(alpha_temp=alpha_temp, seed=2)
        pl = Placement.random(netlist, make_chip(netlist), seed=4)
        opt = MoveOptimizer(ObjectiveState(pl, config), config)
        generate = opt._candidates
        seen = {"phase1": 0, "rescan": 0, "stack": 0, "crowded": 0}

        def checked(cells, cur_bins, centres, local_only, radius, *,
                    rescan=False):
            state = opt._rng.bit_generator.state
            cand = _ReferenceBuffers()
            for q, cid in enumerate(cells.tolist()):
                centre = tuple(centres[q].tolist())
                targets = _reference_targets(opt, centre, local_only,
                                             radius)
                seen["stack"] += any(abs(t[2] - centre[2]) > radius
                                     for t in targets)
                seen["crowded"] += sum(
                    len(opt.members.get(t, ())) >
                    moves_module.MAX_SWAP_CANDIDATES for t in targets)
                _collect_candidates(opt, cid, tuple(cur_bins[q].tolist()),
                                    targets, cand, centred=rescan)
            after = opt._rng.bit_generator.state
            opt._rng.bit_generator.state = state
            block = generate(cells, cur_bins, centres, local_only, radius,
                             rescan=rescan)
            assert opt._rng.bit_generator.state == after
            cell, partner, x, y, bins, span = cand.unified()
            assert np.array_equal(block.span, span)
            assert np.array_equal(block.cell, cell)
            assert np.array_equal(block.partner, partner)
            assert np.array_equal(block.bins, bins)
            assert np.array_equal(_float_bits(block.x), _float_bits(x))
            assert np.array_equal(_float_bits(block.y), _float_bits(y))
            seen["rescan" if rescan else "phase1"] += 1
            return block

        opt._candidates = checked
        for run_pass in (opt.global_pass, opt.local_pass):
            assert run_pass() > 0
        assert seen["phase1"] > 2 and seen["rescan"] > 0
        assert seen["crowded"] > 0
        assert (seen["stack"] > 0) == (alpha_temp > 0)

    def test_snapshot_membership_matches_members(self, optimizer):
        optimizer._rebuild_mesh()
        mesh = optimizer.mesh
        ptr, ids = optimizer._bin_ptr, optimizer._bin_ids
        for (i, j, k), members in optimizer.members.items():
            b = (i * mesh.ny + j) * mesh.nz + k
            assert ids[ptr[b]:ptr[b + 1]].tolist() == members
        assert ptr[-1] == sum(map(len, optimizer.members.values()))


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

        def checked(cid, local_only, radius):
            cur_bins, centres = opt._bins(np.asarray([cid]), local_only)
            cur_bin = tuple(cur_bins[0].tolist())
            targets = _reference_targets(opt, tuple(centres[0].tolist()),
                                         local_only, radius)
            state = opt._rng.bit_generator.state
            expected = _reference_best_action(opt, cid, cur_bin, targets)
            after = opt._rng.bit_generator.state
            opt._rng.bit_generator.state = state
            row, got_bin = rescan(cid, local_only, radius)
            assert opt._rng.bit_generator.state == after
            assert got_bin == cur_bin
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
            return row, got_bin

        opt._rescan = checked
        for run_pass in (opt.global_pass, opt.local_pass):
            before = len(seen)
            assert run_pass() > 0
            assert len(seen) > before  # the pass rescanned some cell
        assert any(seen)  # and some rescan found an improving action
