"""Unit tests for row-aware cell shifting (Section 4.1)."""

import numpy as np
import pytest

import repro.core.cellshift as cellshift_module
from repro.core.cellshift import (BETA_CANDIDATES, MAX_DENSITY, CellShifter,
                                  shifted_widths)
from repro.core.objective import ObjectiveState, first_minima
from repro.geometry.density import DensityMesh
from repro.netlist.placement import Placement
from tests.conftest import group_by_bin, make_chip

PARAMS = dict(a_lower=0.5, a_upper=1.0, b=1.0)


class TestShiftedWidths:
    def test_row_without_congestion_untouched(self):
        w = shifted_widths([0.2, 0.9, 1.0, 0.5], 2.0, **PARAMS)
        assert np.allclose(w, 2.0)

    def test_total_width_conserved(self):
        d = [0.1, 2.5, 1.4, 0.0, 0.8]
        w = shifted_widths(d, 3.0, **PARAMS)
        assert w.sum() == pytest.approx(15.0)

    def test_congested_bins_expand(self):
        d = [0.5, 2.0, 0.5]
        w = shifted_widths(d, 1.0, **PARAMS)
        assert w[1] > 1.0
        assert w[0] < 1.0 and w[2] < 1.0

    def test_widths_strictly_positive(self):
        d = [0.0, 0.0, 10.0, 0.0, 0.0]
        w = shifted_widths(d, 1.0, **PARAMS)
        assert np.all(w > 0)

    def test_no_crossover_boundaries_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.uniform(0, 3, 10)
            w = shifted_widths(d, 1.0, **PARAMS)
            bounds = np.concatenate(([0.0], np.cumsum(w)))
            assert np.all(np.diff(bounds) > 0)

    def test_sparse_contract_only_as_needed(self):
        # one slightly congested bin among many empties: empties must
        # NOT contract to their minimum, only enough to feed the need
        d = [1.05] + [0.0] * 9
        w = shifted_widths(d, 1.0, **PARAMS)
        assert w[1] > 0.9  # barely touched

    def test_expansion_capped_by_availability(self):
        # massive congestion, one small donor
        d = [5.0, 0.9]
        w = shifted_widths(d, 1.0, **PARAMS)
        assert w.sum() == pytest.approx(2.0)
        assert w[1] >= 0.1

    def test_higher_density_wider_bin(self):
        d = [1.2, 3.0, 0.0, 0.0]
        w = shifted_widths(d, 1.0, **PARAMS)
        assert w[1] > w[0] > 1.0


class TestCellShifter:
    def make(self, netlist, config, concentrate=True, seed=0):
        chip = make_chip(netlist, num_layers=config.num_layers)
        pl = Placement.random(netlist, chip, seed=seed)
        if concentrate:
            pl.x[:] = 0.25 * chip.width + 0.1 * pl.x
            pl.y[:] = 0.25 * chip.height + 0.1 * pl.y
        obj = ObjectiveState(pl, config)
        return CellShifter(obj)

    def test_reduces_max_density(self, small_netlist, config):
        shifter = self.make(small_netlist, config)
        shifter._rebuild_mesh()
        before = shifter.mesh.max_density
        shifter.run()
        shifter._rebuild_mesh()
        assert shifter.mesh.max_density < before

    def test_removes_most_overflow(self, small_netlist, config):
        shifter = self.make(small_netlist, config)
        shifter._rebuild_mesh()
        before = shifter.mesh.overflow(MAX_DENSITY)
        shifter.run()
        shifter._rebuild_mesh()
        after = shifter.mesh.overflow(MAX_DENSITY)
        # most overflow gone; a residue is irreducible by shifting when
        # single cells are wider than a bin (centre-point binning)
        assert after < 0.35 * before

    def test_converged_placement_stops_quickly(self, small_netlist,
                                               config):
        shifter = self.make(small_netlist, config)
        shifter.run()
        iterations = shifter.run()
        # at the target (0 iterations) or stalls out within a few
        assert iterations <= 6

    def test_cells_stay_inside_chip(self, small_netlist, config):
        shifter = self.make(small_netlist, config)
        shifter.run()
        pl = shifter.objective.placement
        chip = pl.chip
        assert np.all((pl.x >= 0) & (pl.x <= chip.width))
        assert np.all((pl.y >= 0) & (pl.y <= chip.height))
        assert np.all((pl.z >= 0) & (pl.z < chip.num_layers))

    def test_objective_state_stays_consistent(self, small_netlist,
                                              config, monkeypatch):
        monkeypatch.setattr(cellshift_module, "MAX_ITERATIONS", 3)
        shifter = self.make(small_netlist, config)
        shifter.run()
        shifter.objective.check_consistency()

    def test_z_rebalances_layers(self, small_netlist, config):
        chip = make_chip(small_netlist, num_layers=config.num_layers)
        pl = Placement.random(small_netlist, chip, seed=1)
        pl.z[:] = 0  # everything on the bottom layer
        obj = ObjectiveState(pl, config)
        shifter = CellShifter(obj)
        shifter.run()
        populated = len(set(pl.z.tolist()))
        assert populated >= 2

    def test_beta_candidates_shape(self):
        assert all(0 < b <= 1 for b in BETA_CANDIDATES)
        assert 1.0 in BETA_CANDIDATES


# ----------------------------------------------------------------------
# The array pass against the former per-row pass
# ----------------------------------------------------------------------
def _reference_widths(densities, width, a_lower, a_upper, b):
    """The former one-row :func:`shifted_widths`."""
    d = np.asarray(densities, dtype=np.float64)
    n = len(d)
    congested = d > 1.0
    if not congested.any():
        return np.full(n, width, dtype=np.float64)
    factor = np.where(congested,
                      a_upper * (1.0 - 1.0 / np.maximum(d, 1e-12)) + b,
                      a_lower * (d - 1.0) + b)
    factor = np.clip(factor, cellshift_module.MIN_WIDTH_FACTOR, None)
    expansion = np.where(congested & (factor > 1.0),
                         (factor - 1.0) * width, 0.0)
    contraction = np.where(~congested & (factor < 1.0),
                           (1.0 - factor) * width, 0.0)
    need = float(expansion.sum())
    available = float(contraction.sum())
    if need <= 0.0 or available <= 0.0:
        return np.full(n, width, dtype=np.float64)
    matched = min(need, available)
    new = np.full(n, width, dtype=np.float64)
    new += expansion * (matched / need)
    new -= contraction * (matched / available)
    return new


class ReferenceCellShifter(CellShifter):
    """Cell shifting with the former pass: a Python walk over every
    row, bin and cell, each row's bins sized by one 1-D call.  The
    reference the array pass must match axis by axis, bit for bit."""

    def _restore(self, state):
        xs, ys, zs = state
        placement = self.objective.placement
        moves = []
        for cid, x, y, z in placement.iter_movable():
            if (x != xs[cid] or y != ys[cid] or z != zs[cid]):
                moves.append((cid, float(xs[cid]), float(ys[cid]),
                              int(zs[cid])))
        if moves:
            self.objective.apply_moves(moves)

    def _shift_axis(self, axis):
        mesh = self.mesh
        self._members = group_by_bin(self.objective.placement, mesh)
        if axis == "x":
            rows = [(j, k) for k in range(mesh.nz)
                    for j in range(mesh.ny)]
        elif axis == "y":
            rows = [(i, k) for k in range(mesh.nz)
                    for i in range(mesh.nx)]
        else:
            if mesh.nz < 2:
                return
            rows = [(i, j) for j in range(mesh.ny)
                    for i in range(mesh.nx)]
        lift_cost = self._lift_costs() if axis == "z" else None
        spans, moves = [], []
        for a, b in rows:
            self._shift_row(axis, a, b, spans, moves, lift_cost)
        if not moves:
            return
        deltas = self.objective.eval_moves_batch(
            [m[0] for m in moves], [m[1] for m in moves],
            [m[2] for m in moves], [m[3] for m in moves])
        chosen = [moves[lo + int(np.argmin(deltas[lo:hi]))]
                  for lo, hi in spans]
        self.objective.apply_moves(chosen)

    def _lift_costs(self):
        placement = self.objective.placement
        chip = placement.chip
        cells, xs, ys, zs = [], [], [], []
        for cid, x, y, z in placement.iter_movable():
            if int(z) + 1 < chip.num_layers:
                cells.append(cid)
                xs.append(float(x))
                ys.append(float(y))
                zs.append(int(z) + 1)
        deltas = self.objective.eval_moves_batch(cells, xs, ys, zs)
        return {cid: float(d) for cid, d in zip(cells, deltas)}

    def _shift_row(self, axis, a, b, spans, moves, lift_cost):
        mesh = self.mesh
        if axis == "x":
            n_bins, width = mesh.nx, mesh.bin_width
            row = mesh._area[:, a, b]
        elif axis == "y":
            n_bins, width = mesh.ny, mesh.bin_height
            row = mesh._area[a, :, b]
        else:
            n_bins, width = mesh.nz, 1.0
            row = mesh._area[a, b, :]
        if n_bins < 2:
            return
        new_widths = _reference_widths(row / mesh.bin_capacity, width,
                                       cellshift_module.A_LOWER,
                                       cellshift_module.A_UPPER,
                                       cellshift_module.B)
        if np.allclose(new_widths, width):
            return
        old_bounds = np.arange(n_bins + 1, dtype=np.float64) * width
        new_bounds = np.concatenate(([0.0], np.cumsum(new_widths)))
        for i in range(n_bins):
            index = {"x": (i, a, b), "y": (a, i, b), "z": (a, b, i)}[axis]
            members = self._members.get(index, [])
            if not members:
                continue
            coords = self._member_coords(axis, i, members, lift_cost)
            for cid, coord in zip(members, coords):
                mapped = (new_widths[i] / width * (coord - old_bounds[i])
                          + new_bounds[i])
                cand = self._candidate_moves(axis, cid, coord, mapped)
                if cand:
                    spans.append((len(moves), len(moves) + len(cand)))
                    moves.extend(cand)

    def _member_coords(self, axis, bin_i, members, lift_cost):
        placement = self.objective.placement
        if axis == "x":
            return [float(placement.x[cid]) for cid in members]
        if axis == "y":
            return [float(placement.y[cid]) for cid in members]
        inf = float("inf")
        order = sorted(members, key=lambda cid: lift_cost.get(cid, inf),
                       reverse=True)
        n = len(order)
        rank_of = {cid: r for r, cid in enumerate(order)}
        return [bin_i + (rank_of[cid] + 0.5) / n for cid in members]

    def _candidate_moves(self, axis, cid, old, target):
        placement = self.objective.placement
        chip = placement.chip
        fixed = self._fixed_beta
        candidates = BETA_CANDIDATES if fixed is None else (fixed,)
        moves = []
        for beta in candidates:
            coord = beta * target + (1.0 - beta) * old
            if axis == "x":
                x = min(max(coord, 0.0), chip.width)
                move = (cid, x, float(placement.y[cid]),
                        int(placement.z[cid]))
            elif axis == "y":
                y = min(max(coord, 0.0), chip.height)
                move = (cid, float(placement.x[cid]), y,
                        int(placement.z[cid]))
            else:
                layer = chip.clamp_layer(coord - 0.5)
                if layer == int(placement.z[cid]):
                    continue
                move = (cid, float(placement.x[cid]),
                        float(placement.y[cid]), layer)
            moves.append(move)
        return moves


def _bits(obj):
    """Everything a pass can change, as exact bytes by name."""
    pl = obj.placement
    power, total, wl, drv_rsum = obj.checkpoint_state()
    return {"x": pl.x.tobytes(), "y": pl.y.tobytes(), "z": pl.z.tobytes(),
            "total": float(total).hex(), "power": power.tobytes(),
            "wl": wl.tobytes(),
            "drv_rsum": None if drv_rsum is None else drv_rsum.tobytes(),
            "extremes_dirty": obj._extremes_dirty}


def _traced(shifter):
    """Wrap a shifter's axis pass and batched scoring; returns the log
    of ``("eval", batch size)`` and ``(axis, state bits)`` entries."""
    log = []
    shift, score = shifter._shift_axis, shifter.objective.eval_moves_batch

    def shift_axis(axis):
        shift(axis)
        log.append((axis, _bits(shifter.objective)))

    def eval_moves_batch(cells, xs, ys, zs):
        log.append(("eval", len(cells)))
        return score(cells, xs, ys, zs)

    shifter._shift_axis = shift_axis
    shifter.objective.eval_moves_batch = eval_moves_batch
    return log


def _cellshift_telemetry(rec):
    return ({k: v for k, v in rec.counters.items()
             if k.startswith("cellshift/")},
            {k: v for k, v in rec.gauges.items()
             if k.startswith("cellshift/")},
            [{k: v for k, v in point.items() if k != "t"}
             for point in rec.series.get("cellshift/iteration", [])])


def _assert_same_log(log, ref_log):
    assert [entry[0] for entry in log] == [entry[0] for entry in ref_log]
    for step, ((kind, got), (_, want)) in enumerate(zip(log, ref_log)):
        if kind == "eval":
            assert got == want, f"step {step}: batch of {got}, not {want}"
        else:
            differ = [name for name in want if got[name] != want[name]]
            assert not differ, f"step {step} ({kind} pass): {differ} differ"


@pytest.fixture(scope="module")
def placed_pair():
    """``pair(layers, alpha_temp)``: two identical states of ibm01 at
    scale 0.03 after global placement (each placement computed once)."""
    from repro import PlacementConfig, load_benchmark
    from repro.core.globalplace import GlobalPlacer
    netlist = load_benchmark("ibm01", scale=0.03)
    placed = {}

    def pair(layers, alpha_temp):
        config = PlacementConfig(num_layers=layers, alpha_temp=alpha_temp)
        if (layers, alpha_temp) not in placed:
            pl = Placement.at_center(netlist,
                                     make_chip(netlist, num_layers=layers))
            GlobalPlacer(pl, config).run()
            placed[layers, alpha_temp] = pl
        return [ObjectiveState(placed[layers, alpha_temp].copy(), config)
                for _ in range(2)]

    return pair


class TestArrayPassMatchesReference:
    """From identical states, the array pass and the former per-row
    pass leave identical coordinates, objective bits and history-
    dependent caches after every axis, make the same batched scoring
    calls and record the same cell-shifting telemetry."""

    @pytest.mark.parametrize("layers", [1, 2, 4])
    @pytest.mark.parametrize("alpha_temp", [0.0, 5.2e-3])
    def test_run_matches_reference(self, placed_pair, layers,
                                   alpha_temp):
        from repro.obs import Recorder, use_recorder
        obj, ref_obj = placed_pair(layers, alpha_temp)
        shifter = CellShifter(obj)
        reference = ReferenceCellShifter(ref_obj)
        log, ref_log = _traced(shifter), _traced(reference)
        rec, ref_rec = Recorder(), Recorder()
        with use_recorder(ref_rec):
            ref_iterations = reference.run()
        with use_recorder(rec):
            iterations = shifter.run()
        assert iterations == ref_iterations >= 2
        _assert_same_log(log, ref_log)
        assert _cellshift_telemetry(rec) == _cellshift_telemetry(ref_rec)

    @pytest.mark.parametrize("layers", [1, 3])
    def test_fixed_beta_matches_reference(self, placed_pair, layers):
        obj, ref_obj = placed_pair(layers, 5.2e-3)
        shifter = CellShifter(obj)
        reference = ReferenceCellShifter(ref_obj)
        log, ref_log = _traced(shifter), _traced(reference)
        for each in (shifter, reference):
            each._fixed_beta = 0.5
            for _ in range(3):
                for axis in ("z", "x", "y"):
                    each._rebuild_mesh()
                    each._shift_axis(axis)
        _assert_same_log(log, ref_log)
        assert len({bits["x"] for axis, bits in log if axis == "x"}) == 3

    def test_z_pass_without_layer_changes(self, placed_pair):
        # One stack a little over full on layer 0 and under it on layer
        # 1: its row shifts, but no cell crosses a layer boundary.  All
        # other cells share one stack congested on both layers, which
        # does not shift.  The lift costs are scored all the same, and
        # that call refreshes the extreme caches.
        obj, ref_obj = placed_pair(2, 5.2e-3)
        netlist = obj.placement.netlist
        mesh = CellShifter(obj).mesh
        ids = netlist.movable_ids
        smallest = np.argsort(netlist.areas[ids], kind="stable")
        stack = np.full(len(ids), -1)  # layer in the lone stack
        stack[smallest[:8]], stack[smallest[8:15]] = 0, 1
        for each in (obj, ref_obj):
            pl = each.placement
            alone = stack >= 0
            pl.x[ids] = np.where(alone, 0.5 * mesh.bin_width,
                                 0.5 * pl.chip.width)
            pl.y[ids] = np.where(alone, 0.5 * mesh.bin_height,
                                 0.5 * pl.chip.height)
            pl.z[ids] = np.where(alone, stack, ids % 2)
            each.rebuild()
        shifter = CellShifter(obj)
        reference = ReferenceCellShifter(ref_obj)
        log, ref_log = _traced(shifter), _traced(reference)
        before = obj.placement.z.copy()
        for each in (shifter, reference):
            assert each.objective._extremes_dirty
            each._rebuild_mesh()
            each._shift_axis("z")
        lone = shifter.mesh.densities[0, 0]
        assert lone[0] > 1.0 > lone[1]
        assert not np.allclose(shifted_widths(lone, 1.0, **PARAMS), 1.0)
        _assert_same_log(log, ref_log)
        assert [entry[0] for entry in log] == ["eval", "z"]
        assert not obj._extremes_dirty
        np.testing.assert_array_equal(obj.placement.z, before)

    @pytest.mark.parametrize("nx, ny", [(1, 24), (24, 1), (1, 1)])
    def test_one_bin_along_an_axis(self, placed_pair, nx, ny):
        obj, ref_obj = placed_pair(3, 5.2e-3)
        shifter = CellShifter(obj)
        reference = ReferenceCellShifter(ref_obj)
        log, ref_log = _traced(shifter), _traced(reference)
        for each in (shifter, reference):
            each.mesh = DensityMesh(each.objective.placement.chip, nx, ny)
            for _ in range(2):
                for axis in ("z", "x", "y"):
                    each._rebuild_mesh()
                    each._shift_axis(axis)
        _assert_same_log(log, ref_log)
        passes = [entry for entry in log if entry[0] != "eval"]
        for before, after in zip(passes, passes[1:]):
            if (after[0], 1) in (("x", nx), ("y", ny)):
                assert after[1] == before[1]  # one bin: nothing shifts


class TestShiftedWidthRows:
    def test_rows_equal_one_dimensional_calls(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0.0, 2.5, (40, 23))
        d[::5] = rng.uniform(0.0, 0.9, (8, 23))  # rows left untouched
        d[1, :] = 3.0  # congested everywhere: nothing to give
        rows = shifted_widths(d, 1.7e-6, **PARAMS)
        assert rows.shape == d.shape
        for r in range(len(d)):
            assert rows[r].tobytes() == _reference_widths(
                d[r], 1.7e-6, **PARAMS).tobytes()
            assert rows[r].tobytes() == shifted_widths(
                d[r], 1.7e-6, **PARAMS).tobytes()

    @pytest.mark.parametrize("transpose", [(2, 1, 0), (2, 0, 1),
                                           (1, 0, 2)])
    def test_rows_read_through_a_transposed_mesh(self, transpose):
        # rows read through a transposed view of a mesh's areas are
        # strided: they must sum as the former pass's contiguous 1-D
        # rows did
        rng = np.random.default_rng(5)
        area = rng.uniform(0.0, 2.2, (37, 29, 31))
        for rows in area.transpose(transpose)[:3]:
            assert not rows.flags.c_contiguous
            widths = shifted_widths(rows, 0.3, **PARAMS)
            for r, row in enumerate(rows):
                assert widths[r].tobytes() == _reference_widths(
                    row, 0.3, **PARAMS).tobytes()


class TestFirstMinima:
    def test_matches_argmin_of_every_span(self):
        rng = np.random.default_rng(11)
        sizes = rng.integers(1, 7, 400)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        # few distinct values, so most spans hold ties
        values = rng.integers(-3, 3, int(sizes.sum())).astype(np.float64)
        values[::17] = -0.0
        pick = first_minima(values, starts)
        bounds = np.append(starts, len(values))
        for s in range(len(starts)):
            lo, hi = bounds[s], bounds[s + 1]
            assert pick[s] == lo + int(np.argmin(values[lo:hi]))

    def test_single_span_and_singletons(self):
        values = np.array([2.0, 1.0, 1.0, 5.0])
        assert first_minima(values, np.array([0])).tolist() == [1]
        assert first_minima(values, np.arange(4)).tolist() == [0, 1, 2, 3]
