"""Property-style tests for the vectorized placement kernels.

Three families of invariants guard the array-backed fast paths:

- **Incremental == recompute**: random eval/apply sequences must leave
  the objective's caches within 1e-9 of a from-scratch ``rebuild()``,
  with and without TRR nets and the thermal term.
- **Batch == scalar**: the batched evaluators
  (:meth:`ObjectiveState.eval_moves_batch`,
  :meth:`ObjectiveState.eval_swaps_batch`,
  :meth:`ObjectiveState.optimal_region_centers`) must agree with their
  scalar counterparts candidate for candidate.
- **Chunking is invisible**: batched scoring in slices of any size
  returns the same bits as one unsliced call, so whole legalization
  trajectories do not depend on ``BATCH_CHUNK``, and the transient
  memory of one call stays bounded by one slice.
- **Cached factorization == fresh solve**: repeated
  :meth:`ThermalSolver.solve_powers` calls reuse a sparse LU; the
  temperatures must match a fresh ``spsolve`` of the same system.

A final end-to-end test drives the real legalization pipeline and
checks cache consistency after every stage.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import make_chip
from repro.core import objective as objective_module
from repro.core.cellshift import CellShifter
from repro.core.config import PlacementConfig
from repro.core.detailed import DetailedLegalizer, check_legal
from repro.core.globalplace import GlobalPlacer
from repro.core.moves import MoveOptimizer
from repro.core.objective import ObjectiveState
from repro.core.refine import LegalRefiner
from repro.geometry.chip import ChipGeometry
from repro.netlist.placement import Placement
from repro.thermal.power import PowerModel
from repro.thermal.solver import ThermalSolver


def _objective(netlist, config, seed: int = 5):
    """A fresh ObjectiveState on a random placement."""
    chip = make_chip(netlist, config.num_layers)
    placement = Placement.random(netlist, chip, seed=seed)
    power = PowerModel(netlist, config.tech) if config.alpha_temp > 0 \
        else None
    return ObjectiveState(placement, config, power)


def _random_moves(objective, rng, count: int):
    """Random single-cell relocations within the chip volume."""
    placement = objective.placement
    chip = placement.chip
    movable = [c.id for c in placement.netlist.cells if c.movable]
    cells = rng.choice(movable, size=count, replace=False)
    return [(int(cid),
             float(rng.uniform(0.0, chip.width)),
             float(rng.uniform(0.0, chip.height)),
             int(rng.integers(0, chip.num_layers)))
            for cid in cells]


def _distinct_pairs(rng, cells, count: int):
    """``count`` (a, b) swap pairs over ``cells`` with a != b; cells
    repeat across pairs."""
    ia = rng.integers(0, len(cells), count)
    ib = (ia + rng.integers(1, len(cells), count)) % len(cells)
    return cells[ia], cells[ib]


@pytest.mark.parametrize("alpha_temp,trr", [
    (0.0, False),
    (4e-5, False),
    (4e-5, True),
])
def test_random_apply_matches_rebuild(small_netlist, alpha_temp, trr):
    """Chained eval+apply stays within 1e-9 of a full recompute."""
    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=alpha_temp,
                             num_layers=4, seed=0, use_trr_nets=trr)
    objective = _objective(small_netlist, config)
    rng = np.random.default_rng(17)
    running = objective.total
    for step in range(25):
        moves = _random_moves(objective, rng, int(rng.integers(1, 4)))
        delta = objective.eval_moves(moves)
        objective.apply_moves(moves)
        running += delta
        assert objective.total == pytest.approx(running, rel=1e-9,
                                                abs=1e-15)
    objective.check_consistency(tol=1e-9)


@pytest.mark.parametrize("alpha_temp", [0.0, 4e-5])
def test_batch_moves_match_scalar(small_netlist, alpha_temp):
    """eval_moves_batch equals per-candidate scalar eval_moves."""
    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=alpha_temp,
                             num_layers=4, seed=0)
    objective = _objective(small_netlist, config)
    rng = np.random.default_rng(23)
    moves = _random_moves(objective, rng, 40)
    batch = objective.eval_moves_batch(
        [m[0] for m in moves], [m[1] for m in moves],
        [m[2] for m in moves], [m[3] for m in moves])
    for move, delta in zip(moves, batch):
        assert delta == pytest.approx(objective.eval_moves([move]),
                                      rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("alpha_temp", [0.0, 4e-5])
def test_batch_swaps_match_scalar(small_netlist, alpha_temp):
    """eval_swaps_batch equals the joint two-move scalar evaluation."""
    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=alpha_temp,
                             num_layers=4, seed=0)
    objective = _objective(small_netlist, config)
    placement = objective.placement
    rng = np.random.default_rng(29)
    movable = [c.id for c in small_netlist.cells if c.movable]
    pairs = rng.choice(movable, size=(30, 2), replace=False)
    a = [int(p) for p in pairs[:, 0]]
    b = [int(p) for p in pairs[:, 1]]
    batch = objective.eval_swaps_batch(a, b)
    for ca, cb, delta in zip(a, b, batch):
        joint = objective.eval_moves([
            (ca, float(placement.x[cb]), float(placement.y[cb]),
             int(placement.z[cb])),
            (cb, float(placement.x[ca]), float(placement.y[ca]),
             int(placement.z[ca]))])
        assert delta == pytest.approx(joint, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("alpha_temp", [0.0, 4e-5])
def test_batch_scoring_is_chunk_invariant(small_netlist, monkeypatch,
                                          alpha_temp):
    """Any slice size returns exactly the deltas of one unsliced call."""
    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=alpha_temp,
                             num_layers=4, seed=0)
    objective = _objective(small_netlist, config)
    chip = objective.placement.chip
    rng = np.random.default_rng(31)
    movable = np.array([c.id for c in small_netlist.cells if c.movable])
    # 45 moves and 38 swaps, neither a multiple of 7; cells repeat
    cells = rng.choice(movable, size=45)
    xs = rng.uniform(0.0, chip.width, 45)
    ys = rng.uniform(0.0, chip.height, 45)
    zs = rng.integers(0, chip.num_layers, 45)
    a, b = _distinct_pairs(rng, movable, 38)

    def score():
        return (objective.eval_moves_batch(cells, xs, ys, zs),
                objective.eval_swaps_batch(a, b))

    scored = [score()]  # the default chunk
    for chunk in (1, 7, 1000):  # 1000 exceeds both batches: one slice
        monkeypatch.setattr(objective_module, "BATCH_CHUNK", chunk)
        scored.append(score())
    for got in scored:
        for got_part, want_part in zip(got, scored[-1]):
            np.testing.assert_array_equal(got_part, want_part)


def test_batch_scoring_memory_is_bounded(small_netlist):
    """The traced peak of a 16-slice swap batch stays within 2x of one
    slice's: scoring memory does not grow with the batch."""
    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=4e-5,
                             num_layers=4, seed=0)
    objective = _objective(small_netlist, config)
    chunk = objective_module.BATCH_CHUNK
    rng = np.random.default_rng(37)
    movable = np.array([c.id for c in small_netlist.cells if c.movable])
    a, b = _distinct_pairs(rng, movable, 16 * chunk)
    objective.eval_swaps_batch(a[:1], b[:1])  # refresh the extremes

    def traced_peak(n):
        tracemalloc.start()
        try:
            objective.eval_swaps_batch(a[:n], b[:n])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = traced_peak(chunk)
    many = traced_peak(16 * chunk)
    assert many <= 2 * one, (one, many)


def test_legalization_is_chunk_invariant(medium_netlist, monkeypatch):
    """moves, cellshift, detailed and refine give identical coordinates
    at a slice of 7 candidates and at the default."""
    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=4e-5,
                             num_layers=4, seed=0)
    chip = make_chip(medium_netlist, config.num_layers)
    start = Placement.at_center(medium_netlist, chip)
    power_model = PowerModel(medium_netlist, config.tech)
    GlobalPlacer(start, config, power_model).run()

    def legalize():
        placement = start.copy()
        objective = ObjectiveState(placement, config, power_model)
        mover = MoveOptimizer(objective, config)
        mover.global_pass()
        mover.local_pass()
        CellShifter(objective, config).run()
        DetailedLegalizer(objective, config).run()
        LegalRefiner(objective, config).run(config.refine_passes)
        return placement

    default = legalize()
    monkeypatch.setattr(objective_module, "BATCH_CHUNK", 7)
    sliced = legalize()
    for axis in ("x", "y", "z"):
        np.testing.assert_array_equal(getattr(sliced, axis),
                                      getattr(default, axis))


def test_batch_region_centers_match_scalar(small_netlist):
    """optimal_region_centers equals the scalar per-cell query."""
    config = PlacementConfig(alpha_ilv=1e-5, num_layers=4, seed=0)
    objective = _objective(small_netlist, config)
    movable = [c.id for c in small_netlist.cells if c.movable]
    centers = objective.optimal_region_centers(movable)
    assert centers.shape == (3, len(movable))
    for i, cid in enumerate(movable):
        expected = objective.optimal_region_center(cid)
        for axis in range(3):
            assert centers[axis, i] == pytest.approx(expected[axis],
                                                     abs=1e-12)
    assert objective.optimal_region_centers([]).shape == (3, 0)


def test_solve_powers_cached_factorization_matches_spsolve():
    """Warm solves reuse the LU yet match a fresh direct solve."""
    from scipy.sparse.linalg import spsolve

    chip = ChipGeometry.for_cell_area(1e-6, 4, 1e-5)
    solver = ThermalSolver(chip, nx=6, ny=5)
    rng = np.random.default_rng(3)
    power = rng.random((6, 5, 4)) * 1e4
    first = solver.solve_powers(power)
    assert solver._factor is not None  # LU cached after first call
    warm = solver.solve_powers(power * 2.0)  # different rhs, same LU
    fresh = ThermalSolver(chip, nx=6, ny=5).solve_powers(power * 2.0)
    np.testing.assert_allclose(warm.active, fresh.active, rtol=1e-9)
    # cross-check one solve against scipy's one-shot direct solver
    matrix = solver._assemble().tocsc()
    rhs = np.zeros((solver._nz, solver.ny, solver.nx))
    rhs[solver.n_substrate:] = power.transpose(2, 1, 0)
    direct = spsolve(matrix, rhs.ravel())
    grid = direct.reshape(solver._nz, solver.ny,
                          solver.nx).transpose(2, 1, 0)
    np.testing.assert_allclose(
        first.active, grid[:, :, solver.n_substrate:], rtol=1e-8)


@pytest.mark.parametrize("alpha_temp", [0.0, 4e-5])
def test_pipeline_stages_preserve_consistency(small_netlist, alpha_temp):
    """check_consistency passes after every legalization stage."""
    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=alpha_temp,
                             num_layers=4, seed=0)
    chip = make_chip(small_netlist, config.num_layers)
    placement = Placement.at_center(small_netlist, chip)
    power_model = PowerModel(small_netlist, config.tech)
    GlobalPlacer(placement, config, power_model).run()
    objective = ObjectiveState(placement, config, power_model)
    objective.check_consistency(tol=1e-9)

    mover = MoveOptimizer(objective, config)
    mover.global_pass()
    mover.local_pass()
    objective.check_consistency(tol=1e-9)

    CellShifter(objective, config).run()
    objective.check_consistency(tol=1e-9)

    DetailedLegalizer(objective, config).run()
    objective.check_consistency(tol=1e-9)

    LegalRefiner(objective, config).run(config.refine_passes)
    objective.check_consistency(tol=1e-9)
    check_legal(placement)
