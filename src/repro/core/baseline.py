"""Simulated-annealing baseline: the loop behind the ``anneal`` stage.

The paper's contribution is a *partitioning-based* 3D placer; its
introduction surveys nonlinear, quadratic/force-directed and simulated-
annealing alternatives [1-6].  The baselines that show where recursive
bisection stands are pipeline specs over the same objective, legalizer
and metrics:

- ``[random, detailed]`` — uniform random positions, then detailed
  legalization.  The floor any real placer must clear.
- ``[random, anneal, detailed]`` — a classic low-temperature-window
  simulated annealer over cell positions (range-limited displacements
  and cell swaps under the Metropolis rule) from the random start.
  With a modest move budget it is the "straightforward alternative" a
  practitioner would try first; the recursive-bisection placer should
  beat it at equal-ish runtime on anything non-trivial.
- ``[quadratic, detailed]`` — the force-directed paradigm
  (:mod:`repro.core.quadratic`).

This module holds the annealing loop; the stage registry wraps it.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.core.objective import ObjectiveState

#: Target fraction of uphill moves accepted at the starting temperature
#: (calibrated from sampled deltas).
INITIAL_ACCEPTANCE = 0.5

#: Geometric temperature decay per temperature stage.
COOLING = 0.85

#: Fraction of attempts that are two-cell swaps rather than single-cell
#: displacements.
SWAP_FRACTION = 0.3

#: Offset of the annealer's random stream from the config seed, so it
#: never replays the random start's draws.
SEED_OFFSET = 40_487


def anneal(objective: ObjectiveState, seed: int, moves_per_cell: int,
           stages: int) -> None:
    """Anneal the objective's placement in place.

    Args:
        objective: the shared incremental objective; every accepted
            move goes through it.
        seed: the config seed (offset by :data:`SEED_OFFSET`).
        moves_per_cell: attempted moves per movable cell over the run.
        stages: number of temperature stages.
    """
    placement = objective.placement
    chip = placement.chip
    rng = np.random.default_rng(seed + SEED_OFFSET)
    movable = [c.id for c in placement.netlist.cells if c.movable]
    if not movable:
        return
    temperature = _calibrate_temperature(objective, movable, rng)
    per_stage = max(1, moves_per_cell * len(movable) // stages)
    window_x = chip.width
    window_y = chip.height
    for _ in range(stages):
        accepted = 0
        for _ in range(per_stage):
            if rng.random() < SWAP_FRACTION:
                a, b = rng.choice(len(movable), size=2, replace=False)
                a = movable[int(a)]
                b = movable[int(b)]
                moves = [
                    (a, float(placement.x[b]), float(placement.y[b]),
                     int(placement.z[b])),
                    (b, float(placement.x[a]), float(placement.y[a]),
                     int(placement.z[a])),
                ]
            else:
                cid = movable[int(rng.integers(0, len(movable)))]
                nx = float(np.clip(
                    placement.x[cid] + rng.uniform(-window_x, window_x),
                    0.0, chip.width))
                ny = float(np.clip(
                    placement.y[cid] + rng.uniform(-window_y, window_y),
                    0.0, chip.height))
                nz = int(rng.integers(0, chip.num_layers))
                moves = [(cid, nx, ny, nz)]
            delta = objective.eval_moves(moves)
            if delta <= 0 or (temperature > 0 and
                              rng.random() < math.exp(
                                  -delta / temperature)):
                objective.apply_moves(moves)
                accepted += 1
        temperature *= COOLING
        # shrink the displacement window with the acceptance rate, the
        # classic range-limiting rule
        shrink = 0.5 + 0.5 * (accepted / per_stage)
        window_x = max(window_x * shrink,
                       2 * chip.width / max(chip.rows_per_layer, 4))
        window_y = max(window_y * shrink, 2 * chip.row_pitch)


def _calibrate_temperature(objective: ObjectiveState, movable: List[int],
                           rng: np.random.Generator) -> float:
    """Starting temperature from the uphill-delta distribution."""
    chip = objective.placement.chip
    uphill = []
    for _ in range(64):
        cid = int(rng.choice(movable))
        move = (cid, float(rng.uniform(0, chip.width)),
                float(rng.uniform(0, chip.height)),
                int(rng.integers(0, chip.num_layers)))
        delta = objective.eval_moves([move])
        if delta > 0:
            uphill.append(delta)
    if not uphill:
        return 1e-30
    return -float(np.mean(uphill)) / math.log(INITIAL_ACCEPTANCE)
