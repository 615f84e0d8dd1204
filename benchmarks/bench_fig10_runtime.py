"""Figure 10: runtime vs circuit size, thermal and regular placement.

The paper fits runtime ~ 0.0002 * n^1.19 over the 18 circuits and shows
thermal placement costs about the same as regular placement.  Absolute
seconds are not comparable (their C++/3.2 GHz vs our Python), but the
*shape* — near-linear scaling and thermal ~ regular — is reproduced: we
place a ladder of instance sizes in both modes and fit the power-law
exponent.  Wall clock moves with machine load, so each size and mode
is timed as the fastest of ``REPEATS`` identical runs.
"""

import math

import numpy as np

from common import SCALE, SeriesWriter, run_placement
from repro import PlacementConfig

#: instance sizes as multiples of the base REPRO_SCALE
SIZE_LADDER = [0.5, 1.0, 2.0, 4.0]

#: identical runs per size and mode; the fastest one's time is kept
REPEATS = 3


def best_run(scale, config):
    """``(cells, seconds)``: the fastest of ``REPEATS`` identical
    placements of ibm01 at ``scale``."""
    reports = [run_placement("ibm01", config, scale=scale, thermal=False)
               for _ in range(REPEATS)]
    return (reports[0].num_cells,
            min(report.runtime_seconds for report in reports))


def run_fig10():
    writer = SeriesWriter("fig10_runtime")
    writer.row(f"Figure 10 reproduction (ibm01 ladder around scale "
               f"{SCALE}, best of {REPEATS} runs)")
    writer.row(f"{'cells':>7} {'regular (s)':>12} {'thermal (s)':>12}")
    sizes = []
    regular = []
    thermal = []
    for mult in SIZE_LADDER:
        scale = SCALE * mult
        cells, r = best_run(scale, PlacementConfig(
            alpha_ilv=1e-5, alpha_temp=0.0, num_layers=4, seed=0))
        _, t = best_run(scale, PlacementConfig(
            alpha_ilv=1e-5, alpha_temp=1e-5, num_layers=4, seed=0))
        sizes.append(cells)
        regular.append(r)
        thermal.append(t)
        writer.row(f"{cells:>7} {r:>12.2f} {t:>12.2f}")

    exp_reg = np.polyfit(np.log(sizes), np.log(regular), 1)[0]
    exp_thm = np.polyfit(np.log(sizes), np.log(thermal), 1)[0]
    ratio = float(np.mean(np.array(thermal) / np.array(regular)))
    writer.row("")
    writer.row(f"power-law exponent: regular {exp_reg:.2f}, thermal "
               f"{exp_thm:.2f} (paper: 1.19)")
    writer.row(f"thermal / regular runtime: {ratio:.2f}x "
               f"(paper: ~1x)")

    assert exp_reg < 2.0, "placement runtime is super-quadratic"
    assert ratio < 3.0, "thermal placement is much slower than regular"
    writer.save()
    return True


def test_fig10_runtime(benchmark):
    assert benchmark.pedantic(run_fig10, rounds=1, iterations=1)
