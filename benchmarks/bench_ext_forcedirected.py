"""Extension study: partitioning vs the force-directed paradigm (§1).

The paper's introduction argues that partitioning-based placement suits
3D ICs better than quadratic/force-directed methods, partly because 3D
designs may lack the encompassing pad arrangement those methods lean
on.  This study places the same padless circuits with both paradigms —
the recursive-bisection flow and a clique-model quadratic placer with
rank spreading (the spec ``[quadratic, detailed]``) — sharing the
objective and legalizer, and reports the gap.
"""

from common import SCALE, SeriesWriter, suite_subset
from repro import Placer3D, PlacementConfig, load_benchmark
from repro.core.pipeline import PipelineSpec, StageEntry


def run_forcedirected():
    writer = SeriesWriter("ext_forcedirected")
    writer.row(f"Extension: bisection vs quadratic placement "
               f"(padless, scale {SCALE})")
    writer.row(f"{'circuit':<10} {'bisection obj':>14} "
               f"{'quadratic obj':>14} {'gap':>7}")
    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=0.0,
                             num_layers=4, seed=0)
    quadratic = PipelineSpec(entries=(StageEntry("quadratic"),
                                      StageEntry("detailed")))
    wins = 0
    total = 0
    for circuit in suite_subset()[:3]:
        netlist = load_benchmark(circuit, scale=SCALE)
        bis = Placer3D(netlist, config).run()
        quad = Placer3D(netlist, config, spec=quadratic).run()
        gap = (quad.objective / bis.objective - 1) * 100
        wins += bis.objective < quad.objective
        total += 1
        writer.row(f"{circuit:<10} {bis.objective:>14.5e} "
                   f"{quad.objective:>14.5e} {gap:>+6.1f}%")
    writer.row("")
    writer.row(f"bisection wins {wins}/{total} padless circuits "
               f"(the paper's Section 1 motivation)")
    assert wins >= total - 1  # allow one noisy upset
    writer.save()
    return True


def test_ext_forcedirected(benchmark):
    assert benchmark.pedantic(run_forcedirected, rounds=1, iterations=1)
