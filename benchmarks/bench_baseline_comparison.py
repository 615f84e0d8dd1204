"""Baseline comparison: recursive bisection vs simulated annealing vs
random.

The paper motivates a partitioning-based approach for 3D placement
(Section 1); this benchmark quantifies that choice against the two
reference placers built on the *same* objective, legalizer and metrics:
a random-start baseline and a classic range-limited annealer.  All three
run through ``Placer3D``; the baselines are pipeline specs.  The
bisection placer must win on the objective at comparable runtime.
"""

from common import SCALE, SeriesWriter
from repro import Placer3D, PlacementConfig, load_benchmark
from repro.core.pipeline import PipelineSpec, StageEntry


def run_comparison():
    writer = SeriesWriter("baseline_comparison")
    writer.row(f"Placer comparison (ibm01, scale {SCALE}, "
               f"alpha_ILV = 1e-5)")
    writer.row(f"{'placer':<22} {'objective':>12} {'WL (m)':>12} "
               f"{'ILVs':>7} {'time (s)':>9}")

    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=0.0,
                             num_layers=4, seed=0)

    specs = {
        "random+legalize": PipelineSpec(entries=(
            StageEntry("random"), StageEntry("detailed"))),
        "simulated annealing": PipelineSpec(entries=(
            StageEntry("random"),
            StageEntry("anneal", {"moves_per_cell": 80, "stages": 24}),
            StageEntry("detailed"))),
        "recursive bisection": None,
    }
    netlist = load_benchmark("ibm01", scale=SCALE)
    results = {label: Placer3D(netlist, config, spec=spec).run()
               for label, spec in specs.items()}

    for label, r in results.items():
        writer.row(f"{label:<22} {r.objective:>12.5e} "
                   f"{r.wirelength:>12.5e} {r.ilv:>7} "
                   f"{r.runtime_seconds:>9.1f}")

    writer.row("")
    bisection = results["recursive bisection"]
    annealed = results["simulated annealing"]
    rand = results["random+legalize"]
    advantage = (1 - bisection.objective / annealed.objective) * 100
    writer.row(f"bisection vs annealing objective: "
               f"{advantage:+.1f}% better")
    assert bisection.objective < annealed.objective < rand.objective
    writer.save()
    return True


def test_baseline_comparison(benchmark):
    assert benchmark.pedantic(run_comparison, rounds=1, iterations=1)
