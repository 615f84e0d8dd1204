"""Compare the recursive-bisection placer against the baselines.

Places one circuit with the paper's partitioning-based flow, a classic
simulated annealer and a random+legalize baseline — all sharing the same
objective, legalizer and metrics, and all run through ``Placer3D``: the
baselines are pipeline specs — then prints objective quality,
congestion statistics and a density map of the winner's bottom layer.

Run:
    python examples/placer_comparison.py [scale]
"""

import sys

from repro import Placer3D, PlacementConfig, load_benchmark
from repro.core.pipeline import PipelineSpec, StageEntry
from repro.metrics import estimate_congestion
from repro import viz


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.03
    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=0.0,
                             num_layers=4, seed=0)

    specs = {
        "random+legalize": PipelineSpec(entries=(
            StageEntry("random"), StageEntry("detailed"))),
        "simulated annealing": PipelineSpec(entries=(
            StageEntry("random"),
            StageEntry("anneal", {"moves_per_cell": 60, "stages": 20}),
            StageEntry("detailed"))),
        "recursive bisection": None,  # the paper's default flow
    }
    print(f"Placing ibm01 (scale {scale}) three ways...\n")
    netlist = load_benchmark("ibm01", scale=scale)
    runs = {label: Placer3D(netlist, config, spec=spec).run()
            for label, spec in specs.items()}

    print(f"{'placer':<22} {'objective':>12} {'WL (mm)':>9} "
          f"{'ILVs':>6} {'congestion':>11} {'time (s)':>9}")
    for label, result in runs.items():
        cmap = estimate_congestion(result.placement, nx=12)
        print(f"{label:<22} {result.objective:>12.5e} "
              f"{result.wirelength*1e3:>9.3f} {result.ilv:>6} "
              f"{cmap.peak_to_average:>10.2f}x "
              f"{result.runtime_seconds:>9.1f}")

    best = min(runs.values(), key=lambda r: r.objective)
    print()
    print(viz.density_map(best.placement, layer=0, nx=48))


if __name__ == "__main__":
    main()
