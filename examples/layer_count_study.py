"""Layer-count study: how much wirelength does stacking save?

Places one circuit on 1, 2, 4 and 8 active layers (the paper's Figure 5
experiment) and reports the wirelength reduction 3D integration buys at
a fixed via coefficient, along with the via count and temperature that
pay for it.

Run:
    python examples/layer_count_study.py [scale]
"""

import sys

from repro import (
    Placer3D,
    PlacementConfig,
    evaluate_placement,
    load_benchmark,
)

LAYER_COUNTS = (1, 2, 4, 8)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.04

    print(f"Placing ibm01 (scale {scale}) on "
          f"{', '.join(map(str, LAYER_COUNTS))} layers "
          f"(alpha_ILV = 1e-5)\n")
    print(f"{'layers':>6} {'WL (mm)':>9} {'vs 2D':>8} {'ILVs':>7} "
          f"{'avgT (K)':>9} {'time (s)':>9}")

    baseline_wl = None
    for layers in LAYER_COUNTS:
        netlist = load_benchmark("ibm01", scale=scale)
        config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=0.0,
                                 num_layers=layers, seed=0)
        result = Placer3D(netlist, config).run()
        report = evaluate_placement(result.placement, config.tech)
        if baseline_wl is None:
            baseline_wl = report.wirelength
        change = (report.wirelength / baseline_wl - 1) * 100
        print(f"{layers:>6} {report.wirelength*1e3:>9.3f} "
              f"{change:>+7.1f}% {report.ilv:>7} "
              f"{report.average_temperature:>9.3f} "
              f"{result.runtime_seconds:>9.1f}")

    print()
    print("More layers shorten wires (Figure 5's shift toward shorter "
          "wirelength) at the price of vias and heat concentrated "
          "farther from the sink.")


if __name__ == "__main__":
    main()
