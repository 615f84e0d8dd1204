"""Quickstart: place a 3D IC and report wirelength, vias and temperature.

Run:
    python examples/quickstart.py [scale]

Places a synthetic equivalent of the paper's ibm01 benchmark on a
4-layer stack with both thermal mechanisms enabled, then evaluates the
result with the full-chip thermal solver.
"""

import sys

from repro import (
    Placer3D,
    PlacementConfig,
    PlacementReport,
    evaluate_placement,
    load_benchmark,
)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    print(f"Loading ibm01 at scale {scale} "
          f"(synthetic regeneration of the IBM-PLACE circuit)...")
    netlist = load_benchmark("ibm01", scale=scale)
    print(f"  {netlist.num_cells} cells, {netlist.num_nets} nets, "
          f"{netlist.num_pins()} pins")

    config = PlacementConfig(
        alpha_ilv=1e-5,    # one via ~ 10 um of wire (paper's midpoint)
        alpha_temp=1e-5,   # thermal placement on
        num_layers=4,
        seed=0,
    )
    placer = Placer3D(netlist, config)
    chip = placer.chip
    print(f"  die {chip.width*1e6:.1f} x {chip.height*1e6:.1f} um, "
          f"{chip.num_layers} layers, "
          f"{chip.rows_per_layer} rows/layer")

    print("Placing (global -> moves/swaps -> cell shifting -> detailed "
          "legalization)...")
    result = placer.run()
    print(f"  done in {result.runtime_seconds:.1f}s "
          f"({ {k: round(v, 2) for k, v in result.stage_seconds.items()} })")

    report = evaluate_placement(result.placement, config.tech,
                                runtime_seconds=result.runtime_seconds)
    print()
    print(PlacementReport.header())
    print(report.row())
    print()
    print(f"objective (Eq. 3)      : {result.objective:.4e}")
    print(f"wirelength             : {report.wirelength*1e3:.3f} mm")
    print(f"interlayer vias        : {report.ilv} "
          f"({report.ilv_density:.3e} per m^2 per interlayer)")
    print(f"dynamic power          : {report.total_power*1e3:.3f} mW")
    print(f"avg / max temperature  : {report.average_temperature:.2f} / "
          f"{report.max_temperature:.2f} K above ambient")


if __name__ == "__main__":
    main()
