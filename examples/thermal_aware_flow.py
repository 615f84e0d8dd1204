"""Thermal-aware placement: temperature vs wirelength/via cost.

Places the same circuit with thermal placement off and on, then shows
what the thermal mechanisms (net weighting + TRR nets, Sections 3.1-3.2)
bought: lower average/peak temperature, power shifted toward the
heat-sink layer — and what it cost in wirelength and vias (the paper's
Figure 9 tradeoff).

Run:
    python examples/thermal_aware_flow.py [alpha_temp] [scale]
"""

import sys

import numpy as np

from repro import (
    Placer3D,
    PlacementConfig,
    evaluate_placement,
    load_benchmark,
)
from repro.metrics.wirelength import compute_net_metrics
from repro.thermal import PowerModel
from repro.thermal.analysis import analyze_placement


def layer_power_fractions(placement, tech):
    """Fraction of dynamic power dissipated on each layer."""
    pm = PowerModel(placement.netlist, tech)
    powers = pm.cell_powers(compute_net_metrics(placement))
    per_layer = np.zeros(placement.chip.num_layers)
    for cid in range(placement.netlist.num_cells):
        per_layer[int(placement.z[cid])] += powers[cid]
    return per_layer / per_layer.sum()


def run(alpha_temp: float, scale: float):
    netlist = load_benchmark("ibm01", scale=scale)
    config = PlacementConfig(alpha_ilv=1e-5, alpha_temp=alpha_temp,
                             num_layers=4, seed=0)
    result = Placer3D(netlist, config).run()
    report = evaluate_placement(result.placement, config.tech)
    fractions = layer_power_fractions(result.placement, config.tech)
    return result, report, fractions


def main() -> None:
    alpha_temp = float(sys.argv[1]) if len(sys.argv) > 1 else 1e-5
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05

    print("Placing with thermal placement OFF (alpha_temp = 0)...")
    base_res, base, base_frac = run(0.0, scale)
    print(f"Placing with thermal placement ON "
          f"(alpha_temp = {alpha_temp:.1e})...")
    therm_res, therm, therm_frac = run(alpha_temp, scale)

    def pct(new, old):
        return f"{(new / old - 1) * 100:+6.1f}%"

    print()
    print(f"{'metric':<28} {'baseline':>12} {'thermal':>12} {'change':>8}")
    print(f"{'wirelength (mm)':<28} {base.wirelength*1e3:>12.3f} "
          f"{therm.wirelength*1e3:>12.3f} "
          f"{pct(therm.wirelength, base.wirelength):>8}")
    print(f"{'interlayer vias':<28} {base.ilv:>12} {therm.ilv:>12} "
          f"{pct(therm.ilv, base.ilv):>8}")
    print(f"{'total power (mW)':<28} {base.total_power*1e3:>12.3f} "
          f"{therm.total_power*1e3:>12.3f} "
          f"{pct(therm.total_power, base.total_power):>8}")
    print(f"{'avg temperature (K)':<28} "
          f"{base.average_temperature:>12.3f} "
          f"{therm.average_temperature:>12.3f} "
          f"{pct(therm.average_temperature, base.average_temperature):>8}")
    print(f"{'max temperature (K)':<28} {base.max_temperature:>12.3f} "
          f"{therm.max_temperature:>12.3f} "
          f"{pct(therm.max_temperature, base.max_temperature):>8}")

    print()
    print("Power distribution across layers (layer 0 = heat sink):")
    header = " ".join(f"L{k:<6}" for k in range(len(base_frac)))
    print(f"  {'':<10} {header}")
    print("  baseline   " + " ".join(f"{f:6.1%}" for f in base_frac))
    print("  thermal    " + " ".join(f"{f:6.1%}" for f in therm_frac))
    print()
    if therm_frac[0] > base_frac[0]:
        print("Thermal placement moved power toward the heat sink, as "
              "the TRR nets (Eq. 12) are designed to do.")


if __name__ == "__main__":
    main()
