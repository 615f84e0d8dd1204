"""Placement quality metrics: wirelength, interlayer vias, reports."""

from repro.metrics.wirelength import (
    NetMetrics,
    compute_net_metrics,
    ilv_density_per_interlayer,
    total_hpwl,
    total_ilv,
)
from repro.metrics.report import PlacementReport, evaluate_placement
from repro.metrics.congestion import CongestionMap, estimate_congestion

__all__ = [
    "CongestionMap",
    "estimate_congestion",
    "NetMetrics",
    "compute_net_metrics",
    "ilv_density_per_interlayer",
    "total_hpwl",
    "total_ilv",
    "PlacementReport",
    "evaluate_placement",
]
