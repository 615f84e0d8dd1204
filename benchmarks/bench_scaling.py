"""Scaling benchmark: the placer measured row by row, up to full size.

Unlike the figure/table reproductions, this benchmark gates the
*implementation*, not the science.  It is a table of rows, and every
row is measured the same way: :func:`measure` runs it in a fresh
interpreter and reads back one JSON line.  A process's peak RSS is a
monotone high-water mark, so rows sharing one process would share one
peak; in its own interpreter each row reports its own wall time, peak
RSS, stage seconds and counters.

The rows:

- ``ladder/<scale>/<leg>/<n>``: the full pipeline on ibm01 at each
  ladder scale, ``REPEATS`` times, each time as three back-to-back
  legs: ``plain`` (no ambient instrumentation), ``live`` (a live
  :class:`repro.obs.Recorder`, which tracks RSS) and ``profiled`` (a
  live recorder plus the sampling profiler).  The telemetry and
  profile overheads are medians of per-repeat ratios against the plain
  leg: pairing cancels slow machine drift, the median drops a pair a
  scheduler hiccup landed in, and negative readings (noise, not a
  speedup) clamp to zero.
- ``rebuild`` and ``solve_powers``: the kernel micro-benchmarks, one
  full ``ObjectiveState.rebuild`` and a warm
  ``ThermalSolver.solve_powers`` against its cached LU (best of N).
- ``service_cache``: a cold placement, then a cached resubmission of
  the same job through ``repro.service``.
- ``workers/<n>`` (``--workers``): the full pipeline at scale 0.1 on
  1, 2 and 4 execution-backend workers.
- ``large/<label>`` (``--large``): full-size ibm01 (scale 0.5 and 1.0)
  through the default pipeline and synthetic50k through the global
  stage only, on 2 workers; and ``large/bookshelf_parse``, full-size
  ibm01 parsed from a Bookshelf triple.

Gates: every worker row must place bit-identically to the serial row,
and every row that dispatched tasks must ship >= 10x fewer bytes than
the dense tasks' arrays hold (``parallel/dense_task_bytes``); a failed
gate exits 1.
``--check-overhead`` and ``--check-profile-overhead`` add the
overhead budgets.

The JSON document holds every row, the per-scale overheads and the
gates.

Usage::

    cd benchmarks && PYTHONPATH=../src python bench_scaling.py \\
        --workers --large --json ../BENCH_scaling.json

Under pytest-benchmark it runs the scale-0.025 ladder and asserts
nothing beyond completion, like the other benchmarks here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from statistics import median
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from common import SeriesWriter
from repro import Placer3D, PlacementConfig, load_benchmark
from repro.obs import (Recorder, SamplingProfiler, Stopwatch,
                       peak_rss_bytes)

#: instance-size ladder (fractions of published ibm01 cell count)
SCALES = [0.025, 0.05, 0.1]
CIRCUIT = "ibm01"
REPEATS = 5
LEGS = ("plain", "live", "profiled")
WORKER_COUNTS = (1, 2, 4)

#: full-size rows: (circuit, scale, global stage only?).  Recursive
#: bisection is the dispatch-heavy stage; a full legalization flow at
#: 50k cells would dominate the bench's wall budget for no extra signal.
LARGE_ROWS = [("ibm01", 0.5, False), ("ibm01", 1.0, False),
              ("synthetic50k", 1.0, True)]

Row = Dict[str, Any]


# -- the row kinds, run inside the child interpreter --------------------
def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock of several calls (noise-robust statistic)."""
    best = float("inf")
    watch = Stopwatch()
    for _ in range(repeats):
        watch.restart()
        fn()
        best = min(best, watch.elapsed())
    return best


def _place(row: Row) -> Row:
    """One placement; the leg picks the instrumentation around it."""
    from repro.core.pipeline import PipelineSpec, StageEntry

    netlist = load_benchmark(row["circuit"], scale=row["scale"], seed=0)
    spec = (PipelineSpec(entries=(StageEntry("global"),))
            if row.get("global_only") else None)
    leg = row.get("leg", "live")
    recorder = None if leg == "plain" else Recorder()
    profiler = (SamplingProfiler(tracer=recorder.tracer)
                if leg == "profiled" else contextlib.nullcontext())
    watch = Stopwatch()
    with profiler:
        result = Placer3D(netlist, PlacementConfig(**row.get("config", {})),
                          recorder=recorder, spec=spec).run()
    wall = watch.elapsed()
    digest = hashlib.sha256()
    for array in (result.placement.x, result.placement.y,
                  result.placement.z):
        digest.update(array.tobytes())
    return {"wall_seconds": wall, "num_cells": netlist.num_cells,
            "objective": float(result.objective),
            "stage_seconds": dict(result.stage_seconds),
            "counters": dict(result.telemetry.counters),
            "placement_sha256": digest.hexdigest()}


def _parse(row: Row) -> Row:
    """Strict Bookshelf parse of a triple the parent wrote."""
    from repro.netlist import bookshelf

    watch = Stopwatch()
    netlist = bookshelf.read_bookshelf(row["prefix"])
    return {"wall_seconds": watch.elapsed(),
            "num_cells": netlist.num_cells, "num_nets": netlist.num_nets}


def _rebuild(row: Row) -> Row:
    """Best-of-30 time of one full ``ObjectiveState.rebuild``."""
    from repro.core.objective import ObjectiveState
    from repro.geometry.chip import ChipGeometry
    from repro.netlist.placement import Placement

    netlist = load_benchmark(CIRCUIT, scale=row["scale"], seed=0)
    config = PlacementConfig()
    chip = ChipGeometry.for_cell_area(
        netlist.total_cell_area * 1.2, config.num_layers,
        netlist.average_cell_height)
    objective = ObjectiveState(Placement.random(netlist, chip, seed=1),
                               config)
    return {"wall_seconds": _best_of(objective.rebuild, 30),
            "num_nets": netlist.num_nets}


def _solve_powers(row: Row) -> Row:
    """First vs best-of-10 repeated ``solve_powers`` on one geometry.

    The first call pays matrix assembly plus factorization; repeats are
    two triangular back-substitutions against the cached LU.
    """
    from repro.geometry.chip import ChipGeometry
    from repro.thermal.solver import ThermalSolver

    solver = ThermalSolver(ChipGeometry.for_cell_area(1e-4, 4, 1e-5),
                           nx=16, ny=16)
    power = np.random.default_rng(0).random((16, 16, 4)) * 1e6
    watch = Stopwatch()
    solver.solve_powers(power)
    first = watch.elapsed()
    return {"wall_seconds": _best_of(lambda: solver.solve_powers(power),
                                     10),
            "first_seconds": first}


def _service_cache(row: Row) -> Row:
    """A cold job, then the same job again as a result-cache hit."""
    from repro.service import JobRequest, PlacementEngine

    request = JobRequest(config=PlacementConfig().to_dict(),
                         circuit=CIRCUIT, scale=row["scale"])
    with tempfile.TemporaryDirectory(prefix="repro-bench-jobs-") as jobs, \
            PlacementEngine(jobs, workers=1) as engine:
        watch = Stopwatch()
        (cold,) = engine.wait([engine.submit(request)])
        cold_seconds = watch.elapsed()
        watch.restart()
        (hit,) = engine.wait([engine.submit(request)])
        hit_seconds = watch.elapsed()
        counters = engine.counters()
    assert (cold["cache"], hit["cache"]) == ("miss", "hit"), (cold, hit)
    return {"wall_seconds": cold_seconds, "hit_seconds": hit_seconds,
            "counters": counters}


KINDS: Dict[str, Callable[[Row], Row]] = {
    "place": _place, "parse": _parse, "rebuild": _rebuild,
    "solve_powers": _solve_powers, "service_cache": _service_cache}


def run_row(row: Row) -> Row:
    """Measure one row in this process (the child side of
    :func:`measure`)."""
    out: Row = {"stage_seconds": {}, "counters": {}}
    out.update(KINDS[row["kind"]](row))
    out["peak_rss_bytes"] = peak_rss_bytes()
    out["pid"] = os.getpid()
    return out


_CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
          "from bench_scaling import run_row; "
          "print(json.dumps(run_row(json.loads(sys.argv[2]))))")


def measure(row: Row) -> Row:
    """Run one row in a fresh interpreter; return it with its results."""
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, here, json.dumps(row)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"row {row['name']} failed:\n{proc.stderr}")
    return {**row, **json.loads(proc.stdout.splitlines()[-1])}


# -- the table ----------------------------------------------------------
def bench_rows(scales: List[float], workers: bool = False,
               large: bool = False,
               bookshelf_prefix: Optional[str] = None) -> List[Row]:
    """Every row of one bench run, in run order."""
    rows: List[Row] = []
    for scale in scales:
        for n in range(REPEATS):
            for leg in LEGS:
                rows.append({"name": f"ladder/{scale}/{leg}/{n}",
                             "kind": "place", "circuit": CIRCUIT,
                             "scale": scale, "leg": leg})
    rows += [
        {"name": "rebuild", "kind": "rebuild", "scale": 0.05},
        {"name": "solve_powers", "kind": "solve_powers"},
        {"name": "service_cache", "kind": "service_cache", "scale": 0.05},
    ]
    if workers:
        rows += [{"name": f"workers/{count}", "kind": "place",
                  "circuit": CIRCUIT, "scale": 0.1,
                  "config": {"num_workers": count}}
                 for count in WORKER_COUNTS]
    if large:
        for circuit, scale, global_only in LARGE_ROWS:
            label = circuit if scale == 1.0 else f"{circuit}@{scale:g}"
            rows.append({
                "name": f"large/{label}", "kind": "place",
                "circuit": circuit, "scale": scale,
                "global_only": global_only, "config": {"num_workers": 2}})
        rows.append({
            "name": "large/bookshelf_parse", "kind": "parse",
            "circuit": CIRCUIT, "scale": 1.0, "prefix": bookshelf_prefix})
    return rows


def overheads(rows: Dict[str, Row]) -> Dict[str, Row]:
    """Per-scale telemetry and profile overhead from the paired legs."""
    walls: Dict[str, Dict[str, List[float]]] = {}
    for name, row in rows.items():
        if name.startswith("ladder/"):
            legs = walls.setdefault(str(row["scale"]), {})
            legs.setdefault(row["leg"], []).append(row["wall_seconds"])
    out: Dict[str, Row] = {}
    for scale, legs in walls.items():
        live = [t / p - 1.0 for p, t in zip(legs["plain"], legs["live"])]
        profiled = [t / p - 1.0
                    for p, t in zip(legs["plain"], legs["profiled"])]
        out[scale] = {
            "telemetry_overhead_pct": max(0.0, 100.0 * median(live)),
            "telemetry_overhead_pct_raw": 100.0 * median(live),
            # half the spread of per-pair ratios: the honest
            # uncertainty on the overhead estimate
            "telemetry_overhead_noise_band_pct":
                100.0 * (max(live) - min(live)) / 2.0,
            "profile_overhead_pct": max(0.0, 100.0 * median(profiled)),
            "profile_overhead_pct_raw": 100.0 * median(profiled),
        }
    return out


def gates(rows: Dict[str, Row]) -> Row:
    """Worker bit-identity and the >= 10x dispatch reduction."""
    out: Row = {}
    if "workers/1" in rows:
        serial = rows["workers/1"]["placement_sha256"]
        out["workers_bit_identical_to_serial"] = all(
            row["placement_sha256"] == serial
            for name, row in rows.items() if name.startswith("workers/"))
    reductions = {
        name: row["counters"]["parallel/dense_task_bytes"]
        / row["counters"]["parallel/dispatch_bytes"]
        for name, row in rows.items()
        if row["counters"].get("parallel/dispatch_bytes", 0.0) > 0}
    if reductions:
        out["dispatch_reduction_vs_dense"] = reductions
        out["meets_10x_dispatch_reduction"] = min(
            reductions.values()) >= 10.0
    return out


def check_overhead(rows: Dict[str, Row], budget_pct: float,
                   profile_budget_pct: Optional[float] = None,
                   ) -> List[str]:
    """Overhead gate over the paired ladder legs (clamped at zero, so
    only a positive overhead past the budget flags)."""
    failures = []
    for scale, entry in overheads(rows).items():
        if entry["telemetry_overhead_pct"] > budget_pct:
            failures.append(
                f"scale {scale}: telemetry overhead "
                f"{entry['telemetry_overhead_pct']:.2f}% exceeds budget "
                f"{budget_pct:.2f}%")
        if profile_budget_pct is not None \
                and entry["profile_overhead_pct"] > profile_budget_pct:
            failures.append(
                f"scale {scale}: profiling overhead "
                f"{entry['profile_overhead_pct']:.2f}% exceeds budget "
                f"{profile_budget_pct:.2f}%")
    return failures


def run_bench(scales: Optional[List[float]] = None,
              workers: bool = False, large: bool = False) -> Row:
    """Measure every row; return the bench document."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        prefix = os.path.join(tmp, CIRCUIT)
        csr_nbytes = None
        if large:
            from repro.netlist import bookshelf
            from repro.netlist.csr import build_signal_csr

            netlist = load_benchmark(CIRCUIT, scale=1.0, seed=0)
            bookshelf.write_bookshelf(prefix, netlist)
            csr_nbytes = build_signal_csr(netlist).nbytes
        rows = {row["name"]: measure(row)
                for row in bench_rows(scales or SCALES, workers, large,
                                      prefix)}
    if csr_nbytes is not None:
        rows["large/bookshelf_parse"]["csr_nbytes"] = csr_nbytes
    document: Row = {
        "circuit": CIRCUIT,
        "available_cpus": os.cpu_count(),
        "rows": rows,
        "overhead": overheads(rows),
        "gates": gates(rows),
    }
    writer = SeriesWriter("bench_scaling")
    writer.row(f"{'row':<26} {'cells':>6} {'wall (s)':>10} "
               f"{'rss (MB)':>9}  stages")
    for name, row in rows.items():
        stages = " ".join(f"{k}={v:.3f}"
                          for k, v in row["stage_seconds"].items())
        writer.row(f"{name:<26} {row.get('num_cells', '-'):>6} "
                   f"{row['wall_seconds']:>10.4g} "
                   f"{row['peak_rss_bytes'] / 1e6:>9.0f}  {stages}")
    for scale, entry in document["overhead"].items():
        writer.row(f"overhead at {scale}: telemetry "
                   f"{entry['telemetry_overhead_pct_raw']:+.1f}%, "
                   f"profiled {entry['profile_overhead_pct_raw']:+.1f}%")
    for key, value in document["gates"].items():
        writer.row(f"{key}: {value}")
    writer.save()
    return document


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="write the bench document here")
    parser.add_argument("--scales", type=float, nargs="*",
                        help=f"instance-size ladder (default {SCALES})")
    parser.add_argument("--workers", action="store_true",
                        help="also run the worker rows (workers 1/2/4 "
                             "at scale 0.1)")
    parser.add_argument("--large", action="store_true",
                        help="also run the full-size rows (ibm01 at "
                             "scale 0.5/1.0, synthetic50k global-only, "
                             "Bookshelf parse); takes several minutes")
    parser.add_argument("--check-overhead", type=float, metavar="PCT",
                        help="exit nonzero when telemetry overhead at "
                             "any scale exceeds this budget (negative "
                             "readings clamp to zero and never flag)")
    parser.add_argument("--check-profile-overhead", type=float,
                        metavar="PCT",
                        help="also gate the profiled-run overhead "
                             "(a live recorder plus the sampling "
                             "profiler) against this budget")
    args = parser.parse_args()
    document = run_bench(args.scales, workers=args.workers,
                         large=args.large)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    failures = [f"{key} is false" for key, value
                in document["gates"].items() if value is False]
    if args.check_overhead is not None \
            or args.check_profile_overhead is not None:
        budget = (args.check_overhead
                  if args.check_overhead is not None else 100.0)
        failures += check_overhead(
            document["rows"], budget,
            profile_budget_pct=args.check_profile_overhead)
    for line in failures:
        print(f"GATE: {line}", file=sys.stderr)
    if failures:
        raise SystemExit(1)


def test_bench_scaling(benchmark):
    assert benchmark.pedantic(
        lambda: bool(run_bench([0.025])), rounds=1, iterations=1)


if __name__ == "__main__":
    main()
