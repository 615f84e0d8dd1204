"""Per-layer timing for the traced benchmark run.

The benchmark measures layers from outside: :func:`install` replaces a
handful of public functions with wrappers that time each call through
:class:`repro.obs.Stopwatch` and add the elapsed seconds and the call
count as counters on the *ambient* recorder
(:func:`repro.obs.get_recorder`).  Each name is patched where its
caller looks it up (a class attribute, or the module global the caller
reads), so nothing under ``src/`` changes.

Counters land wherever the ambient recorder points at call time: the
run's recorder in the workload process, the per-task recorder inside a
bisection task, or a service job's recorder in a pool worker.  Pool
workers fork after :func:`install` ran, so they inherit the wrappers,
and their counters come back through the existing telemetry merge.
Untraced runs never call :func:`install`, so their code path is the
program's own.

:func:`layer_metrics` then turns the run's telemetry (spans plus
counters) into the per-layer table declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any, Callable, Dict, Iterable, Tuple

from repro.obs import Stopwatch, Telemetry, get_recorder

#: ``(module, attribute path, layer timer)``: each entry's callable is
#: wrapped so its busy seconds accumulate in ``e2e/<timer>_s`` and its
#: calls in ``e2e/<timer>_calls``.  Both backend classes override
#: ``ExecutionBackend.map``, so each is patched.
TIMED_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.partition.subproblem", "solve", "partition.solve"),
    ("repro.partition.subproblem", "BisectionTask.hypergraph",
     "partition.hypergraph"),
    ("repro.partition.hypergraph", "Hypergraph.contract",
     "partition.contract"),
    ("repro.partition.fm", "FMRefiner.refine", "partition.fm"),
    ("repro.parallel", "SerialBackend.map", "parallel.map"),
    ("repro.parallel", "ProcessPoolBackend.map", "parallel.map"),
    ("repro.parallel.shared", "SharedArrayPool.pack", "parallel.pack"),
    ("repro.core.globalplace", "compute_net_weights",
     "thermal.net_weights"),
    ("repro.core.globalplace", "compute_trr_weights",
     "thermal.trr_weights"),
    ("repro.thermal.solver", "ThermalSolver.solve_powers",
     "thermal.solve"),
    ("repro.thermal.surrogate", "SurrogateThermalModel.calibrate",
     "thermal.calibrate"),
    ("repro.core.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("repro.service.engine", "PlacementEngine.submit", "service.submit"),
)


def _timed(fn: Callable[..., Any], timer: str) -> Callable[..., Any]:
    seconds_key = f"e2e/{timer}_s"
    calls_key = f"e2e/{timer}_calls"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        watch = Stopwatch()
        try:
            return fn(*args, **kwargs)
        finally:
            rec = get_recorder()
            rec.count(seconds_key, watch.elapsed())
            rec.count(calls_key)

    return wrapper


def install() -> None:
    """Wrap every :data:`TIMED_CALLS` entry (once per process)."""
    for module_name, path, timer in TIMED_CALLS:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        setattr(owner, attr, _timed(getattr(owner, attr), timer))


# ----------------------------------------------------------------------
def _span_seconds(telemetry: Telemetry, path: Iterable[str]) -> float:
    """Seconds of every span whose path matches ``path`` segment by
    segment; a ``*`` segment matches any name starting with the text
    before it (``round*`` matches ``round1``, ``round2`` ...)."""
    nodes = [telemetry.spans]
    for segment in path:
        prefix = segment[:-1] if segment.endswith("*") else None
        nodes = [child for node in nodes
                 for child in node.get("children", [])
                 if (child["name"].startswith(prefix) if prefix is not None
                     else child["name"] == segment)]
    return float(sum(node["seconds"] for node in nodes))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


#: Layers some workload bypasses.  Their busy time is reported as a
#: share of the run's worker-seconds (``seconds / (wall_s * workers)``),
#: so a workload that never enters the layer reads a ratio of 0 rather
#: than a constant zero time.  The raw seconds stay in the full report.
_SHARED_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("parallel.pack_share", "parallel.pack_s"),
    ("moves.share", "moves.total_s"),
    ("cellshift.share", "cellshift.total_s"),
    ("detailed.share", "detailed.total_s"),
    ("refine.share", "refine.total_s"),
    ("thermal.solve_share", "thermal.solve_s"),
    ("thermal.calibrate_share", "thermal.calibrate_s"),
    ("thermal.net_weights_share", "thermal.net_weights_s"),
    ("thermal.trr_weights_share", "thermal.trr_weights_s"),
    ("checkpoint.save_share", "checkpoint.save_s"),
    ("service.submit_share", "service.submit_s"),
)


def layer_metrics(telemetry: Telemetry, wall_s: float, workers: int,
                  map_workers: int, load_s: float
                  ) -> Dict[str, Tuple[float, str]]:
    """The per-layer table of one traced run: ``name -> (value, unit)``.

    Args:
        telemetry: the run's recorder snapshot, job telemetry merged.
        wall_s: the traced run's own end-to-end wall seconds.
        workers: processes doing placement work in parallel (1 for a
            serial run; the pool size otherwise).
        map_workers: workers of the backend the bisection batches run
            on (a sweep job bisects serially inside its pool worker).
        load_s: seconds the workload spent parsing or generating its
            netlist during set-up.
    """
    counters = telemetry.counters

    def timer(name: str) -> float:
        return float(counters.get(f"e2e/{name}_s", 0.0))

    def count(name: str) -> float:
        return float(counters.get(name, 0.0))

    out: Dict[str, Tuple[float, str]] = {}
    out["netlist.load_s"] = (load_s, "s")

    out["objective.build_s"] = (
        _span_seconds(telemetry, ("place", "objective_build")), "s")
    out["objective.rebuilds"] = (count("objective/rebuilds"), "count")

    global_s = _span_seconds(telemetry, ("place", "global"))
    map_s = timer("parallel.map")
    out["global.total_s"] = (global_s, "s")
    out["global.host_s"] = (global_s - map_s, "s")
    out["global.weights_s"] = (
        _span_seconds(telemetry, ("place", "global", "weights")), "s")
    out["global.bisections"] = (count("global/bisections"), "count")

    solve_s = timer("partition.solve")
    hypergraph_s = timer("partition.hypergraph")
    contract_s = timer("partition.contract")
    fm_s = timer("partition.fm")
    kept = count("fm/kept_moves")
    rolled_back = count("fm/rolled_back_moves")
    out["partition.solve_s"] = (solve_s, "s")
    out["partition.solve_calls"] = (
        count("e2e/partition.solve_calls"), "count")
    out["partition.hypergraph_s"] = (hypergraph_s, "s")
    out["partition.contract_s"] = (contract_s, "s")
    out["partition.fm_s"] = (fm_s, "s")
    out["partition.fm_calls"] = (count("e2e/partition.fm_calls"), "count")
    out["partition.rest_s"] = (
        solve_s - hypergraph_s - contract_s - fm_s, "s")
    out["partition.fm_passes"] = (count("fm/passes"), "count")
    out["partition.fm_keep_ratio"] = (
        _ratio(kept, kept + rolled_back), "ratio")

    out["parallel.map_s"] = (map_s, "s")
    out["parallel.pack_s"] = (timer("parallel.pack"), "s")
    out["parallel.tasks"] = (count("parallel/tasks"), "count")
    out["parallel.dispatch_bytes"] = (
        count("parallel/dispatch_bytes"), "B")
    out["parallel.worker_util"] = (
        _ratio(solve_s, map_s * map_workers), "ratio")

    out["moves.total_s"] = (
        _span_seconds(telemetry, ("place", "round*", "moves")), "s")
    out["moves.exec_ratio"] = (
        _ratio(count("moves/executed"), count("moves/candidates")),
        "ratio")
    out["cellshift.total_s"] = (
        _span_seconds(telemetry, ("place", "round*", "cellshift")), "s")
    out["cellshift.iterations"] = (
        count("cellshift/total_iterations"), "count")
    out["detailed.total_s"] = (
        _span_seconds(telemetry, ("place", "round*", "detailed")), "s")
    out["refine.total_s"] = (
        _span_seconds(telemetry, ("place", "round*", "refine")), "s")
    out["refine.swaps"] = (count("refine/adjacent_swaps")
                           + count("refine/equal_width_swaps"), "count")

    out["thermal.solve_s"] = (timer("thermal.solve"), "s")
    out["thermal.solve_calls"] = (
        count("e2e/thermal.solve_calls"), "count")
    out["thermal.lu_misses"] = (count("thermal/lu_miss"), "count")
    out["thermal.calibrate_s"] = (timer("thermal.calibrate"), "s")
    out["thermal.surrogate_calls"] = (
        count("thermal/fidelity/surrogate_calls"), "count")
    out["thermal.exact_calls"] = (
        count("thermal/fidelity/exact_calls"), "count")
    out["thermal.net_weights_s"] = (timer("thermal.net_weights"), "s")
    out["thermal.trr_weights_s"] = (timer("thermal.trr_weights"), "s")

    out["checkpoint.save_s"] = (timer("checkpoint.save"), "s")
    out["checkpoint.saves"] = (
        count("e2e/checkpoint.save_calls"), "count")

    out["service.submit_s"] = (timer("service.submit"), "s")

    capacity = wall_s * workers
    stages_s = sum(child["seconds"] for node in telemetry.spans["children"]
                   if node["name"] == "place"
                   for child in node["children"])
    out["obs.unattributed_share"] = (1.0 - _ratio(stages_s, capacity),
                                     "ratio")
    for share, seconds in _SHARED_LAYERS:
        out[share] = (_ratio(out[seconds][0], capacity), "ratio")
    return out
