"""End-to-end benchmark of the 3D placer, measured whole and per layer.

Three workloads (see ``workload.py`` and ``README.md``), each repeat in
a fresh interpreter.  End-to-end metrics come from untraced repeats,
their times normalised by the host's speed while each repeat ran
(``speed.py``); per-layer metrics come from a traced run whose
wrappers (``layers.py``) time calls into each layer from outside
``src/``.  ``BENCHMARK.json`` at the repository root declares the
workloads, metric names, units and bounds; this script computes the
metrics and checks that the placements are correct.

Usage, from the repository root::

    # all workloads: 5 untraced repeats (round-robin) + 1 traced each
    python3 benchmarks/e2e/run.py --json OUT.json
    # the same at smoke sizes, 1 repeat + 1 traced each
    python3 benchmarks/e2e/run.py --smoke --json OUT.json
    # one run of one workload; the last stdout line is a JSON object
    python3 benchmarks/e2e/run.py --workload ibm01-place --seed 3 \
        --seconds 30 --trace 0
    # two result sets of the same or of two commits
    python3 benchmarks/e2e/run.py --compare SET1.json SET2.json

The package under test is imported from ``src/`` next to this
directory; no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Metrics whose value is a property of the placement, not of the
#: machine: two runs of one commit at one seed must agree exactly.
QUALITY = ("objective", "hpwl_m", "ilv", "t_max_k")

#: Units of the end-to-end metrics this script computes (checked
#: against ``BENCHMARK.json`` by the smoke test).
E2E_UNITS = {
    "wall_s": "s", "setup_s": "s", "job_p50_s": "s",
    "peak_rss_mb": "MB", "worker_peak_rss_mb": "MB",
    "objective": "m", "hpwl_m": "m", "ilv": "count", "t_max_k": "K",
}

#: Untraced repeats per workload in the full set (``--json``).
FULL_REPEATS = 5

#: A contract run (``--workload``) makes at least this many untraced
#: repeats, and starts another while it still fits in ``--seconds``.
MIN_REPEATS = 3

#: Set-up samples a contract run collects (its repeats' set-ups plus
#: set-up-only probes): ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: A workload process that runs longer than this is killed and counted
#: as failed, so a hung run cannot hang the benchmark.  A repeat takes
#: 5-12 s; after a failed process a contract run starts no other.
CHILD_TIMEOUT_S = 60.0

#: Pinned so BLAS thread pools do not compete with the pool workers on
#: small machines; the placer itself is single-threaded per process.
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")

#: Environment opt-ins that would change what a workload runs.
_CLEARED_ENV = ("REPRO_WORKERS", "REPRO_PROFILE", "REPRO_PROFILE_ALLOC")


def _require_source() -> None:
    if not (SRC / "repro").is_dir():
        sys.exit(f"run.py: no package to benchmark at {SRC / 'repro'}; "
                 f"run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def declared() -> Dict[str, Any]:
    """The benchmark contract, ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        document: Dict[str, Any] = json.load(fh)
    return document


# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One workload process: its raw set-up time and lifetime, the
    host's speed factor while it ran (``speed.py``), and its result."""

    setup_s: Optional[float]
    seconds: float
    speed: float
    result: Optional[Dict[str, Any]]
    error: Optional[str]


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in _CLEARED_ENV:
        env.pop(name, None)
    for name in _THREAD_ENV:
        env[name] = "1"
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(workload: str, seed: int, workdir: Path, *, check: bool = False,
          trace: bool = False, smoke: bool = False,
          setup_only: bool = False) -> Sample:
    """Run one repeat of ``workload`` in a fresh interpreter.

    The process runs pinned to the workload's CPUs, beside a speed
    probe on the same CPUs.  ``setup_s`` is measured here, from
    spawning the process to its ``READY`` line; everything else comes
    from its ``RESULT`` line.
    """
    from repro.obs import Stopwatch
    from speed import SpeedProbe, workload_cpus
    from workload import WORKLOADS

    cmd = [sys.executable, str(HERE / "workload.py"), workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    flags = {"--check": check, "--trace": trace, "--smoke": smoke,
             "--setup-only": setup_only}
    cmd += [flag for flag, on in flags.items() if on]
    setup_s: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    allowed = os.sched_getaffinity(0)
    cpus = workload_cpus(WORKLOADS[workload].workers)
    # the workload process inherits this thread's CPUs
    os.sched_setaffinity(0, cpus)
    try:
        with SpeedProbe(cpus) as probe:
            watch = Stopwatch()
            proc = subprocess.Popen(cmd, cwd=str(ROOT), env=_child_env(),
                                    stdout=subprocess.PIPE, text=True)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                assert proc.stdout is not None
                for line in proc.stdout:
                    if line.startswith("READY") and setup_s is None:
                        setup_s = watch.elapsed()
                    elif line.startswith("RESULT "):
                        result = json.loads(line[len("RESULT "):])
                code = proc.wait()
            finally:
                killer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            seconds = watch.elapsed()
    finally:
        os.sched_setaffinity(0, allowed)
    error = None
    if code != 0:
        error = f"{workload}: exit code {code}"
    elif result is None and not setup_only:
        error = f"{workload}: no result line"
    elif result is not None and result["errors"]:
        error = f"{workload}: " + "; ".join(result["errors"])
    return Sample(setup_s, seconds, probe.factor(), result, error)


@contextmanager
def _workdir() -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    base = ROOT / ".bench_work"
    path = base / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(p25, median, p75)``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return p25, p50, p75


def _stats(values: List[float], unit: str) -> Dict[str, Any]:
    p25, p50, p75 = quartiles(values)
    return {"unit": unit, "median": p50, "p25": p25, "p75": p75,
            "samples": values}


def repeat_metrics(sample: Sample) -> Dict[str, float]:
    """End-to-end values of one untraced repeat (``setup_s`` aside;
    the quality metrics only if the repeat was checked), times
    normalised by the repeat's speed factor."""
    assert sample.result is not None
    r = sample.result
    return {
        "wall_s": r["wall_s"] * sample.speed,
        "job_p50_s": statistics.median(r["job_latencies_s"]) * sample.speed,
        "peak_rss_mb": r["peak_rss_mb"],
        "worker_peak_rss_mb": r["worker_peak_rss_mb"],
        **r["quality"],
    }


def summarise(untraced: List[Sample], setups: List[Sample],
              traced: Optional[Sample]) -> Dict[str, Any]:
    """Statistics and checks of one workload's repeats.

    Every repeat and the traced run must finish without error and
    produce the identical placement digest from the identical netlist,
    so the checks of one repeat hold for all of them.  ``fail_rate``
    counts failed placements or jobs (a process that died counts as
    one attempt, failed).  ``setups`` are the processes whose set-up
    times make up ``setup_s``.
    """
    runs = untraced + ([traced] if traced is not None else [])
    attempted = failed = 0
    errors: List[str] = []
    for sample in runs:
        if sample.result is None:
            attempted += 1
            failed += 1
        else:
            attempted += sample.result["attempted"]
            failed += sample.result["failed"]
        if sample.error:
            errors.append(sample.error)
    finished = [s for s in runs if s.result is not None]
    for key in ("digest", "netlist_hash"):
        if len({s.result[key] for s in finished}) > 1:  # type: ignore
            errors.append(f"{key} differs between repeats")
    if not any(s.result["quality"] for s in finished):  # type: ignore
        errors.append("no repeat was checked")
    ok = [s for s in untraced if s.result is not None]
    series: Dict[str, List[float]] = {name: [] for name in E2E_UNITS}
    series["setup_s"] = [s.setup_s * s.speed for s in setups
                         if s.setup_s is not None]
    for sample in ok:
        for name, value in repeat_metrics(sample).items():
            series[name].append(value)
    end_to_end = {name: _stats(series[name], unit)
                  for name, unit in E2E_UNITS.items() if series[name]}
    per_layer: Dict[str, List[Any]] = {}
    if traced is not None and traced.result is not None and ok:
        per_layer = dict(traced.result["per_layer"])
        per_layer["obs.trace_overhead_pct"] = [
            100.0 * (traced.result["wall_s"] * traced.speed
                     / statistics.median(series["wall_s"]) - 1.0), "%"]
    digest = finished[0].result["digest"] if finished else None  # type: ignore
    return {
        "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted if attempted else 1.0,
        "correct": not errors and failed == 0,
        "errors": errors, "digest": digest,
        "speed": _stats([s.speed for s in untraced], "x"),
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


# ----------------------------------------------------------------------
def contract_run(workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    """One benchmark run as the contract defines it.

    Untraced (``trace`` false): a checked repeat, then unchecked
    repeats while the next one still fits in ``seconds`` (at least
    :data:`MIN_REPEATS` in all), plus set-up-only probes up to
    :data:`SETUP_SAMPLES` set-up samples; the metrics are medians.
    Traced: one untraced and one checked traced repeat; the metrics
    are the traced run's per-layer table and the tracing overhead.
    """
    from repro.obs import Stopwatch
    from workload import FULL, prepare

    contract = declared()
    names = [m["name"] for m in contract["per_layer" if trace
                                         else "end_to_end"]]
    with _workdir() as workdir:
        prepare(workload, FULL, workdir)
        traced: Optional[Sample] = None
        if trace:
            untraced = [spawn(workload, seed, workdir)]
            if untraced[0].error is None:
                traced = spawn(workload, seed, workdir, check=True,
                               trace=True)
            setups = list(untraced)
        else:
            watch = Stopwatch()
            untraced = [spawn(workload, seed, workdir, check=True)]
            while untraced[-1].error is None and (
                    len(untraced) < MIN_REPEATS
                    or watch.elapsed() + untraced[-1].seconds < seconds):
                untraced.append(spawn(workload, seed, workdir))
            setups = list(untraced)
            while untraced[-1].error is None and \
                    len(setups) < SETUP_SAMPLES:
                setups.append(spawn(workload, seed, workdir,
                                    setup_only=True))
    summary = summarise(untraced, setups, traced)
    for error in summary["errors"]:
        print(f"run.py: {error}", file=sys.stderr)
    table = summary["per_layer"] if trace else {
        name: [stats["median"], stats["unit"]]
        for name, stats in summary["end_to_end"].items()}
    missing = [name for name in names if name not in table]
    if missing:
        print(f"run.py: no value for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": table[name][0], "unit": table[name][1]}
               for name in names}
    for name in names:
        print(f"{workload:<17} {name:<28} {metrics[name]['value']:>14.6g}"
              f" {metrics[name]['unit']}")
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def full_run(seed: int, smoke: bool) -> Dict[str, Any]:
    """Every workload: repeats interleaved round-robin, so machine
    drift spreads over all of them, then one traced run each."""
    from workload import FULL, NAMES, SMOKE, prepare

    sizes = SMOKE if smoke else FULL
    repeats = 1 if smoke else FULL_REPEATS
    untraced: Dict[str, List[Sample]] = {name: [] for name in NAMES}
    with _workdir() as workdir:
        for name in NAMES:
            prepare(name, sizes, workdir)
        for _ in range(repeats):
            for name in NAMES:
                untraced[name].append(spawn(name, seed, workdir, check=True,
                                            smoke=smoke))
        traced = {name: spawn(name, seed, workdir, check=True, trace=True,
                              smoke=smoke)
                  for name in NAMES}
    return {
        "seed": seed, "smoke": smoke, "repeats": repeats,
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {
            name: summarise(untraced[name], untraced[name], traced[name])
            for name in NAMES},
    }


def render(document: Dict[str, Any]) -> str:
    """Plain-text tables of a full result set."""
    lines = []
    for name, summary in document["workloads"].items():
        lines.append(f"== {name}: {summary['attempted']} attempted, "
                     f"{summary['failed']} failed, fail_rate "
                     f"{summary['fail_rate']:.3g}, digest "
                     f"{(summary['digest'] or '-')[:16]}, speed factor "
                     f"{summary['speed']['median']:.3g}")
        lines.append(f"  {'metric':<22} {'unit':<6} {'median':>12} "
                     f"{'p25':>12} {'p75':>12} {'n':>3}")
        for metric, stats in summary["end_to_end"].items():
            lines.append(
                f"  {metric:<22} {stats['unit']:<6} "
                f"{stats['median']:>12.6g} {stats['p25']:>12.6g} "
                f"{stats['p75']:>12.6g} {len(stats['samples']):>3}")
        layer = summary["per_layer"]
        if layer:
            lines.append(f"  {'per-layer (traced run)':<34} "
                         f"{'value':>12} unit")
            for metric, (value, unit) in sorted(layer.items()):
                lines.append(f"  {metric:<34} {value:>12.6g} {unit}")
            spans = 1.0 - layer["obs.unattributed_share"][0]
            solve_host = (layer["partition.solve_s"][0]
                          + layer["global.host_s"][0])
            inside = solve_host / layer["global.total_s"][0]
            lines.append(f"  attribution: stage spans = {100 * spans:.1f}% "
                         f"of wall_s x workers; partition.solve_s + "
                         f"global.host_s = {100 * inside:.1f}% of "
                         f"global.total_s")
        for error in summary["errors"]:
            lines.append(f"  ERROR {error}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Print both sets side by side; nonzero when any end-to-end median
    differs by more than its bound, or a quality metric, the failure
    rate or a placement digest differs at all."""
    with open(path_a, "r", encoding="utf-8") as fh:
        set_a = json.load(fh)
    with open(path_b, "r", encoding="utf-8") as fh:
        set_b = json.load(fh)
    bounds = {m["name"]: float(m["bound"])
              for m in declared()["end_to_end"]}
    problems: List[str] = []
    print(f"{'workload':<17} {'metric':<19} {'unit':<6} "
          f"{'A median [p25, p75]':>34} {'B median [p25, p75]':>34} "
          f"{'change':>8} {'bound':>6}")
    for workload, a in set_a["workloads"].items():
        b = set_b["workloads"].get(workload)
        if b is None:
            problems.append(f"{workload}: missing from {path_b}")
            continue
        for metric, bound in bounds.items():
            sa = a["end_to_end"].get(metric)
            sb = b["end_to_end"].get(metric)
            if sa is None or sb is None:
                problems.append(f"{workload} {metric}: missing")
                continue
            change = ((sb["median"] - sa["median"]) / sa["median"]
                      if sa["median"] else 0.0)
            exact = metric in QUALITY
            print(f"{workload:<17} {metric:<19} {sa['unit']:<6} "
                  f"{_triple(sa):>34} {_triple(sb):>34} "
                  f"{100 * change:>+7.2f}% "
                  f"{'exact' if exact else f'{100 * bound:.0f}%':>6}")
            if exact and sa["median"] != sb["median"]:
                problems.append(f"{workload} {metric}: differs")
            elif not exact and abs(change) > bound:
                problems.append(f"{workload} {metric}: "
                                f"{100 * change:+.1f}% exceeds "
                                f"{100 * bound:.0f}%")
        if a["fail_rate"] != b["fail_rate"]:
            problems.append(f"{workload}: fail_rate differs")
        if a["digest"] != b["digest"]:
            problems.append(f"{workload}: placement digest differs")
    for problem in problems:
        print(f"DIFFERS {problem}")
    print("sets agree within bounds" if not problems
          else f"{len(problems)} difference(s)")
    return 1 if problems else 0


def _triple(stats: Dict[str, Any]) -> str:
    return (f"{stats['median']:.5g} [{stats['p25']:.5g}, "
            f"{stats['p75']:.5g}]")


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        help="run one workload once (contract mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="contract mode: measuring time of the run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 reports the per-layer "
                             "metrics of a traced run")
    parser.add_argument("--json", metavar="OUT",
                        help="run every workload and write the set here")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke sizes and 1 repeat (with --json)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result sets")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    _require_source()
    if args.workload:
        from workload import NAMES
        if args.workload not in NAMES:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(NAMES)}")
        seconds = (args.seconds if args.seconds is not None
                   else float(declared()["run_seconds"]))
        return contract_run(args.workload, args.seed, seconds,
                            bool(args.trace))
    document = full_run(args.seed, args.smoke)
    print(render(document))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(s["correct"]
                    for s in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
