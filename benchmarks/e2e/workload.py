"""One repeat of one benchmark workload, in its own interpreter.

``run.py`` starts this file once per repeat so that every repeat pays
its own interpreter start, imports and input load, and so that the
process's ``VmHWM`` is the repeat's own peak::

    python benchmarks/e2e/workload.py NAME --seed N --workdir DIR \
        [--check] [--trace] [--smoke] [--setup-only]

Protocol on standard output: one ``READY`` line when set-up is done
(``run.py`` times set-up from spawning the process to this line), then
one ``RESULT <json>`` line.  With ``--setup-only`` the process exits
after ``READY``.  Every repeat reports its placement digest and every
job's final state; ``--check`` adds the output checks and the quality
metrics (Eq. 3 objective, HPWL, ILVs, peak temperature).  All of it
runs after the timed section and after the peak-RSS reading.

The workloads (sizes in :data:`FULL`; :data:`SMOKE` shrinks them):

- ``ibm01-place``: ibm01 read from a Bookshelf triple that ``run.py``
  wrote before timing, placed serially by ``Placer3D(...).run()`` with
  the default config: the paper's one-shot flow, global and
  legalization stages both heavy; thermal, service and parallel
  dispatch bypassed.
- ``synth5k-global``: a 5k-cell synthetic circuit through the global
  stage only, on 2 pool workers: partitioning and shared-memory
  dispatch do the work; legalization, thermal and service bypassed.
- ``ibm01-temp-sweep``: 8 ``alpha_TEMP`` points on a smaller ibm01
  Bookshelf input, submitted to a 2-worker ``PlacementEngine``, each
  job serial inside, as ``repro sweep`` runs them; then the 8
  requests again, served by the result cache: the service plane,
  checkpoints and the thermal layer.

Each circuit is fixed, as a benchmark file is: the generators run at
:data:`CIRCUIT_SEED`, and the ibm01 replicas are written as Bookshelf
files before timing.  The benchmark seed drives the placer's random
choices (``PlacementConfig.seed``; sweep point ``i`` uses
``1000 * seed + i``, so the sweep's mean quality averages independent
placements).  A circuit generated per seed would move the quality
metrics by 4-5% between seeds on ``synth5k-global``, against under 2%
for the placer seed alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import threading
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (Any, Callable, ContextManager, Dict, List, Optional,
                    Sequence)

import numpy as np

from repro import PlacementConfig, PlacementResult, Placer3D, load_benchmark
from repro.core.context import auto_chip
from repro.core.detailed import check_legal
from repro.core.pipeline import PipelineSpec, StageEntry
from repro.metrics.report import evaluate_placement
from repro.netlist import bookshelf
from repro.netlist.cache import bookshelf_key, cached_netlist
from repro.netlist.placement import Placement
from repro.obs import (Recorder, Stopwatch, Telemetry, peak_rss_bytes,
                       use_recorder)
from repro.service import JobRequest, PlacementEngine, netlist_hash

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402  (sibling module of this script)

NAMES = ("ibm01-place", "synth5k-global", "ibm01-temp-sweep")

#: Generator seed of the fixed circuits.
CIRCUIT_SEED = 0

#: Pool size of the parallel workloads; matches the 2-CPU machines the
#: recorded baselines come from.
POOL_WORKERS = 2

#: Job states a job can still make progress from.
_ACTIVE = ("queued", "running")

#: Worker-RSS sampling and job-state polling cadence, seconds.
_SAMPLE_SECONDS = 0.1
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class Sizes:
    """Instance sizes of the three workloads."""

    place_scale: float
    synth_circuit: str
    sweep_scale: float
    sweep_points: int


#: Each repeat takes 5-7 s on an idle 2-vCPU host, so a 30-s contract
#: run fits three to five repeats.  The sweep's per-job cost is mostly
#: fixed (service, checkpoints, thermal calibration), so it is sized by
#: its point count: 12 points cost 1.6x as much as 8.
FULL = Sizes(place_scale=0.15, synth_circuit="synthetic5k",
             sweep_scale=0.03, sweep_points=8)
SMOKE = Sizes(place_scale=0.025, synth_circuit="synthetic2k",
              sweep_scale=0.025, sweep_points=3)


def sweep_alphas(points: int) -> List[float]:
    """``alpha_TEMP`` log-spaced over the paper's range 1e-8 .. 5.2e-3."""
    return [float(a) for a in
            np.logspace(np.log10(1e-8), np.log10(5.2e-3), points)]


def ibm01_prefix(workdir: Path, scale: float) -> str:
    """Where :func:`prepare` writes ibm01 at ``scale`` as Bookshelf."""
    return str(workdir / f"ibm01-{scale:g}")


def prepare(name: str, sizes: Sizes, workdir: Path) -> None:
    """Write the inputs a workload reads before its timing starts."""
    scale = {"ibm01-place": sizes.place_scale,
             "ibm01-temp-sweep": sizes.sweep_scale}.get(name)
    if scale is not None:
        netlist = load_benchmark("ibm01", scale=scale, seed=CIRCUIT_SEED)
        bookshelf.write_bookshelf(ibm01_prefix(workdir, scale), netlist)


def placement_digest(placements: Sequence[Placement]) -> str:
    """sha256 over the coordinate arrays, in order."""
    digest = hashlib.sha256()
    for placement in placements:
        for array in (placement.x, placement.y, placement.z):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _child_pids(parent: int) -> List[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the comm field may hold spaces: ppid follows the last ')'
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == parent:
            pids.append(int(entry))
    return pids


class WorkerRssSampler:
    """Largest ``VmHWM`` among this process's children, sampled from
    ``/proc`` on a thread.  ``RUSAGE_CHILDREN`` cannot stand in: it
    covers only reaped children, and pool workers outlive the reading.
    Pool workers fork while the thread runs; it only reads ``/proc``,
    so it holds no lock a worker would take.
    """

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="e2e-rss-sampler")

    def sample(self) -> None:
        """Fold the current children's high-water marks in."""
        for pid in _child_pids(os.getpid()):
            self.peak_kb = max(self.peak_kb, _vm_hwm_kb(pid))

    def _loop(self) -> None:
        while not self._stop.wait(_SAMPLE_SECONDS):
            self.sample()

    def __enter__(self) -> "WorkerRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()


# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one repeat reports back to ``run.py``."""

    wall_s: float
    job_latencies_s: List[float]
    peak_rss_mb: float
    worker_peak_rss_mb: float
    attempted: int
    digest: str
    netlist_hash: str
    failed: int = 0
    #: ``objective``, ``hpwl_m``, ``ilv``, ``t_max_k``; checked repeats only
    quality: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    per_layer: Dict[str, List[Any]] = field(default_factory=dict)


def _own_peak_mb() -> float:
    return peak_rss_bytes() / 2**20


def _check(errors: List[str], label: str,
           check: Callable[[], None]) -> bool:
    try:
        check()
    except AssertionError as exc:
        errors.append(f"{label}: {exc}")
        return False
    return True


def _assess(outcome: Outcome, result: PlacementResult,
            config: PlacementConfig, label: str,
            check: Callable[[Placement], None]) -> None:
    """Output check and quality metrics of a one-shot placement."""
    placement = result.placement
    if not _check(outcome.errors, label, lambda: check(placement)):
        outcome.failed += 1
    report = evaluate_placement(placement, config.tech, thermal=True)
    outcome.quality = {
        "objective": float(result.objective),
        "hpwl_m": float(report.wirelength), "ilv": float(report.ilv),
        "t_max_k": float(report.max_temperature)}


class Workload:
    """Set-up and timed run of one workload."""

    #: processes doing placement work in parallel during the run
    workers = 1
    #: workers of the backend each placement bisects on
    map_workers = 1
    recorder: Optional[Recorder] = None
    load_s = 0.0
    #: service-plane rows of the per-layer table; only the sweep
    #: submits jobs, so the others report none placed and no hits
    service_layers: Dict[str, List[Any]] = {
        "service.place_share": [0.0, "ratio"],
        "service.cache_hits": [0.0, "count"],
    }

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        raise NotImplementedError

    def run(self, check: bool) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Release set-up resources (idempotent)."""

    def layer_table(self, outcome: Outcome) -> Dict[str, List[Any]]:
        assert self.recorder is not None
        table = layers.layer_metrics(self.recorder.snapshot(),
                                     outcome.wall_s, self.workers,
                                     self.map_workers, self.load_s)
        out = {name: [value, unit] for name, (value, unit)
               in table.items()}
        out.update(self.service_layers)
        return out


class PlaceWorkload(Workload):
    """``ibm01-place``: one-shot serial placement of a Bookshelf input."""

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        watch = Stopwatch()
        self.netlist = bookshelf.read_bookshelf_streaming(
            ibm01_prefix(workdir, sizes.place_scale))
        self.load_s = watch.elapsed()
        self.netlist_hash = netlist_hash(self.netlist)
        self.config = PlacementConfig(seed=seed, num_workers=1)

    def run(self, check: bool) -> Outcome:
        watch = Stopwatch()
        result = Placer3D(self.netlist, self.config,
                          recorder=self.recorder).run()
        wall_s = watch.elapsed()
        peak_mb = _own_peak_mb()
        outcome = Outcome(
            wall_s=wall_s, job_latencies_s=[wall_s], peak_rss_mb=peak_mb,
            worker_peak_rss_mb=peak_mb, attempted=1,
            digest=placement_digest([result.placement]),
            netlist_hash=self.netlist_hash)
        if check:
            _assess(outcome, result, self.config, "legality", check_legal)
        return outcome


def _in_die_and_layers(placement: Placement) -> None:
    chip = placement.chip
    movable = np.array([c.movable for c in placement.netlist.cells],
                       dtype=bool)
    x, y, z = (placement.x[movable], placement.y[movable],
               placement.z[movable])
    if not (np.all((x >= 0.0) & (x <= chip.width))
            and np.all((y >= 0.0) & (y <= chip.height))):
        raise AssertionError("a cell centre lies outside the die")
    if not np.all((z >= 0) & (z < chip.num_layers)):
        raise AssertionError("a cell lies outside the layer range")


class GlobalWorkload(Workload):
    """``synth5k-global``: the global stage alone, on a worker pool."""

    workers = map_workers = POOL_WORKERS

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        watch = Stopwatch()
        self.netlist = load_benchmark(sizes.synth_circuit, scale=1.0,
                                      seed=CIRCUIT_SEED)
        self.load_s = watch.elapsed()
        self.netlist_hash = netlist_hash(self.netlist)
        self.config = PlacementConfig(seed=seed, num_workers=self.workers)
        self.spec = PipelineSpec(entries=(StageEntry("global"),))

    def run(self, check: bool) -> Outcome:
        with WorkerRssSampler() as sampler:
            watch = Stopwatch()
            result = Placer3D(self.netlist, self.config,
                              recorder=self.recorder, spec=self.spec).run()
            wall_s = watch.elapsed()
        outcome = Outcome(
            wall_s=wall_s, job_latencies_s=[wall_s],
            peak_rss_mb=_own_peak_mb(),
            worker_peak_rss_mb=sampler.peak_kb / 1024, attempted=1,
            digest=placement_digest([result.placement]),
            netlist_hash=self.netlist_hash)
        if check:
            # a global-only placement overlaps by design: bounds only
            _assess(outcome, result, self.config, "bounds",
                    _in_die_and_layers)
        return outcome


class SweepWorkload(Workload):
    """``ibm01-temp-sweep``: a thermal sweep of service jobs, then the
    same requests again from the result cache."""

    workers = POOL_WORKERS

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        prefix = ibm01_prefix(workdir, sizes.sweep_scale)
        self.prefix = prefix
        self.netlist_key = bookshelf_key(prefix)
        self.loader = lambda: bookshelf.read_bookshelf_streaming(prefix)
        watch = Stopwatch()
        # loaded through the netlist cache, as the service's workers
        # load it: the forked pool workers inherit the cached copy
        netlist = cached_netlist(self.netlist_key, self.loader)
        self.load_s = watch.elapsed()
        self.netlist_hash = netlist_hash(netlist)
        self.configs = [
            PlacementConfig(alpha_temp=alpha, seed=1000 * seed + index,
                            num_workers=1)
            for index, alpha in enumerate(
                sweep_alphas(sizes.sweep_points))]
        # a private job store per repeat: a shared one would turn the
        # next repeat's cold jobs into cache hits
        self.jobs_dir = workdir / f"jobs-{os.getpid()}"
        self.engine = PlacementEngine(self.jobs_dir, workers=self.workers)

    def close(self) -> None:
        self.engine.close()
        shutil.rmtree(self.jobs_dir, ignore_errors=True)

    def _submit(self, config: PlacementConfig) -> str:
        request = JobRequest(config=config.to_dict(), bookshelf=self.prefix,
                             want_telemetry=self.recorder is not None)
        return self.engine.submit(request,
                                  netlist_digest=self.netlist_hash)

    def _drain(self, job_ids: Sequence[str],
               watch: Stopwatch) -> List[float]:
        """Pump the scheduler until every job left the active states;
        returns the ``watch`` reading at which each was first seen."""
        done: Dict[str, float] = {}
        pause = threading.Event()
        while True:
            self.engine.scheduler.pump()
            for job_id in job_ids:
                if job_id not in done and \
                        self.engine.status(job_id)["state"] not in _ACTIVE:
                    done[job_id] = watch.elapsed()
            if len(done) == len(job_ids):
                return [done[job_id] for job_id in job_ids]
            pause.wait(_POLL_SECONDS)

    def run(self, check: bool) -> Outcome:
        scope: ContextManager[Any] = (
            use_recorder(self.recorder) if self.recorder is not None
            else nullcontext())
        with scope, WorkerRssSampler() as sampler:
            watch = Stopwatch()
            submitted, cold_ids = [], []
            for config in self.configs:
                submitted.append(watch.elapsed())
                cold_ids.append(self._submit(config))
            finished = self._drain(cold_ids, watch)
            wall_s = watch.elapsed()
            hit_ids, hit_latencies = [], []
            for config in self.configs:
                watch.restart()
                hit_ids.append(self._submit(config))
                hit_latencies.extend(self._drain(hit_ids[-1:], watch))
            sampler.sample()
        peak_mb = _own_peak_mb()
        if self.recorder is not None:
            for job_id in cold_ids:
                outcome = self.engine.outcome(job_id) or {}
                telemetry = outcome.get("telemetry")
                if isinstance(telemetry, Telemetry):
                    self.recorder.merge(telemetry)
        outcome = Outcome(
            wall_s=wall_s,
            job_latencies_s=[end - start
                             for start, end in zip(submitted, finished)],
            peak_rss_mb=peak_mb, worker_peak_rss_mb=sampler.peak_kb / 1024,
            attempted=len(cold_ids) + len(hit_ids), digest="",
            netlist_hash=self.netlist_hash)
        self._check_jobs(outcome, cold_ids, hit_ids, check)
        job_seconds = sum(float(self.engine.status(job_id)["result"]
                                ["wall_seconds"]) for job_id in cold_ids
                          if self.engine.status(job_id)["state"] == "done")
        self.service_layers = {
            "service.place_share": [
                job_seconds / (wall_s * self.workers), "ratio"],
            "service.hit_p50_ms": [
                1e3 * statistics.median(hit_latencies), "ms"],
            "service.cache_hits": [
                self.engine.counters().get("cache/hit", 0.0), "count"],
        }
        return outcome

    def _check_jobs(self, outcome: Outcome, cold_ids: List[str],
                    hit_ids: List[str], check: bool) -> None:
        """Every cold job ``done`` as a cache miss and every
        resubmission ``done`` as a cache hit; the digest covers the
        cold jobs' placements.  ``check`` adds, per point, ``check_legal``
        on the placement and identity of the hit's placement, and the
        quality metrics as means over the points."""
        placements: List[Placement] = []
        summaries: List[Dict[str, Any]] = []
        t_max: List[float] = []
        for index, (cold_id, hit_id) in enumerate(zip(cold_ids, hit_ids)):
            config = self.configs[index]
            cold = self.engine.status(cold_id)
            for status, cache in ((cold, "miss"),
                                  (self.engine.status(hit_id), "hit")):
                if status["state"] != "done" or status["cache"] != cache:
                    outcome.errors.append(
                        f"point {index}: {status['state']}/"
                        f"{status['cache']} job, expected done/{cache}: "
                        f"{status.get('error')}")
                    outcome.failed += 1
            if cold["state"] != "done":
                continue
            placement = self._load_placement(cold_id, config)
            placements.append(placement)
            summaries.append(cold["result"])
            if not check:
                continue
            if not _check(outcome.errors, f"point {index} legality",
                          lambda: check_legal(placement)):
                outcome.failed += 1
            if placement_digest([placement]) != placement_digest(
                    [self._load_placement(hit_id, config)]):
                outcome.errors.append(f"point {index}: the cache hit "
                                      f"serves another placement")
                outcome.failed += 1
            t_max.append(evaluate_placement(placement, config.tech,
                                            thermal=True).max_temperature)
        outcome.digest = placement_digest(placements)
        if check:
            outcome.quality = {
                "objective": _mean([s["objective"] for s in summaries]),
                "hpwl_m": _mean([s["wirelength"] for s in summaries]),
                "ilv": _mean([s["ilv"] for s in summaries]),
                "t_max_k": _mean(t_max)}

    def _load_placement(self, job_id: str,
                        config: PlacementConfig) -> Placement:
        netlist = cached_netlist(self.netlist_key, self.loader)
        path = self.engine.store.result_dir(job_id) / "placement.npz"
        with np.load(path) as data:
            return Placement(netlist, auto_chip(netlist, config),
                             x=data["x"], y=data["y"], z=data["z"])


def _mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "ibm01-place": PlaceWorkload,
    "synth5k-global": GlobalWorkload,
    "ibm01-temp-sweep": SweepWorkload,
}


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    if args.trace:
        layers.install()
        workload.recorder = Recorder()
    try:
        workload.setup(args.seed, SMOKE if args.smoke else FULL,
                       Path(args.workdir))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        outcome = workload.run(args.check)
    finally:
        workload.close()
    if args.trace:
        outcome.per_layer = workload.layer_table(outcome)
    print("RESULT " + json.dumps(asdict(outcome)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
