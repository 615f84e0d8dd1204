"""Command-line interface: ``python -m repro <command>``.

Commands:
    place        place a suite benchmark or a Bookshelf design
    sweep        sweep the via coefficient and print the tradeoff curve
    suite        list the built-in benchmark profiles (Table 1)
    config-dump  print the effective placement config as JSON
    obs          observability tools: report / diff / history
    serve        run the placement job engine on a unix socket
    job          client for a running server: submit / status / list /
                 cancel / resume / result

Placement as a service::

    python -m repro serve --jobs-dir /tmp/jobs --socket /tmp/repro.sock
    python -m repro job submit --socket /tmp/repro.sock \
        --circuit ibm01 --scale 0.05 --wait   # resubmit = cache hit
    python -m repro job list --socket /tmp/repro.sock

``place`` and ``sweep`` go through the same engine in-process:
``--jobs-dir``/``--cache-dir`` persist the job spool and the
content-addressed result cache across runs, so an already-placed
``(config, spec, netlist)`` triple short-circuits to a cache hit.

Profiling and perf watch::

    python -m repro place --circuit ibm01 --scale 0.025 --profile \
        --telemetry-out /tmp/run
    python -m repro obs report /tmp/run.manifest.json
    python -m repro obs diff baseline.manifest.json run.manifest.json
    python -m repro obs history --append BENCH_scaling.json \
        --label nightly && python -m repro obs history --check

Examples::

    python -m repro place --circuit ibm01 --scale 0.05 \
        --alpha-ilv 1e-5 --alpha-temp 1e-5 --layers 4 --out /tmp/out
    python -m repro place --bookshelf /path/to/design --layers 2
    python -m repro -v place --circuit ibm01 --scale 0.01 \
        --telemetry-out /tmp/run --trace
    python -m repro place --circuit ibm01 --pipeline custom.json \
        --checkpoint-dir /tmp/ckpt
    python -m repro place --circuit ibm01 --checkpoint-dir /tmp/ckpt \
        --resume
    python -m repro sweep --circuit ibm02 --scale 0.02 --points 5 \
        --telemetry-out /tmp/sweep
    python -m repro config-dump --alpha-temp 1e-5 --layers 4
    python -m repro suite

The ``place`` pipeline is composable: ``--pipeline SPEC.json`` runs a
custom stage sequence (see ``repro.core.pipeline``), and with
``--checkpoint-dir`` the run state is serialized after every stage
boundary so ``--resume`` continues an interrupted run bit-identically.
``--halt-after UNIT`` stops at a named boundary (testing/drills).  The
baselines are specs too: ``[random, detailed]``, ``[random, anneal,
detailed]`` and ``[quadratic, detailed]``.  Every finished run ends
with the check its spec implies — full legality when the spec ends
with ``detailed`` (``refine`` may follow), else die and layer bounds —
and a failed check fails the job: ``place`` exits 1.

Verbosity: ``-v`` shows per-stage progress (INFO), ``-vv`` debug,
``-q`` errors only.  ``--telemetry-out PREFIX`` writes
``PREFIX.trace.jsonl`` (the JSONL event stream) and
``PREFIX.manifest.json`` (the schema-validated run manifest) next to
any ``--out`` artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Callable, List, Optional

import numpy as np

from repro import (
    PlacementConfig,
    PlacementReport,
    evaluate_placement,
    load_benchmark,
)
from repro import obs
from repro.core.checkpoint import CheckpointError
from repro.core.context import auto_chip
from repro.core.pipeline import PipelineSpec
from repro.netlist import bookshelf
from repro.netlist.cache import (benchmark_key, bookshelf_key,
                                 cached_netlist)
from repro.netlist.placement import Placement
from repro.netlist.suite import SUITE_PROFILES
from repro.obs import configure_cli_logging
from repro import service
from repro.service import (JobRequest, PlacementEngine, RpcError,
                           RpcServer, ServiceClient)
from repro.thermal.power import PowerModel
from repro.metrics.wirelength import compute_net_metrics
from repro import viz


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thermal- and via-aware 3D IC placement "
                    "(Goplen & Sapatnekar, DAC 2007 reproduction)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more logging (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less logging (errors only)")
    sub = parser.add_subparsers(dest="command", required=True)

    place = sub.add_parser("place", help="place one design")
    src = place.add_mutually_exclusive_group(required=True)
    src.add_argument("--circuit",
                     help="suite benchmark name (ibm01..18) or "
                          "synthetic<N> (e.g. synthetic50k)")
    src.add_argument("--bookshelf",
                     help="prefix of .nodes/.nets Bookshelf files")
    place.add_argument("--scale", type=float, default=0.05,
                       help="suite benchmark scale (default 0.05)")
    place.add_argument("--alpha-ilv", type=float, default=1e-5,
                       help="interlayer-via coefficient (default 1e-5)")
    place.add_argument("--alpha-temp", type=float, default=0.0,
                       help="thermal coefficient (default 0 = off)")
    place.add_argument("--layers", type=int, default=4,
                       help="active layers (default 4)")
    place.add_argument("--workers", type=int, default=None,
                       help="execution-backend workers (default: "
                            "REPRO_WORKERS or serial; results are "
                            "bit-identical for any worker count)")
    place.add_argument("--seed", type=int, default=0)
    place.add_argument("--out", help="write <out>.pl with the result")
    place.add_argument("--maps", action="store_true",
                       help="print per-layer density/temperature maps")
    place.add_argument("--trace", action="store_true",
                       help="print the telemetry report (spans, "
                            "counters, series)")
    place.add_argument("--telemetry-out", metavar="PREFIX",
                       help="write PREFIX.trace.jsonl and "
                            "PREFIX.manifest.json")
    place.add_argument("--pipeline", metavar="SPEC.json",
                       help="run a custom stage pipeline from a JSON "
                            "spec instead of the default flow")
    place.add_argument("--checkpoint-dir", metavar="DIR",
                       help="serialize run state here after every "
                            "stage boundary")
    place.add_argument("--resume", action="store_true",
                       help="resume from the last checkpoint in "
                            "--checkpoint-dir (bit-identical to an "
                            "uninterrupted run)")
    place.add_argument("--halt-after", metavar="UNIT",
                       help="stop after the named pipeline unit "
                            "(e.g. round1/detailed), leaving the "
                            "checkpoint behind")
    place.add_argument("--profile", action="store_true",
                       help="enable the sampling profiler and resource "
                            "tracking (also via REPRO_PROFILE=1); "
                            "prints memory/hot-function sections and, "
                            "with --telemetry-out, writes "
                            "PREFIX.collapsed.txt (flamegraph-ready) "
                            "plus manifest resources/profile sections")
    place.add_argument("--profile-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="profiler sample interval (default "
                            "REPRO_PROFILE_INTERVAL or 0.01)")
    place.add_argument("--profile-alloc", action="store_true",
                       help="with --profile: also trace allocation "
                            "sites via tracemalloc (also via "
                            "REPRO_PROFILE_ALLOC=1); hooks every "
                            "allocation, expect ~8x slower runs")
    place.add_argument("--jobs-dir", metavar="DIR",
                       help="persistent service job-store root "
                            "(default: a temporary spool discarded "
                            "after the run)")
    place.add_argument("--cache-dir", metavar="DIR",
                       help="content-addressed result cache root "
                            "(default: <jobs-dir>/cache); a rerun "
                            "with identical config/spec/netlist "
                            "short-circuits to the cached result")

    sweep = sub.add_parser("sweep",
                           help="alpha_ILV tradeoff sweep (Figure 3)")
    sweep.add_argument("--circuit", default="ibm01")
    sweep.add_argument("--scale", type=float, default=0.025)
    sweep.add_argument("--layers", type=int, default=4)
    sweep.add_argument("--points", type=int, default=6,
                       help="sweep points across 5e-9..5.2e-3")
    sweep.add_argument("--workers", type=int, default=None,
                       help="run sweep points concurrently on this "
                            "many workers (default: REPRO_WORKERS or "
                            "serial; point results are identical)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--trace", action="store_true",
                       help="print the telemetry report per point")
    sweep.add_argument("--telemetry-out", metavar="PREFIX",
                       help="write PREFIX.point<N>.trace.jsonl and "
                            "PREFIX.point<N>.manifest.json per point")
    sweep.add_argument("--jobs-dir", metavar="DIR",
                       help="persistent service job-store root "
                            "(default: a temporary spool discarded "
                            "after the sweep)")
    sweep.add_argument("--cache-dir", metavar="DIR",
                       help="content-addressed result cache root "
                            "(default: <jobs-dir>/cache); duplicate "
                            "points dedupe through it")

    serve = sub.add_parser(
        "serve", help="run the placement service: a job engine with "
                      "sharded workers behind a unix-socket JSON-RPC "
                      "API")
    serve.add_argument("--jobs-dir", required=True, metavar="DIR",
                       help="job-store root (spooled job state, "
                            "checkpoints, results)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="result cache root "
                            "(default: <jobs-dir>/cache)")
    serve.add_argument("--socket", metavar="PATH",
                       help="unix socket to serve on "
                            "(default: <jobs-dir>/repro.sock)")
    serve.add_argument("--workers", type=int, default=None,
                       help="execution-backend workers (default: "
                            "REPRO_WORKERS or serial)")

    job = sub.add_parser(
        "job", help="talk to a running `repro serve` instance")
    job_sub = job.add_subparsers(dest="job_command", required=True)

    def _job_common(p: argparse.ArgumentParser,
                    with_id: bool = True) -> None:
        p.add_argument("--socket", required=True, metavar="PATH",
                       help="unix socket of the `repro serve` "
                            "instance")
        if with_id:
            p.add_argument("job_id", help="job id (job-000001 ...)")

    job_submit = job_sub.add_parser("submit",
                                    help="submit one placement job")
    _job_common(job_submit, with_id=False)
    job_src = job_submit.add_mutually_exclusive_group(required=True)
    job_src.add_argument("--circuit",
                         help="suite benchmark name (ibm01..18) or "
                              "synthetic<N> (e.g. synthetic50k)")
    job_src.add_argument("--bookshelf",
                         help="prefix of .nodes/.nets Bookshelf files")
    job_submit.add_argument("--scale", type=float, default=0.05)
    job_submit.add_argument("--alpha-ilv", type=float, default=1e-5)
    job_submit.add_argument("--alpha-temp", type=float, default=0.0)
    job_submit.add_argument("--layers", type=int, default=4)
    job_submit.add_argument("--seed", type=int, default=0)
    job_submit.add_argument("--label", help="display label")
    job_submit.add_argument("--wait", action="store_true",
                            help="block until the job reaches a "
                                 "terminal state")
    job_submit.add_argument("--timeout", type=float, default=None,
                            help="with --wait: give up after this "
                                 "many seconds")
    for verb, help_text in (("status", "print one job document"),
                            ("result", "print a done job's result"),
                            ("cancel", "cancel a job (cooperative "
                                       "for running jobs)"),
                            ("resume", "requeue a cancelled/failed "
                                       "job from its checkpoint")):
        _job_common(job_sub.add_parser(verb, help=help_text))
    _job_common(job_sub.add_parser("list", help="list all jobs"),
                with_id=False)

    dump = sub.add_parser(
        "config-dump",
        help="print the effective placement config as JSON")
    dump.add_argument("--alpha-ilv", type=float, default=1e-5)
    dump.add_argument("--alpha-temp", type=float, default=0.0)
    dump.add_argument("--layers", type=int, default=4)
    dump.add_argument("--seed", type=int, default=0)
    dump.add_argument("--out", metavar="FILE",
                      help="also write the JSON to FILE")

    obs_parser = sub.add_parser(
        "obs", help="observability tools: report, diff, history")
    obs_sub = obs_parser.add_subparsers(dest="obs_command",
                                        required=True)

    report_p = obs_sub.add_parser(
        "report", help="render a run manifest (or raw telemetry "
                       "trace snapshot) as a text report")
    report_p.add_argument("document",
                          help="manifest JSON written by "
                               "--telemetry-out")

    diff_p = obs_sub.add_parser(
        "diff", help="compare two manifests/telemetry files; exit "
                     "nonzero when any metric regressed beyond its "
                     "budget")
    diff_p.add_argument("before", help="baseline document (A)")
    diff_p.add_argument("after", help="candidate document (B)")
    diff_p.add_argument("--wall-pct", type=float, default=10.0,
                        help="allowed wall-time increase "
                             "(default 10%%)")
    diff_p.add_argument("--rss-pct", type=float, default=10.0,
                        help="allowed peak-RSS increase "
                             "(default 10%%)")
    diff_p.add_argument("--quality-pct", type=float, default=1.0,
                        help="allowed objective/WL/ILV/temperature "
                             "increase (default 1%%)")

    hist_p = obs_sub.add_parser(
        "history", help="append bench results to the committed perf "
                        "ledger and watch for regressions against a "
                        "rolling baseline")
    hist_p.add_argument("--ledger",
                        default="benchmarks/results/ledger.jsonl",
                        help="JSONL ledger path (default "
                             "benchmarks/results/ledger.jsonl)")
    hist_p.add_argument("--append", metavar="MEASUREMENT.json",
                        help="append the flat 'metrics' map of a bench "
                             "document as one ledger entry")
    hist_p.add_argument("--label",
                        help="label for the appended entry "
                             "(required with --append)")
    hist_p.add_argument("--commit",
                        help="commit hash recorded on the appended "
                             "entry")
    hist_p.add_argument("--check", action="store_true",
                        help="compare the newest entry against the "
                             "rolling-median baseline; exit nonzero "
                             "on regression")
    hist_p.add_argument("--window", type=int, default=5,
                        help="baseline window, entries (default 5)")
    hist_p.add_argument("--threshold", type=float, default=20.0,
                        help="allowed increase over the rolling "
                             "median (default 20%%)")
    hist_p.add_argument("--metric",
                        help="show this metric's trajectory instead "
                             "of the entry table")

    sub.add_parser("suite", help="list benchmark profiles (Table 1)")
    return parser


def _cmd_place(args) -> int:
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.circuit:
        netlist = cached_netlist(
            benchmark_key(args.circuit, args.scale, args.seed),
            lambda: load_benchmark(args.circuit, scale=args.scale,
                                   seed=args.seed))
    else:
        netlist = cached_netlist(
            bookshelf_key(args.bookshelf),
            lambda: bookshelf.read_bookshelf(args.bookshelf))
    config = PlacementConfig(
        alpha_ilv=args.alpha_ilv, alpha_temp=args.alpha_temp,
        num_layers=args.layers, seed=args.seed,
        num_workers=0 if args.workers is None else args.workers)
    print(f"placing {netlist.name}: {netlist.num_cells} cells, "
          f"{netlist.num_nets} nets, {args.layers} layers")
    jobs_dir = args.jobs_dir
    ephemeral = jobs_dir is None
    if ephemeral:
        jobs_dir = tempfile.mkdtemp(prefix="repro-jobs-")
    engine = PlacementEngine(jobs_dir, cache_dir=args.cache_dir,
                             workers=1)
    try:
        request = JobRequest(
            config=config.to_dict(), circuit=args.circuit,
            bookshelf=args.bookshelf, scale=args.scale,
            spec=(PipelineSpec.from_json_file(args.pipeline).to_dict()
                  if args.pipeline else None))
        job_id = engine.submit(request, netlist=netlist)
        return _place_job(args, netlist, config, engine, job_id)
    finally:
        engine.close()
        if ephemeral:
            shutil.rmtree(jobs_dir, ignore_errors=True)


def _place_job(args, netlist, config, engine, job_id) -> int:
    """Run one `place` job inline (or serve it from the result cache)
    and render its placement: report row, --trace, --profile, --maps,
    --out, --telemetry-out."""
    # --profile flips the environment opt-in *before* the recorder is
    # built (so it auto-attaches a ResourceTracker) and before any
    # worker processes fork (so they inherit the opt-in too).
    profile_env_set = False
    if args.profile and not obs.profile_enabled():
        os.environ[obs.PROFILE_ENV] = "1"
        profile_env_set = True
    alloc_env_set = False
    if args.profile_alloc and not obs.alloc_enabled():
        os.environ[obs.ALLOC_ENV] = "1"
        alloc_env_set = True
    recorder: Optional[obs.Recorder] = None
    if args.trace or args.telemetry_out or args.profile:
        recorder = obs.Recorder(sink=(
            obs.EventSink(f"{args.telemetry_out}.trace.jsonl")
            if args.telemetry_out else None))
    profiler: Optional[obs.SamplingProfiler] = None
    if args.profile and recorder is not None:
        profiler = obs.SamplingProfiler(
            tracer=recorder.tracer, interval=args.profile_interval)
    halt: Optional[Callable[[str], bool]] = (
        None if args.halt_after is None
        else lambda unit: args.halt_after in (unit, unit.partition(":")[2]))
    try:
        if profiler is not None:
            profiler.start()
        outcome = engine.run_inline(job_id, netlist=netlist,
                                    recorder=recorder,
                                    checkpoint_dir=args.checkpoint_dir,
                                    resume=args.resume, preempt=halt)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # the engine has parked the job as failed with this error; the
        # traceback shows at -vv
        obs.get_logger("cli").debug("job %s failed", job_id,
                                    exc_info=True)
        print(f"job {job_id} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if profiler is not None:
            profiler.stop()
        if recorder is not None:
            recorder.close()
        if profile_env_set:
            os.environ.pop(obs.PROFILE_ENV, None)
        if alloc_env_set:
            os.environ.pop(obs.ALLOC_ENV, None)
    if outcome is not None and outcome["state"] == "preempted":
        print(f"halted after {outcome['unit']}"
              + (f"; checkpoint at {args.checkpoint_dir}"
                 if args.checkpoint_dir else ""))
        return 0
    document = engine.status(job_id)
    if outcome is None:
        print(f"cache hit: reusing placement "
              f"{document['hashes']['cache_key'][:12]} ({job_id})")
    with np.load(engine.store.result_dir(job_id) / "placement.npz") as data:
        placement = Placement(netlist, auto_chip(netlist, config),
                              x=data["x"], y=data["y"], z=data["z"])
    report = evaluate_placement(
        placement, config.tech,
        runtime_seconds=float(document["result"]["wall_seconds"]))
    print(PlacementReport.header())
    print(report.row())
    if args.trace and outcome is not None \
            and outcome["telemetry"] is not None:
        print()
        print(obs.render(outcome["telemetry"], title=netlist.name))
    resources_doc = (recorder.finish_resources()
                     if recorder is not None else None)
    profile_doc = profiler.summary() if profiler is not None else None
    if args.profile:
        print()
        print(obs.render_resources(resources_doc))
        print()
        print(obs.render_profile(profile_doc))
    if args.maps:
        pm = PowerModel(netlist, config.tech)
        powers = pm.cell_powers(compute_net_metrics(placement))
        print()
        print(viz.layer_summary(placement, powers))
        for layer in range(config.num_layers):
            print()
            print(viz.density_map(placement, layer))
    if args.out:
        bookshelf.write_bookshelf(args.out, netlist, placement)
        print(f"wrote {args.out}.nodes/.nets/.pl")
    if args.telemetry_out:
        with open(document["manifest_path"], "r",
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["result"]["peak_temperature"] = report.max_temperature
        manifest["resources"] = resources_doc
        manifest["profile"] = profile_doc
        manifest_path = obs.write_manifest(
            f"{args.telemetry_out}.manifest.json", manifest)
        if profiler is not None:
            collapsed_path = f"{args.telemetry_out}.collapsed.txt"
            profiler.data.write_collapsed(collapsed_path)
            print(f"wrote {collapsed_path}")
        errors = obs.validate_manifest(manifest)
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            print(f"manifest failed schema validation: {manifest_path}",
                  file=sys.stderr)
            return 1
        print("wrote " + " and ".join(
            filter(None, (manifest["trace_path"], manifest_path))))
    return 0


def _cmd_sweep(args) -> int:
    alphas = np.logspace(np.log10(5e-9), np.log10(5.2e-3), args.points)
    netlist = cached_netlist(
        benchmark_key(args.circuit, args.scale, args.seed),
        lambda: load_benchmark(args.circuit, scale=args.scale,
                               seed=args.seed))
    digest = service.netlist_hash(netlist)
    jobs_dir = args.jobs_dir
    ephemeral = jobs_dir is None
    if ephemeral:
        jobs_dir = tempfile.mkdtemp(prefix="repro-jobs-")
    engine = PlacementEngine(jobs_dir, cache_dir=args.cache_dir,
                             workers=args.workers)
    try:
        job_ids = []
        for index, alpha in enumerate(alphas):
            # each point places with num_workers=1 internally —
            # sweep-level and placement-level parallelism do not nest
            config = PlacementConfig(
                alpha_ilv=float(alpha), alpha_temp=0.0,
                num_layers=args.layers, seed=args.seed, num_workers=1)
            prefix = (f"{args.telemetry_out}.point{index}"
                      if args.telemetry_out else None)
            request = JobRequest(
                config=config.to_dict(), circuit=args.circuit,
                scale=args.scale, want_telemetry=bool(args.trace),
                telemetry_prefix=prefix,
                label=f"{args.circuit} point {index}")
            job_ids.append(engine.submit(request,
                                         netlist_digest=digest))
        documents = engine.wait(job_ids)
    finally:
        engine.close()
        if ephemeral:
            shutil.rmtree(jobs_dir, ignore_errors=True)
    print(f"{'alpha_ILV':>10} {'WL (m)':>12} {'ILVs':>8} "
          f"{'ILV density':>12}")
    points = []
    failed = False
    for index, (alpha, document) in enumerate(zip(alphas, documents)):
        if document["state"] != "done":
            print(f"point {index} ({document['id']}) "
                  f"{document['state']}: {document['error']}",
                  file=sys.stderr)
            failed = True
            continue
        summary = document["result"]
        points.append((summary["wirelength"], summary["ilv"]))
        print(f"{alpha:>10.1e} {summary['wirelength']:>12.5e} "
              f"{summary['ilv']:>8} {summary['ilv_density']:>12.4e}")
        outcome = engine.outcome(document["id"])
        telemetry = outcome.get("telemetry") if outcome else None
        if args.trace and telemetry is not None:
            print()
            print(obs.render(telemetry,
                             title=f"{netlist.name} point {index}"))
        errors = outcome.get("manifest_errors", []) if outcome else []
        for error in errors:
            print(error, file=sys.stderr)
        if errors:
            print("manifest failed schema validation: "
                  f"{outcome.get('manifest_path')}", file=sys.stderr)
            failed = True
    if failed:
        return 1
    if args.telemetry_out:
        print(f"wrote {args.points} per-point manifests to "
              f"{args.telemetry_out}.point*.manifest.json")
    print()
    print(viz.tradeoff_ascii(points))
    return 0


def _cmd_serve(args) -> int:
    socket_path = args.socket or os.path.join(args.jobs_dir,
                                              "repro.sock")
    engine = PlacementEngine(args.jobs_dir, cache_dir=args.cache_dir,
                             workers=args.workers)
    engine.scheduler.start()
    server = RpcServer(engine, socket_path)
    print(f"serving jobs from {args.jobs_dir} on {socket_path}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        engine.close()
    print("server stopped")
    return 0


def _job_request_from_args(args) -> JobRequest:
    """Build the submission payload for ``repro job submit``."""
    config = PlacementConfig(
        alpha_ilv=args.alpha_ilv, alpha_temp=args.alpha_temp,
        num_layers=args.layers, seed=args.seed, num_workers=1)
    return JobRequest(config=config.to_dict(), circuit=args.circuit,
                      bookshelf=args.bookshelf, scale=args.scale,
                      label=args.label)


def _cmd_job(args) -> int:
    try:
        client = ServiceClient(args.socket)
    except OSError as exc:
        print(f"cannot connect to {args.socket}: {exc}",
              file=sys.stderr)
        return 2
    try:
        if args.job_command == "submit":
            response = client.submit(_job_request_from_args(args)
                                     .to_dict())
            job_id = response["job_id"]
            print(f"submitted {job_id}")
            if not args.wait:
                return 0
            deadline = (None if args.timeout is None
                        else time.monotonic() + args.timeout)
            while True:
                document = client.status(job_id)
                if document["state"] not in ("queued", "running"):
                    break
                if deadline is not None \
                        and time.monotonic() > deadline:
                    print(f"{job_id} still {document['state']} after "
                          f"{args.timeout:.1f}s", file=sys.stderr)
                    return 1
                time.sleep(0.2)
            print(f"{job_id} {document['state']} "
                  f"(cache {document['cache']})")
            if document["state"] == "done":
                print(json.dumps(document["result"], indent=2,
                                 sort_keys=True))
                return 0
            if document["error"]:
                print(document["error"], file=sys.stderr)
            return 1
        if args.job_command == "list":
            print(f"{'id':<12} {'state':<10} {'cache':<6} label")
            for document in client.list_jobs():
                print(f"{document['id']:<12} {document['state']:<10} "
                      f"{document['cache']:<6} {document['label']}")
            return 0
        handler = {"status": client.status, "result": client.result,
                   "cancel": client.cancel,
                   "resume": client.resume}[args.job_command]
        print(json.dumps(handler(args.job_id), indent=2,
                         sort_keys=True))
        return 0
    except RpcError as exc:
        print(f"rpc error {exc.code}: {exc.message}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _cmd_config_dump(args) -> int:
    config = PlacementConfig(alpha_ilv=args.alpha_ilv,
                             alpha_temp=args.alpha_temp,
                             num_layers=args.layers, seed=args.seed)
    document = config.to_dict()
    # Round-trip through from_dict so the dumped JSON is guaranteed to
    # be loadable (and unknown-key detection stays exercised).
    PlacementConfig.from_dict(document)
    text = json.dumps(document, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _load_json_document(path: str) -> Optional[dict]:
    """Load a JSON object from ``path``; ``None`` (with a message on
    stderr) on any load failure — obs commands exit 2, not traceback."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(document, dict):
        print(f"{path}: expected a JSON object", file=sys.stderr)
        return None
    return document


def _cmd_obs_report(args) -> int:
    document = _load_json_document(args.document)
    if document is None:
        return 2
    if "spans" in document and "kind" not in document:
        # raw Telemetry snapshot (e.g. a worker's shipped telemetry)
        telemetry = obs.Telemetry(
            spans=document.get("spans") or {},
            counters=document.get("counters") or {},
            gauges=document.get("gauges") or {},
            series=document.get("series") or {},
            wall_seconds=float(document.get("wall_seconds") or 0.0))
        print(obs.render(telemetry, title=args.document))
        return 0
    print(obs.render_manifest(document))
    return 0


def _cmd_obs_diff(args) -> int:
    from repro.obs.diffing import (DiffThresholds, diff_documents,
                                   has_regressions, render_diff)
    before = _load_json_document(args.before)
    after = _load_json_document(args.after)
    if before is None or after is None:
        return 2
    thresholds = DiffThresholds(wall_pct=args.wall_pct,
                                rss_pct=args.rss_pct,
                                quality_pct=args.quality_pct)
    deltas = diff_documents(before, after, thresholds)
    print(render_diff(deltas, label_a=os.path.basename(args.before),
                      label_b=os.path.basename(args.after)))
    return 1 if has_regressions(deltas) else 0


def _cmd_obs_history(args) -> int:
    from repro.obs import history
    try:
        entries = history.load_ledger(args.ledger)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.append:
        if not args.label:
            print("--append requires --label", file=sys.stderr)
            return 2
        measurement = _load_json_document(args.append)
        if measurement is None:
            return 2
        try:
            entry = history.entry_from_measurement(
                measurement, label=args.label, commit=args.commit)
        except ValueError as exc:
            print(f"{args.append}: {exc}", file=sys.stderr)
            return 2
        history.append_entry(args.ledger, entry)
        entries.append(entry)
        print(f"appended entry '{args.label}' "
              f"({len(entry['metrics'])} metrics) to {args.ledger}")
    if args.check:
        if len(entries) < 2:
            print(f"need at least 2 ledger entries to check a "
                  f"regression (ledger {args.ledger} has "
                  f"{len(entries)})", file=sys.stderr)
            return 2
        regressions = history.check_latest(
            entries, window=args.window,
            threshold_pct=args.threshold)
        if regressions:
            for reg in regressions:
                print(f"REGRESSION {reg.metric}: {reg.value:.6g} vs "
                      f"baseline {reg.baseline:.6g} ({reg.pct:+.1f}% > "
                      f"{args.threshold:.0f}%)")
            return 1
        print(f"no regressions in latest of {len(entries)} entries "
              f"(window {args.window}, threshold {args.threshold:.0f}%)")
        return 0
    if not args.append:
        print(history.render_history(entries, metric=args.metric))
    return 0


def _cmd_obs(args) -> int:
    if args.obs_command == "report":
        return _cmd_obs_report(args)
    if args.obs_command == "diff":
        return _cmd_obs_diff(args)
    if args.obs_command == "history":
        return _cmd_obs_history(args)
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _cmd_suite() -> int:
    print(f"{'name':<8} {'cells':>8} {'area (mm^2)':>12}")
    for profile in SUITE_PROFILES.values():
        print(f"{profile.name:<8} {profile.cells:>8} "
              f"{profile.area_mm2:>12.3f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    configure_cli_logging(args.verbose - args.quiet)
    if args.command == "place":
        return _cmd_place(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "job":
        return _cmd_job(args)
    if args.command == "config-dump":
        return _cmd_config_dump(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "suite":
        return _cmd_suite()
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; exit quietly.
        # Detach stdout so the interpreter's shutdown flush cannot
        # raise a second BrokenPipeError.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
