"""Tests for the command-line interface."""

import json
import os
import tracemalloc

import pytest

from repro.cli import main
from repro.core.pipeline import PipelineSpec
from repro.obs.profile import INTERVAL


def _stage_boundaries(manifest):
    """The stage-boundary labels of a manifest's pipeline, in order:
    every unit but the round and group ends."""
    units = PipelineSpec.from_dict(manifest["pipeline"]).units()
    labels = [unit.partition(":")[2] for unit in units]
    return [label for label in labels
            if label != "end" and not label.endswith("/end")]


class TestSuiteCommand:
    def test_lists_profiles(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "ibm01" in out
        assert "ibm18" in out
        assert "12282" in out


class TestPlaceCommand:
    def test_place_suite_circuit(self, capsys, tmp_path):
        out_prefix = str(tmp_path / "result")
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--out", out_prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "placing ibm01@0.01" in out
        assert os.path.exists(out_prefix + ".pl")
        assert os.path.exists(out_prefix + ".nodes")

    def test_place_with_maps(self, capsys):
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--maps"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cell density, layer 0" in out
        assert "area util" in out

    def test_place_bookshelf_input(self, capsys, tmp_path):
        from repro import load_benchmark
        from repro.netlist import bookshelf
        prefix = str(tmp_path / "circ")
        bookshelf.write_bookshelf(prefix, load_benchmark(
            "ibm01", scale=0.01))
        code = main(["place", "--bookshelf", prefix, "--layers", "2"])
        assert code == 0
        assert "placing circ" in capsys.readouterr().out

    def test_requires_a_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["place"])

    def test_place_with_telemetry_out_and_trace(self, capsys, tmp_path):
        from repro.obs import read_events, validate_manifest
        prefix = str(tmp_path / "run")
        code = main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2", "--trace",
                     "--telemetry-out", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- spans --" in out
        assert "-- counters --" in out
        manifest = json.load(open(prefix + ".manifest.json"))
        assert validate_manifest(manifest) == []
        assert manifest["trace_path"] == prefix + ".trace.jsonl"
        events = read_events(prefix + ".trace.jsonl")
        assert any(e["type"] == "span" and e["path"] == "place"
                   for e in events)

    def test_place_with_profile(self, capsys, tmp_path):
        from repro.obs import validate_manifest
        prefix = str(tmp_path / "run")
        code = main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2", "--profile",
                     "--telemetry-out", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- memory --" in out
        assert "-- hot functions --" in out
        manifest = json.load(open(prefix + ".manifest.json"))
        assert validate_manifest(manifest) == []
        resources = manifest["resources"]
        assert resources["peak_rss_bytes"] > 0
        assert resources["samples"] > 0
        # --profile alone keeps tracemalloc off (it costs ~8x; only
        # --profile-alloc runs it)
        assert resources["tracemalloc"]["enabled"] is False
        profile = manifest["profile"]
        assert profile["interval_seconds"] == INTERVAL
        assert profile["samples"] >= 0
        collapsed = prefix + ".collapsed.txt"
        assert os.path.exists(collapsed)
        # the collapsed file and the manifest agree on sample count
        from repro.obs import ProfileData
        with open(collapsed) as fh:
            data = ProfileData.from_collapsed(fh.read().splitlines())
        assert data.samples == profile["samples"]

    def test_place_with_profile_alloc(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        code = main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2", "--profile",
                     "--profile-alloc", "--telemetry-out", prefix])
        assert code == 0
        assert not tracemalloc.is_tracing()  # stopped after the run
        manifest = json.load(open(prefix + ".manifest.json"))
        trace = manifest["resources"]["tracemalloc"]
        assert trace["enabled"] is True
        assert trace["peak_bytes"] > 0
        assert trace["top_allocations"]

    def test_profile_alloc_alone_prints_the_memory_section(self, capsys):
        code = main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2", "--profile-alloc"])
        assert code == 0
        assert not tracemalloc.is_tracing()
        out = capsys.readouterr().out
        assert "-- memory --" in out
        assert "python heap peak" in out
        assert "top allocation sites:" in out
        assert "-- hot functions --" not in out

    def test_telemetry_out_records_rss_at_every_stage_boundary(
            self, capsys, tmp_path):
        """Without --profile a traced run's manifest still carries its
        memory: one RSS sample per stage boundary, no profile."""
        from repro.obs import validate_manifest
        prefix = str(tmp_path / "run")
        assert main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2",
                     "--telemetry-out", prefix]) == 0
        manifest = json.load(open(prefix + ".manifest.json"))
        assert validate_manifest(manifest) == []
        resources = manifest["resources"]
        assert resources is not None
        assert resources["peak_rss_bytes"] > 0
        assert resources["tracemalloc"]["enabled"] is False
        assert manifest["profile"] is None
        boundaries = _stage_boundaries(manifest)
        assert len(boundaries) > 2
        assert resources["samples"] == len(boundaries)
        assert manifest["counters"]["resources/samples"] == len(boundaries)
        sampled = sorted(name[len("resources/rss/"):]
                         for name in manifest["gauges"]
                         if name.startswith("resources/rss/"))
        assert sampled == sorted(boundaries)

    def test_profile_with_workers_reads_each_worker_peak(
            self, capsys, tmp_path, monkeypatch):
        """Under --workers 2 the run's peak is the pool workers' peak,
        read once per worker while the pool is alive; the bisection
        tasks themselves sample nothing."""
        import repro.obs.resources as resources_module
        real = resources_module.peak_rss_bytes
        worker_reads = []

        def inflated(pid=None):
            value = real(pid)
            if pid is None:
                return value
            # a worker peak no real process reaches, so it must win
            worker_reads.append((pid, value))
            return value + 2 ** 40 if value > 0 else 0

        monkeypatch.setattr(resources_module, "peak_rss_bytes", inflated)
        prefix = str(tmp_path / "run")
        assert main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.02", "--layers", "2", "--workers", "2",
                     "--profile", "--telemetry-out", prefix]) == 0
        manifest = json.load(open(prefix + ".manifest.json"))
        pids = [pid for pid, _ in worker_reads]
        assert len(pids) == len(set(pids)) == 2
        assert os.getpid() not in pids
        assert all(value > 0 for _, value in worker_reads)
        peak = max(value for _, value in worker_reads) + 2 ** 40
        assert manifest["resources"]["peak_rss_bytes"] == peak
        assert manifest["gauges"]["resources/peak_rss_bytes"] == peak
        boundaries = _stage_boundaries(manifest)
        assert manifest["resources"]["samples"] == len(boundaries)
        assert manifest["counters"]["resources/samples"] == len(boundaries)

    def test_obs_report_on_profiled_manifest(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        assert main(["-q", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2", "--profile",
                     "--telemetry-out", prefix]) == 0
        capsys.readouterr()
        assert main(["obs", "report", prefix + ".manifest.json"]) == 0
        out = capsys.readouterr().out
        assert "== run report: ibm01@0.01 ==" in out
        assert "-- stages --" in out
        assert "-- memory --" in out
        assert "-- hot functions --" in out

    def test_obs_history_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "history"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'history'" in capsys.readouterr().err

    def test_verbose_flag_emits_progress_logs(self, capsys):
        code = main(["-v", "place", "--circuit", "ibm01", "--scale",
                     "0.01", "--layers", "2"])
        assert code == 0
        err = capsys.readouterr().err
        assert "repro.core.placer" in err
        assert "objective state built" in err
        assert "round 1/" in err


class TestSweepCommand:
    def test_sweep_prints_curve(self, capsys):
        code = main(["sweep", "--circuit", "ibm01", "--scale", "0.01",
                     "--points", "3", "--layers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha_ILV" in out
        assert out.count("\n") > 5
        assert "o" in out  # the ascii tradeoff plot

    def test_sweep_per_point_manifests(self, capsys, tmp_path):
        import json

        from repro.obs import validate_manifest
        prefix = str(tmp_path / "sweep")
        code = main(["sweep", "--circuit", "ibm01", "--scale", "0.01",
                     "--points", "2", "--layers", "2",
                     "--telemetry-out", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-point manifests" in out
        for point in range(2):
            manifest = json.load(
                open(f"{prefix}.point{point}.manifest.json"))
            assert validate_manifest(manifest) == []
            assert manifest["pipeline"] is not None
            assert manifest["trace_path"] == \
                f"{prefix}.point{point}.trace.jsonl"
            assert os.path.exists(manifest["trace_path"])


class TestConfigDumpCommand:
    def test_dump_round_trips(self, capsys, tmp_path):
        import json

        from repro.core.config import PlacementConfig
        out_file = str(tmp_path / "config.json")
        code = main(["config-dump", "--alpha-temp", "1e-5",
                     "--layers", "3", "--out", out_file])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.load(open(out_file))
        assert printed == written
        config = PlacementConfig.from_dict(written)
        assert config.alpha_temp == 1e-5
        assert config.num_layers == 3


class TestPipelineFlags:
    def test_custom_pipeline_spec(self, capsys, tmp_path):
        import json
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"pipeline": [
            {"stage": "quadratic"},
            {"repeat": {"rounds": 1, "stages": [
                {"stage": "moves"}, {"stage": "cellshift"},
                {"stage": "detailed"}]}},
        ]}))
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--pipeline", str(spec_path)])
        assert code == 0
        assert "placing ibm01@0.01" in capsys.readouterr().out

    def test_manifest_records_pipeline(self, capsys, tmp_path):
        import json
        prefix = str(tmp_path / "run")
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--telemetry-out", prefix])
        assert code == 0
        manifest = json.load(open(prefix + ".manifest.json"))
        stages = [e.get("stage") for e in manifest["pipeline"]["pipeline"]]
        assert "global" in stages

    def test_halt_resume_round_trip(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        out_a = str(tmp_path / "resumed")
        out_b = str(tmp_path / "straight")
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--checkpoint-dir", ckpt,
                     "--halt-after", "round1/moves"])
        assert code == 0
        assert "halted after 1:round1/moves" in capsys.readouterr().out
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--checkpoint-dir", ckpt,
                     "--resume", "--out", out_a])
        assert code == 0
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--out", out_b])
        assert code == 0
        with open(out_a + ".pl", "rb") as fa, \
                open(out_b + ".pl", "rb") as fb:
            assert fa.read() == fb.read()

    def test_halt_after_takes_a_qualified_label(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--checkpoint-dir", str(ckpt),
                     "--halt-after", "0:global"])
        assert code == 0
        assert "halted after 0:global" in capsys.readouterr().out
        assert [p.name for p in ckpt.iterdir()] == ["checkpoint.npz"]

    def test_second_run_is_served_from_the_cache(self, capsys, tmp_path):
        import json
        jobs = str(tmp_path / "jobs")
        base = ["place", "--circuit", "ibm01", "--scale", "0.01",
                "--layers", "2", "--jobs-dir", jobs]
        cold, hit = str(tmp_path / "cold"), str(tmp_path / "hit")
        assert main(base + ["--out", cold]) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert main(base + ["--out", hit, "--telemetry-out",
                            str(tmp_path / "hit")]) == 0
        assert "cache hit" in capsys.readouterr().out
        with open(cold + ".pl", "rb") as fa, open(hit + ".pl", "rb") as fb:
            assert fa.read() == fb.read()
        manifest = json.load(open(hit + ".manifest.json"))
        assert manifest["job"]["cache"] == "hit"

    def test_resume_without_dir_is_usage_error(self, capsys):
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--resume"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_with_empty_dir_reports_checkpoint_error(
            self, capsys, tmp_path):
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--checkpoint-dir",
                     str(tmp_path / "empty"), "--resume"])
        assert code == 1
        assert "checkpoint error" in capsys.readouterr().err


class TestFinalCheck:
    """``place`` ends every run with the check its spec implies, and a
    failed check fails the job instead of escaping as a traceback."""

    @staticmethod
    def _global_only(tmp_path):
        import json
        spec_path = tmp_path / "global_only.json"
        spec_path.write_text(json.dumps({"pipeline": [{"stage": "global"}]}))
        return str(spec_path)

    @staticmethod
    def _failed_job(jobs_dir):
        from repro.service.jobstore import JobStore
        (document,) = JobStore(jobs_dir).list_jobs()
        assert document["state"] == "failed"
        return document

    def test_global_only_pipeline_passes_the_bounds_check(self, capsys,
                                                          tmp_path):
        from repro import PlacementConfig, Placer3D, load_benchmark
        from repro.core.pipeline import PipelineSpec
        from repro.netlist import bookshelf
        spec_path = self._global_only(tmp_path)
        out = str(tmp_path / "cli")
        code = main(["place", "--circuit", "synthetic5k", "--scale", "0.1",
                     "--pipeline", spec_path, "--out", out])
        assert code == 0
        netlist = load_benchmark("synthetic5k", scale=0.1, seed=0)
        result = Placer3D(netlist, PlacementConfig(seed=0),
                          spec=PipelineSpec.from_json_file(spec_path)).run()
        direct = str(tmp_path / "direct")
        bookshelf.write_bookshelf(direct, netlist, result.placement)
        with open(out + ".pl", "rb") as fa, open(direct + ".pl", "rb") as fb:
            assert fa.read() == fb.read()

    @pytest.mark.parametrize("skipped, error", [
        # refine needs a legal input and trips over the first overlap
        (("detailed",),
         r"^overlap in layer \d+ row \d+: cell c\d+ overlaps cell c\d+$"),
        # with refine out of the way, check_legal catches it
        (("detailed", "refine"),
         r"^\S+: (outside die in x|not centred on a row)"),
    ], ids=["no-detailed", "no-detailed-no-refine"])
    def test_unlegalized_default_run_fails_the_job(self, capsys, tmp_path,
                                                    monkeypatch, skipped,
                                                    error):
        import re

        from repro.core.stages import get_stage
        for name in skipped:
            monkeypatch.setattr(get_stage(name), "run",
                                lambda self, ctx: None)
        jobs = str(tmp_path / "jobs")
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--jobs-dir", jobs])
        assert code == 1
        document = self._failed_job(jobs)
        assert re.search(error, document["error"]), document["error"]
        assert (f"job {document['id']} failed: {document['error']}"
                in capsys.readouterr().err)

    def test_out_of_die_global_only_run_fails_the_job(self, capsys,
                                                      tmp_path,
                                                      monkeypatch):
        from repro.core.stages import get_stage
        stage = get_stage("global")
        place = stage.run

        def escape(self, ctx):
            place(self, ctx)
            ctx.placement.y[ctx.netlist.movable_ids[0]] = -1.0

        monkeypatch.setattr(stage, "run", escape)
        jobs = str(tmp_path / "jobs")
        code = main(["place", "--circuit", "ibm01", "--scale", "0.01",
                     "--layers", "2", "--jobs-dir", jobs,
                     "--pipeline", self._global_only(tmp_path)])
        assert code == 1
        document = self._failed_job(jobs)
        assert document["error"].endswith(": centre outside the die")
        assert (f"job {document['id']} failed: {document['error']}"
                in capsys.readouterr().err)
