"""Service layer: job store, result cache, engine and RPC.

Covers the job state machine (legal/illegal transitions, atomic
document writes, schema validation), the content-addressed result
cache (hit/miss, atomic publish, publish races), the placement engine
(submit/wait, duplicate coalescing to cache hits, cancel/resume,
telemetry counters), the config-key classification audit that keeps
the cache key honest, the unix-socket JSON-RPC server/client, and
that neither a failing request nor a dead pool worker stops the
service.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro import obs
from repro.core.checkpoint import CheckpointError
from repro.core.config import PlacementConfig
from repro.netlist.bookshelf import read_bookshelf, write_bookshelf
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.net import PinRole
from repro.obs.manifest import (EXECUTION_ONLY_KEYS, HASHED_CONFIG_KEYS,
                                config_hash)
from repro.service import (JOB_STATES, TERMINAL_STATES, JobError,
                           JobRequest, JobStateError, JobStore,
                           PlacementEngine, ResultCache, RpcError,
                           RpcServer, ServiceClient, cache_key,
                           netlist_hash)
from repro.service import scheduler as scheduler_module
from repro.service.jobstore import validate_job
from repro.service.worker import execute_job, run_job


def _netlist(num_cells: int = 40, seed: int = 17):
    return generate_netlist(GeneratorSpec(
        name="svc", num_cells=num_cells,
        total_area=num_cells * 5e-12, seed=seed))


def _bookshelf(tmp_path, num_cells: int = 40, seed: int = 17) -> str:
    prefix = str(tmp_path / "svc")
    write_bookshelf(prefix, _netlist(num_cells, seed))
    return prefix


def _config(**overrides) -> PlacementConfig:
    base = dict(alpha_ilv=1e-5, num_layers=2, seed=5,
                legalization_rounds=1, refine_passes=0)
    base.update(overrides)
    return PlacementConfig(**base)


def _request(prefix: str, **overrides) -> JobRequest:
    base = dict(config=_config().to_dict(), bookshelf=prefix)
    base.update(overrides)
    return JobRequest(**base)


def _first_job_worker_dies(payload):
    """``execute_job``, except that job 1's pool worker exits outright."""
    if payload["job_dir"].endswith("job-000001"):
        os._exit(9)
    return execute_job(payload)


class TestJobRequest:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            JobRequest(config={})
        with pytest.raises(ValueError, match="exactly one"):
            JobRequest(config={}, circuit="ibm01", bookshelf="x")

    def test_round_trips_through_dict(self):
        request = JobRequest(config=_config().to_dict(),
                             circuit="ibm01", scale=0.02,
                             label="point 3", want_telemetry=True)
        assert JobRequest.from_dict(request.to_dict()) == request

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown job-request"):
            JobRequest.from_dict({"config": {}, "circuit": "ibm01",
                                  "surprise": 1})

    def test_from_dict_rejects_retired_check_key(self):
        # every run now ends with the check its spec implies
        with pytest.raises(ValueError, match=r"keys: \['check'\]"):
            JobRequest.from_dict({"config": {}, "circuit": "ibm01",
                                  "check": True})

    def test_from_dict_needs_config_object(self):
        with pytest.raises(ValueError, match="'config' object"):
            JobRequest.from_dict({"circuit": "ibm01"})

    def test_source_names_the_netlist(self):
        assert JobRequest(config={}, circuit="ibm01",
                          scale=0.02).source == "ibm01@0.02"
        assert JobRequest(config={},
                          bookshelf="/x/y").source == "/x/y"


class TestJobStore:
    def _store(self, tmp_path) -> JobStore:
        return JobStore(tmp_path / "jobs")

    def _hashes(self):
        return {"config": "sha256:c", "spec": "sha256:s",
                "netlist": "sha256:n", "cache_key": "k" * 64}

    def test_create_spools_a_valid_queued_document(self, tmp_path):
        store = self._store(tmp_path)
        request = JobRequest(config=_config().to_dict(),
                             circuit="ibm01", scale=0.01)
        document = store.create(request, self._hashes())
        assert document["id"] == "job-000001"
        assert document["state"] == "queued"
        assert document["cache"] == "miss"
        assert document["label"] == "ibm01@0.01"
        assert validate_job(document) == []
        on_disk = json.loads(
            (store.job_dir("job-000001") / "job.json").read_text())
        assert on_disk == document

    def test_ids_are_sequential(self, tmp_path):
        store = self._store(tmp_path)
        request = JobRequest(config={}, circuit="ibm01")
        ids = [store.create(request, self._hashes())["id"]
               for _ in range(3)]
        assert ids == ["job-000001", "job-000002", "job-000003"]
        assert [d["id"] for d in store.list_jobs()] == ids

    def test_load_missing_job_raises(self, tmp_path):
        with pytest.raises(JobError, match="no such job"):
            self._store(tmp_path).load("job-999999")

    def test_update_refuses_state_changes(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.create(JobRequest(config={}, circuit="ibm01"),
                              self._hashes())["id"]
        with pytest.raises(JobStateError, match="transition"):
            store.update(job_id, state="done")

    def test_legal_lifecycle_transitions(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.create(JobRequest(config={}, circuit="ibm01"),
                              self._hashes())["id"]
        assert store.transition(job_id, "running")["state"] == "running"
        done = store.transition(
            job_id, "done",
            result={"objective": 1.0, "wirelength": 2.0, "ilv": 3,
                    "ilv_density": 0.1, "wall_seconds": 0.5})
        assert done["state"] == "done"
        assert validate_job(done) == []

    @pytest.mark.parametrize("from_state,to_state", [
        ("queued", "failed"),    # only running jobs fail
        ("done", "queued"),      # done is forever
        ("done", "running"),
        ("queued", "queued"),
    ])
    def test_illegal_transitions_refused(self, tmp_path, from_state,
                                         to_state):
        store = self._store(tmp_path)
        job_id = store.create(JobRequest(config={}, circuit="ibm01"),
                              self._hashes())["id"]
        if from_state == "done":
            store.transition(job_id, "running")
            store.transition(job_id, "done")
        with pytest.raises(JobStateError, match="illegal transition"):
            store.transition(job_id, to_state)

    def test_expect_guard(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.create(JobRequest(config={}, circuit="ibm01"),
                              self._hashes())["id"]
        with pytest.raises(JobStateError, match="expected one of"):
            store.transition(job_id, "done", expect=("running",))

    def test_unknown_state_refused(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.create(JobRequest(config={}, circuit="ibm01"),
                              self._hashes())["id"]
        with pytest.raises(JobStateError, match="unknown job state"):
            store.transition(job_id, "paused")

    def test_cancel_and_requeue_round_trip(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.create(JobRequest(config={}, circuit="ibm01"),
                              self._hashes())["id"]
        files = sorted(p.name for p in store.job_dir(job_id).iterdir())
        document = store.request_cancel(job_id)
        assert document["cancel_requested"] is True
        assert store.load(job_id)["cancel_requested"] is True
        # the request is the document's field: no file is created
        assert sorted(p.name for p in store.job_dir(job_id).iterdir()) \
            == files == ["job.json"]
        store.transition(job_id, "cancelled")
        requeued = store.requeue(job_id)
        assert requeued["state"] == "queued"
        assert requeued["cancel_requested"] is False
        assert store.load(job_id)["cancel_requested"] is False

    def test_requeue_refused_for_done_job(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.create(JobRequest(config={}, circuit="ibm01"),
                              self._hashes())["id"]
        store.transition(job_id, "running")
        store.transition(job_id, "done")
        with pytest.raises(JobStateError):
            store.requeue(job_id)

    def test_invalid_document_refused_on_write(self, tmp_path):
        store = self._store(tmp_path)
        job_id = store.create(JobRequest(config={}, circuit="ibm01"),
                              self._hashes())["id"]
        with pytest.raises(JobError, match="invalid job document"):
            store.update(job_id, preemptions="three")

    def test_state_constants_are_consistent(self):
        assert set(TERMINAL_STATES) <= set(JOB_STATES)
        assert "queued" not in TERMINAL_STATES
        assert "running" not in TERMINAL_STATES


class TestResultCache:
    def _summary(self):
        return {"objective": 1.5, "wirelength": 2.0, "ilv": 4,
                "ilv_density": 0.2, "wall_seconds": 0.1}

    def _placement(self, tmp_path, value=1.0):
        path = tmp_path / "placement.npz"
        np.savez_compressed(path, x=np.full(3, value),
                            y=np.zeros(3), z=np.zeros(3, dtype=int))
        return path

    def test_fetch_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path / "cache").fetch("ab" * 32) is None

    def test_store_then_fetch_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" * 32
        stored = cache.store(key, self._placement(tmp_path),
                             {"kind": "m"}, self._summary())
        fetched = cache.fetch(key)
        assert fetched is not None
        assert fetched.summary == self._summary()
        assert fetched.placement_path == stored.placement_path
        arrays = np.load(fetched.placement_path)
        assert np.array_equal(arrays["x"], np.full(3, 1.0))
        assert json.loads(
            fetched.manifest_path.read_text()) == {"kind": "m"}
        assert cache.keys() == [key]

    def test_publish_race_keeps_incumbent(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "cd" * 32
        cache.store(key, self._placement(tmp_path, 1.0), {},
                    self._summary())
        cache.store(key, self._placement(tmp_path, 9.0), {},
                    dict(self._summary(), objective=9.9))
        entry = cache.fetch(key)
        assert entry is not None
        assert entry.summary["objective"] == 1.5
        arrays = np.load(entry.placement_path)
        assert np.array_equal(arrays["x"], np.full(3, 1.0))

    def test_fan_out_layout(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ef" * 32
        assert cache.entry_dir(key) == tmp_path / "cache" / "ef" / key


class TestCacheKeying:
    def test_cache_key_depends_on_every_component(self):
        base = cache_key("c", "s", "n")
        assert base == cache_key("c", "s", "n")
        assert len(base) == 64
        assert base != cache_key("C", "s", "n")
        assert base != cache_key("c", "S", "n")
        assert base != cache_key("c", "s", "N")

    def test_netlist_hash_is_stable_across_loads(self, tmp_path):
        prefix = _bookshelf(tmp_path)
        first = netlist_hash(read_bookshelf(prefix))
        second = netlist_hash(read_bookshelf(prefix))
        assert first == second

    def test_netlist_hash_sees_structure(self):
        assert netlist_hash(_netlist(seed=17)) \
            != netlist_hash(_netlist(seed=18))
        assert netlist_hash(_netlist(num_cells=40)) \
            != netlist_hash(_netlist(num_cells=41))

    def test_netlist_hash_follows_added_cells_and_nets(self):
        netlist = _netlist()
        first = netlist_hash(netlist)
        assert netlist_hash(netlist) == first  # cached on the netlist
        netlist.add_cell("extra", 1e-6, 1e-6)
        second = netlist_hash(netlist)
        assert second != first
        netlist.add_net("extra_net", [(0, PinRole.DRIVER),
                                      (1, PinRole.SINK)])
        assert netlist_hash(netlist) != second


class TestConfigKeyClassification:
    """Satellite audit: the cache key is only as honest as the
    hashed-vs-execution-only split of ``PlacementConfig``."""

    def test_every_field_is_classified_exactly_once(self):
        fields = {f.name for f in dataclasses.fields(PlacementConfig)}
        hashed = set(HASHED_CONFIG_KEYS)
        execution = set(EXECUTION_ONLY_KEYS)
        assert hashed | execution == fields, (
            "every PlacementConfig field must be classified as hashed "
            "or execution-only in repro.obs.manifest")
        assert hashed & execution == set(), (
            "a config key cannot be both hashed and execution-only")

    def test_unclassified_key_fails_loudly(self):
        document_keys = set(_config().to_dict())
        assert document_keys == set(HASHED_CONFIG_KEYS) \
            | set(EXECUTION_ONLY_KEYS)

        @dataclasses.dataclass
        class Widened(PlacementConfig):
            """A config with a field the classification never saw."""

            mystery_knob: int = 3

        with pytest.raises(ValueError, match="mystery_knob"):
            config_hash(Widened())

    def test_execution_only_keys_do_not_move_the_hash(self):
        base = _config()
        assert config_hash(base) == config_hash(
            _config(num_workers=4))
        assert config_hash(base) != config_hash(_config(seed=6))


class TestPlacementEngine:
    def test_duplicate_submission_is_a_cache_hit(self, tmp_path):
        prefix = _bookshelf(tmp_path)
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            first = engine.submit(_request(prefix))
            second = engine.submit(_request(prefix))
            documents = engine.wait([first, second], timeout=120)
            assert [d["state"] for d in documents] == ["done", "done"]
            assert documents[0]["cache"] == "miss"
            assert documents[1]["cache"] == "hit"
            assert documents[0]["result"] == documents[1]["result"]
            counters = engine.counters()
            assert counters["jobs/submitted"] == 2
            assert counters["cache/miss"] == 1
            assert counters["cache/hit"] == 1
            assert counters["jobs/done"] == 1
            for document in documents:
                assert validate_job(document) == []
                result_dir = engine.store.result_dir(document["id"])
                assert (result_dir / "placement.npz").is_file()
                manifest = json.loads(
                    (result_dir / "manifest.json").read_text())
                assert manifest["job"]["id"] == document["id"]
                assert manifest["job"]["cache"] == document["cache"]
            first_npz = np.load(
                engine.store.result_dir(first) / "placement.npz")
            second_npz = np.load(
                engine.store.result_dir(second) / "placement.npz")
            for axis in ("x", "y", "z"):
                assert np.array_equal(first_npz[axis],
                                      second_npz[axis])

    def test_cache_survives_engine_restart(self, tmp_path):
        prefix = _bookshelf(tmp_path)
        cache_dir = tmp_path / "shared-cache"
        with PlacementEngine(tmp_path / "jobs-a",
                             cache_dir=cache_dir,
                             workers=1) as engine:
            engine.wait([engine.submit(_request(prefix))], timeout=120)
        with PlacementEngine(tmp_path / "jobs-b",
                             cache_dir=cache_dir,
                             workers=1) as engine:
            job_id = engine.submit(_request(prefix))
            assert engine.try_cache(job_id) is not None
            document = engine.status(job_id)
            assert document["state"] == "done"
            assert document["cache"] == "hit"
            assert engine.counters()["cache/hit"] == 1

    def test_different_config_misses(self, tmp_path):
        prefix = _bookshelf(tmp_path)
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            a = engine.submit(_request(prefix))
            b = engine.submit(_request(
                prefix, config=_config(seed=6).to_dict()))
            documents = engine.wait([a, b], timeout=240)
            assert [d["cache"] for d in documents] == ["miss", "miss"]
            assert engine.counters()["cache/miss"] == 2

    def test_cancel_queued_then_resume(self, tmp_path):
        prefix = _bookshelf(tmp_path)
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            job_id = engine.submit(_request(prefix))
            cancelled = engine.cancel(job_id)
            assert cancelled["state"] == "cancelled"
            assert engine.resume(job_id)["state"] == "queued"
            (document,) = engine.wait([job_id], timeout=120)
            assert document["state"] == "done"

    def test_wait_timeout_names_the_stragglers(self, tmp_path):
        # a duplicate submission coalesces behind its in-flight leader,
        # so one pump leaves both jobs active: a zero deadline expires
        prefix = _bookshelf(tmp_path)
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            first = engine.submit(_request(prefix))
            second = engine.submit(_request(prefix))
            with pytest.raises(TimeoutError, match=second):
                engine.wait([first, second], timeout=0.0)
            documents = engine.wait([first, second], timeout=120)
            assert [d["state"] for d in documents] == ["done", "done"]

    def test_failed_job_parks_with_error(self, tmp_path):
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            job_id = engine.submit(
                JobRequest(config=_config().to_dict(),
                           bookshelf=str(tmp_path / "missing")),
                netlist_digest="sha256:doesnotmatter")
            (document,) = engine.wait([job_id], timeout=60)
            assert document["state"] == "failed"
            assert document["error"]
            assert engine.counters()["jobs/failed"] == 1

    def test_a_dead_pool_worker_does_not_wedge_the_engine(
            self, tmp_path, monkeypatch):
        """Job 1's worker dies and breaks the pool: the jobs in flight
        fail, and job 3 runs on a fresh pool instead of staying
        ``running`` with ``wait`` raising."""
        monkeypatch.setattr(scheduler_module, "execute_job",
                            _first_job_worker_dies)
        prefix = _bookshelf(tmp_path)
        with PlacementEngine(tmp_path / "jobs", workers=2) as engine:
            jobs = [engine.submit(_request(
                        prefix, config=_config(seed=seed).to_dict()))
                    for seed in (1, 2, 3)]
            assert jobs[0] == "job-000001"
            first, second, third = engine.wait(jobs, timeout=120)
        assert first["state"] == "failed"
        assert "terminated abruptly" in first["error"]
        assert second["state"] in ("failed", "done")
        assert third["state"] == "done"


class TestSchedulerLiveness:
    """The scheduler's in-flight table is the one record of a job in
    flight: ``liveness()`` labels each job there until a pump harvests
    it."""

    @staticmethod
    def _failing(engine: PlacementEngine, tmp_path) -> str:
        # the digest spares submit() loading the missing netlist
        return engine.submit(
            JobRequest(config=_config().to_dict(),
                       bookshelf=str(tmp_path / "missing")),
            netlist_digest="sha256:doesnotmatter")

    def test_pump_runs_then_next_pump_harvests(self, tmp_path):
        prefix = _bookshelf(tmp_path)
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            scheduler = engine.scheduler
            good = engine.submit(_request(prefix))
            bad = self._failing(engine, tmp_path)
            assert scheduler.liveness() == {}
            # the serial backend runs one job inline per pump, after
            # harvesting the one before it
            scheduler.pump()
            assert scheduler.liveness() == {good: "done"}
            scheduler.pump()
            assert scheduler.liveness() == {bad: "failed"}
            scheduler.pump()
            assert scheduler.liveness() == {}
            assert engine.status(good)["state"] == "done"
            assert engine.status(bad)["state"] == "failed"

    def test_unresolved_future_stays_in_flight(self, tmp_path,
                                               monkeypatch):
        """A job whose future has not resolved, as on a pool backend,
        reads ``running`` and stays in flight across pumps; once it
        resolves, the next pump harvests it."""
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            scheduler = engine.scheduler
            pending: Future = Future()
            monkeypatch.setattr(engine.backend, "submit",
                                lambda fn, task: pending)
            job_id = self._failing(engine, tmp_path)
            assert scheduler.pump() == 1
            assert scheduler.liveness() == {job_id: "running"}
            assert scheduler.pump() == 1
            assert scheduler.liveness() == {job_id: "running"}
            pending.set_exception(RuntimeError("worker lost"))
            assert scheduler.liveness() == {job_id: "failed"}
            assert scheduler.pump() == 0
            assert scheduler.liveness() == {}
            document = engine.status(job_id)
            assert document["state"] == "failed"
            assert "worker lost" in document["error"]

    def test_refused_dispatch_settles_the_job_failed(self, tmp_path,
                                                     monkeypatch):
        """A job whose dispatch raises is settled ``failed`` at once,
        not left ``running`` with the error leaving the pump."""
        def refuse(fn, task):
            raise RuntimeError("backend refused")

        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            monkeypatch.setattr(engine.backend, "submit", refuse)
            job_id = self._failing(engine, tmp_path)
            (document,) = engine.wait([job_id], timeout=60)
            assert document["state"] == "failed"
            assert "backend refused" in document["error"]
            assert engine.scheduler.liveness() == {}

    def test_liveness_does_not_wait_for_the_lock(self, tmp_path):
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            scheduler = engine.scheduler
            bad = self._failing(engine, tmp_path)
            scheduler.pump()
            held = threading.Event()
            release = threading.Event()

            def hold_lock():
                with scheduler._lock:
                    held.set()
                    release.wait(60)

            holder = threading.Thread(target=hold_lock)
            holder.start()
            try:
                assert held.wait(60)
                seen = {}
                reader = threading.Thread(
                    target=lambda: seen.update(scheduler.liveness()))
                reader.start()
                reader.join(10)
                assert not reader.is_alive()
                assert seen == {bad: "failed"}
            finally:
                release.set()
                holder.join()

    def test_liveness_survives_a_racing_dispatch(self, tmp_path):
        """Reads racing a thread that dispatches into and harvests from
        the in-flight table, with the switch interval shortened so the
        threads interleave often, never see the table change size."""
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            scheduler = engine.scheduler
            finished = engine.backend.submit(int, 1)
            stop = threading.Event()

            def churn():
                i = 0
                while not stop.is_set():
                    i += 1
                    scheduler._inflight[f"job-{i}"] = ("key", finished)
                    scheduler._inflight.pop(f"job-{i - 4}", None)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            writer = threading.Thread(target=churn)
            writer.start()
            try:
                deadline = time.monotonic() + 3.0
                reads = 0
                while reads < 50_000 and time.monotonic() < deadline:
                    assert set(scheduler.liveness().values()) <= {"done"}
                    reads += 1
            finally:
                stop.set()
                writer.join(10)
                sys.setswitchinterval(interval)
            assert not writer.is_alive()


class TestSchedulerKeepsServing:
    """One job's bookkeeping failure never stops the scheduler: the
    pump thread keeps serving the other jobs."""

    def test_failed_cache_publish_leaves_the_job_done(
            self, tmp_path, monkeypatch, caplog):
        caplog.set_level(logging.WARNING, logger="repro")
        prefix = _bookshelf(tmp_path)
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            real_store = engine.cache.store
            calls = []

            def store_fails_once(*args, **kwargs):
                calls.append(args)
                if len(calls) == 1:
                    raise OSError(28, "No space left on device")
                return real_store(*args, **kwargs)

            monkeypatch.setattr(engine.cache, "store", store_fails_once)
            jobs = [engine.submit(_request(
                        prefix, config=_config(seed=seed).to_dict()))
                    for seed in (1, 2)]
            engine.scheduler.start()
            documents = engine.wait(jobs, timeout=60)
            assert [d["state"] for d in documents] == ["done", "done"]
            first, second = (engine.cache.fetch(d["hashes"]["cache_key"])
                             for d in documents)
        assert first is None and second is not None
        assert f"job {jobs[0]} is done but its result was not cached" \
            in caplog.text

    def test_unreadable_document_is_skipped(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="repro")
        prefix = _bookshelf(tmp_path)
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            broken, good = (engine.submit(_request(
                                prefix, config=_config(seed=seed).to_dict()))
                            for seed in (1, 2))
            path = engine.store.job_dir(broken) / "job.json"
            path.write_bytes(path.read_bytes()[:40])
            (document,) = engine.wait([good], timeout=60)
            assert document["state"] == "done"
            engine.scheduler.pump()
            with pytest.raises(JobError, match="invalid JSON"):
                engine.status(broken)
        skips = [r.getMessage() for r in caplog.records
                 if "skipping job" in r.getMessage()]
        assert len(skips) == 1 and broken in skips[0]

    def test_pump_thread_survives_a_raising_pump(self, tmp_path,
                                                 monkeypatch, caplog):
        caplog.set_level(logging.WARNING, logger="repro")
        prefix = _bookshelf(tmp_path)
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            scheduler = engine.scheduler
            real_dispatch = scheduler._dispatch
            calls = []

            def dispatch_fails_once():
                calls.append(True)
                if len(calls) == 1:
                    raise RuntimeError("injected pump failure")
                return real_dispatch()

            monkeypatch.setattr(scheduler, "_dispatch",
                                dispatch_fails_once)
            job_id = engine.submit(_request(prefix))
            scheduler.start()
            (document,) = engine.wait([job_id], timeout=60)
        assert document["state"] == "done"
        assert len(calls) > 1
        assert "scheduler pump failed: RuntimeError: injected pump " \
            "failure" in caplog.text


class TestRunJob:
    def test_failed_run_closes_its_recorder(self, tmp_path):
        """A run that raises still flushes and closes its trace."""
        trace_path = tmp_path / "run.trace.jsonl"
        recorder = obs.Recorder(sink=obs.EventSink(trace_path))
        document = {"id": "job-000001", "preemptions": 0,
                    "request": _request(str(tmp_path / "svc")).to_dict()}
        with pytest.raises(CheckpointError, match="no checkpoint"):
            run_job(document, tmp_path / "result", _netlist(), recorder,
                    checkpoint_dir=tmp_path / "empty", resume=True)
        # the span event reaches the file only once the sink is closed
        assert any(event["type"] == "span" and event["path"] == "place"
                   for event in obs.read_events(str(trace_path)))
        assert not (tmp_path / "result").exists()


class TestRpcDispatch:
    def _engine(self, tmp_path) -> PlacementEngine:
        return PlacementEngine(tmp_path / "jobs", workers=1)

    def test_unknown_method(self, tmp_path):
        with self._engine(tmp_path) as engine:
            server = RpcServer(engine, tmp_path / "s.sock")
            with pytest.raises(RpcError) as excinfo:
                server.handle("frobnicate", {})
            assert excinfo.value.code == -32601

    def test_missing_job_id_is_invalid_params(self, tmp_path):
        with self._engine(tmp_path) as engine:
            server = RpcServer(engine, tmp_path / "s.sock")
            with pytest.raises(RpcError) as excinfo:
                server.handle("status", {})
            assert excinfo.value.code == -32602

    def test_job_errors_map_to_job_error_code(self, tmp_path):
        with self._engine(tmp_path) as engine:
            server = RpcServer(engine, tmp_path / "s.sock")
            response = server._respond(
                b'{"id": 3, "method": "status", '
                b'"params": {"job_id": "job-999999"}}')
            assert response["id"] == 3
            assert response["error"]["code"] == -32000

    @pytest.mark.parametrize("error", [
        JobStateError("job-000001 is 'done', expected one of "
                      "['cancelled', 'failed']"),
        JobError("no such job: job-000009"),
        ValueError("unknown job-request keys: ['bogus']"),
        FileNotFoundError("svc.nodes"),
        RuntimeError("worker lost"),
    ], ids=lambda error: type(error).__name__)
    def test_any_method_exception_is_a_job_error_response(
            self, tmp_path, monkeypatch, error):
        """Whatever a method raises is answered with code -32000 and
        its message; it never leaves ``_respond``."""
        def fail(method, params):
            raise error

        with self._engine(tmp_path) as engine:
            server = RpcServer(engine, tmp_path / "s.sock")
            monkeypatch.setattr(server, "handle", fail)
            response = server._respond(
                b'{"id": 4, "method": "status", "params": {}}')
            assert response == {"id": 4, "error": {
                "code": -32000, "message": str(error)}}

    def test_handle_lets_job_errors_propagate(self, tmp_path):
        """``handle`` maps nothing: the wire loop is the one place a
        job error becomes a response."""
        with self._engine(tmp_path) as engine:
            server = RpcServer(engine, tmp_path / "s.sock")
            with pytest.raises(JobError, match="no such job"):
                server.handle("status", {"job_id": "job-999999"})

    def test_resume_of_a_queued_job_is_answered(self, tmp_path):
        with self._engine(tmp_path) as engine:
            server = RpcServer(engine, tmp_path / "s.sock")
            job_id = TestSchedulerLiveness._failing(engine, tmp_path)
            response = server._respond(json.dumps({
                "id": 5, "method": "resume",
                "params": {"job_id": job_id}}).encode("utf-8"))
            assert response["id"] == 5
            assert response["error"]["code"] == -32000
            assert f"{job_id} is 'queued'" in response["error"]["message"]
            assert engine.status(job_id)["state"] == "queued"

    def test_result_of_unfinished_job_errors(self, tmp_path):
        prefix = _bookshelf(tmp_path)
        with self._engine(tmp_path) as engine:
            server = RpcServer(engine, tmp_path / "s.sock")
            job_id = engine.submit(_request(prefix))
            with pytest.raises(RpcError, match="not done"):
                server.handle("result", {"job_id": job_id})

    def test_malformed_wire_requests(self, tmp_path):
        with self._engine(tmp_path) as engine:
            server = RpcServer(engine, tmp_path / "s.sock")
            response = server._respond(b"{broken")
            assert response["error"]["code"] == -32600
            response = server._respond(b'["not", "an", "object"]')
            assert response["error"]["code"] == -32600
            response = server._respond(b'{"id": 7, "params": {}}')
            assert response["id"] == 7
            assert response["error"]["code"] == -32600
            response = server._respond(
                b'{"id": 8, "method": "list", "params": [1]}')
            assert response["error"]["code"] == -32602

    def test_stats_reports_counters_and_liveness(self, tmp_path):
        with self._engine(tmp_path) as engine:
            server = RpcServer(engine, tmp_path / "s.sock")
            stats = server.handle("stats", {})
            assert "counters" in stats
            assert stats["liveness"] == {}

    def test_stats_reports_a_job_until_harvested(self, tmp_path):
        prefix = _bookshelf(tmp_path)
        with self._engine(tmp_path) as engine:
            server = RpcServer(engine, tmp_path / "s.sock")
            job_id = engine.submit(_request(prefix))
            engine.scheduler.pump()
            stats = server.handle("stats", {})
            assert stats["liveness"] == {job_id: "done"}
            engine.scheduler.pump()
            assert server.handle("stats", {})["liveness"] == {}


class TestRpcSocket:
    def test_end_to_end_over_unix_socket(self, tmp_path):
        prefix = _bookshelf(tmp_path)
        socket_path = tmp_path / "repro.sock"
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            engine.scheduler.start()
            server = RpcServer(engine, socket_path)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            deadline = time.monotonic() + 30
            while not socket_path.exists():
                assert time.monotonic() < deadline, "socket never bound"
                time.sleep(0.02)
            try:
                with ServiceClient(socket_path) as client:
                    # a server that died would leave a read hanging
                    client._sock.settimeout(30)
                    request = _request(prefix).to_dict()
                    first = client.submit(request)["job_id"]
                    second = client.submit(request)["job_id"]
                    deadline = time.monotonic() + 120
                    while True:
                        states = {client.status(j)["state"]
                                  for j in (first, second)}
                        if states <= {"done", "failed", "cancelled"}:
                            break
                        assert time.monotonic() < deadline
                        time.sleep(0.05)
                    assert client.status(first)["cache"] == "miss"
                    assert client.status(second)["cache"] == "hit"
                    result = client.result(second)
                    assert result["cache"] == "hit"
                    assert result["result"]["wirelength"] > 0
                    jobs = client.list_jobs()
                    assert [j["id"] for j in jobs] == [first, second]
                    # a request whose handler raises is answered, and
                    # the connection's next call still is too
                    missing = _request(str(tmp_path / "missing"))
                    with pytest.raises(RpcError) as excinfo:
                        client.submit(missing.to_dict())
                    assert excinfo.value.code == -32000
                    assert "missing.nodes" in excinfo.value.message
                    stats = client.stats()
                    assert stats["counters"]["cache/hit"] == 1
                    with pytest.raises(RpcError) as excinfo:
                        client.call("status", job_id=42)
                    assert excinfo.value.code == -32602
                    assert client.shutdown() == {"ok": True}
            finally:
                thread.join(timeout=30)
            assert not thread.is_alive()
            assert not socket_path.exists()
