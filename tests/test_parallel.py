"""The parallel execution backend and its determinism contract.

Pins the three load-bearing guarantees of :mod:`repro.parallel`:

- worker-count resolution (explicit request > ``REPRO_WORKERS`` env >
  serial default) and backend selection;
- path-keyed seed derivation: random-access equivalence with the
  standard ``SeedSequence.spawn`` protocol, stream distinctness, and
  independence from execution order;
- bit-identical results: the full placement pipeline produces
  byte-identical ``.pl`` output for ``num_workers`` in {1, 2, 4}, and
  merged telemetry counters match the serial run's.

Plus the telemetry-merge primitives the dispatch loop leans on
(``SpanStats.from_dict``/``merge``, ``Recorder.merge``) and the
region path-id propagation in the global placer.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core.config import PlacementConfig
from repro.core.globalplace import GlobalPlacer, Region
from repro.core.placer import Placer3D
from repro.netlist.bookshelf import write_pl
from repro.netlist.generator import GeneratorSpec, generate_netlist
from repro.netlist.placement import Placement
from repro.obs import Recorder, Telemetry
from repro.obs.manifest import config_hash
from repro.obs.trace import SpanStats
from repro.parallel import (ProcessPoolBackend, SerialBackend,
                            WORKERS_ENV, create_backend, resolve_workers,
                            task_seed, task_seed_sequence)
from repro.partition.subproblem import (BisectionTask, solve,
                                        solve_packed_recorded,
                                        solve_recorded)
from tests.conftest import make_chip


def _square(x: int) -> int:
    return x * x


def _fail(x: int) -> int:
    raise ValueError(f"task {x} failed")


def _is_tracing(x: int) -> bool:
    return tracemalloc.is_tracing()


def _pid(x: int) -> int:
    return os.getpid()


def _exit_worker(x: int) -> int:
    """A task whose worker exits outright, breaking its pool."""
    os._exit(9)


def _worker_dies_on_fourth_task(ref):
    """``solve_packed_recorded``, except that the worker handed a
    level's fourth task exits outright."""
    if ref.index == 3:
        os._exit(9)
    return solve_packed_recorded(ref)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1

    def test_explicit_request_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_fills_auto(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(0) == 5
        assert resolve_workers(None) == 5

    def test_env_zero_means_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve_workers(None) == 1

    def test_negative_request_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_workers(None)
        monkeypatch.setenv(WORKERS_ENV, "-2")
        with pytest.raises(ValueError):
            resolve_workers(None)


class TestBackends:
    def test_create_backend_selects_by_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        serial = create_backend(1)
        assert isinstance(serial, SerialBackend)
        auto = create_backend(0)
        assert isinstance(auto, SerialBackend)
        pool = create_backend(2)
        try:
            assert isinstance(pool, ProcessPoolBackend)
            assert pool.num_workers == 2
        finally:
            pool.close()

    def test_start_forks_the_pool_now(self):
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("only forked workers inherit the dispatcher")
        SerialBackend().start()  # nothing to start
        with create_backend(2) as backend:
            before = len(multiprocessing.active_children())
            backend.start()
            assert len(multiprocessing.active_children()) == before + 2

    def test_pool_workers_run_without_tracemalloc(self):
        """A worker forked from a traced dispatcher stops the
        tracemalloc it inherited: its tasks would be traced and
        reported nowhere."""
        tracemalloc.start()
        try:
            with create_backend(2) as backend:
                assert backend.map(_is_tracing, range(4)) == [False] * 4
            assert tracemalloc.is_tracing()  # the dispatcher's own
        finally:
            tracemalloc.stop()

    def test_worker_pids_lists_the_live_pool(self):
        assert SerialBackend().worker_pids() == []
        with create_backend(2) as backend:
            ran_on = set(backend.map(_pid, range(8)))
            pids = backend.worker_pids()
            assert len(pids) == 2 and pids == sorted(pids)
            assert ran_on <= set(pids)
            assert os.getpid() not in pids
        assert backend.worker_pids() == []

    def test_pool_requires_two_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(1)

    def test_serial_map_preserves_order(self):
        backend = SerialBackend()
        assert backend.map(_square, [3, 1, 2]) == [9, 1, 4]
        assert backend.map(_square, []) == []

    def test_pool_map_preserves_order(self):
        with create_backend(2) as backend:
            assert backend.map(_square, list(range(20))) == \
                [i * i for i in range(20)]
            assert backend.map(_square, []) == []

    def test_serial_submit_returns_done_future(self):
        backend = SerialBackend()
        future = backend.submit(_square, 7)
        assert isinstance(future, Future)
        assert future.done()
        assert future.result() == 49
        failed = backend.submit(_fail, 3)
        assert failed.done()
        assert isinstance(failed.exception(), ValueError)
        with pytest.raises(ValueError, match="task 3 failed"):
            failed.result()

    def test_pool_submit_resolves_to_worker_value(self):
        with create_backend(2) as backend:
            future = backend.submit(_square, 12)
            assert isinstance(future, Future)
            assert future.result(timeout=60) == 144
            failed = backend.submit(_fail, 5)
            assert isinstance(failed.exception(timeout=60), ValueError)

    def test_pool_submit_keeps_a_healthy_pool(self):
        with create_backend(2) as backend:
            executor = backend._executor
            assert backend.submit(_square, 3).result(timeout=60) == 9
            assert isinstance(backend.submit(_fail, 1).exception(
                timeout=60), ValueError)
            assert backend.submit(_square, 4).result(timeout=60) == 16
            assert backend._executor is executor

    def test_pool_submit_replaces_a_pool_a_dead_worker_broke(self):
        """The dead worker's task fails; the next submit runs on a
        fresh pool instead of raising ``BrokenProcessPool``."""
        with create_backend(2) as backend:
            dead = backend.submit(_exit_worker, 0)
            assert isinstance(dead.exception(timeout=60),
                              BrokenProcessPool)
            assert backend.submit(_square, 6).result(timeout=60) == 36
            assert backend.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_pool_map_lets_a_broken_pool_stand(self):
        """``map`` never rebuilds: a level dispatched after a worker
        died fails rather than running on a fresh pool."""
        with create_backend(2) as backend:
            dead = backend.submit(_exit_worker, 0)
            dead.exception(timeout=60)
            with pytest.raises(BrokenProcessPool):
                backend.map(_square, [1, 2, 3])

    def test_config_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            PlacementConfig(num_workers=-1)


class TestSeedDerivation:
    def test_matches_spawn_protocol(self):
        parent = np.random.SeedSequence(42)
        children = parent.spawn(8)
        for key in range(8):
            derived = task_seed_sequence(42, key)
            assert np.array_equal(derived.generate_state(4),
                                  children[key].generate_state(4))

    def test_random_access_is_order_independent(self):
        forward = [task_seed(7, k) for k in range(6)]
        backward = [task_seed(7, k) for k in reversed(range(6))]
        assert forward == list(reversed(backward))

    def test_streams_distinct_across_keys_and_seeds(self):
        seeds = {task_seed(0, k) for k in range(64)}
        assert len(seeds) == 64
        assert task_seed(0, 1) != task_seed(1, 1)

    def test_seed_fits_31_bits(self):
        for key in range(32):
            assert 0 <= task_seed(123, key) < 2 ** 31

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            task_seed_sequence(0, -1)


class TestSpanStatsMerge:
    @staticmethod
    def _tree() -> SpanStats:
        root = SpanStats("")
        a = root.child("global")
        a.calls, a.seconds = 2, 1.5
        b = a.child("bisect")
        b.calls, b.seconds = 4, 0.75
        return root

    def test_dict_round_trip(self):
        root = self._tree()
        clone = SpanStats.from_dict(root.as_dict())
        assert clone.as_dict() == root.as_dict()

    def test_merge_adds_at_matching_paths(self):
        left, right = self._tree(), self._tree()
        left.merge(right)
        assert left.child("global").calls == 4
        assert left.child("global").seconds == pytest.approx(3.0)
        assert left.child("global").child("bisect").calls == 8

    def test_merge_grafts_unique_subtrees(self):
        left = self._tree()
        right = SpanStats("")
        extra = right.child("weights")
        extra.calls, extra.seconds = 1, 0.25
        left.merge(right)
        assert left.child("weights").calls == 1
        assert list(left.children) == ["global", "weights"]

    def test_merge_order_independent_totals(self):
        a, b = self._tree(), self._tree()
        ab = self._tree()
        ab.merge(a)
        ab.merge(b)
        ba = self._tree()
        ba.merge(b)
        ba.merge(a)
        assert ab.as_dict() == ba.as_dict()


class TestRecorderMerge:
    def test_counters_add_and_series_extend(self):
        child = Recorder()
        child.count("fm/passes", 3)
        child.gauge("depth", 2.0)
        child.record("probe", value=1.0)
        parent = Recorder()
        parent.count("fm/passes", 1)
        parent.merge(child.snapshot())
        assert parent.counters["fm/passes"] == 4
        assert parent.gauges["depth"] == 2.0
        assert len(parent.series["probe"]) == 1

    def test_spans_anchor_under_open_span(self):
        child = Recorder()
        with child.span("solve"):
            pass
        parent = Recorder()
        with parent.span("level0/bisect"):
            parent.merge(child.snapshot())
        node = parent.tracer.root.child("level0").child("bisect")
        assert node.child("solve").calls == 1

    def test_merge_into_null_recorder_is_noop(self):
        from repro.obs import NULL_RECORDER
        NULL_RECORDER.merge(Telemetry(counters={"x": 1.0}))
        assert NULL_RECORDER.counters == {}


class TestBisectionTask:
    @staticmethod
    def _task(seed: int = 5) -> BisectionTask:
        nets = [[0, 1], [1, 2, 3], [2, 4]]
        return BisectionTask.from_nets(
            nets, [1.0, 2.0, 1.0], [1.0] * 5, [-1] * 5,
            target=0.5, tolerance=0.1, num_starts=2, max_passes=3,
            seed=seed, key=9)

    def test_round_trips_through_csr(self):
        task = self._task()
        graph = task.hypergraph()
        assert graph.num_vertices == 5
        assert graph.nets == [[0, 1], [1, 2, 3], [2, 4]]

    def test_handles_zero_nets(self):
        task = BisectionTask.from_nets(
            [], [], [1.0, 1.0], [-1, -1], target=0.5, tolerance=0.1,
            num_starts=1, max_passes=1, seed=0)
        assert task.num_nets == 0
        assert task.hypergraph().nets == []
        parts = solve(task)
        assert sorted(np.asarray(parts).tolist()) == [0, 1]

    def test_solve_is_pure(self):
        a = solve(self._task())
        b = solve(self._task())
        assert np.array_equal(a, b)

    def test_solve_recorded_matches_solve(self):
        parts_plain = solve(self._task())
        parts_rec, telemetry = solve_recorded(self._task())
        assert np.array_equal(parts_plain, parts_rec)
        assert isinstance(telemetry, Telemetry)
        assert telemetry.counters  # fm emits pass counters


class TestRegionPaths:
    @staticmethod
    def _placer(num_layers: int = 2) -> GlobalPlacer:
        spec = GeneratorSpec(name="paths", num_cells=40,
                             total_area=40 * 5e-12, seed=2)
        netlist = generate_netlist(spec)
        config = PlacementConfig(alpha_ilv=1e-5, num_layers=num_layers,
                                 seed=1)
        chip = make_chip(netlist, num_layers=num_layers)
        placement = Placement.at_center(netlist, chip)
        return GlobalPlacer(placement, config)

    def test_root_defaults_to_one(self):
        region = Region(np.zeros(1, dtype=np.int64), 0.0, 1.0, 0.0, 1.0,
                        0, 0)
        assert region.path == 1

    def test_children_get_heap_numbering(self):
        placer = self._placer()
        root = Region(np.arange(40, dtype=np.int64), 0.0,
                      placer.chip.width, 0.0, placer.chip.height, 0,
                      placer.chip.num_layers - 1, path=3)
        children = placer._split(root)
        assert [c.path for c in children] == [6, 7]

    def test_task_seed_derives_from_path(self):
        placer = self._placer()
        width, height = placer.chip.width, placer.chip.height
        layers = placer.chip.num_layers - 1
        cells = np.arange(40, dtype=np.int64)
        a, b = placer._build_tasks(
            [Region(cells, 0.0, width, 0.0, height, 0, layers, path=5),
             Region(cells, 0.0, width, 0.0, height, 0, layers, path=6)])
        assert a.seed == task_seed(placer.config.seed, 5)
        assert b.seed == task_seed(placer.config.seed, 6)
        assert a.seed != b.seed


def _run_pipeline(tmp_path, workers: int, tag: str):
    spec = GeneratorSpec(name="par", num_cells=120,
                         total_area=120 * 5e-12, seed=9)
    netlist = generate_netlist(spec)
    config = PlacementConfig(alpha_ilv=1e-5, num_layers=3, seed=4,
                             num_workers=workers)
    recorder = Recorder()
    result = Placer3D(netlist, config, recorder=recorder).run()
    path = tmp_path / f"{tag}.pl"
    write_pl(str(path), netlist, result.placement)
    return path.read_bytes(), result, recorder.snapshot()


class TestSerialParallelBitIdentity:
    def test_worker_counts_are_bit_identical(self, tmp_path):
        serial_pl, serial_res, serial_tele = _run_pipeline(
            tmp_path, 1, "w1")
        for workers in (2, 4):
            pl, res, tele = _run_pipeline(tmp_path, workers,
                                          f"w{workers}")
            assert pl == serial_pl, f"workers={workers} diverged"
            assert np.array_equal(res.placement.x,
                                  serial_res.placement.x)
            assert np.array_equal(res.placement.y,
                                  serial_res.placement.y)
            assert np.array_equal(res.placement.z,
                                  serial_res.placement.z)
            # telemetry totals are distribution-independent
            for key in ("global/bisections", "fm/passes"):
                assert tele.counters.get(key) == \
                    serial_tele.counters.get(key), key

    @pytest.mark.parametrize("workers", [1, 2])
    def test_level_spans(self, monkeypatch, tmp_path, workers):
        """Each level records the dispatcher's task build as
        ``level{N}/terminals`` and the solve it dispatches as
        ``level{N}/bisect``; solver telemetry merges under the latter."""
        from repro.obs import get_recorder
        from repro.partition import subproblem

        solve_task = subproblem.solve

        def traced_solve(task):
            with get_recorder().span("solve"):
                return solve_task(task)

        # patched before the pool forks, so workers solve through it
        monkeypatch.setattr(subproblem, "solve", traced_solve)
        _, _, telemetry = _run_pipeline(tmp_path, workers, "spans")
        spans = {s["name"]: s for s in telemetry.spans["children"]}
        stage = {s["name"]: s for s in spans["place"]["children"]}
        levels = [s for s in stage["global"]["children"]
                  if s["name"].startswith("level")]
        assert len(levels) >= 5
        solved = 0
        for level in levels:
            parts = {s["name"]: s for s in level["children"]}
            assert list(parts) == ["terminals", "bisect"]
            assert parts["terminals"]["calls"] == 1
            assert not parts["terminals"].get("children")
            [solve_span] = parts["bisect"]["children"]
            assert solve_span["name"] == "solve"
            solved += solve_span["calls"]
        assert solved == telemetry.counters["global/bisections"]

    def test_num_workers_excluded_from_config_hash(self):
        one = PlacementConfig(seed=4, num_workers=1)
        four = PlacementConfig(seed=4, num_workers=4)
        assert config_hash(one) == config_hash(four)
        other_seed = PlacementConfig(seed=5, num_workers=1)
        assert config_hash(one) != config_hash(other_seed)


class TestSharedMemoryDispatch:
    """The zero-copy batch arena: pack/resolve round-trip, payload
    size, instrumentation counters, and the no-shm fallback."""

    @staticmethod
    def _task(seed: int = 5) -> BisectionTask:
        nets = [[0, 1], [1, 2, 3], [2, 4]]
        return BisectionTask.from_nets(
            nets, [1.0, 2.0, 1.0], [1.0] * 5, [-1] * 5,
            target=0.5, tolerance=0.1, num_starts=2, max_passes=3,
            seed=seed, key=9)

    def test_pack_resolve_round_trip(self):
        from repro.parallel import SharedArrayPool, resolve_packed
        if not pytest.importorskip("repro.parallel.shared").available():
            pytest.skip("shared memory unavailable")
        pool = SharedArrayPool()
        try:
            tasks = [self._task(seed) for seed in (1, 2, 3)]
            batch = pool.pack([vars(t) for t in tasks])
            try:
                for ref, task in zip(batch.refs, tasks):
                    back = BisectionTask(**resolve_packed(ref))
                    assert back.key == task.key
                    assert back.seed == task.seed
                    np.testing.assert_array_equal(back.net_ptr,
                                                  task.net_ptr)
                    np.testing.assert_array_equal(back.pin_vertices,
                                                  task.pin_vertices)
                    np.testing.assert_array_equal(back.fixed,
                                                  task.fixed)
            finally:
                batch.close()
        finally:
            pool.close()

    def test_resolved_views_are_read_only(self):
        from repro.parallel import SharedArrayPool, resolve_packed
        if not pytest.importorskip("repro.parallel.shared").available():
            pytest.skip("shared memory unavailable")
        pool = SharedArrayPool()
        try:
            batch = pool.pack([vars(self._task())])
            try:
                payload = resolve_packed(batch.refs[0])
                with pytest.raises(ValueError):
                    payload["net_ptr"][0] = 99
            finally:
                batch.close()
        finally:
            pool.close()

    def test_packed_task_keeps_every_field(self):
        """A task packed as its own fields comes back field for field:
        scalars with their types, arrays with their dtypes."""
        from repro.parallel import SharedArrayPool, resolve_packed
        if not pytest.importorskip("repro.parallel.shared").available():
            pytest.skip("shared memory unavailable")
        task = self._task()
        pool = SharedArrayPool()
        try:
            batch = pool.pack([vars(task)])
            try:
                back = BisectionTask(**resolve_packed(batch.refs[0]))
                for field in dataclasses.fields(BisectionTask):
                    want = getattr(task, field.name)
                    got = getattr(back, field.name)
                    if isinstance(want, np.ndarray):
                        assert got.dtype == want.dtype
                        np.testing.assert_array_equal(got, want)
                    else:
                        assert type(got) is type(want)
                        assert got == want
            finally:
                batch.close()
        finally:
            pool.close()

    def test_arrays_lie_in_declared_field_order(self):
        """The segment's array region holds a task's arrays in the
        order the dataclass declares them, net_ptr first and fixed
        last."""
        from repro.parallel import SharedArrayPool, resolve_packed
        if not pytest.importorskip("repro.parallel.shared").available():
            pytest.skip("shared memory unavailable")
        task = self._task()
        arrays = [name for name, value in vars(task).items()
                  if isinstance(value, np.ndarray)]
        assert arrays == ["net_ptr", "pin_vertices", "net_weights",
                          "vertex_weights", "fixed"]
        pool = SharedArrayPool()
        try:
            batch = pool.pack([vars(task)])
            try:
                payload = resolve_packed(batch.refs[0])
                addresses = [payload[name].__array_interface__["data"][0]
                             for name in arrays]
                assert addresses == sorted(addresses)
                assert len(set(addresses)) == len(addresses)
            finally:
                batch.close()
        finally:
            pool.close()

    def test_refs_are_tiny_vs_pickled_tasks(self):
        from repro.parallel import SharedArrayPool
        if not pytest.importorskip("repro.parallel.shared").available():
            pytest.skip("shared memory unavailable")
        pool = SharedArrayPool()
        try:
            tasks = [self._task(seed) for seed in range(8)]
            batch = pool.pack([vars(t) for t in tasks])
            try:
                # A ref is ~94 B regardless of task size; the toy
                # tasks here are small, so gate on the absolute
                # descriptor size (the 10x ratio on realistic tasks
                # is gated by the dispatch-counter test and bench).
                for ref in batch.refs:
                    assert len(pickle.dumps(ref)) < 150
                dense_bytes = sum(len(pickle.dumps(t)) for t in tasks)
                assert sum(len(pickle.dumps(r))
                           for r in batch.refs) < dense_bytes
            finally:
                batch.close()
        finally:
            pool.close()

    def test_solve_packed_matches_solve(self):
        from repro.parallel import SharedArrayPool
        from repro.partition.subproblem import solve_packed_recorded
        if not pytest.importorskip("repro.parallel.shared").available():
            pytest.skip("shared memory unavailable")
        task = self._task()
        expected = solve(self._task())
        pool = SharedArrayPool()
        try:
            batch = pool.pack([vars(task)])
            try:
                parts, _telemetry = solve_packed_recorded(batch.refs[0])
            finally:
                batch.close()
        finally:
            pool.close()
        np.testing.assert_array_equal(parts, expected)

    def test_dispatch_counters_recorded(self, tmp_path, monkeypatch):
        """The shared-memory path ships at least 10x fewer bytes than
        dense dispatch would pickle for the same tasks (pickled here,
        by the test: the run counts array bytes instead)."""
        built = []
        real_build = GlobalPlacer._build_tasks

        def recording_build(placer, pending):
            tasks = real_build(placer, pending)
            built.extend(tasks)
            return tasks

        monkeypatch.setattr(GlobalPlacer, "_build_tasks", recording_build)
        spec = GeneratorSpec(name="shm", num_cells=96,
                             total_area=96 * 4e-12, seed=11)
        netlist = generate_netlist(spec)
        config = PlacementConfig(num_workers=2, num_layers=2)
        recorder = Recorder()
        Placer3D(netlist, config, recorder=recorder).run()
        counters = recorder.counters
        assert counters.get("parallel/tasks", 0) > 0
        assert counters.get("parallel/dispatch_bytes", 0) > 0
        assert counters.get("parallel/dense_task_bytes", 0) > 0
        from repro.parallel import shared_memory_available
        if shared_memory_available():
            assert counters["parallel/dispatch_bytes"] * 10 \
                <= sum(len(pickle.dumps(t)) for t in built)

    def test_dispatch_accounting_pickles_no_task(self, monkeypatch):
        """A traced 2-worker global run counts the tasks' array bytes
        without pickling a :class:`BisectionTask`: the shared-memory
        path ships refs, and ``parallel/dense_task_bytes`` is the sum
        of the built tasks' array ``nbytes``."""
        from repro.core.pipeline import PipelineSpec, StageEntry
        from repro.parallel import shared

        if not shared.available():
            pytest.skip("shared memory unavailable")
        built = []
        real_build = GlobalPlacer._build_tasks

        def recording_build(placer, pending):
            tasks = real_build(placer, pending)
            built.extend(tasks)
            return tasks

        pickled = []
        real_reduce = BisectionTask.__reduce_ex__

        def counting_reduce(task, protocol):
            pickled.append(task.key)
            return real_reduce(task, protocol)

        monkeypatch.setattr(GlobalPlacer, "_build_tasks", recording_build)
        monkeypatch.setattr(BisectionTask, "__reduce_ex__",
                            counting_reduce)
        netlist = generate_netlist(GeneratorSpec(
            name="shm-bytes", num_cells=400, total_area=400 * 4e-12,
            seed=11))
        recorder = Recorder()
        Placer3D(netlist, PlacementConfig(num_workers=2, num_layers=2),
                 recorder=recorder,
                 spec=PipelineSpec(entries=(StageEntry("global"),))
                 ).run()
        assert pickled == []
        counters = recorder.counters
        assert counters["parallel/tasks"] == len(built) > 0
        assert counters["parallel/dense_task_bytes"] == sum(
            t.net_ptr.nbytes + t.pin_vertices.nbytes + t.net_weights.nbytes
            + t.vertex_weights.nbytes + t.fixed.nbytes for t in built)

    def test_failed_segment_creation_falls_back_to_dense(self,
                                                         monkeypatch):
        """When no segment can be created, the probe says so and a
        2-worker run pickles dense tasks, with the serial result."""
        import errno
        from types import SimpleNamespace

        from repro.parallel import shared

        def run(num_workers):
            netlist = generate_netlist(GeneratorSpec(
                name="shm-fail", num_cells=96, total_area=96 * 4e-12,
                seed=11))
            recorder = Recorder()
            result = Placer3D(netlist, PlacementConfig(
                num_workers=num_workers, num_layers=2),
                recorder=recorder).run()
            return result.placement, recorder.counters

        serial, _ = run(1)
        unpatched, _ = run(2)
        real = shared.shared_memory.SharedMemory

        def no_create(name=None, create=False, size=0):
            if create:
                raise OSError(errno.ENOSPC, "injected: no space for shm")
            return real(name=name, create=create, size=size)

        monkeypatch.setattr(shared, "shared_memory",
                            SimpleNamespace(SharedMemory=no_create))
        monkeypatch.setattr(shared, "_available", None)
        dense, counters = run(2)
        assert shared._available is False
        assert counters["parallel/tasks"] > 0
        assert counters["parallel/dispatch_bytes"] \
            == counters["parallel/dense_task_bytes"] > 0
        for other in (serial, unpatched):
            for a, b in ((dense.x, other.x), (dense.y, other.y),
                         (dense.z, other.z)):
                assert np.array_equal(a, b)

    def test_segment_failing_mid_run_fails_and_leaks_nothing(
            self, monkeypatch):
        """A segment creation that fails after the probe passed, here
        the run's third (probe, level 0, level 1), fails the run with
        its ``OSError``, and no segment the run created stays behind
        in ``/dev/shm``."""
        import errno
        import os
        from types import SimpleNamespace

        from repro.parallel import shared

        if not os.path.isdir("/dev/shm") or not shared.available():
            pytest.skip("no /dev/shm to inspect")
        real = shared.shared_memory.SharedMemory
        created = []

        def third_fails(name=None, create=False, size=0):
            if create and len(created) == 2:
                raise OSError(errno.ENOSPC, "injected: no space for shm")
            segment = real(name=name, create=create, size=size)
            if create:
                created.append(segment.name)
            return segment

        monkeypatch.setattr(shared, "shared_memory",
                            SimpleNamespace(SharedMemory=third_fails))
        monkeypatch.setattr(shared, "_available", None)
        netlist = generate_netlist(GeneratorSpec(
            name="shm-mid-run", num_cells=400, total_area=400 * 4e-12,
            seed=11))
        with pytest.raises(OSError) as failure:
            Placer3D(netlist, PlacementConfig(num_workers=2,
                                              num_layers=2)).run()
        assert failure.value.errno == errno.ENOSPC
        assert len(created) == 2
        assert [name for name in created
                if os.path.exists(os.path.join("/dev/shm", name))] == []

    def test_worker_dying_mid_level_fails_and_leaks_nothing(
            self, monkeypatch):
        """A global-only run whose pool worker exits on a level's
        fourth task raises ``BrokenProcessPool`` (the run's own
        backend is never rebuilt), and no segment the run created
        stays behind in ``/dev/shm``."""
        from types import SimpleNamespace

        from repro.core import globalplace
        from repro.core.pipeline import PipelineSpec, StageEntry
        from repro.parallel import shared

        if not os.path.isdir("/dev/shm") or not shared.available():
            pytest.skip("no /dev/shm to inspect")
        real = shared.shared_memory.SharedMemory
        created = []

        def recording(name=None, create=False, size=0):
            segment = real(name=name, create=create, size=size)
            if create:
                created.append(segment.name)
            return segment

        monkeypatch.setattr(shared, "shared_memory",
                            SimpleNamespace(SharedMemory=recording))
        monkeypatch.setattr(shared, "_available", None)
        monkeypatch.setattr(globalplace, "solve_packed_recorded",
                            _worker_dies_on_fourth_task)
        netlist = generate_netlist(GeneratorSpec(
            name="worker-dies", num_cells=400, total_area=400 * 4e-12,
            seed=11))
        with pytest.raises(BrokenProcessPool):
            Placer3D(netlist, PlacementConfig(num_workers=2,
                                              num_layers=2),
                     spec=PipelineSpec(entries=(StageEntry("global"),))
                     ).run()
        # the probe's segment, then levels 0, 1 and the level whose
        # fourth task killed its worker
        assert len(created) == 4
        assert [name for name in created
                if os.path.exists(os.path.join("/dev/shm", name))] == []

    def test_serial_run_records_no_dispatch(self):
        spec = GeneratorSpec(name="shm-serial", num_cells=96,
                             total_area=96 * 4e-12, seed=11)
        netlist = generate_netlist(spec)
        config = PlacementConfig(num_workers=1, num_layers=2)
        recorder = Recorder()
        Placer3D(netlist, config, recorder=recorder).run()
        assert "parallel/dispatch_bytes" not in recorder.counters
