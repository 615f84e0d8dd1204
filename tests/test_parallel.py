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
from repro.partition.subproblem import BisectionTask, solve, solve_recorded
from tests.conftest import make_chip


def _square(x: int) -> int:
    return x * x


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
        region = Region([0], 0.0, 1.0, 0.0, 1.0, 0, 0)
        assert region.path == 1

    def test_children_get_heap_numbering(self):
        placer = self._placer()
        root = Region(list(range(40)), 0.0, placer.chip.width, 0.0,
                      placer.chip.height, 0, placer.chip.num_layers - 1,
                      path=3)
        children = placer._split(root)
        assert [c.path for c in children] == [6, 7]

    def test_task_seed_derives_from_path(self):
        placer = self._placer()
        width, height = placer.chip.width, placer.chip.height
        layers = placer.chip.num_layers - 1
        cells = list(range(40))
        a = placer._build_task(Region(cells, 0.0, width, 0.0, height,
                                      0, layers, path=5))
        b = placer._build_task(Region(cells, 0.0, width, 0.0, height,
                                      0, layers, path=6))
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
        from repro.partition.subproblem import (task_from_payload,
                                                task_payload)
        if not pytest.importorskip("repro.parallel.shared").available():
            pytest.skip("shared memory unavailable")
        pool = SharedArrayPool()
        try:
            tasks = [self._task(seed) for seed in (1, 2, 3)]
            batch = pool.pack([task_payload(t) for t in tasks])
            try:
                for ref, task in zip(batch.refs, tasks):
                    back = task_from_payload(resolve_packed(ref))
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
        from repro.partition.subproblem import task_payload
        if not pytest.importorskip("repro.parallel.shared").available():
            pytest.skip("shared memory unavailable")
        pool = SharedArrayPool()
        try:
            batch = pool.pack([task_payload(self._task())])
            try:
                payload = resolve_packed(batch.refs[0])
                with pytest.raises(ValueError):
                    payload["net_ptr"][0] = 99
            finally:
                batch.close()
        finally:
            pool.close()

    def test_refs_are_tiny_vs_pickled_tasks(self):
        import pickle

        from repro.parallel import SharedArrayPool
        from repro.partition.subproblem import task_payload
        if not pytest.importorskip("repro.parallel.shared").available():
            pytest.skip("shared memory unavailable")
        pool = SharedArrayPool()
        try:
            tasks = [self._task(seed) for seed in range(8)]
            batch = pool.pack([task_payload(t) for t in tasks])
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
        from repro.partition.subproblem import (solve_packed_recorded,
                                                task_payload)
        if not pytest.importorskip("repro.parallel.shared").available():
            pytest.skip("shared memory unavailable")
        task = self._task()
        expected = solve(self._task())
        pool = SharedArrayPool()
        try:
            batch = pool.pack([task_payload(task)])
            try:
                parts, _telemetry = solve_packed_recorded(batch.refs[0])
            finally:
                batch.close()
        finally:
            pool.close()
        np.testing.assert_array_equal(parts, expected)

    def test_dispatch_counters_recorded(self, tmp_path):
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
                <= counters["parallel/dense_task_bytes"]

    def test_serial_run_records_no_dispatch(self):
        spec = GeneratorSpec(name="shm-serial", num_cells=96,
                             total_area=96 * 4e-12, seed=11)
        netlist = generate_netlist(spec)
        config = PlacementConfig(num_workers=1, num_layers=2)
        recorder = Recorder()
        Placer3D(netlist, config, recorder=recorder).run()
        assert "parallel/dispatch_bytes" not in recorder.counters
