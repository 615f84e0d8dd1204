"""Unit tests for the source-keyed netlist cache."""

import sys
import threading

import numpy as np
import pytest

from repro.core.config import PlacementConfig
from repro.core.placer import Placer3D
from repro.netlist import bookshelf
from repro.netlist.cache import (NetlistCache, benchmark_key,
                                 bookshelf_key, cached_netlist,
                                 clear_netlist_cache,
                                 netlist_cache_stats)
from repro.netlist.csr import signal_csr
from repro.netlist.suite import load_benchmark
from repro.service import JobRequest, PlacementEngine, netlist_hash
from repro.service import worker


@pytest.fixture(autouse=True)
def _fresh_global_cache():
    clear_netlist_cache()
    yield
    clear_netlist_cache()


def _loader():
    return load_benchmark("ibm01", scale=0.01, seed=0)


class TestNetlistCache:
    def test_miss_then_hit(self):
        cache = NetlistCache()
        key = benchmark_key("ibm01", 0.01, 0)
        first = cache.get_or_load(key, _loader)
        second = cache.get_or_load(key, _loader)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert first is second  # the loaded object itself, shared

    def test_lru_eviction(self):
        cache = NetlistCache(capacity=2)
        for seed in (0, 1, 2):
            cache.get_or_load(benchmark_key("ibm01", 0.01, seed),
                              lambda s=seed: load_benchmark(
                                  "ibm01", scale=0.01, seed=s))
        assert cache.stats()["entries"] == 2
        # seed 0 was evicted: loading it again misses
        cache.get_or_load(benchmark_key("ibm01", 0.01, 0), _loader)
        assert cache.stats()["misses"] == 4

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            NetlistCache(capacity=0)


class TestKeys:
    def test_benchmark_key_distinguishes_sources(self):
        assert benchmark_key("ibm01", 0.05, 0) \
            != benchmark_key("ibm01", 0.05, 1)
        assert benchmark_key("ibm01", 0.05, 0) \
            != benchmark_key("ibm01", 0.1, 0)
        assert benchmark_key("ibm01", 0.05, 0) \
            != benchmark_key("ibm02", 0.05, 0)

    def test_bookshelf_key_tracks_file_stat(self, tmp_path):
        nl = load_benchmark("ibm01", scale=0.01, seed=0)
        prefix = str(tmp_path / "circ")
        bookshelf.write_bookshelf(prefix, nl)
        before = bookshelf_key(prefix)
        assert before == bookshelf_key(prefix)
        with open(prefix + ".nodes", "a") as fh:
            fh.write("\n")
        assert bookshelf_key(prefix) != before

    def test_bookshelf_key_absent_files(self, tmp_path):
        key = bookshelf_key(str(tmp_path / "nope"))
        assert "absent" in key


class TestGlobalCache:
    def test_cached_netlist_round_trip(self):
        key = benchmark_key("ibm01", 0.01, 0)
        first = cached_netlist(key, _loader)
        second = cached_netlist(key, _loader)
        assert first is second
        assert netlist_cache_stats()["hits"] == 1


class TestSharedAcrossJobs:
    def test_thermal_jobs_share_one_netlist(self, tmp_path, monkeypatch):
        prefix = str(tmp_path / "ibm01")
        bookshelf.write_bookshelf(
            prefix, load_benchmark("ibm01", scale=0.02, seed=0))
        served = []

        def recording(key, loader):
            netlist = cached_netlist(key, loader)
            served.append(netlist)
            return netlist

        monkeypatch.setattr(worker, "cached_netlist", recording)
        configs = [PlacementConfig(alpha_temp=1e-5, seed=seed)
                   for seed in (1, 2)]
        with PlacementEngine(tmp_path / "jobs", workers=1) as engine:
            job_ids = [engine.submit(JobRequest(config=c.to_dict(),
                                                bookshelf=prefix))
                       for c in configs]
            docs = engine.wait(job_ids, timeout=300)
            results = [engine.store.result_dir(j) / "placement.npz"
                       for j in job_ids]
        assert [d["state"] for d in docs] == ["done", "done"]
        # submit hashes and execution both load through the cache
        assert len(served) == 4
        assert all(netlist is served[0] for netlist in served)
        for path, config in zip(results, configs):
            alone = Placer3D(bookshelf.read_bookshelf(prefix),
                             config).run().placement
            with np.load(path) as data:
                np.testing.assert_array_equal(data["x"], alone.x)
                np.testing.assert_array_equal(data["y"], alone.y)
                np.testing.assert_array_equal(data["z"], alone.z)

    def test_concurrent_first_use_builds_equal_derived_data(self):
        # the service's RPC and scheduler threads can reach one shared
        # netlist at once; its lazily derived data must still be right
        shared = load_benchmark("ibm01", scale=0.02, seed=0)
        fresh = load_benchmark("ibm01", scale=0.02, seed=0)
        expected = (netlist_hash(fresh), signal_csr(fresh).pin_key.tolist())
        results = []
        barrier = threading.Barrier(8)

        def use():
            barrier.wait(timeout=30)
            results.append((netlist_hash(shared),
                            signal_csr(shared).pin_key.tolist()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=use) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8
