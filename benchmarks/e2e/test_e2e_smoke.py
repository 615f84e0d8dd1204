"""Smoke test of the end-to-end benchmark at smoke sizes (< 60 s).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workload  # noqa: E402

#: Per-layer metrics each workload must drive above zero: every timing
#: wrapper fires, and every layer a workload is chosen to exercise
#: shows up in its traced run.
EXERCISED = {
    "ibm01-place": (
        "netlist.load_s", "objective.build_s", "global.total_s",
        "partition.solve_calls", "partition.hypergraph_s",
        "partition.contract_s", "partition.fm_calls", "parallel.map_s",
        "moves.share", "cellshift.share", "detailed.share",
        "refine.share"),
    "synth5k-global": (
        "partition.solve_calls", "partition.fm_calls", "parallel.map_s",
        "parallel.pack_share", "parallel.dispatch_bytes",
        "parallel.worker_util"),
    "ibm01-temp-sweep": (
        "partition.solve_calls", "thermal.solve_calls",
        "thermal.calibrate_share", "thermal.net_weights_share",
        "thermal.trr_weights_share", "checkpoint.saves",
        "checkpoint.save_share", "service.submit_share",
        "service.place_share", "service.cache_hits"),
}


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory: pytest.TempPathFactory) -> Dict[str, Any]:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json",
         str(out)], cwd=str(ROOT), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, "r", encoding="utf-8") as fh:
        document: Dict[str, Any] = json.load(fh)
    document["path"] = str(out)
    return document


def test_metrics_match_the_contract(smoke_set: Dict[str, Any]) -> None:
    contract = run.declared()
    assert [w["name"] for w in contract["workloads"]] \
        == list(workload.NAMES)
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert end_to_end == run.E2E_UNITS
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for summary in smoke_set["workloads"].values():
        emitted = {name: stats["unit"]
                   for name, stats in summary["end_to_end"].items()}
        assert emitted == end_to_end
        layer_units = {name: unit for name, (_, unit)
                       in summary["per_layer"].items()}
        assert {name: layer_units.get(name) for name in per_layer} \
            == per_layer


def test_no_failures(smoke_set: Dict[str, Any]) -> None:
    for name, summary in smoke_set["workloads"].items():
        assert summary["fail_rate"] == 0.0, (name, summary["errors"])
        assert summary["correct"], (name, summary["errors"])


def test_every_layer_is_exercised(smoke_set: Dict[str, Any]) -> None:
    workloads = smoke_set["workloads"]
    for name, metrics in EXERCISED.items():
        table = workloads[name]["per_layer"]
        silent = [m for m in metrics if not table[m][0] > 0]
        assert not silent, (name, silent)
    for entry in run.declared()["per_layer"]:
        metric = entry["name"]
        if metric.startswith("obs."):
            continue  # overhead and residue may read zero or below
        assert any(w["per_layer"][metric][0] > 0
                   for w in workloads.values()), metric


def test_global_digest_independent_of_workers(tmp_path: Path) -> None:
    digests = []
    for workers in (1, 2):
        bench = workload.GlobalWorkload()
        bench.workers = workers
        bench.setup(0, workload.SMOKE, tmp_path)
        outcome = bench.run(check=True)
        assert outcome.failed == 0, outcome.errors
        digests.append(outcome.digest)
    assert digests[0] == digests[1]


def test_compare_flags_changes(smoke_set: Dict[str, Any],
                               tmp_path: Path) -> None:
    same = smoke_set["path"]
    assert run.compare(same, same) == 0
    changed = json.loads(Path(same).read_text(encoding="utf-8"))
    stats = changed["workloads"]["ibm01-place"]["end_to_end"]["wall_s"]
    stats["median"] *= 2.0
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(changed), encoding="utf-8")
    assert run.compare(same, str(slower)) == 1
    changed = json.loads(Path(same).read_text(encoding="utf-8"))
    changed["workloads"]["ibm01-temp-sweep"]["digest"] = "0" * 64
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(changed), encoding="utf-8")
    assert run.compare(same, str(moved)) == 1


def test_fails_without_the_package(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "ibm01-place", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
