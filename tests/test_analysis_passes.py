"""Per-pass fixtures for the interprocedural analyzer.

Each pass gets a true-positive fixture and a clean twin, mirroring the
``test_lint_rules.py`` style.  Fixture trees are written under
``tmp_path/repro`` so the passes' hardwired roots
(``repro.core.pipeline.PlacementPipeline.run``, ``repro.parallel``)
resolve against the fixture instead of the shipped tree.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analysis import analyze, load_program
from tools.analysis.findings import Finding
from tools.analysis.passes import PASS_REGISTRY, build_context


def write_package(root: Path, files: Dict[str, str]) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def run_pass(root: Path, name: str) -> List[Finding]:
    program = load_program([str(root)])
    ctx = build_context(program)
    return PASS_REGISTRY[name]().run(ctx)


def rules_of(findings: List[Finding]) -> List[str]:
    return sorted(f.rule for f in findings)


@pytest.fixture()
def repro_root(tmp_path: Path) -> Path:
    return tmp_path / "repro"


def pipeline_package(extra: Dict[str, str],
                     run_body: str) -> Dict[str, str]:
    """A minimal tree with the determinism root calling into ``extra``."""
    files = {
        "__init__.py": "",
        "core/__init__.py": "",
        "core/pipeline.py": f"""
            from repro.core.work import step

            class PlacementPipeline:
                def run(self) -> None:
                    {run_body}
        """,
    }
    files.update(extra)
    return files


class TestDeterminismPass:
    def test_unseeded_rng_flagged(self, repro_root):
        write_package(repro_root, pipeline_package({
            "core/work.py": """
                import numpy as np

                def step() -> None:
                    rng = np.random.default_rng()
                    rng.random()
            """,
        }, "step()"))
        assert "RPA101" in rules_of(run_pass(repro_root,
                                             "determinism"))

    def test_seeded_rng_clean(self, repro_root):
        write_package(repro_root, pipeline_package({
            "core/work.py": """
                import numpy as np

                def step() -> None:
                    rng = np.random.default_rng(7)
                    rng.random()
            """,
        }, "step()"))
        assert rules_of(run_pass(repro_root, "determinism")) == []

    def test_entropy_source_flagged_transitively(self, repro_root):
        write_package(repro_root, pipeline_package({
            "core/work.py": """
                from repro.core.deep import stamp

                def step() -> None:
                    stamp()
            """,
            "core/deep.py": """
                import uuid

                def stamp() -> str:
                    return str(uuid.uuid4())
            """,
        }, "step()"))
        findings = run_pass(repro_root, "determinism")
        assert "RPA102" in rules_of(findings)
        assert any(f.symbol == "repro.core.deep.stamp"
                   for f in findings)

    def test_unreachable_entropy_not_flagged(self, repro_root):
        write_package(repro_root, pipeline_package({
            "core/work.py": """
                def step() -> None:
                    pass
            """,
            "core/orphan.py": """
                import uuid

                def stamp() -> str:
                    return str(uuid.uuid4())
            """,
        }, "step()"))
        assert rules_of(run_pass(repro_root, "determinism")) == []

    def test_set_iteration_flagged_and_sorted_clean(self, repro_root):
        write_package(repro_root, pipeline_package({
            "core/work.py": """
                def step() -> None:
                    acc = 0.0
                    items = set()
                    items.add(1)
                    for i in items:
                        acc += i
            """,
        }, "step()"))
        assert rules_of(run_pass(repro_root,
                                 "determinism")) == ["RPA103"]
        write_package(repro_root, {
            "core/work.py": textwrap.dedent("""
                def step() -> None:
                    acc = 0.0
                    items = set()
                    items.add(1)
                    for i in sorted(items):
                        acc += i
            """),
        })
        assert rules_of(run_pass(repro_root, "determinism")) == []

    def test_dict_keys_is_note_only(self, repro_root):
        write_package(repro_root, pipeline_package({
            "core/work.py": """
                def step() -> None:
                    d = {"a": 1}
                    out = list(d.keys())
            """,
        }, "step()"))
        findings = run_pass(repro_root, "determinism")
        assert rules_of(findings) == ["RPA104"]
        assert all(not f.gating for f in findings)


def hot_path_package(kernel_body: str,
                     extra: Dict[str, str] = None) -> Dict[str, str]:
    files = {
        "__init__.py": "",
        "analysis/__init__.py": "",
        "analysis/contracts.py": """
            def hot_path(fn):
                return fn
        """,
        "kernels.py": f"""
            from repro.analysis.contracts import hot_path

            @hot_path
            def kernel() -> None:
                {kernel_body}
        """,
    }
    files.update(extra or {})
    return files


class TestPurityPass:
    def test_logging_flagged(self, repro_root):
        write_package(repro_root, hot_path_package("helper()", {
            "util.py": """
                import logging

                def helper() -> None:
                    logging.info("tick")
            """,
            "kernels.py": textwrap.dedent("""
                from repro.analysis.contracts import hot_path
                from repro.util import helper

                @hot_path
                def kernel() -> None:
                    helper()
            """),
        }))
        findings = run_pass(repro_root, "purity")
        assert "RPA201" in rules_of(findings)

    def test_file_io_flagged(self, repro_root):
        write_package(repro_root,
                      hot_path_package('open("x").read()'))
        assert "RPA202" in rules_of(run_pass(repro_root, "purity"))

    def test_alloc_heavy_in_loop_flagged(self, repro_root):
        write_package(repro_root, hot_path_package("""
                import numpy as np
                out = np.zeros(0, dtype=np.float64)
                for i in range(3):
                    out = np.concatenate((out, out))
        """))
        assert "RPA204" in rules_of(run_pass(repro_root, "purity"))

    def test_pure_kernel_clean(self, repro_root):
        write_package(repro_root, hot_path_package("""
                import numpy as np
                x = np.zeros(4, dtype=np.float64)
                x += 1.0
        """))
        assert rules_of(run_pass(repro_root, "purity")) == []


def parallel_package(tasks_py: str, driver_py: str) -> Dict[str, str]:
    return {
        "__init__.py": "",
        "parallel/__init__.py": """
            class Backend:
                def map(self, fn, items) -> list:
                    return [fn(i) for i in items]
        """,
        "tasks.py": tasks_py,
        "driver.py": driver_py,
    }


PICKLABLE_TASK = """
    from dataclasses import dataclass
    import numpy as np

    @dataclass(frozen=True)
    class Task:
        size: int
        name: str
        weights: np.ndarray
"""

SIMPLE_DRIVER = """
    from repro.parallel import Backend
    from repro.tasks import Task

    def work(task: Task) -> int:
        return task.size

    def dispatch(backend: Backend, tasks) -> list:
        return backend.map(work, tasks)
"""


class TestForkSafetyPass:
    def test_unpicklable_payload_field_flagged(self, repro_root):
        write_package(repro_root, parallel_package("""
            from dataclasses import dataclass
            from typing import Callable

            @dataclass(frozen=True)
            class Task:
                fn: Callable[[int], int]
                size: int
        """, SIMPLE_DRIVER))
        findings = run_pass(repro_root, "fork-safety")
        assert "RPA301" in rules_of(findings)

    def test_scalar_and_array_payload_clean(self, repro_root):
        write_package(repro_root, parallel_package(
            PICKLABLE_TASK, SIMPLE_DRIVER))
        assert rules_of(run_pass(repro_root, "fork-safety")) == []

    def test_worker_global_write_flagged(self, repro_root):
        write_package(repro_root, parallel_package(PICKLABLE_TASK, """
            from repro.parallel import Backend
            from repro.tasks import Task

            CACHE = {}

            def work(task: Task) -> int:
                CACHE[task.size] = 1
                return 0

            def dispatch(backend: Backend, tasks) -> list:
                return backend.map(work, tasks)
        """))
        findings = run_pass(repro_root, "fork-safety")
        assert "RPA303" in rules_of(findings)

    def test_worker_global_read_clean(self, repro_root):
        write_package(repro_root, parallel_package(PICKLABLE_TASK, """
            from repro.parallel import Backend
            from repro.tasks import Task

            CACHE = {}

            def work(task: Task) -> int:
                return CACHE.get(task.size, 0)

            def dispatch(backend: Backend, tasks) -> list:
                return backend.map(work, tasks)
        """))
        assert rules_of(run_pass(repro_root, "fork-safety")) == []


def contract_package(caller_body: str) -> Dict[str, str]:
    return {
        "__init__.py": "",
        "analysis/__init__.py": "",
        "analysis/contracts.py": """
            def contract(shapes=None, dtypes=None):
                def wrap(fn):
                    return fn
                return wrap
        """,
        "kern.py": """
            import numpy as np
            from repro.analysis.contracts import contract

            @contract(shapes={"xs": ("n",)},
                      dtypes={"xs": np.floating})
            def consume(xs) -> float:
                return float(xs.sum())
        """,
        "caller.py": f"""
            import numpy as np
            from repro.kern import consume

            def go() -> float:
                {caller_body}
        """,
    }


class TestContractPass:
    def test_rank_mismatch_flagged(self, repro_root):
        write_package(repro_root, contract_package("""
                xs = np.zeros((4, 4), dtype=np.float64)
                return consume(xs)
        """))
        assert "RPA401" in rules_of(run_pass(repro_root, "contracts"))

    def test_dtype_family_mismatch_flagged(self, repro_root):
        write_package(repro_root, contract_package("""
                xs = np.zeros(4, dtype=np.int64)
                return consume(xs)
        """))
        assert "RPA402" in rules_of(run_pass(repro_root, "contracts"))

    def test_matching_construction_clean(self, repro_root):
        write_package(repro_root, contract_package("""
                xs = np.zeros(4, dtype=np.float64)
                return consume(xs)
        """))
        assert rules_of(run_pass(repro_root, "contracts")) == []

    def test_opaque_argument_skipped(self, repro_root):
        write_package(repro_root, contract_package("""
                xs = make()
                return consume(xs)
        """))
        assert rules_of(run_pass(repro_root, "contracts")) == []


class TestShippedTree:
    """The analyzer's own regression pins for the fixes this PR made."""

    def test_no_gating_determinism_findings_in_src(self):
        findings = analyze([str(REPO_ROOT / "src" / "repro")],
                           ["determinism"])
        gating = [f for f in findings if f.gating]
        # sorted(thermal_cells) in ObjectiveState.eval_moves keeps
        # this empty
        assert gating == []

    def test_full_run_matches_committed_baseline(self):
        findings = analyze([str(REPO_ROOT / "src" / "repro")])
        from tools.analysis.baseline import Baseline, apply_baseline
        baseline = Baseline.load(
            REPO_ROOT / "tools" / "analysis" / "baseline.json")
        active, _suppressed, _stale = apply_baseline(findings, baseline)
        assert [f for f in active if f.gating] == []
