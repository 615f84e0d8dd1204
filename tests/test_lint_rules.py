"""Per-rule fixtures for the domain AST linter
(``tools.analysis.lintrules``).

Each rule gets at least one failing fixture and one passing fixture, so
a regression in the checker (a rule silently going dead, or a rule
over-firing) is caught here rather than in CI noise.  The final test
asserts the shipped source tree itself is lint-clean — the same gate CI
runs via ``python -m tools.analysis src/repro``.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analysis.lintrules import (RULES, Violation, check_source,
                                      is_kernel_module, lint_paths)


def rules_of(source: str, kernel: bool = False) -> List[str]:
    """Rule ids flagged in a dedented fixture."""
    violations = check_source(textwrap.dedent(source), "fixture.py",
                              kernel=kernel)
    return [v.rule for v in violations]


class TestRPL001ForeignPrivateWrite:
    def test_foreign_write_flagged(self):
        assert rules_of("""
            def poke(state) -> None:
                state._total = 0.0
        """) == ["RPL001"]

    def test_augmented_and_subscript_writes_flagged(self):
        src = """
            def poke(state, i) -> None:
                state._wl[i] += 1.0
                del state._cache
        """
        assert rules_of(src) == ["RPL001", "RPL001"]

    def test_self_and_cls_writes_allowed(self):
        assert rules_of("""
            class S:
                def set(self) -> None:
                    self._total = 0.0

                @classmethod
                def reset(cls) -> None:
                    cls._shared = None
        """) == []

    def test_dunder_write_not_flagged(self):
        assert rules_of("""
            def mark(func) -> None:
                func.__wrapped__ = None
        """) == []


class TestRPL002KernelDtypes:
    def test_missing_dtype_flagged_in_kernel(self):
        assert rules_of("""
            import numpy as np

            def alloc(n: int) -> None:
                a = np.zeros(n)
        """, kernel=True) == ["RPL002"]

    def test_explicit_dtype_passes(self):
        assert rules_of("""
            import numpy as np

            def alloc(n: int) -> None:
                a = np.zeros(n, dtype=np.float64)
                b = np.arange(n, dtype=np.int64)
        """, kernel=True) == []

    def test_like_family_exempt(self):
        assert rules_of("""
            import numpy as np

            def alloc(a) -> None:
                b = np.zeros_like(a)
        """, kernel=True) == []

    def test_non_kernel_module_exempt(self):
        assert rules_of("""
            import numpy as np

            def alloc(n: int) -> None:
                a = np.zeros(n)
        """, kernel=False) == []

    def test_kernel_paths_classified_by_suffix(self):
        assert is_kernel_module("src/repro/core/objective.py")
        assert is_kernel_module("/abs/path/src/repro/thermal/solver.py")
        assert not is_kernel_module("src/repro/netlist/generator.py")


class TestRPL003FloatLiteralEquality:
    def test_eq_against_float_literal_flagged(self):
        assert rules_of("""
            def f(x: float) -> bool:
                return x == 0.0
        """) == ["RPL003"]

    def test_ne_and_negative_literal_flagged(self):
        assert rules_of("""
            def f(x: float) -> bool:
                return x != -1.5
        """) == ["RPL003"]

    def test_int_literal_comparison_allowed(self):
        assert rules_of("""
            def f(x: int) -> bool:
                return x == 0
        """) == []

    def test_ordering_comparison_allowed(self):
        assert rules_of("""
            def f(x: float) -> bool:
                return x > 0.0
        """) == []


class TestRPL004LegacyRandom:
    def test_global_state_call_flagged(self):
        assert rules_of("""
            import numpy as np

            def sample(n: int) -> object:
                return np.random.rand(n)
        """) == ["RPL004"]

    def test_seeded_generator_allowed(self):
        assert rules_of("""
            import numpy as np

            def sample(n: int, seed: int) -> object:
                rng = np.random.default_rng(seed)
                return rng.random(n)
        """) == []


class TestRPL005HotPathLoops:
    def test_loop_inside_hot_path_flagged(self):
        assert rules_of("""
            from repro.analysis import hot_path

            @hot_path
            def kernel(xs) -> float:
                total = 0.0
                for x in xs:
                    total += x
                return total
        """) == ["RPL005"]

    def test_while_inside_hot_path_flagged(self):
        assert rules_of("""
            from repro import analysis

            @analysis.hot_path
            def kernel(n: int) -> int:
                while n > 0:
                    n -= 1
                return n
        """) == ["RPL005"]

    def test_loop_outside_hot_path_allowed(self):
        assert rules_of("""
            def cold(xs) -> float:
                total = 0.0
                for x in xs:
                    total += x
                return total
        """) == []

    def test_nested_plain_function_still_guarded(self):
        # A helper *defined inside* a hot function runs on the hot path.
        assert rules_of("""
            from repro.analysis import hot_path

            @hot_path
            def kernel(xs) -> float:
                def helper() -> float:
                    for x in xs:
                        pass
                    return 0.0
                return helper()
        """) == ["RPL005"]


class TestRPL006BareExcept:
    def test_bare_except_flagged(self):
        assert rules_of("""
            def f() -> None:
                try:
                    pass
                except:
                    pass
        """) == ["RPL006"]

    def test_typed_except_allowed(self):
        assert rules_of("""
            def f() -> None:
                try:
                    pass
                except ValueError:
                    pass
        """) == []


class TestRPL007MutableDefaults:
    def test_literal_mutable_default_flagged(self):
        assert rules_of("""
            def f(items=[]) -> None:
                pass
        """) == ["RPL007"]

    def test_constructor_default_flagged(self):
        assert rules_of("""
            def f(*, table=dict()) -> None:
                pass
        """) == ["RPL007"]

    def test_none_default_allowed(self):
        assert rules_of("""
            def f(items=None) -> None:
                pass
        """) == []


class TestRPL008ReturnAnnotations:
    def test_missing_return_annotation_flagged(self):
        assert rules_of("""
            def f(x: int):
                return x
        """) == ["RPL008"]

    def test_annotated_function_allowed(self):
        assert rules_of("""
            def f(x: int) -> int:
                return x
        """) == []


class TestRPL009RawClockCalls:
    def test_time_perf_counter_flagged(self):
        assert rules_of("""
            import time

            def f() -> float:
                return time.perf_counter()
        """) == ["RPL009"]

    def test_aliased_module_and_from_import_flagged(self):
        src = """
            import time as t
            from time import perf_counter_ns as tick

            def f() -> float:
                return t.perf_counter_ns() + tick()
        """
        assert rules_of(src) == ["RPL009", "RPL009"]

    def test_other_time_functions_allowed(self):
        # time.time() is RPL013's business now; monotonic() is neither
        # a timer (RPL009) nor a wall clock (RPL013)
        assert rules_of("""
            import time

            def f() -> float:
                return time.monotonic()
        """) == []

    def test_obs_modules_exempt(self):
        src = textwrap.dedent("""
            import time

            def f() -> float:
                return time.perf_counter()
        """)
        exempt = check_source(src, "src/repro/obs/trace.py")
        assert [v.rule for v in exempt] == []

    def test_unrelated_perf_counter_name_allowed(self):
        # a local function that merely shares the name is not a clock
        assert rules_of("""
            def perf_counter() -> float:
                return 0.0

            def f() -> float:
                return perf_counter()
        """) == []


class TestRPL013WallClockReads:
    def test_time_time_flagged(self):
        assert rules_of("""
            import time

            def f() -> float:
                return time.time()
        """) == ["RPL013"]

    def test_time_ns_and_aliased_module_flagged(self):
        src = """
            import time as t
            from time import time as now

            def f() -> float:
                return t.time_ns() + now()
        """
        assert rules_of(src) == ["RPL013", "RPL013"]

    def test_datetime_class_methods_flagged(self):
        src = """
            from datetime import datetime, date

            def f() -> str:
                return datetime.now().isoformat() + str(date.today())
        """
        assert rules_of(src) == ["RPL013", "RPL013"]

    def test_datetime_module_path_flagged(self):
        assert rules_of("""
            import datetime

            def f() -> str:
                return datetime.datetime.utcnow().isoformat()
        """) == ["RPL013"]

    def test_obs_modules_exempt(self):
        src = textwrap.dedent("""
            import time

            def f() -> float:
                return time.time()
        """)
        exempt = check_source(src, "src/repro/obs/clock.py")
        assert [v.rule for v in exempt] == []

    def test_datetime_construction_allowed(self):
        # constructing a datetime from explicit values reads no clock
        assert rules_of("""
            from datetime import datetime

            def f() -> datetime:
                return datetime(2007, 6, 4)
        """) == []


class TestRPL010StageInstantiation:
    def test_direct_instantiation_flagged(self):
        assert rules_of("""
            def f() -> None:
                stage = QuadraticGlobalStage(iterations=2)
                stage.run(None)
        """) == ["RPL010"]

    def test_attribute_access_instantiation_flagged(self):
        assert rules_of("""
            import repro.core.stages as stages

            def f() -> None:
                stages.RefineStage()
        """) == ["RPL010"]

    def test_registry_factory_allowed(self):
        assert rules_of("""
            from repro.core.stages import create_stage

            def f() -> None:
                create_stage("anneal", {"moves_per_cell": 2})
        """) == []

    def test_non_stage_suffix_names_allowed(self):
        # StageEntry et al. are spec types, not stage classes
        assert rules_of("""
            def f() -> None:
                StageEntry("moves")
                Stage()
        """) == []

    def test_registry_and_runner_modules_exempt(self):
        src = textwrap.dedent("""
            def f() -> None:
                QuadraticGlobalStage(iterations=2)
        """)
        for path in ("src/repro/core/stages.py",
                     "src/repro/core/pipeline.py"):
            assert [v.rule for v in check_source(src, path)] == []

    def test_class_definition_not_flagged(self):
        assert rules_of("""
            class MyStage:
                def run(self, ctx) -> None:
                    pass
        """) == []


class TestRPL011ProcessImports:
    def test_multiprocessing_import_flagged(self):
        assert rules_of("""
            import multiprocessing
        """) == ["RPL011"]

    def test_concurrent_futures_import_flagged(self):
        assert rules_of("""
            import concurrent.futures
        """) == ["RPL011"]

    def test_from_import_flagged(self):
        assert rules_of("""
            from concurrent.futures import ProcessPoolExecutor
        """) == ["RPL011"]

    def test_from_multiprocessing_submodule_flagged(self):
        assert rules_of("""
            from multiprocessing import get_context
        """) == ["RPL011"]

    def test_parallel_backend_module_exempt(self):
        src = textwrap.dedent("""
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
        """)
        path = "src/repro/parallel/__init__.py"
        assert [v.rule for v in check_source(src, path)] == []

    def test_unrelated_imports_allowed(self):
        assert rules_of("""
            import threading
            from repro.parallel import create_backend
        """) == []


class TestRPL015SharedMemoryImports:
    def test_from_multiprocessing_flagged(self):
        # RPL011 also fires (a multiprocessing import outside
        # repro.parallel); RPL015 adds the stricter ownership claim
        assert rules_of("""
            from multiprocessing import shared_memory
        """) == ["RPL011", "RPL015"]

    def test_submodule_import_flagged(self):
        assert rules_of("""
            import multiprocessing.shared_memory
        """) == ["RPL011", "RPL015"]

    def test_from_submodule_flagged(self):
        assert rules_of("""
            from multiprocessing.shared_memory import SharedMemory
        """) == ["RPL011", "RPL015"]

    def test_parallel_package_still_flagged(self):
        # RPL011-exempt, but shared_memory belongs to shared.py only
        src = textwrap.dedent("""
            from multiprocessing import shared_memory
        """)
        path = "src/repro/parallel/__init__.py"
        assert [v.rule for v in check_source(src, path)] == ["RPL015"]

    def test_shared_module_exempt(self):
        src = textwrap.dedent("""
            from multiprocessing import shared_memory
            from multiprocessing.shared_memory import SharedMemory
        """)
        path = "src/repro/parallel/shared.py"
        assert [v.rule for v in check_source(src, path)] == []

    def test_plain_multiprocessing_not_flagged_by_rpl015(self):
        assert rules_of("""
            from multiprocessing import get_context
        """) == ["RPL011"]


class TestRPL014SocketImports:
    def test_socket_import_flagged(self):
        assert rules_of("""
            import socket
        """) == ["RPL014"]

    def test_selectors_import_flagged(self):
        assert rules_of("""
            import selectors
        """) == ["RPL014"]

    def test_from_socket_import_flagged(self):
        assert rules_of("""
            from socket import AF_UNIX
        """) == ["RPL014"]

    def test_service_module_exempt(self):
        src = textwrap.dedent("""
            import socket
            import selectors
        """)
        path = "src/repro/service/rpc.py"
        assert [v.rule for v in check_source(src, path)] == []

    def test_waiver_with_reason_accepted(self):
        assert rules_of("""
            import socket  # lint: ok[RPL014] test harness needs a raw socket
        """) == []

    def test_service_client_usage_allowed(self):
        assert rules_of("""
            from repro.service import ServiceClient
        """) == []


class TestRPL012SolverInCoreHotPath:
    CORE = "src/repro/core/moves.py"

    def _core_rules(self, source: str) -> List[str]:
        violations = check_source(textwrap.dedent(source), self.CORE)
        return [v.rule for v in violations]

    def test_direct_import_flagged(self):
        assert self._core_rules("""
            import repro.thermal.solver
        """) == ["RPL012"]

    def test_from_import_flagged(self):
        assert self._core_rules("""
            from repro.thermal.solver import ThermalSolver
        """) == ["RPL012"]

    def test_package_attr_import_flagged(self):
        assert self._core_rules("""
            from repro.thermal import ThermalSolver
        """) == ["RPL012"]

    def test_non_core_module_allowed(self):
        src = textwrap.dedent("""
            from repro.thermal.solver import ThermalSolver
        """)
        path = "src/repro/thermal/analysis.py"
        assert [v.rule for v in check_source(src, path)] == []

    def test_waiver_suppresses(self):
        assert self._core_rules("""
            # lint: ok[RPL012] type-only import for annotations
            from repro.thermal.solver import TemperatureField
        """) == []


class TestWaivers:
    def test_waiver_with_reason_suppresses(self):
        assert rules_of("""
            def f(x: float) -> bool:
                return x == 0.0  # lint: ok[RPL003] bit-exact cache probe
        """) == []

    def test_waiver_on_line_above_suppresses(self):
        assert rules_of("""
            def f(x: float) -> bool:
                # lint: ok[RPL003] bit-exact cache probe
                return x == 0.0
        """) == []

    def test_waiver_for_wrong_rule_does_not_suppress(self):
        assert rules_of("""
            def f(x: float) -> bool:
                return x == 0.0  # lint: ok[RPL006] wrong rule id
        """) == ["RPL003"]

    def test_waiver_without_reason_is_rpl000(self):
        flagged = rules_of("""
            def f(x: float) -> bool:
                return x == 0.0  # lint: ok[RPL003]
        """)
        assert "RPL000" in flagged
        assert "RPL003" in flagged

    def test_waiver_in_string_literal_ignored(self):
        assert rules_of('''
            def f() -> str:
                return "x == 0.0  # lint: ok[RPL003]"
        ''') == []


class TestHarness:
    def test_syntax_error_reported_not_raised(self):
        flagged = check_source("def broken(:\n", "fixture.py")
        assert [v.rule for v in flagged] == ["RPL000"]
        assert "syntax error" in flagged[0].message

    def test_violation_render_format(self):
        v = Violation("a.py", 3, 7, "RPL006", RULES["RPL006"])
        assert v.render() == "a.py:3:7: RPL006 bare except:"

    def test_shipped_tree_is_clean(self):
        violations = lint_paths([str(REPO_ROOT / "src" / "repro")])
        assert violations == [], "\n".join(v.render() for v in violations)
