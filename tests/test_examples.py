"""Smoke tests: every example script runs end to end.

Each example is executed in-process (imported as a module with patched
``sys.argv``) at a very small scale so the whole file stays fast.
"""

import os
import runpy
import sys

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples")


def run_example(name: str, argv, capsys):
    path = os.path.join(EXAMPLES_DIR, name)
    old_argv = sys.argv
    sys.argv = [path] + argv
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", ["0.01"], capsys)
        assert "objective (Eq. 3)" in out
        assert "avg / max temperature" in out

    def test_via_budget_explorer(self, capsys):
        out = run_example("via_budget_explorer.py",
                          ["5e11", "0.01"], capsys)
        assert "alpha_ILV" in out
        assert "Chosen point" in out or "No sweep point" in out

    def test_thermal_aware_flow(self, capsys):
        out = run_example("thermal_aware_flow.py",
                          ["1e-5", "0.01"], capsys)
        assert "Power distribution across layers" in out
        assert "avg temperature" in out

    def test_layer_count_study(self, capsys):
        out = run_example("layer_count_study.py", ["0.01"], capsys)
        assert "layers" in out
        assert "vs 2D" in out

    def test_bookshelf_roundtrip(self, capsys, tmp_path):
        out = run_example("bookshelf_roundtrip.py",
                          [str(tmp_path)], capsys)
        assert "Read back" in out
        assert "Wrote" in out

    def test_placer_comparison(self, capsys):
        out = run_example("placer_comparison.py", ["0.008"], capsys)
        assert "recursive bisection" in out
        assert "cell density, layer 0" in out
