"""Smoke tests for the example scripts.

Each example is importable and exposes ``main``; the cheap ones run
end to end (the rest execute real sweeps and are exercised by running
them directly or via the benchmark suite).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_populated():
    assert len(EXAMPLES) >= 3
    assert "quickstart" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_defines_main(name):
    module = load_example(name)
    assert callable(getattr(module, "main", None)), f"{name}.py has no main()"
    assert module.__doc__, f"{name}.py has no module docstring"


def test_quickstart_runs(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "cycles/byte" in out
    assert "barrier" in out


def test_membank_study_runs(capsys):
    load_example("membank_study").main()
    out = capsys.readouterr().out
    assert "SMP-NATIVE" in out and "Cray-T3E" in out


def test_model_comparison_runs(capsys):
    load_example("model_comparison").main()
    out = capsys.readouterr().out
    assert "qsm-observed (p, g)" in out and "logp (p, l, o, g)" in out


def test_histogram_runs(capsys):
    load_example("histogram").main()
    out = capsys.readouterr().out
    assert "QSM communication estimate: 21,075 cycles" in out
