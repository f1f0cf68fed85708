"""Smoke tests: the runnable examples execute end-to-end.

Only the fast examples run here (the two full case studies take minutes
and are exercised by the benchmark suite's equivalent fixtures).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, capsys):
    path = EXAMPLES / name
    assert path.exists(), f"{name} missing"
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.slow
def test_quickstart_runs_and_diagnoses(capsys):
    out = run_example("quickstart.py", capsys)
    assert "DATA PROFILE" in out
    assert "true sharing" in out
    assert "TRUE SHARING" in out
    assert "CAPACITY" in out


@pytest.mark.slow
def test_miss_classification_tour_runs(capsys):
    out = run_example("miss_classification_tour.py", capsys)
    assert "TRUE SHARING" in out
    assert "FALSE SHARING" in out
    assert "CONFLICT" in out
    assert "CAPACITY" in out
    assert "shared_counter" in out


def test_all_examples_importable_as_modules():
    # Import sanity for every example, including the slow ones: each
    # guards its work behind ``__main__``, so running it under another
    # name executes only its imports and definitions, and a name it
    # imports that the package no longer has fails here.
    sys.path.insert(0, str(EXAMPLES))
    try:
        for path in sorted(EXAMPLES.glob("*.py")):
            runpy.run_path(str(path), run_name="example_import_check")
    finally:
        sys.path.pop(0)
