"""Seed-corpus regression: FaultPlan specs pin to stable CLI exit codes.

``tests/data/fault_corpus.json`` holds discovered (argv, exit code)
pairs spanning the whole degradation ladder -- 0 (full data), 3
(degraded), 4 (less than half the data survived) -- across all three
subcommands.  Fault schedules are pure
functions of (FaultPlan, machine seed), so these codes must never
drift; a change here means the fault pipeline's determinism broke.
"""

from __future__ import annotations

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest

from repro.cli import main

CORPUS_PATH = Path(__file__).parent / "data" / "fault_corpus.json"
CORPUS = json.loads(CORPUS_PATH.read_text())


@pytest.mark.parametrize(
    "case", CORPUS["cases"], ids=[c["id"] for c in CORPUS["cases"]]
)
def test_fault_corpus_exit_codes(case: dict) -> None:
    """Each corpus entry reproduces its recorded exit code exactly."""
    buf = io.StringIO()
    with warnings.catch_warnings():
        # Degraded runs legitimately emit DegradedDataWarning; the corpus
        # pins exit codes, not warning traffic.
        warnings.simplefilter("ignore")
        with contextlib.redirect_stdout(buf):
            code = main(case["argv"])
    assert code == case["expected_exit"], (
        f"{case['id']}: expected exit {case['expected_exit']}, got {code}\n"
        f"output:\n{buf.getvalue()}"
    )
    # Degraded sessions must say so on stdout; clean ones must not.
    quality_mentioned = "data quality" in buf.getvalue().lower()
    if case["expected_exit"] in (3, 4):
        assert quality_mentioned, f"{case['id']}: no quality report printed"


def test_corpus_covers_every_exit_code() -> None:
    """The corpus itself must span the full ladder (0, 3, and 4)."""
    codes = {c["expected_exit"] for c in CORPUS["cases"]}
    assert codes == {0, 3, 4}
