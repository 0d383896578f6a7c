"""The benchmark's golden corpus, re-checked in the test suite.

``perfbench/checks.py`` holds 200 recorded queries over the benchmark's three
workload worlds; every entry must still agree (report numbers within 1e-12,
the ``find_paths`` table digest exactly), so an engine change that claims
bit-identical output is held to all of them.  The module is imported as it
is, nothing under ``perfbench/`` is changed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402
from workloads import SPECS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_corpus_sample_agrees(workload):
    results = checks.check_corpus(workload, None, 2026)
    assert len(results) == SPECS[workload].corpus_size
    assert [(label, p) for label, p in results if p] == []
