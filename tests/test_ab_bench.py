"""The no-regression verdict of scripts/ab_bench.py against a metric's bound."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import ab_bench  # noqa: E402


@pytest.mark.parametrize("parent, change, lower, want", [
    ((0.9, 1.0, 1.1), 1.2, True, "ok"),  # 20% slower, bound 25%
    ((0.9, 1.0, 1.1), 1.26, True, "worse"),
    ((0.9, 1.0, 1.1), 0.5, True, "ok"),
    ((90.0, 100.0, 110.0), 76.0, False, "ok"),
    ((90.0, 100.0, 110.0), 74.0, False, "worse"),
    ((90.0, 100.0, 110.0), 200.0, False, "ok"),
    ((0.7, 1.0, 1.1), 1.0, True, "unresolved"),  # parent IQR 0.4 > 0.25 x median
    ((60.0, 100.0, 130.0), 100.0, False, "unresolved"),
])
def test_verdict_against_the_bound(parent, change, lower, want):
    assert ab_bench.verdict(parent, change, 0.25, lower) == want
