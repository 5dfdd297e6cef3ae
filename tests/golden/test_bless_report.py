"""``tools/bless_golden.py`` names what a re-bless changed."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from bless_golden import report  # noqa: E402


def _digest(positions: str, alive: str, deltas: str, series) -> dict:
    return {
        "sha256": {"positions": positions, "alive": alive, "deltas": deltas},
        "summary": {"deltas": list(series)},
    }


def test_report_names_changed_fields_and_delta_ends():
    old = _digest("p", "a", "d0", [3.0, 2.0, 1.0])
    new = _digest("p", "a", "d1", [3.5, 2.0, 0.5])
    assert report("x", old, new) == "x: deltas changed; δ 3.0 .. 1.0 -> 3.5 .. 0.5"


def test_report_unchanged_and_new():
    old = _digest("p", "a", "d", [1.0, 2.0])
    assert report("x", old, old) == "x: unchanged; δ 1.0 .. 2.0"
    assert report("x", None, old) == "x: new digest; δ 1.0 .. 2.0"


def test_report_lists_every_changed_field():
    old = _digest("p", "a", "d", [1.0])
    new = _digest("q", "b", "d", [1.0])
    assert report("x", old, new).startswith("x: alive, positions changed;")
