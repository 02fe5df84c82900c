"""The verdict rule of ``benchmarks/ab_wall.py`` on canned numbers."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_wall", Path(__file__).resolve().parent.parent / "benchmarks" / "ab_wall.py"
)
ab_wall = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_wall)

PARENT = [17.0, 18.0, 16.5, 17.5, 18.5, 17.2, 16.8, 17.9, 18.1, 17.4]


def verdict_of(change, better="lower", bound=0.1, parent=PARENT):
    return ab_wall.verdict(parent, change, better, bound)


def test_improved_needs_the_pairs_and_the_spread():
    row = verdict_of([value / 25 for value in PARENT])
    assert row["verdict"] == "improved"
    assert (row["wins"], row["pairs"]) == (10, 10)
    assert row["delta"] == pytest.approx(-0.96)
    # Wins every pair, but by less than the parent's own quartile spread.
    assert verdict_of([value - 0.1 for value in PARENT])["verdict"] == "within bound"
    # A large median gain on eight pairs of ten is not a claim.
    mostly = [value / 25 for value in PARENT[:8]] + [20.0, 20.0]
    assert verdict_of(mostly)["wins"] == 8
    assert verdict_of(mostly)["verdict"] == "within bound"


def test_direction_follows_better():
    faster = [value * 1.5 for value in PARENT]
    assert verdict_of(faster, better="higher")["verdict"] == "improved"
    assert verdict_of(faster, better="lower")["verdict"] == "worse"
    # 5 % slower: inside a 10 % bound, outside a 1 % one.
    slower = [value * 1.05 for value in PARENT]
    assert verdict_of(slower, bound=0.1)["verdict"] == "within bound"
    assert verdict_of(slower, bound=0.01)["verdict"] == "worse"


def test_a_parent_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [10.0, 14.0, 9.0, 15.0, 10.5, 13.5, 9.5, 14.5, 10.0, 14.0]
    assert verdict_of(list(reversed(noisy)), parent=noisy)["verdict"] == "unresolved"
    # Ties count for neither side.
    assert verdict_of(PARENT)["wins"] == 0
    assert verdict_of(PARENT)["verdict"] == "within bound"


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError):
        ab_wall.verdict([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError):
        ab_wall.verdict([1.0], [1.0], "sideways", 0.1)
