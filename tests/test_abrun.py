"""The A/B runner's summary (``tools/abrun.py``) on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "abrun.py"
_SPEC = importlib.util.spec_from_file_location("abrun", _PATH)
abrun = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abrun)

END_TO_END = [
    {"name": "peak_rss_mb", "better": "lower"},
    {"name": "rv_pct", "better": "higher"},
]


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    # five pairs: the change's memory is lower in three, equal in one and
    # higher in one; its RV is higher in one pair, lower in two, equal in two
    parent = [dict(peak_rss_mb=a, rv_pct=r) for a, r in
              [(67.5, 66.0), (67.4, 66.0), (67.7, 66.0), (65.0, 66.0), (66.0, 66.0)]]
    change = [dict(peak_rss_mb=a, rv_pct=r) for a, r in
              [(65.8, 66.0), (65.7, 66.5), (65.9, 65.5), (65.0, 66.0), (66.5, 65.0)]]
    rss, rv = abrun.summarize(parent, change, END_TO_END)
    assert (rss["name"], rss["better"], rss["worse"], rss["pairs"]) == ("peak_rss_mb", 3, 1, 5)
    assert (rv["name"], rv["better"], rv["worse"], rv["pairs"]) == ("rv_pct", 1, 2, 5)
    # inclusive quartiles of [65.0, 66.0, 67.4, 67.5, 67.7] and of
    # [65.0, 65.7, 65.8, 65.9, 66.5]
    assert rss["parent"] == pytest.approx((66.0, 67.4, 67.5))
    assert rss["change"] == pytest.approx((65.7, 65.8, 65.9))
    assert rv["parent"] == (66.0, 66.0, 66.0)


def test_one_pair_is_its_own_quartiles():
    row, _ = abrun.summarize([dict(peak_rss_mb=2.0, rv_pct=1.0)], [dict(peak_rss_mb=1.0, rv_pct=1.0)], END_TO_END)
    assert row["parent"] == (2.0, 2.0, 2.0) and row["change"] == (1.0, 1.0, 1.0)
    assert (row["better"], row["worse"]) == (1, 0)


QUALITY = [
    {"name": "setup_s", "better": "lower"},
    {"name": "rv_pct", "better": "higher"},
    {"name": "unknown_pct", "better": "lower"},
]


def report(instances, rv, unknown):
    """A benchmark report's instance count and per-instance samples."""
    return dict(instances=instances, samples=dict(setup_s=[1.0] * 3 * instances, rv_pct=rv, unknown_pct=unknown))


def test_equal_instances_are_compared_one_by_one():
    # two pairs of three instances: RV falls on one instance of pair 1 by
    # 0.5 and rises on another; unknown pixels rise on one instance by 0.25
    parent = [report(3, [60.0, 70.0, 80.0], [40.0, 30.0, 20.0])] * 2
    change = [report(3, [60.0, 70.0, 80.0], [40.0, 30.0, 20.0]),
              report(3, [59.5, 70.5, 80.0], [40.0, 30.25, 20.0])]
    got = abrun.compare_instances(parent, change, QUALITY)
    assert got["instances"] == dict(parent=[3, 3], change=[3, 3])
    assert "setup_s" not in got  # only the quality metrics are per instance
    assert got["rv_pct"] == dict(compared=6, worse=1, worst_change=-0.5)
    assert got["unknown_pct"] == dict(compared=6, worse=1, worst_change=0.25)


def test_unequal_instances_compare_those_both_finished():
    # the change finished two of the parent's three instances in pair 0;
    # the parent's third instance, far lower, is compared with nothing
    parent = [report(3, [60.0, 70.0, 10.0], [40.0, 30.0, 90.0]), report(2, [60.0, 70.0], [40.0, 30.0])]
    change = [report(2, [60.0, 70.0], [40.0, 30.0]), report(2, [60.0, 71.0], [40.0, 29.0])]
    got = abrun.compare_instances(parent, change, QUALITY)
    assert got["instances"] == dict(parent=[3, 2], change=[2, 2])
    assert got["rv_pct"] == dict(compared=4, worse=0, worst_change=0.0)
    assert got["unknown_pct"] == dict(compared=4, worse=0, worst_change=0.0)
