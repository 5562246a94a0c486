"""The statistics of ``tests/paired_bench.py`` on fixed numbers; the
script's runs are not part of tier-1."""

import json
import math

import numpy as np
import pytest

from paired_bench import compare, line, quartiles, record, sign_test_interval


def test_quartiles_are_numpys_default_percentiles():
    values = [0.31, 0.18, 0.22, 0.2, 0.25, 0.19, 0.4, 0.21, 0.23, 0.2]
    assert quartiles(values) == pytest.approx(tuple(np.percentile(values, [25, 50, 75])))
    assert quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)


@pytest.mark.parametrize("n, k", [(10, 2), (20, 6), (6, 1), (9, 2)])
def test_the_sign_test_interval_is_the_widest_k_of_95_percent(n, k):
    values = [float(v) for v in range(n, 0, -1)]  # given out of order
    low, high, coverage = sign_test_interval(values)
    assert (low, high) == (k, n + 1 - k)
    below = sum(math.comb(n, j) for j in range(k)) / 2**n
    assert coverage == pytest.approx(1 - 2 * below) and coverage >= 0.95
    # one order statistic further in falls short of 95%
    assert 1 - 2 * (below + math.comb(n, k) / 2**n) < 0.95


def test_with_too_few_values_the_interval_is_their_range():
    assert sign_test_interval([3.0, 1.0, 2.0]) == (1.0, 3.0, 0.75)


def test_wins_follow_the_direction_and_ties_count_for_neither():
    parent = [1.0, 1.0, 1.0, 1.0]
    change = [0.9, 1.0, 1.1, 0.8]
    lower = compare(parent, change, lower_is_better=True)
    higher = compare(parent, change, lower_is_better=False)
    assert (lower["wins"], higher["wins"]) == (2, 1)
    assert lower["gain"] == pytest.approx(0.05) and higher["gain"] == pytest.approx(-0.05)
    assert lower["log_ratio"] == pytest.approx(np.median(np.log(np.divide(change, parent))))


def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    # 9 of 10 won, by far more than the parent's spread
    change = [p - 0.2 for p in parent[:9]] + [parent[9] + 0.01]
    assert compare(parent, change, True)["claim"]
    # 8 of 10 is too few, whatever the gap
    assert not compare(parent, change[:8] + [p + 0.01 for p in parent[8:]], True)["claim"]
    # every pair won, by less than the parent's interquartile range
    small = [p - 0.001 for p in parent]
    summary = compare(parent, small, True)
    assert summary["wins"] == 10 and summary["gain"] < summary["iqr"] and not summary["claim"]


def test_the_quotable_line():
    summary = compare([1.0, 2.0, 3.0], [0.25, 0.5, 0.75], True)
    assert line("setup_s", summary) == (
        "setup_s: 2 [1.5, 2.5] -> 0.5 (3/3), log ratio -1.3863 [-1.3863, -1.3863] at 75.0%,"
        " claim holds"
    )
    # a gap equal to the parent's interquartile range is not past it
    assert line("x", compare([1.0, 2.0, 3.0], [0.5, 1.0, 1.5], True)).endswith(", no claim")


def test_record_keeps_the_median_wall_run_beside_other_workloads(tmp_path):
    def run(wall, digest):
        result = {"correct": True, "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
        return result, {"digest": digest, "environment": {"nproc": 2}}

    path = tmp_path / "BENCH.json"
    record(path, "extract", 7, [run(0.9, "a")])
    record(path, "experiment", 7, [run(0.3, "c"), run(0.1, "b"), run(0.2, "m"), run(0.25, "d")])
    data = json.loads(path.read_text())
    assert data["seed"] == 7 and data["environment"] == {"nproc": 2}
    assert {k: v["digest"] for k, v in data["workloads"].items()} == {"extract": "a",
                                                                      "experiment": "m"}
