"""benchmarks/pairs.py's summary and sign test, on fixed samples (no perfbench runs)."""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"))

import pairs  # noqa: E402


@pytest.mark.parametrize("wins, untied, p", [(10, 10, 1 / 1024), (9, 10, 11 / 1024), (0, 10, 1.0), (0, 0, 1.0),
                                             (5, 10, 638 / 1024), (6, 6, 1 / 64)])
def test_sign_test_p_is_the_binomial_upper_tail(wins, untied, p):
    assert pairs.sign_test_p(wins, untied) == pytest.approx(p, abs=1e-12)


def test_sign_test_p_matches_an_enumeration_of_every_outcome():
    for n in range(9):
        for wins in range(n + 1):
            outcomes = [bin(mask).count("1") for mask in range(2**n)]
            assert math.isclose(pairs.sign_test_p(wins, n), sum(w >= wins for w in outcomes) / 2**n)


def test_summary_of_a_lower_is_better_metric():
    samples = [[24.6, 21.2], [24.7, 21.1], [24.6, 21.3], [24.65, 24.65], [24.6, 21.2], [24.62, 24.7]]
    got = pairs.summarize(samples, "MB", "lower", 0.1)
    assert got == {
        "unit": "MB",
        "parent_median": 24.61,
        "change_median": 21.25,
        "parent_quartiles": [24.6, 24.6425],
        "change_quartiles": [21.2, 23.8125],
        "change_wins": 4,  # one tie, one loss
        "sign_test_p": 0.1875,  # 4 or more of 5 untied pairs: 6/32
        "gain": False,  # 4 of 6 pairs is under nine tenths
        "within_bound": True,
        "pairs": samples,
    }


def test_summary_of_a_higher_is_better_metric_and_the_claim_rule():
    samples = [[10.0 + i, 12.0 + i] for i in range(10)]
    got = pairs.summarize(samples, "1/s", "higher", 0.25)
    assert (got["change_wins"], got["sign_test_p"], got["gain"], got["within_bound"]) == (10, 0.000977, False, True)
    # medians 14.5 and 16.5 differ by 2, less than the parent's quartile distance 4.5: no gain
    assert got["parent_quartiles"] == [12.25, 16.75]
    narrow = [[10.0 + i / 10, 12.0 + i / 10] for i in range(10)]
    assert pairs.summarize(narrow, "1/s", "higher", 0.25)["gain"] is True


def test_within_bound_is_relative_to_the_parent_median():
    assert pairs.summarize([[1.0, 1.25]], "s", "lower", 0.25)["within_bound"] is True
    assert pairs.summarize([[1.0, 1.26]], "s", "lower", 0.25)["within_bound"] is False
    assert pairs.summarize([[10.0, 8.9]], "1/s", "higher", 0.1)["within_bound"] is False


def _run(wall, rss, digests, phase="stats", failed=0, phase_rss=(("setup", 18.0), ("stats", 24.6))):
    return {"metrics": {"wall_s": wall, "peak_rss_mb": rss}, "failed": failed, "digests": digests,
            "peak_phase": phase, "phase_rss_mb": [list(p) for p in phase_rss], "machine_key": "m"}


def test_workload_summary_pairs_runs_in_order_and_compares_every_digest():
    end_to_end = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                  {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    same = {"a": "1"}
    runs = {"parent": [_run(0.8, 24.6, same), _run(0.9, 24.7, same)],
            "change": [_run(0.85, 21.2, same, "segments"), _run(0.82, 21.1, same, failed=1)]}
    got = pairs.summarize_workload("render", 5, runs, end_to_end)
    assert got["pairs"] == 2
    assert got["metrics"]["wall_s"]["pairs"] == [[0.8, 0.85], [0.9, 0.82]]
    assert got["metrics"]["peak_rss_mb"]["change_wins"] == 2
    assert got["digests_equal"] is True
    assert got["failed"] == {"parent": 0, "change": 1}
    assert got["peak_phase"] == {"parent": ["stats"], "change": ["segments", "stats"]}
    runs["change"][1]["digests"] = {"a": "2"}
    assert pairs.summarize_workload("render", 5, runs, end_to_end)["digests_equal"] is False


def test_workload_summary_gives_each_sides_median_vmhwm_per_phase_in_run_order():
    """Phases keep run order, a repeated phase name included; each value is the median over the side's runs."""
    end_to_end = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    score = [("setup", 24.6), ("eval", 27.5), ("eval", 27.5), ("oracle-eval", 27.5), ("context", 27.6)]
    moved = [("setup", 23.0), ("eval", 23.0), ("eval", 23.05), ("oracle-eval", 23.1), ("context", 23.1)]
    runs = {"parent": [_run(0.8, 27.6, {}, "context", phase_rss=score),
                       _run(0.8, 27.7, {}, "context", phase_rss=[(n, mb + 0.1) for n, mb in score]),
                       _run(0.8, 27.4, {}, "context", phase_rss=[(n, mb - 0.2) for n, mb in score])],
            "change": [_run(0.8, 23.1, {}, "oracle-eval", phase_rss=moved)] * 3}
    got = pairs.summarize_workload("score", 5, runs, end_to_end)
    assert got["phase_rss_mb"] == {"parent": [["setup", 24.6], ["eval", 27.5], ["eval", 27.5],
                                              ["oracle-eval", 27.5], ["context", 27.6]],
                                   "change": [list(p) for p in moved]}
    assert got["peak_phase"] == {"parent": ["context"], "change": ["oracle-eval"]}
    assert pairs.phase_medians([[["setup", 1.0], ["a", 3.0]], [["setup", 2.0], ["a", 5.0]]]) == [["setup", 1.5],
                                                                                                ["a", 4.0]]
