"""Exact match, bootstrap significance, oracle combination, corpus stats."""

import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_discussion, make_example, make_utterance
from discforge import storage
from discforge.evaluate import (
    _binomial,
    best_exact_match,
    corpus_exact_match,
    dataset_stats,
    exact_match,
    paired_bootstrap,
)
from discforge.records import SPLITS, Candidate


class TestExactMatch:
    def test_equal(self):
        assert exact_match(["a", ";"], ("a", ";"))

    def test_length_mismatch(self):
        assert not exact_match(["a"], ["a", ";"])

    def test_element_mismatch(self):
        assert not exact_match(["a", ";"], ["a", ","])

    def test_empty(self):
        assert exact_match([], [])


def cand(ex_id, tokens, source="model"):
    return Candidate(example_id=ex_id, candidate_tokens=tuple(tokens), source=source)


class TestCorpusExactMatch:
    def setup_method(self):
        self.examples = [
            make_example(ex_id="e1", fixed=("int", "x", ";")),
            make_example(ex_id="e2", fixed=("int", "y", ";")),
            make_example(ex_id="e3", fixed=("int", "z", ";")),
        ]

    def test_rate_and_missing(self):
        candidates = {
            "e1": cand("e1", ("int", "x", ";")),
            "e2": cand("e2", ("wrong",)),
        }
        report = corpus_exact_match(self.examples, candidates, representation="title")
        assert report.exact_match_rate == 33.3
        assert report.missing == 1
        assert report.per_example == {"e1": True, "e2": False, "e3": False}
        assert report.representation == "title"

    def test_no_examples_rate_zero(self):
        report = corpus_exact_match([], {"e1": cand("e1", ("int", "x", ";"))})
        assert (report.n, report.exact_match_rate) == (0, 0.0)

    def test_raw_strings_retokenizes(self):
        candidates = {"e1": cand("e1", ("int x;",))}
        strict = corpus_exact_match(self.examples, candidates)
        loose = corpus_exact_match(self.examples, candidates, raw_strings=True)
        assert strict.per_example["e1"] is False
        assert loose.per_example["e1"] is True

    def test_rate_rounds_to_one_decimal(self):
        examples = [make_example(ex_id=f"e{i}", fixed=("ok", ";")) for i in range(293)]
        candidates = {
            f"e{i}": cand(f"e{i}", ("ok", ";") if i < 106 else ("no", ";"))
            for i in range(293)
        }
        assert corpus_exact_match(examples, candidates).exact_match_rate == 36.2


class TestPairedBootstrap:
    def test_identical_vectors_center_on_half(self):
        v = [True] * 60 + [False] * 40
        for seed in range(3):
            r = paired_bootstrap(v, v, n_samples=300, sample_size=200, seed=seed)
            assert r.p_value == 0.5
            assert r.delta == 0.0

    def test_clear_gap_is_significant(self):
        rng = np.random.default_rng(0)
        a = rng.random(1000) < 0.6
        b = rng.random(1000) < 0.4
        r = paired_bootstrap(a, b, n_samples=1000, sample_size=1000, seed=0)
        assert r.p_value < 0.05

    def test_same_seed_reproduces(self):
        rng = np.random.default_rng(1)
        a = rng.random(300) < 0.5
        b = rng.random(300) < 0.45
        r1 = paired_bootstrap(a, b, n_samples=400, sample_size=200, seed=9)
        r2 = paired_bootstrap(a, b, n_samples=400, sample_size=200, seed=9)
        assert r1 == r2

    def test_parallel_is_bit_identical(self):
        rng = np.random.default_rng(2)
        a = rng.random(500) < 0.5
        b = rng.random(500) < 0.48
        serial = paired_bootstrap(a, b, n_samples=600, sample_size=300, seed=3, n_jobs=1)
        for jobs in (2, 3, 7):
            parallel = paired_bootstrap(
                a, b, n_samples=600, sample_size=300, seed=3, n_jobs=jobs
            )
            assert parallel.p_value == serial.p_value

    def test_starts_no_thread(self, monkeypatch):
        rng = np.random.default_rng(4)
        a = rng.random(400) < 0.5
        b = a & (rng.random(400) < 0.9)
        serial = paired_bootstrap(a, b, n_samples=300, sample_size=200, seed=11, n_jobs=1)

        def refuse(thread):
            raise AssertionError(f"paired_bootstrap started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = paired_bootstrap(a, b, n_samples=300, sample_size=200, seed=11, n_jobs=4)
        assert result == serial

    def test_negative_delta_instructs_swap(self):
        a = [False, False, True]
        b = [True, True, True]
        with pytest.raises(ValueError, match="swap"):
            paired_bootstrap(a, b, n_samples=10, sample_size=10)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            paired_bootstrap([True], [True], n_samples=0)

    def test_misaligned_vectors_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            paired_bootstrap([True, False], [True], n_samples=10)

    def test_empty_vectors_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            paired_bootstrap([], [], n_samples=10)

    @pytest.mark.parametrize("seed", [None, True, False, 2.0, "0", np.int64(3)])
    def test_seed_must_be_an_int(self, seed):
        # None would draw fresh OS entropy: a new p on every call.
        with pytest.raises(ValueError, match="seed"):
            paired_bootstrap([True, False], [False, False], n_samples=10, seed=seed)

    def test_report_fields(self):
        v = [True, False, True, False]
        r = paired_bootstrap(v, v, n_samples=50, sample_size=20, seed=4)
        d = r.to_dict()
        assert d["n"] == 4 and d["n_samples"] == 50 and d["sample_size"] == 20
        assert d["seed"] == 4 and d["rate_a"] == 50.0 and d["rate_b"] == 50.0


def _one_stream_p(a, b, n_samples, sample_size, seed):
    """Reference (p, ties) from an earlier rule, in fractions.

    Resamples were drawn in order from one PCG64(seed), sample_size indices
    each; the bootstrap now follows the same law on another stream.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n = len(a)
    twice_observed = 2 * Fraction(sum(a) - sum(b), n)
    exceed, ties = Fraction(0), 0
    for _ in range(n_samples):
        idx = rng.integers(0, n, size=sample_size).tolist()
        gap = Fraction(sum(a[j] - b[j] for j in idx), sample_size)
        if gap > twice_observed:
            exceed += 1
        elif gap == twice_observed:
            exceed += Fraction(1, 2)
            ties += 1
    return exceed / n_samples, ties


def _per_resample_stream_p(a, b, n_samples, sample_size, seed):
    """The earlier rule: resample i drew from SeedSequence(seed, spawn_key=(i,))."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    n = int(a.size)
    diff = a.astype(np.int64) - b.astype(np.int64)
    threshold = 2 * int(diff.sum()) * sample_size
    twice = 0
    for i in range(n_samples):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        )
        idx = rng.integers(0, n, size=sample_size)
        ds = int(diff[idx].sum()) * n
        if ds > threshold:
            twice += 2
        elif ds == threshold:
            twice += 1
    return twice / (2.0 * n_samples)


def _random_pair(rng, n, flip):
    """Aligned outcome vectors, a at least as strong as b."""
    a = [rng.random() < 0.5 for _ in range(n)]
    b = [x if rng.random() > flip else not x for x in a]
    return (a, b) if sum(a) >= sum(b) else (b, a)


def _binomial_pmf(n, k, p):
    """Exact Bin(n, p) probability of k, from math.comb."""
    if p in (0.0, 1.0):
        return float(k == round(n * p))
    return math.exp(math.log(math.comb(n, k)) + k * math.log(p) + (n - k) * math.log1p(-p))


class TestBinomial:
    @pytest.mark.parametrize(
        "n, p",
        [
            (0, 0.3),  # no trials
            (20, 0.0),
            (20, 1.0),
            (30, 0.2),  # n*p = 6: inversion
            (2000, 0.0049),  # n*p = 9.8: inversion, long pmf
            (20, 0.5),  # n*p = 10: BTRS at its boundary
            (100, 0.3),  # BTRS
            (600, 0.4),  # BTRS, wide support
            (50, 0.7),  # p > 0.5: n - Bin(n, 0.3), BTRS
            (40, 0.9),  # p > 0.5: n - Bin(n, 0.1), inversion
        ],
    )
    def test_matches_exact_pmf(self, n, p):
        draws = 20_000
        rng = random.Random(n * 1000 + round(p * 1000))
        counts = [0] * (n + 1)
        for _ in range(draws):
            counts[_binomial(rng, n, p)] += 1
        for k, got in enumerate(counts):
            pk = _binomial_pmf(n, k, p)
            want = draws * pk
            se = math.sqrt(max(want * (1 - pk), 1.0))
            assert abs(got - want) <= 5 * se, (n, p, k, got, want)


class TestBootstrapStream:
    def test_matches_one_stream_reference(self):
        """Same law as numpy's index stream: p within 5 standard errors."""
        rng = random.Random(7)
        n_samples, with_ties = 1000, 0
        for i in range(30):
            n = rng.randint(5, 120)
            a, b = _random_pair(rng, n, rng.choice([0.0, 0.1, 0.5]))
            # A sample size that is a multiple of n makes ties possible.
            sample_size = n * rng.randint(1, 3) if i % 2 else rng.randint(5, 200)
            seed = rng.choice([0, 1, rng.randrange(2**32), rng.randrange(2**70)])
            new = paired_bootstrap(
                a, b, n_samples=n_samples, sample_size=sample_size, seed=seed
            ).p_value
            want, ties = _one_stream_p(
                [int(x) for x in a], [int(x) for x in b], n_samples, sample_size, seed
            )
            old = float(want)
            p_bar = (new + old) / 2
            se = math.sqrt(max(p_bar * (1 - p_bar), 1 / n_samples) * 2 / n_samples)
            assert abs(new - old) <= 5 * se, (n, sample_size, seed, new, old)
            with_ties += 0 < ties < n_samples
        assert with_ties >= 5  # ties mixed with other outcomes, not only a == b

    def test_agrees_with_per_resample_streams(self):
        rng = random.Random(11)
        n_samples = 1000
        for _ in range(30):
            n = rng.randint(20, 400)
            a, b = _random_pair(rng, n, rng.choice([0.05, 0.2, 0.5]))
            sample_size, seed = rng.randint(20, 400), rng.randrange(2**32)
            new = paired_bootstrap(
                a, b, n_samples=n_samples, sample_size=sample_size, seed=seed
            ).p_value
            old = _per_resample_stream_p(a, b, n_samples, sample_size, seed)
            p_bar = (new + old) / 2
            se = math.sqrt(max(p_bar * (1 - p_bar), 1 / n_samples) * 2 / n_samples)
            assert abs(new - old) <= 5 * se, (n, sample_size, seed, new, old)


class TestBestExactMatch:
    def setup_method(self):
        self.examples = [
            make_example(ex_id=f"e{i}", fixed=("v", str(i), ";")) for i in range(4)
        ]

    def _cands(self, hits, source):
        return {
            f"e{i}": cand(f"e{i}", ("v", str(i), ";") if i in hits else ("x",), source)
            for i in range(4)
        }

    def test_union_of_sources(self):
        report = best_exact_match(
            self.examples,
            {"s1": self._cands({0, 1}, "s1"), "s2": self._cands({1, 2}, "s2")},
        )
        assert report["sources"] == {"s1": 50.0, "s2": 50.0}
        assert report["best_exact_match_rate"] == 75.0
        assert report["matched_by"]["e1"] == ["s1", "s2"]

    def test_singleton_equals_plain_rate(self):
        single = {"only": self._cands({0, 3}, "only")}
        report = best_exact_match(self.examples, single)
        plain = corpus_exact_match(self.examples, single["only"])
        assert report["best_exact_match_rate"] == plain.exact_match_rate

    def test_monotone_in_added_sources(self):
        base = {"s1": self._cands({0}, "s1")}
        more = dict(base, s2=self._cands(set(), "s2"), s3=self._cands({2}, "s3"))
        r_base = best_exact_match(self.examples, base)["best_exact_match_rate"]
        r_more = best_exact_match(self.examples, more)["best_exact_match_rate"]
        assert r_more >= r_base
        assert r_more >= max(best_exact_match(self.examples, more)["sources"].values())

    def test_no_sources_rejected(self):
        with pytest.raises(ValueError):
            best_exact_match(self.examples, {})


def test_a_one_shot_iterator_gives_the_lists_result():
    """examples is read once, so an iterator such as storage.iter_dataset(path) serves as well as a list."""
    discussion = make_discussion(utterances=[make_utterance(0, "2014-05-01T10:00:00Z", "it crashes")])
    examples = [
        make_example(ex_id=f"e{i}", split=SPLITS[i % 3], fixed=("v", str(i), ";"), discussion_ids=(discussion.id,))
        for i in range(6)
    ]
    sets = {
        name: {f"e{i}": cand(f"e{i}", ("v", str(i), ";"), name) for i in hits}
        for name, hits in (("s1", (0, 1)), ("s2", (1, 4)))
    }
    discussions = {discussion.id: discussion}
    best = best_exact_match(examples, sets)
    assert best["best_exact_match_rate"] == 50.0
    assert best_exact_match(iter(examples), sets) == best
    assert corpus_exact_match(iter(examples), sets["s1"]) == corpus_exact_match(examples, sets["s1"])
    assert dataset_stats(iter(examples), discussions) == dataset_stats(examples, discussions)


class TestDatasetStats:
    def setup_method(self):
        d1 = make_discussion(
            disc_id="p/q#1",
            project="p/q",
            number=1,
            title="Crash on startup",
            created_at="2014-05-01T10:00:00Z",
            utterances=[
                make_utterance(0, "2014-05-01T10:00:00Z", "it crashes hard"),
                make_utterance(1, "2014-05-20T10:00:00Z", "me too"),
            ],
        )
        d2 = make_discussion(
            disc_id="p/q#2",
            project="p/q",
            number=2,
            title="toml4j bug",
            created_at="2014-05-03T10:00:00Z",
            utterances=[make_utterance(0, "2014-05-03T10:00:00Z", "breaks")],
        )
        self.discussions = {d.id: d for d in (d1, d2)}
        self.examples = [
            make_example(
                ex_id="e1",
                split="train",
                commit_ts="2014-05-10T12:00:00Z",
                buggy=("a", "=", "1", ";"),
                fixed=("a", "=", "2", ";"),
                oracle=("fix", "bug"),
                discussion_ids=("p/q#1",),
            ),
            make_example(
                ex_id="e2",
                split="test",
                commit_ts="2014-05-30T12:00:00Z",
                buggy=("x", "(", ")"),
                fixed=("y", "(", ")"),
                discussion_ids=("p/q#1", "p/q#2"),
            ),
        ]

    def test_overall_hand_computed(self):
        stats = dataset_stats(self.examples, self.discussions)
        overall = stats["overall"]
        assert overall["num_examples"] == 2
        assert overall["num_linked_discussions"] == 2
        assert overall["avg_discussions_per_example"] == 1.5
        # (ex1-d1: 1 utterance post-filter) (ex2-d1: 2) (ex2-d2: 1) -> 4/3
        assert overall["avg_utterances_per_discussion"] == 1.3
        assert overall["avg_tokens_buggy"] == 3.5
        assert overall["avg_tokens_fixed"] == 3.5
        # titles seen per linked discussion: 3, 3, 2 -> 8/3
        assert overall["avg_tokens_title"] == 2.7
        # utterances: 3 (ex1-d1u0), 3, 2 (ex2-d1), 1 (ex2-d2) -> 9/4
        assert overall["avg_tokens_utterance"] == 2.2
        assert overall["avg_tokens_oracle_msg"] == 2.0
        assert overall["avg_tokens_description"] is None

    def test_splits(self):
        stats = dataset_stats(self.examples, self.discussions)
        train = stats["splits"]["train"]
        assert train["num_examples"] == 1
        assert train["avg_utterances_per_discussion"] == 1.0
        assert train["avg_tokens_utterance"] == 3.0
        test = stats["splits"]["test"]
        assert test["avg_discussions_per_example"] == 2.0
        assert test["avg_tokens_title"] == 2.5
        valid = stats["splits"]["valid"]
        assert valid["num_examples"] == 0
        assert valid["avg_tokens_buggy"] is None

    def test_descriptions_counted_when_given(self, tmp_path):
        """Only the descriptions of the discussions an example keeps count: e1 keeps p/q#1, not p/q#2."""
        for rows, expected in (
            ({"p/q#1": ("remove", "trailing", "newlines")}, 3.0),
            ({"p/q#1": ("guard",), "p/q#2": ("a", "b", "c", "d", "e")}, 1.0),
        ):
            path = tmp_path / "desc.jsonl"
            storage.write_jsonl(path, (
                {"example_id": "e1", "discussion_id": disc_id, "description_tokens": list(tokens)}
                for disc_id, tokens in rows.items()
            ))
            stats = dataset_stats(
                self.examples, self.discussions, descriptions=storage.load_descriptions(path)
            )
            assert stats["overall"]["avg_tokens_description"] == expected, rows

    def test_temporal_filter_shapes_the_numbers(self):
        # move e2's commit before d1's second comment: that comment vanishes
        examples = [
            self.examples[0],
            make_example(
                ex_id="e2",
                split="test",
                commit_ts="2014-05-10T12:00:00Z",
                buggy=("x", "(", ")"),
                fixed=("y", "(", ")"),
                discussion_ids=("p/q#1", "p/q#2"),
            ),
        ]
        stats = dataset_stats(examples, self.discussions)
        # pairs now retain 1, 1, 1 utterances
        assert stats["overall"]["avg_utterances_per_discussion"] == 1.0
