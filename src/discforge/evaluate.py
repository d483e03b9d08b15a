"""Evaluation: exact match, paired bootstrap significance, dataset stats.

The bootstrap draws every resample from one ``random.Random(seed)`` stream,
in order: resample i takes the next two binomial draws, so it depends only
on the seed, i, the outcome counts and sample_size, and a run with more
resamples begins with the same ones. Python keeps ``random()``'s stream for
a seed the same across versions. All resample comparisons are done in
integer arithmetic, never floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

from .linking import _described, prepare_discussions
from .records import SPLITS, EvalReport, _check_int, _percent
from .textproc import code_tokenize


def exact_match(candidate_tokens, reference_tokens) -> bool:
    """Token-for-token equality."""
    return tuple(candidate_tokens) == tuple(reference_tokens)


def _matches(candidate, ex, raw_strings=False) -> bool:
    """The one match rule: candidate (None when missing) reproduces ex's fixed code.

    With raw_strings=True the candidate tokens are treated as raw text and
    re-tokenized first, so formatting differences in model output do not matter.
    """
    if candidate is None:
        return False
    tokens = candidate.candidate_tokens
    if raw_strings:
        tokens = code_tokenize(" ".join(tokens))
    return exact_match(tokens, ex.fixed_tokens)


def corpus_exact_match(examples, candidates, *, representation="", raw_strings=False):
    """Score one candidate set against the examples' fixed code.

    examples may be any iterable, such as storage.iter_dataset(path); it is
    read once. Examples with no candidate count as non-matches and are
    tallied in the report's `missing`. raw_strings is as for _matches.
    """
    per_example = {}
    missing = 0
    for ex in examples:
        cand = candidates.get(ex.id)
        missing += cand is None
        per_example[ex.id] = _matches(cand, ex, raw_strings)
    return EvalReport(representation, per_example, missing)


@dataclass(frozen=True)
class BootstrapResult:
    """Paired bootstrap comparison of two candidate sources."""

    p_value: float
    delta: float
    rate_a: float
    rate_b: float
    n: int
    n_samples: int
    sample_size: int
    seed: int

    def to_dict(self) -> dict:
        return {**asdict(self), "p_value": round(self.p_value, 4)}


def _binomial(rng, n: int, p: float) -> int:
    """One Bin(n, p) draw from rng: inversion when n*p < 10, BTRS otherwise.

    BTRS is Hörmann's transformed rejection with squeeze (1993, "The
    generation of binomial random variates", J. Statist. Comput. Simul. 46).
    """
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    q = 1.0 - p
    if n * p < 10:
        u, k, f = rng.random(), 0, q**n
        while u > f and k < n:  # rounding can leave u above the total mass
            u -= f
            k += 1
            f *= (n - k + 1) * p / (k * q)
        return k
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha, v_r = (2.83 + 5.1 / b) * spq, 0.92 - 4.2 / b
    m = math.floor((n + 1) * p)
    h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
    while True:
        u, v = rng.random() - 0.5, rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2 * a / us + b) * u + n * p + 0.5) if us > 0 else -1
        if not 0 <= k <= n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        lhs = math.log(v * alpha / (a / (us * us) + b))
        if lhs <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * math.log(p / q):
            return k


def _check_bootstrap_args(n_samples, sample_size, seed):
    """Raise RecordError unless each is an int at or above its minimum (1, 1, 0)."""
    _check_int(n_samples, "n_samples", 1)
    _check_int(sample_size, "sample_size", 1)
    _check_int(seed, "seed", 0)


def paired_bootstrap(
    outcomes_a,
    outcomes_b,
    *,
    n_samples: int = 10000,
    sample_size: int = 5000,
    seed: int = 0,
    n_jobs: int = 1,
) -> BootstrapResult:
    """Probability that system a's observed advantage over b is luck.

    Both outcome vectors must be aligned over the same examples, a being
    the system with the higher (or equal) exact-match rate. Each resample
    draws sample_size examples with replacement and the p-value is the
    fraction of resamples whose rate gap exceeds twice the observed gap.
    seed must be an int >= 0, so the same call always gives the same p.
    n_jobs is accepted for compatibility and has no effect: the resamples
    run on one thread.

    Each resample is two draws from one ``random.Random(seed)``, in order:
    ``up ~ Bin(sample_size, plus/n)`` on examples only a matched, then
    ``down ~ Bin(sample_size - up, minus/(n - plus))`` on those only b
    matched. A run with more resamples begins with the same ones.
    """
    a = [bool(x) for x in outcomes_a]
    b = [bool(x) for x in outcomes_b]
    if len(a) != len(b):
        raise ValueError(f"outcome vectors must be aligned, got {len(a)} vs {len(b)} outcomes")
    n = len(a)
    if n == 0:
        raise ValueError("outcome vectors are empty")
    _check_bootstrap_args(n_samples, sample_size, seed)

    plus = sum(x and not y for x, y in zip(a, b))
    minus = sum(y and not x for x, y in zip(a, b))
    D = plus - minus
    delta = D / n
    if D < 0:
        raise ValueError(
            "system a scores below system b (delta < 0); swap the arguments so "
            "a is the stronger system and interpret p for that direction"
        )

    # Doubled exceedance count: 2 when the resampled gap strictly exceeds
    # twice the observed gap, 1 on exact equality (a tie splits the
    # difference). Comparing Ds*n against 2*D*sample_size keeps everything
    # integral.
    threshold = 2 * D * sample_size
    p_up, p_down = plus / n, (minus / (n - plus) if minus else 0.0)
    twice = 0
    rng = random.Random(seed)
    for _ in range(n_samples):
        up = _binomial(rng, sample_size, p_up)
        ds = (up - _binomial(rng, sample_size - up, p_down)) * n
        if ds > threshold:
            twice += 2
        elif ds == threshold:
            twice += 1

    return BootstrapResult(
        p_value=twice / (2.0 * n_samples),
        delta=delta,
        rate_a=_percent(sum(a), n),
        rate_b=_percent(sum(b), n),
        n=n,
        n_samples=n_samples,
        sample_size=sample_size,
        seed=seed,
    )


def best_exact_match(examples, candidate_sets: dict) -> dict:
    """Oracle upper bound: an example counts if any source matched it.

    candidate_sets maps source name -> {example_id -> Candidate}. examples
    may be any iterable and is read once: each example is checked against
    every source as it is read, and `matched_by` lists, by example id, the
    sources that matched it in candidate_sets order. Each source's own rate
    and the best rate are counted from that table, so the best rate can
    never be below any of them.
    """
    if not candidate_sets:
        raise ValueError("need at least one candidate set")
    matched_by = {
        ex.id: [name for name, candidates in candidate_sets.items() if _matches(candidates.get(ex.id), ex)]
        for ex in examples
    }
    n = len(matched_by)
    return {
        "n": n,
        "sources": {name: _percent(sum(name in v for v in matched_by.values()), n) for name in candidate_sets},
        "best_exact_match_rate": _percent(sum(bool(v) for v in matched_by.values()), n),
        "matched_by": matched_by,
    }


def _code_len(tokens) -> int:
    return len(code_tokenize(" ".join(tokens)))


def _measure(ex, discussions, descriptions) -> dict:
    """One example's linked discussion ids and its values for each of _AVERAGES."""
    prepared = prepare_discussions(ex, discussions)
    return {
        "ids": [d.id for d in prepared],
        "discussions_per_example": [len(prepared)],
        "utterances_per_discussion": [len(d.utterances) for d in prepared],
        "tokens_buggy": [_code_len(ex.buggy_tokens)],
        "tokens_fixed": [_code_len(ex.fixed_tokens)],
        "tokens_title": [len(code_tokenize(d.title)) for d in prepared],
        "tokens_utterance": [len(code_tokenize(u.body_raw)) for d in prepared for u in d.utterances],
        "tokens_oracle_msg": [_code_len(ex.oracle_msg_tokens)] if ex.oracle_msg_tokens else [],
        "tokens_description": [_code_len(t) for t in _described(ex.id, prepared, descriptions or {}).values()],
    }


# dataset_stats reports avg_<key> of each, in this order.
_AVERAGES = ("discussions_per_example", "utterances_per_discussion", "tokens_buggy", "tokens_fixed",
             "tokens_title", "tokens_utterance", "tokens_oracle_msg", "tokens_description")


def _summary(group) -> dict:
    return {
        "num_examples": group["examples"],
        "num_linked_discussions": len(group["ids"]),
        **{f"avg_{key}": round(total / n, 1) if n else None for key, (total, n) in group["sums"].items()},
    }


def dataset_stats(examples, discussions, *, descriptions=None) -> dict:
    """Corpus summary, overall and per split.

    Utterance and discussion numbers reflect the temporal filter (content
    at or after each example's fixing commit is not counted), and only the
    descriptions (storage.load_descriptions) of the discussions an example
    keeps count, so the stats describe what a model could actually see.
    Token lengths use code_tokenize over the underlying text. examples may
    be any iterable and is read once: each example is measured as it is
    read, and only integer sums and counts are kept, overall and per split.
    """
    totals = {
        group: {"examples": 0, "ids": set(), "sums": {key: [0, 0] for key in _AVERAGES}}
        for group in ("overall", *SPLITS)
    }
    for ex in examples:
        row = _measure(ex, discussions, descriptions)
        for group in (totals["overall"], totals[ex.split]):
            group["examples"] += 1
            group["ids"].update(row["ids"])
            for key, sums in group["sums"].items():
                sums[0] += sum(row[key])
                sums[1] += len(row[key])
    return {"overall": _summary(totals["overall"]), "splits": {split: _summary(totals[split]) for split in SPLITS}}
