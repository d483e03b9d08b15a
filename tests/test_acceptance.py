"""Acceptance gate: one test per shipping criterion.

Every test prints a single ``ACCEPTANCE <n> <label>: PASS|FAIL`` line
(also echoed in the terminal summary via conftest) and then asserts, so a
plain pytest run doubles as the release checklist. Expected values are
frozen literals derived by hand or by independent oracle code, never by
running the library against itself.
"""

import dataclasses
import json
import random
import re
import time
from datetime import datetime, timedelta, timezone

import conftest
from discforge.cli import main as cli_main
from discforge.contexts import ContextSkip, build_context, extract_attended_segments
from discforge.evaluate import (
    best_exact_match,
    corpus_exact_match,
    exact_match,
    paired_bootstrap,
)
from discforge.ingest import mine_projects
from discforge.linking import link_examples, temporal_filter
from discforge.records import (
    AttentionTrace,
    BugFixExample,
    Candidate,
    CommitLinkEvent,
    ContextSpec,
    Discussion,
    Segment,
    Utterance,
)
from discforge.storage import (
    load_attention_trace,
    load_candidates,
    load_dataset,
    load_descriptions,
    load_discussions,
    load_links,
    load_traces,
    save_attention_trace,
    save_candidates,
    save_dataset,
    save_discussions,
    save_links,
)
from discforge.textproc import subtokenize

FIXTURES = "tests/fixtures"
SEP = "<s>"


def _check(number, label, ok, detail=""):
    line = f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 1: end-to-end golden example.
#
# Hand-tokenized atoms for the mwanji/toml4j issue-18 fixture. The method
# here is the buggy snippet itself (the snippet spans the whole method).

TOML4J_BUGGY = [
    "void", "emptyImplicitTable", "(", "String", "table", ",", "int", "line",
    ")", "{", "sb", ".", "append", "(", '"', "Invalid", "table", "definition",
    "due", "to", "empty", "implicit", "table", "name", ":", '"', ")", ".",
    "append", "(", "table", ")", ".", "append", "(", '"', "\\", "n", '"', ")",
    ";", "}",
]
TOML4J_FIXED = TOML4J_BUGGY[:32] + [";", "}"]
TOML4J_METHOD = TOML4J_BUGGY
TOML4J_ORACLE_MSG = [
    "Removed", "trailing", "newlines", "from", "error", "messages", ".",
    "Fixes", "https", ":", "/", "/", "github", ".", "com", "/", "mwanji",
    "/", "toml", "4", "j", "/", "issues", "/", "18",
]
TOML4J_TITLE = ["Parsing", "exception", "messages", "contain", "trailing", "newlines"]
TOML4J_UTT1 = [
    "Some", "of", "the", "parsing", "exceptions", "thrown", "by", "toml", "4",
    "j", "contains", "trailing", "newlines", ".", "This", "is", "somewhat",
    "unusual", ",", "and", "causes", "empty", "lines", "in", "log", "files",
    "when", "the", "exception", "messages", "are", "logged", ".", ".", ".",
]
TOML4J_UTT2 = [
    "The", "idea", "was", "to", "be", "able", "to", "display", "multiple",
    "error", "messages", "at", "once", ".", "However", ",", "processing",
    "stops", "as", "soon", "as", "an", "error", "is", "encountered", ",",
    "so", "that", "'", "s", "not", "even", "possible", ".", "Removing",
    "the", "newlines", "shouldn", "'", "t", "be", "a", "problem", ",",
    "then", ".",
]
TOML4J_DESC = ["remove", "trailing", "newlines", "from", "toml", "4", "j", "log", "messages"]

_CODE = TOML4J_BUGGY + [SEP] + TOML4J_METHOD
EXPECTED_CONTEXTS = {
    "without_nl": _CODE,
    "oracle_msg": _CODE + [SEP] + TOML4J_ORACLE_MSG,
    "whole_discussion": _CODE + [SEP] + TOML4J_TITLE + [SEP] + TOML4J_UTT1 + [SEP] + TOML4J_UTT2,
    "title": _CODE + [SEP] + TOML4J_TITLE,
    "last_utterance": _CODE + [SEP] + TOML4J_UTT2,
    "soln_desc": _CODE + [SEP] + TOML4J_DESC,
    "soln_desc_plus_title": _CODE + [SEP] + TOML4J_DESC + [SEP] + TOML4J_TITLE,
    "attended_segments": _CODE + [SEP] + TOML4J_UTT2 + [SEP] + TOML4J_TITLE,
}


def test_golden_example_pipeline(tmp_path):
    """Archive -> discussions -> link -> all eight contexts -> evaluation."""
    start = time.perf_counter()
    problems = []
    fix = f"{FIXTURES}/toml4j"
    with open(f"{fix}/commits.json", encoding="utf-8") as f:
        commits = json.load(f)

    report = mine_projects(
        ["mwanji/toml4j"],
        "2014-01-01T00:00:00Z",
        "2015-01-01T00:00:00Z",
        str(tmp_path),
        archive_root=f"{fix}/archive",
        commits_by_project=commits,
    )
    if report.issues_in_window != 1 or report.issues_skipped != 0:
        problems.append(f"mining report off: {report.to_dict()}")

    links = load_links(tmp_path / "links.jsonl")
    if len(links) != 1 or links[0].link_source != "message_reference":
        problems.append(f"expected one message_reference link, got {links}")

    discussions = load_discussions(tmp_path / "discussions")
    examples = load_dataset(f"{fix}/examples.jsonl")
    pairs = list(link_examples(examples, links, discussions.values()))
    if [ids for _, ids in pairs] != [("mwanji/toml4j#18",)]:
        problems.append("linking did not attach the discussion")

    ex, ids = pairs[0]
    ex = dataclasses.replace(ex, discussion_ids=ids)
    descriptions = load_descriptions(f"{fix}/descriptions.jsonl")
    traces = load_traces(f"{fix}/trace.json")
    for kind, expected in EXPECTED_CONTEXTS.items():
        got = build_context(
            ex,
            ContextSpec(kind=kind),
            discussions,
            descriptions=descriptions,
            traces=traces,
        )
        if got != expected:
            problems.append(f"{kind} context differs from the frozen tokens")

    cand_fixed = load_candidates(f"{fix}/candidate_fixed.jsonl")
    cand_buggy = load_candidates(f"{fix}/candidate_buggy.jsonl")
    if not exact_match(cand_fixed[ex.id].candidate_tokens, ex.fixed_tokens):
        problems.append("true fixed snippet did not count as a match")
    if exact_match(cand_buggy[ex.id].candidate_tokens, ex.fixed_tokens):
        problems.append("buggy snippet counted as a match")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, budget is 5s")
    _check(1, "end-to-end golden example", not problems,
           problems[0] if problems else f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: temporal filter properties over randomized fixtures.


def _iso(dt):
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def test_temporal_filter_randomized():
    """1,000 random discussion/cutoff pairs against a datetime oracle."""
    rng = random.Random(20140501)
    base = datetime(2014, 5, 1, tzinfo=timezone.utc)
    problems = []
    boundary_trials = 0

    for trial in range(1000):
        n_utts = rng.randint(0, 6)
        offsets = sorted(rng.randint(0, 10_000) for _ in range(n_utts))
        cutoff_minute = rng.randint(0, 10_000)
        if n_utts and rng.random() < 0.4:
            offsets[rng.randrange(n_utts)] = cutoff_minute
            offsets.sort()
        utterances = tuple(
            Utterance(
                index=i,
                author="u",
                created_at=_iso(base + timedelta(minutes=off)),
                body_raw=f"utterance {i}",
            )
            for i, off in enumerate(offsets)
        )
        disc = Discussion(
            id=f"demo/p#{trial + 1}",
            project="demo/p",
            issue_number=trial + 1,
            title="some report",
            created_at=_iso(base),
            utterances=utterances,
        )
        cutoff = _iso(base + timedelta(minutes=cutoff_minute))
        got = temporal_filter(disc, cutoff)

        # Oracle works on the integer minute offsets, independent of the
        # string comparison inside the library.
        expected_bodies = [
            f"utterance {i}" for i, off in enumerate(offsets) if off < cutoff_minute
        ]
        if [u.body_raw for u in got.utterances] != expected_bodies:
            problems.append(f"trial {trial}: wrong utterances retained")
            break
        if [u.index for u in got.utterances] != list(range(len(expected_bodies))):
            problems.append(f"trial {trial}: indexes not reassigned sequentially")
            break
        if any(u.created_at >= cutoff for u in got.utterances):
            problems.append(f"trial {trial}: retained content at or after the cutoff")
            break
        if cutoff_minute in offsets:
            boundary_trials += 1
        expected_last = max(
            (u.created_at for u in got.utterances), default=disc.created_at
        )
        if got.last_activity_at != expected_last:
            problems.append(f"trial {trial}: last_activity_at not recomputed")
            break
        if got.title != disc.title or got.created_at != disc.created_at:
            problems.append(f"trial {trial}: title or created_at changed")
            break

    if boundary_trials < 200:
        problems.append(f"only {boundary_trials} boundary-equal trials generated")
    _check(2, "temporal filter properties", not problems,
           problems[0] if problems else f"{boundary_trials} boundary-equal trials")


# ---------------------------------------------------------------------------
# Criterion 3: attended-segment extraction equals a brute-force oracle.


def _brute_force_attended(trace):
    out, seen = [], set()
    for row in trace.weights:
        best = max(range(len(row)), key=row.__getitem__)  # first max wins
        hit = None
        for seg in trace.segments:
            if seg.token_start <= best < seg.token_end:
                hit = seg
                break
        if hit is not None and hit.segment_id not in seen:
            seen.add(hit.segment_id)
            out.append(hit)
    return out


def test_attended_segments_oracle():
    """1,000 random traces, many with exact argmax ties."""
    rng = random.Random(99)
    start = time.perf_counter()
    problems = []
    tie_rows = 0

    for trial in range(1000):
        n = rng.randint(10, 200)
        steps = rng.randint(2, 50)
        k = rng.randint(1, min(8, n // 2))
        cuts = sorted(rng.sample(range(n + 1), 2 * k))
        spans = list(zip(cuts[::2], cuts[1::2]))
        if len(spans) >= 2 and rng.random() < 0.3:
            j = rng.randrange(1, len(spans))
            spans[j] = (spans[j - 1][1], spans[j][1])  # touching segments
        segments = tuple(
            Segment(
                segment_id=i,
                kind="utterance" if i % 2 else "title",
                discussion_id="demo/p#1",
                utterance_index=i if i % 2 else None,
                token_start=a,
                token_end=b,
            )
            for i, (a, b) in enumerate(spans)
        )
        rows = []
        for _ in range(steps):
            ints = [rng.randint(0, 4) for _ in range(n)]
            if not any(ints):
                ints[rng.randrange(n)] = 1
            total = sum(ints)
            row = tuple(v / total for v in ints)
            if ints.count(max(ints)) > 1:
                tie_rows += 1
            rows.append(row)
        trace = AttentionTrace(
            example_id="demo/p:t",
            num_input_tokens=n,
            segments=segments,
            weights=tuple(rows),
        )
        if extract_attended_segments(trace) != _brute_force_attended(trace):
            problems.append(f"trial {trial}: extraction differs from brute force")
            break

    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s, budget is 10s")
    if tie_rows < 1000:
        problems.append(f"only {tie_rows} tied rows generated")
    _check(3, "attended-segment oracle equivalence", not problems,
           problems[0] if problems else f"{elapsed:.2f}s, {tie_rows} tied rows")


# ---------------------------------------------------------------------------
# Criterion 4: bootstrap calibration.


def test_bootstrap_calibration():
    """Null p around 0.5, strong split significant, parallel bit-identical."""
    problems = []
    rng = random.Random(4)
    same = [rng.random() < 0.55 for _ in range(800)]
    for seed in range(5):
        p = paired_bootstrap(same, same, n_samples=10_000, sample_size=5_000, seed=seed).p_value
        if not 0.4 <= p <= 0.6:
            problems.append(f"identical vectors, seed {seed}: p={p}")

    a = [i < 600 for i in range(1000)]
    b = [300 <= i < 700 for i in range(1000)]
    start = time.perf_counter()
    first = paired_bootstrap(a, b, n_samples=10_000, sample_size=5_000, seed=11)
    elapsed = time.perf_counter() - start
    for seed in (11, 12, 13, 14, 15):
        res = first if seed == 11 else paired_bootstrap(
            a, b, n_samples=10_000, sample_size=5_000, seed=seed
        )
        if not res.p_value < 0.05:
            problems.append(f"60/40 split, seed {seed}: p={res.p_value}")

    serial = paired_bootstrap(a, b, n_samples=10_000, sample_size=5_000, seed=7, n_jobs=1)
    for jobs in (3, 4):
        par = paired_bootstrap(a, b, n_samples=10_000, sample_size=5_000, seed=7, n_jobs=jobs)
        if par.p_value != serial.p_value:
            problems.append(f"n_jobs={jobs} p differs: {par.p_value} vs {serial.p_value}")

    if elapsed >= 10.0:
        problems.append(f"10,000x5,000 run took {elapsed:.2f}s, budget is 10s")
    _check(4, "bootstrap calibration", not problems,
           problems[0] if problems else f"{elapsed:.2f}s per 10,000x5,000 run")


# ---------------------------------------------------------------------------
# Criterion 5: corpus summary statistics against a hand-computed oracle.
#
# The fixture has 10 examples over 2 discussions. Even-indexed examples fix
# at 2014-05-10 (discussion 1 keeps utterances of 2 and 3 tokens, discussion
# 2 keeps its single 4-token utterance); odd-indexed fix at 2014-05-30 and
# keep everything. Linkage: examples 0/2/4/6 -> d1, 1/3/5/9 -> d1+d2,
# 7 -> d2, 8 -> nothing. All sums below are short enough to redo on paper.

STATS_ORACLE = {
    "overall": {
        "num_examples": 10, "num_linked_discussions": 2,
        "avg_discussions_per_example": 1.3,      # 13 links / 10 examples
        "avg_utterances_per_discussion": 1.9,    # 25 utterances / 13 pairs
        "avg_tokens_buggy": 3.0, "avg_tokens_fixed": 2.0,
        "avg_tokens_title": 2.6,                 # 8*3 + 5*2 = 34 / 13
        "avg_tokens_utterance": 2.6,             # 64 tokens / 25 utterances
        "avg_tokens_oracle_msg": 4.0, "avg_tokens_description": 5.0,
    },
    "splits": {
        "train": {
            "num_examples": 6, "num_linked_discussions": 2,
            "avg_discussions_per_example": 1.5,      # 9 / 6
            "avg_utterances_per_discussion": 2.0,    # 18 / 9
            "avg_tokens_buggy": 3.0, "avg_tokens_fixed": 2.0,
            "avg_tokens_title": 2.7,                 # 24 / 9
            "avg_tokens_utterance": 2.5,             # 45 / 18
            "avg_tokens_oracle_msg": 4.0, "avg_tokens_description": 5.0,
        },
        "valid": {
            "num_examples": 2, "num_linked_discussions": 2,
            "avg_discussions_per_example": 1.0,      # 2 / 2
            "avg_utterances_per_discussion": 1.5,    # 3 / 2
            "avg_tokens_buggy": 3.0, "avg_tokens_fixed": 2.0,
            "avg_tokens_title": 2.5,                 # 5 / 2
            "avg_tokens_utterance": 3.0,             # 9 / 3
            "avg_tokens_oracle_msg": None, "avg_tokens_description": None,
        },
        "test": {
            "num_examples": 2, "num_linked_discussions": 2,
            "avg_discussions_per_example": 1.0,      # 2 / 2
            "avg_utterances_per_discussion": 2.0,    # 4 / 2
            "avg_tokens_buggy": 3.0, "avg_tokens_fixed": 2.0,
            "avg_tokens_title": 2.5,                 # 5 / 2
            "avg_tokens_utterance": 2.5,             # 10 / 4
            "avg_tokens_oracle_msg": None, "avg_tokens_description": None,
        },
    },
}


def test_stats_report_oracle(tmp_path, capsys):
    """The stats subcommand reproduces the hand-computed summary exactly.

    A cross-check against a full reconstructed real-world corpus is
    environment-dependent (it needs live mining) and is intentionally not
    part of this gate; this fixture freezes the arithmetic instead.
    """
    fix = f"{FIXTURES}/stats10"
    out = tmp_path / "stats.json"
    rc = cli_main([
        "stats",
        "--dataset", f"{fix}/examples.jsonl",
        "--discussions", f"{fix}/discussions.jsonl",
        "--desc", f"{fix}/descriptions.jsonl",
        "--out", str(out),
    ])
    capsys.readouterr()
    problems = []
    if rc != 0:
        problems.append(f"stats exited {rc}")
    else:
        with open(out, encoding="utf-8") as f:
            report = json.load(f)
        report.pop("inputs", None)
        if report != STATS_ORACLE:
            for scope, fields in STATS_ORACLE["splits"].items():
                for key, val in fields.items():
                    got = report.get("splits", {}).get(scope, {}).get(key)
                    if got != val:
                        problems.append(f"splits.{scope}.{key}: {got} != {val}")
            for key, val in STATS_ORACLE["overall"].items():
                got = report.get("overall", {}).get(key)
                if got != val:
                    problems.append(f"overall.{key}: {got} != {val}")
            if not problems:
                problems.append("report shape differs from the oracle")
    _check(5, "stats report oracle", not problems,
           problems[0] if problems else "all fields exact")


# ---------------------------------------------------------------------------
# Criterion 6: composition and truncation properties on random examples.


def _random_pool(rng):
    pool = {}
    for d in range(50):
        utts = []
        for i in range(rng.randint(0, 3)):
            length = 300 if rng.random() < 0.06 else rng.randint(1, 30)
            utts.append(
                Utterance(
                    index=i,
                    author="u",
                    created_at=_iso(
                        datetime(2014, 5, 1, tzinfo=timezone.utc)
                        + timedelta(hours=i, minutes=rng.randint(0, 59))
                    ),
                    body_raw="placeholder",
                    body_tokens=tuple(f"w{rng.randint(0, 9)}" for _ in range(length)),
                )
            )
        disc = Discussion(
            id=f"demo/p#{d + 1}",
            project="demo/p",
            issue_number=d + 1,
            title=" ".join(f"t{rng.randint(0, 9)}" for _ in range(rng.randint(1, 8))),
            created_at="2014-05-01T00:00:00Z",
            utterances=tuple(utts),
        )
        pool[disc.id] = disc
    return pool


def test_context_composition_properties():
    """10,000 random examples: budget, prefix stability, NL independence."""
    rng = random.Random(1024)
    pool = _random_pool(rng)
    pool_ids = list(pool)
    problems = []
    built = 0

    for i in range(10_000):
        buggy = tuple(f"b{j}" for j in range(rng.randint(1, 6)))
        example = BugFixExample(
            id=f"demo/p:e{i}",
            project="demo/p",
            commit_sha=format(i + 1, "040x"),
            commit_timestamp=_iso(
                datetime(2014, 5, 1, tzinfo=timezone.utc)
                + timedelta(hours=rng.randint(0, 5))
            ),
            split="test",
            buggy_tokens=buggy,
            fixed_tokens=buggy + ("x",),
            method_tokens=tuple(f"m{j}" for j in range(rng.randint(1, 6))),
            discussion_ids=tuple(rng.sample(pool_ids, rng.randint(0, 3))),
        )
        bare = build_context(example, ContextSpec(kind="without_nl"), pool)
        if bare != build_context(example, ContextSpec(kind="without_nl"), {}):
            problems.append(f"example {i}: without_nl depends on the discussions")
            break
        code_prefix = list(example.buggy_tokens) + [SEP] + list(example.method_tokens)
        if bare != code_prefix:
            problems.append(f"example {i}: without_nl is not buggy <s> method")
            break

        kind = rng.choice(("whole_discussion", "title", "last_utterance"))
        try:
            untruncated = build_context(
                example, ContextSpec(kind=kind, token_limit=1_000_000), pool
            )
        except ContextSkip:
            continue
        built += 1
        if untruncated[: len(code_prefix)] != code_prefix:
            problems.append(f"example {i}: {kind} does not extend buggy <s> method")
            break
        for limit in (512, 1024):
            got = build_context(example, ContextSpec(kind=kind, token_limit=limit), pool)
            if len(got) > limit:
                problems.append(f"example {i}: {kind} exceeds the {limit} budget")
                break
            if got != untruncated[:limit]:
                problems.append(f"example {i}: {kind} truncation is not prefix-stable")
                break
        else:
            continue
        break

    if built < 5000:
        problems.append(f"only {built} NL contexts built, generator too skippy")
    _check(6, "context composition properties", not problems,
           problems[0] if problems else f"{built} NL contexts over 10,000 examples")


# ---------------------------------------------------------------------------
# Criterion 7: the multi-source upper bound dominates single sources.


def test_best_match_monotonicity():
    rng = random.Random(7)
    problems = []

    for trial in range(300):
        n = rng.randint(1, 30)
        examples = [
            BugFixExample(
                id=f"demo/p:e{trial}.{j}",
                project="demo/p",
                commit_sha=format(j + 1, "040x"),
                commit_timestamp="2014-05-10T00:00:00Z",
                split="test",
                buggy_tokens=("a", "b"),
                fixed_tokens=("a", "c", str(j)),
                method_tokens=("m",),
            )
            for j in range(n)
        ]
        sets = {}
        for s in range(rng.randint(1, 5)):
            cands = {}
            for ex in examples:
                if rng.random() < 0.4:
                    continue
                toks = ex.fixed_tokens if rng.random() < 0.4 else ("junk", str(s))
                cands[ex.id] = Candidate(
                    example_id=ex.id, candidate_tokens=toks, source=f"s{s}"
                )
            sets[f"s{s}"] = cands

        report = best_exact_match(examples, sets)
        best_count = sum(bool(v) for v in report["matched_by"].values())
        for name, cands in sets.items():
            single = corpus_exact_match(examples, cands, representation=name)
            matches = sum(bool(v) for v in single.per_example.values())
            if best_count < matches:
                problems.append(f"trial {trial}: best below source {name}")
            if report["best_exact_match_rate"] < report["sources"][name]:
                problems.append(f"trial {trial}: best rate below {name} rate")
            solo = best_exact_match(examples, {name: cands})
            if solo["best_exact_match_rate"] != single.exact_match_rate:
                problems.append(f"trial {trial}: singleton rate differs for {name}")
        if len(sets) > 1:
            smaller = dict(list(sets.items())[:-1])
            sub = best_exact_match(examples, smaller)
            sub_count = sum(bool(v) for v in sub["matched_by"].values())
            if sub_count > best_count:
                problems.append(f"trial {trial}: dropping a source raised the bound")
        if problems:
            break

    _check(7, "best-match monotonicity", not problems,
           problems[0] if problems else "300 randomized trials")


# ---------------------------------------------------------------------------
# Criterion 8: persistence round-trips preserve every record exactly.

_NASTY_BODIES = (
    "prefix <s> infix <s> suffix",
    "```java\nint x = 1;\n```\ntrailing prose",
    "non-ASCII: 日本語 und ße § plus emoji 🙂",
    "windows\r\nline\r\nendings",
)


def test_round_trip_persistence(tmp_path):
    rng = random.Random(8)
    problems = []

    def token(j):
        return rng.choice(("<s>", "```", "日本語", "ß", "tok%d" % j, "{", "\\"))

    examples = [
        BugFixExample(
            id=f"demo/p:e{i}",
            project="demo/p",
            commit_sha=format(i + 1, "040x"),
            commit_timestamp="2014-05-10T00:00:00Z",
            split=rng.choice(("train", "valid", "test")),
            buggy_tokens=tuple(token(j) for j in range(rng.randint(1, 8))),
            fixed_tokens=("fixed",) + tuple(token(j) for j in range(rng.randint(1, 8))),
            method_tokens=(token(0),),
            oracle_msg_tokens=("<s>", "oracle") if i % 2 else None,
            discussion_ids=(f"demo/p#{i + 1}",),
        )
        for i in range(50)
    ]
    save_dataset(tmp_path / "ex.jsonl", examples)
    if load_dataset(tmp_path / "ex.jsonl") != examples:
        problems.append("dataset round-trip changed records")

    discussions = [
        Discussion(
            id=f"demo/p#{i + 1}",
            project="demo/p",
            issue_number=i + 1,
            title=f"report {i} with ümlauts",
            created_at="2014-05-01T00:00:00Z",
            utterances=tuple(
                Utterance(
                    index=j,
                    author="author 🙂",
                    created_at="2014-05-01T10:00:00Z",
                    body_raw=rng.choice(_NASTY_BODIES),
                )
                for j in range(rng.randint(0, 4))
            ),
        )
        for i in range(50)
    ]
    save_discussions(tmp_path / "disc.jsonl", discussions)
    loaded = load_discussions(tmp_path / "disc.jsonl")
    if [loaded[d.id] for d in discussions] != discussions:
        problems.append("discussion round-trip changed records")

    trace = AttentionTrace(
        example_id="demo/p:e0",
        num_input_tokens=6,
        segments=(
            Segment(segment_id=0, kind="title", discussion_id="demo/p#1",
                    utterance_index=None, token_start=1, token_end=3),
            Segment(segment_id=1, kind="utterance", discussion_id="demo/p#1",
                    utterance_index=0, token_start=3, token_end=6),
        ),
        weights=((0.25, 0.25, 0.0, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.5, 0.5)),
        meta={"note": "non-ASCII ✓"},
    )
    save_attention_trace(tmp_path / "trace.json", trace)
    if load_attention_trace(tmp_path / "trace.json") != trace:
        problems.append("trace round-trip changed the record")

    candidates = {
        ex.id: Candidate(example_id=ex.id, candidate_tokens=ex.fixed_tokens, source="best")
        for ex in examples[:20]
    }
    save_candidates(tmp_path / "cand.jsonl", candidates.values())
    if load_candidates(tmp_path / "cand.jsonl") != candidates:
        problems.append("candidate round-trip changed records")

    links = [
        CommitLinkEvent(
            project="demo/p",
            issue_number=i + 1,
            commit_sha=format(i + 1, "040x"),
            linked_at="2014-05-09T00:00:00Z",
            link_source="message_reference" if i % 2 else "timeline_event",
        )
        for i in range(10)
    ]
    save_links(tmp_path / "links.jsonl", links)
    if load_links(tmp_path / "links.jsonl") != links:
        problems.append("link round-trip changed records")

    _check(8, "round-trip persistence", not problems,
           problems[0] if problems else "datasets, discussions, traces, candidates, links")


# ---------------------------------------------------------------------------
# Criterion 9: subtokenizer versus an independent regex oracle.

_ORACLE_RUN = re.compile(r"\d+|[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+")


def _oracle_subtokens(identifier):
    pieces = []
    for run in identifier.split("_"):
        pieces.extend(_ORACLE_RUN.findall(run))
    return pieces if pieces else [identifier]


_CLASSICS = [
    "HTMLParser", "toml4j", "XMLHttpRequest", "parseURL", "URL", "getX2",
    "snake_case_word", "SCREAMING_SNAKE_CASE", "__dunder__", "A1b2C3",
    "x", "X", "42", "___", "HTTPSProxy2x", "aBCd", "emptyImplicitTable",
]

_SYLLABLES = ["foo", "bar", "baz", "qux", "parse", "http", "html", "url", "json", "id"]


def _random_identifier(rng):
    parts = []
    for _ in range(rng.randint(1, 5)):
        word = rng.choice(_SYLLABLES)
        style = rng.randrange(6)
        if style == 0:
            word = word.upper()
        elif style == 1:
            word = word.capitalize()
        elif style == 2:
            word = str(rng.randint(0, 99))
        elif style == 3:
            word = word + str(rng.randint(0, 9))
        parts.append(word)
    ident = ("_" if rng.random() < 0.4 else "").join(parts)
    if rng.random() < 0.15:
        ident = "_" + ident
    if rng.random() < 0.15:
        ident += "_"
    return ident


def test_subtokenizer_oracle():
    rng = random.Random(9)
    problems = []
    idents = _CLASSICS + [_random_identifier(rng) for _ in range(1000)]
    for ident in idents:
        got = subtokenize(ident)
        expected = _oracle_subtokens(ident)
        if got != expected:
            problems.append(f"{ident!r}: {got} != {expected}")
            break
        if any(c.isalnum() for c in ident):
            if "".join(got) != ident.replace("_", ""):
                problems.append(f"{ident!r}: pieces do not rejoin")
                break
    _check(9, "subtokenizer oracle", not problems,
           problems[0] if problems else f"{len(idents)} identifiers")
