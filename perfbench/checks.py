"""Checks of one iteration's outputs against the generator's planted truth.

Each ``check_<workload>(out_dir, truth)`` returns ``(checks, counts)``:
``checks`` is a list of ``(name, ok, detail)``, one per output check, and
``counts`` holds observability figures read from the output files
(skip reasons, links per ``link_source``), which repeat exactly for a seed.
"""

from __future__ import annotations

import json
import os
from collections import Counter

TOKEN_LIMIT = 1024
RENDER_REPRS = (
    "without_nl",
    "oracle_msg",
    "whole_discussion",
    "title",
    "last_utterance",
    "soln_desc",
    "soln_desc_plus_title",
)
SKIP_REASONS = {
    "no oracle commit message": "no_oracle_msg",
    "no discussions": "no_discussions",
    "no utterance survives the temporal filter": "no_utterance",
    "no solution description": "no_description",
    "no attention trace": "no_trace",
}
SKIP_SLUGS = tuple(SKIP_REASONS.values()) + ("trace_segment_absent", "other")


def skip_slug(reason):
    if reason.startswith("trace names segment"):
        return "trace_segment_absent"
    return SKIP_REASONS.get(reason, "other")


def read_jsonl(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _context_ok(tokens, ex):
    buggy = ex["buggy"]
    if len(tokens) > TOKEN_LIMIT or tokens[: len(buggy)] != buggy[:TOKEN_LIMIT]:
        return False
    return not (ex["forbidden"] and set(ex["forbidden"]).intersection(tokens))


def check_render(out, truth):
    examples = {e["id"]: e for e in truth["examples"]}
    n = len(examples)
    checks, skips = [], Counter()
    for kind in RENDER_REPRS:
        rows = read_jsonl(os.path.join(out, f"ctx-{kind}.jsonl"))
        skipped = read_jsonl(os.path.join(out, f"skip-{kind}.jsonl"))
        skips.update(skip_slug(s["reason"]) for s in skipped)
        bad = sum(not _context_ok(r["input_tokens"], examples[r["example_id"]]) for r in rows)
        want = truth["built"][kind]
        ok = len(rows) == want and len(skipped) == n - want and bad == 0
        checks.append(
            (f"context.{kind}", ok, f"built {len(rows)}/{want}, skipped {len(skipped)}/{n - want}, bad {bad}")
        )

    rows = read_jsonl(os.path.join(out, "segments.jsonl"))
    bad = sum(not _context_ok(r["input_tokens"], examples[r["example_id"]]) for r in rows)
    checks.append(
        ("segments", len(rows) == truth["segments"] and bad == 0, f"{len(rows)}/{truth['segments']}, bad {bad}")
    )

    report = read_json(os.path.join(out, "stats.json"))
    got = {"overall": report["overall"], **report["splits"]}
    wrong = [
        f"{part}.{key}"
        for part, want in truth["stats"].items()
        for key, value in want.items()
        if got[part][key] != value
    ]
    checks.append(("stats", not wrong, "mismatched: " + ", ".join(wrong) if wrong else "ok"))
    return checks, {f"contexts.skipped.{slug}": skips[slug] for slug in SKIP_SLUGS}


def check_mine_link(out, truth):
    mined = os.path.join(out, "mined")
    disc_dir = os.path.join(mined, "discussions")
    discussions = [d for name in sorted(os.listdir(disc_dir)) for d in read_jsonl(os.path.join(disc_dir, name))]
    utterances = sum(len(d["utterances"]) for d in discussions)
    checks = [
        (
            "mined",
            len(discussions) == truth["discussions"] and utterances == truth["utterances"],
            f"{len(discussions)}/{truth['discussions']} discussions, {utterances}/{truth['utterances']} utterances",
        )
    ]
    linked = {ex["id"]: ex["discussion_ids"] for ex in read_jsonl(os.path.join(out, "linked.jsonl"))}
    wrong = sorted(ex for ex, ids in truth["examples"].items() if linked.get(ex) != ids)
    checks.append(
        (
            "linked",
            not wrong and len(linked) == truth["linked"],
            f"{len(linked)}/{truth['linked']} linked, {len(wrong)} with wrong discussion_ids",
        )
    )
    dropped = len(read_jsonl(os.path.join(out, "dropped.jsonl")))
    checks.append(("dropped", dropped == truth["dropped"], f"{dropped}/{truth['dropped']}"))
    sources = Counter(link["link_source"] for link in read_jsonl(os.path.join(mined, "links.jsonl")))
    counts = {
        "ingest.links.message_reference": sources["message_reference"],
        "ingest.links.timeline_event": sources["timeline_event"],
    }
    return checks, counts


def check_score(out, truth):
    src = truth["sources"]
    checks = []
    ev = read_json(os.path.join(out, "eval.json"))
    checks.append(
        (
            "eval",
            ev["exact_match_rate"] == src["s0"]["rate"] and ev["missing"] == src["s0"]["missing"],
            f"rate {ev['exact_match_rate']}/{src['s0']['rate']}, missing {ev['missing']}/{src['s0']['missing']}",
        )
    )
    raw = read_json(os.path.join(out, "eval-raw.json"))
    checks.append(
        ("eval.raw_strings", raw["exact_match_rate"] == src["s0"]["raw_rate"], f"rate {raw['exact_match_rate']}/{src['s0']['raw_rate']}")
    )
    with open(os.path.join(out, "compare-j1.json"), "rb") as f:
        j1_bytes = f.read()
    with open(os.path.join(out, "compare-j2.json"), "rb") as f:
        j2_bytes = f.read()
    j1 = json.loads(j1_bytes)
    checks.append(
        (
            "compare",
            j1_bytes == j2_bytes
            and (j1["rate_a"], j1["rate_b"], j1["n"]) == (src["s0"]["rate"], src["s1"]["rate"], truth["n"]),
            f"p {j1['p_value']} (jobs 1 and 2 {'identical' if j1_bytes == j2_bytes else 'differ'}), "
            f"rates {j1['rate_a']}/{j1['rate_b']}",
        )
    )
    oracle = read_json(os.path.join(out, "oracle.json"))
    want_sources = {name: s["rate"] for name, s in src.items()}
    checks.append(
        (
            "oracle_eval",
            oracle["best_exact_match_rate"] == truth["best_rate"] and oracle["sources"] == want_sources,
            f"best {oracle['best_exact_match_rate']}/{truth['best_rate']}",
        )
    )
    rows = read_jsonl(os.path.join(out, "ctx-attended_segments.jsonl"))
    skipped = read_jsonl(os.path.join(out, "skip-attended_segments.jsonl"))
    got = {r["example_id"]: r["input_tokens"] for r in rows}
    wrong = sum(got.get(ex) != tokens for ex, tokens in truth["attended"].items())
    checks.append(
        (
            "context.attended_segments",
            len(rows) == truth["traced"] and wrong == 0 and len(skipped) == truth["n"] - truth["traced"],
            f"built {len(rows)}/{truth['traced']}, {wrong} differ, skipped {len(skipped)}",
        )
    )
    skips = Counter(skip_slug(s["reason"]) for s in skipped)
    return checks, {f"contexts.skipped.{slug}": skips[slug] for slug in SKIP_SLUGS}


CHECKS = {"render": check_render, "mine-link": check_mine_link, "score": check_score}
