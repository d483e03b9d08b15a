"""Seeded synthetic inputs for the pipeline workloads, with planted truth.

Each ``make_<workload>`` writes the program's input files under a
directory and returns ``(inputs, truth)``: ``inputs`` names the files the
program reads, ``truth`` holds what a correct run must produce. The truth
is derived from the generator's own bookkeeping, never from the program,
and the program is handed only the files, never the seed.

Two random streams drive each generator (``Dice``): ``shape`` sets every
count, length and timestamp and is the same for every seed, so every seed
asks for the same amount of work; ``pick`` comes from the seed and chooses
the words, names, shas, which candidates match and the order of the
examples. No ``shape`` draw depends on a ``pick`` draw.
"""

from __future__ import annotations

import json
import os
import random
from datetime import datetime, timedelta, timezone

import numpy as np
from child import page_file

TOKEN_LIMIT = 1024
SPLIT_CYCLE = ("train",) * 8 + ("valid", "test")
EPOCH = datetime(2019, 1, 1, tzinfo=timezone.utc)
HOUR = 3600
DAY = 24 * HOUR

# Atoms of code_tokenize: identifiers and single punctuation marks, so
# " ".join(tokens) re-tokenizes to the same list.
CODE_WORDS = (
    "if", "return", "null", "line", "value", "table", "key", "sb", "append",
    "getString", "parseLine", "TomlParser", "HTMLParser", "toml4j", "i", "n",
    "int", "for", "new", "throw", "IllegalStateException", "Map", "String",
    "values", "put", "get", "index", "0", "1", "count", "result",
)
CODE_PUNCT = ("(", ")", "{", "}", ";", ".", ",", "=", "<", ">", "+", "!")
PROSE = (
    "the", "parser", "fails", "when", "input", "has", "an", "empty", "line",
    "and", "then", "throws", "value", "returns", "null", "after", "upgrade",
    "config", "file", "loader", "this", "is", "still", "broken", "on", "master",
    "we", "should", "check", "table", "arrays", "of", "inline", "keys", "with",
    "dotted", "names", "works", "for", "me", "now", "thanks", "fixed", "it",
)
IDENTIFIERS = (
    "NullPointerException", "toml4j", "XMLHttpRequest", "getValue2",
    "snake_case_name", "HTMLParser", "parseInline", "TomlWriter", "readLine",
    "LocalDate", "v0.7.2", "getTable", "ArrayIndexOutOfBounds",
)
CODE_LINES = (
    "if (line == null) { throw new IllegalStateException(); }",
    'return toml.getString("key");',
    "sb.append(table);",
    "for (int i = 0; i < n; i++) {",
    "Map<String, Object> values = new HashMap<>();",
    "}",
)


def ts(seconds: int) -> str:
    return (EPOCH + timedelta(seconds=seconds)).strftime("%Y-%m-%dT%H:%M:%SZ")


class Dice:
    def __init__(self, workload, seed):
        self.shape = random.Random(workload)
        self.pick = random.Random(f"{workload}/{seed}")


def stratified(rng, values, n):
    """n draws that cycle through `values` and are then shuffled."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def marker(uid: int) -> str:
    """A lowercase-only word unique to one utterance; subtokenize keeps it whole."""
    letters = []
    for _ in range(5):
        uid, r = divmod(uid, 26)
        letters.append(chr(ord("a") + r))
    return "qz" + "".join(letters)


def sentence(d, lo=6, hi=16):
    words = [d.pick.choice(PROSE) for _ in range(d.shape.randint(lo, hi))]
    for _ in range(d.shape.randint(0, 2)):
        words[d.shape.randrange(len(words))] = d.pick.choice(IDENTIFIERS)
    return " ".join(words)


def markdown_body(d, mark):
    """A markdown-dense utterance whose first prose word is `mark`."""
    lines = [f"{mark} {sentence(d)}."]
    for _ in range(d.shape.randint(2, 7)):
        kind = d.shape.randrange(8)
        if kind == 0:
            lines.append(f"## {sentence(d, 2, 5)}")
        elif kind == 1:
            lines += [f"- {sentence(d, 3, 8)} `{d.pick.choice(IDENTIFIERS)}`" for _ in range(3)]
        elif kind == 2:
            lines.append(f"> {sentence(d)}")
        elif kind == 3:
            lines.append(
                f"See [the {d.pick.choice(PROSE)} docs](https://github.com/o/p/wiki/"
                f"{d.pick.choice(IDENTIFIERS)}) and **{d.pick.choice(PROSE)}** *{d.pick.choice(PROSE)}*."
            )
        elif kind == 4:
            lines.append("```java")
            lines += [d.pick.choice(CODE_LINES) for _ in range(d.shape.randint(2, 6))]
            lines.append("```")
        elif kind == 5:
            lines.append("---")
        else:
            lines.append(f"{sentence(d, 10, 30)}.")
    return "\n".join(lines)


def code_tokens(d, lo, hi):
    out = []
    for _ in range(d.shape.randint(lo, hi)):
        out.append(d.pick.choice(CODE_PUNCT) if d.shape.random() < 0.35 else d.pick.choice(CODE_WORDS))
    return out


def mutate(rng, tokens):
    """A copy of tokens that differs from it and is still atomic."""
    out = list(tokens)
    pos = rng.randrange(len(out))
    out[pos] = "MUTATED" if out[pos] != "MUTATED" else "CHANGED"
    return out


def sha(rng):
    return "".join(rng.choice("0123456789abcdef") for _ in range(40))


def distinct_shas(rng, n):
    """n random shas whose 7-character prefixes are all distinct."""
    seen, out = set(), []
    while len(out) < n:
        s = sha(rng)
        if s[:7] not in seen:
            seen.add(s[:7])
            out.append(s)
    return out


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def example_row(d, ex_id, project, commit_sha, commit_ts, split, discussion_ids, oracle):
    buggy = code_tokens(d, 20, 120)
    return {
        "id": ex_id,
        "project": project,
        "commit_sha": commit_sha,
        "commit_timestamp": ts(commit_ts),
        "split": split,
        "buggy_tokens": buggy,
        "fixed_tokens": mutate(d.pick, buggy),
        "method_tokens": code_tokens(d, 40, 260),
        "oracle_msg_tokens": oracle,
        "discussion_ids": list(discussion_ids),
    }


def ordered_ids(discs, commit_ts):
    """Discussion ids after the temporal filter, newest activity first.

    `discs` are (id, issue_number, created_at, utterance_times) tuples.
    Ties on activity go to the higher issue number.
    """
    keyed = []
    for disc_id, number, created, times in discs:
        kept = [t for t in times if t < commit_ts]
        keyed.append(((kept[-1] if kept else created), number, disc_id))
    keyed.sort(key=lambda k: (k[0], k[1]), reverse=True)
    return [k[2] for k in keyed]


# ---------------------------------------------------------------- render


RENDER_EXAMPLES = 240
RENDER_DISCUSSIONS = 60


def make_render(out_dir, seed):
    """Markdown-dense corpus where each discussion is shared by several examples."""
    d = Dice("render", seed)
    os.makedirs(os.path.join(out_dir, "discussions"), exist_ok=True)
    projects = [f"org{k}/lib{k}" for k in range(4)]

    discs = {}
    by_project = {p: [] for p in projects}
    uid = 0
    for k, n_utt in enumerate(stratified(d.shape, range(1, 13), RENDER_DISCUSSIONS)):
        project = projects[k % len(projects)]
        number = 10 + k
        created = d.shape.randrange(0, 600 * DAY)
        times, utts = [], []
        t = created
        for i in range(n_utt):
            if i:
                t += d.shape.randrange(HOUR, 6 * DAY)
            times.append(t)
            mark = marker(uid)
            uid += 1
            utts.append(
                {
                    "index": i,
                    "author": f"user{d.pick.randrange(50)}",
                    "created_at": ts(t),
                    "body_raw": markdown_body(d, mark),
                    "body_tokens": None,
                    "_marker": mark,
                }
            )
        disc_id = f"{project}#{number}"
        discs[disc_id] = {
            "number": number,
            "created": created,
            "times": times,
            "markers": [u.pop("_marker") for u in utts],
            "row": {
                "id": disc_id,
                "project": project,
                "issue_number": number,
                "title": f"{sentence(d, 4, 10)} in {d.pick.choice(IDENTIFIERS)}",
                "created_at": ts(created),
                "utterances": utts,
                "last_activity_at": ts(times[-1]),
            },
        }
        by_project[project].append(discs[disc_id]["row"])
    for project, rows in by_project.items():
        write_jsonl(
            os.path.join(out_dir, "discussions", project.replace("/", "__") + ".jsonl"), rows
        )

    disc_ids = sorted(discs)
    counts = stratified(d.shape, (1, 2, 3, 1, 2, 3, 1, 2, 3, 0), RENDER_EXAMPLES)
    order = list(range(RENDER_EXAMPLES))
    d.pick.shuffle(order)
    examples, descriptions = [None] * RENDER_EXAMPLES, []
    truth_examples = []
    for i, k in enumerate(counts):
        chosen = d.shape.sample(disc_ids, k)
        commit_ts = pick_commit_time(d.shape, [discs[c] for c in chosen])
        ids = list(chosen)
        if i % 97 == 5:
            ids.append("ghost/project#999")  # unknown id: logged and ignored
        roll = d.shape.random()
        if roll < 0.1:
            oracle = None
        elif roll < 0.15:
            oracle = []
        else:
            oracle = [d.pick.choice(PROSE) for _ in range(d.shape.randint(5, 20))]
        ex = example_row(
            d, f"ex{order[i]:05d}", (discs[chosen[0]]["row"]["project"] if chosen else projects[0]),
            sha(d.pick), commit_ts, SPLIT_CYCLE[i % len(SPLIT_CYCLE)], ids, oracle,
        )
        examples[order[i]] = ex
        described = []
        for c in chosen:
            if d.shape.random() < 0.55:
                described.append(c)
                descriptions.append(
                    {
                        "example_id": ex["id"],
                        "discussion_id": c,
                        "description_tokens": [d.pick.choice(PROSE) for _ in range(d.shape.randint(10, 40))],
                    }
                )
        kept_utts = {c: sum(t < commit_ts for t in discs[c]["times"]) for c in chosen}
        truth_examples.append(
            {
                "id": ex["id"],
                "split": ex["split"],
                "buggy": ex["buggy_tokens"],
                "discussions": chosen,
                "kept_utterances": [kept_utts[c] for c in chosen],
                "has_oracle": bool(oracle),
                "described": bool(described),
                "forbidden": sorted(
                    m
                    for c in chosen
                    for t, m in zip(discs[c]["times"], discs[c]["markers"])
                    if t >= commit_ts
                ),
            }
        )
    write_jsonl(os.path.join(out_dir, "examples.jsonl"), examples)
    write_jsonl(os.path.join(out_dir, "descriptions.jsonl"), descriptions)

    return (
        {
            "dataset": "examples.jsonl",
            "discussions": "discussions",
            "desc": "descriptions.jsonl",
        },
        render_truth(truth_examples),
    )


def pick_commit_time(rng, chosen):
    """A fixing-commit time that leaves some utterances after the fix."""
    if not chosen:
        return rng.randrange(0, 600 * DAY)
    ref = rng.choice(chosen)
    times = ref["times"]
    roll = rng.random()
    if roll < 0.1:
        return ref["created"] - rng.randrange(HOUR, 5 * DAY)  # before the report
    if roll < 0.3:
        return times[-1] + rng.randrange(HOUR, 5 * DAY)  # after every utterance
    if roll < 0.45:
        return rng.choice(times)  # equal timestamps are excluded
    pos = rng.randrange(len(times))
    return times[pos] + rng.randrange(1, HOUR)


def render_truth(examples):
    n = len(examples)
    with_disc = sum(bool(e["discussions"]) for e in examples)
    built = {
        "without_nl": n,
        "oracle_msg": sum(e["has_oracle"] for e in examples),
        "whole_discussion": with_disc,
        "title": with_disc,
        "last_utterance": sum(any(e["kept_utterances"]) for e in examples),
        "soln_desc": sum(e["described"] for e in examples),
        "soln_desc_plus_title": sum(e["described"] for e in examples),
    }
    segments = sum(len(e["discussions"]) + sum(e["kept_utterances"]) for e in examples)

    def stats(subset):
        counts = [len(e["discussions"]) for e in subset]
        utts = [u for e in subset for u in e["kept_utterances"]]
        return {
            "num_examples": len(subset),
            "num_linked_discussions": len({d for e in subset for d in e["discussions"]}),
            "avg_discussions_per_example": round(sum(counts) / len(counts), 1) if counts else None,
            "avg_utterances_per_discussion": round(sum(utts) / len(utts), 1) if utts else None,
        }

    return {
        "examples": examples,
        "built": built,
        "segments": segments,
        "stats": {
            "overall": stats(examples),
            **{s: stats([e for e in examples if e["split"] == s]) for s in ("train", "valid", "test")},
        },
    }


# ------------------------------------------------------------- mine-link

SINCE = 30 * DAY
UNTIL = 700 * DAY
PROJECTS = 24
ISSUES_PER_PROJECT = 60
EXAMPLES_PER_PROJECT = 40


def make_mine_link(out_dir, seed):
    """Issues served by a fake tracker API, plus commits and examples to link.

    Each API response body is its own file under ``server/``, named by
    ``child.page_file(url, page)``.
    """
    d = Dice("mine-link", seed)
    os.makedirs(os.path.join(out_dir, "server"), exist_ok=True)
    projects = [f"team{k}/svc{k}" for k in range(PROJECTS)]
    commits_by_project = {}
    all_shas = distinct_shas(d.pick, PROJECTS * (EXAMPLES_PER_PROJECT + 5))
    examples = []
    truth = {"discussions": 0, "utterances": 0, "examples": {}, "dropped": 0, "linked": 0}

    for pi, project in enumerate(projects):
        api = f"https://api.github.com/repos/{project}/issues"
        n_issues = ISSUES_PER_PROJECT + (pi % 3) * 5
        # Trailing issues created after the window end the crawl early
        # for some projects; the rest end on an empty page.
        past = 3 if pi % 2 else 0
        raws, mined = [], {}
        t = SINCE - 5 * DAY
        for number in range(1, n_issues + past + 1):
            t += d.shape.randrange(HOUR, 16 * DAY)
            created = max(t, UNTIL) + number * HOUR if number > n_issues else t
            is_pr = number % 11 == 0
            body = "" if number % 7 == 0 else markdown_body(d, marker(pi * 1000 + number))
            comments, times = [], []
            if body:
                times.append(created)
            ct = created
            for c in range(stratified_count(pi, number)):
                ct += d.shape.randrange(60, 4 * DAY)
                cbody = "" if (number + c) % 9 == 0 else markdown_body(d, marker(10**6 + pi * 10**4 + number * 20 + c))
                comments.append(
                    {
                        "id": pi * 10**6 + number * 100 + c,
                        "user": {"login": f"dev{d.pick.randrange(40)}"},
                        "created_at": ts(ct),
                        "body": cbody,
                        "html_url": f"https://github.com/{project}/issues/{number}#issuecomment-{c}",
                    }
                )
                if cbody.strip():
                    times.append(ct)
            raw = {
                "number": number,
                "title": f"{sentence(d, 4, 10)} in {d.pick.choice(IDENTIFIERS)}",
                "body": body,
                "created_at": ts(created),
                "updated_at": ts(ct),
                "user": {"login": f"dev{d.pick.randrange(40)}"},
                "state": d.pick.choice(("open", "closed")),
                "labels": [{"name": d.pick.choice(("bug", "question", "enhancement"))}],
                "html_url": f"https://github.com/{project}/issues/{number}",
                "comments": len(comments),
                "comments_url": f"{api}/{number}/comments",
            }
            if is_pr:
                raw["pull_request"] = {"url": f"https://api.github.com/repos/{project}/pulls/{number}"}
            raws.append((raw, comments))
            if not is_pr and SINCE <= created < UNTIL:
                mined[number] = (created, times)
                truth["discussions"] += 1
                truth["utterances"] += len(times)

        mined_numbers = sorted(mined)
        commits = []
        shas = all_shas[pi * (EXAMPLES_PER_PROJECT + 5) : (pi + 1) * (EXAMPLES_PER_PROJECT + 5)]
        for ei in range(EXAMPLES_PER_PROJECT):
            full = shas[ei]
            planted = d.shape.sample(mined_numbers, d.shape.choice((1, 1, 2, 3))) if ei % 8 else []
            refs, timeline = [], []
            for num in planted:
                how = d.shape.randrange(4)
                if how == 0:
                    refs.append(f"https://github.com/{project}/issues/{num}")
                elif how == 1:
                    timeline.append(num)
                else:
                    refs.append(f"#{num}")
            if ei % 5 == 1:
                refs.append(f"#{n_issues + past + 40}")  # never mined: logged and ignored
            if ei % 6 == 2:
                other = projects[(pi + 1) % len(projects)]
                refs.append(f"https://github.com/{other}/issues/{d.pick.choice(mined_numbers)}")
            ref_times = [mined[n][0] for n in planted] or [SINCE + 100 * DAY]
            commit_ts = max(ref_times) + d.shape.randrange(HOUR, 15 * DAY)
            message = f"{sentence(d, 3, 8)}. " + " ".join(
                f"Fixes {r}" if j % 2 else f"see {r}" for j, r in enumerate(refs)
            )
            commit_sha = full if ei % 3 else full[: d.shape.randint(7, 12)]
            commits.append({"sha": commit_sha, "message": message, "timestamp": ts(commit_ts)})
            for num in timeline:
                raw = raws[num - 1][0]
                raw.setdefault("timeline", []).append(
                    {"event": "closed", "commit_id": full, "created_at": ts(commit_ts)}
                )
            ex_sha = full[: d.shape.randint(7, 39)] if ei % 4 == 0 else full
            ex = example_row(
                d, f"{project.replace('/', '-')}-{ei:03d}", project, ex_sha, commit_ts,
                SPLIT_CYCLE[ei % len(SPLIT_CYCLE)], [], [d.pick.choice(PROSE) for _ in range(6)],
            )
            examples.append(ex)
            if planted:
                truth["linked"] += 1
                truth["examples"][ex["id"]] = ordered_ids(
                    [(f"{project}#{n}", n, mined[n][0], mined[n][1]) for n in planted],
                    commit_ts,
                )
            else:
                truth["dropped"] += 1
        for extra in shas[EXAMPLES_PER_PROJECT:]:
            commits.append(
                {
                    "sha": extra,
                    "message": f"refactor, see #{d.pick.choice(mined_numbers)}",
                    "timestamp": ts(UNTIL - DAY),
                }
            )
        commits_by_project[project] = commits

        issue_list = [r for r, _ in raws]
        for page in range(1, len(issue_list) // 100 + 2):
            write_page(out_dir, api, page, issue_list[(page - 1) * 100 : page * 100])
        for raw, comments in raws:
            if comments:
                write_page(out_dir, raw["comments_url"], 1, comments)

    with open(os.path.join(out_dir, "projects.txt"), "w", encoding="utf-8") as f:
        f.write("".join(p + "\n" for p in projects))
    with open(os.path.join(out_dir, "commits.json"), "w", encoding="utf-8") as f:
        json.dump(commits_by_project, f)
    write_jsonl(os.path.join(out_dir, "examples.jsonl"), examples)
    return (
        {
            "projects": "projects.txt",
            "commits": "commits.json",
            "server": "server",
            "examples": "examples.jsonl",
            "since": ts(SINCE),
            "until": ts(UNTIL),
        },
        truth,
    )


def write_page(out_dir, url, page, body):
    with open(os.path.join(out_dir, "server", page_file(url, page)), "w", encoding="utf-8") as f:
        json.dump(body, f)


def stratified_count(pi, number):
    """Comments per issue cycle through 0..11 so every seed mines the same volume."""
    return (pi * 7 + number * 5) % 12


# ----------------------------------------------------------------- score

SOURCES = {"s0": 0.42, "s1": 0.41, "s2": 0.25}  # s0 and s1 close: compare p is mid-range
RAW_ONLY = 0.05  # share of s0 that matches only after re-tokenization
MISSING = 0.04
SCORE_EXAMPLES = 1000
TRACED = 4  # examples with full-size attention traces
TRACE_STEPS = 120


def make_score(out_dir, seed):
    """Candidate sources with planted match rates, plus full-size attention traces."""
    d = Dice("score", seed)
    nrng = np.random.default_rng(d.pick.randrange(2**32))
    for sub in ("candidates", "traces"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    examples, discussions = [], []
    traced = {}
    commit_shas = distinct_shas(d.pick, SCORE_EXAMPLES)
    for i in range(SCORE_EXAMPLES):
        ex_id = f"ex{i:05d}"
        ids = []
        commit_ts = d.shape.randrange(100 * DAY, 600 * DAY)
        if i < TRACED:
            parts = []
            for k in range(d.shape.choice((1, 2))):
                disc_id = f"solo/proj#{i * 10 + k + 1}"
                created = commit_ts - d.shape.randrange(45 * DAY, 60 * DAY)
                title = plain(d, 4, 10)
                utts, t = [], created
                for j in range(d.shape.randint(4, 8)):
                    utts.append(
                        {"index": j, "author": "a", "created_at": ts(t), "body_raw": plain(d, 20, 120), "body_tokens": None}
                    )
                    t += d.shape.randrange(HOUR, 5 * DAY)
                # The last two utterances come after the fix.
                utts[-2]["created_at"] = ts(commit_ts)
                utts[-1]["created_at"] = ts(commit_ts + DAY)
                discussions.append(
                    {
                        "id": disc_id, "project": "solo/proj", "issue_number": i * 10 + k + 1,
                        "title": title, "created_at": ts(created), "utterances": utts,
                        "last_activity_at": utts[-1]["created_at"],
                    }
                )
                ids.append(disc_id)
                parts.append(((disc_id, "title", None), title.split()))
                parts += [((disc_id, "utterance", u["index"]), u["body_raw"].split()) for u in utts[:-2]]
            traced[ex_id] = parts
        examples.append(
            example_row(
                d, ex_id, "solo/proj", commit_shas[i], commit_ts,
                SPLIT_CYCLE[i % len(SPLIT_CYCLE)], ids, None,
            )
        )
    write_jsonl(os.path.join(out_dir, "examples.jsonl"), examples)
    write_jsonl(os.path.join(out_dir, "discussions.jsonl"), discussions)

    truth = {"n": SCORE_EXAMPLES, "sources": {}, "attended": {}, "traced": TRACED}
    matched_any = set()
    for name, rate in SOURCES.items():
        order = list(range(SCORE_EXAMPLES))
        d.pick.shuffle(order)
        n_match = round(rate * SCORE_EXAMPLES)
        n_raw = round(RAW_ONLY * SCORE_EXAMPLES) if name == "s0" else 0
        n_missing = round(MISSING * SCORE_EXAMPLES)
        matched = set(order[:n_match])
        raw_only = set(order[n_match : n_match + n_raw])
        missing = set(order[n_match + n_raw : n_match + n_raw + n_missing])
        rows = []
        for i, ex in enumerate(examples):
            if i in missing:
                continue
            fixed = ex["fixed_tokens"]
            if i in matched:
                cand = list(fixed)
            elif i in raw_only:
                cand = [" ".join(fixed)]  # a raw string: matches only once re-tokenized
            else:
                cand = mutate(d.pick, fixed)
            rows.append({"example_id": ex["id"], "candidate_tokens": cand, "source": name})
        write_jsonl(os.path.join(out_dir, "candidates", f"{name}.jsonl"), rows)
        matched_any |= matched
        truth["sources"][name] = {
            "rate": round(100.0 * n_match / SCORE_EXAMPLES, 1),
            "raw_rate": round(100.0 * (n_match + n_raw) / SCORE_EXAMPLES, 1),
            "missing": n_missing,
        }
    truth["best_rate"] = round(100.0 * len(matched_any) / SCORE_EXAMPLES, 1)

    for ex in examples[:TRACED]:
        trace, attended = make_trace(d, nrng, ex["id"], traced[ex["id"]])
        with open(os.path.join(out_dir, "traces", f"{ex['id']}.json"), "w", encoding="utf-8") as f:
            json.dump(trace, f)
        tokens = list(ex["buggy_tokens"]) + ["<s>"] + list(ex["method_tokens"])
        for part in attended:
            tokens += ["<s>"] + part
        truth["attended"][ex["id"]] = tokens[:TOKEN_LIMIT]

    return (
        {
            "refs": "examples.jsonl",
            "discussions": "discussions.jsonl",
            "candidates": "candidates",
            "traces": "traces",
        },
        truth,
    )


def plain(d, lo, hi):
    """Lowercase prose: normalization and subtokenization leave each word whole."""
    return " ".join(d.pick.choice(PROSE) for _ in range(d.shape.randint(lo, hi)))


def make_trace(d, nrng, ex_id, parts):
    """A TRACE_STEPS x L attention trace whose argmax rows tie exactly.

    Every row holds its maximum at two positions; the lower one is the
    planted winner. Returns (trace_dict, attended_token_lists) where the
    second lists the segments hit, in first-hit order.
    """
    n_tokens = d.shape.randint(700, TOKEN_LIMIT)
    pos = d.shape.randint(80, 250)
    segments, spans = [], []
    for ref, toks in parts:
        width = min(len(toks), 90)
        if pos + 1 + width > n_tokens:
            break
        start = pos + 1
        segments.append(
            {
                "segment_id": len(segments), "kind": ref[1], "discussion_id": ref[0],
                "utterance_index": ref[2], "token_start": start, "token_end": start + width,
            }
        )
        spans.append((start, start + width, toks))
        pos = start + width
    hot = d.pick.sample(range(len(spans)), max(1, len(spans) * 2 // 3))
    weights = nrng.random((TRACE_STEPS, n_tokens)) * (0.6 / n_tokens)
    seen, attended = set(), []
    for step in range(TRACE_STEPS):
        if d.pick.random() < 0.15:
            win = d.pick.randrange(0, segments[0]["token_start"])  # code prefix: attends nothing
            hit = None
        else:
            hit = d.pick.choice(hot)
            win = d.pick.randrange(spans[hit][0], spans[hit][1])
        tie = d.pick.randrange(win + 1, n_tokens)
        weights[step, win] = weights[step, tie] = 0.0
        peak = (1.0 - float(weights[step].sum())) / 2.0
        weights[step, win] = weights[step, tie] = peak
        if hit is not None and hit not in seen:
            seen.add(hit)
            attended.append(spans[hit][2])
    trace = {
        "example_id": ex_id,
        "num_input_tokens": n_tokens,
        "segments": segments,
        "weights": weights.tolist(),
        "meta": {"aggregation": "mean over heads"},
    }
    return trace, attended


GENERATORS = {"render": make_render, "mine-link": make_mine_link, "score": make_score}
