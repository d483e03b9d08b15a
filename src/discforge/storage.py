"""Reading and writing the on-disk corpus files.

Everything row-shaped is JSON Lines (one record per line, UTF-8, no ASCII
escaping); attention traces are individual JSON documents because their
weight matrices are large. Loaders re-validate every record through the
dataclass constructors and report failures with the file line number and
the offending field.
"""

from __future__ import annotations

import json
import os

from .records import (
    AttentionTrace,
    BugFixExample,
    Candidate,
    CommitLinkEvent,
    Discussion,
    RecordError,
    _check_tokens,
)


def _iter_jsonl(path):
    """Yield (line_number, parsed_object) for each non-blank line."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    yield lineno, json.loads(line)
                except json.JSONDecodeError as exc:
                    raise RecordError(f"invalid JSON: {exc}", line=lineno) from None
        except UnicodeDecodeError as exc:
            raise RecordError(f"{path}: {exc}") from None


def write_jsonl(path, rows) -> int:
    """Write JSON-ready rows, one per line; return how many were written."""
    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for n, obj in enumerate(rows, start=1):
            f.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return n


def _load_records(path, from_dict):
    out = []
    for lineno, obj in _iter_jsonl(path):
        try:
            out.append(from_dict(obj))
        except RecordError as exc:
            raise RecordError(exc.message, line=lineno, field=exc.field) from None
    return out


def load_dataset(path) -> list[BugFixExample]:
    """Load bug-fix examples from JSONL, rejecting duplicate ids."""
    examples = _load_records(path, BugFixExample.from_dict)
    seen = {}
    for pos, ex in enumerate(examples):
        if ex.id in seen:
            raise RecordError(
                f"duplicate example id {ex.id!r} (first at record {seen[ex.id] + 1})",
                field="id",
            )
        seen[ex.id] = pos
    return examples


def save_dataset(path, examples) -> None:
    write_jsonl(path, (ex.to_dict() for ex in examples))


def load_discussions(path) -> dict[str, Discussion]:
    """Load discussions from a JSONL file or a directory of them.

    Returns a mapping keyed by discussion id. A directory is read as every
    ``*.jsonl`` file inside it, in sorted name order (the miner writes one
    file per project).
    """
    paths = [path]
    if os.path.isdir(path):
        paths = sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith(".jsonl")
        )
        if not paths:
            raise RecordError(f"no .jsonl files under {path}")
    out = {}
    for p in paths:
        for disc in _load_records(p, Discussion.from_dict):
            if disc.id in out:
                raise RecordError(f"duplicate discussion id {disc.id!r}", field="id")
            out[disc.id] = disc
    return out


def save_discussions(path, discussions) -> None:
    rows = discussions.values() if isinstance(discussions, dict) else discussions
    write_jsonl(path, (d.to_dict() for d in rows))


def load_attention_trace(path) -> AttentionTrace:
    """Load and validate one attention trace JSON document."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return AttentionTrace.from_dict(json.load(f))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RecordError(f"invalid JSON in {path}: {exc}") from None
    except RecordError as exc:
        raise RecordError(f"trace {path}: {exc.message}", field=exc.field) from None


def save_attention_trace(path, trace: AttentionTrace) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(trace.to_dict(), f, ensure_ascii=False)


def load_traces(path) -> dict[str, AttentionTrace]:
    """Load a directory of ``*.json`` trace files, keyed by example id."""
    if not os.path.isdir(path):
        trace = load_attention_trace(path)
        return {trace.example_id: trace}
    out = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        trace = load_attention_trace(os.path.join(path, name))
        if trace.example_id in out:
            raise RecordError(
                f"duplicate trace for example {trace.example_id!r}", field="example_id"
            )
        out[trace.example_id] = trace
    if not out:
        raise RecordError(f"no .json trace files under {path}")
    return out


def load_candidates(path) -> dict[str, Candidate]:
    """Load candidate fixes, one per example id."""
    out = {}
    for cand in _load_records(path, Candidate.from_dict):
        if cand.example_id in out:
            raise RecordError(
                f"duplicate candidate for example {cand.example_id!r}",
                field="example_id",
            )
        out[cand.example_id] = cand
    return out


def save_candidates(path, candidates) -> None:
    rows = candidates.values() if isinstance(candidates, dict) else candidates
    write_jsonl(path, (c.to_dict() for c in rows))


def load_links(path) -> list[CommitLinkEvent]:
    return _load_records(path, CommitLinkEvent.from_dict)


def save_links(path, links) -> None:
    write_jsonl(path, (ln.to_dict() for ln in links))


def load_descriptions(path) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Load solution descriptions.

    Each row is {example_id, discussion_id, description_tokens}. Returns
    example_id -> [(discussion_id, tokens), ...] preserving file order.
    Several rows per example are allowed (one per discussion); the same
    (example, discussion) pair twice is not.
    """
    out = {}
    seen_pairs = set()
    for lineno, obj in _iter_jsonl(path):
        try:
            ex_id = obj["example_id"]
            disc_id = obj["discussion_id"]
            tokens = _check_tokens(obj["description_tokens"], "description_tokens")
        except KeyError as exc:
            raise RecordError("missing", line=lineno, field=exc.args[0]) from None
        except RecordError as exc:
            raise RecordError(exc.message, line=lineno, field=exc.field) from None
        if not isinstance(ex_id, str) or not isinstance(disc_id, str):
            raise RecordError("ids must be strings", line=lineno, field="example_id")
        if (ex_id, disc_id) in seen_pairs:
            raise RecordError(
                f"duplicate description for ({ex_id!r}, {disc_id!r})",
                line=lineno,
                field="discussion_id",
            )
        seen_pairs.add((ex_id, disc_id))
        out.setdefault(ex_id, []).append((disc_id, tokens))
    return out


def save_report(path, report: dict) -> None:
    """Write an analysis report as indented JSON (human-diffable)."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, ensure_ascii=False, indent=2)
        f.write("\n")
