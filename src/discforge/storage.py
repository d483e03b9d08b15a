"""Reading and writing the on-disk corpus files.

Everything row-shaped is JSON Lines (one record per line, UTF-8, no ASCII
escaping); attention traces are individual JSON documents because their
weight matrices are large. Loaders re-validate every record through the
dataclass constructors and report failures with the file, the line number
and the offending field. Every writer puts its bytes beside the target and
moves them onto it once they are complete (``replacing``).
"""

from __future__ import annotations

import contextlib
import json
import os
import stat

from .records import (
    AttentionTrace,
    BugFixExample,
    Candidate,
    CommitLinkEvent,
    Discussion,
    RecordError,
    _check_str,
    _check_tokens,
)


def _iter_jsonl(path, parse):
    """Yield parse(obj) for the JSON value on each non-blank line.

    Invalid JSON and a RecordError from parse are re-raised naming the path
    and the line; undecodable bytes name the path only, because the text
    decoder reads ahead in blocks.
    """
    with open(path, "r", encoding="utf-8") as f:
        lineno = None
        try:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise RecordError(f"invalid JSON: {exc}") from None
                yield parse(obj)
        except RecordError as exc:
            raise RecordError(exc.message, path=path, line=lineno, field=exc.field) from None
        except UnicodeDecodeError as exc:
            raise RecordError(str(exc), path=path) from None


@contextlib.contextmanager
def replacing(path):
    """Yield the path to write `path`'s new bytes to; they replace `path` once the body completes.

    The bytes go to ``<path>.tmp`` in the same directory, which is moved
    onto `path` when the body completes and removed when it raises, so a
    failed run leaves an existing file as it was and creates no new one.
    The ".tmp" suffix keeps a file left by a killed run out of the
    loaders' ``*.jsonl`` and ``*.json`` globs. A target that exists and is
    not a regular file (a symlink such as ``/dev/stdout``, or a pipe) is
    written in place.
    """
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        yield path
        return
    tmp = f"{os.fspath(path)}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@contextlib.contextmanager
def jsonl_writer(path):
    """Yield write(row), which adds one JSON line to `path`'s replacement."""
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        yield lambda row: f.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_jsonl(path, rows) -> int:
    """Write JSON-ready rows, one per line; return how many were written."""
    n = 0
    with jsonl_writer(path) as write:
        for n, row in enumerate(rows, start=1):
            write(row)
    return n


def iter_dataset(path):
    """Yield the bug-fix examples of a JSONL file, one line at a time.

    Each line is validated as it is read, and a duplicate id is rejected
    when it is reached, so a consumer holds one example at a time.
    """
    first_at = {}

    def parse(obj):
        ex = BugFixExample.from_dict(obj)
        if ex.id in first_at:
            raise RecordError(
                f"duplicate example id {ex.id!r} (first at record {first_at[ex.id]})",
                field="id",
            )
        first_at[ex.id] = len(first_at) + 1
        return ex

    yield from _iter_jsonl(path, parse)


def load_dataset(path) -> list[BugFixExample]:
    """Load bug-fix examples from JSONL, rejecting duplicate ids."""
    return list(iter_dataset(path))


def save_dataset(path, examples) -> None:
    write_jsonl(path, (ex.to_dict() for ex in examples))


def _jsonl_files(directory) -> list[str]:
    """The ``*.jsonl`` paths directly inside `directory`, in sorted name order."""
    return sorted(os.path.join(directory, n) for n in os.listdir(directory) if n.endswith(".jsonl"))


def digest(path) -> str:
    """Hex sha256 of a file, for embedding input identities in reports.

    A directory's digest covers the sorted names and digests of the
    ``*.jsonl`` files that load_discussions reads from it.
    """
    import hashlib  # loads OpenSSL, so only a run that takes a digest pays for it

    if os.path.isdir(path):
        listing = [[os.path.basename(p), digest(p)] for p in _jsonl_files(path)]
        return hashlib.sha256(json.dumps(listing).encode()).hexdigest()
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def load_discussions(path) -> dict[str, Discussion]:
    """Load discussions from a JSONL file or a directory of them.

    Returns a mapping keyed by discussion id. A directory is read as every
    ``*.jsonl`` file inside it, in sorted name order (the miner writes one
    file per project).
    """
    paths = [path]
    if os.path.isdir(path):
        paths = _jsonl_files(path)
        if not paths:
            raise RecordError(f"no .jsonl files under {path}")
    out = {}

    def parse(obj):
        disc = Discussion.from_dict(obj)
        if disc.id in out:
            raise RecordError(f"duplicate discussion id {disc.id!r}", field="id")
        return disc

    for p in paths:
        for disc in _iter_jsonl(p, parse):
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
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
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

    def parse(obj):
        cand = Candidate.from_dict(obj)
        if cand.example_id in out:
            raise RecordError(
                f"duplicate candidate for example {cand.example_id!r}",
                field="example_id",
            )
        return cand

    for cand in _iter_jsonl(path, parse):
        out[cand.example_id] = cand
    return out


def save_candidates(path, candidates) -> None:
    rows = candidates.values() if isinstance(candidates, dict) else candidates
    write_jsonl(path, (c.to_dict() for c in rows))


def load_links(path) -> list[CommitLinkEvent]:
    return list(_iter_jsonl(path, CommitLinkEvent.from_dict))


def save_links(path, links) -> None:
    write_jsonl(path, (ln.to_dict() for ln in links))


def load_descriptions(path) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Load solution descriptions.

    Each row is {example_id, discussion_id, description_tokens}. Returns
    example_id -> [(discussion_id, tokens), ...] preserving file order.
    Several rows per example are allowed (one per discussion); the same
    (example, discussion) pair twice is not.
    """
    seen_pairs = set()

    def parse(obj):
        if not isinstance(obj, dict):
            raise RecordError(f"expected a JSON object, got {type(obj).__name__}")
        try:
            ex_id = _check_str(obj["example_id"], "example_id")
            disc_id = _check_str(obj["discussion_id"], "discussion_id")
            tokens = _check_tokens(obj["description_tokens"], "description_tokens")
        except KeyError as exc:
            raise RecordError("missing", field=exc.args[0]) from None
        if (ex_id, disc_id) in seen_pairs:
            raise RecordError(
                f"duplicate description for ({ex_id!r}, {disc_id!r})", field="discussion_id"
            )
        seen_pairs.add((ex_id, disc_id))
        return ex_id, disc_id, tokens

    out = {}
    for ex_id, disc_id, tokens in _iter_jsonl(path, parse):
        out.setdefault(ex_id, []).append((disc_id, tokens))
    return out


def save_report(path, report: dict) -> None:
    """Write an analysis report as indented JSON (human-diffable)."""
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        json.dump(report, f, ensure_ascii=False, indent=2)
        f.write("\n")
