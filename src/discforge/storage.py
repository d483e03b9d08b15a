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


def input_files(path, suffixes=(".jsonl",)) -> list:
    """The files an input path stands for: a file itself, or a directory's files ending in `suffixes`.

    A directory's files come in sorted name order, and there must be at least one.
    """
    if not os.path.isdir(path):
        return [path]
    files = sorted(os.path.join(path, n) for n in os.listdir(path) if n.endswith(suffixes))
    if not files:
        raise RecordError(f"no {' or '.join(suffixes)} files under {path}")
    return files


def _iter_keyed(files, read, from_dict, key, what):
    """Yield the records `read(file, parse)` yields from each file, rejecting a key already yielded.

    parse makes the rejection, so `read` names the file and line in the error.
    """
    seen = set()

    def parse(obj):
        record = from_dict(obj)
        k = getattr(record, key)
        if k in seen:
            raise RecordError(f"duplicate {what} {k!r}", field=key)
        seen.add(k)
        return record

    for f in files:
        yield from read(f, parse)


def _load_keyed(files, read, from_dict, key, what) -> dict:
    """The records of _iter_keyed, in one dict by `key`."""
    return {getattr(r, key): r for r in _iter_keyed(files, read, from_dict, key, what)}


def digest(path) -> str:
    """Hex sha256 of an input file or directory, for embedding input identities in reports.

    A directory's digest covers the sorted names and digests of its
    ``*.json`` and ``*.jsonl`` files (input_files), so of the traces,
    discussions or candidate sets a loader reads from it.
    """
    import hashlib  # loads OpenSSL, so only a run that takes a digest pays for it

    if os.path.isdir(path):
        listing = [[os.path.basename(p), digest(p)] for p in input_files(path, (".json", ".jsonl"))]
        return hashlib.sha256(json.dumps(listing).encode()).hexdigest()
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def iter_discussions(path):
    """Yield the discussions of a JSONL file or a directory of them (one per project), one at a time.

    Each line is validated as it is read, and a duplicate id is rejected when it is reached.
    """
    return _iter_keyed(input_files(path), _iter_jsonl, Discussion.from_dict, "id", "discussion id")


def load_discussions(path) -> dict[str, Discussion]:
    """Load discussions, keyed by id, from a JSONL file or a directory of them (one per project)."""
    return {d.id: d for d in iter_discussions(path)}


def save_discussions(path, discussions) -> None:
    rows = discussions.values() if isinstance(discussions, dict) else discussions
    write_jsonl(path, (d.to_dict() for d in rows))


def _iter_trace(path, parse):
    """Yield parse(obj) for the one JSON document in an attention trace file; errors name the file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RecordError(f"invalid JSON in {path}: {exc}") from None
    try:
        yield parse(obj)
    except RecordError as exc:
        raise RecordError(f"trace {path}: {exc.message}", field=exc.field) from None


def load_attention_trace(path) -> AttentionTrace:
    """Load and validate one attention trace JSON document."""
    (trace,) = _iter_trace(path, AttentionTrace.from_dict)
    return trace


def save_attention_trace(path, trace: AttentionTrace) -> None:
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        json.dump(trace.to_dict(), f, ensure_ascii=False)


def load_traces(path) -> dict[str, AttentionTrace]:
    """Load a trace file, or a directory's ``*.json`` trace files, keyed by example id."""
    files = input_files(path, (".json",))
    return _load_keyed(files, _iter_trace, AttentionTrace.from_dict, "example_id", "trace for example")


def load_candidates(path) -> dict[str, Candidate]:
    """Load candidate fixes, one per example id, from a JSONL file or a directory of them."""
    files = input_files(path)
    return _load_keyed(files, _iter_jsonl, Candidate.from_dict, "example_id", "candidate for example")


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
