"""Reading and writing the on-disk corpus files.

Everything row-shaped is JSON Lines (one record per line, UTF-8, no ASCII
escaping); attention traces are individual JSON documents because their
weight matrices are large, and they are read a block at a time with each
weight row packed as it is decoded (``_load_trace``): memory holds one
trace's rows and one block of its text, never the whole file.
``_iter_json`` reads every input file, and its errors read ``PATH: [line
N: ][field 'f': ]message``; ``_iter_keyed`` is the one duplicate-key
rule. Every writer puts its bytes beside the target and moves them onto
it once they are complete (``replacing``).
"""

from __future__ import annotations

import contextlib
import json
import operator
import os
import re
import stat
from array import array

from .contexts import extract_attended_segments
from .records import (
    AttentionTrace,
    BugFixExample,
    Candidate,
    CommitLinkEvent,
    Description,
    Discussion,
    RecordError,
    Segment,
    _interned,
)

TEMP_SUFFIX = ".tmp"


def temp_file(path) -> str:
    """Where replacing(path) writes `path`'s new bytes: the file `path` resolves to, plus TEMP_SUFFIX."""
    return os.path.realpath(path) + TEMP_SUFFIX


def _descriptor(path):
    """The number of this process's open descriptor that `path`'s links reach (1 for /dev/stdout), or None."""
    own = os.path.realpath("/proc/self") + "/"
    while os.path.islink(path):  # one link at a time: realpath would go on to the descriptor's file
        parent = os.path.realpath(os.path.dirname(path))
        if parent.startswith(own) and parent.endswith("/fd"):
            return int(os.path.basename(path))
        path = os.path.join(parent, os.readlink(path))
    return None


def _iter_json(path, parse, load=None, decode=json.loads):
    """Yield parse(decode(line)) for each non-blank line, or, given `load`, parse(load(file)) for the one document.

    Invalid JSON and a RecordError from parse are re-raised naming the path
    and, in JSON Lines, the line; undecodable bytes name the path only,
    because the text decoder reads ahead in blocks. When `decode` is not
    json.loads (the held loaders' _held), a line that it or parse rejects
    is decoded again by json.loads and parsed, so its error is the one a
    stream reports.
    """
    with open(path, "r", encoding="utf-8") as f:
        lineno = None
        try:
            for lineno, source in enumerate(f, start=1) if load is None else [(None, f)]:
                if load is None and not source.strip():
                    continue
                try:
                    record = parse((load or decode)(source))
                except (json.JSONDecodeError, RecordError):
                    if decode is json.loads:
                        raise
                    record = parse(json.loads(source))
                yield record
        except json.JSONDecodeError as exc:
            raise RecordError(f"invalid JSON: {exc}", path=path, line=lineno) from None
        except RecordError as exc:
            raise RecordError(exc.message, path=path, line=lineno, field=exc.field) from None
        except UnicodeDecodeError as exc:
            raise RecordError(str(exc), path=path) from None


_BLOCK = 1 << 16  # characters of a trace's text read at a time
_space = json.decoder.WHITESPACE.match  # what json skips between tokens
_value = json.JSONDecoder().raw_decode


_number_cut = re.compile(r"[.eE][-+]?\d*\Z").match  # what may still continue a number at the text's end


class _Mismatch(ValueError):
    """A character already read is not one the trace walk accepts there: reading on cannot help."""


def _load_trace(f):
    """json.load(f), except that each row of a top-level object's ``weights`` list is an array('d').

    The text is read _BLOCK characters at a time and each row is packed as
    soon as it is decoded, so memory holds the rows so far and about one
    block of text, never the whole file. A row holding anything but numbers
    stays a list, for AttentionTrace to report. A document this walk does
    not accept is read again whole by json.loads, so every error is json's
    own, a decode error's byte position included.
    """
    if not f.seekable():  # a pipe cannot be read again
        return json.load(f)
    buf, at = "", 0

    def read(step):
        """Return step(at)'s value and move `at` past its text. While the step fails short of the end of the file,
        drop the text before `at` and read a block more: a value counts only once the text after it is read.
        A _Mismatch is final."""
        nonlocal buf, at
        while True:
            try:
                value, at = step(at)
                return value
            except _Mismatch:
                raise
            except (ValueError, IndexError):  # a JSONDecodeError is a ValueError
                block = f.read(_BLOCK)
                if not block:
                    raise
                buf, at = buf[at:] + block, 0

    def token(i, chars):
        """The next non-blank character from i, which must be one of `chars`, and the index past it.

        Any other character is a _Mismatch, unless the text from it to the
        end could still continue a number before it ("1." or "2e-" cut by a
        block's end): then the next block decides.
        """
        i = _space(buf, i).end()
        if buf[i] not in chars:
            raise IndexError if _number_cut(buf, i) else _Mismatch
        return buf[i], i + 1

    def opening(i, bracket, close):
        """`bracket`, then `close` too when nothing is inside; ',' when an item follows."""
        _, i = token(i, bracket)
        j = _space(buf, i).end()
        return (close, j + 1) if buf[j] == close else (",", i)

    def member(i):
        """A key, its value and the ',' or '}' after it; for a weights list, a new list and '[', with i at the '['."""
        _, i = token(i, '"')
        key, i = json.decoder.scanstring(buf, i)
        _, i = token(i, ":")
        i = _space(buf, i).end()
        if key == "weights" and buf[i] == "[":
            return (key, [], "["), i
        value, i = _value(buf, i)
        close, i = token(i, ",}")
        return (key, value, close), i

    def row(i):
        """A weights row, packed when it is all numbers, and the ',' or ']' after it."""
        i = _space(buf, i).end()
        if buf.find("]", i) < 0:  # read on to the row's end first, so that it is decoded once
            raise IndexError
        value, i = _value(buf, i)
        if isinstance(value, list):
            with contextlib.suppress(TypeError, OverflowError):
                value = array("d", value)
        close, i = token(i, ",]")
        return (value, close), i

    try:
        obj, close = {}, read(lambda i: opening(i, "{", "}"))
        while close == ",":
            key, obj[key], close = read(member)
            if close == "[":
                rows, close = obj[key], read(lambda i: opening(i, "[", "]"))
                while close == ",":
                    value, close = read(row)
                    rows.append(value)
                close = read(lambda i: token(i, ",}"))
        rest = buf[at:] + f.read()  # only blanks may follow the object
        if _space(rest).end() == len(rest):
            return obj
        raise ValueError
    except (ValueError, IndexError):
        buf = obj = rows = rest = None  # json.loads reads it all again: hold neither the text nor the rows
        f.seek(0)
        return json.loads(f.read())


@contextlib.contextmanager
def replacing(path):
    """Yield a UTF-8 text file for `path`'s new bytes; they replace the file `path` names once the body completes.

    They go to temp_file(path), beside the file `path` resolves to, which
    is moved onto that file when the body completes and removed when it
    raises: a failed run leaves an existing file as it was and creates no
    new one, and a symlink stays a link. TEMP_SUFFIX keeps a killed run's
    file out of the loaders' globs. A target that is not a regular file (a
    FIFO, say) is written in place. So is one of the process's open
    descriptors (``/dev/stdout``, ``/dev/fd/N``), through a copy of the
    descriptor, so the bytes go where its own writes go, even when it is a
    regular file: after what it already holds when opened for appending,
    and before what the process prints to it next.
    """
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:  # a missing path, or a link to one
        in_place = False
    fd = _descriptor(path)
    if in_place or fd is not None:
        with open(path if fd is None else os.dup(fd), "w", encoding="utf-8") as f:
            yield f
        return
    tmp = temp_file(path)
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, os.path.realpath(path))
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


_ENCODER = json.JSONEncoder(ensure_ascii=False)  # json.dumps(row, ensure_ascii=False) builds one per call


def _jsonl_line(row) -> str:
    """`row` as one JSON Lines line, non-ASCII unescaped: the encoding of every JSONL output and run-log entry."""
    return _ENCODER.encode(row) + "\n"


@contextlib.contextmanager
def jsonl_writer(path):
    """Yield write(row), which adds one JSON line to `path`'s replacement."""
    with replacing(path) as f:
        yield lambda row: f.write(_jsonl_line(row))


def write_jsonl(path, rows) -> int:
    """Write JSON-ready rows, one per line; return how many were written."""
    n = 0
    with jsonl_writer(path) as write:
        for n, row in enumerate(rows, start=1):
            write(row)
    return n


def _interning(obj):
    """_held's object_hook: each list of strings among obj's values becomes a tuple of interned strings (_interned).

    A list holding anything but exact strings stays a list, for validation
    to report; a record validates such a tuple without copying it.
    """
    for key, value in obj.items():
        if type(value) is list:
            try:
                obj[key] = _interned(value)
            except TypeError:
                pass
    return obj


# How the loaders that return a container decode a line, so that equal tokens across it share one string.
# Streams decode with json.loads, keeping the decoded strings of the one record they hold.
_held = json.JSONDecoder(object_hook=_interning).decode  # json.loads(s, object_hook=...) builds one per call


def iter_dataset(path):
    """Yield the bug-fix examples of a JSONL file, one line at a time.

    Each line is validated as it is read, and a duplicate id is rejected
    when it is reached, so a consumer holds one example at a time. The
    examples keep their decoded strings: nothing is interned.
    """
    return _iter_keyed([path], BugFixExample.from_dict, "example id", "id")


def load_dataset(path) -> list[BugFixExample]:
    """Load bug-fix examples from JSONL, rejecting duplicate ids; their tokens are interned."""
    return list(_iter_keyed([path], BugFixExample.from_dict, "example id", "id", decode=_held))


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
        raise RecordError(f"no {' or '.join(suffixes)} files", path=path)
    return files


def _iter_keyed(files, from_dict, what, *keys, **read):
    """Yield the records _iter_json(file, ..., **read) reads from each file, rejecting a key already yielded.

    A record's key is its `keys` field, or the tuple of them when there
    are several. A repeat raises ``duplicate <what> <key> (first at record
    N)``, N counting the records of all `files` in read order, naming the
    last key field; parse makes the rejection, so _iter_json names the
    file and line.
    """
    key = operator.attrgetter(*keys)
    first_at = {}

    def parse(obj):
        record = from_dict(obj)
        k = key(record)
        if k in first_at:
            raise RecordError(f"duplicate {what} {k!r} (first at record {first_at[k]})", field=keys[-1])
        first_at[k] = len(first_at) + 1
        return record

    for f in files:
        yield from _iter_json(f, parse, **read)


def digest(path) -> str:
    """Hex sha256 of an input file or directory, for embedding input identities in reports.

    A directory's digest covers the sorted names and digests of its
    ``*.json`` and ``*.jsonl`` files (input_files), so of the traces,
    discussions or candidate sets a loader reads from it.

    The hash is CPython's own SHA-256 module, the one hashlib falls back to
    without OpenSSL: the same digest, but hashlib would map OpenSSL (about
    3.6 MB of peak RSS) into every run that fingerprints its inputs. The
    trade favours small inputs: it hashes about 250 MB/s against OpenSSL's
    1,100, so a command pays about 3.5 ms more per MB it fingerprints, less
    the 3-4 ms that importing hashlib costs. Past about 1 MB of input per
    command it is slower; the memory saved stays 3.6 MB. hashlib is used
    only on an interpreter built without that module.
    """
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.11
        except ImportError:
            from hashlib import sha256

    if os.path.isdir(path):
        listing = [[os.path.basename(p), digest(p)] for p in input_files(path, (".json", ".jsonl"))]
        return sha256(json.dumps(listing).encode()).hexdigest()
    h = sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def iter_discussions(path):
    """Yield the discussions of a JSONL file or a directory of them (one per project), one at a time.

    Each line is validated as it is read, and a duplicate id is rejected
    when it is reached. Nothing is interned.
    """
    return _iter_keyed(input_files(path), Discussion.from_dict, "discussion id", "id")


def load_discussions(path) -> dict[str, Discussion]:
    """Load discussions, keyed by id, from a JSONL file or a directory of them (one per project); utterance tokens are interned."""
    discussions = _iter_keyed(input_files(path), Discussion.from_dict, "discussion id", "id", decode=_held)
    return {d.id: d for d in discussions}


def save_discussions(path, discussions) -> None:
    rows = discussions.values() if isinstance(discussions, dict) else discussions
    write_jsonl(path, (d.to_dict() for d in rows))


def load_attention_trace(path) -> AttentionTrace:
    """Load and validate one attention trace JSON document, weights and all.

    The text is read a block at a time, so memory holds the trace's weight
    rows and one block of its text, never the whole file.
    """
    (trace,) = _iter_json(path, AttentionTrace.from_dict, _load_trace)
    return trace


def save_attention_trace(path, trace: AttentionTrace) -> None:
    with replacing(path) as f:
        json.dump(trace.to_dict(), f, ensure_ascii=False)


def load_traces(path) -> dict[str, tuple[Segment, ...]]:
    """Each trace's attended segments by example id, from a trace file or a directory's ``*.json`` traces.

    Each trace is read a block at a time and validated in full, then cut
    to ``tuple(extract_attended_segments(trace))`` before the next file is
    read, so memory holds one trace's weight rows and one block of its
    text, never a whole file, however many traces there are.
    """
    files = input_files(path, (".json",))
    traces = _iter_keyed(files, AttentionTrace.from_dict, "trace for example", "example_id", load=_load_trace)
    attended = {}
    for trace in traces:
        attended[trace.example_id] = tuple(extract_attended_segments(trace))
        del trace  # not alive while the next file is decoded
    return attended


def load_candidates(path) -> dict[str, Candidate]:
    """Load candidate fixes, one per example id, from a JSONL file or a directory of them."""
    files = input_files(path)
    candidates = _iter_keyed(files, Candidate.from_dict, "candidate for example", "example_id", decode=_held)
    return {c.example_id: c for c in candidates}


def save_candidates(path, candidates) -> None:
    rows = candidates.values() if isinstance(candidates, dict) else candidates
    write_jsonl(path, (c.to_dict() for c in rows))


def iter_links(path):
    """Yield the commit link events of a JSONL file, one line at a time."""
    return _iter_json(path, CommitLinkEvent.from_dict)


def load_links(path) -> list[CommitLinkEvent]:
    return list(iter_links(path))


def save_links(path, links) -> None:
    write_jsonl(path, (ln.to_dict() for ln in links))


def load_descriptions(path) -> dict[str, dict[str, tuple[str, ...]]]:
    """Description rows as example_id -> {discussion_id: tokens}, in file order; a repeated pair is rejected."""
    out = {}
    rows = _iter_keyed([path], Description.from_dict, "description for", "example_id", "discussion_id", decode=_held)
    for d in rows:
        out.setdefault(d.example_id, {})[d.discussion_id] = d.description_tokens
    return out


def save_report(path, report: dict) -> None:
    """Write an analysis report as indented JSON (human-diffable)."""
    with replacing(path) as f:
        json.dump(report, f, ensure_ascii=False, indent=2)
        f.write("\n")
