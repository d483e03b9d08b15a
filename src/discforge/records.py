"""Domain records shared by every pipeline stage.

All types validate themselves on construction and are immutable afterwards,
so any instance that exists satisfies its invariants and is safe to share.
Timestamps are normalized ISO-8601 UTC strings ("YYYY-MM-DDTHH:MM:SSZ",
the year always four digits), which sort correctly as plain text; every
temporal comparison in this package is string comparison on that form.

A record's JSON object follows its fields: ``to_dict`` writes every field
in declaration order, tuples as arrays and nested records as objects.
``from_dict`` lets a key be absent or null when its field has a default
(which then applies) or is typed ``| None``; any other absent or null key
is an error naming the field. Unknown keys are ignored.

Each kind of value has one checker, raising RecordError naming the field:
``_check_int`` (an int >= a minimum, never a bool), ``_check_choice``, ``_check_sha``.

A title's and an utterance's tokens (``Discussion.title_tokens``,
``Utterance.tokens``) are computed on first use and then kept on the
record, so each loaded record is tokenized at most once however many
contexts render it; a discussion the temporal filter cuts reads its
loaded record's title memo (``Discussion._prefix``), and fills it only
when a context renders the title. Nothing is tokenized at load time.

Held records are compact, by one rule: every list of strings becomes a
tuple of interned strings (``_interned``). The storage loaders that
return a container (``load_dataset``, ``load_discussions``,
``load_candidates``, ``load_descriptions``) apply it to each value of
every JSON object they decode, nested utterances' included, and the
computed memos apply it to their tokens, so equal tokens share one
object across a corpus and its discussions; the interned set is bounded
by the vocabulary. A list holding anything else stays a list, for
validation to report. Records validate without interning, so a streamed
record (``storage.iter_dataset``, ``iter_discussions``) keeps its
decoded strings. CPython 3.12 never frees interned strings (3.11
and 3.13 do), so there a process keeps every string it has held or
tokenized, the letter and digit runs of URLs and shas included, for its
lifetime; a stream does not add to that table.

``AttentionTrace.weights`` is a tuple of ``array('d')`` rows. An array
can be written in place, so those rows are the one exception to
immutability: nothing in this package writes them, and callers must not.
A trace cannot be hashed, as was already so whenever ``meta`` was set.
"""

from __future__ import annotations

import functools
import re
import sys
from array import array
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone

from .textproc import process_discussion_text, subtokenize

SEPARATOR = "<s>"

CONTEXT_KINDS = (
    "without_nl",
    "oracle_msg",
    "whole_discussion",
    "title",
    "last_utterance",
    "soln_desc",
    "soln_desc_plus_title",
    "attended_segments",
)

SPLITS = ("train", "valid", "test")

SEGMENT_KINDS = ("title", "utterance")

LINK_SOURCES = ("message_reference", "timeline_event")

# Attention rows must be probability distributions within this tolerance.
ROW_SUM_TOLERANCE = 1e-3

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

# The normalized form itself; such a value needs only a validity check.
_CANONICAL_TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)


class RecordError(ValueError):
    """A record violated its schema or an invariant.

    Carries the offending file, line number and field name when known, so
    loaders can point at the exact spot in a file; ``message`` is the text
    without that location prefix.
    """

    def __init__(self, message, *, path=None, line=None, field=None):
        self.message = message
        self.path = path
        self.line = line
        self.field = field
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"field {field!r}: "
        super().__init__(prefix + message)


def normalize_timestamp(value) -> str:
    """Normalize an ISO-8601 timestamp to second-precision UTC.

    Accepts the tracker's "Z" suffix, explicit offsets, and naive stamps
    (taken as UTC). Fractional seconds are truncated.
    """
    if type(value) is str and _CANONICAL_TIMESTAMP.fullmatch(value):
        try:
            datetime.fromisoformat(value[:-1])
        except ValueError:
            pass  # out-of-range field: the full path below reports it
        else:
            return value
    if not isinstance(value, str) or not value.strip():
        raise RecordError(f"not a timestamp: {value!r}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise RecordError(f"unparseable timestamp: {value!r}") from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    try:
        parsed = parsed.astimezone(timezone.utc).replace(microsecond=0, tzinfo=None)
    except OverflowError:
        raise RecordError(f"timestamp outside years 1-9999 in UTC: {value!r}") from None
    # isoformat writes the year with four digits; strftime's %Y does not
    # pad years below 1000.
    return parsed.isoformat() + "Z"


def _check_timestamp(value, field_name):
    try:
        return normalize_timestamp(value)
    except RecordError as exc:
        raise RecordError(exc.message, field=field_name) from None


def _set(obj, name, value):
    object.__setattr__(obj, name, value)


def _check_tokens(value, field_name, *, allow_empty_list=True):
    # Fast path at C speed: str.join raises TypeError on anything but a str
    # (a subclass passes and is kept as it is), so it is the type check, and
    # all() finds an empty token. Every other case takes the loop below,
    # which reports the error. Nothing is interned here: the loaders that
    # hold their records decode each list of strings as a tuple of
    # interned strings (_interned), which passes through without a copy,
    # while a stream keeps the decoded strings of the one record it holds.
    if isinstance(value, (list, tuple)):
        tokens = tuple(value)
        try:
            "".join(tokens)
        except TypeError:
            pass
        else:
            if all(tokens) and (tokens or allow_empty_list):
                return tokens
    if not isinstance(value, (list, tuple)):
        raise RecordError("expected a list of tokens", field=field_name)
    for tok in value:
        if not isinstance(tok, str):
            raise RecordError(f"token {tok!r} is not a string", field=field_name)
        if tok == "":
            raise RecordError("empty-string token", field=field_name)
    if not allow_empty_list and not value:
        raise RecordError("token list must not be empty", field=field_name)
    return tuple(value)


def _interned(strings) -> tuple[str, ...]:
    """`strings` as a tuple of interned strings: the one interning rule of held records and token memos.

    sys.intern takes exact strings only: anything else raises TypeError.
    """
    return tuple(map(sys.intern, strings))


def _check_str(value, field_name, *, allow_blank=False):
    if not isinstance(value, str):
        raise RecordError(f"expected a string, got {value!r}", field=field_name)
    if not allow_blank and not value.strip():
        raise RecordError("must not be blank", field=field_name)
    return value


def _check_list(value, field_name):
    if not isinstance(value, (list, tuple)):  # a str or dict would iterate
        raise RecordError(f"expected a list, got {type(value).__name__}", field=field_name)


def _check_int(value, field_name, minimum):
    # bool is an int subclass: JSON true/false must not pass as 1/0.
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecordError(f"{field_name} must be an integer, got {value!r}", field=field_name)
    if value < minimum:
        raise RecordError(f"{field_name} must be >= {minimum}, got {value!r}", field=field_name)
    return value


def _percent(k, n) -> float:
    """k of n as a percentage to one decimal; 0.0 when n is 0. Every rate in a report is this."""
    return round(100.0 * k / n, 1) if n else 0.0


def _check_choice(value, choices, field_name):
    if value not in choices:
        raise RecordError(f"{field_name} must be one of {choices}, got {value!r}", field=field_name)


def is_hex_sha(value) -> bool:
    """True for a 7-40 character hex string (abbreviated or full sha)."""
    return (
        isinstance(value, str)
        and 7 <= len(value) <= 40
        and _HEX_DIGITS.issuperset(value)
    )


def _check_sha(value, field_name):
    if not is_hex_sha(value):
        raise RecordError(f"{field_name} must be 7-40 hex chars, got {value!r}", field=field_name)


def _weight_row(row, step) -> array:
    """Attention row `step` as packed doubles, converting as float() does."""
    if isinstance(row, array) and row.typecode == "d":
        return row  # storage's decoder packs rows so; keep them, not a copy
    # Only sequences take the fast path: array() would read bytes as raw
    # memory, and it rejects what float() parses, such as "0.5".
    if isinstance(row, (list, tuple, array)):
        try:
            return array("d", row)
        except (TypeError, OverflowError):
            pass
    try:
        return array("d", [float(w) for w in row])
    except (TypeError, ValueError, OverflowError) as exc:
        raise RecordError(f"row {step} is not a list of numbers: {exc}", field="weights") from None


@functools.cache
def _fields_of(cls):
    return fields(cls)


def _plain(values: tuple) -> list:
    """JSON form of a tuple field: records become dicts, weight rows lists."""
    if values and isinstance(values[0], _Record):
        return [v.to_dict() for v in values]
    if values and isinstance(values[0], array):
        return [list(row) for row in values]
    return list(values)


class _Record:
    """A record whose JSON form follows its dataclass fields."""

    def to_dict(self) -> dict:
        d = {}
        for f in _fields_of(type(self)):
            value = getattr(self, f.name)
            d[f.name] = _plain(value) if isinstance(value, tuple) else value
        return d

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise RecordError(f"expected a JSON object, got {type(d).__name__}")
        kwargs = {}
        for f in _fields_of(cls):
            value = d.get(f.name)
            if value is not None:
                kwargs[f.name] = value
            elif f.default is MISSING and f.default_factory is MISSING:
                # annotations are strings here (postponed evaluation)
                if not f.type.endswith("| None"):
                    raise RecordError("missing", field=f.name)
                kwargs[f.name] = None
        return cls(**kwargs)


@dataclass(frozen=True)
class Utterance(_Record):
    """One contiguous text contribution in a discussion.

    Index 0 is the report body; comments follow in creation order.
    """

    index: int
    author: str
    created_at: str
    body_raw: str
    body_tokens: tuple[str, ...] | None = None

    def __post_init__(self):
        _check_int(self.index, "index", 0)
        _check_str(self.author, "author", allow_blank=True)
        _check_str(self.body_raw, "body_raw", allow_blank=True)
        _set(self, "created_at", _check_timestamp(self.created_at, "created_at"))
        if self.body_tokens is not None:
            _set(self, "body_tokens", _check_tokens(self.body_tokens, "body_tokens"))

    @functools.cached_property
    def tokens(self) -> tuple[str, ...]:
        """Pre-tokenized text when present, otherwise the normalized raw body."""
        if self.body_tokens is not None:
            return self.body_tokens
        return _interned(process_discussion_text(self.body_raw))


def _last_activity(created_at, utterances) -> str:
    """A thread's derived last_activity_at: its latest utterance's timestamp, else the report's own."""
    return utterances[-1].created_at if utterances else created_at


@dataclass(frozen=True)
class Discussion(_Record):
    """A bug report: title plus the time-ordered utterance thread.

    ``last_activity_at`` is derived (latest utterance timestamp, falling
    back to the report's own creation time); pass None to have it computed.
    """

    id: str
    project: str
    issue_number: int
    title: str
    created_at: str
    utterances: tuple[Utterance, ...] = ()
    last_activity_at: str | None = None

    def __post_init__(self):
        _check_str(self.id, "id")
        _check_str(self.project, "project")
        _check_int(self.issue_number, "issue_number", 1)
        _check_str(self.title, "title")
        _set(self, "created_at", _check_timestamp(self.created_at, "created_at"))

        _check_list(self.utterances, "utterances")
        utts = tuple(
            u if isinstance(u, Utterance) else Utterance.from_dict(u)
            for u in self.utterances
        )
        for pos, utt in enumerate(utts):
            if utt.index != pos:
                raise RecordError(
                    f"utterance indexes must run 0..n-1, found {utt.index} at position {pos}",
                    field="utterances",
                )
            if pos > 0 and utt.created_at < utts[pos - 1].created_at:
                raise RecordError(
                    f"utterance {pos} predates utterance {pos - 1}",
                    field="utterances",
                )
        _set(self, "utterances", utts)

        derived = _last_activity(self.created_at, utts)
        if self.last_activity_at is None:
            _set(self, "last_activity_at", derived)
        else:
            declared = _check_timestamp(self.last_activity_at, "last_activity_at")
            if declared != derived:
                raise RecordError(
                    f"last_activity_at {declared} != derived {derived}",
                    field="last_activity_at",
                )
            _set(self, "last_activity_at", declared)

    @functools.cached_property
    def title_tokens(self) -> tuple[str, ...]:
        """The title's subtokens; a cut copy (_prefix) reads its loaded record's."""
        source = vars(self).get("_source")
        return _interned(subtokenize(self.title)) if source is None else source.title_tokens

    def _prefix(self, keep):
        """This thread cut to its first `keep` utterances, as linking.temporal_filter keeps them.

        A prefix of a valid thread is valid, so the copy is made without
        __post_init__. It keeps the loaded record it was cut from as
        ``_source``, whose title memo its own title_tokens reads, so a
        title is tokenized once however many cutoffs cut its discussion,
        and only when a context renders it.
        """
        cut = object.__new__(type(self))
        vars(cut).update(vars(self))
        vars(cut).setdefault("_source", self)
        utts = self.utterances[:keep]
        _set(cut, "utterances", utts)
        _set(cut, "last_activity_at", _last_activity(self.created_at, utts))
        return cut



@dataclass(frozen=True)
class BugFixExample(_Record):
    """One buggy-to-fixed method pair with its linked discussions."""

    id: str
    project: str
    commit_sha: str
    commit_timestamp: str
    split: str
    buggy_tokens: tuple[str, ...]
    fixed_tokens: tuple[str, ...]
    method_tokens: tuple[str, ...]
    oracle_msg_tokens: tuple[str, ...] | None = None
    discussion_ids: tuple[str, ...] = ()

    def __post_init__(self):
        _check_str(self.id, "id")
        _check_str(self.project, "project")
        _check_sha(self.commit_sha, "commit_sha")
        _set(self, "commit_timestamp", _check_timestamp(self.commit_timestamp, "commit_timestamp"))
        _check_choice(self.split, SPLITS, "split")
        _set(self, "buggy_tokens", _check_tokens(self.buggy_tokens, "buggy_tokens", allow_empty_list=False))
        _set(self, "fixed_tokens", _check_tokens(self.fixed_tokens, "fixed_tokens", allow_empty_list=False))
        _set(self, "method_tokens", _check_tokens(self.method_tokens, "method_tokens", allow_empty_list=False))
        if self.buggy_tokens == self.fixed_tokens:
            raise RecordError(
                "buggy_tokens equal fixed_tokens (a fix must change the code)",
                field="fixed_tokens",
            )
        if self.oracle_msg_tokens is not None:
            _set(self, "oracle_msg_tokens", _check_tokens(self.oracle_msg_tokens, "oracle_msg_tokens"))
        _check_list(self.discussion_ids, "discussion_ids")
        ids = tuple(_check_str(i, "discussion_ids") for i in self.discussion_ids)
        if len(set(ids)) != len(ids):
            raise RecordError("duplicate discussion id", field="discussion_ids")
        _set(self, "discussion_ids", ids)


@dataclass(frozen=True)
class Segment(_Record):
    """A title or utterance span inside an attention trace's input."""

    segment_id: int
    kind: str
    discussion_id: str
    utterance_index: int | None
    token_start: int
    token_end: int

    def __post_init__(self):
        _check_int(self.segment_id, "segment_id", 0)
        _check_choice(self.kind, SEGMENT_KINDS, "kind")
        _check_str(self.discussion_id, "discussion_id")
        if self.kind == "utterance":
            _check_int(self.utterance_index, "utterance_index", 0)
        elif self.utterance_index is not None:
            raise RecordError(
                "title segments must not carry an utterance_index",
                field="utterance_index",
            )
        _check_int(self.token_start, "token_start", 0)
        _check_int(self.token_end, "token_end", 1)
        if self.token_start >= self.token_end:
            raise RecordError(
                f"need token_start < token_end, got [{self.token_start}, {self.token_end})",
                field="token_start",
            )


@dataclass(frozen=True)
class AttentionTrace(_Record):
    """Decoder attention over one example's input, with segment boundaries.

    Rows are decoding steps; each row is a probability distribution over
    the input tokens (within ROW_SUM_TOLERANCE). How attention heads were
    aggregated is the producer's business; producers should record their
    convention (e.g. "mean over heads") in ``meta``.
    """

    example_id: str
    num_input_tokens: int
    segments: tuple[Segment, ...]
    weights: tuple[array, ...]
    meta: dict | None = None

    def __post_init__(self):
        _check_str(self.example_id, "example_id")
        _check_int(self.num_input_tokens, "num_input_tokens", 1)
        _check_list(self.segments, "segments")
        _check_list(self.weights, "weights")
        segs = tuple(
            s if isinstance(s, Segment) else Segment.from_dict(s) for s in self.segments
        )
        prev_end = 0
        for seg in segs:
            if seg.token_start < prev_end:
                raise RecordError(
                    f"segment {seg.segment_id} overlaps or is out of order",
                    field="segments",
                )
            if seg.token_end > self.num_input_tokens:
                raise RecordError(
                    f"segment {seg.segment_id} ends at {seg.token_end}, "
                    f"past the {self.num_input_tokens}-token input",
                    field="segments",
                )
            prev_end = seg.token_end
        _set(self, "segments", segs)

        rows = []
        for step, row in enumerate(self.weights):
            row = _weight_row(row, step)
            if len(row) != self.num_input_tokens:
                raise RecordError(
                    f"row {step} has {len(row)} weights, expected {self.num_input_tokens}",
                    field="weights",
                )
            # min() is NaN or negative whenever some weight is negative
            if not min(row) >= 0.0 and any(w < 0.0 for w in row):
                raise RecordError(f"row {step} has a negative weight", field="weights")
            total = sum(row)
            if not (1.0 - ROW_SUM_TOLERANCE <= total <= 1.0 + ROW_SUM_TOLERANCE):
                raise RecordError(
                    f"row {step} sums to {total:.6f}, not a normalized distribution",
                    field="weights",
                )
            rows.append(row)
        _set(self, "weights", tuple(rows))
        if self.meta is not None and not isinstance(self.meta, dict):
            raise RecordError("meta must be a JSON object", field="meta")

    @property
    def num_steps(self) -> int:
        return len(self.weights)

    def to_dict(self) -> dict:
        d = super().to_dict()
        if self.meta is None:
            del d["meta"]
        return d


@dataclass(frozen=True)
class ContextSpec:
    """Which input representation to build, and the token budget for it."""

    kind: str
    token_limit: int = 1024

    def __post_init__(self):
        _check_choice(self.kind, CONTEXT_KINDS, "kind")
        _check_int(self.token_limit, "token_limit", 1)


@dataclass(frozen=True)
class CommitLinkEvent(_Record):
    """One discovered (issue, commit) association and how it was found."""

    project: str
    issue_number: int
    commit_sha: str
    linked_at: str
    link_source: str

    def __post_init__(self):
        _check_str(self.project, "project")
        _check_int(self.issue_number, "issue_number", 1)
        _check_sha(self.commit_sha, "commit_sha")
        _set(self, "linked_at", _check_timestamp(self.linked_at, "linked_at"))
        _check_choice(self.link_source, LINK_SOURCES, "link_source")


@dataclass(frozen=True)
class Candidate(_Record):
    """A candidate fix for one example, labeled with its producing source."""

    example_id: str
    candidate_tokens: tuple[str, ...]
    source: str

    def __post_init__(self):
        _check_str(self.example_id, "example_id")
        _set(self, "candidate_tokens", _check_tokens(self.candidate_tokens, "candidate_tokens"))
        _check_str(self.source, "source")


@dataclass(frozen=True)
class Description(_Record):
    """A solution description of one example, taken from one of its discussions."""

    example_id: str
    discussion_id: str
    description_tokens: tuple[str, ...]

    def __post_init__(self):
        _check_str(self.example_id, "example_id")
        _check_str(self.discussion_id, "discussion_id")
        _set(self, "description_tokens", _check_tokens(self.description_tokens, "description_tokens"))


@dataclass(frozen=True)
class EvalReport:
    """Exact-match outcome of one candidate source against the references.

    ``n`` and ``exact_match_rate`` are derived from ``per_example``.
    """

    representation: str
    per_example: dict = field(default_factory=dict)
    missing: int = 0

    def __post_init__(self):
        _check_str(self.representation, "representation", allow_blank=True)

    @property
    def n(self) -> int:
        return len(self.per_example)

    @property
    def exact_match_rate(self) -> float:
        return _percent(sum(bool(v) for v in self.per_example.values()), self.n)

    def to_dict(self) -> dict:
        return {
            "representation": self.representation,
            "n": self.n,
            "matches": sum(bool(v) for v in self.per_example.values()),
            "missing": self.missing,
            "exact_match_rate": self.exact_match_rate,
            "per_example": dict(self.per_example),
        }


