"""Record validation and serialization round trips."""

import json
import math
import random
import sys
from array import array
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from decimal import Decimal

import pytest

from conftest import make_discussion, make_example, make_utterance
from discforge import storage
from discforge.records import (
    AttentionTrace,
    BugFixExample,
    Candidate,
    CommitLinkEvent,
    Discussion,
    EvalReport,
    RecordError,
    Segment,
    ContextSpec,
    Utterance,
    ROW_SUM_TOLERANCE,
    _HEX_DIGITS,
    _check_tokens,
    is_hex_sha,
    normalize_timestamp,
)


class TestNormalizeTimestamp:
    def test_z_suffix(self):
        assert normalize_timestamp("2014-05-01T10:00:00Z") == "2014-05-01T10:00:00Z"

    def test_offset_converted_to_utc(self):
        assert normalize_timestamp("2014-05-01T12:30:00+02:30") == "2014-05-01T10:00:00Z"

    def test_naive_taken_as_utc(self):
        assert normalize_timestamp("2014-05-01 10:00:00") == "2014-05-01T10:00:00Z"

    def test_microseconds_truncated(self):
        assert normalize_timestamp("2014-05-01T10:00:00.999Z") == "2014-05-01T10:00:00Z"

    # Forms that datetime.fromisoformat parses only from Python 3.11 on.
    @pytest.mark.parametrize(
        "stamp", ["2014-05-01T10:00:00.1Z", "2014-05-01T12:00:00+0200", "20140501T100000Z"]
    )
    def test_extended_iso_forms(self, stamp):
        assert normalize_timestamp(stamp) == "2014-05-01T10:00:00Z"

    @pytest.mark.parametrize("bad", ["", "yesterday", "2014-13-40T99:00:00Z", None, 17])
    def test_rejects_garbage(self, bad):
        with pytest.raises(RecordError):
            normalize_timestamp(bad)

    def test_normalized_strings_sort_chronologically(self):
        early = normalize_timestamp("2014-05-01T23:59:59+05:00")
        late = normalize_timestamp("2014-05-01T20:00:00Z")
        assert early < late


def _reference_normalize_timestamp(value) -> str:
    """normalize_timestamp without its fast path for canonical stamps."""
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
    parsed = parsed.astimezone(timezone.utc).replace(microsecond=0, tzinfo=None)
    return parsed.isoformat() + "Z"


def _outcome(fn, value):
    try:
        return "ok", fn(value)
    except RecordError as exc:
        return "error", str(exc)


def _random_stamp(rng):
    """A stamp in canonical shape whose fields may be out of range."""
    year = rng.choice([rng.randrange(0, 1000), rng.randrange(1000, 10000)])
    return (
        f"{year:04d}-{rng.randrange(0, 14):02d}-{rng.randrange(0, 33):02d}"
        f"T{rng.randrange(0, 26):02d}:{rng.randrange(0, 62):02d}:{rng.randrange(0, 62):02d}Z"
    )


_STAMP_CHARS = "0123456789-:TZz +.tx\u0661\n"


def test_normalize_timestamp_matches_reference_oracle():
    rng = random.Random(20140510)
    valid = "2014-05-10T12:34:56Z"
    inputs = ["0999-01-01T00:00:00Z", "1000-01-01T00:00:00Z", "9999-12-31T23:59:59Z"]
    inputs += [_random_stamp(rng) for _ in range(3000)]
    for _ in range(3000):
        pos = rng.randrange(len(valid) + 1)
        op = rng.choice(("replace", "insert", "delete"))
        ch = rng.choice(_STAMP_CHARS)
        if op == "replace" and pos < len(valid):
            inputs.append(valid[:pos] + ch + valid[pos + 1:])
        elif op == "insert":
            inputs.append(valid[:pos] + ch + valid[pos:])
        else:
            inputs.append(valid[:pos] + valid[pos + 1:])
    inputs += [
        "".join(rng.choice(_STAMP_CHARS) for _ in range(rng.randrange(0, 25)))
        for _ in range(3000)
    ]
    mismatches = [
        (v, _outcome(normalize_timestamp, v), _outcome(_reference_normalize_timestamp, v))
        for v in inputs
        if _outcome(normalize_timestamp, v) != _outcome(_reference_normalize_timestamp, v)
    ]
    assert not mismatches, mismatches[:5]
    assert normalize_timestamp("0999-01-01T00:00:00Z") == "0999-01-01T00:00:00Z"


def _random_valid_stamp(rng, first_year, last_year):
    """A valid stamp in one of the input forms the normalizer accepts."""
    ts = datetime(rng.randint(first_year, last_year), 1, 1) + timedelta(
        seconds=rng.randrange(365 * 86400)
    )
    return rng.choice((
        f"{ts.isoformat()}Z",
        f"{ts.isoformat()}+00:00",
        ts.isoformat(sep=" "),
        f"{ts.isoformat()}.{rng.randrange(10**6):06d}Z",
    ))


@pytest.mark.parametrize("years", [(1, 999), (1000, 9999)])
def test_normalize_timestamp_is_idempotent(years):
    rng = random.Random(years[0])
    for _ in range(2000):
        once = normalize_timestamp(_random_valid_stamp(rng, *years))
        assert normalize_timestamp(once) == once


@pytest.mark.parametrize("years", [(1, 999), (1000, 9999)])
def test_discussion_with_random_stamps_round_trips(tmp_path, years):
    rng = random.Random(years[1])
    discussions = []
    for number in range(1, 51):
        stamps = sorted(
            (_random_valid_stamp(rng, *years) for _ in range(4)),
            key=normalize_timestamp,
        )
        discussions.append(make_discussion(
            disc_id=f"demo/proj#{number}",
            number=number,
            created_at=stamps[0],
            utterances=[make_utterance(i, s) for i, s in enumerate(stamps[1:])],
        ))
    path = tmp_path / "d.jsonl"
    storage.save_discussions(path, discussions)
    assert list(storage.load_discussions(path).values()) == discussions


@pytest.mark.parametrize("year", [1, 9999])
def test_offsets_near_year_bounds_normalize_or_raise_record_error(year):
    rng = random.Random(year)
    for _ in range(2000):
        local = datetime(year, 1 if year == 1 else 12, rng.choice((1, 2) if year == 1 else (30, 31)))
        local += timedelta(seconds=rng.randrange(86400))
        minutes = rng.randint(-(23 * 60 + 59), 23 * 60 + 59)
        sign = "+" if minutes >= 0 else "-"
        stamp = f"{local.isoformat()}{sign}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"
        try:
            expected = (local - timedelta(minutes=minutes)).isoformat() + "Z"
        except OverflowError:
            with pytest.raises(RecordError, match="outside years 1-9999"):
                normalize_timestamp(stamp)
        else:
            assert normalize_timestamp(stamp) == expected, stamp


class TestDiscussion:
    def test_last_activity_derived_from_latest_utterance(self):
        d = make_discussion(
            utterances=[
                make_utterance(0, "2014-05-01T10:00:00Z"),
                make_utterance(1, "2014-05-03T08:00:00Z"),
            ]
        )
        assert d.last_activity_at == "2014-05-03T08:00:00Z"

    def test_last_activity_falls_back_to_created(self):
        assert make_discussion().last_activity_at == "2014-05-01T10:00:00Z"

    def test_declared_last_activity_must_match(self):
        with pytest.raises(RecordError, match="last_activity_at"):
            Discussion(
                id="p/q#1",
                project="p/q",
                issue_number=1,
                title="t",
                created_at="2014-05-01T10:00:00Z",
                utterances=(),
                last_activity_at="2020-01-01T00:00:00Z",
            )

    def test_utterance_indexes_must_be_sequential(self):
        with pytest.raises(RecordError, match="indexes"):
            make_discussion(utterances=[make_utterance(index=1)])

    def test_utterances_must_be_time_ordered(self):
        with pytest.raises(RecordError, match="predates"):
            make_discussion(
                utterances=[
                    make_utterance(0, "2014-05-02T10:00:00Z"),
                    make_utterance(1, "2014-05-01T10:00:00Z"),
                ]
            )

    def test_blank_title_rejected(self):
        with pytest.raises(RecordError, match="title"):
            make_discussion(title="   ")

    def test_round_trip(self):
        d = make_discussion(utterances=[make_utterance(0, body="héllo ß ✓")])
        assert Discussion.from_dict(d.to_dict()) == d


class TestBugFixExample:
    def test_round_trip(self):
        ex = make_example(oracle=("fix", "bug"), discussion_ids=("a#1", "b#2"))
        assert BugFixExample.from_dict(ex.to_dict()) == ex

    def test_identical_buggy_and_fixed_rejected(self):
        with pytest.raises(RecordError, match="fixed_tokens"):
            make_example(fixed=("int", "f", "(", ")", "{", "return", "0", ";", "}"))

    @pytest.mark.parametrize("sha", ["xyz", "ab12", "g" * 10, "a" * 41])
    def test_bad_sha_rejected(self, sha):
        with pytest.raises(RecordError, match="commit_sha"):
            make_example(sha=sha)

    def test_abbreviated_sha_accepted(self):
        assert make_example(sha="ab12cd3").commit_sha == "ab12cd3"

    def test_duplicate_discussion_ids_rejected(self):
        with pytest.raises(RecordError, match="discussion"):
            make_example(discussion_ids=("a#1", "a#1"))

    def test_unknown_split_rejected(self):
        with pytest.raises(RecordError, match="split"):
            make_example(split="dev")

    def test_empty_token_list_rejected(self):
        with pytest.raises(RecordError, match="buggy"):
            make_example(buggy=())


class TestSegment:
    def test_title_segment_has_no_utterance_index(self):
        with pytest.raises(RecordError, match="utterance_index"):
            Segment(0, "title", "a#1", 2, 0, 5)

    def test_utterance_segment_needs_index(self):
        with pytest.raises(RecordError, match="utterance_index"):
            Segment(0, "utterance", "a#1", None, 0, 5)

    def test_empty_span_rejected(self):
        with pytest.raises(RecordError, match="token_start"):
            Segment(0, "title", "a#1", None, 5, 5)


def _trace(weights, segments=None, n=None):
    return AttentionTrace(
        example_id="e1",
        num_input_tokens=n or len(weights[0]),
        segments=tuple(segments or ()),
        weights=tuple(tuple(r) for r in weights),
    )


class TestAttentionTrace:
    def test_rows_must_normalize(self):
        with pytest.raises(RecordError, match="sums to"):
            _trace([[0.9, 0.2]])

    def test_tolerance_accepts_slightly_off_rows(self):
        t = _trace([[0.5004, 0.5001]])
        assert t.num_steps == 1

    def test_row_length_must_match_input(self):
        with pytest.raises(RecordError, match="expected 3"):
            _trace([[0.5, 0.5]], n=3)

    def test_segments_must_not_overlap(self):
        segs = [Segment(0, "title", "a#1", None, 0, 3), Segment(1, "title", "b#2", None, 2, 4)]
        with pytest.raises(RecordError, match="overlaps"):
            _trace([[0.25] * 4], segments=segs)

    def test_segment_may_not_pass_input_end(self):
        segs = [Segment(0, "title", "a#1", None, 0, 9)]
        with pytest.raises(RecordError, match="past"):
            _trace([[0.25] * 4], segments=segs)

    def test_meta_must_be_an_object(self):
        with pytest.raises(RecordError, match="meta must be a JSON object"):
            AttentionTrace.from_dict({**_trace([[1.0]]).to_dict(), "meta": ["mean"]})

    def test_double_array_row_is_kept_and_list_row_is_packed(self):
        kept, listed = array("d", [0.5, 0.5]), [0.5, 0.5]
        t = AttentionTrace("e1", 2, (), (kept, listed))
        assert t.weights[0] is kept
        assert t.weights[1] is not listed and t.weights[1] == array("d", listed)

    def test_round_trip(self):
        t = _trace([[0.5, 0.25, 0.25]], segments=[Segment(0, "title", "a#1", None, 1, 3)])
        assert AttentionTrace.from_dict(t.to_dict()) == t


@pytest.mark.parametrize("value", [5, "abc", {"x": 1}], ids=["int", "str", "dict"])
@pytest.mark.parametrize(
    "cls, make, field",
    [
        (Discussion, make_discussion, "utterances"),
        (BugFixExample, make_example, "discussion_ids"),
        (AttentionTrace, lambda: _trace([[1.0]]), "segments"),
        (AttentionTrace, lambda: _trace([[1.0]]), "weights"),
    ],
    ids=["utterances", "discussion_ids", "segments", "weights"],
)
def test_sequence_field_must_be_a_list(cls, make, field, value):
    d = make().to_dict()
    d[field] = value
    with pytest.raises(RecordError) as info:
        cls.from_dict(d)
    assert info.value.field == field
    assert info.value.message == f"expected a list, got {type(value).__name__}"


def _link():
    return CommitLinkEvent("p/q", 3, "abcdef0123", "2014-05-10T12:00:00Z", "timeline_event")


def _segment():
    return Segment(0, "utterance", "a#1", 0, 0, 1)


@pytest.mark.parametrize("bad", [True, False, 1.5, "1", "below"], ids=["true", "false", "float", "str", "below"])
@pytest.mark.parametrize(
    "make, field, minimum",
    [
        (make_utterance, "index", 0),
        (make_discussion, "issue_number", 1),
        (_segment, "segment_id", 0),
        (_segment, "utterance_index", 0),
        (_segment, "token_start", 0),
        (_segment, "token_end", 1),
        (lambda: _trace([[1.0]]), "num_input_tokens", 1),
        (lambda: ContextSpec(kind="title"), "token_limit", 1),
        (_link, "issue_number", 1),
    ],
    ids=[
        "Utterance.index", "Discussion.issue_number", "Segment.segment_id",
        "Segment.utterance_index", "Segment.token_start", "Segment.token_end",
        "AttentionTrace.num_input_tokens", "ContextSpec.token_limit", "CommitLinkEvent.issue_number",
    ],
)
def test_integer_field_takes_only_an_int_at_or_above_its_minimum(make, field, minimum, bad):
    record = make()
    assert getattr(replace(record, **{field: minimum}), field) == minimum
    value = minimum - 1 if bad == "below" else bad
    with pytest.raises(RecordError) as info:
        replace(record, **{field: value})
    assert info.value.field == field
    assert info.value.message.startswith(f"{field} must be ")


class TestMisc:
    def test_context_spec_rejects_unknown_kind(self):
        with pytest.raises(RecordError, match="kind"):
            ContextSpec(kind="everything")

    def test_context_spec_default_budget(self):
        assert ContextSpec(kind="title").token_limit == 1024

    def test_commit_link_round_trip(self):
        ev = CommitLinkEvent("p/q", 3, "abcdef0123", "2014-05-10T12:00:00Z", "timeline_event")
        assert CommitLinkEvent.from_dict(ev.to_dict()) == ev

    def test_candidate_round_trip(self):
        c = Candidate("e1", ("a", "<s>", "b"), "model")
        assert Candidate.from_dict(c.to_dict()) == c

    def test_eval_report_rate_is_derived(self):
        r = EvalReport("title", {"a": True, "b": False, "c": True})
        assert r.exact_match_rate == 66.7
        assert r.n == 3

    def test_rate_formula_matches_known_corpus_ratio(self):
        per = {str(i): i < 106 for i in range(293)}
        assert EvalReport("x", per).exact_match_rate == 36.2


_TITLE_SEG = Segment(0, "title", "p/q#7", None, 0, 2)

# One instance per record type and the exact line storage writes for it;
# the writers must keep producing these bytes.
_PINNED = {
    "utterance": (
        Utterance(1, "bob", "2014-05-02T10:00:00+02:00", "héllo ✓", ("héllo", "✓")),
        '{"index": 1, "author": "bob", "created_at": "2014-05-02T08:00:00Z", '
        '"body_raw": "héllo ✓", "body_tokens": ["héllo", "✓"]}',
    ),
    "discussion": (
        Discussion(
            "p/q#7", "p/q", 7, "Crash", "2014-05-01T10:00:00Z",
            (
                Utterance(0, "alice", "2014-05-01T10:00:00Z", "body"),
                Utterance(1, "bob", "2014-05-02T08:00:00Z", "more", ("more",)),
            ),
        ),
        '{"id": "p/q#7", "project": "p/q", "issue_number": 7, "title": "Crash", '
        '"created_at": "2014-05-01T10:00:00Z", "utterances": [{"index": 0, '
        '"author": "alice", "created_at": "2014-05-01T10:00:00Z", "body_raw": "body", '
        '"body_tokens": null}, {"index": 1, "author": "bob", '
        '"created_at": "2014-05-02T08:00:00Z", "body_raw": "more", '
        '"body_tokens": ["more"]}], "last_activity_at": "2014-05-02T08:00:00Z"}',
    ),
    "example": (
        BugFixExample(
            "e1", "p/q", "abcdef0", "2014-05-10T12:00:00Z", "train",
            ("a", ";"), ("b", ";"), ("m",), ("fix",), ("p/q#7",),
        ),
        '{"id": "e1", "project": "p/q", "commit_sha": "abcdef0", '
        '"commit_timestamp": "2014-05-10T12:00:00Z", "split": "train", '
        '"buggy_tokens": ["a", ";"], "fixed_tokens": ["b", ";"], "method_tokens": ["m"], '
        '"oracle_msg_tokens": ["fix"], "discussion_ids": ["p/q#7"]}',
    ),
    "example_without_oracle": (
        BugFixExample("e2", "p/q", "abcdef0", "2014-05-10T12:00:00Z", "test", ("a",), ("b",), ("m",)),
        '{"id": "e2", "project": "p/q", "commit_sha": "abcdef0", '
        '"commit_timestamp": "2014-05-10T12:00:00Z", "split": "test", '
        '"buggy_tokens": ["a"], "fixed_tokens": ["b"], "method_tokens": ["m"], '
        '"oracle_msg_tokens": null, "discussion_ids": []}',
    ),
    "title_segment": (
        _TITLE_SEG,
        '{"segment_id": 0, "kind": "title", "discussion_id": "p/q#7", '
        '"utterance_index": null, "token_start": 0, "token_end": 2}',
    ),
    "utterance_segment": (
        Segment(1, "utterance", "p/q#7", 0, 2, 4),
        '{"segment_id": 1, "kind": "utterance", "discussion_id": "p/q#7", '
        '"utterance_index": 0, "token_start": 2, "token_end": 4}',
    ),
    "trace_without_meta": (
        AttentionTrace("e1", 2, (_TITLE_SEG,), ((0.5, 0.5), (0.25, 0.75))),
        '{"example_id": "e1", "num_input_tokens": 2, "segments": [{"segment_id": 0, '
        '"kind": "title", "discussion_id": "p/q#7", "utterance_index": null, '
        '"token_start": 0, "token_end": 2}], "weights": [[0.5, 0.5], [0.25, 0.75]]}',
    ),
    "trace_with_meta": (
        AttentionTrace("e1", 1, (), ((1.0,),), {"heads": "mean"}),
        '{"example_id": "e1", "num_input_tokens": 1, "segments": [], '
        '"weights": [[1.0]], "meta": {"heads": "mean"}}',
    ),
    "link": (
        CommitLinkEvent("p/q", 7, "abcdef0", "2014-05-09T00:00:00Z", "message_reference"),
        '{"project": "p/q", "issue_number": 7, "commit_sha": "abcdef0", '
        '"linked_at": "2014-05-09T00:00:00Z", "link_source": "message_reference"}',
    ),
    "candidate": (
        Candidate("e1", ("b", ";"), "model"),
        '{"example_id": "e1", "candidate_tokens": ["b", ";"], "source": "model"}',
    ),
}


class TestJsonForm:
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_pinned_bytes(self, name):
        record, line = _PINNED[name]
        assert json.dumps(record.to_dict(), ensure_ascii=False) == line

    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_round_trip_through_json(self, name):
        record, line = _PINNED[name]
        assert type(record).from_dict(json.loads(line)) == record


def _example_dict():
    return json.loads(_PINNED["example"][1])


class TestFromDict:
    @pytest.mark.parametrize("key", ["id", "split", "buggy_tokens"])
    def test_required_key_absent(self, key):
        d = _example_dict()
        del d[key]
        with pytest.raises(RecordError, match=f"field '{key}': missing") as exc:
            BugFixExample.from_dict(d)
        assert exc.value.field == key

    @pytest.mark.parametrize("key", ["commit_sha", "method_tokens"])
    def test_required_key_null(self, key):
        d = _example_dict()
        d[key] = None
        with pytest.raises(RecordError, match=f"field '{key}': missing") as exc:
            BugFixExample.from_dict(d)
        assert exc.value.field == key

    def test_absent_discussion_ids(self):
        d = _example_dict()
        del d["discussion_ids"]
        assert BugFixExample.from_dict(d).discussion_ids == ()

    def test_absent_utterances_and_last_activity(self):
        d = json.loads(_PINNED["discussion"][1])
        del d["utterances"], d["last_activity_at"]
        disc = Discussion.from_dict(d)
        assert disc.utterances == ()
        assert disc.last_activity_at == disc.created_at == "2014-05-01T10:00:00Z"

    def test_null_utterance_index(self):
        d = json.loads(_PINNED["title_segment"][1])
        assert d["utterance_index"] is None
        assert Segment.from_dict(d) == _TITLE_SEG
        del d["utterance_index"]
        assert Segment.from_dict(d) == _TITLE_SEG

    def test_unknown_keys_ignored(self):
        d = _example_dict()
        d["comment"] = "added by hand"
        assert BugFixExample.from_dict(d) == _PINNED["example"][0]

    @pytest.mark.parametrize("value", [[], "text", 3, None])
    def test_not_an_object(self, value):
        with pytest.raises(RecordError, match="expected a JSON object"):
            Candidate.from_dict(value)


# ---------------------------------------------------------------------------
# Compact loaded records: the fast paths must decide, return and report
# exactly what these earlier implementations did.


def _old_check_tokens(value, field_name, *, allow_empty_list=True):
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


def _old_weight_rows(weights, num_input_tokens):
    rows = []
    for step, row in enumerate(weights):
        row = tuple(float(w) for w in row)
        if len(row) != num_input_tokens:
            raise RecordError(
                f"row {step} has {len(row)} weights, expected {num_input_tokens}",
                field="weights",
            )
        if any(w < 0.0 for w in row):
            raise RecordError(f"row {step} has a negative weight", field="weights")
        total = sum(row)
        if not (1.0 - ROW_SUM_TOLERANCE <= total <= 1.0 + ROW_SUM_TOLERANCE):
            raise RecordError(
                f"row {step} sums to {total:.6f}, not a normalized distribution",
                field="weights",
            )
        rows.append(row)
    return tuple(rows)


def _old_is_hex_sha(value) -> bool:
    """True for a 7-40 character hex string (abbreviated or full sha)."""
    return (
        isinstance(value, str)
        and 7 <= len(value) <= 40
        and all(c in _HEX_DIGITS for c in value)
    )


class _Tok(str):
    pass


def _raised(fn, *args, **kwargs):
    """("ok", result) or ("error", type, message, field) for one call."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the oracle compares every failure, typed
        return "error", type(exc), str(exc), getattr(exc, "field", None)


_TOKEN_POOL = ["int", "getValue", ";", "(", "x", "", "héllo", "✓", _Tok("sub"), _Tok("")]
_NOT_STRINGS = [None, 0, 1.5, b"abc", ("t",), ["t"]]


def _random_token_value(rng):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice([None, "abc", 7, {"a": 1}, {"t"}, iter(["t"]), b"tok"])
    items = [rng.choice(_TOKEN_POOL) for _ in range(rng.randrange(0, 6))]
    if rng.random() < 0.2:
        items.insert(rng.randrange(len(items) + 1), rng.choice(_NOT_STRINGS))
    return items if rng.random() < 0.5 else tuple(items)


def test_check_tokens_matches_old_oracle():
    rng = random.Random(8)
    cases = [([], True), ([], False), ((), False), ([""], True), ([_Tok("a")], False)]
    cases += [(_random_token_value(rng), rng.random() < 0.5) for _ in range(5000)]
    for value, allow in cases:
        new = _raised(_check_tokens, value, "f", allow_empty_list=allow)
        old = _raised(_old_check_tokens, value, "f", allow_empty_list=allow)
        assert new == old, (value, allow)
        if new[0] == "ok":
            # a str subclass is kept as it is; exact strings come back equal
            assert [type(t) for t in new[1]] == [type(t) for t in old[1]], value


def _interning_check_tokens(value, field_name, *, allow_empty_list=True):
    """_check_tokens as it was while it interned every token it accepted."""
    if isinstance(value, (list, tuple)) and (value or allow_empty_list):
        try:
            tokens = tuple(map(sys.intern, value))
        except TypeError:
            pass
        else:
            if "" not in tokens:
                return tokens
    return _old_check_tokens(value, field_name, allow_empty_list=allow_empty_list)


_MIXED = [*_TOKEN_POOL, *_NOT_STRINGS, [], [[]], ["t", ["u"]], bytearray(b"t"), True, _Tok("long sub")]


@pytest.mark.parametrize("allow", [True, False])
def test_check_tokens_matches_the_interning_version(allow):
    """The join fast path accepts, returns and reports exactly what the interning version did, on lists and
    tuples mixing strings, str subclasses, empty strings, numbers, None, nested lists and bytes."""
    rng = random.Random(34 + allow)
    cases = [[], (), [""], ("a", ""), [_Tok("a")], [None], [b"a"], [["a"]]]
    cases += [[rng.choice(_MIXED if rng.random() < 0.3 else _TOKEN_POOL) for _ in range(rng.randrange(6))]
              for _ in range(4000)]
    accepted = 0
    for value in cases + [tuple(v) for v in cases]:
        new = _raised(_check_tokens, value, "f", allow_empty_list=allow)
        old = _raised(_interning_check_tokens, value, "f", allow_empty_list=allow)
        assert new == old, value
        if new[0] == "ok":
            accepted += 1
            assert [type(t) for t in new[1]] == [type(t) for t in old[1]], value
    assert accepted > 1000


_EDGE_SUMS = [
    s
    for bound in (1.0 - ROW_SUM_TOLERANCE, 1.0 + ROW_SUM_TOLERANCE)
    for s in (bound, math.nextafter(bound, 0.0), math.nextafter(bound, 2.0))
]


def _verdict(outcome):
    if outcome[0] == "ok":
        return "ok"
    if outcome[1] is not RecordError:
        return outcome[1].__name__
    return next(k for k in ("negative", "expected", "sums to") if k in outcome[2])


def _random_weight(rng):
    return rng.choice([
        0, 1, True, False, 0.5, "0.5", "1", "abc", Decimal("0.25"), Decimal("1"),
        math.nan, math.inf, -math.inf, -0.25, -0.0, 1e-300, rng.random(),
    ])


def _random_weights(rng, n):
    rows = []
    for _ in range(rng.randrange(0, 4)):
        roll = rng.random()
        if roll < 0.3:
            total = rng.choice(_EDGE_SUMS)
            row = [total] if n == 1 else [total / 2, total / 2] + [0.0] * (n - 2)
            rng.shuffle(row)
        elif roll < 0.6:
            ints = [rng.randint(0, 3) for _ in range(n)]
            ints[rng.randrange(n)] += 1
            row = [v / sum(ints) for v in ints]
        else:
            row = [_random_weight(rng) for _ in range(n)]
        if rng.random() < 0.15:  # wrong length
            row = row[1:] if rng.random() < 0.5 else row + [0.0]
        if row and rng.random() < 0.2:
            row[rng.randrange(len(row))] = _random_weight(rng)
        rows.append(row if rng.random() < 0.5 else tuple(row))
    return tuple(rows)


def _is_float(value):
    try:
        float(value)
    except ValueError:
        return False
    return True


def test_weight_rows_match_old_oracle():
    rng = random.Random(88)
    outcomes = set()
    # rows that are not lists or tuples: bytes read as numbers, not as memory
    cases = [
        (1, lambda: (b"\x01",)),
        (2, lambda: (bytearray(b"\x00\x01"),)),
        (8, lambda: (b"\x00" * 7 + b"\x01",)),
        (2, lambda: (iter((0.5, 0.5)),)),
        (2, lambda: (array("d", [0.5, 0.5]),)),
        (1, lambda: ("1",)),
        (3, lambda: ("0.5",)),
    ]
    for _ in range(4000):
        n = rng.randint(1, 4)
        weights = _random_weights(rng, n)
        cases.append((n, lambda weights=weights: weights))
    for n, make in cases:
        weights = make()
        old = _raised(_old_weight_rows, weights, n)
        new = _raised(AttentionTrace, "e1", n, (), make())
        outcomes.add(_verdict(old))
        if old[0] == "error" and old[1] is ValueError:
            # float()'s own error now names the field and the first row holding it
            step = next(i for i, row in enumerate(weights) if not all(map(_is_float, row)))
            message = f"field 'weights': row {step} is not a list of numbers: {old[2]}"
            assert new == ("error", RecordError, message, "weights"), weights
            continue
        if old[0] == "error":
            assert new == old, weights
            continue
        assert new[0] == "ok", (weights, new)
        trace = new[1]
        assert all(type(row) is array for row in trace.weights)
        assert tuple(tuple(row) for row in trace.weights) == old[1]
        expected = {"example_id": "e1", "num_input_tokens": n, "segments": [],
                    "weights": [list(row) for row in old[1]]}
        assert json.dumps(trace.to_dict()) == json.dumps(expected)
    # every verdict was reached: acceptance, each message, and float()'s error
    assert outcomes == {"ok", "negative", "expected", "sums to", "ValueError"}


def test_row_sums_at_the_tolerance_bounds():
    accepted = []
    for total in _EDGE_SUMS:
        for row in ([total], [total / 2, total / 2]):
            old = _raised(_old_weight_rows, (row,), len(row))
            new = _raised(AttentionTrace, "e1", len(row), (), (row,))
            assert _verdict(new) == _verdict(old), row
            assert new[0] == "ok" or new[1:] == old[1:], row
            accepted.append(new[0] == "ok")
    # per bound: the bound itself, one step down, one step up (two rows each);
    # the bounds and the steps inside them pass, the steps outside do not
    lower, upper = [True, False, True], [True, True, False]
    assert accepted == [ok for ok in lower + upper for _ in range(2)]


def test_is_hex_sha_matches_old_oracle():
    rng = random.Random(40)
    chars = "0123456789abcdefABCDEFgxzG ٣１é-"
    values = [None, 7, 0xABCDEF0, b"abcdef0", ["abcdef0"], 1.5, "", "٣" * 7, "１" * 7]
    values += [
        "".join(rng.choice(chars if rng.random() < 0.3 else "0123456789abcdefABCDEF")
                for _ in range(rng.randrange(0, 46)))
        for _ in range(5000)
    ]
    for value in values:
        assert is_hex_sha(value) == _old_is_hex_sha(value), value


def test_loaded_examples_share_token_objects(tmp_path):
    tokens = ("getValue", "return", "counter", ";")
    storage.save_dataset(
        tmp_path / "d.jsonl",
        [
            make_example(ex_id=f"e{i}", buggy=tokens, fixed=tokens[::-1], method=("getValue",))
            for i in range(2)
        ],
    )
    first, second = storage.load_dataset(tmp_path / "d.jsonl")
    for a, b in zip(first.buggy_tokens, second.buggy_tokens):
        assert a is b
    assert first.buggy_tokens[0] is second.method_tokens[0] is first.fixed_tokens[-1]
