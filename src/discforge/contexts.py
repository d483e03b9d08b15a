"""Building model-input contexts from examples and their discussions.

Every context is ``buggy <s> method <s> NL`` where NL varies by kind
(nothing at all, the oracle commit message, whole discussions, titles
only, and so on), truncated from the end to the token budget. Discussion
content is re-filtered against the fixing commit's timestamp here, so a
context can never leak post-fix text even if the dataset was assembled
sloppily. ``attended_segments`` takes the segments that an attention
trace's steps hit (``extract_attended_segments``), which
``storage.load_traces`` cuts each trace down to as it reads it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .linking import _described, prepare_discussions
from .records import (
    SEPARATOR,
    AttentionTrace,
    BugFixExample,
    ContextSpec,
    Discussion,
    Segment,
)
from .textproc import truncate_from_end


class ContextSkip(Exception):
    """This example cannot produce this representation (not an error)."""


class MissingAuxInput(ValueError):
    """The representation needs an auxiliary input that was not provided."""


@dataclass(frozen=True)
class SegmentRef:
    """Names one title/utterance segment independent of token offsets."""

    discussion_id: str
    kind: str
    utterance_index: int | None = None


def _labeled_nl_parts(discussions):
    """(SegmentRef, tokens) pairs in whole-discussion order."""
    parts = []
    for disc in discussions:
        parts.append((SegmentRef(disc.id, "title"), disc.title_tokens))
        for utt in disc.utterances:
            parts.append((SegmentRef(disc.id, "utterance", utt.index), utt.tokens))
    return parts


def _assemble(example, labeled_parts, token_limit):
    """Lay out ``buggy <s> method <s> NL...``, truncate, and track NL spans.

    labeled_parts are (SegmentRef or None, tokens) pairs. Returns (tokens,
    segments). Empty parts vanish, so exactly one separator sits between
    the parts that remain; only parts with a ref get a span. A segment the
    truncation cuts into is clipped, one past the budget is dropped.
    """
    tokens: list[str] = []
    segments: list[Segment] = []
    code = [(None, example.buggy_tokens), (None, example.method_tokens)]
    for ref, part in [*code, *labeled_parts]:
        if not part:
            continue
        if tokens:
            tokens.append(SEPARATOR)
        start = len(tokens)
        tokens.extend(part)
        if ref is not None and start < token_limit:
            segments.append(
                Segment(
                    segment_id=len(segments),
                    kind=ref.kind,
                    discussion_id=ref.discussion_id,
                    utterance_index=ref.utterance_index,
                    token_start=start,
                    token_end=min(len(tokens), token_limit),
                )
            )
    return truncate_from_end(tokens, token_limit), segments


def _require_aux_input(kind, descriptions, traces):
    """Raise MissingAuxInput if `kind` reads an auxiliary input that is None."""
    if kind in ("soln_desc", "soln_desc_plus_title") and descriptions is None:
        raise MissingAuxInput("this representation needs solution descriptions; none were provided")
    if kind == "attended_segments" and traces is None:
        raise MissingAuxInput("this representation needs attention traces; none were provided")


def build_context(
    example: BugFixExample,
    spec: ContextSpec,
    discussions: dict[str, Discussion],
    *,
    descriptions=None,
    traces=None,
) -> list[str]:
    """Render one example's input tokens for one representation.

    `descriptions` and `traces` are as storage.load_descriptions and
    storage.load_traces return them; only the descriptions of the
    discussions the example keeps are rendered. Raises ContextSkip when
    this example lacks what the kind needs (no oracle message, no
    description, no trace, no discussion) and MissingAuxInput, before
    reading anything, when a whole auxiliary input is absent.
    """
    kind = spec.kind
    _require_aux_input(kind, descriptions, traces)
    prepared = prepare_discussions(example, discussions)

    if kind == "without_nl":
        nl_parts = []
    elif kind == "oracle_msg":
        if not example.oracle_msg_tokens:
            raise ContextSkip("no oracle commit message")
        nl_parts = [(None, example.oracle_msg_tokens)]
    elif kind == "whole_discussion":
        if not prepared:
            raise ContextSkip("no discussions")
        nl_parts = [(None, toks) for _, toks in _labeled_nl_parts(prepared)]
    elif kind == "title":
        if not prepared:
            raise ContextSkip("no discussions")
        nl_parts = [(None, d.title_tokens) for d in prepared]
    elif kind == "last_utterance":
        nl_parts = [(None, d.utterances[-1].tokens) for d in prepared if d.utterances]
        if not nl_parts:
            raise ContextSkip("no utterance survives the temporal filter")
    elif kind in ("soln_desc", "soln_desc_plus_title"):
        described = _described(example.id, prepared, descriptions)
        if not described:
            raise ContextSkip("no solution description")
        titled = kind == "soln_desc_plus_title"  # each kept discussion's description, if any, then its title
        nl_parts = [(None, p) for d in prepared for p in (described.get(d.id, ()), d.title_tokens if titled else ())]
    elif kind == "attended_segments":
        attended = traces.get(example.id)
        if attended is None:
            raise ContextSkip("no attention trace")
        by_ref = {ref: toks for ref, toks in _labeled_nl_parts(prepared)}
        nl_parts = []
        for seg in attended:
            ref = SegmentRef(seg.discussion_id, seg.kind, seg.utterance_index)
            toks = by_ref.get(ref)
            if toks is None:
                raise ContextSkip(
                    f"trace names segment {ref} absent from the filtered discussions"
                )
            nl_parts.append((None, toks))
        # An empty attended set degrades to the bare code context.
    else:
        raise AssertionError(f"unhandled kind {kind!r}")

    tokens, _ = _assemble(example, nl_parts, spec.token_limit)
    return tokens


def layout_whole_discussion(
    example: BugFixExample,
    spec: ContextSpec,
    discussions: dict[str, Discussion],
) -> tuple[list[str], list[Segment]]:
    """whole_discussion tokens plus the NL segment spans inside them.

    Attention-trace producers record these spans so attended tokens can be
    mapped back to titles and utterances.
    """
    prepared = prepare_discussions(example, discussions)
    return _assemble(example, _labeled_nl_parts(prepared), spec.token_limit)


def extract_attended_segments(trace: AttentionTrace) -> list[Segment]:
    """Distinct segments holding each decoding step's argmax token.

    Per step the highest-weight input token wins (ties go to the lowest
    token index); steps whose winner lies outside every segment (code or
    separator positions) contribute nothing. Segments come out ordered by
    the first step that hit them, without repeats.
    """
    starts = [seg.token_start for seg in trace.segments]
    out = []
    seen = set()
    for row in trace.weights:
        t = row.index(max(row))
        # Rightmost segment starting at or before t, if t falls inside it.
        idx = bisect.bisect_right(starts, t) - 1
        if idx < 0:
            continue
        seg = trace.segments[idx]
        if t >= seg.token_end or seg.segment_id in seen:
            continue
        seen.add(seg.segment_id)
        out.append(seg)
    return out


def enumerate_segment_contexts(
    example: BugFixExample,
    discussions: dict[str, Discussion],
    *,
    token_limit: int = 1024,
) -> list[tuple[SegmentRef, list[str]]]:
    """One context per discussion segment: ``buggy <s> method <s> segment``.

    Yields (ref, tokens) for every title and every retained utterance, in
    discussion order. Segments whose text normalizes to nothing are
    skipped; an example with no discussions enumerates to [].
    """
    prepared = prepare_discussions(example, discussions)
    return [
        (ref, _assemble(example, [(None, toks)], token_limit)[0])
        for ref, toks in _labeled_nl_parts(prepared)
        if toks
    ]
