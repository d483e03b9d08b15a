"""Building model-input contexts from examples and their discussions.

Every context is ``buggy <s> method <s> NL`` where NL varies by kind
(nothing at all, the oracle commit message, whole discussions, titles
only, and so on), truncated from the end to the token budget. Discussion
content is re-filtered against the fixing commit's timestamp here, so a
context can never leak post-fix text even if the dataset was assembled
sloppily.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linking import prepare_discussions
from .records import (
    SEPARATOR,
    AttentionTrace,
    BugFixExample,
    ContextSpec,
    Discussion,
    Segment,
)
from .textproc import (
    concat_with_separator,
    process_discussion_text,
    subtokenize,
    truncate_from_end,
)


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


def title_tokens(discussion: Discussion) -> list[str]:
    return subtokenize(discussion.title)


def utterance_tokens(utterance) -> list[str]:
    """Pre-tokenized text when present, otherwise normalize the raw body."""
    if utterance.body_tokens is not None:
        return list(utterance.body_tokens)
    return process_discussion_text(utterance.body_raw)


def _labeled_nl_parts(discussions):
    """(SegmentRef, tokens) pairs in whole-discussion order."""
    parts = []
    for disc in discussions:
        parts.append((SegmentRef(disc.id, "title"), title_tokens(disc)))
        for utt in disc.utterances:
            parts.append(
                (SegmentRef(disc.id, "utterance", utt.index), utterance_tokens(utt))
            )
    return parts


def _assemble(code_parts, labeled_parts, token_limit):
    """Concatenate with separators, truncate, and track NL segment spans.

    Returns (tokens, segments). Empty parts vanish (no doubled
    separators); a segment the truncation cuts into is clipped, one past
    the budget is dropped.
    """
    tokens = concat_with_separator(code_parts, SEPARATOR)
    segments: list[Segment] = []
    for ref, part in labeled_parts:
        part = list(part)
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


def _descriptions_for(example, descriptions):
    if descriptions is None:
        raise MissingAuxInput(
            "this representation needs solution descriptions; none were provided"
        )
    return {disc_id: tokens for disc_id, tokens in descriptions.get(example.id, ())}


def build_context(
    example: BugFixExample,
    spec: ContextSpec,
    discussions: dict[str, Discussion],
    *,
    descriptions=None,
    traces=None,
) -> list[str]:
    """Render one example's input tokens for one representation.

    Raises ContextSkip when this particular example lacks what the kind
    needs (no oracle message, no description, no trace, no discussion)
    and MissingAuxInput when a whole auxiliary input is absent.
    """
    prepared = prepare_discussions(example, discussions)
    kind = spec.kind

    if kind == "without_nl":
        nl_parts = []
    elif kind == "oracle_msg":
        if not example.oracle_msg_tokens:
            raise ContextSkip("no oracle commit message")
        nl_parts = [(None, list(example.oracle_msg_tokens))]
    elif kind == "whole_discussion":
        if not prepared:
            raise ContextSkip("no discussions")
        nl_parts = [(None, toks) for _, toks in _labeled_nl_parts(prepared)]
    elif kind == "title":
        if not prepared:
            raise ContextSkip("no discussions")
        nl_parts = [(None, title_tokens(d)) for d in prepared]
    elif kind == "last_utterance":
        nl_parts = [
            (None, utterance_tokens(d.utterances[-1])) for d in prepared if d.utterances
        ]
        if not nl_parts:
            raise ContextSkip("no utterance survives the temporal filter")
    elif kind == "soln_desc":
        by_disc = _descriptions_for(example, descriptions)
        nl_parts = [(None, list(by_disc[d.id])) for d in prepared if d.id in by_disc]
        if not nl_parts:
            raise ContextSkip("no solution description")
    elif kind == "soln_desc_plus_title":
        by_disc = _descriptions_for(example, descriptions)
        if not any(d.id in by_disc for d in prepared):
            raise ContextSkip("no solution description")
        nl_parts = []
        for d in prepared:
            if d.id in by_disc:
                nl_parts.append((None, list(by_disc[d.id])))
            nl_parts.append((None, title_tokens(d)))
    elif kind == "attended_segments":
        if traces is None:
            raise MissingAuxInput(
                "this representation needs attention traces; none were provided"
            )
        trace = traces.get(example.id)
        if trace is None:
            raise ContextSkip("no attention trace")
        by_ref = {ref: toks for ref, toks in _labeled_nl_parts(prepared)}
        nl_parts = []
        for seg in extract_attended_segments(trace):
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

    tokens, _ = _assemble(
        [example.buggy_tokens, example.method_tokens], nl_parts, spec.token_limit
    )
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
    return _assemble(
        [example.buggy_tokens, example.method_tokens],
        _labeled_nl_parts(prepared),
        spec.token_limit,
    )


def extract_attended_segments(trace: AttentionTrace) -> list[Segment]:
    """Distinct segments holding each decoding step's argmax token.

    Per step the highest-weight input token wins (ties go to the lowest
    token index); steps whose winner lies outside every segment (code or
    separator positions) contribute nothing. Segments come out ordered by
    the first step that hit them, without repeats.
    """
    if not trace.weights:
        return []
    winners = np.asarray(trace.weights, dtype=np.float64).argmax(axis=1)
    starts = [seg.token_start for seg in trace.segments]
    out = []
    seen = set()
    for t in winners.tolist():
        # Rightmost segment starting at or before t, if t falls inside it.
        lo, hi = 0, len(starts)
        while lo < hi:
            mid = (lo + hi) // 2
            if starts[mid] <= t:
                lo = mid + 1
            else:
                hi = mid
        idx = lo - 1
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
    out = []
    for ref, toks in _labeled_nl_parts(prepared):
        if not toks:
            continue
        tokens, _ = _assemble(
            [example.buggy_tokens, example.method_tokens],
            [(ref, toks)],
            token_limit,
        )
        out.append((ref, tokens))
    return out
