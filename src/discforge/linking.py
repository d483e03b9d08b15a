"""Linking discussions to bug-fix examples, and the temporal rules.

The temporal contract: a model input may only contain discussion content
written strictly before the fixing commit. Equal timestamps are excluded
(a comment written the same second as the commit could already describe
the fix). Titles are kept unconditionally because the report must predate
the fix for the link to make sense at all.
"""

from __future__ import annotations

import bisect
import dataclasses
import logging

from .records import BugFixExample, Discussion, normalize_timestamp

log = logging.getLogger(__name__)


def temporal_filter(discussion: Discussion, cutoff: str) -> Discussion:
    """Drop utterances at or after the cutoff timestamp.

    The title survives unconditionally. Utterances are sorted by time and
    indexed 0..n-1 (Discussion guarantees both), so the survivors are a
    prefix that keeps its indexes; last_activity_at is recomputed.
    """
    cutoff = normalize_timestamp(cutoff)
    utts = discussion.utterances
    keep = bisect.bisect_left(utts, cutoff, key=lambda u: u.created_at)
    if keep == len(utts):
        return discussion
    return dataclasses.replace(
        discussion, utterances=utts[:keep], last_activity_at=None
    )


def order_discussions(discussions) -> list[Discussion]:
    """Most recent activity first; ties broken by higher issue number.

    The sort is stable, so equal (last_activity_at, issue_number) pairs
    keep their input order.
    """
    return sorted(
        discussions,
        key=lambda d: (d.last_activity_at, d.issue_number),
        reverse=True,
    )


def _resolve(example_id, ids, cutoff, discussions) -> list[Discussion]:
    """Resolve ids to discussions, temporally filter them, and order them."""
    resolved = []
    for disc_id in ids:
        disc = discussions.get(disc_id)
        if disc is None:
            log.warning("example %s references unknown discussion %s", example_id, disc_id)
            continue
        resolved.append(temporal_filter(disc, cutoff))
    return order_discussions(resolved)


def prepare_discussions(
    example: BugFixExample, discussions: dict[str, Discussion]
) -> list[Discussion]:
    """Resolve, temporally filter, and order an example's discussions."""
    return _resolve(example.id, example.discussion_ids, example.commit_timestamp, discussions)


def link_examples(examples, links, discussions):
    """Yield (example, discussion_ids) per example, in input order; build no record.

    The ids are the example's own plus those of the link events matching
    its commit: one sha is a prefix of the other (both at least 7 hex
    chars, enforced by the record types). Ids and events naming an unknown
    discussion are logged and ignored. The ids come temporally filtered
    and ordered as prepare_discussions returns them, or () when none
    remains. Only the links and discussions are held, so `examples` may
    be a stream; ``dataclasses.replace(example, discussion_ids=ids)``
    makes the linked record.
    """
    by_key = {(d.project, d.issue_number): d.id for d in discussions.values()}

    # Bucket link events by the first 7 sha chars so prefix matching stays
    # linear over realistic corpora.
    buckets = {}
    for event in links:
        buckets.setdefault(event.commit_sha[:7].lower(), []).append(event)

    for ex in examples:
        ids = dict.fromkeys(ex.discussion_ids)  # insertion-ordered set
        for event in buckets.get(ex.commit_sha[:7].lower(), ()):
            ev_sha = event.commit_sha.lower()
            ex_sha = ex.commit_sha.lower()
            if not (ev_sha.startswith(ex_sha) or ex_sha.startswith(ev_sha)):
                continue
            if event.project != ex.project:
                continue
            disc_id = by_key.get((event.project, event.issue_number))
            if disc_id is None:
                log.warning(
                    "link for %s#%d matches example %s but no such discussion was mined",
                    event.project,
                    event.issue_number,
                    ex.id,
                )
                continue
            ids[disc_id] = None
        ordered = _resolve(ex.id, ids, ex.commit_timestamp, discussions)
        yield ex, tuple(d.id for d in ordered)
