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
from typing import NamedTuple

from .records import BugFixExample, Discussion, normalize_timestamp

log = logging.getLogger(__name__)


def _kept(stamps, cutoff, key=None) -> int:
    """The temporal rule: how many of a thread's time-sorted stamps fall strictly before the cutoff.

    Those utterances are a prefix of the thread, and the only ones that
    survive. `key` reads the stamp when the thread holds Utterance records.
    """
    return bisect.bisect_left(stamps, cutoff, key=key)


class _Timeline(NamedTuple):
    """What linking reads of a discussion: its keys and its utterances' timestamps."""

    id: str
    project: str
    issue_number: int
    created_at: str
    stamps: tuple[str, ...]

    @property
    def last_activity_at(self):  # as Discussion derives it
        return self.stamps[-1] if self.stamps else self.created_at

    def before(self, cutoff):
        """The timeline temporal_filter leaves: the stamps strictly before the cutoff."""
        return self._replace(stamps=self.stamps[: _kept(self.stamps, cutoff)])


def temporal_filter(discussion: Discussion, cutoff: str) -> Discussion:
    """Drop utterances at or after the cutoff timestamp.

    The title survives unconditionally. Utterances are sorted by time and
    indexed 0..n-1 (Discussion guarantees both), so the survivors are a
    prefix that keeps its indexes; last_activity_at is recomputed.
    """
    utts = discussion.utterances
    keep = _kept(utts, normalize_timestamp(cutoff), key=lambda u: u.created_at)
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


def _resolve(example_id, ids, cutoff, index, cut):
    """Look ids up in `index`, cut each entry at the cutoff with `cut`, and order them."""
    resolved = []
    for disc_id in ids:
        entry = index.get(disc_id)
        if entry is None:
            log.warning("example %s references unknown discussion %s", example_id, disc_id)
            continue
        resolved.append(cut(entry, cutoff))
    return order_discussions(resolved)


def prepare_discussions(
    example: BugFixExample, discussions: dict[str, Discussion]
) -> list[Discussion]:
    """Resolve, temporally filter, and order an example's discussions."""
    return _resolve(
        example.id, example.discussion_ids, example.commit_timestamp, discussions, temporal_filter
    )


def _described(example_id, prepared, descriptions) -> dict:
    """{discussion id: tokens} of the example's descriptions (storage.load_descriptions) of `prepared`, in order."""
    mine = descriptions.get(example_id, {})
    return {d.id: mine[d.id] for d in prepared if d.id in mine}


def link_examples(examples, links, discussions):
    """Yield (example, discussion_ids) per example, in input order; build no record.

    The ids are the example's own plus those of the link events matching
    its commit: one sha is a prefix of the other (both at least 7 hex
    chars, enforced by the record types). Ids and events naming an unknown
    discussion are logged and ignored. The ids come temporally filtered
    and ordered as prepare_discussions returns them, or () when none
    remains. `links`, `discussions` and `examples` may each be a stream
    (storage.iter_links, iter_discussions, iter_dataset) and are read in
    that order. Before the first example each link is reduced to its
    (sha, project, issue number) and each discussion to its ids and
    timestamps, so only those are held.
    ``dataclasses.replace(example, discussion_ids=ids)`` makes the linked
    record.
    """
    # Bucket link keys by the first 7 sha chars so prefix matching stays
    # linear over realistic corpora.
    buckets = {}
    for event in links:
        sha = event.commit_sha.lower()
        buckets.setdefault(sha[:7], []).append((sha, event.project, event.issue_number))

    timelines = {
        d.id: _Timeline(d.id, d.project, d.issue_number, d.created_at, tuple(u.created_at for u in d.utterances))
        for d in discussions
    }
    by_key = {(t.project, t.issue_number): t.id for t in timelines.values()}

    for ex in examples:
        ids = dict.fromkeys(ex.discussion_ids)  # insertion-ordered set
        ex_sha = ex.commit_sha.lower()
        for ev_sha, project, number in buckets.get(ex_sha[:7], ()):
            if not (ev_sha.startswith(ex_sha) or ex_sha.startswith(ev_sha)):
                continue
            if project != ex.project:
                continue
            disc_id = by_key.get((project, number))
            if disc_id is None:
                log.warning(
                    "link for %s#%d matches example %s but no such discussion was mined",
                    project,
                    number,
                    ex.id,
                )
                continue
            ids[disc_id] = None
        ordered = _resolve(ex.id, ids, ex.commit_timestamp, timelines, _Timeline.before)
        yield ex, tuple(t.id for t in ordered)
