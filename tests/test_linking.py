"""Temporal filtering, ordering, and linking discussions to examples."""

import bisect
import dataclasses
import logging
import random

import pytest

from conftest import make_discussion, make_example, make_utterance
from discforge.linking import (
    link_examples,
    order_discussions,
    prepare_discussions,
    temporal_filter,
)
from discforge.records import BugFixExample, CommitLinkEvent, normalize_timestamp


def disc_with_times(times, disc_id="p/q#1", number=1):
    utts = [make_utterance(i, t, body=f"msg {i}") for i, t in enumerate(times)]
    return make_discussion(
        disc_id=disc_id, number=number, created_at=min(times), utterances=utts
    )


class TestTemporalFilter:
    def test_strictly_before_survives(self):
        d = disc_with_times(["2014-05-01T10:00:00Z", "2014-05-09T23:59:59Z"])
        out = temporal_filter(d, "2014-05-10T00:00:00Z")
        assert len(out.utterances) == 2

    def test_boundary_equal_is_excluded(self):
        d = disc_with_times(["2014-05-01T10:00:00Z", "2014-05-10T00:00:00Z"])
        out = temporal_filter(d, "2014-05-10T00:00:00Z")
        assert [u.body_raw for u in out.utterances] == ["msg 0"]

    def test_after_is_excluded(self):
        d = disc_with_times(["2014-05-01T10:00:00Z", "2014-05-11T00:00:00Z"])
        out = temporal_filter(d, "2014-05-10T00:00:00Z")
        assert len(out.utterances) == 1

    def test_title_survives_even_when_all_utterances_go(self):
        d = disc_with_times(["2014-05-20T10:00:00Z"])
        out = temporal_filter(d, "2014-05-10T00:00:00Z")
        assert out.utterances == ()
        assert out.title == d.title

    def test_survivors_are_reindexed(self):
        d = disc_with_times(
            ["2014-05-01T10:00:00Z", "2014-05-02T10:00:00Z", "2014-05-20T10:00:00Z"]
        )
        out = temporal_filter(d, "2014-05-10T00:00:00Z")
        assert [u.index for u in out.utterances] == [0, 1]
        assert all(a is b for a, b in zip(out.utterances, d.utterances[:2]))

    def test_last_activity_recomputed(self):
        d = disc_with_times(["2014-05-01T10:00:00Z", "2014-05-20T10:00:00Z"])
        out = temporal_filter(d, "2014-05-10T00:00:00Z")
        assert out.last_activity_at == "2014-05-01T10:00:00Z"

    def test_no_change_returns_same_object(self):
        d = disc_with_times(["2014-05-01T10:00:00Z"])
        assert temporal_filter(d, "2014-05-10T00:00:00Z") is d

    def test_idempotent(self):
        d = disc_with_times(["2014-05-01T10:00:00Z", "2014-05-12T10:00:00Z"])
        once = temporal_filter(d, "2014-05-10T00:00:00Z")
        twice = temporal_filter(once, "2014-05-10T00:00:00Z")
        assert once == twice

    def test_cutoff_timezone_normalized(self):
        d = disc_with_times(["2014-05-01T10:00:00Z"])
        # 12:00+02:00 is 10:00Z: equal timestamps are excluded
        out = temporal_filter(d, "2014-05-01T12:00:00+02:00")
        assert out.utterances == ()


class TestOrderDiscussions:
    def test_most_recent_activity_first(self):
        older = disc_with_times(["2014-05-01T10:00:00Z"], disc_id="p/q#1", number=1)
        newer = disc_with_times(["2014-05-05T10:00:00Z"], disc_id="p/q#2", number=2)
        assert order_discussions([older, newer]) == [newer, older]

    def test_tie_broken_by_higher_issue_number(self):
        a = disc_with_times(["2014-05-01T10:00:00Z"], disc_id="p/q#3", number=3)
        b = disc_with_times(["2014-05-01T10:00:00Z"], disc_id="p/q#7", number=7)
        assert order_discussions([a, b]) == [b, a]

    def test_full_tie_keeps_input_order(self):
        a = disc_with_times(["2014-05-01T10:00:00Z"], disc_id="x/y#5", number=5)
        b = disc_with_times(["2014-05-01T10:00:00Z"], disc_id="z/w#5", number=5)
        assert order_discussions([a, b]) == [a, b]
        assert order_discussions([b, a]) == [b, a]


class TestPrepareDiscussions:
    def test_filters_then_orders(self):
        d1 = disc_with_times(
            ["2014-05-01T10:00:00Z", "2014-05-20T10:00:00Z"], disc_id="p/q#1", number=1
        )
        d2 = disc_with_times(["2014-05-03T10:00:00Z"], disc_id="p/q#2", number=2)
        ex = make_example(discussion_ids=("p/q#1", "p/q#2"), commit_ts="2014-05-10T12:00:00Z")
        prepared = prepare_discussions(ex, {d.id: d for d in (d1, d2)})
        # post-filter activity: d1 -> 05-01, d2 -> 05-03, so d2 leads
        assert [d.id for d in prepared] == ["p/q#2", "p/q#1"]
        assert len(prepared[1].utterances) == 1

    def test_unknown_discussion_is_skipped(self):
        ex = make_example(discussion_ids=("ghost#1",))
        assert prepare_discussions(ex, {}) == []


def link(number, sha, ts="2014-05-09T00:00:00Z", project="demo/proj", source="message_reference"):
    return CommitLinkEvent(
        project=project, issue_number=number, commit_sha=sha, linked_at=ts, link_source=source
    )


FULL_SHA = "ab12cd34e56f78901a2b3c4d5e6f78901a2b3c4d"


class TestAttachDiscussions:
    """link_examples yields each example with its linked discussion ids."""

    def setup_method(self):
        self.d1 = disc_with_times(
            ["2014-05-01T10:00:00Z"], disc_id="demo/proj#1", number=1
        )
        self.d2 = disc_with_times(
            ["2014-05-05T10:00:00Z"], disc_id="demo/proj#2", number=2
        )
        self.discussions = {d.id: d for d in (self.d1, self.d2)}

    def ids(self, ex, links):
        ((got, ids),) = link_examples([ex], links, self.discussions.values())
        assert got is ex
        return ids

    def test_full_sha_match(self):
        ex = make_example(sha=FULL_SHA)
        assert self.ids(ex, [link(1, FULL_SHA)]) == ("demo/proj#1",)

    def test_abbreviated_link_sha_matches_full_example_sha(self):
        ex = make_example(sha=FULL_SHA)
        assert self.ids(ex, [link(1, FULL_SHA[:9])]) == ("demo/proj#1",)

    def test_abbreviated_example_sha_matches_full_link_sha(self):
        ex = make_example(sha=FULL_SHA[:7])
        assert self.ids(ex, [link(1, FULL_SHA)]) == ("demo/proj#1",)

    def test_sha_prefix_mismatch_beyond_bucket(self):
        ex = make_example(sha=FULL_SHA)
        near_miss = FULL_SHA[:7] + "0" * 33
        assert near_miss != FULL_SHA
        assert self.ids(ex, [link(1, near_miss)]) == ()

    def test_project_must_match(self):
        ex = make_example(sha=FULL_SHA)
        assert self.ids(ex, [link(1, FULL_SHA, project="other/proj")]) == ()

    def test_unmined_discussion_ignored_with_warning(self, caplog):
        ex = make_example(sha=FULL_SHA)
        with caplog.at_level("WARNING"):
            assert self.ids(ex, [link(99, FULL_SHA)]) == ()
        assert any("99" in r.message for r in caplog.records)

    def test_multiple_discussions_ordered_by_activity(self):
        ex = make_example(sha=FULL_SHA, commit_ts="2014-05-10T12:00:00Z")
        ids = self.ids(ex, [link(1, FULL_SHA), link(2, FULL_SHA)])
        assert ids == ("demo/proj#2", "demo/proj#1")

    def test_existing_ids_kept_without_duplication(self):
        ex = make_example(sha=FULL_SHA, discussion_ids=("demo/proj#1",))
        ids = self.ids(ex, [link(1, FULL_SHA), link(2, FULL_SHA)])
        assert sorted(ids) == ["demo/proj#1", "demo/proj#2"]

    def test_no_links_at_all_drops_example(self):
        ex = make_example(sha=FULL_SHA)
        assert self.ids(ex, []) == ()

    def test_case_insensitive_sha_matching(self):
        ex = make_example(sha=FULL_SHA)
        assert self.ids(ex, [link(1, FULL_SHA.upper()[:12])]) == ("demo/proj#1",)

    def test_only_unknown_ids_drop_example_unchanged(self):
        ex = make_example(sha=FULL_SHA, discussion_ids=("o/p#9",))
        assert self.ids(ex, []) == ()
        assert ex.discussion_ids == ("o/p#9",)

    def test_mixed_ids_keep_the_known_ones_ordered(self):
        ex = make_example(
            sha=FULL_SHA, discussion_ids=("o/p#9", "demo/proj#1", "o/p#8")
        )
        assert self.ids(ex, [link(2, FULL_SHA)]) == ("demo/proj#2", "demo/proj#1")

    def test_ids_match_prepare_discussions_on_the_linked_example(self):
        ex = make_example(
            sha=FULL_SHA, commit_ts="2014-05-03T00:00:00Z", discussion_ids=("demo/proj#2",)
        )
        ids = self.ids(ex, [link(1, FULL_SHA)])
        linked = dataclasses.replace(ex, discussion_ids=ids)
        assert ids == tuple(d.id for d in prepare_discussions(linked, self.discussions))

    def test_no_example_built(self, monkeypatch):
        examples = [
            make_example(ex_id="e1", sha=FULL_SHA),
            make_example(ex_id="e2", sha=FULL_SHA, discussion_ids=("demo/proj#2",)),
            make_example(ex_id="e3", sha="9" * 40),
        ]
        built = []
        post_init = BugFixExample.__post_init__

        def counting(self):
            built.append(self.id)
            post_init(self)

        monkeypatch.setattr(BugFixExample, "__post_init__", counting)
        out = list(link_examples(iter(examples), [link(1, FULL_SHA)], self.discussions.values()))
        assert [ex for ex, _ in out] == examples
        assert all(got is ex for (got, _), ex in zip(out, examples))
        assert [ids for _, ids in out] == [
            ("demo/proj#1",),
            ("demo/proj#2", "demo/proj#1"),
            (),
        ]
        assert built == []


# ---------------------------------------------------------------------------
# Randomized oracle: the rules as they were written before link_examples
# read timelines instead of records, applied to whole Discussion records.


def oracle_temporal_filter(discussion, cutoff):
    cutoff = normalize_timestamp(cutoff)
    utts = discussion.utterances
    keep = bisect.bisect_left(utts, cutoff, key=lambda u: u.created_at)
    if keep == len(utts):
        return discussion
    return dataclasses.replace(discussion, utterances=utts[:keep], last_activity_at=None)


def oracle_order_discussions(discussions):
    return sorted(discussions, key=lambda d: (d.last_activity_at, d.issue_number), reverse=True)


def oracle_resolve(ids, cutoff, discussions):
    resolved = [oracle_temporal_filter(discussions[i], cutoff) for i in ids if i in discussions]
    return oracle_order_discussions(resolved)


def oracle_link_ids(ex, links, discussions):
    """Every event checked against the example, no buckets; then the old _resolve."""
    by_key = {(d.project, d.issue_number): d.id for d in discussions.values()}
    ids = dict.fromkeys(ex.discussion_ids)
    ex_sha = ex.commit_sha.lower()
    for event in links:
        ev_sha = event.commit_sha.lower()
        prefix = ev_sha.startswith(ex_sha) or ex_sha.startswith(ev_sha)
        key = (event.project, event.issue_number)
        if prefix and event.project == ex.project and key in by_key:
            ids[by_key[key]] = None
    return tuple(d.id for d in oracle_resolve(ids, ex.commit_timestamp, discussions))


PROJECTS = ("a/x", "b/y", "c/z")
# Few distinct stamps, so utterances at the cutoff and ties in last activity are common.
STAMPS = tuple(f"2014-05-{day:02d}T{hour:02d}:00:00Z" for day in (1, 2, 3) for hour in (0, 12))


def random_corpus(rng):
    """(discussions by id, examples, links) with every case the rules distinguish."""
    discussions = {}
    for project in PROJECTS:
        for number in rng.sample(range(1, 7), rng.randint(1, 5)):  # the same numbers across projects
            stamps = sorted(rng.choices(STAMPS, k=rng.choice((0, 0, 1, 2, 3, 5))))  # empty threads too
            utts = [make_utterance(i, t, body=f"{project} {number} msg {i}") for i, t in enumerate(stamps)]
            created = rng.choice([t for t in STAMPS if not stamps or t <= stamps[0]])
            d = make_discussion(f"{project}#{number}", project, number, created_at=created, utterances=utts)
            discussions[d.id] = d
    known = sorted(discussions)
    examples, links = [], []
    for i in range(rng.randint(1, 8)):
        project = rng.choice(PROJECTS)
        sha = "".join(rng.choice("0123456789abcdef") for _ in range(40))
        own = rng.sample(known, rng.randint(0, 3)) + rng.sample(["ghost/p#1", "a/x#99"], rng.randint(0, 1))
        rng.shuffle(own)
        examples.append(make_example(
            ex_id=f"e{i}", project=project, sha=sha[: rng.choice((7, 9, 40))],
            commit_ts=rng.choice(STAMPS), discussion_ids=own,
        ))
        for _ in range(rng.randint(0, 4)):
            ev_sha = sha[: rng.randint(7, 40)]
            if rng.random() < 0.2:
                ev_sha = sha[:7] + "f" * rng.randint(1, 33)  # shares the bucket, usually not the prefix
            if rng.random() < 0.3:
                ev_sha = ev_sha.upper()
            links.append(CommitLinkEvent(
                project=rng.choice((project, project, rng.choice(PROJECTS))),
                issue_number=rng.randint(1, 8),  # some issues were never mined
                commit_sha=ev_sha,
                linked_at="2014-05-01T00:00:00Z",
                link_source="message_reference",
            ))
    rng.shuffle(links)
    return discussions, examples, links


@pytest.mark.parametrize("seed", range(40))
def test_link_and_prepare_match_the_record_oracle(seed, caplog):
    caplog.set_level(logging.ERROR, logger="discforge.linking")
    rng = random.Random(seed)
    seen = set()
    for _ in range(25):
        discussions, examples, links = random_corpus(rng)
        stream = iter(list(discussions.values()))
        got = list(link_examples(iter(examples), links, stream))
        assert [ex for ex, _ in got] == examples
        for ex, ids in got:
            assert ids == oracle_link_ids(ex, links, discussions), ex
            for ex_ids in (ids, ex.discussion_ids):
                linked = dataclasses.replace(ex, discussion_ids=ex_ids)
                expected = oracle_resolve(ex_ids, ex.commit_timestamp, discussions)
                assert prepare_discussions(linked, discussions) == expected, ex
            seen.update(cases(ex, ids, links, discussions))
    assert seen == set(CASES)


CASES = ("at cutoff", "emptied", "activity tie", "number tie", "unknown id", "prefix link")


def cases(ex, ids, links, discussions):
    """Which of CASES one linked example exercises."""
    found = {"unknown id"} if set(ex.discussion_ids) - set(discussions) else set()
    linked = [discussions[i] for i in ids]
    if any(u.created_at == ex.commit_timestamp for d in linked for u in d.utterances):
        found.add("at cutoff")
    filtered = [oracle_temporal_filter(d, ex.commit_timestamp) for d in linked]
    if any(d.utterances and not f.utterances for d, f in zip(linked, filtered)):
        found.add("emptied")
    if len({f.last_activity_at for f in filtered}) < len(filtered):
        found.add("activity tie")
    if len({(f.last_activity_at, f.issue_number) for f in filtered}) < len(filtered):
        found.add("number tie")
    sha = ex.commit_sha.lower()
    for e in links:
        ev_sha = e.commit_sha.lower()
        if e.project == ex.project and ev_sha != sha and (ev_sha.startswith(sha) or sha.startswith(ev_sha)):
            found.add("prefix link")
    return found
