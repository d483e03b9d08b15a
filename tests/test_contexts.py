"""Context rendering: every representation, layout, truncation, attended segments."""

import random
import sys
import tracemalloc

import pytest

from conftest import make_discussion, make_example, make_utterance
from discforge import records, storage, textproc
from discforge.contexts import (
    ContextSkip,
    MissingAuxInput,
    SegmentRef,
    build_context,
    enumerate_segment_contexts,
    extract_attended_segments,
    layout_whole_discussion,
)
from discforge.records import AttentionTrace, ContextSpec, Segment


def onehot(n, hot, weight=1.0):
    row = [(1.0 - weight) / (n - 1)] * n if n > 1 else [1.0]
    row[hot] = weight
    return row


@pytest.fixture
def scenario():
    """Two discussions around one commit; D1 has a post-commit comment."""
    d1 = make_discussion(
        disc_id="demo/proj#1",
        number=1,
        title="Crash on empty input",
        created_at="2014-05-01T10:00:00Z",
        utterances=[
            make_utterance(0, "2014-05-01T10:00:00Z", "first report body"),
            make_utterance(1, "2014-05-20T10:00:00Z", "landed after the fix"),
        ],
    )
    d2 = make_discussion(
        disc_id="demo/proj#2",
        number=2,
        title="NullPointerException in parser",
        created_at="2014-05-03T10:00:00Z",
        utterances=[
            make_utterance(0, "2014-05-03T10:00:00Z", "second body"),
            make_utterance(1, "2014-05-04T10:00:00Z", "more detail"),
        ],
    )
    ex = make_example(
        buggy=("bug",),
        fixed=("fix",),
        method=("m",),
        oracle=("remove", "newlines"),
        commit_ts="2014-05-10T12:00:00Z",
        discussion_ids=("demo/proj#1", "demo/proj#2"),
    )
    return ex, {d.id: d for d in (d1, d2)}


D2_TITLE = ["Null", "Pointer", "Exception", "in", "parser"]
D1_TITLE = ["Crash", "on", "empty", "input"]

# Post-filter activity puts demo/proj#2 (05-04) before demo/proj#1 (05-01).
WHOLE = (
    ["bug", "<s>", "m", "<s>"]
    + D2_TITLE
    + ["<s>", "second", "body", "<s>", "more", "detail", "<s>"]
    + D1_TITLE
    + ["<s>", "first", "report", "body"]
)


def spec(kind, limit=1024):
    return ContextSpec(kind=kind, token_limit=limit)


class TestBuildContext:
    def test_without_nl(self, scenario):
        ex, discs = scenario
        assert build_context(ex, spec("without_nl"), discs) == ["bug", "<s>", "m"]

    def test_without_nl_ignores_discussions_entirely(self, scenario):
        ex, discs = scenario
        assert build_context(ex, spec("without_nl"), discs) == build_context(
            ex, spec("without_nl"), {}
        )

    def test_oracle_msg(self, scenario):
        ex, discs = scenario
        assert build_context(ex, spec("oracle_msg"), discs) == [
            "bug", "<s>", "m", "<s>", "remove", "newlines",
        ]

    def test_oracle_msg_missing_skips(self, scenario):
        ex, discs = scenario
        ex = make_example(
            buggy=("bug",), fixed=("fix",), method=("m",),
            discussion_ids=ex.discussion_ids,
        )
        with pytest.raises(ContextSkip):
            build_context(ex, spec("oracle_msg"), discs)

    def test_whole_discussion_order_and_filtering(self, scenario):
        ex, discs = scenario
        assert build_context(ex, spec("whole_discussion"), discs) == WHOLE

    def test_title(self, scenario):
        ex, discs = scenario
        assert build_context(ex, spec("title"), discs) == (
            ["bug", "<s>", "m", "<s>"] + D2_TITLE + ["<s>"] + D1_TITLE
        )

    def test_last_utterance_respects_filter(self, scenario):
        ex, discs = scenario
        # D1's last retained utterance is its report body, not the late comment
        assert build_context(ex, spec("last_utterance"), discs) == [
            "bug", "<s>", "m", "<s>", "more", "detail", "<s>", "first", "report", "body",
        ]

    def test_soln_desc(self, scenario):
        ex, discs = scenario
        descriptions = {
            ex.id: {
                "demo/proj#1": ("desc", "one"),
                "demo/proj#2": ("desc", "two"),
            }
        }
        assert build_context(ex, spec("soln_desc"), discs, descriptions=descriptions) == [
            "bug", "<s>", "m", "<s>", "desc", "two", "<s>", "desc", "one",
        ]

    def test_soln_desc_plus_title_falls_back_to_title(self, scenario):
        ex, discs = scenario
        descriptions = {ex.id: {"demo/proj#1": ("desc", "one")}}
        assert build_context(
            ex, spec("soln_desc_plus_title"), discs, descriptions=descriptions
        ) == (
            ["bug", "<s>", "m", "<s>"]
            + D2_TITLE
            + ["<s>", "desc", "one", "<s>"]
            + D1_TITLE
        )

    def test_soln_desc_absent_for_example_skips(self, scenario):
        ex, discs = scenario
        with pytest.raises(ContextSkip):
            build_context(ex, spec("soln_desc"), discs, descriptions={})
        with pytest.raises(ContextSkip):
            build_context(ex, spec("soln_desc_plus_title"), discs, descriptions={})

    def test_soln_desc_without_file_is_config_error(self, scenario):
        ex, discs = scenario
        with pytest.raises(MissingAuxInput):
            build_context(ex, spec("soln_desc"), discs)

    def test_discussion_kinds_skip_without_discussions(self):
        ex = make_example(buggy=("bug",), fixed=("fix",), method=("m",))
        for kind in ("whole_discussion", "title", "last_utterance"):
            with pytest.raises(ContextSkip):
                build_context(ex, spec(kind), {})

    def test_truncation_keeps_prefix(self, scenario):
        ex, discs = scenario
        full = build_context(ex, spec("whole_discussion"), discs)
        cut = build_context(ex, spec("whole_discussion", limit=7), discs)
        assert cut == full[:7]

    def test_pretokenized_utterances_used_verbatim(self, scenario):
        ex, discs = scenario
        d = make_discussion(
            disc_id="demo/proj#3",
            number=3,
            title="T",
            created_at="2014-05-01T10:00:00Z",
            utterances=[
                make_utterance(0, "2014-05-01T10:00:00Z", "raw", tokens=("pre", "made"))
            ],
        )
        ex = make_example(
            buggy=("bug",), fixed=("fix",), method=("m",),
            discussion_ids=("demo/proj#3",),
        )
        out = build_context(ex, spec("last_utterance"), {d.id: d})
        assert out == ["bug", "<s>", "m", "<s>", "pre", "made"]


class TestLayout:
    def test_segment_spans(self, scenario):
        ex, discs = scenario
        tokens, segments = layout_whole_discussion(ex, spec("whole_discussion"), discs)
        assert tokens == WHOLE
        spans = [
            (s.kind, s.discussion_id, s.utterance_index, s.token_start, s.token_end)
            for s in segments
        ]
        assert spans == [
            ("title", "demo/proj#2", None, 4, 9),
            ("utterance", "demo/proj#2", 0, 10, 12),
            ("utterance", "demo/proj#2", 1, 13, 15),
            ("title", "demo/proj#1", None, 16, 20),
            ("utterance", "demo/proj#1", 0, 21, 24),
        ]
        for text_tok, seg in zip(
            (D2_TITLE, ["second", "body"], ["more", "detail"], D1_TITLE, ["first", "report", "body"]),
            segments,
        ):
            assert tokens[seg.token_start:seg.token_end] == text_tok

    def test_truncation_clips_and_drops_segments(self, scenario):
        ex, discs = scenario
        tokens, segments = layout_whole_discussion(
            ex, spec("whole_discussion", limit=11), discs
        )
        assert len(tokens) == 11
        spans = [(s.token_start, s.token_end) for s in segments]
        # the title fits, the first utterance is clipped at 11, the rest vanish
        assert spans == [(4, 9), (10, 11)]


class TestSeparatorLayout:
    """One <s> between the parts that survive; empty parts vanish."""

    @pytest.fixture
    def with_empty_utterance(self):
        # "---" is a markdown rule: the utterance normalizes to no tokens.
        d = make_discussion(
            title="Broken",
            utterances=[
                make_utterance(0, "2014-05-01T10:00:00Z", "first"),
                make_utterance(1, "2014-05-02T10:00:00Z", "---"),
                make_utterance(2, "2014-05-03T10:00:00Z", "last"),
            ],
        )
        ex = make_example(
            buggy=("a",), fixed=("z",), method=("b", "c"), discussion_ids=(d.id,)
        )
        return ex, {d.id: d}

    def test_code_parts_joined_by_one_separator(self, with_empty_utterance):
        ex, discs = with_empty_utterance
        assert build_context(ex, spec("without_nl"), discs) == ["a", "<s>", "b", "c"]

    def test_empty_utterance_vanishes(self, with_empty_utterance):
        ex, discs = with_empty_utterance
        tokens, segments = layout_whole_discussion(ex, spec("whole_discussion"), discs)
        assert tokens == [
            "a", "<s>", "b", "c", "<s>", "Broken", "<s>", "first", "<s>", "last",
        ]
        assert [s.utterance_index for s in segments] == [None, 0, 2]

    def test_empty_description_vanishes(self, with_empty_utterance):
        ex, discs = with_empty_utterance
        descriptions = {ex.id: {"demo/proj#1": ()}}
        out = build_context(
            ex, spec("soln_desc_plus_title"), discs, descriptions=descriptions
        )
        assert out == ["a", "<s>", "b", "c", "<s>", "Broken"]

    def test_empty_last_part_leaves_no_trailing_separator(self):
        d = make_discussion(utterances=[make_utterance(0, body="```\n```")])
        ex = make_example(buggy=("a",), fixed=("z",), method=("b",), discussion_ids=(d.id,))
        out = build_context(ex, spec("last_utterance"), {d.id: d})
        assert out == ["a", "<s>", "b"]

    def test_never_starts_ends_or_doubles_the_separator(self):
        rng = random.Random(5)
        bodies = ["---", "", "word", "two words", "```\n```", "> quoted"]
        kinds = ["whole_discussion", "title", "last_utterance", "soln_desc_plus_title"]
        for trial in range(200):
            discs = {}
            for n in range(1, rng.randrange(1, 4) + 1):
                times = sorted(
                    f"2014-05-{rng.randrange(1, 20):02d}T10:00:00Z"
                    for _ in range(rng.randrange(0, 4))
                )
                d = make_discussion(
                    disc_id=f"demo/proj#{n}",
                    number=n,
                    utterances=[
                        make_utterance(i, t, rng.choice(bodies))
                        for i, t in enumerate(times)
                    ],
                )
                discs[d.id] = d
            ex = make_example(
                buggy=("a",), fixed=("z",), method=("b",), discussion_ids=tuple(discs)
            )
            descriptions = {
                ex.id: {i: ("d",) * rng.randrange(0, 2) for i in discs}
            }
            for kind in kinds:
                try:
                    out = build_context(ex, spec(kind), discs, descriptions=descriptions)
                except ContextSkip:
                    continue
                assert out[0] != "<s>" and out[-1] != "<s>", (trial, kind, out)
                for left, right in zip(out, out[1:]):
                    assert not (left == "<s>" and right == "<s>"), (trial, kind, out)

    @pytest.mark.parametrize("limit", [11, 1024])
    def test_layout_tokens_equal_whole_discussion_context(self, scenario, limit):
        ex, discs = scenario
        tokens, _ = layout_whole_discussion(ex, spec("whole_discussion", limit), discs)
        assert tokens == build_context(ex, spec("whole_discussion", limit), discs)


def make_trace(segments, argmax_positions, n):
    return AttentionTrace(
        example_id="demo/proj:ab12cd34e:0",
        num_input_tokens=n,
        segments=tuple(segments),
        weights=tuple(tuple(onehot(n, p, 0.9)) for p in argmax_positions),
    )


class TestAttendedSegments:
    def test_first_win_order_and_dedup(self, scenario):
        ex, discs = scenario
        _, segments = layout_whole_discussion(ex, spec("whole_discussion"), discs)
        trace = make_trace(segments, [21, 5, 22, 0], 24)
        attended = extract_attended_segments(trace)
        got = [(s.kind, s.discussion_id, s.utterance_index) for s in attended]
        assert got == [
            ("utterance", "demo/proj#1", 0),
            ("title", "demo/proj#2", None),
        ]

    def test_code_positions_attend_nothing(self, scenario):
        ex, discs = scenario
        _, segments = layout_whole_discussion(ex, spec("whole_discussion"), discs)
        trace = make_trace(segments, [0, 2, 3, 9], 24)  # code and separators
        assert extract_attended_segments(trace) == []

    def test_tie_goes_to_lowest_token_index(self):
        seg_a = Segment(0, "title", "a#1", None, 0, 2)
        seg_b = Segment(1, "title", "b#2", None, 2, 4)
        trace = AttentionTrace(
            example_id="e",
            num_input_tokens=4,
            segments=(seg_a, seg_b),
            weights=((0.3, 0.2, 0.3, 0.2),),
        )
        attended = extract_attended_segments(trace)
        assert [s.discussion_id for s in attended] == ["a#1"]

    def test_empty_trace(self):
        trace = AttentionTrace(
            example_id="e", num_input_tokens=3, segments=(), weights=()
        )
        assert extract_attended_segments(trace) == []

    def test_build_context_attended(self, scenario):
        ex, discs = scenario
        _, segments = layout_whole_discussion(ex, spec("whole_discussion"), discs)
        traces = {ex.id: extract_attended_segments(make_trace(segments, [21, 5], 24))}
        out = build_context(ex, spec("attended_segments"), discs, traces=traces)
        assert out == (
            ["bug", "<s>", "m", "<s>", "first", "report", "body", "<s>"] + D2_TITLE
        )

    def test_build_context_attended_empty_degrades_to_bare_code(self, scenario):
        ex, discs = scenario
        _, segments = layout_whole_discussion(ex, spec("whole_discussion"), discs)
        traces = {ex.id: extract_attended_segments(make_trace(segments, [0], 24))}
        out = build_context(ex, spec("attended_segments"), discs, traces=traces)
        assert out == ["bug", "<s>", "m"]

    def test_missing_trace_skips(self, scenario):
        ex, discs = scenario
        with pytest.raises(ContextSkip):
            build_context(ex, spec("attended_segments"), discs, traces={})

    def test_no_trace_store_is_config_error(self, scenario):
        ex, discs = scenario
        with pytest.raises(MissingAuxInput):
            build_context(ex, spec("attended_segments"), discs)

    def test_trace_naming_filtered_segment_skips(self, scenario):
        ex, discs = scenario
        # a segment for D1 utterance 1, which the temporal filter removes
        stale = Segment(0, "utterance", "demo/proj#1", 1, 4, 6)
        trace = make_trace([stale], [4], 6)
        with pytest.raises(ContextSkip):
            build_context(ex, spec("attended_segments"), discs, traces={ex.id: extract_attended_segments(trace)})


class TestEnumerateSegmentContexts:
    def test_one_context_per_retained_segment(self, scenario):
        ex, discs = scenario
        out = enumerate_segment_contexts(ex, discs)
        refs = [ref for ref, _ in out]
        assert refs == [
            SegmentRef("demo/proj#2", "title"),
            SegmentRef("demo/proj#2", "utterance", 0),
            SegmentRef("demo/proj#2", "utterance", 1),
            SegmentRef("demo/proj#1", "title"),
            SegmentRef("demo/proj#1", "utterance", 0),
        ]
        assert out[0][1] == ["bug", "<s>", "m", "<s>"] + D2_TITLE
        assert out[4][1] == ["bug", "<s>", "m", "<s>", "first", "report", "body"]

    def test_respects_token_limit(self, scenario):
        ex, discs = scenario
        for _, tokens in enumerate_segment_contexts(ex, discs, token_limit=5):
            assert len(tokens) <= 5
            assert tokens[:3] == ["bug", "<s>", "m"]

    def test_no_discussions_enumerates_empty(self):
        ex = make_example(buggy=("bug",), fixed=("fix",), method=("m",))
        assert enumerate_segment_contexts(ex, {}) == []


class TestTokenMemo:
    """Each loaded title and utterance is tokenized at most once."""

    BODIES = ("first *report* body", "second `code` body", "third [link](http://x.y) body")

    @pytest.fixture
    def shared(self):
        """One discussion shared by three examples with different cutoffs."""
        disc = make_discussion(
            utterances=[
                make_utterance(0, "2014-05-01T10:00:00Z", self.BODIES[0]),
                make_utterance(1, "2014-05-03T10:00:00Z", self.BODIES[1]),
                make_utterance(2, "2014-05-05T10:00:00Z", self.BODIES[2]),
            ]
        )
        examples = [
            make_example(ex_id=f"e{i}", commit_ts=ts, discussion_ids=(disc.id,))
            for i, ts in enumerate(
                ("2014-05-02T00:00:00Z", "2014-05-04T00:00:00Z", "2014-05-10T00:00:00Z")
            )
        ]
        return examples, {disc.id: disc}

    @pytest.fixture
    def calls(self, monkeypatch):
        """Arguments of every normalize and title call, counted where records
        binds them, and of the kernel calls normalization makes inside textproc."""
        seen = {"normalize": [], "title": [], "kernel": []}

        def counting(key, fn):
            def wrapper(text):
                seen[key].append(text)
                return fn(text)

            return wrapper

        for module, name, key in (
            (records, "process_discussion_text", "normalize"),
            (records, "subtokenize", "title"),
            (textproc, "subtokenize", "kernel"),
        ):
            monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
        return seen

    @staticmethod
    def render(examples, discs):
        out = []
        for ex in examples:
            for kind in ("whole_discussion", "last_utterance", "title"):
                out.append(build_context(ex, spec(kind), discs))
            out.append(enumerate_segment_contexts(ex, discs))
            out.append(layout_whole_discussion(ex, spec("whole_discussion"), discs))
        return out

    def test_each_utterance_normalized_once(self, shared, calls):
        examples, discs = shared
        for ex in examples:
            for kind in ("whole_discussion", "last_utterance"):
                build_context(ex, spec(kind), discs)
            enumerate_segment_contexts(ex, discs)
        assert sorted(calls["normalize"]) == sorted(self.BODIES)

    def test_each_load_tokenizes_once(self, shared, calls, tmp_path):
        examples, discs = shared
        path = tmp_path / "discussions.jsonl"
        storage.save_discussions(path, discs)
        counts = []
        for _ in range(2):
            self.render(examples, storage.load_discussions(path))
            counts.append((len(calls["normalize"]), len(calls["kernel"])))
        n = len(self.BODIES)
        assert counts == [(n, n), (2 * n, 2 * n)]

    def test_nothing_tokenized_at_load(self, shared, calls, tmp_path):
        _, discs = shared
        path = tmp_path / "discussions.jsonl"
        storage.save_discussions(path, discs)
        storage.load_discussions(path)
        assert calls == {"normalize": [], "title": [], "kernel": []}

    def test_cached_tokens_are_tuples_and_contexts_match_a_fresh_load(self, shared, tmp_path):
        examples, discs = shared
        path = tmp_path / "discussions.jsonl"
        storage.save_discussions(path, discs)
        first = self.render(examples, discs)
        again = self.render(examples, discs)
        loaded = storage.load_discussions(path)
        fresh = self.render(examples, loaded)
        assert first == again == fresh
        for disc in (*discs.values(), *loaded.values()):
            assert isinstance(disc.title_tokens, tuple)
            assert all(map(interned, disc.title_tokens))
            for utt in disc.utterances:
                assert isinstance(vars(utt)["tokens"], tuple)
                assert all(map(interned, vars(utt)["tokens"]))


def interned(tok):
    """Whether `tok` is the interned string of its value: interning a fresh copy yields `tok` itself."""
    return sys.intern((tok + ".")[:-1]) is tok


class TestTokenSharing:
    """The title and utterance memos hold interned strings, so equal words in every loaded
    discussion share one string object and the memos cost a pointer per token."""

    VOCAB = [w + end for w in ("parser", "crash", "lexer", "overflow", "buffer",
                               "timeout", "release", "version", "regression", "config")
             for end in ("", "ing", "ed", "s", "er")]

    def load(self, tmp_path, n, words):
        """n discussions with a title of 8 words and 3 utterances of `words` words from VOCAB,
        saved to JSONL and loaded back, so that every string is freshly decoded."""
        rng = random.Random(24)
        discs = [
            make_discussion(
                disc_id=f"demo/proj#{i}",
                number=i,
                title=" ".join(rng.choices(self.VOCAB, k=8)),
                utterances=[
                    make_utterance(u, f"2014-05-0{u + 1}T10:00:00Z", " ".join(rng.choices(self.VOCAB, k=words)))
                    for u in range(3)
                ],
            )
            for i in range(1, n + 1)
        ]
        path = tmp_path / "discussions.jsonl"
        storage.save_discussions(path, discs)
        return storage.load_discussions(path)

    def test_equal_tokens_are_one_object_across_discussions(self, tmp_path):
        loaded = self.load(tmp_path, 2, 30)
        first, seen = {}, 0
        for disc in loaded.values():
            for tok in (*disc.title_tokens, *(t for utt in disc.utterances for t in utt.tokens)):
                seen += tok in first
                assert first.setdefault(tok, tok) is tok, tok
        assert seen > 100 and len(first) <= len(self.VOCAB)

    def test_rendering_memos_cost_a_pointer_per_token(self, tmp_path):
        """Rendering whole_discussion and segment contexts for 100 discussions of 600 body tokens
        each, with their memos kept, peaks under 16 bytes a token above the loaded records
        (about 9 interned, 67 when each token was its own string)."""
        loaded = self.load(tmp_path, 100, 200)
        examples = [
            make_example(ex_id=f"e{i}", commit_ts="2014-06-01T00:00:00Z", discussion_ids=(disc_id,))
            for i, disc_id in enumerate(loaded)
        ]
        whole = ContextSpec(kind="whole_discussion", token_limit=100_000)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for ex in examples:
                build_context(ex, whole, loaded)
                enumerate_segment_contexts(ex, loaded)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        n_tokens = sum(len(vars(utt)["tokens"]) for disc in loaded.values() for utt in disc.utterances)
        assert n_tokens == 100 * 3 * 200
        assert peak < 16 * n_tokens, (peak, n_tokens)
