"""Tokenizer kernels, markdown normalization, concatenation, truncation."""

import logging
import random
import string

import pytest

from discforge.textproc import (
    code_tokenize,
    concat_with_separator,
    process_discussion_text,
    refine_token,
    subtokenize,
    truncate_from_end,
)


class TestCodeTokenize:
    def test_statement_splits_punctuation(self):
        assert code_tokenize("sb.append(table);") == [
            "sb", ".", "append", "(", "table", ")", ";",
        ]

    def test_underscore_is_a_word_character(self):
        assert code_tokenize("snake_case = 1") == ["snake_case", "=", "1"]

    def test_whitespace_runs_vanish(self):
        assert code_tokenize("  a \t b\n\nc ") == ["a", "b", "c"]

    def test_every_punctuation_char_stands_alone(self):
        assert code_tokenize("a==b") == ["a", "=", "=", "b"]

    def test_empty_input(self):
        assert code_tokenize("") == []
        assert code_tokenize("   \n\t") == []

    def test_digits_stick_to_letters(self):
        assert code_tokenize("toml4j v2") == ["toml4j", "v2"]


class TestRefineToken:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("emptyImplicitTable", ["empty", "Implicit", "Table"]),
            ("HTMLParser", ["HTML", "Parser"]),
            ("HTML", ["HTML"]),
            ("XMLHttpRequest", ["XML", "Http", "Request"]),
            ("toml4j", ["toml", "4", "j"]),
            ("snake_case", ["snake", "case"]),
            ("_private_var", ["private", "var"]),
            ("CONSTANT_NAME", ["CONSTANT", "NAME"]),
            ("value2", ["value", "2"]),
            ("x", ["x"]),
            ("42", ["42"]),
            ("__", ["__"]),
            (";", [";"]),
        ],
    )
    def test_known_splits(self, token, expected):
        assert refine_token(token) == expected

    def test_rejoin_reconstructs_minus_underscores(self):
        rng = random.Random(11)
        pool = string.ascii_letters + string.digits + "_"
        for _ in range(500):
            token = "".join(rng.choice(pool) for _ in range(rng.randrange(1, 20)))
            pieces = refine_token(token)
            if any(c.isalnum() for c in token):
                assert "".join(pieces) == token.replace("_", ""), token
            else:
                assert pieces == [token]

    def test_pieces_are_never_empty(self):
        for token in ("_a_", "a__b", "_", "A1b2C3"):
            assert all(pieces for pieces in refine_token(token))


class TestSubtokenize:
    def test_identifier(self):
        assert subtokenize("emptyImplicitTable") == ["empty", "Implicit", "Table"]

    def test_code_line(self):
        assert subtokenize("sb.append(emptyImplicitTable);") == [
            "sb", ".", "append", "(", "empty", "Implicit", "Table", ")", ";",
        ]

    def test_punctuation_untouched(self):
        assert subtokenize("a.b") == ["a", ".", "b"]

    def test_non_ascii_text(self):
        assert subtokenize("Use “HTMLParser” in café_au_lait2 ___") == [
            "Use", "“", "HTML", "Parser", "”", "in", "café", "au", "lait", "2", "___",
        ]


def _loop_code_tokenize(text):
    """The original character-loop code_tokenize, kept as the reference."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            tokens.append(ch)
            i += 1
    return tokens


def _loop_subtokenize(text):
    return [piece for tok in _loop_code_tokenize(text) for piece in refine_token(tok)]


class TestKernelParity:
    """The regex kernels must agree token-for-token with the character loop."""

    def _assert_parity(self, s):
        assert code_tokenize(s) == _loop_code_tokenize(s), repr(s)
        assert subtokenize(s) == _loop_subtokenize(s), repr(s)

    def test_randomized_inputs(self):
        rng = random.Random(1234)
        pool = string.printable + "éÜßµ日本語²①_"
        for _ in range(3000):
            self._assert_parity(
                "".join(rng.choice(pool) for _ in range(rng.randrange(0, 60)))
            )

    def test_refine_parity(self):
        rng = random.Random(99)
        pool = string.ascii_letters + string.digits + "_ßÜé"
        for _ in range(2000):
            self._assert_parity(
                "".join(rng.choice(pool) for _ in range(rng.randrange(1, 24)))
            )

    def test_every_ascii_character(self):
        rng = random.Random(7)
        pool = [chr(c) for c in range(128)] + ["_", "__", "___"]
        for ch in pool:
            self._assert_parity(ch)
        for _ in range(5000):
            self._assert_parity(
                "".join(rng.choice(pool) for _ in range(rng.randrange(0, 40)))
            )

    def test_every_bmp_code_point(self):
        self._assert_parity("".join(map(chr, range(0x10000))))


class TestProcessDiscussionText:
    def test_plain_prose(self):
        assert process_discussion_text("toml4j") == ["toml", "4", "j"]

    def test_fenced_code_kept_verbatim(self):
        assert process_discussion_text("```\nint x;\n```") == ["int", "x", ";"]

    def test_fence_language_tag_dropped(self):
        assert process_discussion_text("```java\nint x;\n```") == ["int", "x", ";"]

    def test_link_keeps_text_and_url(self):
        assert process_discussion_text("[link](http://u)") == [
            "link", "http", ":", "/", "/", "u",
        ]

    def test_inline_code_backticks_stripped(self):
        assert process_discussion_text("call `fooBar()` here") == [
            "call", "foo", "Bar", "(", ")", "here",
        ]

    def test_header_and_list_markers_stripped(self):
        text = "# Problem\n- first item\n2. second"
        assert process_discussion_text(text) == [
            "Problem", "first", "item", "second",
        ]

    def test_blockquote_and_hrule(self):
        text = "> quoted reply\n---\nafter"
        assert process_discussion_text(text) == ["quoted", "reply", "after"]

    def test_emphasis_asterisks_removed(self):
        assert process_discussion_text("this is **very** bad") == [
            "this", "is", "very", "bad",
        ]

    def test_unterminated_fence_warns_and_treats_rest_as_code(self, caplog):
        with caplog.at_level(logging.WARNING, logger="discforge.textproc"):
            tokens = process_discussion_text("before\n```\nint x;")
        assert tokens == ["before", "int", "x", ";"]
        assert any("unterminated" in r.message for r in caplog.records)

    def test_markers_inside_fence_survive(self):
        text = "```\n# not a header\n- not a list\n```"
        assert process_discussion_text(text) == [
            "#", "not", "a", "header", "-", "not", "a", "list",
        ]

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            process_discussion_text(None)


class TestConcatWithSeparator:
    def test_basic(self):
        assert concat_with_separator([["a"], ["b", "c"]], "<s>") == ["a", "<s>", "b", "c"]

    def test_empty_parts_skipped(self):
        assert concat_with_separator([[], ["a"], [], ["b"], []], "<s>") == [
            "a", "<s>", "b",
        ]

    def test_no_parts(self):
        assert concat_with_separator([], "<s>") == []

    def test_single_part_has_no_separator(self):
        assert concat_with_separator([["x", "y"]], "<s>") == ["x", "y"]

    def test_never_doubles_the_separator(self):
        rng = random.Random(5)
        for _ in range(200):
            parts = [["t"] * rng.randrange(0, 3) for _ in range(rng.randrange(0, 6))]
            out = concat_with_separator(parts, "<s>")
            for left, right in zip(out, out[1:]):
                assert not (left == "<s>" and right == "<s>")
            if out:
                assert out[0] != "<s>" and out[-1] != "<s>"


class TestTruncateFromEnd:
    def test_keeps_prefix(self):
        assert truncate_from_end(["a", "b", "c", "d"], 2) == ["a", "b"]

    def test_short_input_untouched(self):
        assert truncate_from_end(["a"], 5) == ["a"]

    def test_zero_budget(self):
        assert truncate_from_end(["a"], 0) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            truncate_from_end(["a"], -1)
