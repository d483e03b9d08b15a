"""Text tokenization and discussion-text normalization.

The tokenizer kernels are pure Python. code_tokenize is one regular
expression: Python's ``\\w`` is exactly ``str.isalnum() or "_"`` and its
``\\s`` is exactly ``str.isspace()``. subtokenize takes a single
regular-expression pass over ASCII text. Text with any other character is
split by code_tokenize, and each token is refined by that same pass if it
is ASCII and by refine_token otherwise, because ``re`` has no classes for
Unicode lower case, upper case and digits. The tests hold every path to
the original character loop token for token, and
benchmarks/bench_textproc.py measures their throughput.
"""

from __future__ import annotations

import logging
import re

# Only one kernel exists; the name stays because benchmark reports key on it.
KERNEL_BACKEND = "pure"

log = logging.getLogger(__name__)

_LINK = re.compile(r"!?\[([^\]]*)\]\(\s*(\S+?)(?:\s+\"[^\"]*\")?\s*\)")
_HEADER = re.compile(r"^\s{0,3}#{1,6}\s+")
_BLOCKQUOTE = re.compile(r"^\s{0,3}(?:>\s?)+")
_LIST_ITEM = re.compile(r"^\s*(?:[-*+]|\d{1,9}[.)])\s+")
_HRULE = re.compile(r"^\s*(?:(?:-\s*){3,}|(?:\*\s*){3,}|(?:_\s*){3,})$")
_FENCE = re.compile(r"^\s{0,3}```")
_CODE_TOKEN = re.compile(r"\w+|[^\w\s]")

# code_tokenize + refine_token in one pass, valid for ASCII text only. The
# alternatives, in order: a capital run minus the capital that starts the
# next word (HTMLParser -> HTML), an optionally capitalised lower-case run, a
# capital run, a digit run, an underscore run that is a whole word token
# (refine_token keeps those intact), and one punctuation character.
# Underscores inside a word token match nothing, so they are dropped.
_ASCII_SUBTOKEN = re.compile(
    r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+|(?<!\w)_+(?!\w)|[^\w\s]"
)


# A def, not a bound findall: a bound method has no __module__, and the
# benchmark's tracer attributes calls by the module that defines them.
def code_tokenize(text: str) -> list[str]:
    """Split text into word tokens and standalone punctuation tokens.

    Word characters are alphanumerics plus underscore; every other
    non-space character becomes its own single-character token.
    """
    return _CODE_TOKEN.findall(text)


def refine_token(token: str) -> list[str]:
    """Split one token at underscores and case/digit boundaries.

    Underscores are dropped; a boundary falls between lower->Upper,
    letter->digit, digit->letter, and before the last capital of a capital
    run that is followed by lowercase (HTMLParser -> HTML, Parser). Tokens
    with no alphanumerics pass through unchanged, so joining the pieces
    always reconstructs the token minus its underscores.
    """
    if not any(c.isalnum() for c in token):
        return [token]
    parts = []
    for run in token.split("_"):
        if not run:
            continue
        n = len(run)
        start = 0
        for k in range(1, n):
            prev = run[k - 1]
            cur = run[k]
            if (
                (prev.islower() and cur.isupper())
                or (prev.isalpha() and cur.isdigit())
                or (prev.isdigit() and cur.isalpha())
                or (
                    prev.isupper()
                    and cur.isupper()
                    and k + 1 < n
                    and run[k + 1].islower()
                )
            ):
                parts.append(run[start:k])
                start = k
        parts.append(run[start:])
    return parts


def subtokenize(text: str) -> list[str]:
    """code_tokenize, then refine every token."""
    if text.isascii():
        return _ASCII_SUBTOKEN.findall(text)
    out = []
    for tok in code_tokenize(text):
        out.extend(_ASCII_SUBTOKEN.findall(tok) if tok.isascii() else refine_token(tok))
    return out


def _clean_prose_line(line: str) -> str:
    """Strip markdown markers from one non-code line."""
    if _HRULE.match(line):
        return ""
    line = _BLOCKQUOTE.sub("", line)
    line = _HEADER.sub("", line)
    line = _LIST_ITEM.sub(" ", line)
    line = _LINK.sub(r"\1 \2", line)
    # Emphasis asterisks and inline-code backticks are markup, not content.
    return line.replace("*", "").replace("`", "")


def process_discussion_text(text: str) -> list[str]:
    """Normalize markdown discussion text and subtokenize it.

    Fenced code blocks are kept verbatim (the fence lines themselves are
    dropped); prose lines lose their markdown markers and links become
    "text url". A fence that never closes flags the remainder as code and
    logs a warning rather than failing.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected str, got {type(text).__name__}")
    kept = []
    in_fence = False
    for line in text.splitlines():
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        kept.append(line if in_fence else _clean_prose_line(line))
    if in_fence:
        log.warning("unterminated code fence; trailing lines treated as code")
    return subtokenize("\n".join(kept))


def truncate_from_end(tokens, limit: int) -> list[str]:
    """Keep at most `limit` tokens, discarding from the end."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    return list(tokens)[:limit]
