"""Tokenizer kernels.

This is the only implementation of the tokenizer contract; discforge.textproc
re-exports it. code_tokenize is one regular expression: Python's ``\\w`` is
exactly ``str.isalnum() or "_"`` and its ``\\s`` is exactly ``str.isspace()``.
subtokenize takes a single regular-expression pass over ASCII text. Text with
any other character is split by code_tokenize, and each token is refined by
that same pass if it is ASCII and by refine_token otherwise, because ``re``
has no classes for Unicode lower case, upper case and digits. The tests hold
every path to the original character loop token for token.
"""

from __future__ import annotations

import re

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
