"""Text tokenization and discussion-text normalization.

The tokenizer kernels live in discforge._puretok, a pure-Python module with
a regular-expression fast path for ASCII text; this module re-exports them.
benchmarks/bench_textproc.py measures their throughput.
"""

from __future__ import annotations

import logging
import re

from ._puretok import code_tokenize, refine_token, subtokenize

# Only one kernel exists; the name stays because benchmark reports key on it.
KERNEL_BACKEND = "pure"

log = logging.getLogger(__name__)

_LINK = re.compile(r"!?\[([^\]]*)\]\(\s*(\S+?)(?:\s+\"[^\"]*\")?\s*\)")
_HEADER = re.compile(r"^\s{0,3}#{1,6}\s+")
_BLOCKQUOTE = re.compile(r"^\s{0,3}(?:>\s?)+")
_LIST_ITEM = re.compile(r"^\s*(?:[-*+]|\d{1,9}[.)])\s+")
_HRULE = re.compile(r"^\s*(?:(?:-\s*){3,}|(?:\*\s*){3,}|(?:_\s*){3,})$")
_FENCE = re.compile(r"^\s{0,3}```")


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


def concat_with_separator(parts, separator: str) -> list[str]:
    """Join token lists with a single separator token between them.

    Empty parts are skipped entirely, so the output never starts or ends
    with the separator and never repeats it.
    """
    out: list[str] = []
    for part in parts:
        part = list(part)
        if not part:
            continue
        if out:
            out.append(separator)
        out.extend(part)
    return out


def truncate_from_end(tokens, limit: int) -> list[str]:
    """Keep at most `limit` tokens, discarding from the end."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    return list(tokens)[:limit]
