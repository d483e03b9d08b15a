"""Throughput of the subtokenize kernel.

Times discforge.textproc.subtokenize on synthetic issue text (prose words,
identifiers and code fragments) so a regression in the kernel is easy to
spot. Run from the repository root:

    python3 benchmarks/bench_textproc.py --chars 2000000
"""

import argparse
import random
import time

from discforge import textproc


_WORDS = [
    "the", "parser", "fails", "on", "empty", "input", "lines",
    "NullPointerException", "toml4j", "XMLHttpRequest", "getValue2",
    "snake_case_name", "sb.append(table);", "HTMLParser", "x",
    "return value;", "if (line == null) { throw new Error(); }",
]


def make_corpus(rng, target_chars):
    """Roughly target_chars of text shaped like issue prose plus code."""
    lines = []
    total = 0
    while total < target_chars:
        line = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 14)))
        lines.append(line)
        total += len(line) + 1
    return lines


def bench(kernel, lines, repeats):
    start = time.perf_counter()
    n_tokens = 0
    for _ in range(repeats):
        for line in lines:
            n_tokens += len(kernel.subtokenize(line))
    elapsed = time.perf_counter() - start
    return elapsed, n_tokens


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chars", type=int, default=1_000_000,
                        help="approximate corpus size in characters")
    parser.add_argument("--repeats", type=int, default=3,
                        help="passes over the corpus")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    lines = make_corpus(rng, args.chars)
    corpus_chars = sum(len(s) for s in lines)
    print(f"corpus: {len(lines)} lines, {corpus_chars} chars, {args.repeats} passes")

    # Warm-up pass so allocator and cache effects do not skew the timing.
    for line in lines[:200]:
        textproc.subtokenize(line)
    elapsed, n_tokens = bench(textproc, lines, args.repeats)
    rate = corpus_chars * args.repeats / elapsed / 1e6
    print(f"subtokenize: {elapsed:6.2f}s  {rate:6.1f} MB/s  ({n_tokens} subtokens)")


if __name__ == "__main__":
    main()
