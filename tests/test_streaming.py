"""The commands that stream examples: `link`, `context` and `segments`.

They hold their lookup inputs (links, discussions, descriptions, traces)
and one example at a time, and write each output beside its target before
moving it on. A bad example record therefore leaves no output behind and
an earlier output whole, and `--out` may name the input itself.
"""

import dataclasses
import json
import random
import tracemalloc

import pytest

from conftest import make_discussion, make_example, make_utterance
from discforge import storage
from discforge.cli import main

N_EXAMPLES = 24
N_DISCUSSIONS = 6
FAULT_SEEDS = range(60)
KINDS = ("bad-field", "invalid-json", "duplicate-id")


def sha(i):
    return f"{i:08x}" + "ab" * 16


def write_corpus(root, n_examples=N_EXAMPLES, n_linked=None, vocab=None, n_discussions=N_DISCUSSIONS, repeat=1):
    """Examples, discussions, links and descriptions under `root`.

    `examples.jsonl` carries no discussion_ids (the input of `link`);
    `dataset.jsonl` carries them (the input of `context` and `segments`),
    and some examples have none, so `context` skips them. Links and
    discussions do not depend on `n_examples`; examples and links do not
    depend on `n_discussions` (at least N_DISCUSSIONS) or on `repeat`,
    the number of times each utterance's text is repeated.
    """
    root.mkdir(parents=True, exist_ok=True)
    discussions = [
        make_discussion(
            disc_id=f"demo/proj#{n}",
            number=n,
            title=f"Crash number {n} in parser",
            utterances=[
                make_utterance(0, "2014-05-01T10:00:00Z", " ".join([f"report {n} body"] * repeat)),
                make_utterance(1, "2014-05-02T10:00:00Z", " ".join([f"a comment on {n}"] * repeat)),
            ],
        )
        for n in range(1, n_discussions + 1)
    ]
    vocab = vocab or [f"tok{j}" for j in range(40)]
    plain, linked, descriptions = [], [], []
    for i in range(n_examples):
        rng = random.Random(i)
        buggy = tuple(rng.choice(vocab) for _ in range(30))
        ex = make_example(
            ex_id=f"e{i}",
            sha=sha(i),
            commit_ts="2014-06-01T00:00:00Z",
            buggy=buggy,
            fixed=buggy + ("fix",),
            method=(f"m{i % 7}",),
        )
        plain.append(ex)
        disc_id = f"demo/proj#{i % N_DISCUSSIONS + 1}"
        linked.append(dataclasses.replace(ex, discussion_ids=() if i % 5 == 4 else (disc_id,)))
        if i % 3:
            descriptions.append({"example_id": ex.id, "discussion_id": disc_id,
                                 "description_tokens": ["use", "the", "guard"]})
    n_linked = n_examples if n_linked is None else n_linked
    links = [
        {"project": "demo/proj", "issue_number": i % N_DISCUSSIONS + 1, "commit_sha": sha(i)[:10],
         "linked_at": "2014-05-20T00:00:00Z", "link_source": "message_reference"}
        for i in range(n_linked)
        if i % 4
    ]
    storage.save_dataset(root / "examples.jsonl", plain)
    storage.save_dataset(root / "dataset.jsonl", linked)
    storage.save_discussions(root / "discussions.jsonl", discussions)
    storage.write_jsonl(root / "links.jsonl", links)
    storage.write_jsonl(root / "desc.jsonl", descriptions)
    return root


def command_argv(command, root, out_dir):
    """(argv, input path, output paths) of one streaming command."""
    discussions = str(root / "discussions.jsonl")
    if command == "link":
        outs = [out_dir / "linked.jsonl", out_dir / "dropped.jsonl"]
        argv = ["link", "--examples", str(root / "examples.jsonl"), "--links", str(root / "links.jsonl"),
                "--discussions", discussions, "--out", str(outs[0]), "--dropped", str(outs[1])]
        return argv, root / "examples.jsonl", outs
    if command == "segments":
        outs = [out_dir / "segments.jsonl"]
        argv = ["segments", "--dataset", str(root / "dataset.jsonl"), "--discussions", discussions,
                "--out", str(outs[0])]
        return argv, root / "dataset.jsonl", outs
    kind = command.split(":")[1]
    outs = [out_dir / f"ctx-{kind}.jsonl", out_dir / f"skip-{kind}.jsonl"]
    argv = ["context", "--dataset", str(root / "dataset.jsonl"), "--repr", kind, "--discussions", discussions,
            "--desc", str(root / "desc.jsonl"), "--out", str(outs[0]), "--skipped", str(outs[1])]
    return argv, root / "dataset.jsonl", outs


COMMANDS = ("link", "context:whole_discussion", "context:title", "context:soln_desc", "segments")


def corrupt(path, rng):
    """Break one randomly chosen record of `path`; return (line, kind)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    kind = rng.choice(KINDS)
    k = rng.randint(2 if kind == "duplicate-id" else 1, len(lines))
    row = json.loads(lines[k - 1])
    if kind == "bad-field":
        row[rng.choice(["commit_sha", "split", "buggy_tokens"])] = rng.choice(["", 7, ["", "x"]])
        lines[k - 1] = json.dumps(row) + "\n"
    elif kind == "invalid-json":
        lines[k - 1] = lines[k - 1][: rng.randint(1, len(lines[k - 1]) - 2)] + "\n"
    else:
        row["id"] = json.loads(lines[rng.randint(1, k - 1) - 1])["id"]
        lines[k - 1] = json.dumps(row) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return k, kind


def temp_files(*dirs):
    return sorted(p.name for d in dirs for p in d.iterdir() if p.name.endswith(".tmp"))


@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_bad_record_leaves_no_output_and_earlier_outputs_whole(tmp_path, capsys, seed):
    rng = random.Random(seed)
    command = COMMANDS[seed % len(COMMANDS)]
    root = write_corpus(tmp_path / "in")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv, source, outs = command_argv(command, root, out_dir)
    assert main(argv) == 0
    before = {p: p.read_bytes() for p in outs}
    capsys.readouterr()

    k, kind = corrupt(source, rng)
    assert main(argv) == 2, (command, k, kind)
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}: line {k}: "), (command, kind, err)
    assert {p: p.read_bytes() for p in outs} == before
    assert temp_files(root, out_dir) == []

    for p in outs:
        p.unlink()
    assert main(argv) == 2
    assert capsys.readouterr().err == err
    assert list(out_dir.iterdir()) == []
    assert temp_files(root) == []


@pytest.mark.parametrize("command", COMMANDS)
def test_out_may_be_the_input_itself(tmp_path, capsys, command):
    root = write_corpus(tmp_path / "in")
    argv, source, outs = command_argv(command, root, tmp_path)
    assert main(argv) == 0
    expected = outs[0].read_bytes()
    argv[argv.index("--out") + 1] = str(source)
    assert main(argv) == 0
    assert source.read_bytes() == expected
    assert temp_files(root, tmp_path) == []


def test_link_memory_does_not_grow_with_the_examples(tmp_path, capsys):
    """link holds the links and discussions, not the dataset.

    From N to 8N examples, with the same links and discussions, link's
    traced peak may grow by at most a quarter of what load_dataset holds
    for the 7N extra examples, measured here on the same files.
    """
    n = 250
    vocab = [f"identifier{j}" for j in range(2000)]
    small = write_corpus(tmp_path / "small", n_examples=n, n_linked=n, vocab=vocab)
    large = write_corpus(tmp_path / "large", n_examples=8 * n, n_linked=n, vocab=vocab)
    assert (small / "links.jsonl").read_bytes() == (large / "links.jsonl").read_bytes()

    def link(root):
        argv, _, _ = command_argv("link", root, root)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base

    def held(root):
        base = tracemalloc.get_traced_memory()[0]
        examples = storage.load_dataset(root / "examples.jsonl")
        size = tracemalloc.get_traced_memory()[0] - base
        assert len(examples) in (n, 8 * n)
        return size

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        link(small)  # warm-up: first-call caches and lazy imports
        peak_small, peak_large = link(small), link(large)
        extra = held(large) - held(small)
    finally:
        if not tracing:
            tracemalloc.stop()
    capsys.readouterr()
    assert extra > 0
    assert peak_large - peak_small <= extra / 4, (peak_small, peak_large, extra)


def test_link_memory_does_not_grow_with_the_discussion_text(tmp_path, capsys):
    """link holds each discussion's ids and timestamps, not its text.

    With the same examples and links and the utterance text 8 times
    longer, link's traced peak may grow by at most a quarter of what
    load_discussions holds for the extra text, measured on the same files.
    """
    n_discussions, repeat = 200, 40
    short = write_corpus(tmp_path / "short", n_discussions=n_discussions, repeat=repeat)
    long = write_corpus(tmp_path / "long", n_discussions=n_discussions, repeat=8 * repeat)
    for name in ("examples.jsonl", "links.jsonl"):
        assert (short / name).read_bytes() == (long / name).read_bytes()

    def link(root):
        argv, _, _ = command_argv("link", root, root)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base

    def held(root):
        base = tracemalloc.get_traced_memory()[0]
        discussions = storage.load_discussions(root / "discussions.jsonl")
        size = tracemalloc.get_traced_memory()[0] - base
        assert len(discussions) == n_discussions
        return size

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        link(short)  # warm-up: first-call caches and lazy imports
        peak_short, peak_long = link(short), link(long)
        extra = held(long) - held(short)
    finally:
        if not tracing:
            tracemalloc.stop()
    capsys.readouterr()
    assert extra > 0
    assert peak_long - peak_short <= extra / 4, (peak_short, peak_long, extra)


def test_link_memory_holds_a_key_per_link_not_its_record(tmp_path, capsys):
    """link streams --links and keeps each event's sha, project and issue number.

    With the same examples and discussions and 8 times the links, link's
    traced peak may grow by at most three quarters of what load_links holds
    for the extra links, measured on the same files (about 0.6 of it;
    holding every record, as load_links does, takes more than all of it).
    """
    n = 500
    small = write_corpus(tmp_path / "small", n_linked=n)
    large = write_corpus(tmp_path / "large", n_linked=8 * n)
    for name in ("examples.jsonl", "discussions.jsonl"):
        assert (small / name).read_bytes() == (large / name).read_bytes()

    def link(root):
        argv, _, _ = command_argv("link", root, root)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base

    def held(root):
        base = tracemalloc.get_traced_memory()[0]
        links = storage.load_links(root / "links.jsonl")
        size = tracemalloc.get_traced_memory()[0] - base
        assert len(links) in (n * 3 // 4, 8 * n * 3 // 4)
        return size

    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        link(small)  # warm-up: first-call caches and lazy imports
        peak_small, peak_large = link(small), link(large)
        extra = held(large) - held(small)
    finally:
        if not tracing:
            tracemalloc.stop()
    capsys.readouterr()
    assert extra > 0
    assert peak_large - peak_small <= extra * 3 / 4, (peak_small, peak_large, extra)


def test_link_reports_a_bad_links_then_discussions_then_examples_file(tmp_path, capsys):
    root = write_corpus(tmp_path / "in")
    argv, _, outs = command_argv("link", root, tmp_path)
    names = ("links.jsonl", "discussions.jsonl", "examples.jsonl")
    for name in names:
        with (root / name).open("a", encoding="utf-8") as f:
            f.write("{oops\n")
    for name in names:
        path = root / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line {len(lines)}: invalid JSON: ")
        assert not any(p.exists() for p in outs)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
    assert main(argv) == 0
