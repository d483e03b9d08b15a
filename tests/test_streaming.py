"""The commands that stream examples: every command that reads a dataset.

`link`, `context`, `segments` and the report commands `eval`, `compare`,
`oracle-eval` and `stats` read their lookup inputs (links, discussions,
descriptions, traces, candidates) first, then the examples one at a time,
each once. `link`, `context` and `segments` hold one example at a time and
write each output beside its target before moving it on. A bad example
record therefore leaves no output behind and an earlier output whole, and
`--out` may name the input itself. A report command keeps a few numbers per
example (its outcome), never the example.
"""

import contextlib
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


def write_corpus(root, n_examples=N_EXAMPLES, n_linked=None, vocab=None, n_discussions=N_DISCUSSIONS, repeat=1,
                 n_tokens=30):
    """Examples, discussions, links, descriptions and candidates under `root`.

    `examples.jsonl` carries no discussion_ids (the input of `link`);
    `dataset.jsonl` carries them (the input of every other command), and
    some examples have none, so `context` skips them. Links, descriptions
    and the candidate sets `cands/a.jsonl` and `cands/b.jsonl` cover the
    first `n_linked` examples (all by default), so with `n_linked` given
    they do not depend on `n_examples`, nor do discussions. Examples and
    links do not depend on `n_discussions` (at least N_DISCUSSIONS) or on
    `repeat`, the number of times each utterance's text is repeated. Each
    example's buggy code is `n_tokens` tokens long.
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
    n_linked = n_examples if n_linked is None else n_linked
    plain, linked, descriptions, cands = [], [], [], {"a": [], "b": []}
    for i in range(n_examples):
        rng = random.Random(i)
        buggy = tuple(rng.choice(vocab) for _ in range(n_tokens))
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
        if i >= n_linked:
            continue
        if i % 3:
            descriptions.append({"example_id": ex.id, "discussion_id": disc_id,
                                 "description_tokens": ["use", "the", "guard"]})
        for name, step in (("a", 2), ("b", 3)):
            tokens = ex.fixed_tokens if i % step == 0 else buggy
            cands[name].append({"example_id": ex.id, "candidate_tokens": tokens, "source": name})
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
    (root / "cands").mkdir(exist_ok=True)
    for name, rows in cands.items():
        storage.write_jsonl(root / "cands" / f"{name}.jsonl", rows)
    return root


def command_argv(command, root, out_dir):
    """(argv, the examples file it reads, output paths) of one streaming command."""
    discussions = str(root / "discussions.jsonl")
    dataset = root / "dataset.jsonl"
    reports = {
        "eval": ["--refs", str(dataset), "--candidates", str(root / "cands" / "a.jsonl")],
        "compare": ["--refs", str(dataset), "--a", str(root / "cands" / "a.jsonl"),
                    "--b", str(root / "cands" / "b.jsonl"), "--samples", "100", "--size", "100"],
        "oracle-eval": ["--refs", str(dataset), "--candidates", str(root / "cands")],
        "stats": ["--dataset", str(dataset), "--discussions", discussions, "--desc", str(root / "desc.jsonl")],
    }
    if command in reports:
        outs = [out_dir / f"{command}.json"]
        return [command, *reports[command], "--out", str(outs[0])], dataset, outs
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


@contextlib.contextmanager
def traced():
    """tracemalloc on for the block; one already tracing is left on."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        yield
    finally:
        if not tracing:
            tracemalloc.stop()


def peak_of(argv):
    """Traced peak of main(argv), above what was traced when it began."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    assert main(argv) == 0
    return tracemalloc.get_traced_memory()[1] - base


def held_by(load, path):
    """(len(load(path)), the traced memory its result holds), the result dropped."""
    base = tracemalloc.get_traced_memory()[0]
    loaded = load(path)
    return len(loaded), tracemalloc.get_traced_memory()[0] - base


def records_of(root):
    """Every record of the corpus under `root`, with each discussion's tokens.

    A test keeps its smaller corpus's records while its traced commands
    run: they keep the strings the commands intern in the interpreter's
    table of interned strings. On 3.11 a dropped interned string leaves
    that table, and refilling it now and then rebuilds it, a transient of
    about 1 MB in a traced peak, so without them a peak would depend on
    what earlier tests left in the table.
    """
    discussions = storage.load_discussions(root / "discussions.jsonl")
    return [discussions, [(d.title_tokens, [u.tokens for u in d.utterances]) for d in discussions.values()],
            storage.load_links(root / "links.jsonl"), storage.load_candidates(root / "cands" / "a.jsonl"),
            storage.load_descriptions(root / "desc.jsonl"), storage.load_dataset(root / "examples.jsonl"),
            storage.load_dataset(root / "dataset.jsonl")]


@pytest.fixture(scope="module")
def sized_corpora(tmp_path_factory):
    """(small, large, extra, small's records) for test_memory_does_not_grow_with_the_examples.

    The corpora have N and 8N examples and the same links, discussions,
    descriptions and candidates; `extra` maps each dataset file's name to
    what load_dataset holds for the 7N more examples. The small corpus's
    records (records_of) are returned so that they stay loaded while the
    commands run.
    """
    n = 250
    vocab = [f"identifier{j}" for j in range(2000)]
    root = tmp_path_factory.mktemp("sized")
    small = write_corpus(root / "small", n_examples=n, n_linked=n, vocab=vocab, n_tokens=100)
    large = write_corpus(root / "large", n_examples=8 * n, n_linked=n, vocab=vocab, n_tokens=100)
    for name in ("links.jsonl", "desc.jsonl", "cands/a.jsonl", "cands/b.jsonl"):
        assert (small / name).read_bytes() == (large / name).read_bytes()
    extra = {}
    with traced():
        for name in ("examples.jsonl", "dataset.jsonl"):
            (n_small, size_small), (n_large, size_large) = (held_by(storage.load_dataset, root / name)
                                                            for root in (small, large))
            assert (n_small, n_large) == (n, 8 * n)
            extra[name] = size_large - size_small
    return small, large, extra, records_of(small)


@pytest.mark.parametrize("command", ("link", "eval", "compare", "oracle-eval", "stats"))
def test_memory_does_not_grow_with_the_examples(sized_corpora, capsys, command):
    """A command holds its lookup inputs, not the dataset.

    From N to 8N examples, with the same links, discussions, descriptions
    and candidates, the command's traced peak may grow by at most a quarter
    of what load_dataset holds for the 7N extra examples, measured on the
    same files. The report commands keep an outcome per example (an id and
    a flag, or a list of source names); an example's 100-token code
    outweighs that many times over.
    """
    small, large, extra, _ = sized_corpora
    (argv_small, source, _), (argv_large, _, _) = (command_argv(command, root, root) for root in (small, large))
    assert main(argv_small) == main(argv_large) == 0  # warm-up: first-call caches, lazy imports and free lists
    with traced():
        peak_small, peak_large = peak_of(argv_small), peak_of(argv_large)
    capsys.readouterr()
    assert extra[source.name] > 0
    assert peak_large - peak_small <= extra[source.name] / 4, (peak_small, peak_large, extra[source.name])


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
    argv_short, argv_long = (command_argv("link", root, root)[0] for root in (short, long))
    with traced():
        (n_short, held_short), (n_long, held_long) = (held_by(storage.load_discussions, root / "discussions.jsonl")
                                                      for root in (short, long))
    assert n_short == n_long == n_discussions
    extra = held_long - held_short
    assert extra > 0

    records = records_of(short)  # noqa: F841 (kept loaded while link runs)
    assert main(argv_short) == main(argv_long) == 0  # warm-up: first-call caches, lazy imports and free lists
    with traced():
        peak_short, peak_long = peak_of(argv_short), peak_of(argv_long)
    capsys.readouterr()
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
    argv_small, argv_large = (command_argv("link", root, root)[0] for root in (small, large))
    with traced():
        (n_small, held_small), (n_large, held_large) = (held_by(storage.load_links, root / "links.jsonl")
                                                        for root in (small, large))
    assert (n_small, n_large) == (n * 3 // 4, 8 * n * 3 // 4)
    extra = held_large - held_small
    assert extra > 0

    records = records_of(small)  # noqa: F841 (kept loaded while link runs)
    assert main(argv_small) == main(argv_large) == 0  # warm-up: first-call caches, lazy imports and free lists
    with traced():
        peak_small, peak_large = peak_of(argv_small), peak_of(argv_large)
    capsys.readouterr()
    assert peak_large - peak_small <= extra * 3 / 4, (peak_small, peak_large, extra)


@pytest.mark.parametrize("command, names", [
    ("link", ("links.jsonl", "discussions.jsonl", "examples.jsonl")),
    ("eval", ("cands/a.jsonl", "dataset.jsonl")),
    ("compare", ("cands/a.jsonl", "cands/b.jsonl", "dataset.jsonl")),
    ("oracle-eval", ("cands/a.jsonl", "cands/b.jsonl", "dataset.jsonl")),
    ("stats", ("discussions.jsonl", "desc.jsonl", "dataset.jsonl")),
])
def test_a_bad_lookup_input_is_reported_before_a_bad_dataset(tmp_path, capsys, command, names):
    """With every input bad, each run reports the first input the command reads; `names` is that order."""
    root = write_corpus(tmp_path / "in")
    argv, _, outs = command_argv(command, root, tmp_path)
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
