"""JSONL round trips and loader error reporting."""

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from array import array

import pytest

from conftest import make_discussion, make_example, make_utterance
from test_contexts import interned
from discforge import storage
from discforge.records import (
    AttentionTrace,
    BugFixExample,
    Candidate,
    CommitLinkEvent,
    Description,
    Discussion,
    RecordError,
    Segment,
)


def test_dataset_round_trip(tmp_path):
    examples = [
        make_example(ex_id="e1", oracle=("fix", "the", "bug")),
        make_example(
            ex_id="e2",
            buggy=("a", "<s>", "naïve"),
            fixed=("a", "<s>", "naïve", "✓"),
            discussion_ids=("p#1",),
        ),
    ]
    path = tmp_path / "data.jsonl"
    storage.save_dataset(path, examples)
    assert storage.load_dataset(path) == examples


def test_dataset_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "data.jsonl"
    storage.save_dataset(path, [make_example(ex_id="e1"), make_example(ex_id="e1")])
    with pytest.raises(RecordError, match="duplicate example id"):
        storage.load_dataset(path)


def test_loader_reports_line_and_field(tmp_path):
    good = make_example(ex_id="e1").to_dict()
    bad = make_example(ex_id="e2").to_dict()
    del bad["split"]
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(RecordError, match=r"line 2.*split"):
        storage.load_dataset(path)


def test_loader_reports_broken_json_line(tmp_path):
    path = tmp_path / "data.jsonl"
    good = json.dumps(make_example().to_dict())
    path.write_text(good + "\n{oops\n", encoding="utf-8")
    with pytest.raises(RecordError, match="line 2"):
        storage.load_dataset(path)


def test_write_jsonl_counts_streamed_rows(tmp_path):
    path = tmp_path / "rows.jsonl"
    assert storage.write_jsonl(path, ({"i": i, "s": "✓"} for i in range(3))) == 3
    assert path.read_text(encoding="utf-8") == "".join(
        f'{{"i": {i}, "s": "✓"}}\n' for i in range(3)
    )
    assert storage.write_jsonl(path, iter(())) == 0
    assert path.read_text(encoding="utf-8") == ""


def test_iter_dataset_yields_before_it_reads_a_later_duplicate(tmp_path):
    path = tmp_path / "data.jsonl"
    storage.save_dataset(path, [make_example(ex_id="e1"), make_example(ex_id="e2")])
    with path.open("a", encoding="utf-8") as f:
        f.write(json.dumps(make_example(ex_id="e1").to_dict()) + "\n")
    rows = storage.iter_dataset(path)
    assert [next(rows).id, next(rows).id] == ["e1", "e2"]
    with pytest.raises(RecordError) as exc:
        next(rows)
    assert str(exc.value) == (
        f"{path}: line 3: field 'id': duplicate example id 'e1' (first at record 1)"
    )
    assert (exc.value.path, exc.value.line) == (path, 3)


def test_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "rows.jsonl"

    def rows():
        yield {"i": 1}
        raise RecordError("boom")

    with pytest.raises(RecordError, match="boom"):
        storage.write_jsonl(path, rows())
    assert list(tmp_path.iterdir()) == []
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RecordError, match="boom"):
        storage.write_jsonl(path, rows())
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text(encoding="utf-8") == "old\n"


def test_symlinked_target_is_written_through(tmp_path):
    real = tmp_path / "real.jsonl"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)
    assert storage.temp_file(link) == f"{real}.tmp"
    old_inode = real.stat().st_ino
    assert storage.write_jsonl(link, [{"i": 1}]) == 1
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == '{"i": 1}\n'
    assert real.stat().st_ino != old_inode  # replaced whole, not rewritten in place


def test_loader_reports_array_line(tmp_path):
    path = tmp_path / "data.jsonl"
    good = json.dumps(make_example().to_dict())
    path.write_text(good + "\n" + json.dumps(["not", "a", "record"]) + "\n", encoding="utf-8")
    with pytest.raises(RecordError, match=f"^{re.escape(str(path))}: line 2: expected a JSON object, got list$") as exc:
        storage.load_dataset(path)
    assert exc.value.line == 2


def test_loader_reports_line_of_record_missing_a_field(tmp_path):
    rows = [
        {"project": "p/q", "issue_number": n, "commit_sha": "abcdef0",
         "linked_at": "2014-05-10T12:00:00Z", "link_source": "timeline_event"}
        for n in (1, 2, 3)
    ]
    del rows[2]["linked_at"]
    path = tmp_path / "links.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(RecordError, match=f"^{re.escape(str(path))}: line 3: field 'linked_at': missing$") as exc:
        storage.load_links(path)
    assert exc.value.line == 3
    assert exc.value.field == "linked_at"


def test_blank_lines_are_ignored(tmp_path):
    ex = make_example()
    path = tmp_path / "data.jsonl"
    path.write_text("\n" + json.dumps(ex.to_dict()) + "\n\n", encoding="utf-8")
    assert storage.load_dataset(path) == [ex]


def test_non_ascii_survives_unescaped(tmp_path):
    ex = make_example(buggy=("héllo", "日本語"), fixed=("héllo",))
    path = tmp_path / "data.jsonl"
    storage.save_dataset(path, [ex])
    raw = path.read_text(encoding="utf-8")
    assert "héllo" in raw and "日本語" in raw
    assert storage.load_dataset(path) == [ex]


def test_discussions_from_file_and_directory(tmp_path):
    d1 = make_discussion(disc_id="a/b#1", utterances=[make_utterance()])
    d2 = make_discussion(disc_id="c/d#2", project="c/d", number=2)
    single = tmp_path / "all.jsonl"
    storage.save_discussions(single, {d1.id: d1, d2.id: d2})
    assert storage.load_discussions(single) == {d1.id: d1, d2.id: d2}

    split_dir = tmp_path / "by_project"
    split_dir.mkdir()
    storage.save_discussions(split_dir / "a__b.jsonl", [d1])
    storage.save_discussions(split_dir / "c__d.jsonl", [d2])
    assert storage.load_discussions(split_dir) == {d1.id: d1, d2.id: d2}


def test_discussion_duplicate_id_across_files(tmp_path):
    d = make_discussion()
    split_dir = tmp_path / "dir"
    split_dir.mkdir()
    storage.save_discussions(split_dir / "one.jsonl", [d])
    storage.save_discussions(split_dir / "two.jsonl", [make_discussion(disc_id="x/y#2"), d])
    with pytest.raises(RecordError) as exc:
        storage.load_discussions(split_dir)
    assert str(exc.value) == (
        f"{split_dir / 'two.jsonl'}: line 2: field 'id': duplicate discussion id {d.id!r} (first at record 1)"
    )


def _bad_discussion_inputs(tmp_path):
    """(input path, expected message) for each fault the discussion stream must report."""
    d1, d2 = make_discussion(disc_id="a/b#1"), make_discussion(disc_id="a/b#2", number=2)
    one = tmp_path / "one.jsonl"
    storage.save_discussions(one, [d1, d2, d1])
    split_dir = tmp_path / "dir"
    split_dir.mkdir()
    storage.save_discussions(split_dir / "a.jsonl", [d1])
    storage.save_discussions(split_dir / "b.jsonl", [d2, d1])
    bad = tmp_path / "bad.jsonl"
    row = make_discussion(disc_id="a/b#3", number=3).to_dict()
    row["issue_number"] = 0
    storage.write_jsonl(bad, [d1.to_dict(), row])
    return [
        (one, f"{one}: line 3: field 'id': duplicate discussion id 'a/b#1' (first at record 1)"),
        (split_dir, f"{split_dir / 'b.jsonl'}: line 2: field 'id': duplicate discussion id 'a/b#1' (first at record 1)"),
        (bad, f"{bad}: line 2: field 'issue_number': issue_number must be >= 1, got 0"),
    ]


def test_iter_and_load_discussions_report_a_fault_alike(tmp_path):
    for path, message in _bad_discussion_inputs(tmp_path):
        stream = storage.iter_discussions(path)
        assert next(stream).id == "a/b#1"  # yielded before the fault is read
        with pytest.raises(RecordError) as streamed:
            list(stream)
        with pytest.raises(RecordError) as loaded:
            storage.load_discussions(path)
        assert str(streamed.value) == str(loaded.value) == message


def test_link_with_a_bad_discussion_exits_2_and_writes_nothing(tmp_path, capsys):
    from discforge.cli import main

    storage.save_dataset(tmp_path / "ex.jsonl", [make_example()])
    storage.save_links(tmp_path / "links.jsonl", [])
    for path, message in _bad_discussion_inputs(tmp_path):
        out, dropped = tmp_path / "linked.jsonl", tmp_path / "dropped.jsonl"
        argv = ["link", "--examples", str(tmp_path / "ex.jsonl"), "--links", str(tmp_path / "links.jsonl"),
                "--discussions", str(path), "--out", str(out), "--dropped", str(dropped)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not dropped.exists()
        assert not list(tmp_path.glob("*.tmp"))


def test_candidates_from_a_directory_reject_a_duplicate_across_files(tmp_path):
    storage.save_candidates(tmp_path / "a.jsonl", [Candidate("e1", ("x",), "m1")])
    storage.save_candidates(tmp_path / "b.jsonl", [Candidate("e2", ("y",), "m1")])
    assert set(storage.load_candidates(tmp_path)) == {"e1", "e2"}
    storage.save_candidates(tmp_path / "c.jsonl", [Candidate("e3", ("z",), "m2"), Candidate("e1", ("w",), "m2")])
    with pytest.raises(RecordError) as exc:
        storage.load_candidates(tmp_path)
    assert str(exc.value) == (
        f"{tmp_path / 'c.jsonl'}: line 2: field 'example_id': duplicate candidate for example 'e1' (first at record 1)"
    )


def test_empty_discussion_directory_errors(tmp_path):
    with pytest.raises(RecordError) as exc:
        storage.load_discussions(tmp_path)
    assert str(exc.value) == f"{tmp_path}: no .jsonl files"
    assert exc.value.path == tmp_path


def _trace(example_id="e1"):
    return AttentionTrace(
        example_id=example_id,
        num_input_tokens=4,
        segments=(Segment(0, "title", "a#1", None, 2, 4),),
        weights=((0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4)),
    )


def test_trace_round_trip(tmp_path):
    t = _trace()
    path = tmp_path / "e1.json"
    storage.save_attention_trace(path, t)
    assert storage.load_attention_trace(path) == t


def test_traces_directory(tmp_path):
    storage.save_attention_trace(tmp_path / "a.json", _trace("e1"))
    storage.save_attention_trace(tmp_path / "b.json", _trace("e2"))
    loaded = storage.load_traces(tmp_path)
    # row 0 peaks at token 0, outside every segment; row 1 at token 3, in the title
    assert loaded == {"e1": (_trace().segments[0],), "e2": (_trace().segments[0],)}


def test_traces_duplicate_example(tmp_path):
    storage.save_attention_trace(tmp_path / "a.json", _trace("e1"))
    storage.save_attention_trace(tmp_path / "b.json", _trace("e1"))
    with pytest.raises(RecordError) as exc:
        storage.load_traces(tmp_path)
    assert str(exc.value) == (
        f"{tmp_path / 'b.json'}: field 'example_id': duplicate trace for example 'e1' (first at record 1)"
    )


def test_directory_digest_covers_its_json_and_jsonl_files(tmp_path):
    (tmp_path / "a.jsonl").write_text("{}\n", encoding="utf-8")
    (tmp_path / "b.json").write_text("{}", encoding="utf-8")
    (tmp_path / "c.txt").write_text("not an input", encoding="utf-8")
    listing = [[name, storage.digest(tmp_path / name)] for name in ("a.jsonl", "b.json")]
    assert storage.digest(tmp_path) == hashlib.sha256(json.dumps(listing).encode()).hexdigest()


_CHUNK = 1 << 16  # the size digest reads a file in


def _readme_digest(path):
    """The README's fingerprint, by hashlib: a file's sha256, or for a directory the sha256 of the
    sorted list of [name, sha256] of its *.json and *.jsonl files."""
    if path.is_dir():
        names = sorted(p.name for p in path.iterdir() if p.suffix in (".json", ".jsonl"))
        listing = [[name, hashlib.sha256((path / name).read_bytes()).hexdigest()] for name in names]
        return hashlib.sha256(json.dumps(listing).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _random_digest_inputs(rng, root):
    """Files of random bytes at and around the read-chunk edges and of random sizes, and directories
    of random names that mix input files with others the digest must skip."""
    root.mkdir()
    paths = []
    sizes = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, *(rng.randrange(4 * _CHUNK) for _ in range(20))]
    for i, size in enumerate(sizes):
        paths.append(root / f"f{i}.bin")
        paths[-1].write_bytes(rng.randbytes(size))
    for d in range(12):
        top = root / f"d{d}"
        top.mkdir()
        suffixes = [".json", ".jsonl"] + [rng.choice([".txt", ".JSON", ".json.bak", ".jsonl~", ""]) for _ in range(3)]
        for suffix in suffixes + rng.choices([".json", ".jsonl", ".txt"], k=rng.randrange(4)):
            stem = "".join(rng.choices("ab_-Zé✓0", k=rng.randrange(1, 6)))
            (top / f"{stem}{suffix}").write_bytes(rng.randbytes(rng.choice([0, 1, _CHUNK, rng.randrange(3000)])))
        paths.append(top)
    return paths


def test_digest_equals_hashlib_sha256_on_random_files_and_directories(tmp_path):
    paths = _random_digest_inputs(random.Random(28), tmp_path / "in")
    for path in paths:
        assert storage.digest(path) == _readme_digest(path), path


def test_digest_falls_back_to_hashlib_without_the_builtin_module(tmp_path):
    """With CPython's own SHA-256 module blocked, digest takes hashlib's, and every digest is unchanged."""
    paths = _random_digest_inputs(random.Random(29), tmp_path / "in")
    src = os.path.dirname(os.path.dirname(os.path.abspath(storage.__file__)))
    probe = (
        "import json, sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "from discforge import storage; "
        f"print(json.dumps([[storage.digest(p) for p in {[str(p) for p in paths]!r}], 'hashlib' in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    digests, fell_back = json.loads(out.stdout)
    assert fell_back
    assert digests == [_readme_digest(p) for p in paths]


def test_candidates_round_trip_and_dup(tmp_path):
    cands = [Candidate("e1", ("x", ";"), "m1"), Candidate("e2", ("y",), "m1")]
    path = tmp_path / "c.jsonl"
    storage.save_candidates(path, cands)
    assert storage.load_candidates(path) == {c.example_id: c for c in cands}
    storage.save_candidates(path, [cands[0], cands[0]])
    with pytest.raises(RecordError, match="duplicate candidate"):
        storage.load_candidates(path)


def test_links_round_trip(tmp_path):
    links = [
        CommitLinkEvent("p/q", 1, "abcdef0", "2014-05-10T12:00:00Z", "message_reference"),
        CommitLinkEvent("p/q", 2, "a" * 40, "2014-05-11T12:00:00Z", "timeline_event"),
    ]
    path = tmp_path / "links.jsonl"
    storage.save_links(path, links)
    assert storage.load_links(path) == links


def test_descriptions_round_trip(tmp_path):
    desc = {
        "e1": {"b#2": ("remove", "newlines"), "a#1": ("other",)},
        "e2": {"a#1": ("fix",)},
    }
    path = tmp_path / "d.jsonl"
    storage.write_jsonl(path, (
        {"example_id": ex_id, "discussion_id": disc_id, "description_tokens": list(tokens)}
        for ex_id, entries in desc.items()
        for disc_id, tokens in entries.items()
    ))
    loaded = storage.load_descriptions(path)
    assert loaded == desc
    assert [list(entries) for entries in loaded.values()] == [["b#2", "a#1"], ["a#1"]]  # file order


def test_descriptions_duplicate_pair(tmp_path):
    path = tmp_path / "d.jsonl"
    row = {"example_id": "e1", "discussion_id": "a#1", "description_tokens": ["x"]}
    path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(RecordError, match=r"line 2.*duplicate"):
        storage.load_descriptions(path)


def test_descriptions_missing_field_names_it(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"example_id": "e1", "description_tokens": ["x"]}\n', encoding="utf-8")
    with pytest.raises(RecordError, match="discussion_id"):
        storage.load_descriptions(path)


def test_descriptions_bad_discussion_id_names_it(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"example_id": "e1", "discussion_id": 5, "description_tokens": ["x"]}\n', encoding="utf-8"
    )
    with pytest.raises(RecordError) as exc:
        storage.load_descriptions(path)
    assert (exc.value.line, exc.value.field) == (1, "discussion_id")


def test_descriptions_bad_token_keeps_line_and_field(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"example_id": "e1", "discussion_id": "d1", "description_tokens": ["x", ""]}\n',
        encoding="utf-8",
    )
    with pytest.raises(
        RecordError,
        match=f"^{re.escape(str(path))}: line 1: field 'description_tokens': empty-string token$",
    ) as exc:
        storage.load_descriptions(path)
    assert (exc.value.line, exc.value.field) == (1, "description_tokens")


def test_descriptions_null_field_reads_missing(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"example_id": null, "discussion_id": "d1", "description_tokens": ["x"]}\n', encoding="utf-8")
    with pytest.raises(RecordError) as exc:
        storage.load_descriptions(path)
    assert str(exc.value) == f"{path}: line 1: field 'example_id': missing"


def _desc(example_id, discussion_id):
    return {"example_id": example_id, "discussion_id": discussion_id, "description_tokens": ["x"]}


def _duplicate_input(kind, root):
    """(loader, input path, file holding the duplicate, its line, field, message) for one keyed kind."""
    root.mkdir()
    if kind == "dataset":
        path = root / "data.jsonl"
        storage.save_dataset(path, [make_example(ex_id="e1"), make_example(ex_id="e2"), make_example(ex_id="e2")])
        return storage.load_dataset, path, path, 3, "id", "duplicate example id 'e2' (first at record 2)"
    if kind == "discussions":
        d1, d2 = make_discussion(disc_id="a/b#1"), make_discussion(disc_id="a/b#2", number=2)
        storage.save_discussions(root / "a.jsonl", [d1])
        storage.save_discussions(root / "b.jsonl", [d2, d1])
        return (storage.load_discussions, root, root / "b.jsonl", 2, "id",
                "duplicate discussion id 'a/b#1' (first at record 1)")
    if kind == "candidates":
        storage.save_candidates(root / "a.jsonl", [Candidate("e1", ("x",), "m1"), Candidate("e2", ("y",), "m1")])
        storage.save_candidates(root / "b.jsonl", [Candidate("e3", ("z",), "m2"), Candidate("e2", ("w",), "m2")])
        return (storage.load_candidates, root, root / "b.jsonl", 2, "example_id",
                "duplicate candidate for example 'e2' (first at record 2)")
    if kind == "traces":
        for name, example_id in (("a", "e1"), ("b", "e2"), ("c", "e1")):
            storage.save_attention_trace(root / f"{name}.json", _trace(example_id))
        return (storage.load_traces, root, root / "c.json", None, "example_id",
                "duplicate trace for example 'e1' (first at record 1)")
    path = root / "desc.jsonl"
    storage.write_jsonl(path, [_desc("e1", "a#1"), _desc("e1", "b#2"), _desc("e2", "a#1"), _desc("e1", "b#2")])
    return (storage.load_descriptions, path, path, 4, "discussion_id",
            "duplicate description for ('e1', 'b#2') (first at record 2)")


@pytest.mark.parametrize("kind", ["dataset", "discussions", "candidates", "traces", "descriptions"])
def test_every_keyed_input_reports_a_duplicate_one_way(tmp_path, kind):
    load, path, bad, line, field, message = _duplicate_input(kind, tmp_path / kind)
    with pytest.raises(RecordError) as exc:
        load(path)
    where = f"{bad}: " + (f"line {line}: " if line else "")
    assert str(exc.value) == f"{where}field {field!r}: {message}"
    assert (os.fspath(exc.value.path), exc.value.line, exc.value.field) == (str(bad), line, field)


@pytest.mark.parametrize(
    "text, field, message",
    [
        ("{oops", None, "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ('{"example_id": "e1"}', "num_input_tokens", "missing"),
    ],
)
def test_a_bad_trace_file_names_itself(tmp_path, text, field, message):
    path = tmp_path / "t.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RecordError) as exc:
        storage.load_traces(tmp_path)
    where = f"field {field!r}: " if field else ""
    assert str(exc.value) == f"{path}: {where}{message}"
    assert (os.fspath(exc.value.path), exc.value.line, exc.value.field) == (str(path), None, field)


# Weight values that array('d') packs (json's ints, floats, NaN/Infinity and booleans), then values
# that keep a row a list: an int too large for a double, null, a string, a list and an object.
_NUMBERS = ["0", "1", "-0.0", "0.25", "1e-3", "2E+1", "NaN", "Infinity", "-Infinity", "true", "false"]
_NOT_NUMBERS = ["1" + "0" * 400, "null", '"0.5"', "[0.5]", '{"w": 1}']


def _sp(rng):
    return rng.choice(["", "", " ", "\n", "\t", " \r\n  "])


def _members(rng, pairs):
    """A JSON object's text from (key text, value text) pairs, with random whitespace."""
    return "{" + ",".join(f"{_sp(rng)}{k}{_sp(rng)}:{_sp(rng)}{v}{_sp(rng)}" for k, v in pairs) + _sp(rng) + "}"


def _random_trace_document(rng):
    """Trace-like JSON text: shuffled and repeated keys, odd rows and weights, a nested meta."""
    rows = []
    for _ in range(rng.randrange(4)):
        if rng.random() < 0.7:
            values = [rng.choice(_NUMBERS if rng.random() < 0.9 else _NOT_NUMBERS) for _ in range(rng.randrange(5))]
            rows.append("[" + ",".join(_sp(rng) + v + _sp(rng) for v in values) + "]")
        else:
            rows.append(rng.choice(['"0.5"', "1", "null", '{"a": [1]}']))
    weights = "[" + ",".join(_sp(rng) + r + _sp(rng) for r in rows) + "]"
    weights = weights if rng.random() < 0.8 else rng.choice(["[]", "5", '{"r": [1]}'])
    meta = _members(rng, [('"weights"', "[[1, 2]]"), ('"aggregation"', '"mean over heads"'),
                          ('"nested"', '{"a": [0.5, {"b": null}]}')])
    pairs = [('"example_id"', '"e1"'), ('"num_input_tokens"', "3"), ('"segments"', "[]"),
             (rng.choice(['"weights"', '"weigh\\u0074s"']), weights), ('"meta"', meta)]
    if rng.random() < 0.3:  # a repeated key: json keeps the last value at the first key's place
        pairs.append((rng.choice(pairs)[0], rng.choice([weights, "[[0.5, 0.5]]", "7", '"x"'])))
    rng.shuffle(pairs)
    if rng.random() < 0.05:
        return _sp(rng) + "[" + weights + "]" + _sp(rng)
    return _sp(rng) + _members(rng, pairs) + _sp(rng)


def _mutants(rng, text):
    """Single-character deletions, insertions and substitutions, truncations, and one character past the end."""
    chars = '{}[],:" 0123456789.eE+-ntfaNI\\x'
    out = [text + rng.choice(chars)]
    for _ in range(8):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(chars)
        out += [text[:i] + c + text[i:], text[:i] + c + text[i + 1:], text[:i], text[:i] + text[i + 1:]]
    return out


def _canonical(value):
    """A comparable form of a decoded value: array rows as ('array', bytes), floats by repr (so NaN equals NaN)."""
    if isinstance(value, array):
        return ("array", value.tobytes())
    if isinstance(value, dict):
        return ("object", [(k, _canonical(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [_canonical(v) for v in value])
    return (type(value).__name__, repr(value))


def _packed(row):
    """A weights row as the trace reader must give it: array('d') when every value is a number that fits."""
    try:
        return array("d", row) if isinstance(row, list) else row
    except (TypeError, OverflowError):
        return row


def _reference_loads(text):
    """json.loads, then each row of a top-level object's weights list packed as _packed says."""
    value = json.loads(text)
    if isinstance(value, dict) and isinstance(value.get("weights"), list):
        value["weights"] = [_packed(row) for row in value["weights"]]
    return value


def _read(path, load):
    """What _iter_json reads from one trace document with `load`: ("ok", canonical value) or ("error", message)."""
    try:
        (value,) = storage._iter_json(path, lambda obj: obj, load)
    except RecordError as exc:
        return ("error", str(exc))
    return ("ok", _canonical(value))


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 64, None])
def test_trace_reader_matches_json_loads_on_random_documents(tmp_path, monkeypatch, block):
    """The block reader returns json.loads's value with its weight rows packed, or raises json's own error,
    wherever the blocks split the text (None: the default block)."""
    if block is not None:
        monkeypatch.setattr(storage, "_BLOCK", block)
    rng = random.Random(25)
    path = tmp_path / "t.json"
    outcomes = {"ok": 0, "error": 0}
    for _ in range(120):
        text = _random_trace_document(rng)
        for case in [text, *_mutants(rng, text)]:
            path.write_text(case, encoding="utf-8")
            got = _read(path, storage._load_trace)
            assert got == _read(path, lambda f: _reference_loads(f.read())), case
            outcomes[got[0]] += 1
    # both sides were exercised, each by a good share of the cases
    assert min(outcomes.values()) > 1000, outcomes


@pytest.mark.parametrize("block", [5, None])
def test_undecodable_byte_past_the_first_block_is_reported_at_its_file_position(tmp_path, monkeypatch, block):
    """A non-UTF-8 byte that the block reader meets after its first block reads as a decode of the whole file."""
    if block is not None:
        monkeypatch.setattr(storage, "_BLOCK", block)
    text = json.dumps({"example_id": "e1", "num_input_tokens": 2, "segments": [],
                       "weights": [[0.25, 0.75]] * 20000}).encode()
    at = text.index(b"0.75", 200000)
    path = tmp_path / "t.json"
    path.write_bytes(text[:at] + b"\xff" + text[at + 1:])
    message = f"{path}: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
    for load in storage.load_attention_trace, storage.load_traces:
        with pytest.raises(RecordError) as exc:
            load(path)
        assert (str(exc.value), exc.value.line, exc.value.field) == (message, None, None)


@pytest.mark.parametrize("text, message", [
    ('{"example_id": "e1", "num_input_tokens": 2, "segments": [], "weights": [[0.5, 0.5]]}', None),
    ('{"example_id": oops}', "invalid JSON: Expecting value: line 1 column 16 (char 15)"),
])
def test_a_trace_on_a_pipe_is_read_whole(text, message):
    """A pipe cannot be read a second time, so a trace on one is read whole, with json's own errors."""
    r, w = os.pipe()
    try:
        os.write(w, text.encode())
        os.close(w)
        path = f"/dev/fd/{r}"
        if message is None:
            assert storage.load_attention_trace(path).weights == (array("d", [0.5, 0.5]),)
        else:
            with pytest.raises(RecordError) as exc:
                storage.load_attention_trace(path)
            assert str(exc.value) == f"{path}: {message}"
    finally:
        os.close(r)


def _big_trace_text():
    """A valid 120 x 800 trace of random weights, about 2.2 MB of JSON."""
    rng = random.Random(30)
    n = 800
    rows = [[rng.random() for _ in range(n)] for _ in range(120)]
    return json.dumps({"example_id": "e1", "num_input_tokens": n, "segments": [],
                       "weights": [[w / sum(row) for w in row] for row in rows]})


def test_trace_loaders_peak_below_the_file_size(tmp_path):
    """A trace's text is read a block at a time: loading a 2 MB trace peaks below the file's size,
    where reading the whole text at once peaked at twice it."""
    path = tmp_path / "e1.json"
    path.write_text(_big_trace_text(), encoding="utf-8")
    size = path.stat().st_size
    assert size > 2_000_000
    for load, arg in (storage.load_traces, tmp_path), (storage.load_attention_trace, path):
        tracemalloc.start()
        try:
            load(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size, (load.__name__, peak, size)


@pytest.mark.parametrize("bad", ["first", "last"])
def test_a_rejected_trace_is_reread_without_the_text_and_rows_walked_so_far(tmp_path, bad):
    """A trace the block reader does not accept is read again whole by json.loads, after the
    reader drops its text and packed rows: a 2 MB trace with a bad first or last character
    peaks under 2.6 times its size (2.0 and 2.4), where keeping them peaked at 3.0 and 2.8."""
    text = _big_trace_text()
    text = "x" + text[1:] if bad == "first" else text[:-1] + "x"
    path = tmp_path / "e1.json"
    path.write_text(text, encoding="utf-8")
    size = path.stat().st_size
    assert size > 2_000_000
    tracemalloc.start()
    try:
        with pytest.raises(RecordError, match="invalid JSON: Expecting"):
            storage.load_attention_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * size, (peak, size)


def test_load_traces_memory_does_not_grow_with_the_trace_count(tmp_path):
    """load_traces holds one trace's weights at a time: 20 traces peak no higher than 1.5x 2 traces."""
    n = 200
    doc = {"example_id": None, "num_input_tokens": n, "segments": [], "weights": [[1 / n] * n] * 20}

    def peak(count):
        root = tmp_path / str(count)
        root.mkdir()
        for i in range(count):
            doc["example_id"] = f"e{i}"
            (root / f"e{i}.json").write_text(json.dumps(doc), encoding="utf-8")
        tracemalloc.start()
        try:
            assert len(storage.load_traces(root)) == count
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    two, twenty = peak(2), peak(20)
    assert twenty <= 1.5 * two, (two, twenty)


class _CountingTrace(io.StringIO):
    """A trace file that counts the characters read before its first seek, which starts the json.loads fallback."""

    def __init__(self, text):
        super().__init__(text)
        self.read_chars = 0
        self.before_fallback = None

    def read(self, size=-1):
        chunk = super().read(size)
        self.read_chars += len(chunk)
        return chunk

    def seek(self, *args):
        if self.before_fallback is None:
            self.before_fallback = self.read_chars
        return super().seek(*args)


@pytest.mark.parametrize("bad", ["first", "row separator"])
def test_a_mismatch_in_the_text_read_goes_straight_to_the_fallback(bad):
    """A character already read that the walk cannot accept is final: the reader falls back to json.loads
    after at most one block more, not after reading to the end of the file; the error is json's own."""
    text = _big_trace_text()
    at = 0 if bad == "first" else text.index("], [", len(text) // 2) + 1
    text = text[:at] + "x" + text[at + 1:]
    f = _CountingTrace(text)
    with pytest.raises(json.JSONDecodeError) as exc:
        storage._load_trace(f)
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    assert str(exc.value) == str(expected.value)
    assert f.before_fallback <= at + 2 * storage._BLOCK < len(text) // 2 + 3 * storage._BLOCK, (at, f.before_fallback)


@pytest.mark.parametrize("block", range(1, 13))
def test_a_number_cut_by_a_block_is_read_on(monkeypatch, block):
    """A top-level number that a block's end cuts after its '.' or its exponent's 'e' is not a mismatch:
    the walk reads on and accepts the trace, packing its rows, at every block size."""
    monkeypatch.setattr(storage, "_BLOCK", block)
    text = '{"t": 0.125, "u": 25e-1, "v": 1.5E+2, "weights": [[0.25, 0.75], [1, 0]], "w": -2.0e3}'
    f = _CountingTrace(text)
    value = storage._load_trace(f)
    assert f.before_fallback is None  # never sought back: the walk accepted it
    assert _canonical(value) == _canonical(_reference_loads(text))
    assert [type(row) for row in value["weights"]] == [array, array]


def _fresh_words(rng, n):
    """n distinct multi-character words built at run time, so none is interned before a loader interns it."""
    return ["".join(rng.choice("bcdfghjklmnpqrstvwxz") for _ in range(9)) + str(i) for i in range(n)]


def test_holding_loaders_intern_their_strings_and_streams_keep_the_decoded_ones(tmp_path):
    """load_dataset, load_discussions, load_candidates and load_descriptions intern every string of a
    ``tuple[str, ...]`` field, nested utterances' included; iter_dataset and iter_discussions yield equal
    records that keep their decoded strings. On a line whose token list holds a number, null or an empty
    string, an empty token list, an unknown key holding strings, a string field holding strings or a
    leading BOM, each held loader gives what from_dict(json.loads(line)) and the streams give: the same
    records, or the same RecordError (text, path, line, field)."""
    words = _fresh_words(random.Random(34), 12)
    examples = [
        make_example(ex_id=f"e{i}", buggy=(words[0], words[i + 1]), fixed=(words[0], words[i + 2]),
                     oracle=(words[3], words[4]), discussion_ids=(words[5],))
        for i in range(3)
    ]
    discussions = [
        make_discussion(disc_id=words[5], utterances=[make_utterance(0, tokens=(words[6], words[7]))]),
        make_discussion(disc_id="a/b#2", number=2, utterances=[make_utterance(0, tokens=(words[7], words[8]))]),
    ]
    candidates = [Candidate(f"e{i}", (words[0], words[9]), "m") for i in range(3)]
    storage.save_dataset(tmp_path / "data.jsonl", examples)
    storage.save_discussions(tmp_path / "disc.jsonl", discussions)
    storage.save_candidates(tmp_path / "cands.jsonl", candidates)
    storage.write_jsonl(tmp_path / "desc.jsonl", (
        {"example_id": f"e{i}", "discussion_id": words[5], "description_tokens": [words[10], words[11]]}
        for i in range(3)
    ))

    streamed = list(storage.iter_dataset(tmp_path / "data.jsonl"))
    streamed_discussions = list(storage.iter_discussions(tmp_path / "disc.jsonl"))
    loaded = storage.load_dataset(tmp_path / "data.jsonl")
    loaded_discussions = storage.load_discussions(tmp_path / "disc.jsonl")
    assert streamed == loaded == examples
    assert streamed_discussions == list(loaded_discussions.values()) == discussions

    def held(ex):
        return ex.buggy_tokens + ex.fixed_tokens + ex.method_tokens + ex.oracle_msg_tokens + ex.discussion_ids

    def spoken(d):
        return tuple(tok for u in d.utterances for tok in u.body_tokens)

    tokens = [tok for ex in loaded for tok in held(ex)]
    tokens += [tok for d in loaded_discussions.values() for tok in spoken(d)]
    tokens += [tok for c in storage.load_candidates(tmp_path / "cands.jsonl").values() for tok in c.candidate_tokens]
    tokens += [tok for per_example in storage.load_descriptions(tmp_path / "desc.jsonl").values()
               for toks in per_example.values() for tok in toks]
    assert len(tokens) == 40 and all(map(interned, tokens))
    assert not any(interned(tok) for ex in streamed for tok in held(ex) if len(tok) > 1)
    assert not any(interned(tok) for d in streamed_discussions for tok in spoken(d))

    def outcome(run, path):
        try:
            return run(path)
        except RecordError as exc:
            return str(exc), exc.path, exc.line, exc.field

    def from_lines(cls):
        """A loader building each line's record with cls.from_dict(json.loads(line)), reporting as loaders do."""
        def load(path):
            records = []
            for line, text in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
                try:
                    records.append(cls.from_dict(json.loads(text)))
                except RecordError as exc:
                    raise RecordError(exc.message, path=path, line=line, field=exc.field) from None
                except json.JSONDecodeError as exc:
                    raise RecordError(f"invalid JSON: {exc}", path=path, line=line) from None
            return records
        return load

    def edited(row, at, key, field):
        """`row` with its token list at(row)[key] holding a number, null, an empty string, a list or nothing;
        with an unknown key holding strings; with string field `field` holding strings; after a BOM."""
        for value in ([words[0], 1], [words[0], None], [words[0], ""], [[words[0]]], []):
            copy = json.loads(json.dumps(row))
            at(copy)[key] = value
            yield json.dumps(copy)
        yield json.dumps({**row, "notes": [words[0], words[1]]})
        yield json.dumps({**row, field: [words[2]]})
        yield "\ufeff" + json.dumps(row)

    def values(load):
        return lambda path: list(load(path).values())

    def top(row):
        return row

    def first_utterance(row):
        return row["utterances"][0]

    def held_descriptions(path):
        rows = storage.load_descriptions(path).items()
        return [Description(e, d, toks) for e, per in rows for d, toks in per.items()]

    descriptions = [Description(f"e{i}", words[5], (words[10], words[11])) for i in range(2)]
    cases = [  # held loader as a list, reference loader, (edited record, other record), token list, string field
        (storage.load_dataset, from_lines(BugFixExample), examples[:2], top, "oracle_msg_tokens", "project"),
        (storage.load_dataset, storage.iter_dataset, examples[:2], top, "buggy_tokens", "commit_timestamp"),
        (values(storage.load_discussions), from_lines(Discussion), discussions, first_utterance, "body_tokens",
         "title"),
        (values(storage.load_discussions), storage.iter_discussions, discussions, first_utterance, "body_tokens",
         "created_at"),
        (values(storage.load_candidates), from_lines(Candidate), candidates[:2], top, "candidate_tokens", "source"),
        (held_descriptions, from_lines(Description), descriptions, top, "description_tokens", "example_id"),
    ]
    failed = []
    for load, reference, (first, other), at, key, field in cases:
        for n, line in enumerate(edited(first.to_dict(), at, key, field)):
            path = tmp_path / f"edge-{key}-{field}-{n}.jsonl"
            path.write_text(json.dumps(other.to_dict()) + "\n" + line + "\n", encoding="utf-8")
            want = outcome(lambda p: list(reference(p)), path)
            assert outcome(load, path) == want, line
            failed.append(isinstance(want, tuple))
    assert 0 < sum(failed) < len(failed)
