"""The byte contract as a test: same inputs, same seeds, same bytes out.

Each case runs the pipeline in a fresh working directory and compares the
sha256 of every output file with ``tests/golden/digests.json``:

- ``toml4j``: every command on the toml4j fixture, ``context`` in all
  eight representations at limits 1024 and 40;
- ``mine-link-<seed>``: perfbench's mine-link corpus, mined through
  perfbench's in-process fake tracker and linked through the CLI;
- ``score-<seed>``: perfbench's score corpus, run through the CLI stage
  by stage as ``perfbench/run.py`` plans them.

Run-logs hold wall-clock times and are not written. ``compare``'s
``p_value`` follows ``random.Random``'s stream, which Python keeps the same
across versions for a seed, so the digests hold on any Python and need no
third-party package: the toml4j case also runs with numpy and requests blocked.

A change meant to alter bytes regenerates the digests and says which files
changed and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from discforge import ingest
from discforge.cli import main
from discforge.records import CONTEXT_KINDS

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "digests.json")
TOML4J = os.path.join(HERE, "fixtures", "toml4j")
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
PERFBENCH_SEEDS = (7, 4242)


def _cli(*argv):
    code = main(list(argv))
    if code != 0:
        raise AssertionError(f"{' '.join(argv)} exited {code}")


def run_toml4j():
    """Every command on the toml4j fixture, under ``out/`` of the cwd."""
    shutil.copytree(TOML4J, "in")
    os.makedirs("in/cands")
    for name in ("buggy", "fixed"):
        shutil.copy(f"in/candidate_{name}.jsonl", f"in/cands/{name}.jsonl")
    with open("in/projects.txt", "w", encoding="utf-8") as f:
        f.write("mwanji/toml4j\n")
    os.makedirs("out")
    _cli("mine", "--projects", "in/projects.txt", "--since", "2014-01-01T00:00:00Z",
         "--until", "2015-01-01T00:00:00Z", "--archive", "in/archive",
         "--commits", "in/commits.json", "--out", "out/mined")
    _cli("link", "--examples", "in/examples.jsonl", "--links", "out/mined/links.jsonl",
         "--discussions", "out/mined/discussions", "--out", "out/linked.jsonl",
         "--dropped", "out/dropped.jsonl")
    common = ["--dataset", "out/linked.jsonl", "--discussions", "out/mined/discussions"]
    for limit in (1024, 40):
        for kind in CONTEXT_KINDS:
            _cli("context", *common, "--repr", kind, "--desc", "in/descriptions.jsonl",
                 "--traces", "in/trace.json", "--limit", str(limit),
                 "--out", f"out/ctx-{kind}-{limit}.jsonl",
                 "--skipped", f"out/skip-{kind}-{limit}.jsonl")
        _cli("segments", *common, "--limit", str(limit), "--out", f"out/segments-{limit}.jsonl")
    _cli("stats", *common, "--desc", "in/descriptions.jsonl", "--out", "out/stats.json")
    for name in ("buggy", "fixed"):
        _cli("eval", "--refs", "out/linked.jsonl", "--candidates", f"in/cands/{name}.jsonl",
             "--repr", name, "--out", f"out/eval-{name}.json")
    _cli("eval", "--refs", "out/linked.jsonl", "--candidates", "in/cands/fixed.jsonl",
         "--raw-strings", "--out", "out/eval-fixed-raw.json")
    _cli("compare", "--refs", "out/linked.jsonl", "--a", "in/cands/buggy.jsonl",
         "--b", "in/cands/fixed.jsonl", "--samples", "1000", "--size", "100", "--seed", "3",
         "--out", "out/compare.json")
    _cli("oracle-eval", "--refs", "out/linked.jsonl", "--candidates", "in/cands",
         "--out", "out/oracle.json")
    for mode in ("code", "subtoken"):
        _cli("tokenize", "--mode", mode, "--in", "in/archive/mwanji__toml4j/18.json",
             "--out", f"out/tokens-{mode}.jsonl")


def _perfbench():
    """perfbench's child, corpus and run modules, imported without leaving perfbench/ on sys.path."""
    sys.path.insert(0, PERFBENCH)
    try:
        import child
        import corpus
        import run
    finally:
        while PERFBENCH in sys.path:  # run.py puts it there too
            sys.path.remove(PERFBENCH)
    return child, corpus, run


def run_mine_link(seed):
    """perfbench's mine-link workload at `seed`, under ``out/`` of the cwd."""
    child, corpus, _ = _perfbench()
    inp, _ = corpus.make_mine_link("in", seed)
    with open(f"in/{inp['projects']}", encoding="utf-8") as f:
        projects = [ln.strip() for ln in f if ln.strip()]
    with open(f"in/{inp['commits']}", encoding="utf-8") as f:
        commits = json.load(f)
    os.makedirs("out/mined")
    ingest.mine_projects(
        projects,
        inp["since"],
        inp["until"],
        "out/mined",
        commits_by_project=commits,
        transport=child.FakeTracker(f"in/{inp['server']}"),
        sleep=lambda seconds: None,
    )
    _cli("link", "--examples", f"in/{inp['examples']}", "--links", "out/mined/links.jsonl",
         "--discussions", "out/mined/discussions", "--out", "out/linked.jsonl",
         "--dropped", "out/dropped.jsonl")


def run_score(seed):
    """perfbench's score workload at `seed`: each stage of run.plan_for, under ``out/`` of the cwd."""
    _, corpus, run = _perfbench()
    inp, _ = corpus.make_score("in", seed)
    os.makedirs("out")
    _, stages, _ = run.plan_for("score", inp)
    for stage in stages:
        _cli(*stage["argv"])


CASES = {"toml4j": run_toml4j}
CASES.update({f"mine-link-{seed}": lambda seed=seed: run_mine_link(seed) for seed in PERFBENCH_SEEDS})
CASES.update({f"score-{seed}": lambda seed=seed: run_score(seed) for seed in PERFBENCH_SEEDS})


def digest_tree(top):
    """sha256 of every file under `top`, keyed by its path relative to `top`."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, top).replace(os.sep, "/")] = hashlib.sha256(f.read()).hexdigest()
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    CASES[case]()
    _assert_golden(case, digest_tree("out"))


def test_every_command_runs_without_numpy(tmp_path):
    """The toml4j case, compare and attended_segments included, with numpy and requests blocked;
    no offline command loads the network stack."""
    src = os.path.join(os.path.dirname(HERE), "src")
    probe = (
        "import json, pathlib, sys; sys.modules['numpy'] = sys.modules['requests'] = None; import test_golden; "
        "test_golden.run_toml4j(); pathlib.Path('digests').write_text(json.dumps(test_golden.digest_tree('out'))); "
        "loaded = {'urllib.request', 'http.client', 'ssl'} & set(sys.modules); assert not loaded, loaded"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, HERE])},
    )
    assert out.returncode == 0, out.stderr
    _assert_golden("toml4j", json.loads((tmp_path / "digests").read_text(encoding="utf-8")))


def _assert_golden(case, got):
    with open(GOLDEN, encoding="utf-8") as f:
        want = json.load(f)["cases"][case]
    changed = sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
    assert not changed, f"{case}: bytes differ from tests/golden/digests.json in out/{', out/'.join(changed)}"


def main_update():
    """Rewrite tests/golden/digests.json from this checkout's outputs."""
    cases = {}
    cwd = os.getcwd()
    for case, run in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                run()
                cases[case] = digest_tree("out")
            finally:
                os.chdir(cwd)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump({"cases": cases}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main_update()
