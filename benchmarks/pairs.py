"""Alternating parent/change pairs of perfbench runs, written as a BENCH_*.json.

    python3 benchmarks/pairs.py PARENT CHANGE --workload render --seed 31 --pairs 10 > BENCH_N.json

PARENT and CHANGE are git revisions (or trees) of this repository. Each is
exported with ``git archive`` into ``parent/`` and ``change/`` of one new
temporary directory, so both trees sit at paths of the same length: the
work path's length moves ``peak_rss_mb``. Pair k runs ``perfbench/run.py
--workload W --seed N --seconds S --trace 0`` once in each tree, the parent
first in odd pairs and the change first in even ones. S is ``run_seconds``
of the change's BENCHMARK.json, the run length the benchmark fixes.
``--workload`` may be given more than once; the workloads' pairs run one
workload after another.

The JSON on stdout has BENCH_25.json's layout, with the two revisions'
object names and no ``claim``, which the author states. For each workload
and each end-to-end metric of the change's BENCHMARK.json, each value is one run's
figure (its median over its iterations), and the entry gives:

- each side's median and quartiles (inclusive method) over its runs;
- ``change_wins``: the pairs where the change reads better, ties counting
  for neither side, and ``pairs`` as [parent, change];
- ``sign_test_p``: the one-sided exact sign test, the chance of at least
  ``change_wins`` wins among the untied pairs if neither side were better;
- ``gain``: the claim rule, the change winning at least nine tenths of all
  pairs with medians further apart than the parent's quartiles;
- ``within_bound``: the change's median is no worse than the parent's by
  more than the metric's bound in BENCHMARK.json.

Each workload also gives, per side, the phases at which its runs reached
their peak RSS (``peak_phase``) and the median VmHWM in MB after each
phase (``phase_rss_mb``, ``[phase, MB]`` in run order), so a
``peak_rss_mb`` figure shows which phase moved. perfbench/run.py reports
both for a run's first iteration only, so they describe first iterations,
and ``phase_rss_mb`` is a median over the runs' first iterations.

Progress goes to stderr. Exit 1 when a run fails or counts a failed
operation, or when the two sides' output sha256 digests differ, unless
``--bytes-change`` says that they are meant to; exit 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def sign_test_p(wins, untied):
    """P(at least `wins` successes in `untied` fair coin flips): the one-sided exact sign test."""
    return sum(math.comb(untied, k) for k in range(wins, untied + 1)) / 2**untied


def summarize(pairs, unit, better, bound):
    """One metric's entry from its [parent, change] values, one pair each."""
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = _quartiles(parent)
    return {
        "unit": unit,
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "parent_quartiles": [round(q, 4) for q in p_q],
        "change_quartiles": [round(q, 4) for q in _quartiles(change)],
        "change_wins": wins,
        "sign_test_p": round(sign_test_p(wins, wins + losses), 6),
        "gain": wins >= 0.9 * len(pairs) and sign * (p_med - c_med) > p_q[1] - p_q[0],
        "within_bound": sign * (c_med - p_med) <= bound * p_med,
        "pairs": [[round(p, 4), round(c, 4)] for p, c in pairs],
    }


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize_workload(workload, seed, runs, end_to_end):
    """A workload's entry from its runs: runs[side] lists each pair's run report, in pair order."""
    first = runs["parent"][0]["digests"]
    return {
        "workload": workload,
        "seed": seed,
        "pairs": len(runs["parent"]),
        "metrics": {
            m["name"]: summarize(
                [[p["metrics"][m["name"]], c["metrics"][m["name"]]] for p, c in zip(runs["parent"], runs["change"])],
                m["unit"], m["better"], m["bound"],
            )
            for m in end_to_end
        },
        "digests_equal": all(r["digests"] == first for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "peak_phase": {side: sorted({r["peak_phase"] for r in runs[side]}) for side in SIDES},
        "phase_rss_mb": {side: phase_medians([r["phase_rss_mb"] for r in runs[side]]) for side in SIDES},
    }


def phase_medians(phase_lists):
    """[phase, median MB] for each phase, in run order, from each run's [[phase, MB], ...] (run.py's
    ``phase_rss_mb``); the runs of one workload have the same phases."""
    return [[name, round(statistics.median(run[k][1] for run in phase_lists), 3)]
            for k, (name, _) in enumerate(phase_lists[0])]


def export(rev, dest):
    """Write the tree of git revision `rev` to the new directory `dest`."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        raise RuntimeError(f"git archive {rev}: {archive.stderr.decode(errors='replace').strip()}")
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def resolve(rev):
    """The abbreviated object name of git revision `rev`, so the output names what was measured."""
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_once(tree, workload, seed, seconds):
    """One untraced perfbench run in `tree`: its end-to-end metrics, failed operations, output digests,
    peak phase and VmHWM after each phase."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report, summary = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
        "failed": summary["failed"],
        "digests": report["digests"],
        "peak_phase": report["peak_phase"],
        "phase_rss_mb": report["phase_rss_mb"],
        "machine_key": report["machine"]["key"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision or tree of the parent")
    parser.add_argument("change", help="git revision or tree of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--bytes-change", action="store_true", help="the change is meant to change output bytes")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base = tempfile.mkdtemp(prefix="pairs-")
    try:
        trees = {side: os.path.join(base, side) for side in SIDES}
        revs = {side: resolve(rev) for side, rev in zip(SIDES, (args.parent, args.change))}
        for side in SIDES:
            export(revs[side], trees[side])
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as f:
            benchmark = json.load(f)
        seconds, end_to_end = benchmark["run_seconds"], benchmark["end_to_end"]
        workloads, machine_keys = [], set()
        for workload in args.workload:
            runs = {side: [] for side in SIDES}
            for k in range(1, args.pairs + 1):
                for side in SIDES if k % 2 else SIDES[::-1]:
                    run = run_once(trees[side], workload, args.seed, seconds)
                    runs[side].append(run)
                    machine_keys.add(run["machine_key"])
                    print(f"{workload} pair {k} {side}: {run['metrics']} failed {run['failed']}", file=sys.stderr)
            workloads.append(summarize_workload(workload, args.seed, runs, end_to_end))
    except (subprocess.CalledProcessError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(json.dumps({
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "protocol": (
            f"benchmarks/pairs.py: perfbench/run.py --seconds {seconds:g} --trace 0 at seed {args.seed}; "
            "alternating parent/change pairs, odd pairs run the parent first; both trees exported by git archive "
            "to paths of equal length. Each value is one run's median over its iterations; medians and quartiles "
            "(inclusive method) are over the runs of one side; change_wins counts the pairs where the change "
            "reads better; sign_test_p is the one-sided exact sign test on change_wins over the untied pairs; "
            "gain is change_wins >= 9/10 of the pairs with medians further apart than the parent's quartiles; "
            "within_bound compares the medians with the metric's BENCHMARK.json bound. "
            "peak_phase and phase_rss_mb describe each run's first iteration only, as perfbench/run.py reports them. "
            "digests_equal compares every output sha256 of every run of both sides."
        ),
        "machine_key": " / ".join(sorted(machine_keys)),
        "workloads": workloads,
    }, indent=1))
    problems = [f"{w['workload']}: outputs differ between the two sides" for w in workloads
                if not w["digests_equal"] and not args.bytes_change]
    problems += [f"{w['workload']}: {n} failed operations on the {side} side" for w in workloads
                 for side, n in w["failed"].items() if n]
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
