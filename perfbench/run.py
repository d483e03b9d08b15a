"""Pipeline benchmark for disc-forge.

    python3 perfbench/run.py --workload render --seed 1 --seconds 15 --trace 0

Run from the repository root. The run generates a seeded synthetic corpus
(perfbench/corpus.py) under ``.perfbench/``, then starts one fresh
``perfbench/child.py`` process per iteration, one at a time, until
``--seconds`` have passed (at least three iterations). Each iteration
runs the workload's CLI stages in-process against ``src/`` and the
outputs are checked against the planted truth. Every command and every
output check is one attempted operation; a non-zero exit or a failed
check is a failed one.

Workloads (BENCHMARK.json gives the reason for each):

- ``render``: ``context`` for the seven representations that need no
  traces, then ``segments``, then ``stats --desc``.
- ``mine-link``: ``ingest.mine_projects`` against an in-process fake
  tracker, then ``link``.
- ``score``: ``eval``, ``eval --raw-strings``, ``compare --jobs 1`` and
  ``--jobs 2``, ``oracle-eval``, and ``context --repr attended_segments``.

``--trace 0`` prints the end-to-end metrics. Every metric is the median
over the run's iterations (the lower middle sample when their number is
even, so each value is one that was measured).
``--trace 1`` alternates untraced and traced iterations: the traced ones
run under perfbench/tracer.py and give per-layer self times and counts,
the untraced ones give the per-stage seconds and the tracing overhead.
It also times the tokenizer kernels on benchmarks/bench_textproc.py's
text generator.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full report (machine metadata, every
sample, output sha256 digests, counts, failed checks) is the line before
it and is also written to ``.perfbench/results/``; compare two reports
with perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402

MIN_ITERATIONS = 3
RUN_BUDGET_S = 120  # stop starting iterations after this, to end within 180 s
CHILD_TIMEOUT_S = 170
KERNEL_CHARS = 300_000
KERNEL_REPEATS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

STAGES = ("mine", "link", "context", "segments", "stats", "eval", "compare", "oracle-eval")
CLI_COMMANDS = ("link", "context", "segments", "stats", "eval", "compare", "oracle-eval")

PER_LAYER = {
    **{f"stage.{s.replace('-', '_')}_s": "s" for s in STAGES},
    "textproc.normalize.calls": "count",
    "textproc.normalize.self_s": "s",
    "textproc.normalize.distinct_ratio": "ratio",
    "textproc.subtokenize.calls": "count",
    "textproc.subtokenize.self_s": "s",
    "textproc.subtokenize.mb_per_s": "MB/s",
    "textproc.code_tokenize.calls": "count",
    "textproc.code_tokenize.self_s": "s",
    "kernel.subtokenize.mb_per_s": "MB/s",
    "linking.temporal_filter.calls": "count",
    "linking.temporal_filter.self_s": "s",
    "linking.temporal_filter.dropped_utterances": "count",
    "linking.attach_discussions.self_s": "s",
    "records.validate.calls": "count",
    "records.validate.self_s": "s",
    "records.normalize_timestamp.calls": "count",
    "storage.load.self_s": "s",
    "storage.load.mb_per_s": "MB/s",
    "storage.load_traces.self_s": "s",
    "storage.traces_mb": "MB",
    "storage.save.self_s": "s",
    "storage.save.bytes": "bytes",
    "contexts.build_context.calls": "count",
    "contexts.build_context.self_s": "s",
    "contexts.enumerate_segment_contexts.self_s": "s",
    "contexts.extract_attended_segments.calls": "count",
    "contexts.extract_attended_segments.self_s": "s",
    "contexts.truncated": "count",
    "contexts.tokens_cut": "count",
    **{f"contexts.skipped.{slug}": "count" for slug in checks.SKIP_SLUGS},
    "evaluate.paired_bootstrap.self_s": "s",
    "evaluate.paired_bootstrap.resamples_per_s": "1/s",
    "evaluate.paired_bootstrap.jobs2_speedup": "x",
    "evaluate.corpus_exact_match.self_s": "s",
    "evaluate.best_exact_match.self_s": "s",
    "evaluate.dataset_stats.self_s": "s",
    "ingest.requests": "count",
    "ingest.empty_pages": "count",
    "ingest.useful_request_ratio": "ratio",
    "ingest.mine_projects.self_s": "s",
    "ingest.normalize_issue.self_s": "s",
    "ingest.extract_commit_links.self_s": "s",
    "ingest.transport_s": "s",
    "ingest.links.message_reference": "count",
    "ingest.links.timeline_event": "count",
    **{f"cli.{c}.self_s": "s" for c in CLI_COMMANDS},
    "cli.out_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


def plan_for(workload, inp):
    """Set-up loaders and stages; paths are relative to the work directory."""
    if workload == "render":
        common = ["--dataset", f"in/{inp['dataset']}", "--discussions", f"in/{inp['discussions']}", "--desc", f"in/{inp['desc']}"]
        stages = [
            {
                "name": "context",
                "argv": ["context", *common, "--repr", kind, "--limit", "1024",
                         "--out", f"out/ctx-{kind}.jsonl", "--skipped", f"out/skip-{kind}.jsonl"],
            }
            for kind in checks.RENDER_REPRS
        ]
        stages.append({"name": "segments", "argv": ["segments", *common[:4], "--limit", "1024", "--out", "out/segments.jsonl"]})
        stages.append({"name": "stats", "argv": ["stats", *common, "--out", "out/stats.json"]})
        setup = [
            ("load_dataset", f"in/{inp['dataset']}"),
            ("load_discussions", f"in/{inp['discussions']}"),
            ("load_descriptions", f"in/{inp['desc']}"),
        ]
        return setup, stages, None

    if workload == "mine-link":
        mine = {
            "projects": f"in/{inp['projects']}",
            "commits": f"in/{inp['commits']}",
            "since": inp["since"],
            "until": inp["until"],
            "out": "out/mined",
            "cursor": "out/cursor.json",
        }
        stages = [
            {"name": "mine", "mine": mine},
            {
                "name": "link",
                "argv": ["link", "--examples", f"in/{inp['examples']}", "--links", "out/mined/links.jsonl",
                         "--discussions", "out/mined/discussions", "--out", "out/linked.jsonl",
                         "--dropped", "out/dropped.jsonl"],
            },
        ]
        return [("load_dataset", f"in/{inp['examples']}")], stages, f"in/{inp['server']}"

    refs, cands = f"in/{inp['refs']}", f"in/{inp['candidates']}"
    stages = [
        {"name": "eval", "argv": ["eval", "--refs", refs, "--candidates", f"{cands}/s0.jsonl", "--repr", "s0", "--out", "out/eval.json"]},
        {"name": "eval", "argv": ["eval", "--refs", refs, "--candidates", f"{cands}/s0.jsonl", "--repr", "s0", "--raw-strings", "--out", "out/eval-raw.json"]},
    ]
    for jobs in (1, 2):
        stages.append(
            {
                "name": "compare",
                "argv": ["compare", "--refs", refs, "--a", f"{cands}/s0.jsonl", "--b", f"{cands}/s1.jsonl",
                         "--samples", "5000", "--size", "2000", "--seed", "0", "--jobs", str(jobs),
                         "--out", f"out/compare-j{jobs}.json"],
            }
        )
    stages.append({"name": "oracle-eval", "argv": ["oracle-eval", "--refs", refs, "--candidates", cands, "--out", "out/oracle.json"]})
    stages.append(
        {
            "name": "context",
            "argv": ["context", "--dataset", refs, "--repr", "attended_segments", "--discussions", f"in/{inp['discussions']}",
                     "--traces", f"in/{inp['traces']}", "--out", "out/ctx-attended_segments.jsonl",
                     "--skipped", "out/skip-attended_segments.jsonl"],
        }
    )
    setup = [("load_dataset", refs)]
    setup += [("load_candidates", f"{cands}/{name}.jsonl") for name in corpus.SOURCES]
    setup += [("load_discussions", f"in/{inp['discussions']}"), ("load_traces", f"in/{inp['traces']}")]
    return setup, stages, None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # One thread per process from numpy's BLAS; compare --jobs 2 is the
    # only multi-threaded call.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(work, plan, deadline):
    """Run one child process to completion; return its result or None."""
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump(plan, f)
    if os.path.exists(result_path):
        os.remove(result_path)
    with open(os.path.join(work, "child.log"), "ab") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path],
                cwd=work, env=child_env(), stdout=subprocess.DEVNULL, stderr=log,
                timeout=max(5.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic())),
            )
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def digest_tree(top):
    out = {}
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, top)] = hashlib.sha256(f.read()).hexdigest()
    return out


def tree_bytes(top):
    return sum(os.path.getsize(os.path.join(d, n)) for d, _, names in os.walk(top) for n in names)


def stage_seconds(result):
    out = dict.fromkeys(STAGES, 0.0)
    for stage in result["stages"]:
        out[stage["name"]] += stage["seconds"]
    return out


def work_items(workload, truth):
    """The workload's size in user-visible units.

    Every seed asks for the same amount, so the report's items_per_s is
    wall_s as a rate and is not a metric of its own.

    render: contexts built; mine-link: issues mined; score: candidate
    comparisons (eval twice, compare twice over two sources, oracle-eval
    over every source).
    """
    if workload == "render":
        return sum(truth["built"].values())
    if workload == "mine-link":
        return truth["discussions"]
    return truth["n"] * (2 + 2 * 2 + len(corpus.SOURCES))


def layer_metrics(work, obs, result):
    """Per-layer self times and counts from one traced iteration's spans."""
    with open(os.path.join(work, "spans.json"), encoding="utf-8") as f:
        meta = json.load(f)
    names, n = meta["names"], meta["n"]
    name, parent, start, end = np.fromfile(os.path.join(work, "spans.bin"), dtype=np.int64).reshape(4, n)
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    width = len(names)
    self_s = dict(zip(names, np.bincount(name, weights=dur - child, minlength=width) / 1e9))
    incl_s = dict(zip(names, np.bincount(name, weights=dur, minlength=width) / 1e9))
    calls = dict(zip(names, np.bincount(name, minlength=width).tolist()))

    def group(table, pick):
        return sum(v for k, v in table.items() if pick(k))

    def ratio(a, b):
        return a / b if b else 0.0

    def is_load(k):
        return k.startswith("storage.load_") and k not in ("storage.load_traces", "storage.load_attention_trace")

    def is_validate(k):
        return k.startswith("records.validate.")

    def is_save(k):
        return k.startswith("storage.save_")

    boot = obs["evaluate.paired_bootstrap.calls"]
    boot_by_jobs = {jobs: ns for _, jobs, ns in boot}
    tracker = result.get("tracker", {})
    requests = tracker.get("requests", 0)
    m = {
        "textproc.normalize.calls": calls.get("textproc.process_discussion_text", 0),
        "textproc.normalize.self_s": self_s.get("textproc.process_discussion_text", 0.0),
        "textproc.normalize.distinct_ratio": ratio(
            obs["textproc.normalize.distinct"], calls.get("textproc.process_discussion_text", 0)
        ),
        "textproc.subtokenize.calls": calls.get("textproc.subtokenize", 0),
        "textproc.subtokenize.self_s": self_s.get("textproc.subtokenize", 0.0),
        "textproc.subtokenize.mb_per_s": ratio(
            obs.get("textproc.subtokenize.chars", 0) / 1e6, incl_s.get("textproc.subtokenize", 0.0)
        ),
        "textproc.code_tokenize.calls": calls.get("textproc.code_tokenize", 0),
        "textproc.code_tokenize.self_s": self_s.get("textproc.code_tokenize", 0.0),
        "linking.temporal_filter.calls": calls.get("linking.temporal_filter", 0),
        "linking.temporal_filter.self_s": self_s.get("linking.temporal_filter", 0.0),
        "linking.temporal_filter.dropped_utterances": obs.get("linking.temporal_filter.dropped_utterances", 0),
        "linking.attach_discussions.self_s": self_s.get("linking.attach_discussions", 0.0),
        "records.validate.calls": group(calls, is_validate),
        "records.validate.self_s": group(self_s, is_validate),
        "records.normalize_timestamp.calls": calls.get("records.normalize_timestamp", 0),
        "storage.load.self_s": group(self_s, is_load),
        "storage.load.mb_per_s": ratio(obs.get("storage.load.bytes", 0) / 1e6, group(incl_s, is_load)),
        "storage.load_traces.self_s": self_s.get("storage.load_traces", 0.0)
        + self_s.get("storage.load_attention_trace", 0.0),
        "storage.traces_mb": obs.get("storage.traces.bytes", 0) / 1e6,
        "storage.save.self_s": group(self_s, is_save),
        "storage.save.bytes": obs.get("storage.save.bytes", 0),
        "contexts.build_context.calls": calls.get("contexts.build_context", 0),
        "contexts.build_context.self_s": self_s.get("contexts.build_context", 0.0),
        "contexts.enumerate_segment_contexts.self_s": self_s.get("contexts.enumerate_segment_contexts", 0.0),
        "contexts.extract_attended_segments.calls": calls.get("contexts.extract_attended_segments", 0),
        "contexts.extract_attended_segments.self_s": self_s.get("contexts.extract_attended_segments", 0.0),
        "contexts.truncated": obs.get("contexts.truncated", 0),
        "contexts.tokens_cut": obs.get("contexts.tokens_cut", 0),
        "evaluate.paired_bootstrap.self_s": self_s.get("evaluate.paired_bootstrap", 0.0),
        "evaluate.paired_bootstrap.resamples_per_s": ratio(sum(b[0] for b in boot), sum(b[2] for b in boot) / 1e9),
        "evaluate.paired_bootstrap.jobs2_speedup": ratio(boot_by_jobs.get(1, 0), boot_by_jobs.get(2, 0)),
        "evaluate.corpus_exact_match.self_s": self_s.get("evaluate.corpus_exact_match", 0.0),
        "evaluate.best_exact_match.self_s": self_s.get("evaluate.best_exact_match", 0.0),
        "evaluate.dataset_stats.self_s": self_s.get("evaluate.dataset_stats", 0.0),
        "ingest.requests": requests,
        "ingest.empty_pages": tracker.get("empty_pages", 0),
        "ingest.useful_request_ratio": ratio(requests - tracker.get("empty_pages", 0), requests),
        "ingest.mine_projects.self_s": self_s.get("ingest.mine_projects", 0.0),
        "ingest.normalize_issue.self_s": self_s.get("ingest.normalize_issue", 0.0),
        "ingest.extract_commit_links.self_s": self_s.get("ingest.extract_commit_links", 0.0),
        "ingest.transport_s": self_s.get("ingest.transport", 0.0),
        "trace.spans": n,
    }
    for c in CLI_COMMANDS:
        m[f"cli.{c}.self_s"] = self_s.get(f"cli.{c}", 0.0)
    return m


def machine(kernel_backend):
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    info = {
        "kernel_backend": kernel_backend,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": model or platform.machine(),
    }
    info["key"] = "|".join(f"{k}={v}" for k, v in info.items())
    return info


def median(values):
    return statistics.median_low(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description="disc-forge pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(corpus.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "discforge", "__init__.py")):
        print(f"error: no discforge sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + 175
    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "in"))
    try:
        return run(args, work, base, started, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work, base, started, deadline):
    inputs, truth = corpus.GENERATORS[args.workload](os.path.join(work, "in"), args.seed)
    setup, stages, server = plan_for(args.workload, inputs)
    out_dir = os.path.join(work, "out")
    # Compile the package's bytecode once, as an installed package would.
    subprocess.run([sys.executable, "-c", "import discforge.cli"], env=child_env(), cwd=work,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)

    attempted = failed = 0
    failures = []
    samples = {k: [] for k in END_TO_END}
    phases = []
    stage_samples = {s: [] for s in STAGES}
    traced_walls, untraced_walls, layer_samples = [], [], []
    counts_seen, first_digests, counts = None, None, {}
    kernel_backend = "unknown"

    def record(name, ok, detail=""):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(f"{name}: {detail}")

    iteration = 0
    loop_start = time.monotonic()
    durations = []
    while True:
        traced = bool(args.trace) and iteration % 2 == 1
        # Start another iteration only if a typical one still fits in --seconds
        # (a traced one always follows its untraced partner).
        elapsed = time.monotonic() - loop_start
        done = elapsed + (median(durations) if durations else 0.0) > args.seconds
        enough = iteration >= (2 if args.trace else MIN_ITERATIONS)
        if (done and enough and not traced) or time.monotonic() - started > RUN_BUDGET_S:
            break
        iteration += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        plan = {"trace": traced, "setup": setup, "stages": stages, "server": server, "workdir": work}
        t_iter = time.monotonic()
        result = run_child(work, plan, deadline)
        durations.append(time.monotonic() - t_iter)
        if result is None:
            record(f"iteration {iteration}", False, "child process failed; see child.log")
            for stage in stages:
                record(stage["name"], False, "not run")
            continue
        kernel_backend = result["kernel_backend"]
        for stage in result["stages"]:
            record(stage["name"], stage["exit"] == 0, f"exit {stage['exit']}: {stage['argv']}")
        # Outputs identical to the first iteration's, byte for byte, pass the
        # checks the first iteration passed; only new bytes are checked again.
        digests = digest_tree(out_dir)
        if first_digests is not None:
            record("digests", digests == first_digests, "outputs differ from the first iteration")
        if digests != first_digests:
            try:
                outcome, out_counts = checks.CHECKS[args.workload](out_dir, truth)
            except (OSError, KeyError, ValueError) as exc:
                outcome, out_counts = [("outputs", False, repr(exc))], {}
            for name, ok, detail in outcome:
                record(name, ok, detail)
            if first_digests is None:
                first_digests = digests
                counts = {**out_counts, "cli.out_bytes": tree_bytes(out_dir)}

        if traced:
            layer = layer_metrics(work, result["observations"], result)
            repeat = {k: v for k, v in layer.items() if PER_LAYER[k] in ("count", "bytes", "MB", "ratio")}
            if counts_seen is None:
                counts_seen = repeat
            else:
                record("counts", repeat == counts_seen, "traced counts differ between iterations")
            layer_samples.append(layer)
            traced_walls.append(result["wall_s"])
            continue
        untraced_walls.append(result["wall_s"])
        by_stage = stage_seconds(result)
        for s in STAGES:
            stage_samples[s].append(by_stage[s])
        samples["wall_s"].append(result["wall_s"])
        samples["setup_s"].append(result["setup_s"])
        samples["peak_rss_mb"].append(result["peak_rss_mb"])
        phases.append((result["peak_phase"], result["phase_rss_mb"]))

    if args.trace:
        metrics = {k: 0.0 for k in PER_LAYER}
        for k in layer_samples[0] if layer_samples else ():
            metrics[k] = median([s[k] for s in layer_samples])
        for s in STAGES:
            metrics[f"stage.{s.replace('-', '_')}_s"] = median(stage_samples[s])
        metrics.update({k: v for k, v in counts.items() if k in PER_LAYER})
        metrics["trace.overhead_ratio"] = (
            median(traced_walls) / median(untraced_walls) if traced_walls and untraced_walls else 0.0
        )
        kernel = run_child(
            work,
            {"kernel": True, "bench_script": os.path.join(ROOT, "benchmarks", "bench_textproc.py"),
             "chars": KERNEL_CHARS, "repeats": KERNEL_REPEATS},
            deadline,
        )
        record("kernel", kernel is not None, "kernel timing failed; see child.log")
        if kernel:
            metrics["kernel.subtokenize.mb_per_s"] = kernel["mb_per_s"]["active"]
        units = PER_LAYER
    else:
        kernel = None
        metrics = {k: median(v) for k, v in samples.items()}
        units = END_TO_END

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(kernel_backend),
        "iterations": iteration,
        "samples": samples if not args.trace else {"traced_wall_s": traced_walls, "untraced_wall_s": untraced_walls},
        "items": work_items(args.workload, truth),
        "items_per_s": work_items(args.workload, truth) / median(untraced_walls) if untraced_walls else 0.0,
        "peak_phase": phases[0][0] if phases else None,
        "phase_rss_mb": phases[0][1] if phases else None,
        "stage_seconds": {s: median(v) for s, v in stage_samples.items() if any(v)},
        "kernel": kernel,
        "metrics": metrics,
        "counts": counts,
        "digests": first_digests,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": failures[:50],
        "elapsed_s": time.monotonic() - started,
    }
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    with open(os.path.join(base, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": attempted > 0 and failed == 0,
                "attempted": max(attempted, 1),
                "failed": failed if attempted else 1,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
