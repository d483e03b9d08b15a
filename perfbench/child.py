"""One iteration of a workload in a fresh process.

    python3 perfbench/child.py PLAN.json RESULT.json

The plan (written by run.py) names the set-up loaders and the stages;
each stage is one in-process call of ``discforge.cli.main(argv)``, except
mining, which calls ``ingest.mine_projects`` with a fake tracker because
the CLI has no transport hook. Timing starts just before ``import
discforge``. Set-up calls the loaders one after another and keeps none of
their results; no CLI command makes that pass, so ``wall_s`` leaves it out
and counts the import and the stages. The high-water RSS is read after
set-up and after each stage, so the report shows which phase set it. With
``"trace": true`` the span recorder is installed right after the import,
and the spans are written to the plan's work directory at the end. A
``"kernel"`` plan instead times the tokenizer kernels on
benchmarks/bench_textproc.py's own text generator.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


API_PREFIX = "https://api.github.com/repos/"


def page_file(url, page):
    """The file, under the fake tracker's directory, that holds one response."""
    return url.removeprefix(API_PREFIX).replace("/", "__") + f"__{page}.json"


class FakeTracker:
    """In-process stand-in for the GitHub issues API.

    Each response body is a pre-encoded JSON file, read when it is
    requested and decoded as ``resp.json()`` would; a missing page is
    ``[]``. Counts requests and empty pages and keeps its own time apart.
    """

    def __init__(self, root):
        self.root = root
        self.requests = 0
        self.empty_pages = 0
        self.seconds = 0.0

    def __call__(self, url, params, headers):
        t0 = perf_counter()
        try:
            with open(os.path.join(self.root, page_file(url, params.get("page", 1))), "rb") as f:
                body = f.read()
        except FileNotFoundError:
            body = b"[]"
        payload = json.loads(body)
        self.requests += 1
        if not payload:
            self.empty_pages += 1
        self.seconds += perf_counter() - t0
        return 200, {"X-RateLimit-Remaining": "4999"}, payload


def peak_rss_mb():
    """This process's own high-water RSS.

    On Linux ru_maxrss survives fork and exec, so a child reports its
    parent's peak when that was higher; VmHWM belongs to the new address
    space alone. ru_maxrss is the fallback where /proc is absent.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_mine(ingest, spec, tracker):
    with open(spec["projects"], encoding="utf-8") as f:
        projects = [ln.strip() for ln in f if ln.strip()]
    with open(spec["commits"], encoding="utf-8") as f:
        commits = json.load(f)
    if os.path.exists(spec["cursor"]):
        os.remove(spec["cursor"])
    os.makedirs(spec["out"], exist_ok=True)
    report = ingest.mine_projects(
        projects,
        spec["since"],
        spec["until"],
        spec["out"],
        commits_by_project=commits,
        transport=tracker,
        cursor_path=spec["cursor"],
        sleep=lambda seconds: None,
    )
    return 1 if report.issues_skipped else 0


def run_workload(plan):
    tracker = FakeTracker(plan["server"]) if plan.get("server") else None

    t0 = perf_counter()
    import discforge  # noqa: F401
    import discforge.cli
    from discforge import ingest, storage

    recorder = None
    if plan["trace"]:
        import tracer

        recorder = tracer.install(tracer.Recorder())
        if tracker is not None:
            tracker = recorder.wrap(tracker, "ingest.transport")
    t_load = perf_counter()
    for loader, path in plan["setup"]:
        getattr(storage, loader)(path)
    setup_s = perf_counter() - t0
    load_s = perf_counter() - t_load
    phase_rss = [("setup", peak_rss_mb())]

    stages = []
    for stage in plan["stages"]:
        t = perf_counter()
        try:
            if stage["name"] == "mine":
                code = run_mine(ingest, stage["mine"], tracker)
            else:
                code = discforge.cli.main(stage["argv"])
        except Exception:
            traceback.print_exc()
            code = 3
        stages.append({"name": stage["name"], "argv": stage.get("argv"), "seconds": perf_counter() - t, "exit": code})
        phase_rss.append((stage["name"], peak_rss_mb()))
    wall_s = perf_counter() - t0 - load_s

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": phase_rss[-1][1],
        # The first phase after which the high-water mark reached its final value.
        "peak_phase": next(name for name, mb in phase_rss if mb == phase_rss[-1][1]),
        "phase_rss_mb": phase_rss,
        "stages": stages,
        "kernel_backend": discforge.KERNEL_BACKEND,
    }
    if tracker is not None:
        fake = tracker.__wrapped__ if recorder else tracker
        result["tracker"] = {
            "requests": fake.requests,
            "empty_pages": fake.empty_pages,
            "seconds": fake.seconds,
        }
    if recorder is not None:
        recorder.dump(plan["workdir"])
        result["observations"] = recorder.observations()
    return result


def run_kernels(plan):
    """MB/s of subtokenize per importable backend, on bench_textproc's text."""
    spec = importlib.util.spec_from_file_location("bench_textproc", plan["bench_script"])
    bench_textproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_textproc)
    from discforge import textproc

    backends = {"active": textproc}
    for name, module in (("pure", "discforge._puretok"), ("compiled", "discforge._speedups")):
        try:
            backends[name] = importlib.import_module(module)
        except ImportError:
            pass
    lines = bench_textproc.make_corpus(random.Random(0), plan["chars"])
    chars = sum(len(s) for s in lines)
    out = {"kernel_backend": textproc.KERNEL_BACKEND, "chars": chars, "mb_per_s": {}}
    for name, kernel in backends.items():
        for line in lines[:200]:
            kernel.subtokenize(line)
        elapsed, _ = bench_textproc.bench(kernel, lines, plan["repeats"])
        out["mb_per_s"][name] = chars * plan["repeats"] / elapsed / 1e6
    return out


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        plan = json.load(f)
    sys.path.insert(0, HERE)
    result = run_kernels(plan) if plan.get("kernel") else run_workload(plan)
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
