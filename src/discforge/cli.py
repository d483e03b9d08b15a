"""Command-line interface.

Exit codes: 0 success; 1 when `mine` skips more malformed issues than
its --fail-threshold allows (no other command exits 1); 2 for
configuration, usage and input errors. A JSON file passed as --config
(spelled out in full) supplies defaults for the chosen subcommand;
explicit flags always win. Only `main` handles outputs: two that resolve
to one file, a --run-log naming an input or a .json/.jsonl file in a
directory input or in mine's --archive tree, a path naming an output's
temp file, or a path naming a file `mine` writes under --out, exit 2
before any read or write; it opens --run-log (one JSON line per run,
fingerprinting the inputs) before the command runs, and writes the
report of eval, compare, oracle-eval and stats with its `inputs`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import time

from . import ingest, storage
from .contexts import (
    ContextSkip,
    MissingAuxInput,
    _require_aux_input,
    build_context,
    enumerate_segment_contexts,
)
from .evaluate import (
    _check_bootstrap_args,
    best_exact_match,
    corpus_exact_match,
    dataset_stats,
    paired_bootstrap,
)
from .linking import link_examples
from .records import CONTEXT_KINDS, ContextSpec, RecordError
from .textproc import code_tokenize, subtokenize


# Every flag that names an input file or directory; a run fingerprints those it is given.
_INPUTS = {
    "--config": {"help": "JSON file of default values for this command's flags"},
    "--projects": {"required": True, "help": "text file, one owner/name per line"},
    "--commits": {"help": "JSON file mapping project -> commit records"},
    "--examples": {"required": True},
    "--links": {"required": True},
    "--discussions": {"required": True, "help": "JSONL file or directory of them"},
    "--in": {"dest": "in_path", "required": True},
    "--dataset": {"required": True},
    "--desc": {"help": "solution descriptions JSONL"},
    "--traces": {"help": "attention trace file or directory"},
    "--refs": {"required": True, "help": "dataset JSONL with the fixed code"},
    "--candidates": {"required": True, "help": "JSONL file or directory of them"},
    "--a": {"dest": "cand_a", "required": True},
    "--b": {"dest": "cand_b", "required": True},
}
# Every flag that names an output; every command takes --out, required unless it makes a report.
_OUTPUTS = {
    "--out": {"help": "output file (mine: a directory; a report command: its report JSON)"},
    "--dropped": {"help": "where to write examples that got no discussion"},
    "--skipped": {"help": "where to record skipped examples and why"},
    "--run-log": {"help": "append a machine-readable JSON line describing this run"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="disc-forge",
        description="Mine, link, and render issue-discussion context for bug-fix corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub_by_name = {}

    # `run(args)` runs the command; a report command's `report` names its run-log line's keys (() for all).
    def command(name, run, *flags, report=None, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        for flag in ("--config", "--out", *flags, "--run-log"):
            required = flag == "--out" and report is None
            sp.add_argument(flag, **{"required": required, **_INPUTS.get(flag, _OUTPUTS.get(flag))})
        sp.set_defaults(run=run, report=report)
        sub_by_name[name] = sp
        return sp

    sp = command("mine", _cmd_mine, "--projects", "--commits", help="fetch issue discussions and commit links")
    sp.add_argument("--since", required=True, help="window start, ISO-8601 (inclusive)")
    sp.add_argument("--until", required=True, help="window end, ISO-8601 (exclusive)")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--archive", help="read issues from this archive directory")
    src.add_argument("--token-env", help="name of the environment variable holding the API token")
    sp.add_argument(
        "--fail-threshold",
        type=int,
        default=0,
        help="tolerate up to this many skipped issues before exiting 1",
    )

    command("link", _cmd_link, "--examples", "--links", "--discussions", "--dropped",
            help="attach mined discussions to bug-fix examples")

    sp = command("tokenize", _cmd_tokenize, "--in", help="tokenize text lines from a file")
    sp.add_argument("--mode", choices=("code", "subtoken"), required=True)

    sp = command(
        "context", _cmd_context, "--dataset", "--discussions", "--desc", "--traces", "--skipped",
        help="render model-input contexts for a dataset",
    )
    sp.add_argument("--repr", choices=CONTEXT_KINDS, required=True)
    sp.add_argument("--limit", type=int, default=1024, help="token budget per context")

    sp = command("segments", _cmd_segments, "--dataset", "--discussions",
                 help="render one context per discussion segment")
    sp.add_argument("--limit", type=int, default=1024)

    sp = command("eval", _cmd_eval, "--refs", "--candidates", report=("exact_match_rate", "n", "inputs"),
                 help="exact-match rate of one candidate set")
    sp.add_argument("--repr", default="", help="label for the report")
    sp.add_argument("--raw-strings", action="store_true", help="re-tokenize candidates before comparing")

    sp = command("compare", _cmd_compare, "--refs", "--a", "--b", report=(),
                 help="paired bootstrap significance of a vs b")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--size", type=int, default=5000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect (the bootstrap runs on one thread)",
    )
    sp.add_argument(
        "--shared-only",
        action="store_true",
        help="compare only examples where both sources produced a candidate",
    )

    command("oracle-eval", _cmd_oracle_eval, "--refs", "--candidates", report=("best_exact_match_rate", "inputs"),
            help="best exact match over several candidate sets")

    command("stats", _cmd_stats, "--dataset", "--discussions", "--desc", report=("overall", "inputs"),
            help="corpus summary statistics")

    return parser, sub_by_name


def _apply_config(parser, sub_by_name, argv):
    """Pre-scan for --config; its values become subcommand defaults.

    The scan happens before the real parse so a config value can satisfy a
    required flag or exclusive group. Explicit flags always override config
    values; in an exclusive group, any explicit member overrides them all.
    """
    config_path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif tok.startswith("--config="):
            config_path = tok.split("=", 1)[1]
    group_defaults = []
    if config_path and argv[0] in sub_by_name:
        from .config import apply_config  # a run without --config never compiles it
        group_defaults = apply_config(sub_by_name[argv[0]], config_path)
    args = parser.parse_args(argv)
    if args.config != config_path:
        # argparse took an abbreviation of --config that the scan above missed.
        raise ValueError(f"--config {args.config}: an abbreviated --config is not read; spell it out")
    for group, dest, value in group_defaults:
        if all(getattr(args, a.dest) == a.default for a in group._group_actions):
            setattr(args, dest, value)
    return args


def _given(sp, args, flags):
    """(flag, path) of each of `flags` that the command takes and the run names, in flag order."""
    return [(a.option_strings[0], getattr(args, a.dest)) for a in sp._actions
            if a.option_strings[0] in flags and getattr(args, a.dest)]


def _check_outputs(sp, args):
    """Reject two outputs that resolve to one file, a --run-log that names an input, and an output's temp file.

    An output may replace an input; appending a run-log line to one would
    corrupt it, and an output's temp file (each but --run-log has one) is
    overwritten, then moved or removed. A --run-log is opened before the
    command reads, so one that a directory input would list (a .json or
    .jsonl file in it, as storage.digest counts) is rejected too, and for
    mine one anywhere in the --archive tree, whose project directories it
    reads. For mine, any path that ingest._replaces under its --out
    directory is rejected.
    """
    inputs = _given(sp, args, _INPUTS)
    given = inputs + _given(sp, args, _OUTPUTS)
    if args.run_log and args.run_log.endswith((".json", ".jsonl")):
        parent = os.path.realpath(os.path.dirname(os.path.abspath(args.run_log)))
        archive = [("--archive", args.archive)] if args.command == "mine" and args.archive else []
        for flag, path in inputs + archive:
            real = os.path.realpath(path)
            inside = parent == real or (flag == "--archive" and os.path.commonpath([parent, real]) == real)
            if os.path.isdir(path) and inside:
                raise ValueError(f"--run-log {args.run_log}: {flag} {path} would read this file")
    temps = {} if args.command == "mine" else {
        storage.temp_file(path): f"{flag} {path}" for flag, path in given if flag in _OUTPUTS and flag != "--run-log"
    }
    seen = {}
    for flag, path in given:
        real = os.path.realpath(path)
        if real in temps:
            raise ValueError(f"{flag} {path} is the temp file of {temps[real]}")
        if args.command == "mine" and flag != "--out" and ingest._replaces(os.path.realpath(args.out), real):
            raise ValueError(f"{flag} {path}: mine writes this file under --out {args.out}")
        if seen.get(real) in _OUTPUTS or (real in seen and flag == "--run-log"):
            raise ValueError(f"{seen[real]} and {flag} name the same file: {path}")
        seen[real] = flag


def _fingerprints(sp, args):
    """storage.digest of each input the run names, by path in flag order, for a run-log or report.

    A path that does not exist is left to the command, which reports it.
    """
    if not (args.run_log or args.report is not None and args.out):
        return None
    return {p: storage.digest(p) for _, p in _given(sp, args, _INPUTS) if os.path.exists(p)}


def _cmd_mine(args) -> tuple[int, dict]:
    if args.fail_threshold < 0:
        raise ValueError(f"--fail-threshold must be >= 0, got {args.fail_threshold}")
    with open(args.projects, "r", encoding="utf-8-sig") as f:  # a leading BOM is not part of a name
        try:
            projects = [name for ln in f if (name := ln.strip()) and not name.startswith("#")]
        except UnicodeDecodeError as exc:
            raise ValueError(f"--projects {args.projects}: {exc}") from None
    if not projects:
        raise ValueError(f"--projects {args.projects}: no projects listed")
    commits_by_project = None
    if args.commits:
        with open(args.commits, "r", encoding="utf-8") as f:
            try:
                commits_by_project = json.load(f)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                raise ValueError(f"--commits {args.commits}: invalid JSON: {exc}") from None
        if not isinstance(commits_by_project, dict):
            raise ValueError(f"--commits {args.commits}: expected a JSON object keyed by project")
    try:
        report = ingest.mine_projects(
            projects,
            args.since,
            args.until,
            args.out,
            archive_root=args.archive,
            token_env=args.token_env,
            commits_by_project=commits_by_project,
        )
    except ingest.CommitsError as exc:
        raise ValueError(f"--commits {args.commits}: {exc}") from None
    print(
        f"mined {report.issues_in_window} issues from {len(projects)} projects "
        f"({report.issues_skipped} skipped, {report.links_found} links)"
    )
    code = 1 if report.issues_skipped > args.fail_threshold else 0
    return code, {"report": report.to_dict(), "out": args.out}


def _writer(path):
    """storage.jsonl_writer for an optional output; with no path, rows are discarded."""
    return storage.jsonl_writer(path) if path else contextlib.nullcontext(lambda row: None)


def _cmd_link(args) -> tuple[int, dict]:
    links = storage.iter_links(args.links)
    discussions = storage.iter_discussions(args.discussions)
    n_linked = n_dropped = 0
    with storage.jsonl_writer(args.out) as write_linked, _writer(args.dropped) as write_dropped:
        examples = storage.iter_dataset(args.examples)
        for ex, ids in link_examples(examples, links, discussions):
            row = ex.to_dict()
            if ids:
                row["discussion_ids"] = list(ids)
                write_linked(row)
                n_linked += 1
            else:
                write_dropped(row)
                n_dropped += 1
    print(f"linked {n_linked} examples; {n_dropped} had no discussion")
    return 0, {"linked": n_linked, "dropped": n_dropped}


def _cmd_tokenize(args) -> tuple[int, dict]:
    tokenizer = code_tokenize if args.mode == "code" else subtokenize
    with open(args.in_path, "r", encoding="utf-8-sig") as fin:  # a leading BOM is not part of the text
        try:
            n = storage.write_jsonl(args.out, (tokenizer(line.rstrip("\n")) for line in fin))
        except UnicodeDecodeError as exc:
            raise ValueError(f"--in {args.in_path}: {exc}") from None
    return 0, {"lines": n}


def _cmd_context(args) -> tuple[int, dict]:
    spec = ContextSpec(kind=args.repr, token_limit=args.limit)
    _require_aux_input(spec.kind, args.desc or None, args.traces or None)  # as the loads below read them
    discussions = storage.load_discussions(args.discussions)
    descriptions = storage.load_descriptions(args.desc) if args.desc else None
    traces = storage.load_traces(args.traces) if args.traces else None

    n_built = n_skipped = 0
    with storage.jsonl_writer(args.out) as write_row, _writer(args.skipped) as write_skip:
        for ex in storage.iter_dataset(args.dataset):
            try:
                tokens = build_context(ex, spec, discussions, descriptions=descriptions, traces=traces)
            except ContextSkip as exc:
                write_skip({"example_id": ex.id, "reason": str(exc)})
                n_skipped += 1
                continue
            write_row({"example_id": ex.id, "repr": spec.kind, "input_tokens": tokens})
            n_built += 1
    print(f"built {n_built} {spec.kind} contexts ({n_skipped} skipped)")
    return 0, {"built": n_built, "skipped": n_skipped}


def _cmd_segments(args) -> tuple[int, dict]:
    # Segments are whole-discussion parts; the spec checks --limit as `context` does.
    ContextSpec(kind="whole_discussion", token_limit=args.limit)
    discussions = storage.load_discussions(args.discussions)
    n_examples = n_rows = 0
    with storage.jsonl_writer(args.out) as write_row:
        for ex in storage.iter_dataset(args.dataset):
            n_examples += 1
            for ref, tokens in enumerate_segment_contexts(ex, discussions, token_limit=args.limit):
                write_row({
                    "example_id": ex.id,
                    "discussion_id": ref.discussion_id,
                    "kind": ref.kind,
                    "utterance_index": ref.utterance_index,
                    "input_tokens": tokens,
                })
                n_rows += 1
    print(f"rendered {n_rows} segment contexts for {n_examples} examples")
    return 0, {"segments": n_rows}


def _cmd_eval(args) -> tuple[int, dict]:
    candidates = storage.load_candidates(args.candidates)
    report = corpus_exact_match(
        storage.iter_dataset(args.refs), candidates, representation=args.repr, raw_strings=args.raw_strings
    )
    payload = report.to_dict()
    print(
        f"exact match: {report.exact_match_rate}% "
        f"({payload['matches']}/{report.n}, {report.missing} missing)"
    )
    return 0, payload


def _cmd_compare(args) -> tuple[int, dict]:
    _check_bootstrap_args(args.samples, args.size, args.seed)
    cand_a = storage.load_candidates(args.cand_a)
    cand_b = storage.load_candidates(args.cand_b)
    examples = storage.iter_dataset(args.refs)
    if args.shared_only:
        examples = (ex for ex in examples if ex.id in cand_a and ex.id in cand_b)
    # One pass decides both; keys "a" and "b" stay apart when --a and --b name one file.
    matched_by = best_exact_match(examples, {"a": cand_a, "b": cand_b})["matched_by"].values()
    if args.shared_only and not matched_by:
        raise ValueError("--shared-only left no examples to compare")
    vec_a = ["a" in names for names in matched_by]
    vec_b = ["b" in names for names in matched_by]
    label_a, label_b = args.cand_a, args.cand_b
    swapped = False
    if sum(vec_a) < sum(vec_b):
        vec_a, vec_b = vec_b, vec_a
        label_a, label_b = label_b, label_a
        swapped = True
    result = paired_bootstrap(
        vec_a,
        vec_b,
        n_samples=args.samples,
        sample_size=args.size,
        seed=args.seed,
        n_jobs=args.jobs,
    )
    # main stamps `inputs`; its key is placed here to keep the report's key order.
    payload = {"a": label_a, "b": label_b, "swapped": swapped, "inputs": None, **result.to_dict()}
    note = " (arguments swapped so a is the stronger system)" if swapped else ""
    print(
        f"p = {result.p_value:.4f}  delta = {result.delta:+.4f}  "
        f"a = {result.rate_a}%  b = {result.rate_b}%{note}"
    )
    return 0, payload


def _cmd_oracle_eval(args) -> tuple[int, dict]:
    sets = {
        os.path.basename(p).removesuffix(".jsonl"): storage.load_candidates(p)
        for p in storage.input_files(args.candidates)
    }
    report = best_exact_match(storage.iter_dataset(args.refs), sets)
    rates = ", ".join(f"{k}={v}%" for k, v in report["sources"].items())
    print(f"best exact match: {report['best_exact_match_rate']}%  ({rates})")
    return 0, report


def _cmd_stats(args) -> tuple[int, dict]:
    discussions = storage.load_discussions(args.discussions)
    descriptions = storage.load_descriptions(args.desc) if args.desc else None
    report = dataset_stats(storage.iter_dataset(args.dataset), discussions, descriptions=descriptions)
    overall = report["overall"]
    print(
        f"{overall['num_examples']} examples, "
        f"{overall['num_linked_discussions']} linked discussions, "
        f"{overall['avg_discussions_per_example']} discussions/example, "
        f"{overall['avg_utterances_per_discussion']} utterances/discussion"
    )
    return 0, report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, sub_by_name = build_parser()
    try:
        args = _apply_config(parser, sub_by_name, argv)
        sp = sub_by_name[args.command]
        _check_outputs(sp, args)
        try:
            run_log = open(args.run_log, "a", encoding="utf-8") if args.run_log else contextlib.nullcontext()
        except OSError as exc:
            raise ValueError(f"--run-log {args.run_log}: {exc.strerror}") from None
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    logging.basicConfig(
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    with run_log:
        try:
            # Taken before the command writes, so an output that replaces an input is not fingerprinted.
            inputs = _fingerprints(sp, args)
            code, details = args.run(args)
            details["inputs"] = inputs
            if args.report is not None:
                if args.out:
                    storage.save_report(args.out, details)
                details = {k: details[k] for k in args.report or details}
        except (MissingAuxInput, RecordError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code, details = 2, {"error": str(exc)}
        if args.run_log:
            entry = {
                "command": args.command,
                "argv": argv,
                "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "exit_code": code,
                **details,
            }
            run_log.write(storage._jsonl_line(entry))
    return code


if __name__ == "__main__":
    sys.exit(main())
