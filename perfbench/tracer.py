"""Span recorder for the traced run, installed from outside the program.

``install`` wraps the public functions of every layer module of
``discforge`` (and ``__post_init__`` of each record type) and rebinds each
wrapped function in every ``discforge`` module that imported the name, so
``contexts.subtokenize`` and ``linking.normalize_timestamp`` are traced
like the originals. Functions are only wrapped where a layer module binds
them: the kernels' calls to their own helpers inside ``_puretok`` stay
unwrapped, so ``textproc.subtokenize`` covers the whole kernel. Generator
functions are left alone; their work shows in the consumer's self time.

Spans are kept in flat arrays in memory and written out once at the end.
Wrapped functions must run on the thread that installed the recorder
(``paired_bootstrap`` workers call only private helpers).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("textproc", "linking", "contexts", "records", "storage", "evaluate", "ingest", "cli")
KERNEL_MODULES = ("discforge._puretok", "discforge._speedups")


def _path_bytes(path):
    if os.path.isdir(path):
        return sum(
            os.path.getsize(os.path.join(path, n))
            for n in os.listdir(path)
            if n.endswith((".json", ".jsonl"))
        )
    return os.path.getsize(path)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.texts: set[str] = set()
        self.bootstrap: list[list[int]] = []

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, probe=None, name_of=None):
        """A traced stand-in for fn; name_of(args) overrides the span name per call."""
        fixed_id = self._name_id(name)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name.append(self._name_id(name_of(args)) if name_of else fixed_id)
            self.parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if probe is not None:
                probe(self, args, kwargs, result, t1 - t0)
            return result

        return traced

    def dump(self, directory):
        """Write the spans (four int64 columns) and their names."""
        with open(os.path.join(directory, "spans.bin"), "wb") as f:
            for col in (self.name, self.parent, self.start, self.end):
                array("q", col).tofile(f)
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as f:
            json.dump({"names": self.names, "n": len(self.start)}, f)

    def observations(self):
        out = dict(self.counts)
        out["textproc.normalize.distinct"] = len(self.texts)
        out["evaluate.paired_bootstrap.calls"] = self.bootstrap
        return out


# Probes read what a call did, at the layer boundary, in O(1) or one stat.


def _normalize(rec, args, kwargs, result, ns):
    rec.texts.add(args[0])


def _subtokenize(rec, args, kwargs, result, ns):
    rec.count("textproc.subtokenize.chars", len(args[0]))


def _truncate(rec, args, kwargs, result, ns):
    over = len(args[0]) - args[1]
    if over > 0:
        rec.count("contexts.truncated")
        rec.count("contexts.tokens_cut", over)


def _temporal_filter(rec, args, kwargs, result, ns):
    rec.count("linking.temporal_filter.dropped_utterances", len(args[0].utterances) - len(result.utterances))


def _load(rec, args, kwargs, result, ns):
    rec.count("storage.load.bytes", _path_bytes(args[0]))


def _load_traces(rec, args, kwargs, result, ns):
    rec.count("storage.traces.bytes", _path_bytes(args[0]))


def _save(rec, args, kwargs, result, ns):
    rec.count("storage.save.bytes", os.path.getsize(args[0]))


def _bootstrap(rec, args, kwargs, result, ns):
    rec.bootstrap.append([kwargs.get("n_samples", 10000), kwargs.get("n_jobs", 1), ns])


PROBES = {
    "textproc.process_discussion_text": _normalize,
    "textproc.subtokenize": _subtokenize,
    "textproc.truncate_from_end": _truncate,
    "linking.temporal_filter": _temporal_filter,
    "storage.load_traces": _load_traces,
    "evaluate.paired_bootstrap": _bootstrap,
}


def _probe_for(span):
    if span in PROBES:
        return PROBES[span]
    if span.startswith("storage.load_") and span != "storage.load_attention_trace":
        return _load
    if span.startswith("storage.save_"):
        return _save
    return None


def install(recorder):
    """Wrap every layer's public functions and rebind them wherever imported."""
    import discforge.cli  # noqa: F401  (imports ingest and every other layer)

    replacements = {}
    for layer in LAYERS:
        mod = sys.modules[f"discforge.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            owner = getattr(obj, "__module__", None)
            if inspect.isclass(obj):
                if owner == mod.__name__ and "__post_init__" in vars(obj):
                    obj.__post_init__ = recorder.wrap(obj.__post_init__, f"records.validate.{attr}")
                continue
            if not callable(obj) or inspect.isgeneratorfunction(obj):
                continue
            if owner != mod.__name__ and not (layer == "textproc" and owner in KERNEL_MODULES):
                continue
            span = f"{layer}.{attr}"
            if span == "cli.main":
                wrapper = recorder.wrap(obj, span, name_of=lambda args: f"cli.{args[0][0]}")
            else:
                wrapper = recorder.wrap(obj, span, _probe_for(span))
            replacements[id(obj)] = (obj, wrapper)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "discforge" and not mod_name.startswith("discforge."):
            continue
        if mod_name in KERNEL_MODULES:
            continue
        for attr, val in list(vars(mod).items()):
            hit = replacements.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    return recorder
