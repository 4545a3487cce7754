"""Spans and counts around the calls into lensmimo's modules, from outside.

``Tracer`` replaces every binding of a layer module's public function, in
the package and in every layer module that imported it, with a wrapper that
records a span: name, start, end and the span that caused it.
Bindings are restored on exit. Spans stay in memory and are folded into
per-function totals after each operation by ``take``.

A span with no open parent on its own thread (a Monte-Carlo worker) is the
child of the innermost span open on the thread that entered the tracer.
Self time is a span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
import warnings
from collections import Counter, defaultdict

LAYERS = ("waveoptics", "profile_cache", "feedback", "channel", "linklevel", "cli")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _fingerprint(a) -> tuple:
    # the first entries of a random codebook or a correlation factor; equal
    # only when the arrays are, with overwhelming probability, the same
    return a.shape, a.ravel()[:8].tobytes()


# Counters read off a call's arguments or result: (tracer, args, kwargs, result).
def _propagate(t, args, kwargs, result):
    t.count("waveoptics.plane_steps", len(result.zs) - 1)


def _antenna_power_profile(t, args, kwargs, result):
    t.key("waveoptics.antenna_power_profile",
          (_arg(args, kwargs, 0, "lens"), _arg(args, kwargs, 1, "grid"),
           _arg(args, kwargs, 2, "array"),
           float(_arg(args, kwargs, 3, "aod_deg")),
           int(_arg(args, kwargs, 4, "stride", 1))))


def _write_profile_table(t, args, kwargs, result):
    t.count("profile_cache.bytes_written",
            os.path.getsize(_arg(args, kwargs, 0, "path")))


def _read_profile_table(t, args, kwargs, result):
    t.count("profile_cache.bytes_read",
            os.path.getsize(_arg(args, kwargs, 0, "path")))


def _quantize(t, args, kwargs, result):
    t.count("feedback.codewords_scored",
            _arg(args, kwargs, 1, "codebook").vectors.shape[1])


def _correlate_codebook(t, args, kwargs, result):
    t.key("feedback.correlate_codebook",
          (_fingerprint(_arg(args, kwargs, 0, "codebook").vectors),
           _fingerprint(_arg(args, kwargs, 1, "s"))))


def _run_monte_carlo(t, args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    t.count("linklevel.cells", len(cfg.snr_db) * cfg.trials)
    t.count("linklevel.threads", _arg(args, kwargs, 2, "threads", 1))


HOOKS = {
    "waveoptics.propagate": _propagate,
    "waveoptics.antenna_power_profile": _antenna_power_profile,
    "profile_cache.write_profile_table": _write_profile_table,
    "profile_cache.read_profile_table": _read_profile_table,
    "feedback.quantize": _quantize,
    "feedback.correlate_codebook": _correlate_codebook,
    "linklevel.run_monte_carlo": _run_monte_carlo,
}


class OpTrace:
    """Per-function totals of one operation's spans, plus its counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: Counter = Counter()
        self.worker_busy_s = 0.0        # child-span time under run_monte_carlo
        self.worker_capacity_s = 0.0    # run_monte_carlo wall x threads


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Context manager that wraps lensmimo's public functions while active."""

    def __init__(self, package):
        self._package = package
        self._modules = [importlib.import_module(f"{package.__name__}.{m}")
                         for m in LAYERS]
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self._spans: list[tuple] = []
        self._counts: list[tuple[str, int]] = []
        self._keys: list[tuple[str, object]] = []

    # -- installation -----------------------------------------------------

    def public_functions(self) -> dict:
        """Original function object -> '<module>.<function>' for every layer."""
        found = {}
        for mod in self._modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    found[obj] = f"{layer}.{name}"
        return found

    def __enter__(self) -> "Tracer":
        self._local.stack = self._main_stack
        wrappers = {fn: self._wrap(name, fn) for fn, name in
                    self.public_functions().items()}
        for ns in (self._package, *self._modules):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            ns, attr, obj = self._patched.pop()
            setattr(ns, attr, obj)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, ids, perf = self._spans, self._ids, time.perf_counter
        main_stack, stack_of = self._main_stack, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # -- recording (list.append is atomic, so worker threads need no lock) --

    def count(self, name: str, value: int) -> None:
        self._counts.append((name, value))

    def key(self, name: str, key) -> None:
        self._keys.append((name, key))

    def take(self) -> OpTrace:
        """Fold the spans recorded since the last call into one OpTrace."""
        spans, counts, keys = self._spans[:], self._counts[:], self._keys[:]
        del self._spans[:], self._counts[:], self._keys[:]
        out = OpTrace()
        children = defaultdict(list)
        for sid, parent, name, t0, t1 in spans:
            children[parent].append((t0, t1))
        for name, value in counts:
            if name == "linklevel.threads":
                out.counts[name] = max(out.counts[name], value)
            else:
                out.counts[name] += value
        threads = max(1, out.counts["linklevel.threads"])
        for sid, parent, name, t0, t1 in spans:
            kids = children.get(sid, ())
            out.calls[name] += 1
            out.seconds[name] += t1 - t0
            out.self_seconds[name] += (t1 - t0) - _covered(kids, t0, t1)
            if name == "linklevel.run_monte_carlo":
                out.worker_busy_s += sum(b - a for a, b in kids)
                out.worker_capacity_s += (t1 - t0) * threads
        seen = defaultdict(set)
        for name, key in keys:
            seen[name].add(key)
        for name, distinct in seen.items():
            out.distinct[name] = len(distinct)
        return out


class WarningCounter:
    """Count warnings by the lensmimo module whose code called warnings.warn.

    lensmimo warns with stacklevel=2, so a warning's filename names the
    caller; the raising module is found on the live stack instead.
    """

    def __init__(self):
        self.counts: Counter = Counter()

    def __enter__(self) -> "WarningCounter":
        self._saved = warnings.catch_warnings()
        self._saved.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._show
        return self

    def __exit__(self, *exc) -> None:
        self._saved.__exit__(*exc)

    def _show(self, message, category, filename, lineno, file=None, line=None):
        frame = sys._getframe(1)
        while frame is not None:
            mod = frame.f_globals.get("__name__", "")
            if mod.startswith("lensmimo."):
                self.counts[mod.split(".", 1)[1]] += 1
                return
            frame = frame.f_back
        self.counts["other"] += 1
