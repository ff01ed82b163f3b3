"""Spans and call counts around the public API of every bregiter module.

``Tracer.install`` replaces, from outside the package, each public module
function (and the sweep worker ``harness._sweep_point``) with a wrapper that
records a span ``[name, start, end, parent, pass]``, and each per-step method
of the geometry, operator and perturbation classes with a wrapper that counts
calls.  Spans are kept in memory and written out once at the end.
``layer_metrics`` turns one pass's spans and counts into the per-layer
metrics, with self time = duration minus the time of direct child spans.

Work done in sweep worker processes is not seen: their spans stay in the
workers.  Counts therefore cover the in-process (serial) path only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "harness", "config", "engine", "operators", "geometry", "analysis", "perturbation")

#: per-step methods: counted, not spanned, to keep the overhead low
COUNTED = {"geometry": ("check_point", "divergence", "project"), "operators": ("apply",)}
#: methods that get spans
SPANNED = {"operators": ("fixed_point",), "perturbation": ("sample",)}

PARSE_SPANS = {"config.load_config_file", "config.from_dict", "config.from_file",
               "config.apply_overrides"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.pass_id = -1
        self._undo: list[tuple] = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.pass_id]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    # --- hooks that turn arguments and results into counts -----------------

    def _after_run(self, args, result):
        self.counts["engine.steps"] += args[0].iterations

    def _after_eps(self, args, result):
        cfg = args[0]
        rerun = result if result >= 0 else 10**7  # CENSORED ran to the default cap
        self.counts["engine.eps_rerun_steps"] += rerun
        self.counts["engine.eps_past_horizon_steps"] += max(0, rerun - cfg.iterations)

    def _after_write_trace(self, args, result):
        self.counts["harness.trace_bytes"] += Path(args[0]).stat().st_size

    # --- install / uninstall ----------------------------------------------

    def install(self):
        import numpy as np

        import bregiter
        mods = {name: importlib.import_module(f"bregiter.{name}") for name in MODULES}
        holders = [bregiter, *mods.values()]
        after = {"engine.run": self._after_run,
                 "engine.iterations_to_epsilon": self._after_eps,
                 "harness.write_trace_csv": self._after_write_trace}
        for short, mod in mods.items():
            names = [n for n, f in vars(mod).items()
                     if inspect.isfunction(f) and f.__module__ == mod.__name__ and not n.startswith("_")]
            if short == "harness":
                names.append("_sweep_point")
            for n in names:
                fn = getattr(mod, n)
                wrapped = self._span(f"{short}.{n}", fn, after.get(f"{short}.{n}"))
                for holder in holders:  # also rebind names imported with from-imports
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, attr, wrapped)
            for cls in vars(mod).values():
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for meth in COUNTED.get(short, ()):
                    if meth in vars(cls):
                        self._set(cls, meth, self._counter(f"{short}.{meth}", vars(cls)[meth]))
                for meth in SPANNED.get(short, ()):
                    if meth in vars(cls):
                        self._set(cls, meth, self._span(f"{short}.{meth}", vars(cls)[meth]))
        # harness writes states.npz through numpy; time that call as its own layer
        self._set(np, "savez_compressed", self._span("harness.write_states", np.savez_compressed))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def begin_pass(self, pass_id: int) -> int:
        """Start a pass; returns the index of its first span."""
        self.pass_id = pass_id
        self.counts.clear()
        return len(self.spans)

    def write(self, path: Path):
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "pass"], "spans": self.spans,
        }) + "\n")


def self_times(spans: list[list], lo: int, hi: int) -> Counter:
    """Self time per span name over spans[lo:hi]."""
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = spans[i][3]
        if p >= lo:
            child[p - lo] += spans[i][2] - spans[i][1]
    out = Counter()
    for i in range(lo, hi):
        out[spans[i][0]] += spans[i][2] - spans[i][1] - child[i - lo]
    return out


def inclusive(spans: list[list], lo: int, hi: int, names: set) -> float:
    """Total time of spans named in ``names`` that are not nested in another such span."""
    nested = [False] * (hi - lo)
    total = 0.0
    for i in range(lo, hi):
        name, start, end, p, _ = spans[i]
        if p >= lo:
            nested[i - lo] = nested[p - lo] or spans[p][0] in names
        if name in names and not nested[i - lo]:
            total += end - start
    return total


def layer_metrics(spans: list[list], lo: int, hi: int, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass (spans[lo:hi] and its counts)."""
    own = self_times(spans, lo, hi)

    def incl(*names):
        return inclusive(spans, lo, hi, set(names))

    sweep_points = [s[2] - s[1] for s in spans[lo:hi] if s[0] == "harness._sweep_point"]
    rerun = counts["engine.eps_rerun_steps"]
    return {
        "config.parse_s": incl(*PARSE_SPANS),
        "operators.fixed_point_s": incl("operators.fixed_point"),
        "operators.contraction_s": incl("operators.estimate_contraction"),
        "harness.sweep_point_s": sum(sweep_points) / len(sweep_points) if sweep_points else 0.0,
        "geometry.check_point_calls": counts["geometry.check_point"],
        "geometry.divergence_calls": counts["geometry.divergence"],
        "geometry.project_calls": counts["geometry.project"],
        "operators.apply_calls": counts["operators.apply"],
        "engine.loop_us_per_step": 1e6 * own["engine.run"] / max(counts["engine.steps"], 1),
        "engine.eps_s": incl("engine.iterations_to_epsilon"),
        "engine.eps_rerun_steps": rerun,
        "engine.eps_useful_ratio": counts["engine.eps_past_horizon_steps"] / rerun if rerun else 0.0,
        "perturbation.sample_s": incl("perturbation.sample"),
        "perturbation.sample_calls": sum(1 for s in spans[lo:hi] if s[0] == "perturbation.sample"),
        "analysis.audit_s": incl("analysis.build_audit_report"),
        "analysis.descent_s": incl("analysis.audit_descent"),
        "analysis.cross_term_s": incl("analysis.audit_cross_term"),
        "analysis.recursion_s": incl("analysis.audit_recursion"),
        "analysis.envelope_s": incl("analysis.gronwall_envelope"),
        "analysis.fit_rate_s": incl("analysis.fit_rate"),
        "harness.read_trace_s": incl("harness.read_trace_csv"),
        "harness.write_trace_s": incl("harness.write_trace_csv"),
        "harness.write_states_s": incl("harness.write_states"),
        "harness.trace_bytes": counts["harness.trace_bytes"],
        "harness.summarize_self_s": own["harness.summarize"],
        "cli.self_s": own["cli.main"],
    }
