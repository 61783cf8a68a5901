"""Outside-in layer tracing: wrap the public functions of each intermod module.

A :class:`Tracer` records one span per call of a wrapped function: its
duration, its self time (duration minus the time covered by wrapped calls
it made) and the name of the wrapped caller.  Spans that have no wrapped
caller are roots; their intervals are kept so the time the CLI spends
outside every layer (parsing, formatting, writing, process pools) is the
traced wall time minus the union of the roots.

Spans stay in memory.  A process dumps its aggregate to ``proc-<pid>.json``
in the trace directory: a pool worker after each root span it ends (it may
be killed without running exit handlers), the launching process when the
CLI returns.  Worker processes must be forked from a traced process to be
traced; a worker started by ``spawn`` would run unwrapped code.

Branch and work facts come from the arguments and results seen at the
boundary, never from inside the program:

- ``regularized_lower_gamma(s, x)``: series branch if 0 < x < s + 1,
  continued fraction if x >= s + 1 (the rule its docstring states); "large
  s" means s >= 1e5.
- ``find_n_alpha``: a None result is an unmet point.
- ``run_ber(config)``: used samples are n_bits x n_samples; generated OFDM
  samples are the elements ``numpy.fft.ifft`` returned during the call.
  Both are kept per N, so the draw efficiency of the worst N shows.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("channel", "weights", "detector", "simulator", "sumrate")
LARGE_S = 1e5


def _gamma_branch(args, kwargs, ret, counters):
    s = args[0] if args else kwargs["s"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    branch = "zero" if x == 0.0 else ("series" if x < s + 1.0 else "cf")
    return branch + ("/large" if s >= LARGE_S else "")


def _n_alpha_met(args, kwargs, ret, counters):
    return "unmet" if ret is None else "met"


def _ber_work(args, kwargs, ret, counters):
    # run_ber calls in one process are serial, so the IFFT samples not yet
    # attributed to a call belong to this one.
    config = args[0] if args else kwargs["config"]
    generated = counters["ofdm_samples"] - counters["ofdm_attributed"]
    counters["ofdm_attributed"] += generated
    counters[f"used_samples.n{config.n_samples}"] += config.n_bits * config.n_samples
    counters[f"ofdm_samples.n{config.n_samples}"] += generated
    return None


HOOKS = {
    "detector.regularized_lower_gamma": _gamma_branch,
    "sumrate.find_n_alpha": _n_alpha_met,
    "simulator.run_ber": _ber_work,
}


class Tracer:
    """In-memory span recorder for wrapped functions."""

    def __init__(self, trace_dir: Path | None = None, clock=time.perf_counter):
        self.trace_dir = trace_dir
        self.clock = clock
        self.owner_pid = os.getpid()
        self.stack: list[list] = []  # open spans: [name, time covered by children]
        self.records: dict[str, list[tuple]] = {}  # name -> [(dur, self, parent, tag)]
        self.roots: list[tuple[float, float]] = []
        self.counters: Counter = Counter()

    def reset(self) -> None:
        """Forget everything recorded; a forked child starts from nothing."""
        self.stack.clear()
        for recs in self.records.values():
            recs.clear()
        self.roots.clear()
        self.counters.clear()

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        stack, roots, counters, clock = self.stack, self.roots, self.counters, self.clock
        recs = self.records.setdefault(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                ret = fn(*args, **kwargs)
                ok = True
                return ret
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent_name = parent[0]
                else:
                    parent_name = None
                    roots.append((t0, t1))
                tag = hook(args, kwargs, ret, counters) if hook is not None and ok else None
                recs.append((dur, dur - frame[1], parent_name, tag))
                if not stack and self.trace_dir is not None and os.getpid() != self.owner_pid:
                    self.dump()

        return traced

    def aggregate(self) -> dict:
        """JSON-ready per-process aggregate of every span recorded so far."""
        functions = {}
        for name, recs in self.records.items():
            if not recs:
                continue
            functions[name] = {
                "calls": len(recs),
                "self_s": sum(r[1] for r in recs),
                "dur": [r[0] for r in recs],
                "parents": dict(Counter(r[2] for r in recs if r[2] is not None)),
                "tags": _tag_totals(recs),
            }
        return {"pid": os.getpid(), "roots": list(self.roots),
                "functions": functions, "counters": dict(self.counters)}

    def dump(self) -> None:
        path = self.trace_dir / f"proc-{os.getpid()}.json"
        path.write_text(json.dumps(self.aggregate()), encoding="utf-8")


def _tag_totals(recs) -> dict:
    totals: dict[str, list] = {}
    for _, self_s, _, tag in recs:
        if tag is not None:
            entry = totals.setdefault(tag, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
    return totals


def install(tracer: Tracer) -> None:
    """Wrap every public function defined in each layer module, everywhere
    intermod refers to it, and count ``numpy.fft.ifft`` output samples.

    Call before the CLI runs and before any pool forks; forked children
    reset their copy of the tracer.
    """
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"intermod.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[id(obj)] = tracer.wrap(name, obj, HOOKS.get(name))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "intermod" and not mod_name.startswith("intermod."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])

    ifft = np.fft.ifft
    counters = tracer.counters

    @functools.wraps(ifft)
    def counted_ifft(a, *args, **kwargs):
        out = ifft(a, *args, **kwargs)
        counters["ofdm_samples"] += out.size
        return out

    np.fft.ifft = counted_ifft
    os.register_at_fork(after_in_child=tracer.reset)


# -- turning per-process dumps into per-layer metrics -------------------------

def merge(dumps: list[dict]) -> dict:
    """Combine per-process aggregates into one."""
    functions: dict[str, dict] = {}
    counters: Counter = Counter()
    roots = []
    for dump in dumps:
        roots.extend(tuple(r) for r in dump["roots"])
        counters.update(dump["counters"])
        for name, f in dump["functions"].items():
            into = functions.setdefault(
                name, {"calls": 0, "self_s": 0.0, "dur": [], "parents": Counter(), "tags": {}})
            into["calls"] += f["calls"]
            into["self_s"] += f["self_s"]
            into["dur"].extend(f["dur"])
            into["parents"].update(f["parents"])
            for tag, (calls, self_s) in f["tags"].items():
                entry = into["tags"].setdefault(tag, [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
    return {"functions": functions, "counters": counters, "roots": roots}


def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def per_layer_metrics(merged: dict, wall_s: float, t0: float, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced CLI invocation.

    ``wall_s`` is the traced time of the CLI's ``main`` starting at ``t0``
    (same clock as the spans); ``jobs`` is the invocation's ``--jobs``.
    """
    funcs, counters = merged["functions"], merged["counters"]
    empty = {"calls": 0, "self_s": 0.0, "dur": [], "parents": {}, "tags": {}}

    def fn(name):
        return funcs.get(name, empty)

    def pct(name, q, scale):
        dur = fn(name)["dur"]
        return float(np.percentile(dur, q)) * scale if dur else 0.0

    def tagged(name, pred):
        tags = fn(name)["tags"]
        hits = [v for k, v in tags.items() if pred(k)]
        return sum(v[0] for v in hits), sum(v[1] for v in hits)

    m: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, f in funcs.items():
        layer_self[name.split(".", 1)[0]] += f["self_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["cli.self_s"] = wall_s - union_length(merged["roots"], t0, t0 + wall_s)
    m["cli.parallel_efficiency"] = layer_self["simulator"] / (jobs * wall_s)
    m["trace.wall_s"] = wall_s

    for name in ("simulator.run_ber", "detector.regularized_lower_gamma",
                 "detector.error_probability", "detector.optimal_threshold",
                 "sumrate.find_n_alpha", "sumrate.sweep_sum_rate",
                 "weights.build_weight_set", "weights.closed_form_norms",
                 "channel.make_correlated_pair"):
        m[f"{name}.calls"] = fn(name)["calls"]
        m[f"{name}.self_s"] = fn(name)["self_s"]

    ber = fn("simulator.run_ber")
    def by_n(prefix):
        return {k[len(prefix):]: v for k, v in counters.items() if k.startswith(prefix)}

    used_by_n, drawn_by_n = by_n("used_samples."), by_n("ofdm_samples.")
    used, drawn = sum(used_by_n.values()), sum(drawn_by_n.values())
    m["simulator.msamples_per_self_s"] = used / ber["self_s"] / 1e6 if ber["self_s"] else 0.0
    m["simulator.draw_efficiency"] = used / drawn if drawn else 0.0
    m["simulator.draw_efficiency_min"] = min(
        (used_by_n[n] / drawn_by_n[n] for n in used_by_n if drawn_by_n.get(n)), default=0.0)
    m["simulator.run_ber.max_point_s"] = max(ber["dur"], default=0.0)

    rlg = "detector.regularized_lower_gamma"
    m[f"{rlg}.series_calls"] = tagged(rlg, lambda t: t.startswith("series"))[0]
    m[f"{rlg}.cf_calls"] = tagged(rlg, lambda t: t.startswith("cf"))[0]
    m[f"{rlg}.large_s_calls"], m[f"{rlg}.large_s_self_s"] = tagged(
        rlg, lambda t: t.endswith("/large"))
    m[f"{rlg}.p50_us"] = pct(rlg, 50, 1e6)
    m[f"{rlg}.p99_us"] = pct(rlg, 99, 1e6)
    m[f"{rlg}.max_s"] = max(fn(rlg)["dur"], default=0.0)

    fna = "sumrate.find_n_alpha"
    calls = fn(fna)["calls"]
    pe_evals = fn("detector.error_probability")["parents"].get(fna, 0)
    m[f"{fna}.p50_ms"] = pct(fna, 50, 1e3)
    m[f"{fna}.p99_ms"] = pct(fna, 99, 1e3)
    m[f"{fna}.pe_evals_per_call"] = pe_evals / calls if calls else 0.0
    m["sumrate.unmet_frac"] = tagged(fna, lambda t: t == "unmet")[0] / calls if calls else 0.0
    return m
