"""Layer tracer: spans and counters recorded around the public functions of
every ``detmart`` module, from outside the library.

``Tracer.install`` replaces each public module-level function of the layer
modules (and ``simulate._run_blocks``, the worker-pool boundary) with a
wrapper that records a span.  Because the module attribute is replaced,
calls made inside a module are traced as well.  Each thread keeps its own
parent stack; blocks that ``_run_blocks`` hands to the thread pool get a
span whose parent is the ``_run_blocks`` span, so work done in pool
threads nests under the call that started it.  ``uninstall`` restores
every attribute.  Untraced runs never import this module.

Counters are recorded at the same boundaries, on the span that did the
work, and summed by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict

import numpy as np

#: the modules of ``src/detmart``, one layer each
LAYERS = (
    "cli",
    "verify",
    "simulate",
    "martingales",
    "configurations",
    "specfun",
    "quadrature",
    "kernels",
    "fredholm",
    "oconnell",
)

# dict registries whose values are layer functions called without an
# attribute lookup
_REGISTRIES = {"cli": "_COMMANDS", "verify": "SUITES"}

_KERNEL_VALUE_SPANS = ("kernels.kernel_eval", "kernels.kernel_eval_grid")
_WEIGHT_SPANS = ("simulate.det_weight", "simulate.cpr_weight")


class Span:
    """One traced call: [start, end] in ``time.perf_counter`` seconds."""

    __slots__ = ("id", "name", "layer", "parent", "job", "start", "end", "counts")

    def __init__(self, id_, name, layer, parent, job):
        self.id = id_
        self.name = name
        self.layer = layer
        self.parent = parent
        self.job = job
        self.start = 0.0
        self.end = 0.0
        self.counts = None

    def add(self, key: str, value: float = 1.0):
        if self.counts is None:
            self.counts = defaultdict(float)
        self.counts[key] += value

    FIELDS = ("id", "parent", "job", "name", "start", "end", "counts")

    def row(self) -> list:
        return [self.id, self.parent, self.job, self.name, self.start, self.end,
                dict(self.counts) if self.counts else None]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _last_time(times) -> float:
    return float(list(times)[-1])


class Tracer:
    """Holds the spans of one traced run in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list = []

    # -- span bookkeeping -------------------------------------------------

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, layer, parent=None):
        stack = self.stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), name, layer, parent, self.job)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def inside(self, names) -> bool:
        """Whether an open span of this thread has one of ``names``."""
        return any(s.name in names for s in self.stack())

    def wrap(self, layer, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                if before is not None:
                    args, kwargs = before(span, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, key, value, item=False):
        if item:
            self._saved.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._saved.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def install(self):
        """Wrap the layer functions and ``numpy.linalg.det``."""
        hooks = self._hooks()
        for layer in LAYERS:
            mod = importlib.import_module(f"detmart.{layer}")
            wrapped = {}
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                before, after = hooks.get(name, (None, None))
                wrapped[obj] = self.wrap(layer, name, obj, before, after)
                self._set(mod, attr, wrapped[obj])
            registry = _REGISTRIES.get(layer)
            if registry:
                table = getattr(mod, registry)
                for key, obj in list(table.items()):
                    if obj in wrapped:
                        self._set(table, key, wrapped[obj], item=True)
        sim = importlib.import_module("detmart.simulate")
        self._set(sim, "_run_blocks", self.wrap("simulate", "simulate._run_blocks",
                                                self._pool_boundary(sim._run_blocks)))
        self._set(np.linalg, "det", self._counting_det(np.linalg.det))

    def uninstall(self):
        while self._saved:
            owner, key, value, item = self._saved.pop()
            if item:
                owner[key] = value
            else:
                setattr(owner, key, value)

    def _pool_boundary(self, run_blocks):
        """Give each block a span parented by the ``_run_blocks`` span, in
        whichever thread the pool runs it, and record CPU time so that the
        parallel fraction can be measured."""
        tracer = self

        def traced_run_blocks(n_paths, workers, block_fn):
            owner = tracer.stack()[-1]
            layer = block_fn.__module__.rsplit(".", 1)[-1]

            def block(index, size):
                span = tracer._open(f"{layer}.block", layer, parent=owner.id)
                try:
                    return block_fn(index, size)
                finally:
                    tracer._close(span)

            cpu = time.process_time()
            try:
                return run_blocks(n_paths, workers, block)
            finally:
                owner.add("cpu_s", time.process_time() - cpu)

        return traced_run_blocks

    def _counting_det(self, det):
        tracer = self

        def traced_det(a):
            stack = tracer.stack()
            if stack and stack[-1].layer == "fredholm":
                shape = np.shape(a)
                count = math.prod(shape[:-2])
                stack[-1].add("dets", count)
                stack[-1].add("det_flops", count * 2.0 / 3.0 * shape[-1] ** 3)
            return det(a)

        return traced_det

    def _hooks(self) -> dict:
        """(before, after) callbacks that record counters per function."""
        tracer = self

        def count(key, fn=lambda a, k, r: 1):
            def after(span, args, kwargs, result):
                span.add(key, fn(args, kwargs, result))

            return None, after

        def size_of(index, name):
            return lambda a, k, r: np.size(_arg(a, k, index, name))

        def ctime_draws(a, k, r):
            size = _arg(a, k, 2, "size")
            truncation = _arg(a, k, 3, "truncation", 1000)
            return truncation * (1 if size is None else math.prod(np.atleast_1d(size)))

        def sampler(path_index, time_index, horizon_index=None):
            def after(span, args, kwargs, result):
                n = _arg(args, kwargs, path_index, "n_paths")
                span.add("paths", n)
                if _arg(args, kwargs, 0, "process").tag == "RW":
                    horizon = None
                    if horizon_index is not None:
                        horizon = _arg(args, kwargs, horizon_index, "T")
                    if horizon is None:
                        horizon = _last_time(_arg(args, kwargs, time_index, "times"))
                    span.add("walk_steps", n * horizon)

            return None, after

        def noncolliding(span, args, kwargs, result):
            n = _arg(args, kwargs, 4, "n_paths")
            horizon = _last_time(_arg(args, kwargs, 2, "times"))
            dt = _arg(args, kwargs, 3, "dt")
            span.add("paths", n)
            span.add("euler_steps", n * max(1, math.ceil(horizon / dt)))

        def noncolliding_rw(span, args, kwargs, result):
            n = _arg(args, kwargs, 2, "n_paths")
            span.add("paths", n)
            span.add("walk_steps", n * _last_time(_arg(args, kwargs, 1, "times")))

        def weight_rows(name):
            return lambda a, k, r: math.prod(np.shape(_arg(a, k, 3, name))[:-1])

        def kernel_values(span, args, kwargs, result):
            if not tracer.inside(_KERNEL_VALUE_SPANS):
                span.add("values", np.size(result))
            if span.name == "kernels.kernel_eval":
                span.add("scalar_calls")
            elif tracer.stack() and tracer.stack()[-1].layer == "fredholm":
                span.add("kernel_cells", np.size(result))

        def integrand(span, args, kwargs):
            f = args[0] if args else kwargs.pop("f")

            def counted(x):
                span.add("integrand_evals", np.size(x))
                return f(x)

            return (counted,) + tuple(args[1:]), kwargs

        def dropped(span, args, kwargs, result):
            span.add("dropped", _arg(args, kwargs, 1, "n_paths") - result.n)

        def checks(span, args, kwargs, result):
            span.add("checks", len(result))
            span.add("checks_failed", sum(c["status"] != "pass" for c in result))

        return {
            "martingales.sample_ctime": count("gamma_draws", ctime_draws),
            "martingales.poly_values": count("poly_points", size_of(3, "x")),
            "martingales.poly_martingale": count("poly_points", size_of(3, "x")),
            "simulate.sample_free": sampler(3, 2),
            "simulate.dmr_expectation": sampler(4, 3, 6),
            "simulate.cpr_expectation": sampler(4, 3, 6),
            "simulate.attach_companions": count("paths", lambda a, k, r: r.n_paths),
            "simulate.sample_noncolliding": (None, noncolliding),
            "simulate.sample_noncolliding_rw": (None, noncolliding_rw),
            "simulate.det_weight": count("weight_rows", weight_rows("end_positions")),
            "simulate.cpr_weight": count("weight_rows", weight_rows("z_end")),
            "kernels.kernel_eval": (None, kernel_values),
            "kernels.kernel_eval_grid": (None, kernel_values),
            "kernels.correlation": count("correlation_calls"),
            "specfun.bessel_j": count("bessel_j_points", size_of(1, "x")),
            "specfun.log_gamma": count("log_gamma_points", size_of(0, "z")),
            "quadrature.adaptive_gauss_legendre": (integrand, lambda s, a, k, r: s.add("adaptive_calls")),
            "fredholm.fredholm_series": count("series_calls"),
            "oconnell.phi_lift": count("phi_lift_points", size_of(3, "x")),
            "oconnell.oconnell_theta_cpr": (None, dropped),
            "oconnell.oconnell_theta_dmr": (None, dropped),
            "verify.run_suite": (None, checks),
        }

    def write(self, path: str):
        """One JSON array per line: a header of field names, then spans."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(Span.FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.row()) + "\n")


# --------------------------------------------------------------------------
# span arithmetic
# --------------------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] that the union of intervals covers."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its children cover.

    Children that ran in other threads may overlap one another; their
    union, not their sum, is subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children.get(s.id, ())) for s in spans}


def layer_metrics(spans, bytes_out: float) -> dict:
    """The per-layer metrics of one traced round."""
    own = self_times(spans)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        self_s[s.layer] += own[s.id]
        calls[s.layer] += 1
        if s.counts:
            for key, value in s.counts.items():
                counts[(s.layer, key)] += value
    ctime = sum((s.end - s.start for s in spans if s.name == "martingales.sample_ctime"), 0.0)
    pool = [s for s in spans if s.name == "simulate._run_blocks"]
    pool_wall = sum(s.end - s.start for s in pool)
    pool_cpu = sum(s.counts["cpu_s"] for s in pool if s.counts)
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "martingales.ctime_s": ctime,
        "martingales.ctime_gamma_draws": counts[("martingales", "gamma_draws")],
        "martingales.poly_points": counts[("martingales", "poly_points")],
        "simulate.paths": counts[("simulate", "paths")],
        "simulate.euler_steps": counts[("simulate", "euler_steps")],
        "simulate.walk_steps": counts[("simulate", "walk_steps")],
        "simulate.weight_s": sum((s.end - s.start for s in spans if s.name in _WEIGHT_SPANS), 0.0),
        "simulate.weight_rows": counts[("simulate", "weight_rows")],
        "simulate.parallel_frac": pool_cpu / pool_wall if pool_wall > 0 else 0.0,
        "kernels.values": counts[("kernels", "values")],
        "kernels.scalar_calls": counts[("kernels", "scalar_calls")],
        "kernels.correlation_calls": counts[("kernels", "correlation_calls")],
        "specfun.bessel_j_points": counts[("specfun", "bessel_j_points")],
        "specfun.log_gamma_points": counts[("specfun", "log_gamma_points")],
        "quadrature.adaptive_calls": counts[("quadrature", "adaptive_calls")],
        "quadrature.integrand_evals": counts[("quadrature", "integrand_evals")],
        "fredholm.series_calls": counts[("fredholm", "series_calls")],
        "fredholm.kernel_cells": counts[("kernels", "kernel_cells")],
        "fredholm.dets": counts[("fredholm", "dets")],
        "fredholm.det_flops_computed": counts[("fredholm", "det_flops")],
        "oconnell.phi_lift_points": counts[("oconnell", "phi_lift_points")],
        "oconnell.dropped": counts[("oconnell", "dropped")],
        "configurations.calls": float(calls["configurations"]),
        "cli.bytes_out": float(bytes_out),
        "verify.checks": counts[("verify", "checks")],
        "verify.checks_failed": counts[("verify", "checks_failed")],
    })
    return {k: float(v) for k, v in out.items()}
