"""Span tracing of the fhn_pulse layers, installed from outside the package.

A `Tracer` replaces each traced function at every binding a caller can
reach: the defining module's attribute and every `from ... import` copy in
the other `fhn_pulse` modules (and the package namespace). Each call
records a span `[name, start, end, parent]` in memory; self times, call
counts and the layer counters are computed from the spans and the
counters after the run. `uninstall` puts every original binding back, so
untraced repetitions in the same process run the unmodified code.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from time import perf_counter

# (layer metric prefix, defining module, attribute). The metric prefix is
# "<module>.<function>" without the package name.
TARGETS = (
    ("operators.solve_inhibitor", "fhn_pulse.operators", "solve_inhibitor"),
    ("operators.solve_shifted", "fhn_pulse.operators", "solve_shifted"),
    ("operators.apply_green", "fhn_pulse.operators", "apply_green"),
    ("operators.factor_shifted", "fhn_pulse.operators", "factor_shifted"),
    ("operators.solve_factored", "fhn_pulse.operators", "solve_factored"),
    ("energy.evaluate_energy", "fhn_pulse.energy", "evaluate_energy"),
    ("model.potential_F", "fhn_pulse.model", "potential_F"),
    ("model.reaction_f", "fhn_pulse.model", "reaction_f"),
    ("admissible.project", "fhn_pulse.admissible", "project"),
    ("admissible.band_bounds", "fhn_pulse.admissible", "band_bounds"),
    ("admissible.detect_crossings", "fhn_pulse.admissible", "detect_crossings"),
    ("grid.Profile.__post_init__", "fhn_pulse.grid", "Profile.__post_init__"),
    ("grid.profile_to_csv", "fhn_pulse.grid", "profile_to_csv"),
    ("grid.profile_from_csv", "fhn_pulse.grid", "profile_from_csv"),
    ("minimizer.minimize", "fhn_pulse.minimizer", "minimize"),
    ("minimizer.default_initial_profile", "fhn_pulse.minimizer", "default_initial_profile"),
    ("dynamics.evolve", "fhn_pulse.dynamics", "evolve"),
    ("dynamics.export_trajectory", "fhn_pulse.dynamics", "export_trajectory"),
    ("analysis.verify_inequality_suite", "fhn_pulse.analysis", "verify_inequality_suite"),
    ("analysis.check_pulse_properties", "fhn_pulse.analysis", "check_pulse_properties"),
    ("cli.main", "fhn_pulse.cli", "main"),
    ("cli.load_solve_run", "fhn_pulse.cli", "load_solve_run"),
)

ROOT = "bench.body"


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 8))


def _size(x) -> int:
    return int(getattr(x, "size", 1))


# Compulsory traffic of each kernel, computed from array sizes: every input
# array read once plus the output written once (float64). It ignores the
# temporaries an implementation creates and cache misses, so it is a
# computed lower bound, not a measured bandwidth.
def _solve_factored_size(args, kwargs, result):
    factor, rhs = args[0], args[1]
    return _size(rhs), _nbytes(factor) + _nbytes(rhs) + _nbytes(result)


def _solve_shifted_size(args, kwargs, result):
    c, rhs = args[0], args[1]
    return _size(rhs), _nbytes(c) + _nbytes(rhs) + _nbytes(result)


def _potential_F_size(args, kwargs, result):
    xi = args[0]
    return _size(xi), _nbytes(xi) + _nbytes(result)


# Kernels whose array length and computed bytes are recorded per call.
_KERNEL_SIZES = {
    "operators.solve_factored": _solve_factored_size,
    "operators.solve_shifted": _solve_shifted_size,
    "model.potential_F": _potential_F_size,
}
KERNELS = tuple(_KERNEL_SIZES)


def _count_result(tracer, name, args, kwargs, result):
    c = tracer.counters
    if name == "operators.solve_inhibitor":
        c["newton_iters"] += result.newton_iters
    elif name == "minimizer.minimize":
        c["outer_iters"] += result.iterations
    elif name == "dynamics.evolve":
        c["evolve_steps"] += result.n_steps
    elif name == "grid.profile_to_csv":
        c["csv_bytes_written"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
    elif name == "grid.profile_from_csv":
        c["csv_bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])
    sizer = _KERNEL_SIZES.get(name)
    if sizer is not None:
        elems, nbytes = sizer(args, kwargs, result)
        c[name + ".elems"] += elems
        c[name + ".bytes"] += nbytes


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self.bindings: dict[str, list[str]] = {}
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counters = _zero_counters()
        self._stack = [-1]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block; yields its [name, start, end,
        parent] record."""
        rec = [name, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            _count_result(self, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Reset the spans and counters and replace every binding of each
        target with its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.reset()
        mods = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "fhn_pulse" or key.startswith("fhn_pulse."))
        ]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                self.bindings[name] = [f"{module_name}.{attr}"]
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            where = []
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapped)
                        where.append(f"{m.__name__}.{key}")
            self.bindings[name] = where

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patched):
            setattr(obj, key, orig)
        self._patched = []


def _zero_counters() -> dict[str, float]:
    c = {
        "newton_iters": 0,
        "outer_iters": 0,
        "evolve_steps": 0,
        "csv_bytes_written": 0,
        "csv_bytes_read": 0,
    }
    for k in KERNELS:
        c[k + ".elems"] = 0
        c[k + ".bytes"] = 0
    return c


def layer_metrics(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, computed from its spans.

    Self time is a span's duration minus the durations of its direct
    children (spans nest, one thread). The root span is the timed body.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    calls = {name: 0 for name, _, _ in TARGETS}
    incl = {name: 0.0 for name, _, _ in TARGETS}
    self_t = {name: 0.0 for name, _, _ in TARGETS}
    root_ids = [i for i, s in enumerate(spans) if s[0] == ROOT]
    if len(root_ids) != 1:
        raise RuntimeError(f"expected one root span, found {len(root_ids)}")
    root = root_ids[0]
    ls_trials = 0
    for i, (name, t0, t1, parent) in enumerate(spans):
        if name == ROOT:
            continue
        dur = t1 - t0
        calls[name] += 1
        incl[name] += dur
        self_t[name] += dur - child_time[i]
        if name == "energy.evaluate_energy" and parent >= 0 and spans[parent][0] == "minimizer.minimize":
            ls_trials += 1

    m: dict[str, float] = {}
    for name, _, _ in TARGETS:
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = incl[name]
        m[name + ".self_s"] = self_t[name]

    newton = counters["newton_iters"]
    m["operators.solve_inhibitor.newton_iters"] = newton
    si_calls = calls["operators.solve_inhibitor"]
    m["operators.solve_inhibitor.newton_per_call"] = newton / si_calls if si_calls else 0.0
    m["grid.csv_bytes_read"] = counters["csv_bytes_read"]
    m["grid.csv_bytes_written"] = counters["csv_bytes_written"]

    outer = counters["outer_iters"]
    m["minimizer.outer_iters"] = outer
    m["minimizer.ls_trials"] = ls_trials
    m["minimizer.accept_ratio"] = outer / ls_trials if ls_trials else 0.0
    m["minimizer.s_per_iter"] = incl["minimizer.minimize"] / outer if outer else 0.0

    steps = counters["evolve_steps"]
    m["dynamics.evolve.steps"] = steps
    m["dynamics.evolve.us_per_step"] = 1e6 * incl["dynamics.evolve"] / steps if steps else 0.0

    for k in KERNELS:
        kc = calls[k]
        m[k + ".elems_per_call"] = counters[k + ".elems"] / kc if kc else 0.0
        m[k + ".computed_bytes_per_call"] = counters[k + ".bytes"] / kc if kc else 0.0

    _, r0, r1, _ = spans[root]
    m["trace.root.self_s"] = (r1 - r0) - child_time[root]
    m["trace.root.children_s"] = child_time[root]
    return m
