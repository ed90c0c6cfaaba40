"""Spans around the calls into each telefid layer, recorded from outside.

`Tracer.install` replaces a fixed set of public functions at every module
attribute through which they are looked up (`telefid.sim.sample_directions`,
`telefid.verify.simulate_qubit`, `telefid.compare.mean_polar_angle`, ...),
so that calls made inside the program are seen as well as the benchmark's
own.  `uninstall` puts the originals back.  Nothing under `src/` changes.

Spans are kept in memory, appended under a lock because the simulators may
call the samplers from worker threads, and written out when the run ends.
A span opened in a thread with no open span of its own takes as parent the
innermost open span of the main thread: the only other threads are the
simulators' chunk workers, which run while the main thread waits inside
the simulator call.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
import types
import warnings
from collections import Counter, defaultdict

# span name "<module>.<function>" -> the arguments kept with the span
TARGETS = {
    "distributions.sample_directions": ("n",),
    "distributions.sample_qutrit_inputs": ("n",),
    "distributions.mean_polar_angle": (),
    "sim.simulate_qubit": ("n_samples",),
    "sim.simulate_classical": ("n_samples",),
    "sim.qubit_runs": ("n_runs",),
    "sim.simulate_qutrit": ("n_samples",),
    "sim.qutrit_runs": ("n_runs",),
    "qutrit.qutrit_average_fidelity": ("method", "n_samples"),
    "qutrit.dimensional_advantage": (),
    "qutrit.theta4_for_fractional_info": (),
    "qutrit.participation_moment": (),
    "compare.match_by_mean_angle": (),
    "compare.match_by_classical_fidelity": (),
    "compare.sweep_comparison": (),
    "compare.delta_stats": (),
    "fidelity.fidelity_stats": (),
    "resources.required_entanglement": (),
    "resources.bell_probabilities_averaged": (),
    "cli.main": (),
    "verify.run_verification": (),
    "verify.run_check": ("name",),
}

SAMPLERS = ("distributions.sample_directions", "distributions.sample_qutrit_inputs")
# each keeps one argument: the number of samples (or shots) asked for
SIMULATORS = tuple(name for name in TARGETS if name.startswith("sim."))

VERIFY_CHECKS = (
    "density-normalization", "cos-moment-quadrature", "mean-angle-quadrature",
    "moment-formula-consistency", "pure-state-closed-forms", "golden-thresholds",
    "matching-roundtrip", "comparison-theorems", "resource-tradeoffs",
    "bell-outcome-closure", "sim-oracle-qubit", "sim-oracle-classical",
    "sim-oracle-qutrit", "qutrit-block", "dimensional-advantage",
    "limit-recovery", "werner-distribution-independence",
)

# (metric, unit, better); counts and verify times are per traced round
PER_LAYER = (
    ("distributions.sample_directions.ns_per_sample", "ns/sample", "lower"),
    ("distributions.sample_qutrit_inputs.ns_per_sample", "ns/sample", "lower"),
    ("distributions.mean_polar_angle.us_per_call", "us/call", "lower"),
    ("distributions.mean_polar_angle.calls", "calls/round", "lower"),
    ("sim.simulate_qubit.self_ns_per_sample", "ns/sample", "lower"),
    ("sim.simulate_classical.self_ns_per_sample", "ns/sample", "lower"),
    ("sim.qubit_runs.self_ns_per_run", "ns/run", "lower"),
    ("sim.simulate_qutrit.self_ns_per_sample", "ns/sample", "lower"),
    ("sim.qutrit_runs.self_ns_per_run", "ns/run", "lower"),
    ("sim.chunks", "chunks/round", "lower"),
    ("sim.worker_threads", "threads", "higher"),
    ("qutrit.qutrit_average_fidelity.self_ns_per_sample", "ns/sample", "lower"),
    ("qutrit.dimensional_advantage.self_ms_per_call", "ms/call", "lower"),
    ("qutrit.theta4_for_fractional_info.us_per_call", "us/call", "lower"),
    ("qutrit.participation_moment.us_per_call", "us/call", "lower"),
    ("compare.match_by_mean_angle.self_us_per_call", "us/call", "lower"),
    ("compare.match_by_classical_fidelity.us_per_call", "us/call", "lower"),
    ("fidelity.fidelity_stats.us_per_call", "us/call", "lower"),
    ("fidelity.subclassical_warnings", "warnings/round", "lower"),
    ("resources.required_entanglement.us_per_call", "us/call", "lower"),
    ("resources.bell_probabilities_averaged.us_per_call", "us/call", "lower"),
    ("cli.main.self_ms_per_call", "ms/call", "lower"),
    ("cli.rows_written", "rows/round", "higher"),
) + tuple((f"verify.{name}.s", "s/round", "lower") for name in VERIFY_CHECKS) + (
    ("verify.self_s", "s/round", "lower"),
    ("trace.overhead_s", "s/round", "lower"),
)


class _CountingWarnings:
    """Stands in for the `warnings` module inside telefid.fidelity."""

    def __init__(self, tracer: "Tracer", category: type) -> None:
        self._tracer = tracer
        self._category = category

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        if category is self._category:
            self._tracer.count("fidelity.subclassical_warnings")
        warnings.warn(message, category, stacklevel=stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)


class Tracer:
    def __init__(self) -> None:
        # (id, parent id, name, start ns, end ns, thread ident, kept arguments)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []

    def count(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counts[name] += k

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, keep: tuple):
        sig = inspect.signature(fn) if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info = {k: bound.arguments[k] for k in keep}
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = 0
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, parent, name, t0, t1,
                                       threading.get_ident(), info))
        return traced

    def install(self, package, modules: dict) -> None:
        """Wrap every TARGETS function wherever a telefid module refers to it."""
        wrappers = {}
        for name, keep in TARGETS.items():
            mod, func = name.split(".")
            fn = getattr(modules[mod], func)
            wrappers[fn] = self._wrap(fn, name, keep)
        for mod in (package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
                elif isinstance(val, dict):
                    # registries such as compare._MATCHERS hold the functions too
                    for key, fn in list(val.items()):
                        if isinstance(fn, types.FunctionType) and fn in wrappers:
                            self._patched.append((val, key, fn))
                            val[key] = wrappers[fn]
        fid = modules["fidelity"]
        self._patched.append((fid, "warnings", fid.warnings))
        fid.warnings = _CountingWarnings(self, fid.SubclassicalFidelityWarning)

    def uninstall(self) -> None:
        while self._patched:
            where, key, val = self._patched.pop()
            if isinstance(where, dict):
                where[key] = val
            else:
                setattr(where, key, val)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns",
                                  "thread", "args"],
                       "spans": self.spans, "counts": dict(self.counts)},
                      fh, default=str)


def _union_ns(intervals, lo: int, hi: int) -> int:
    covered, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
    return {s[0]: (s[4] - s[3]) - _union_ns(children.get(s[0], ()), s[3], s[4])
            for s in spans}


def sample_total_mismatches(spans) -> list[str]:
    """Simulator calls whose sampler children drew other than the N asked for."""
    drawn = Counter()
    for s in spans:
        if s[2] in SAMPLERS:
            drawn[s[1]] += s[6]["n"]
    out = []
    for s in spans:
        if s[2] in SIMULATORS:
            (asked,) = s[6].values()
            if drawn[s[0]] != asked:
                out.append(f"{s[2]} asked for {asked} samples, samplers drew {drawn[s[0]]}")
    return out


def layer_metrics(spans, counts, rounds: int, overhead_s: float) -> dict:
    """The PER_LAYER figures from the spans of `rounds` traced rounds.

    A layer the workload does not call reads 0.
    """
    selfs = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s[2]].append(s)
    names = {s[0]: s[2] for s in spans}

    def rate(ss, own=False, per=None, scale=1.0):
        """Inclusive (own: self) ns of spans ss, per call or per argument `per`."""
        total = sum(selfs[s[0]] if own else s[4] - s[3] for s in ss)
        denom = sum(s[6][per] for s in ss) if per else len(ss)
        return total / denom / scale if denom else 0.0

    sim_samplers = [s for name in SAMPLERS for s in by[name] if names.get(s[1]) in SIMULATORS]
    mc = [s for s in by["qutrit.qutrit_average_fidelity"] if s[6]["method"] == "mc"]
    values = {
        "distributions.sample_directions.ns_per_sample":
            rate(by["distributions.sample_directions"], per="n"),
        "distributions.sample_qutrit_inputs.ns_per_sample":
            rate(by["distributions.sample_qutrit_inputs"], per="n"),
        "distributions.mean_polar_angle.us_per_call":
            rate(by["distributions.mean_polar_angle"], scale=1e3),
        "distributions.mean_polar_angle.calls": len(by["distributions.mean_polar_angle"]) / rounds,
        "sim.simulate_qubit.self_ns_per_sample":
            rate(by["sim.simulate_qubit"], own=True, per="n_samples"),
        "sim.simulate_classical.self_ns_per_sample":
            rate(by["sim.simulate_classical"], own=True, per="n_samples"),
        "sim.qubit_runs.self_ns_per_run": rate(by["sim.qubit_runs"], own=True, per="n_runs"),
        "sim.simulate_qutrit.self_ns_per_sample":
            rate(by["sim.simulate_qutrit"], own=True, per="n_samples"),
        "sim.qutrit_runs.self_ns_per_run": rate(by["sim.qutrit_runs"], own=True, per="n_runs"),
        "sim.chunks": len(sim_samplers) / rounds,
        "sim.worker_threads": len({s[5] for s in sim_samplers}),
        "qutrit.qutrit_average_fidelity.self_ns_per_sample":
            rate(mc, own=True, per="n_samples"),
        "qutrit.dimensional_advantage.self_ms_per_call":
            rate(by["qutrit.dimensional_advantage"], own=True, scale=1e6),
        "qutrit.theta4_for_fractional_info.us_per_call":
            rate(by["qutrit.theta4_for_fractional_info"], scale=1e3),
        "qutrit.participation_moment.us_per_call":
            rate(by["qutrit.participation_moment"], scale=1e3),
        "compare.match_by_mean_angle.self_us_per_call":
            rate(by["compare.match_by_mean_angle"], own=True, scale=1e3),
        "compare.match_by_classical_fidelity.us_per_call":
            rate(by["compare.match_by_classical_fidelity"], scale=1e3),
        "fidelity.fidelity_stats.us_per_call": rate(by["fidelity.fidelity_stats"], scale=1e3),
        "fidelity.subclassical_warnings": counts["fidelity.subclassical_warnings"] / rounds,
        "resources.required_entanglement.us_per_call":
            rate(by["resources.required_entanglement"], scale=1e3),
        "resources.bell_probabilities_averaged.us_per_call":
            rate(by["resources.bell_probabilities_averaged"], scale=1e3),
        "cli.main.self_ms_per_call": rate(by["cli.main"], own=True, scale=1e6),
        "cli.rows_written": counts["cli.rows_written"] / rounds,
        "verify.self_s": sum(selfs[s[0]] for s in by["verify.run_verification"]
                             + by["verify.run_check"]) / rounds / 1e9,
        "trace.overhead_s": overhead_s,
    }
    for check in VERIFY_CHECKS:
        values[f"verify.{check}.s"] = sum(
            s[4] - s[3] for s in by["verify.run_check"]
            if s[6]["name"] == check) / rounds / 1e9
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
