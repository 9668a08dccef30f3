"""Span tracing of bpfhelm's layers, installed from outside the package.

While a ``Tracer`` is installed, each public function named in ``SPANNED``
is replaced, at every module binding through which the package looks it up,
by a wrapper that records a span: name, start, end, parent span, thread id
and the index of the op that caused it. The verify suites are wrapped in
``analysis.VERIFY_SUITES``. The public functions of ``bpfhelm.numerics`` are
scalar and called tens of thousands of times per op, so they are aggregated
into call counters and summed time instead of one span each. Leaving the
context restores every original binding.

A span's self time is its duration minus the part of it that its child
spans cover, minus the time of numerics calls made directly inside it, so
self times of all layers add up to the traced time.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import sys
import threading
import warnings
from collections import Counter, defaultdict
from time import perf_counter

# Functions that get one span per call, by their home module in bpfhelm.
SPANNED = {
    "cli": ("main",),
    "analysis": ("convergence_study", "error_report"),
    "reference": ("make_benchmark", "fine_grid_reference"),
    "schemes": ("solve_scheme", "assemble"),
    "trisolve": ("solve_tridiagonal", "residual_inf_norm"),
    "grid": ("sample", "restrict", "norm_linf", "norm_l2h", "seminorm_h1h", "norm_v"),
}
NORMS = ("grid.norm_linf", "grid.norm_l2h", "grid.seminorm_h1h", "grid.norm_v")
VERIFY_SPAN = "analysis.verify"
# Per-function call counts reported for the hottest numerics functions.
NUMERICS_DETAIL = ("theta", "nyquist_guard", "bernoulli")
# Bytes per complex128 value.
COMPLEX_BYTES = 16


class Span:
    __slots__ = ("id", "name", "parent", "tid", "op", "start", "end", "numerics_s")

    def __init__(self, span_id, name, parent, tid, op):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.tid = tid
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.numerics_s = 0.0

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "tid": self.tid, "op": self.op}


class _ThreadState:
    """Per-thread span stack and counters, so no update races another thread."""

    def __init__(self):
        self.stack: list[Span] = []
        self.counts: Counter = Counter()
        self.in_numerics = False
        self.numerics_s = 0.0


def _count_len(key, attr=None):
    def hook(counts, result):
        counts[key] += len(result if attr is None else getattr(result, attr))
    return hook


def _count_checks(counts, result):
    counts["analysis.verify.checks"] += len(result)
    counts["analysis.verify.failed_checks"] += sum(1 for c in result if not c.passed)


RETURN_HOOKS = {
    "trisolve.solve_tridiagonal": _count_len("trisolve.solve_tridiagonal.unknowns"),
    "schemes.assemble": _count_len("schemes.assemble.unknowns", "diag"),
    "grid.sample": _count_len("grid.sample.points", "values"),
    VERIFY_SPAN: _count_checks,
}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.recording = True
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main: _ThreadState | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._suites: dict = {}

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _parent(self, state: _ThreadState) -> Span | None:
        if state.stack:
            return state.stack[-1]
        # A worker thread's first span belongs to the span the main thread
        # is blocked in, e.g. convergence_study waiting on its pool.
        main = self._main
        if main is not None and main is not state and main.stack:
            return main.stack[-1]
        return None

    def count(self, key: str, amount: int = 1) -> None:
        self._state().counts[key] += amount

    @contextlib.contextmanager
    def paused(self):
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def _span_wrapper(self, name, fn, on_return=None, on_error=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            state = tracer._state()
            parent = tracer._parent(state)
            span = Span(next(tracer._ids), name, parent.id if parent else None,
                        threading.get_ident(), tracer.op)
            state.stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(state.counts, exc)
                raise
            finally:
                span.end = perf_counter()
                state.stack.pop()
                tracer.spans.append(span)
            if on_return is not None:
                on_return(state.counts, result)
            return result

        return wrapper

    def _numerics_wrapper(self, name, fn, guard_error):
        tracer = self
        key = f"numerics.{name}.calls"

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            state = tracer._state()
            state.counts[key] += 1
            if state.in_numerics:  # nested numerics call: counted, timed by the outer one
                return fn(*args, **kwargs)
            state.in_numerics = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except guard_error:
                state.counts["numerics.guard_rejections"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                state.in_numerics = False
                state.numerics_s += elapsed
                if state.stack:
                    state.stack[-1].numerics_s += elapsed

        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` in every loaded bpfhelm module."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bpfhelm" and not mod_name.startswith("bpfhelm."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    @contextlib.contextmanager
    def installed(self):
        from bpfhelm import analysis, errors, numerics

        self._main = self._state()
        original_show = warnings.showwarning

        def count_warning(message, category, *rest, **kwargs):
            if issubclass(category, errors.SolveQualityWarning):
                self.count("schemes.quality_warnings")
            return original_show(message, category, *rest, **kwargs)

        def count_singular(counts, exc):
            if isinstance(exc, errors.SingularSystem):
                counts["trisolve.singular"] += 1

        on_error = {"trisolve.solve_tridiagonal": count_singular}
        with warnings.catch_warnings():
            warnings.simplefilter("always", errors.SolveQualityWarning)
            warnings.showwarning = count_warning
            try:
                for mod_name, fn_names in SPANNED.items():
                    module = sys.modules[f"bpfhelm.{mod_name}"]
                    for fn_name in fn_names:
                        original = getattr(module, fn_name, None)
                        if original is None:  # gone from the package: its metrics read 0
                            continue
                        name = f"{mod_name}.{fn_name}"
                        self._rebind(original, self._span_wrapper(
                            name, original, RETURN_HOOKS.get(name), on_error.get(name)))
                for fn_name, fn in list(vars(numerics).items()):
                    if (inspect.isfunction(fn) and not fn_name.startswith("_")
                            and fn.__module__ == numerics.__name__):
                        self._rebind(fn, self._numerics_wrapper(
                            fn_name, fn, errors.NumericalGuardError))
                self._suites = dict(analysis.VERIFY_SUITES)
                for suite, fn in self._suites.items():
                    analysis.VERIFY_SUITES[suite] = self._span_wrapper(
                        VERIFY_SPAN, fn, RETURN_HOOKS[VERIFY_SPAN])
                yield self
            finally:
                for module, attr, original in reversed(self._patches):
                    setattr(module, attr, original)
                self._patches.clear()
                analysis.VERIFY_SUITES.update(self._suites)

    # -- results -------------------------------------------------------------

    def summary(self) -> tuple[dict, dict]:
        """Counts and timings of everything recorded, as two flat dicts."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)

        calls: Counter = Counter()
        self_s: Counter = Counter()
        for span in self.spans:
            covered = _covered(span, children.get(span.id, ()))
            calls[span.name] += 1
            self_s[span.name] += span.end - span.start - covered - span.numerics_s

        counts: Counter = Counter()
        numerics_s = 0.0
        for state in self._states:
            counts.update(state.counts)
            numerics_s += state.numerics_s

        fgr = [s for s in self.spans if s.name == "reference.fine_grid_reference"]
        misses = sum(1 for s in fgr
                     if any(c.name == "schemes.solve_scheme" for c in children.get(s.id, ())))
        studies = [s for s in self.spans if s.name == "analysis.convergence_study"]
        cells = [c for s in studies for c in children.get(s.id, ())
                 if c.name not in ("reference.fine_grid_reference", "reference.make_benchmark")]

        solves = calls["trisolve.solve_tridiagonal"]
        unknowns = counts["trisolve.solve_tridiagonal.unknowns"]
        count_metrics = {
            "trisolve.solve_tridiagonal.calls": solves,
            "trisolve.solve_tridiagonal.unknowns": unknowns,
            # lower, diag, upper and rhs read, x written: 5m - 2 values.
            "trisolve.solve_tridiagonal.bytes_computed": COMPLEX_BYTES * (5 * unknowns - 2 * solves),
            "trisolve.singular": counts["trisolve.singular"],
            "schemes.assemble.calls": calls["schemes.assemble"],
            "schemes.assemble.unknowns": counts["schemes.assemble.unknowns"],
            "schemes.solve_scheme.calls": calls["schemes.solve_scheme"],
            "schemes.quality_warnings": counts["schemes.quality_warnings"],
            "grid.sample.calls": calls["grid.sample"],
            "grid.sample.points": counts["grid.sample.points"],
            "analysis.error_report.calls": calls["analysis.error_report"],
            "reference.fine_grid_reference.calls": len(fgr),
            "reference.fine_grid_reference.hits": len(fgr) - misses,
            "reference.fine_grid_reference.misses": misses,
            "reference.fine_grid_reference.hit_ratio": (len(fgr) - misses) / len(fgr) if fgr else 0.0,
            "analysis.convergence_study.calls": len(studies),
            "numerics.calls": sum(v for k, v in counts.items()
                                  if k.startswith("numerics.") and k.endswith(".calls")),
            **{f"numerics.{name}.calls": counts[f"numerics.{name}.calls"]
               for name in NUMERICS_DETAIL},
            "numerics.guard_rejections": counts["numerics.guard_rejections"],
            "analysis.verify.checks": counts["analysis.verify.checks"],
            "analysis.verify.failed_checks": counts["analysis.verify.failed_checks"],
            "cli.main.calls": calls["cli.main"],
            "cli.output_bytes": counts["cli.output_bytes"],
        }
        trisolve_s = self_s["trisolve.solve_tridiagonal"]
        timing_metrics = {
            "trisolve.solve_tridiagonal.self_s": trisolve_s,
            "trisolve.solve_tridiagonal.ns_per_unknown": 1e9 * trisolve_s / unknowns if unknowns else 0.0,
            "trisolve.residual_inf_norm.self_s": self_s["trisolve.residual_inf_norm"],
            "schemes.assemble.self_s": self_s["schemes.assemble"],
            "schemes.solve_scheme.self_s": self_s["schemes.solve_scheme"],
            "grid.sample.self_s": self_s["grid.sample"],
            "grid.restrict.self_s": self_s["grid.restrict"],
            "grid.norms.self_s": sum(self_s[name] for name in NORMS),
            "analysis.error_report.self_s": self_s["analysis.error_report"],
            "reference.make_benchmark.self_s": self_s["reference.make_benchmark"],
            "reference.fine_grid_reference.self_s": self_s["reference.fine_grid_reference"],
            "analysis.convergence_study.wall_s": sum(s.end - s.start for s in studies),
            "analysis.convergence_study.cell_wall_s":
                max((c.end for c in cells), default=0.0) - min((c.start for c in cells), default=0.0),
            "analysis.convergence_study.cell_busy_s": sum(c.end - c.start for c in cells),
            "numerics.self_s": numerics_s,
            "analysis.verify.self_s": self_s[VERIFY_SPAN],
            "cli.main.self_s": self_s["cli.main"],
        }
        return count_metrics, timing_metrics


def _covered(span: Span, kids) -> float:
    """Length of the union of the children's intervals inside the span."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end)) for c in kids)
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
