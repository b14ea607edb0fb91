"""In-memory span tracer wrapped around the library's public calls.

Tracing lives in the benchmark, not in the library: ``Tracer.install``
replaces each traced name where it is looked up (the defining module and
every module that imported it by name, or the class for methods) with a
wrapper that records a span, and ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, design]``; ``parent`` is the index
of the enclosing span (-1 at the top) and ``design`` the id of the design
being run.  Counters sum values reported at the same boundaries.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from time import perf_counter

from sensorplace import chebyshev, domains, lidar, objective, qp_solver, rounding, sqp

# Harness spans around the two timed phases of a design; their self time
# is the part no layer accounts for.
ROOTS = ("design.assemble", "design.solve")


def _after_build(tracer, lowrank):
    tracer.count("chebyshev.nodes_out", lowrank.coef_out.shape[0])
    tracer.count("chebyshev.nodes_in", lowrank.coef_in.shape[0])


def _after_qp(tracer, sol):
    tracer.count("qp_solver.iterations", sol.iterations)


def _after_core(tracer, factors):
    tracer.count("qp_solver.core_rank", factors[0].size)
    tracer.count("qp_solver.core_eighs", 1)


def _after_eigenvalues(tracer, lam):
    tracer.count("objective.spectrum_rank", lam.size)
    tracer.count("objective.spectra", 1)


def _after_sqp(tracer, result):
    tracer.count("sqp.outer_iterations", result.iterations)
    tracer.count("sqp.backtracks", sum(-math.log2(a) for a in result.step_lengths))


# (span name or None for a counter-only hook, owners, attribute, after-hook).
# A module function is patched in every module that looks it up by name.
_TARGETS = [
    ("domains.mesh", (domains, lidar), "build_mesh", None),
    ("domains.mesh", (domains, lidar), "build_disk_mesh", None),
    ("domains.mesh", (domains, lidar), "spacetime_mesh", None),
    ("chebyshev.build", (chebyshev, lidar), "build_lowrank", _after_build),
    ("chebyshev.coef", (chebyshev,), "coefficient_matrix", None),
    ("chebyshev.kernel_eval", (domains.Kernel,), "__call__", None),
    ("lidar.problem", (lidar,), "build_lidar_problem", None),
    ("objective.engine_init", (objective.PosteriorEngine,), "__init__", None),
    ("objective.value", (objective.PosteriorEngine,), "value", None),
    ("objective.derivatives", (objective.PosteriorEngine,), "derivatives", None),
    (None, (objective.PosteriorEngine,), "eigenvalues", _after_eigenvalues),
    ("qp_solver.solve", (qp_solver, sqp), "solve_qp", _after_qp),
    (None, (qp_solver,), "truncated_core", _after_core),
    ("qp_solver.woodbury", (qp_solver.NormalMatrixAction,), "__init__", None),
    ("qp_solver.newton_solve", (qp_solver.NormalMatrixAction,), "solve", None),
    ("sqp.solve", (sqp,), "solve_relaxed", _after_sqp),
    ("rounding.round", (rounding,), "sum_up_round", None),
    ("rounding.gap", (rounding,), "integrality_gap", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(float)
        self.design = -1
        self._stack: list[int] = []
        self._saved: list = []

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def span(self, name: str):
        """Context manager recording one span (used for the harness roots)."""
        return _SpanContext(self, name)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.design]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, after):
        tracer = self

        if name is None:
            @functools.wraps(fn)
            def hook(*args, **kwargs):
                out = fn(*args, **kwargs)
                after(tracer, out)
                return out
            return hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                after(tracer, out)
            return out
        return wrapper

    def install(self) -> None:
        wrapped = {}
        for name, owners, attr, after in _TARGETS:
            for owner in owners:
                original = getattr(owner, attr)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original, after)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.rec = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False


def _durations(spans):
    """Inclusive time, self time and call count per span name."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
    return total, own, calls


def self_times(tracer: Tracer, n_designs: int) -> dict:
    """Self time per span name, mean per design."""
    _, own, _ = _durations(tracer.spans)
    return {name: t / max(n_designs, 1) for name, t in own.items()}


def layer_metrics(tracer: Tracer, n_designs: int) -> dict:
    """Per-layer figures, each a mean per design over the traced designs.

    Times are inclusive span durations unless named ``self``; self time
    is a span's duration minus the spans directly inside it.
    ``trace.coverage`` is the share of the harness root spans that layer
    self times account for.
    """
    spans = tracer.spans
    total, own, calls = _durations(spans)
    line_search = sum(
        end - start
        for name, start, end, parent, _ in spans
        if name == "objective.value" and parent >= 0 and spans[parent][0] == "sqp.solve"
    )
    counts = tracer.counts
    root_time = sum(total[r] for r in ROOTS)
    layer_self = sum(v for k, v in own.items() if k not in ROOTS)
    per = 1.0 / max(n_designs, 1)
    builds = max(calls["chebyshev.build"], 1)
    return {
        "domains.mesh_s": total["domains.mesh"] * per,
        "chebyshev.build_s": total["chebyshev.build"] * per,
        "chebyshev.coef_s": total["chebyshev.coef"] * per,
        "chebyshev.kernel_eval_s": total["chebyshev.kernel_eval"] * per,
        "chebyshev.nodes_out": counts["chebyshev.nodes_out"] / builds,
        "chebyshev.nodes_in": counts["chebyshev.nodes_in"] / builds,
        "lidar.problem_s": own["lidar.problem"] * per,
        "objective.engine_init_s": total["objective.engine_init"] * per,
        "objective.engine_init_calls": calls["objective.engine_init"] * per,
        "objective.derivatives_s": total["objective.derivatives"] * per,
        "objective.derivatives_calls": calls["objective.derivatives"] * per,
        "objective.value_s": total["objective.value"] * per,
        "objective.value_calls": calls["objective.value"] * per,
        "objective.spectrum_rank": counts["objective.spectrum_rank"] / max(counts["objective.spectra"], 1),
        "qp_solver.solve_s": total["qp_solver.solve"] * per,
        "qp_solver.calls": calls["qp_solver.solve"] * per,
        "qp_solver.iterations": counts["qp_solver.iterations"] * per,
        "qp_solver.core_rank": counts["qp_solver.core_rank"] / max(counts["qp_solver.core_eighs"], 1),
        "qp_solver.woodbury_s": total["qp_solver.woodbury"] * per,
        "qp_solver.newton_solve_s": total["qp_solver.newton_solve"] * per,
        "qp_solver.self_s": own["qp_solver.solve"] * per,
        "sqp.solve_s": total["sqp.solve"] * per,
        "sqp.self_s": own["sqp.solve"] * per,
        "sqp.line_search_s": line_search * per,
        "sqp.outer_iterations": counts["sqp.outer_iterations"] * per,
        "sqp.backtracks": counts["sqp.backtracks"] * per,
        "rounding.round_s": total["rounding.round"] * per,
        "rounding.gap_s": total["rounding.gap"] * per,
        "trace.coverage": layer_self / root_time if root_time > 0 else 0.0,
    }
