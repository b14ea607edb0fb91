"""Run designs, check them, and turn the timings into metrics.

One design is the chain ``cli.py design`` runs without its dense-oracle
branch: assemble the problem, ``solve_relaxed``, ``sum_up_round`` (by beam
angle for LIDAR), then ``integrality_gap``.  A pass runs every design of
the workload once; a run repeats passes while the time allows.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
from time import perf_counter

import numpy as np

from sensorplace import rounding, sqp

import spans
import workloads

SQP_CONFIG = sqp.SqpConfig()

# Untimed warm-up run in every process before timing: one small design of
# each kind the workloads use (1-D A and D, space-time LIDAR).
WARMUP = [
    workloads.DesignSpec("analytic", {
        "kernel": "gauss", "n": 2048, "node_constant": 4.0, "criterion": "A",
        "alpha": 0.1, "sigma2_noise": 1.0, "budget_fraction": 0.2,
    }),
    workloads.DesignSpec("analytic", {
        "kernel": "spline", "n": 512, "node_constant": 4.0, "criterion": "D",
        "alpha": 0.1, "sigma2_noise": 1.0, "budget_fraction": 0.2,
    }),
    workloads.DesignSpec("lidar", {
        "n_d": 24, "n_r": 8, "n_x": 12, "n_t": 5, "p": 3, "node_constant": 8.0,
        "criterion": "A", "c1": 0.1, "c2": 0.0, "alpha": 0.01, "r": 0.2,
    }),
]


def check_design(result, w_int, plan, budget: float) -> tuple[list[str], bool]:
    """Failed checks of one solved design, and whether any of them shows
    a wrong output rather than a solve the library reports as unfinished."""
    fails = []
    if result.status != "converged":
        fails.append(f"status {result.status}")
    unfinished = len(fails)
    w = result.weights.w
    if w.min() < 0.0 or w.max() > 1.0 or w.sum() > budget + 1e-9 * max(1.0, budget):
        fails.append("weights outside [0, 1] or over budget")
    if np.any(np.diff(result.objective_trace) > 0.0):
        fails.append("objective trace increases")
    # The 0.5 prefix bound, plus round-off of sums as large as sum(w).
    dev = rounding.prefix_deviation(w, w_int.w, plan.order)
    if dev > 0.5 + 1e-12 * max(1.0, float(w.sum())):
        fails.append(f"prefix deviation {dev:.6g}")
    return fails, len(fails) > unfinished


def _phase(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def run_design(spec, tracer=None):
    """Run and check one design; returns (record, assembled or None).

    ``failed`` lists why the design failed: it raised, did not converge,
    or failed an output check.  ``wrong_output`` marks the last kind.
    """
    rec = {"params": spec.params, "failed": [], "wrong_output": False}
    t0 = perf_counter()
    t1 = None
    try:
        with _phase(tracer, "design.assemble"):
            asm = workloads.assemble(spec)
        t1 = perf_counter()
        with _phase(tracer, "design.solve"):
            result = sqp.solve_relaxed(
                asm.lowrank, asm.setup, asm.budget, SQP_CONFIG, row_group=asm.row_group
            )
            n_w = result.weights.n_weights
            plan = (rounding.natural_plan(n_w) if asm.angles is None
                    else rounding.angular_plan(asm.angles))
            w_int = rounding.sum_up_round(result.weights, plan)
            gap = rounding.integrality_gap(asm.lowrank, asm.setup, result.weights, w_int)
        t2 = perf_counter()
    except Exception as err:  # a design that raises is a failed design, never skipped
        t2 = perf_counter()
        rec.update(assemble_s=(t1 or t2) - t0, solve_s=t2 - (t1 or t2))
        rec["failed"].append(f"raised {type(err).__name__}: {err}")
        return rec, None
    rec.update(assemble_s=t1 - t0, solve_s=t2 - t1, status=result.status,
               outer_iterations=result.iterations)
    rec["failed"], rec["wrong_output"] = check_design(result, w_int, plan, asm.budget)
    phi0, phi = float(result.objective_trace[0]), float(result.objective_trace[-1])
    if asm.setup.criterion == "A":
        rec["uncertainty_reduction"] = math.log(phi0 / phi)
        rec["rounding_loss"] = math.log1p(gap.surrogate / phi)
    else:
        rec["uncertainty_reduction"] = phi0 - phi
        rec["rounding_loss"] = gap.surrogate
    return rec, asm


def run_pass(designs, seed: int, tracer=None, measure_error: bool = False) -> list[dict]:
    records = []
    for i, spec in enumerate(designs):
        if tracer is not None:
            tracer.design = i
        rec, asm = run_design(spec, tracer)
        rec["id"] = i
        if measure_error and asm is not None:
            rng = np.random.default_rng([seed, i, 1])
            rec["surrogate_rel_error"] = workloads.surrogate_rel_error(asm, rng)
        del asm
        records.append(rec)
    return records


def _pass_time(records) -> float:
    return sum(r["assemble_s"] + r["solve_s"] for r in records)


def run_workload(designs, seed: int, seconds: float, trace: bool):
    """Repeat passes over ``designs`` for about ``seconds``.

    The first pass is untraced and also measures surrogate accuracy
    outside the timed sections.  With ``trace`` every later pass is
    traced, at least one.  A further pass starts only if it is expected
    to end within ``seconds``.  Returns (passes, tracer or None).
    """
    tracer = spans.Tracer() if trace else None
    passes = []
    start = perf_counter()
    while True:
        traced = trace and bool(passes)
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(designs, seed, tracer if traced else None,
                                   measure_error=not passes))
        finally:
            if traced:
                tracer.uninstall()
        typical = statistics.median(_pass_time(p) for p in passes)
        if trace and len(passes) < 2:
            continue
        if perf_counter() - start + typical > seconds:
            return passes, tracer


def _quality(first_pass) -> dict:
    """Design-quality figures of the first pass (every pass has the same inputs)."""
    solved = [r for r in first_pass if "uncertainty_reduction" in r]
    errors = [r["surrogate_rel_error"] for r in first_pass if "surrogate_rel_error" in r]
    nan = float("nan")
    return {
        "uncertainty_reduction": (
            statistics.fmean(r["uncertainty_reduction"] for r in solved) if solved else nan),
        "rounding_loss": statistics.fmean(r["rounding_loss"] for r in solved) if solved else nan,
        "surrogate_rel_error": max(errors) if errors else nan,
    }


def end_to_end(passes, setup_times) -> dict:
    """End-to-end metrics of an untraced run, as {name: (value, unit)}.

    Times are means per design, each the median over passes: a run lasts
    a fixed time, so totals would track the run length rather than the
    speed.  designs_per_s counts every design attempted; failed designs
    are the run's ``failed`` count, not a rate, since a run holds too few
    designs for their share to be steady.
    """
    per_pass = []
    for records in passes:
        k = len(records)
        asm = sum(r["assemble_s"] for r in records)
        sol = sum(r["solve_s"] for r in records)
        per_pass.append((asm / k, sol / k, k / (asm + sol)))
    quality = _quality(passes[0])
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "assemble_s": (statistics.median(p[0] for p in per_pass), "s"),
        "solve_s": (statistics.median(p[1] for p in per_pass), "s"),
        "designs_per_s": (statistics.median(p[2] for p in per_pass), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "uncertainty_reduction": (quality["uncertainty_reduction"], "nats"),
    }


LAYER_UNITS = {
    "trace.coverage": "share",
    "trace.overhead_share": "share",
    "rounding.loss": "nats",
    "chebyshev.rel_error": "share",
}


def per_layer(passes, tracer) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    traced = passes[1:]
    n_designs = sum(len(p) for p in traced)
    metrics = spans.layer_metrics(tracer, n_designs)
    untraced = _pass_time(passes[0])
    traced_time = statistics.median(_pass_time(p) for p in traced)
    metrics["trace.overhead_share"] = traced_time / untraced - 1.0
    quality = _quality(passes[0])
    metrics["rounding.loss"] = quality["rounding_loss"]
    metrics["chebyshev.rel_error"] = quality["surrogate_rel_error"]
    return {
        name: (value, LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count"))
        for name, value in metrics.items()
    }
