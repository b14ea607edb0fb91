"""Command-line entry point for design runs, oracles, and sweeps.

Commands
--------
design        surrogate SQP + sum-up rounding; writes design.csv, summary.json
oracle        design's pipeline on the exact F, scored on its SQP's engine
gap-sweep     integrality gaps over problem sizes x node constants
lidar-sanity  truncated-series reconstruction error per mode cutoff

Configuration is a flat key = value text file (``#`` comments allowed);
``--command`` and other flags override file entries.  summary.json's
``config`` block holds the values the run used under the same flat keys,
so written back as a file it reruns the run.  Exit codes: 0 success,
2 invalid configuration, 3 solver failure.  summary.json's ``status`` is
``ok``, ``not_converged`` (the SQP stopped without converging; exit
code 0) or ``error``.  Per-layer timing lives in the benchmark,
``python3 perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from .chebyshev import LowRankKernel, build_lowrank, node_budget
from .domains import (
    RectDomain,
    build_mesh,
    cubic_distance_kernel,
    dense_kernel_matrix,
    gaussian_difference_kernel,
    product_exponential_kernel,
)
from .exceptions import NonconvergenceError, NumericalFailure
from .lidar import LidarConfig, build_lidar_problem, fourier_coefficients_u0, reconstruct_u0
from .objective import BayesSetup, dense_objective_value
from .rounding import angular_plan, integrality_gap, natural_plan, sum_up_round
from .sqp import SqpConfig, solve_relaxed

__all__ = ["RunSpec", "main", "parse_config", "cmd_design", "cmd_oracle",
           "cmd_gap_sweep", "cmd_lidar_sanity"]

ANALYTIC_KERNELS = {
    "gauss": gaussian_difference_kernel,
    "expxy": product_exponential_kernel,
    "spline": cubic_distance_kernel,
}


# The ``oracle`` command's fixed SQP stopping threshold (a config's epsilon
# must equal it), and the largest dense F (rows or columns): an analytic
# oracle refuses larger F, design and gap-sweep leave their dense figures out.
ORACLE_EPSILON = 1e-8
ORACLE_MAX_N = 2000
DENSE_MAX_N = 4000


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration."""


@dataclass
class RunSpec:
    """Everything one run needs; mirrors the config-file keys."""

    command: str = "design"
    problem: str = "lidar"
    criterion: str = "A"
    node_constant: float = 8.0
    out: str = "."
    # analytic-kernel problems; None on a lidar problem
    n: int | None = 100
    budget_fraction: float | None = 0.2
    alpha: float = 0.01
    sigma2_noise: float = 1.0
    # SQP
    epsilon: float = 1e-3
    max_outer: int = 200
    lidar: LidarConfig | None = None
    sizes: list = field(default_factory=list)
    constants: list = field(default_factory=list)

    def sqp_config(self) -> SqpConfig:
        return SqpConfig(epsilon=self.epsilon, max_outer=self.max_outer)


def parse_config(path) -> dict:
    """Flat ``key = value`` file into a string dict."""
    entries = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _scalar_types(cls) -> dict:
    """Key -> parser (the type of its default) for the scalar fields of ``cls``."""
    return {f.name: type(f.default) for f in dataclass_fields(cls)
            if isinstance(f.default, (int, float, str))}


# A key shared by both (alpha, sigma2_noise) belongs to the spec, which
# hands it on to the lidar config.
_SPEC_TYPES = _scalar_types(RunSpec)
_LIDAR_TYPES = {k: t for k, t in _scalar_types(LidarConfig).items() if k not in _SPEC_TYPES}


def build_runspec(entries: dict, overrides: dict) -> RunSpec:
    merged = dict(entries)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    spec = RunSpec()
    lidar_kwargs = {}
    for key, value in merged.items():
        if key in ("sizes", "constants"):
            setattr(spec, key, _parse_list(key, value))
            continue
        parse = _SPEC_TYPES.get(key) or _LIDAR_TYPES.get(key)
        if parse is None:
            raise ConfigError(f"unknown configuration key: {key}")
        try:
            parsed = parse(value)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad value for {key}: {value}") from err
        if key in _SPEC_TYPES:
            setattr(spec, key, parsed)
        else:
            lidar_kwargs[key] = parsed
    if spec.command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}")
    # a command refuses a list key it would ignore
    for key, readers in (("sizes", ("gap-sweep", "lidar-sanity")), ("constants", ("gap-sweep",))):
        if key in merged and spec.command not in readers:
            raise ConfigError(f"{spec.command} does not read {key}")
    if spec.problem not in ("lidar", *ANALYTIC_KERNELS):
        raise ConfigError(f"problem must be lidar or one of {sorted(ANALYTIC_KERNELS)}")
    try:
        BayesSetup(alpha=spec.alpha, sigma2_noise=spec.sigma2_noise, criterion=spec.criterion)
        spec.sqp_config()
    except ValueError as err:
        raise ConfigError(f"bad solver configuration: {err}") from err
    if not (spec.n >= 1 and 0.0 < spec.budget_fraction <= 1.0
            and 0.0 < spec.node_constant < np.inf):
        raise ConfigError("n must be >= 1, budget_fraction lie in (0, 1], "
                          "node_constant be positive and finite")
    if spec.command == "oracle":
        if "epsilon" in merged and spec.epsilon != ORACLE_EPSILON:
            raise ConfigError(f"the oracle stops at its fixed epsilon = {ORACLE_EPSILON}, "
                              f"got epsilon = {spec.epsilon}")
        spec.epsilon = ORACLE_EPSILON
    if spec.problem == "lidar":
        # a lidar problem is sized by n_d, n_r, n_x and budgeted by r
        if {"n", "budget_fraction"} & merged.keys():
            raise ConfigError("analytic keys (n, budget_fraction) supplied for a lidar problem")
        try:
            spec.lidar = LidarConfig(alpha=spec.alpha, sigma2_noise=spec.sigma2_noise,
                                     **lidar_kwargs)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad lidar configuration: {err}") from err
        spec.n = spec.budget_fraction = None
    elif lidar_kwargs:
        raise ConfigError("lidar keys supplied for a non-lidar problem")
    return spec


def _parse_list(key, text):
    """Comma/space separated ``sizes`` (positive integers) or ``constants``
    (positive and finite, like node_constant)."""
    parse = int if key == "sizes" else float
    out = []
    for item in str(text).replace(",", " ").split():
        try:
            value = parse(item)
        except ValueError as err:
            raise ConfigError(f"bad entry for {key}: {item}") from err
        if not 0 < value < math.inf:
            raise ConfigError(f"{key} entries must be positive and finite, got {item}")
        out.append(value)
    return out


@dataclass
class _Assembled:
    lowrank: object
    setup: BayesSetup
    budget: float
    row_group: np.ndarray | None
    angles: np.ndarray | None
    dense_builder: object  # () -> dense F, of the surrogate's shape
    exact_builder: object  # () -> the exact F as a LowRankKernel

    def dense_f(self, max_n):
        """The dense F, or None when its rows or columns exceed ``max_n``."""
        if max(self.lowrank.n_rows, self.lowrank.n_cols) > max_n:
            return None
        return self.dense_builder()


def _assemble(spec: RunSpec, size=None, constant=None) -> _Assembled:
    constant = spec.node_constant if constant is None else constant
    if spec.problem == "lidar":
        cfg = spec.lidar
        if size is not None:
            cfg = replace(cfg, n_d=size, n_r=size, n_x=size)
        prob = build_lidar_problem(cfg, constant, criterion=spec.criterion)
        return _Assembled(prob.lowrank, prob.setup, float(prob.budget), prob.row_group,
                          prob.sector_angles, lambda: prob.exact.dense(), lambda: prob.exact)
    n = spec.n if size is None else size
    mesh = build_mesh(RectDomain((-1.0,), (1.0,)), n)
    kern = ANALYTIC_KERNELS[spec.problem]()
    budget = max(1.0, round(spec.budget_fraction * n))
    setup = BayesSetup(alpha=spec.alpha, sigma2_noise=spec.sigma2_noise, criterion=spec.criterion)
    lowrank = build_lowrank(kern, mesh, mesh, node_budget(constant, n))

    def identity_factor():  # the cap is checked before the dense F is formed
        if n > ORACLE_MAX_N:
            raise ConfigError(f"oracle refuses problems beyond {ORACLE_MAX_N} rows/cols (got {n})")
        return LowRankKernel(np.eye(n), dense_kernel_matrix(kern, mesh, mesh), np.eye(n))

    return _Assembled(
        lowrank, setup, budget, None, None,
        lambda: dense_kernel_matrix(kern, mesh, mesh),
        identity_factor,
    )


def _design_once(config: SqpConfig, assembled: _Assembled, lowrank: LowRankKernel):
    """Relaxed SQP design on ``lowrank`` (the surrogate or the exact F), sum-up
    rounding in natural or angular order, and the gap on that SQP's engine."""
    result = solve_relaxed(lowrank, assembled.setup, assembled.budget, config,
                           row_group=assembled.row_group)
    plan = (natural_plan(result.weights.n_weights) if assembled.angles is None
            else angular_plan(assembled.angles))
    w_int = sum_up_round(result.weights, plan)
    gap = integrality_gap(lowrank, assembled.setup, result.weights, w_int)
    return result, w_int, gap.surrogate


def _write_rows(spec: RunSpec, name, header, rows):
    with open(Path(spec.out) / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_design_csv(spec: RunSpec, name, w_rel, w_int, angles):
    header = ["index"] + (["angle"] if angles is not None else []) + ["w_rel", "w_int"]
    rows = []
    for i in range(w_rel.size):
        row = [i] + ([repr(float(angles[i]))] if angles is not None else [])
        rows.append(row + [repr(float(w_rel[i])), repr(float(w_int[i]))])
    _write_rows(spec, name, header, rows)


def _write_summary(out_dir, payload):
    with open(Path(out_dir) / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _summary_base(spec: RunSpec) -> dict:
    # the lidar keys at top level, alpha and sigma2_noise once
    merged = {**vars(spec), **(vars(spec.lidar) if spec.lidar else {})}
    config = {k: v for k, v in merged.items() if k != "lidar" and v is not None and v != []}
    return {"command": spec.command, "config": config}


def _dense_values(assembled: _Assembled, w_rel, w_int):
    """(relaxed, binary) criterion values on the dense F, or None past
    ``DENSE_MAX_N``: the one route to design's and gap-sweep's dense figures."""
    f_dense = assembled.dense_f(DENSE_MAX_N)
    if f_dense is None:
        return None
    return tuple(dense_objective_value(f_dense, w, assembled.setup) for w in (w_rel, w_int))


def cmd_design(spec: RunSpec) -> dict:
    assembled = _assemble(spec)
    lowrank = assembled.lowrank
    result, w_int, gap = _design_once(spec.sqp_config(), assembled, lowrank)
    relaxed = float(result.objective_trace[-1])
    nodes_out, nodes_in = lowrank.node_values.shape
    metrics = {
        "objective_surrogate_relaxed": relaxed,
        "objective_surrogate_binary": relaxed + gap,
        "iterations": result.iterations,
        "sqp_status": result.status,
        "budget": assembled.budget,
        "sum_w_rel": float(result.weights.w.sum()),
        "sum_w_int": float(w_int.w.sum()),
        "gap_surrogate": gap,
        "nodes_out": nodes_out,
        "nodes_in": nodes_in,
        "surrogate_error_estimate": lowrank.error_estimate,
    }
    dense = _dense_values(assembled, result.weights, w_int)
    if dense is not None:
        metrics["objective_dense_relaxed"], metrics["objective_dense_binary"] = dense
    _write_design_csv(spec, "design.csv", result.weights.w, w_int.w, assembled.angles)
    return metrics


def cmd_oracle(spec: RunSpec) -> dict:
    assembled = _assemble(spec)
    result, w_int, gap = _design_once(spec.sqp_config(), assembled, assembled.exact_builder())
    _write_design_csv(spec, "oracle.csv", result.weights.w, w_int.w, assembled.angles)
    relaxed = float(result.objective_trace[-1])
    return {
        "objective_dense_relaxed": relaxed,
        "objective_dense_binary": relaxed + gap,
        "iterations": result.iterations,
        "sqp_status": result.status,
    }


def cmd_gap_sweep(spec: RunSpec) -> dict:
    if spec.problem == "lidar" and not spec.sizes:
        raise ConfigError("a lidar gap-sweep needs sizes (n_d = n_r = n_x per cell)")
    sizes = spec.sizes or [spec.n]
    if sorted(sizes) != sizes:
        raise ConfigError("sizes must be ascending")
    constants = spec.constants or [spec.node_constant]
    rows = []
    for n in sizes:
        for c in constants:
            started = time.perf_counter()
            try:
                assembled = _assemble(spec, size=n, constant=c)
                result, w_int, gap = _design_once(spec.sqp_config(), assembled, assembled.lowrank)
                dense = _dense_values(assembled, result.weights, w_int)
                rows.append([n, c, gap, "" if dense is None else dense[1] - dense[0],
                             time.perf_counter() - started, "ok"])
            except (NonconvergenceError, NumericalFailure, ValueError) as err:
                rows.append([n, c, "", "", time.perf_counter() - started, f"error: {err}"])
    _write_rows(spec, "gap_sweep.csv",
                ["n", "c", "gap_surrogate", "gap_dense", "time_seconds", "status"], rows)
    return {"cells": len(rows),
            "failures": sum(1 for r in rows if str(r[-1]).startswith("error"))}


def cmd_lidar_sanity(spec: RunSpec) -> dict:
    orders = spec.sizes or [1, 2, 3, 5]

    def u0(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    xs = np.linspace(-1.0, 1.0, 81)
    grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
    reference = u0(grid_x, grid_y)
    ref_norm = float(np.linalg.norm(reference))
    rows = []
    for p in orders:
        coeffs = fourier_coefficients_u0(u0, p)
        recon = reconstruct_u0(coeffs, grid_x, grid_y)
        rows.append([p, float(np.linalg.norm(recon - reference)) / ref_norm])
    _write_rows(spec, "sanity.csv", ["p", "relative_l2_error"], rows)
    return {str(p): err for p, err in rows}


_DISPATCH = {
    "design": cmd_design,
    "oracle": cmd_oracle,
    "gap-sweep": cmd_gap_sweep,
    "lidar-sanity": cmd_lidar_sanity,
}
COMMANDS = tuple(_DISPATCH)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sensorplace", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--sizes", help="comma/space separated problem sizes (or p list)")
    parser.add_argument("--constants", help="comma/space separated node constants")
    parser.add_argument("--out", help="output directory")
    args = parser.parse_args(argv)

    try:
        entries = parse_config(args.config) if args.config else {}
        overrides = {
            "command": args.command,
            "out": args.out,
            "sizes": args.sizes,
            "constants": args.constants,
        }
        spec = build_runspec(entries, overrides)
    except ConfigError as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return 2

    # Every command writes its CSV into the out dir and returns its
    # metrics; the summary and the timing of the whole command live here.
    Path(spec.out).mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    error = None
    try:
        metrics = _DISPATCH[spec.command](spec)
    except ConfigError as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return 2
    except (NonconvergenceError, NumericalFailure) as err:
        metrics, error = {}, str(err)
        print(f"solver failure: {err}", file=sys.stderr)
    # A finished command whose SQP stopped short still exits 0.
    converged = metrics.get("sqp_status", "converged") == "converged"
    status = "error" if error is not None else "ok" if converged else "not_converged"
    payload = _summary_base(spec)
    payload.update({
        "metrics": metrics,
        "timings": {"wall_seconds": time.perf_counter() - t0},
        "status": status,
    })
    if error is not None:
        payload["error"] = error
    _write_summary(spec.out, payload)
    return 0 if error is None else 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
