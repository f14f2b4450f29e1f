"""Batch command-line front end.

Reads a JSON parameter configuration, runs one of five commands, and emits a
machine-readable JSON report, one line ending in a newline (a JSON Lines
record, which `python -m json.tool` lays out):

    qzeros <poly|zeros|verify|sweep|flow> --config cfg.json
           [--out report.json] [--seed 0] [--tol 1e-6] [--precision f64]

Report schema: {"command": str, "config": {...}, "checks":
[{"name", "value", "threshold", "pass"}], "pass": bool, "result": {...},
"wall_time_s": float}.
Identical config and seed produce byte-identical reports apart from the
wall-time field. Only sweep (its beta factors) and flow (its perturbation
phases) draw from the seed, through numpy.random; poly, zeros and verify
never import it, and verify judges the q-difference equation coefficient
by coefficient, at no sample points. Every command validates --seed. Exit
codes: 0 all checks pass, 1 a mathematical check failed, 2 configuration
or usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import functools
import json
import math
import os
import sys
import time
from typing import List, Sequence, Tuple

import numpy as np

from . import flow as zero_flow
from . import isospectral, params as params_mod, qdiff, qseries, rootfind, zero_algebra
from .errors import (
    CollisionDetected,
    ConfigError,
    InvalidDegree,
    NonGenericParameter,
    OverflowRisk,
    QZerosError,
)
from .isospectral import Case
from .params import ParamSet
from .precision import F64, _binary64, context_of, extended, rel_gaps

CONFIG_FIELDS = {"r", "s", "N", "q", "alpha", "beta", "sweep_k", "t_end", "perturb"}

DEFAULT_THRESHOLDS = {
    "prefactor_gap": 1e-12,
    "companion_gap": 1e-7,
    "max_residual": 1e-8,
    "reconstruction_gap": 1e-8,
    "qde_residual_max": 1e-9,
    "qde_expanded_agreement_max": 1e-10,
    "prop1_residual_max": 1e-8,
    "prop1_dual_gap": 1e-10,
    "spectrum_backward_max": 1e-9,
    "trace_gap_p1": 1e-6,
    "trace_gap_p2": 1e-6,
    "trace_gap_p3": 1e-6,
    "closed_trace_gap": 1e-8,
    "det_gap": 1e-6,
    "jacobian_defect": 1e-5,
    "spectrum_drift_max": 1e-9,
    "matrix_drift_min": 1e-3,
    "equilibrium_residual": 1e-8,
    "endpoint_drift": 1e-8,
    "no_collision": 0.5,
    "no_overflow": 0.5,
}

SWEEP_DEFAULT_K = 8
SWEEP_REDRAW_LIMIT = 100
FLOW_SAMPLES = 100


def _number(value) -> bool:
    # json.load also reads NaN, Infinity and literals such as 1e400 (as inf),
    # none of which RFC 8259 allows: abs(value) <= max fails on each, and on
    # an integer beyond binary64, which float() would overflow
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _as_complex(value, field: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0]
    if not all(map(_number, parts)):
        raise ConfigError(f"field '{field}' must be a finite number or a [re, im] pair, got {value!r}")
    return complex(*map(float, parts))


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{field}' must be an integer, got {value!r}")
    return value


def _as_real(value, field: str) -> float:
    if not _number(value):
        raise ConfigError(f"field '{field}' must be a finite real number, got {value!r}")
    return float(value)


def load_config(path: str) -> Tuple[dict, ParamSet, dict]:
    """Parse and validate a run configuration; returns (raw echo, params, options)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config '{path}' is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    for field in ("r", "s", "N", "q", "alpha", "beta"):
        if field not in raw:
            raise ConfigError(f"missing required config field '{field}'")
    r = _as_int(raw["r"], "r")
    s = _as_int(raw["s"], "s")
    N = _as_int(raw["N"], "N")
    for field in ("alpha", "beta"):
        if not isinstance(raw[field], list):
            raise ConfigError(f"field '{field}' must be a list")
    alpha = tuple(_as_complex(v, f"alpha[{i}]") for i, v in enumerate(raw["alpha"]))
    beta = tuple(_as_complex(v, f"beta[{i}]") for i, v in enumerate(raw["beta"]))
    if len(alpha) != r or len(beta) != s:
        raise ConfigError(
            f"alpha must have r = {r} entries and beta s = {s}, "
            f"got {len(alpha)} and {len(beta)}"
        )
    params = params_mod.validate(
        ParamSet(r=r, s=s, N=N, q=_as_complex(raw["q"], "q"), alpha=alpha, beta=beta)
    )
    options = {
        "sweep_k": _as_int(raw["sweep_k"], "sweep_k") if "sweep_k" in raw else SWEEP_DEFAULT_K,
        "t_end": _as_real(raw["t_end"], "t_end") if "t_end" in raw else 1.0,
        "perturb": _as_real(raw["perturb"], "perturb") if "perturb" in raw else 0.0,
    }
    if options["sweep_k"] < 0:
        raise ConfigError(f"sweep_k must be nonnegative, got {options['sweep_k']}")
    # solve_ivp rejects sample times that round together; only a subnormal t_end's can (CHANGES.md)
    tiny = 0 < abs(options["t_end"]) < sys.float_info.min
    if tiny and not (np.diff(np.abs(zero_flow.sample_times(options["t_end"], FLOW_SAMPLES))) > 0).all():
        raise ConfigError(f"t_end = {options['t_end']!r} is too short for {FLOW_SAMPLES} distinct flow samples")
    return raw, params, options


def _pair(z) -> List[float]:
    z = _binary64(z)
    return [z.real, z.imag]


def _check(name: str, value: float, tol_override, direction: str = "below") -> dict:
    threshold = DEFAULT_THRESHOLDS[name] if tol_override is None else tol_override
    value = float(value)
    ok = value <= threshold if direction == "below" else value >= threshold
    return {"name": name, "value": value, "threshold": float(threshold), "pass": bool(ok)}


def cmd_poly(case: Case, options: dict, tol, rng) -> Tuple[List[dict], dict]:
    p = qseries.coeffs_P(case.params)
    monic = qseries.to_monic(p)
    lead = complex(p.coeffs[-1])
    prefactor = complex(qseries.monic_prefactor(case.params))
    checks = [_check("prefactor_gap", abs(prefactor * lead - 1), tol)]
    result = {
        "P_coeffs": [_pair(c) for c in p.coeffs],
        "p_coeffs": [_pair(c) for c in monic.coeffs],
    }
    return checks, result


def cmd_zeros(case: Case, options: dict, tol, rng) -> Tuple[List[dict], dict]:
    monic, zset = case.monic, case.zeroset
    # the two routes' zeros compared as multisets, paired nearest first: two
    # sorted lists can order a conjugate pair differently. Both gaps are in
    # the precision of the zeros, as _jacobian_defect compares: rounding to
    # binary64 first would hide any extended gap below 1e-16
    pairs = isospectral.match_spectrum(zset.zeros, rootfind.companion_zeros(monic))
    gap = max(rel for _, _, _, rel in pairs)
    # prod (z - z_n) = sum_k e_k(-z_1, ..., -z_N) z^(N - k), by Vieta
    recon = (1,) + params_mod._elementary([-z for z in zset.zeros])
    recon_gap = rel_gaps(monic.coeffs, recon[::-1]).max()
    checks = [
        _check("companion_gap", gap, tol),
        _check("max_residual", zset.max_residual, tol),
        _check("reconstruction_gap", recon_gap, tol),
    ]
    result = {
        "zeros": [_pair(z) for z in zset.zeros],
        # null for one zero: JSON has no Infinity
        "min_separation": zset.min_separation if len(zset) > 1 else None,
    }
    return checks, result


def _jacobian_defect(case: Case) -> float:
    # compared in the precision of the entries: rounding both sides to
    # binary64 first would hide any extended-precision defect below 1e-16
    return rel_gaps(zero_flow.jacobian_fd(case), case.M).max()


def cmd_verify(case: Case, options: dict, tol, rng) -> Tuple[List[dict], dict]:
    size = context_of(case.params.q).size
    prop1 = zero_algebra.prop1_residuals(case)
    qde, agreement = qdiff.qde_checks(case)
    prop1_qde = zero_algebra.prop1_residuals_qde(case)
    checks = [
        _check("qde_residual_max", max(size(v) for v in qde), tol),
        _check("qde_expanded_agreement_max", max(agreement), tol),
        _check("prop1_residual_max", max(prop1), tol),
        _check("prop1_dual_gap", rel_gaps(prop1, prop1_qde).max(), tol),
    ]

    # the verdict by backward error; the forward gaps and their
    # certificates are reported, not judged
    M, backward = isospectral.certified_spectrum(case)
    mus, (lam, certificates) = case.mu, case.eigenpairs
    checks.append(_check("spectrum_backward_max", backward.max(), tol))
    traces = isospectral.matrix_power_traces(M)
    closed = [*(sum(m**p for m in mus) for p in (1, 2, 3)), isospectral.closed_trace(case.params)]
    names = ("trace_gap_p1", "trace_gap_p2", "trace_gap_p3", "closed_trace_gap")
    for name, gap in zip(names, rel_gaps([*traces, traces[0]], closed).tolist()):
        checks.append(_check(name, gap, tol))
    checks.append(_check("det_gap", isospectral.logdet_gap(M, mus), tol))
    checks.append(_check("jacobian_defect", _jacobian_defect(case), tol))

    result = {
        "zeros": [_pair(z) for z in case.zeros],
        "mu_closed": [_pair(m) for m in mus],
        "matched_pairs": [
            [_pair(lam[i]), _pair(mu), float(rel), certificates[i]]
            for i, mu, _absgap, rel in isospectral.match_spectrum(lam, mus, positions=True)
        ],
    }
    return checks, result


def _matrix_inf_norm(rows) -> float:
    return max(sum(abs(complex(v)) for v in row) for row in rows)


def cmd_sweep(case: Case, options: dict, tol, rng) -> Tuple[List[dict], dict]:
    params, k = case.params, options["sweep_k"]
    if params.s == 0:
        return [], {"note": "no β parameters", "perturbations": 0}
    if params.N == 1:
        return [], {"note": "N = 1: the 1 x 1 matrix is μ_1, β-free by construction", "perturbations": 0}
    if k == 0:
        return [], {"note": "empty sweep", "perturbations": 0}
    base_norm = _matrix_inf_norm(case.M)

    drift_max = 0.0
    matrix_drift_min = float("inf")
    factors_used = []
    for _ in range(k):
        pert = None
        for _attempt in range(SWEEP_REDRAW_LIMIT):
            factors = rng.uniform(0.5, 2.0, size=params.s)
            candidate = dataclasses.replace(
                params, beta=tuple(b * f for b, f in zip(params.beta, factors))
            )
            try:
                pert = params_mod.validate(candidate)
            except NonGenericParameter:
                continue
            factors_used.append([float(f) for f in factors])
            break
        if pert is None:
            raise ConfigError(
                f"could not draw a generic β perturbation in {SWEEP_REDRAW_LIMIT} tries"
            )
        # the backward error of mu against M(beta'): mu_n reads no beta
        M_p, backward = isospectral.certified_spectrum(Case(pert))
        drift_max = max(drift_max, backward.max())
        delta = M_p.astype(complex) - case.M.astype(complex)
        matrix_drift_min = min(matrix_drift_min, _matrix_inf_norm(delta) / base_norm)

    checks = [
        _check("spectrum_drift_max", drift_max, tol),
        _check("matrix_drift_min", matrix_drift_min, tol, direction="above"),
    ]
    result = {"perturbations": k, "beta_factors": factors_used}
    return checks, result


def cmd_flow(
    case: Case, options: dict, tol, rng, traj_path: str | None = None
) -> Tuple[List[dict], dict]:
    # integrate_flow steps in binary64, so the flow checks read the case in binary64
    case = Case(params_mod.in_context(case.params, F64), [complex(z) for z in case.zeros])
    zeta, t_end, perturb = case.zeros, options["t_end"], options["perturb"]

    z0 = zeta
    if perturb != 0.0:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(zeta))
        z0 = tuple(z * (1 + perturb * complex(np.cos(th), np.sin(th))) for z, th in zip(zeta, phases))

    checks = [_check("equilibrium_residual", zero_flow.equilibrium_residual(case), tol)]
    checks.append(_check("jacobian_defect", _jacobian_defect(case), tol))

    try:
        t, Z = zero_flow.integrate_flow(case, z0, t_end, FLOW_SAMPLES)
    except (CollisionDetected, OverflowRisk) as exc:
        name = "no_collision" if isinstance(exc, CollisionDetected) else "no_overflow"
        checks.append(
            {"name": name, "value": 1.0, "threshold": DEFAULT_THRESHOLDS[name], "pass": False}
        )
        return checks, {"error": str(exc)}

    if perturb == 0.0:
        checks.append(_check("endpoint_drift", rel_gaps(Z, zeta).max(), tol))

    if traj_path is not None:
        try:
            with open(traj_path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t"] + [f"{part}_z{n}" for n in range(1, len(zeta) + 1) for part in ("re", "im")])
                for ti, zi in zip(t, Z):
                    parts = [p for z in map(complex, zi) for p in (z.real, z.imag)]
                    writer.writerow([repr(x) for x in (float(ti), *parts)])
        except OSError as exc:
            raise ConfigError(f"cannot write trajectory: {exc}") from exc

    result = {
        "t_end": float(t_end),
        "samples": len(t),
        "final_z": [_pair(z) for z in Z[-1]],
    }
    return checks, result


COMMANDS = {
    "poly": cmd_poly,
    "zeros": cmd_zeros,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "flow": cmd_flow,
}


def _seed(text: str) -> int:
    # numpy's generators take no negative seed: a usage error, not a failed check
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return int(text)


def _tol(text: str) -> float:
    # a report's threshold is a finite JSON number, and no value lies below 0
    if not 0 <= float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number at least 0, got {text}")
    return float(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args returns a
    fresh namespace on every call, so no parsed state carries over."""
    parser = argparse.ArgumentParser(
        prog="qzeros",
        description="numerical checks for zeros of generalized basic hypergeometric polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON run configuration")
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        p.add_argument("--seed", type=_seed, default=0, help="RNG seed, a nonnegative integer (default 0)")
        p.add_argument(
            "--tol", type=_tol, default=None, help="override every check threshold, a finite number at least 0"
        )
        p.add_argument(
            "--precision", choices=("f64", "extended"), default="f64",
            help="arithmetic for the core computations",
        )
        if name == "flow":
            p.add_argument("--traj", default=None, help="trajectory CSV path")
    return parser


def _write_report(report: dict, out_path: str | None) -> None:
    # one line through json's C encoder, which indent would bypass; the
    # default separators keep '"wall_time_s": ' as the bench harness reads it
    text = json.dumps(report) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        # an output path in no directory fails before any work, as its write would
        for path, what in ((args.out, "report"), (getattr(args, "traj", None), "trajectory")):
            if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
                error = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
                raise ConfigError(f"cannot write {what}: {error}")
        raw, params, options = load_config(args.config)
        # every command computes in the precision of the case it is given
        case = Case(params_mod.in_context(params, extended() if args.precision == "extended" else F64))
        # only sweep's beta factors and flow's phases draw from the seed's
        # stream: poly, zeros and verify never load numpy.random
        rng = np.random.default_rng(args.seed) if args.command in ("sweep", "flow") else None
        extra = (args.traj,) if args.command == "flow" else ()
        checks, result = COMMANDS[args.command](case, options, args.tol, rng, *extra)
    except (ConfigError, NonGenericParameter, InvalidDegree) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QZerosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = {
        "command": args.command,
        "config": raw,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "result": result,
        "wall_time_s": time.perf_counter() - started,
    }
    try:
        _write_report(report, args.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
