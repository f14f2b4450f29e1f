"""Acceptance criteria, one test per criterion.

`pytest -v` prints one PASSED/FAILED line per criterion; each test also
prints the measured margin (visible with -s or in failure reports).
"""

import random
import time
from fractions import Fraction

from qzeros.flow import (
    equilibrium_residual,
    flow_rhs,
    integrate_flow,
    jacobian_fd,
)
from qzeros.isospectral import (
    Case,
    build_M,
    closed_trace,
    logdet_gap,
    match_spectrum,
    matrix_power_traces,
    mu_closed,
)
from qzeros.params import ParamSet, validate
from qzeros.errors import NonGenericParameter
from qzeros.qdiff import qde_expanded_agreement, qde_residual
from qzeros.qseries import coeffs_P
from qzeros.rootfind import companion_zeros, find_zeros
from qzeros.zero_algebra import prop1_residuals

from conftest import zeros_of
from oracles import forward_spectrum, mu_closed_exact

CONTRACTIVE = ParamSet(r=0, s=1, N=6, q=0.45, alpha=(), beta=(1.3 - 0.4j,))


def _report(label, ok, detail):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_spectrum_identity(suite):
    t0 = time.perf_counter()
    worst = 0.0
    for params in suite:
        _, lam = forward_spectrum(Case(params))
        pairs = match_spectrum(lam, mu_closed(params))
        worst = max(worst, max(pair[3] for pair in pairs))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    assert _report(
        "1 spectrum identity", ok, f"worst gap {worst:.3e}, {elapsed:.1f}s for 50 cases"
    )


def test_criterion_02_prop1_residuals(suite):
    worst_true = 0.0
    weakest_probe = float("inf")
    for params in suite:
        _, zset = zeros_of(params)
        worst_true = max(worst_true, max(prop1_residuals(Case(params, zset.zeros))))
        for idx in range(params.N):
            bumped = list(zset.zeros)
            bumped[idx] = bumped[idx] * (1 + 1e-3)
            weakest_probe = min(weakest_probe, max(prop1_residuals(Case(params, bumped))))
    ok = worst_true < 1e-8 and weakest_probe > 1e-5
    assert _report(
        "2 zero identities",
        ok,
        f"true-zero worst {worst_true:.3e}, weakest perturbation response {weakest_probe:.3e}",
    )


def test_criterion_03_qde_annihilation(suite):
    # the equation is an identity between polynomials of degree N + 1,
    # judged at each of its N + 2 coefficients
    worst_res = 0.0
    worst_agree = 0.0
    for params in suite:
        case = Case(params)
        worst_res = max(worst_res, max(abs(v) for v in qde_residual(case)))
        worst_agree = max(worst_agree, max(qde_expanded_agreement(case)))
    ok = worst_res < 1e-9 and worst_agree < 1e-10
    assert _report(
        "3 q-difference annihilation",
        ok,
        f"worst residual {worst_res:.3e}, route agreement {worst_agree:.3e}",
    )


def test_criterion_04_traces_and_determinant(suite):
    worst_power = 0.0
    worst_det = 0.0
    worst_closed = 0.0
    closed_checked = 0
    for params in suite:
        M = Case(params).M
        mus = mu_closed(params)
        traces = matrix_power_traces(M)
        for p, lhs in enumerate(traces, start=1):
            rhs = sum(v**p for v in mus)
            worst_power = max(worst_power, abs(lhs - rhs) / max(1.0, abs(rhs)))
        worst_det = max(worst_det, logdet_gap(M, mus))
        if (params.r, params.s) in ((1, 1), (2, 1)):
            ct = closed_trace(params)
            tr = traces[0]
            worst_closed = max(worst_closed, abs(tr - ct) / max(1.0, abs(ct)))
            closed_checked += 1
    ok = worst_power < 1e-6 and worst_det < 1e-6 and worst_closed < 1e-8 and closed_checked > 0
    assert _report(
        "4 trace and determinant identities",
        ok,
        f"power traces {worst_power:.3e}, det {worst_det:.3e},"
        f" closed trace {worst_closed:.3e} over {closed_checked} cases",
    )


def test_criterion_05_isospectral_beta_sweep():
    params = ParamSet(r=1, s=1, N=6, q=0.45, alpha=(0.7 + 0.2j,), beta=(1.3 - 0.4j,))
    rng = random.Random(505)
    mus = mu_closed(params)
    M0 = Case(params).M
    norm0 = max(sum(abs(v) for v in row) for row in M0)
    worst_spec = 0.0
    least_move = float("inf")
    for _ in range(8):
        while True:
            pert = ParamSet(
                r=params.r,
                s=params.s,
                N=params.N,
                q=params.q,
                alpha=params.alpha,
                beta=tuple(b * rng.uniform(0.5, 2.0) for b in params.beta),
            )
            try:
                validate(pert)
                break
            except NonGenericParameter:
                continue
        Mp, lam = forward_spectrum(Case(pert))
        pairs = match_spectrum(lam, mus)
        worst_spec = max(worst_spec, max(pair[3] for pair in pairs))
        move = max(
            sum(abs(a - b) for a, b in zip(ra, rb))
            for ra, rb in zip(Mp, M0)
        )
        least_move = min(least_move, move / norm0)
    ok = worst_spec < 1e-6 and least_move > 1e-3
    assert _report(
        "5 isospectral beta sweep",
        ok,
        f"spectrum drift {worst_spec:.3e}, smallest matrix move {least_move:.3e}",
    )


def test_criterion_06_diophantine_rational_spectrum():
    q = Fraction(1, 2)
    alphas = (Fraction(3, 4), Fraction(5, 3))
    N = 6
    exact = mu_closed_exact(q, alphas, N, 2, 1)
    assert all(isinstance(v, Fraction) for v in exact)
    targets = [complex(v) for v in exact]
    rng = random.Random(606)
    worst = 0.0
    for _ in range(4):
        while True:
            params = ParamSet(
                r=2,
                s=1,
                N=N,
                q=0.5,
                alpha=(0.75, complex(Fraction(5, 3))),
                beta=(complex(rng.uniform(0.3, 2.0), rng.uniform(-0.6, 0.6)),),
            )
            try:
                validate(params)
                break
            except NonGenericParameter:
                continue
        _, lam = forward_spectrum(Case(params))
        pairs = match_spectrum(lam, targets)
        worst = max(worst, max(pair[3] for pair in pairs))
    ok = worst < 1e-6
    assert _report(
        "6 Diophantine rational eigenvalues",
        ok,
        f"worst gap to exact rationals across beta draws {worst:.3e}",
    )


def test_criterion_07_linearization_is_M():
    params = ParamSet(r=1, s=1, N=8, q=0.45, alpha=(0.8 + 0.1j,), beta=(1.4 - 0.3j,))
    t0 = time.perf_counter()
    _, zset = zeros_of(params)
    case = Case(params, zset.zeros)
    M = build_M(case)
    J = jacobian_fd(case)
    worst_entry = 0.0
    for n in range(params.N):
        for m in range(params.N):
            gap = abs(J[n][m] - M[n, m]) / max(1.0, abs(M[n, m]))
            worst_entry = max(worst_entry, gap)
    elapsed = time.perf_counter() - t0

    # convergence order from plain single-axis central differences
    zs = list(zset.zeros)
    scale = max(abs(z) for z in zs)

    def defect(h):
        worst = 0.0
        for m in range(params.N):
            plus, minus = list(zs), list(zs)
            plus[m] = zs[m] + h
            minus[m] = zs[m] - h
            vp = flow_rhs(tuple(plus), case)
            vm = flow_rhs(tuple(minus), case)
            for n in range(params.N):
                worst = max(worst, abs((vp[n] - vm[n]) / (2 * h) - M[n, m]))
        return worst

    h0 = 1e-2 * scale
    d = [defect(h0), defect(h0 / 2), defect(h0 / 4)]
    ratios = (d[0] / d[1], d[1] / d[2])
    second_order = all(3.0 < r < 5.5 for r in ratios)
    ok = worst_entry < 1e-5 and second_order and elapsed < 10.0
    assert _report(
        "7 linearization equals M",
        ok,
        f"entrywise gap {worst_entry:.3e}, h-halving ratios {ratios[0]:.2f}/{ratios[1]:.2f},"
        f" {elapsed:.1f}s at N=8",
    )


def test_criterion_08_equilibrium(suite):
    worst_velocity = 0.0
    for params in suite:
        _, zset = zeros_of(params)
        worst_velocity = max(worst_velocity, equilibrium_residual(Case(params, zset.zeros)))

    _, zset = zeros_of(CONTRACTIVE)
    scale = max(abs(z) for z in zset.zeros)
    _, Z = integrate_flow(Case(CONTRACTIVE), zset.zeros, 1.0, 5)
    drift = max(
        abs(z - ref) / max(1.0, abs(ref))
        for zs in Z
        for z, ref in zip(zs, zset.zeros)
    )
    ok = worst_velocity < 1e-8 and drift < 1e-8
    assert _report(
        "8 equilibrium of the flow",
        ok,
        f"velocity residual {worst_velocity:.3e}, integration drift {drift:.3e} over t=1",
    )


def test_criterion_09_reduction():
    q = 0.45
    a1, a2 = 0.7 + 0.2j, 1.5 - 0.3j
    N = 6
    full = ParamSet(r=2, s=2, N=N, q=q, alpha=(a1, a2), beta=(1.3 - 0.4j, a2))
    reduced = ParamSet(r=1, s=1, N=N, q=q, alpha=(a1,), beta=(1.3 - 0.4j,))
    pf = coeffs_P(full)
    pr = coeffs_P(reduced)
    coeff_gap = max(
        abs(a - b) / max(abs(a), abs(b), 1e-300) for a, b in zip(pf.coeffs, pr.coeffs)
    )

    _, lam = forward_spectrum(Case(full))
    pairs = match_spectrum(lam, mu_closed(full))
    spec_gap = max(pair[3] for pair in pairs)
    factor_gap = 0.0
    for n, (mf, mr) in enumerate(zip(mu_closed(full), mu_closed(reduced)), start=1):
        retained = a2 * q ** (N - n) - 1
        factor_gap = max(factor_gap, abs(mf - mr * retained) / max(1.0, abs(mf)))
    ok = coeff_gap < 1e-12 and spec_gap < 1e-6 and factor_gap < 1e-12
    assert _report(
        "9 reduction keeps the spectrum factor",
        ok,
        f"coefficient gap {coeff_gap:.3e}, spectrum gap {spec_gap:.3e},"
        f" retained-factor identity {factor_gap:.3e}",
    )


def test_criterion_10_rootfinder_oracle(suite):
    worst_pair = 0.0
    worst_recon = 0.0
    for params in suite:
        p, zset = zeros_of(params)
        pool = list(companion_zeros(p))
        for z in zset.zeros:
            best = min(range(len(pool)), key=lambda i: abs(pool[i] - z))
            worst_pair = max(worst_pair, abs(pool[best] - z) / max(1.0, abs(z)))
            pool.pop(best)
        recon = [1.0 + 0.0j]
        for z in zset.zeros:
            nxt = [0.0j] * (len(recon) + 1)
            for m, c in enumerate(recon):
                nxt[m + 1] += c
                nxt[m] -= c * z
            recon = nxt
        scale = max(abs(c) for c in p.coeffs)
        worst_recon = max(
            worst_recon,
            max(abs(a - b) for a, b in zip(recon, p.coeffs)) / scale,
        )
    ok = worst_pair < 1e-7 and worst_recon < 1e-8
    assert _report(
        "10 root-finder oracle",
        ok,
        f"multiset gap {worst_pair:.3e}, reconstruction {worst_recon:.3e}",
    )
