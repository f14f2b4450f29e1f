"""Matrix assembly, spectra, closed-form eigenvalues, exact rational path."""

import json
import random
from fractions import Fraction

import mpmath
import pytest

from qzeros import isospectral
from qzeros.cli import main
from qzeros.errors import LengthMismatch, NonGenericParameter
from qzeros.isospectral import (
    IsoMatrix,
    build_M,
    certified_spectrum,
    closed_trace,
    eigenvalues_dense,
    logdet_gap,
    match_spectrum,
    matrix_power_trace,
    mu_closed,
    mu_closed_exact,
)
from qzeros.params import ParamSet, in_context, validate
from qzeros.precision import extended
from qzeros.qseries import coeffs_P, to_monic
from qzeros.rootfind import find_zeros

from conftest import suite_cases, zeros_of
from oracles import build_M_r1s1, build_M_r2s1, build_M_r2s2


def test_build_M_n1_hand_case():
    q = 0.45
    params = ParamSet(r=0, s=0, N=1, q=q, alpha=(), beta=())
    _, zset = zeros_of(params)
    M = build_M(zset.zeros, params)
    assert M.n == 1
    assert abs(M.entries[0][0] - (q - 1) / q) < 1e-12
    assert abs(M.entries[0][0] - mu_closed(params)[0]) < 1e-12


def _entrywise_close(A, B, tol):
    for ra, rb in zip(A.entries, B.entries):
        for a, b in zip(ra, rb):
            assert abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_specialized_builders_match_general(suite):
    builders = {(1, 1): build_M_r1s1, (2, 1): build_M_r2s1, (2, 2): build_M_r2s2}
    seen = set()
    for params in suite:
        key = (params.r, params.s)
        if key not in builders:
            continue
        seen.add(key)
        _, zset = zeros_of(params)
        _entrywise_close(build_M(zset.zeros, params), builders[key](zset.zeros, params), 1e-12)
    assert seen == set(builders)


def test_mu_closed_hand_forms():
    q = 0.6 - 0.2j
    p00 = ParamSet(r=0, s=0, N=4, q=q, alpha=(), beta=())
    for n, mu in enumerate(mu_closed(p00), start=1):
        assert mu == -(q ** (-n) - 1)

    a1 = 0.8 + 0.3j
    p11 = ParamSet(r=1, s=1, N=4, q=q, alpha=(a1,), beta=(1.2,))
    for n, mu in enumerate(mu_closed(p11), start=1):
        ref = -(q ** (-n) - 1) * (a1 * q ** (4 - n) - 1)
        assert abs(mu - ref) < 1e-15 * abs(ref)

    a2 = 1.4 - 0.1j
    p21 = ParamSet(r=2, s=1, N=5, q=0.5, alpha=(a1, a2), beta=(1.2,))
    for n, mu in enumerate(mu_closed(p21), start=1):
        ref = -(0.5 ** (n - 5)) * (0.5 ** (-n) - 1) * (a1 * 0.5 ** (5 - n) - 1) * (a2 * 0.5 ** (5 - n) - 1)
        assert abs(mu - ref) < 1e-12 * abs(ref)


def test_mu_closed_exact_hand_cases():
    assert mu_closed_exact(Fraction(1, 2), (), 1, 0, 0) == [Fraction(-1)]
    # r=0, s=1, N=2, n=1: -(1/2)^1 (2 - 1) = -1/2
    vals = mu_closed_exact(Fraction(1, 2), (), 2, 0, 1)
    assert vals[0] == Fraction(-1, 2)
    rich = mu_closed_exact(Fraction(2, 3), (Fraction(3, 5), Fraction(7, 2)), 4, 2, 1)
    assert all(isinstance(v, Fraction) for v in rich)
    assert all(v.denominator > 0 for v in rich)


def test_eigenvalues_hand_cases():
    got = eigenvalues_dense(((0.7 - 0.4j,),))
    assert len(got) == 1 and abs(got[0] - (0.7 - 0.4j)) < 1e-14

    diag = ((2.0, 0.0, 0.0), (0.0, -1.0 + 1.0j, 0.0), (0.0, 0.0, 0.25))
    got = sorted(eigenvalues_dense(diag), key=lambda v: v.real)
    ref = sorted([2.0, -1.0 + 1.0j, 0.25], key=lambda v: (v if isinstance(v, float) else v.real))
    for g, r in zip(got, sorted([complex(-1.0, 1.0), complex(0.25), complex(2.0)], key=lambda v: v.real)):
        assert abs(g - r) < 1e-12

    companion = ((0.0, -2.0), (1.0, 3.0))
    got = sorted(eigenvalues_dense(companion), key=lambda v: v.real)
    assert abs(got[0] - 1.0) < 1e-10 and abs(got[1] - 2.0) < 1e-10

    M = IsoMatrix(entries=companion)
    got = sorted(eigenvalues_dense(M.entries), key=lambda v: v.real)
    assert abs(got[0] - 1.0) < 1e-10 and abs(got[1] - 2.0) < 1e-10


def test_match_spectrum_identity_and_permutation():
    vals = [1.0 + 2.0j, 3.0 - 1.0j, 0.5 + 0.0j, -2.2 + 0.4j]
    rep = match_spectrum(vals, list(vals))
    assert rep.is_match
    assert all(pair[2] == 0.0 for pair in rep.matched_pairs)
    assert rep.trace_gap == 0.0 and rep.det_gap < 1e-15

    perm = [vals[2], vals[0], vals[3], vals[1]]
    rep = match_spectrum(vals, perm)
    assert rep.is_match
    assert all(pair[2] == 0.0 for pair in rep.matched_pairs)
    assert rep.trace_gap < 1e-15 and max(rep.power_trace_gaps) < 1e-14

    wrong = [v * 1.01 for v in vals]
    assert not match_spectrum(vals, wrong).is_match

    with pytest.raises(LengthMismatch):
        match_spectrum(vals, vals[:2])


def test_spectrum_identity_on_small_suite(small_suite):
    for params in small_suite:
        _, lam = certified_spectrum(params)
        rep = match_spectrum(lam, mu_closed(params))
        assert rep.is_match, (params.r, params.s, params.N)
        assert max(pair[3] for pair in rep.matched_pairs) < 1e-6


def test_corollary_traces_and_det(small_suite):
    for params in small_suite:
        M, _ = certified_spectrum(params)
        mus = mu_closed(params)
        for p in (1, 2, 3):
            lhs = matrix_power_trace(M, p)
            rhs = sum(v**p for v in mus)
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))
        assert logdet_gap(M, mus) < 1e-6


def test_beta_perturbation_keeps_spectrum():
    rng = random.Random(88)
    cases = [
        ParamSet(r=1, s=1, N=6, q=0.45, alpha=(0.7 + 0.2j,), beta=(1.3 - 0.4j,)),
        ParamSet(r=2, s=2, N=5, q=0.4 + 0.3j, alpha=(0.8, 1.4 - 0.2j), beta=(0.9 + 0.1j, 1.7)),
    ]
    for params in cases:
        mus = mu_closed(params)
        M0, _ = certified_spectrum(params)
        for _ in range(2):
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
            Mp, lam = certified_spectrum(pert)
            rep = match_spectrum(lam, mus)
            assert rep.is_match
            norm0 = max(sum(abs(v) for v in row) for row in M0.entries)
            drift = max(
                sum(abs(a - b) for a, b in zip(ra, rb))
                for ra, rb in zip(Mp.entries, M0.entries)
            )
            assert drift / norm0 > 1e-3


def test_diophantine_rational_case():
    q = Fraction(1, 2)
    alphas = (Fraction(3, 4),)
    exact = mu_closed_exact(q, alphas, 5, 1, 1)
    params = ParamSet(r=1, s=1, N=5, q=0.5, alpha=(0.75,), beta=(1.3 - 0.4j,))
    _, lam = certified_spectrum(params)
    rep = match_spectrum(lam, [complex(Fraction(v)) for v in exact])
    assert rep.is_match
    # the rationals do not depend on beta
    other = ParamSet(r=1, s=1, N=5, q=0.5, alpha=(0.75,), beta=(0.6 + 0.2j,))
    _, lam2 = certified_spectrum(other)
    assert match_spectrum(lam2, [complex(v) for v in exact]).is_match


def test_closed_trace_forms(small_suite):
    # alpha_1 = 0 collapses the (1,1) formula to q(1-q^{-N-1})/(q-1) - N - 1
    q, N = 0.45, 5
    p0 = ParamSet(r=1, s=1, N=N, q=q, alpha=(0.0,), beta=(1.3,))
    ref = q * (1 - q ** (-N - 1)) / (q - 1) - N - 1
    assert abs(closed_trace(p0) - ref) < 1e-12 * abs(ref)

    for params in small_suite:
        lhs = closed_trace(params)
        rhs = sum(mu_closed(params))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_closed_trace_21_exact_rational():
    q = Fraction(1, 2)
    alphas = (Fraction(3, 4), Fraction(5, 3))
    params = ParamSet(r=2, s=1, N=5, q=q, alpha=alphas, beta=(Fraction(7, 5),))
    assert closed_trace(params) == sum(mu_closed_exact(q, alphas, 5, 2, 1))


def test_reduction_retains_alpha2_factor():
    # beta_2 = alpha_2 cancels in the polynomial but not in the spectrum
    q = 0.45
    a1, a2 = 0.7 + 0.2j, 1.5 - 0.3j
    full = ParamSet(r=2, s=2, N=5, q=q, alpha=(a1, a2), beta=(1.3 - 0.4j, a2))
    reduced = ParamSet(r=1, s=1, N=5, q=q, alpha=(a1,), beta=(1.3 - 0.4j,))
    _, lam = certified_spectrum(full)
    rep = match_spectrum(lam, mu_closed(full))
    assert rep.is_match
    # the mu of the full set retain (alpha_2 q^{N-n} - 1); they differ from
    # the reduced set's mu by that factor
    diff = max(
        abs(a - b) / max(1.0, abs(b))
        for a, b in zip(mu_closed(full), mu_closed(reduced))
    )
    assert diff > 1e-2
    assert not match_spectrum(lam, mu_closed(reduced)).is_match


EPS64 = 2.0**-52
# the suite cases whose binary64 eigenvalue certificate of M fails
ESCALATING = (19, 26, 38)


def _counting(monkeypatch, module, name):
    """Wrap module.name so that each call's result is recorded."""
    original = getattr(module, name)
    results = []

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, counted)
    return results


def test_suite_escalations_refine_without_mpmath_eig(suite, monkeypatch):
    eig_calls = _counting(monkeypatch, mpmath, "eig")
    refined = _counting(monkeypatch, isospectral, "_refined_eigenvalues")
    for params in suite:
        _, lam = certified_spectrum(params, zeros_of(params)[1].zeros)
        assert match_spectrum(lam, mu_closed(params)).is_match
    assert len(refined) == len(ESCALATING)
    assert all(vals is not None for vals in refined)
    assert eig_calls == []


def test_refined_eigenvalues_equal_mpmath_eig(suite, monkeypatch):
    for index in ESCALATING:
        params = suite[index]
        zeros = zeros_of(params)[1].zeros
        _, lam = certified_spectrum(params, zeros)
        with monkeypatch.context() as patch:
            patch.setattr(isospectral, "_refined_eigenvalues", lambda rows, eps_out: None)
            _, ref = certified_spectrum(params, zeros)
        nearest = [min(range(len(ref)), key=lambda j: abs(v - ref[j])) for v in lam]
        assert sorted(nearest) == list(range(len(ref))), index
        for v, j in zip(lam, nearest):
            assert abs(v - ref[j]) <= 4 * EPS64 * abs(ref[j]), index


def test_stream_case_199_certifies_through_mpmath_eig(monkeypatch):
    # r = 1, s = 0, N = 10 at q = -0.224: eigenvalue condition about 1e12,
    # bordered-matrix condition about 1e16, beyond binary64 corrections
    params = suite_cases(200)[199]
    refined = _counting(monkeypatch, isospectral, "_refined_eigenvalues")
    fallback = _counting(monkeypatch, isospectral, "_eig_extended")
    _, lam = certified_spectrum(params)
    assert refined == [None] and len(fallback) == 1
    assert lam == [complex(v) for v in fallback[0]]
    assert match_spectrum(lam, mu_closed(params)).is_match


def test_near_defective_matrix_falls_back_to_mpmath_eig(monkeypatch):
    # eigenvalues 1 +- 1e-30: binary64 sees a double eigenvalue 1, and the
    # two starts cannot be refined to two certified, separated eigenvalues
    ctx = extended(40)
    rows = ((ctx.convert(1), ctx.convert(1)), (ctx.mp.mpf("1e-60"), ctx.convert(1)))
    fallback = _counting(monkeypatch, isospectral, "_eig_extended")
    got = isospectral._eig_escalated(rows)
    assert len(fallback) == 1 and got is fallback[0]


def _extended_verify_report(tmp_path, params):
    cfg = {
        "r": params.r,
        "s": params.s,
        "N": params.N,
        "q": [params.q.real, params.q.imag],
        "alpha": [[a.real, a.imag] for a in params.alpha],
        "beta": [[b.real, b.imag] for b in params.beta],
    }
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps(cfg))
    code = main(["verify", "--config", str(path), "--precision", "extended", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_extended_verify_refines_without_mpmath_eig(suite, tmp_path, monkeypatch):
    eig_calls = _counting(monkeypatch, mpmath, "eig")
    small = [params for params in suite if params.N <= 5]
    assert len(small) == 25
    for params in small:
        code, report = _extended_verify_report(tmp_path, params)
        gap = {c["name"]: c["value"] for c in report["checks"]}["spectrum_gap_max"]
        assert code == 0 and gap <= 1e-40, (params, gap)
    assert eig_calls == []


def test_refined_extended_eigenvalues_equal_mpmath_eig(suite):
    ctx = extended()
    for index in (1, 3, 4):
        params = in_context(suite[index], ctx)
        zeros = find_zeros(to_monic(coeffs_P(params)), params).zeros
        M, lam = certified_spectrum(params, zeros)
        ref = isospectral._eig_extended(M.entries, extended(ctx.mp.dps + 20))
        assert len(lam) == params.N == len(ref), index
        for v in lam:
            gap = min(abs(v - r) / abs(r) for r in ref)
            assert gap <= 8 * ctx.eps, (index, gap)


def test_near_defective_matrix_falls_back_on_the_extended_route(suite, monkeypatch):
    # the extended branch of certified_spectrum refines before it calls
    # mpmath.eig; the near-defective pair must still reach mpmath.eig
    ctx = extended()
    rows = ((ctx.convert(1), ctx.convert(1)), (ctx.mp.mpf("1e-60"), ctx.convert(1)))
    monkeypatch.setattr(isospectral, "build_M", lambda zeros, params: IsoMatrix(entries=rows))
    fallback = _counting(monkeypatch, isospectral, "_eig_extended")
    params = in_context(suite[1], ctx)
    assert params.N == 2
    _, lam = certified_spectrum(params, [ctx.convert(1), ctx.convert(2)])
    assert len(fallback) == 1 and lam is fallback[0]
    assert sorted(abs(v - 1) for v in lam) == pytest.approx([1e-30, 1e-30], rel=1e-12)
