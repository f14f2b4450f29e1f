"""Matrix assembly, spectra, closed-form eigenvalues, exact rational path."""

import json
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qzeros import isospectral, rootfind, zero_algebra
from qzeros.cli import cmd_verify, main
from qzeros.errors import EigenNoConvergence, LengthMismatch, NonGenericParameter
from qzeros.isospectral import (
    EIG_TARGET,
    Case,
    build_M,
    closed_trace,
    logdet_gap,
    match_spectrum,
    matrix_power_traces,
    mu_closed,
)
from qzeros.params import ParamSet, in_context, validate
from qzeros.precision import F64, context_of, extended
from qzeros.qseries import coeffs_P, to_monic
from qzeros.rootfind import find_zeros
from qzeros.zero_algebra import velocity_terms, velocity_weights

import oracles
from conftest import counting, suite_cases, zeros_of
from oracles import (
    build_M_addends,
    build_M_r1s1,
    build_M_r2s1,
    build_M_r2s2,
    certified_eigenvalues,
    closed_trace_r1s1,
    closed_trace_r2s1,
    eig_bound_lapack,
    forward_spectrum,
    mu_closed_exact,
    refined_eigenvalues_fdot,
    spectrum_match,
)


def test_build_M_n1_hand_case():
    q = 0.45
    params = ParamSet(r=0, s=0, N=1, q=q, alpha=(), beta=())
    _, zset = zeros_of(params)
    M = build_M(Case(params, zset.zeros))
    assert M.shape == (1, 1)
    assert abs(M[0, 0] - (q - 1) / q) < 1e-12
    assert abs(M[0, 0] - mu_closed(params)[0]) < 1e-12


def test_one_by_one_eigenvalue_is_its_entry(suite):
    # at 50 digits the refinement of the entry would miss it by a few ulps:
    # M and the companion matrix at N = 1 return their entry, bit for bit,
    # and the companion oracle returns it, -c_0, before building the matrix
    ctx = extended(50)
    cases = [Case(in_context(params, ctx)) for params in suite if params.N == 1]
    assert len(cases) == 5
    for case in cases:
        for rows in (case.M, rootfind.balanced_companion(case.monic)):
            assert rows.shape == (1, 1)
            assert certified_eigenvalues(rows) == [rows[0][0]]
        assert rootfind.companion_zeros(case.monic) == [rows[0][0]]
    assert certified_eigenvalues(((0.7 - 0.4j,),)) == [0.7 - 0.4j]


def _entrywise_close(A, B, tol):
    for ra, rb in zip(A, B):
        for a, b in zip(ra, rb):
            assert abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize(
    "ctx, max_degree, tol", [(F64, 10, 1e-12), (extended(50), 5, 1e-40)], ids=["f64", "ext50"]
)
def test_specialized_builders_match_general(suite, ctx, max_degree, tol):
    # build_M against the addend-by-addend assembly on every (r, s), and
    # against the printed forms where the suite has one
    builders = {(1, 1): build_M_r1s1, (2, 1): build_M_r2s1, (2, 2): build_M_r2s2}
    seen = set()
    for params in suite:
        if params.N > max_degree:
            continue
        key = (params.r, params.s)
        seen.add(key)
        params = in_context(params, ctx)
        _, zset = zeros_of(params)
        M = build_M(Case(params, zset.zeros))
        assert M.dtype == ctx.dtype
        _entrywise_close(M, build_M_addends(zset.zeros, params), tol)
        if key in builders:
            _entrywise_close(M, builders[key](zset.zeros, params), tol)
    assert seen == {(0, 0), (1, 0), (0, 1), *builders}


def test_build_M_takes_one_kernel_table_per_shift(suite, monkeypatch):
    # one leave_one_out pass a shift gives its f_nm(k) table and f_n(k)
    tables = counting(monkeypatch, zero_algebra, "leave_one_out")
    addends = 0
    for params in suite[:6]:  # one case of each (r, s)
        _, zset = zeros_of(params)
        tables.clear()
        case = Case(params, zset.zeros)
        build_M(case)
        assert len(tables) == len(case.velocity_weights), (params.r, params.s)
        addends += len(velocity_terms(case))
    assert addends > sum(len(velocity_weights(Case(params))) for params in suite[:6])


@pytest.mark.parametrize("ctx", [F64, extended()], ids=["f64", "ext"])
def test_case_kernel_tables_are_read_only(suite, monkeypatch, ctx):
    # the tables build_M assembles a case's M from: an in-place write would
    # leave a cache that no longer holds the tables of its zeros
    params = in_context(suite[3], ctx)
    caches = counting(monkeypatch, isospectral, "KernelCache")
    build_M(Case(params, zeros_of(params)[1].zeros))
    [cache] = caches
    for table in (cache.z, cache.inv, cache.S, *cache.fnm.values(), *cache.fn.values()):
        with pytest.raises(ValueError, match="read-only"):
            table *= 2


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
    got = certified_eigenvalues(((0.7 - 0.4j,),))
    assert len(got) == 1 and abs(got[0] - (0.7 - 0.4j)) < 1e-14

    diag = ((2.0, 0.0, 0.0), (0.0, -1.0 + 1.0j, 0.0), (0.0, 0.0, 0.25))
    got = sorted(certified_eigenvalues(diag), key=lambda v: v.real)
    ref = sorted([2.0, -1.0 + 1.0j, 0.25], key=lambda v: (v if isinstance(v, float) else v.real))
    for g, r in zip(got, sorted([complex(-1.0, 1.0), complex(0.25), complex(2.0)], key=lambda v: v.real)):
        assert abs(g - r) < 1e-12

    companion = ((0.0, -2.0), (1.0, 3.0))
    for rows in (companion, np.array(companion, dtype=complex)):
        got = sorted(certified_eigenvalues(rows), key=lambda v: v.real)
        assert abs(got[0] - 1.0) < 1e-10 and abs(got[1] - 2.0) < 1e-10


def test_match_spectrum_identity_and_permutation():
    vals = [1.0 + 2.0j, 3.0 - 1.0j, 0.5 + 0.0j, -2.2 + 0.4j]
    rep = spectrum_match(vals, list(vals))
    assert rep.is_match
    assert all(pair[2] == 0.0 for pair in rep.matched_pairs)
    assert rep.trace_gap == 0.0 and rep.det_gap < 1e-15

    perm = [vals[2], vals[0], vals[3], vals[1]]
    rep = spectrum_match(vals, perm)
    assert rep.is_match
    assert all(pair[2] == 0.0 for pair in rep.matched_pairs)
    assert rep.trace_gap < 1e-15 and max(rep.power_trace_gaps) < 1e-14

    wrong = [v * 1.01 for v in vals]
    assert not spectrum_match(vals, wrong).is_match

    with pytest.raises(LengthMismatch):
        match_spectrum(vals, vals[:2])


@pytest.mark.parametrize("ctx", [F64, extended()])
def test_match_spectrum_pairs_nearest_first(ctx):
    # a conjugate pair listed in opposite orders pairs z with z, not with its
    # conjugate; pairs come in the order of the closed list, gaps in the
    # values' own precision
    delta = ctx.convert(1e-40 if ctx.mp else 1e-14)
    lam = [ctx.convert(v) for v in (1 + 2j, 1 - 2j, 0.5)]
    mu = [lam[1] + delta, lam[0] + delta, lam[2] + delta]
    pairs = match_spectrum(lam, mu)
    assert [(lv, mv) for lv, mv, _, _ in pairs] == [(lam[1], mu[0]), (lam[0], mu[1]), (lam[2], mu[2])]
    assert max(rel for _, _, _, rel in pairs) < (1e-39 if ctx.mp else 1e-13)

    # a permutation pairs every value with itself
    perm = [lam[2], lam[0], lam[1]]
    pairs = match_spectrum(lam, perm)
    assert [(lv, mv) for lv, mv, _, _ in pairs] == [(v, v) for v in perm]
    assert all(absgap == 0.0 and rel == 0.0 for _, _, absgap, rel in pairs)


def test_match_spectrum_breaks_exact_ties_by_index():
    # both bijections have the same total distance here, so only the tie
    # rule decides: 1 and -1 both lie 1 from 0, the lower numerical index
    # takes it
    pairs = match_spectrum([1.0, -1.0], [0.0, 5j])
    assert [(lv, mv) for lv, mv, _, _ in pairs] == [(1.0, 0.0), (-1.0, 5j)]
    # 0 lies 1 from both 1 and -1: the lower closed index takes it
    pairs = match_spectrum([0.0, 5j], [1.0, -1.0])
    assert [(lv, mv) for lv, mv, _, _ in pairs] == [(0.0, 1.0), (5j, -1.0)]
    # equal values keep their own positions: the lower one takes the
    # nearer closed value, wherever that stands
    pairs = match_spectrum([0.0, 0.0, 9.0], [5.0, 1.0, 9.0], positions=True)
    assert [(i, mv, gap) for i, mv, gap, _ in pairs] == [(1, 5.0, 5.0), (0, 1.0, 1.0), (2, 9.0, 0.0)]


def test_spectrum_identity_on_small_suite(small_suite):
    for params in small_suite:
        _, lam = forward_spectrum(Case(params))
        rep = spectrum_match(lam, mu_closed(params))
        assert rep.is_match, (params.r, params.s, params.N)
        assert max(pair[3] for pair in rep.matched_pairs) < 1e-6


def test_corollary_traces_and_det(small_suite):
    for params in small_suite:
        M = Case(params).M
        mus = mu_closed(params)
        for p, lhs in enumerate(matrix_power_traces(M), start=1):
            rhs = sum(v**p for v in mus)
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))
        assert logdet_gap(M, mus) < 1e-6


@pytest.mark.parametrize("ctx", [F64, extended()])
def test_logdet_gap_reads_the_swap_parity_and_stays_in_log_space(ctx):
    def matrix(rows):
        return np.array([[ctx.convert(v) for v in row] for row in rows], dtype=ctx.dtype)

    # one row swap: det = -6 = 3 * (-2), the product of the eigenvalues
    swapped = matrix([[0, 2], [3, 1]])
    assert logdet_gap(swapped, [ctx.convert(3), ctx.convert(-2)]) <= 4 * ctx.eps
    assert logdet_gap(swapped, [ctx.convert(3), ctx.convert(2)]) == pytest.approx(2.0)
    # det = 1e400, beyond binary64 range even when the entries are not
    big = matrix([[1e200, 0], [0, 1e200]])
    assert logdet_gap(big, [ctx.convert(1e200), ctx.convert(1e200)]) <= 4 * ctx.eps
    assert logdet_gap(big, [ctx.convert(1e200), ctx.convert(2e200)]) == pytest.approx(0.5)
    # a zero pivot is det M = 0: a defect of 1, with no log of 0 taken
    assert logdet_gap(matrix([[1, 2], [2, 4]]), [ctx.convert(5), ctx.convert(0)]) == 1.0
    # the ratio is one running product kept within its factors' range: the
    # mu in the reverse order would pair 1e200 with 1e-200, beyond binary64
    wide = matrix([[1e200, 0], [0, 1e-200]])
    assert logdet_gap(wide, [ctx.convert(1e-200), ctx.convert(1e200)]) <= 4 * ctx.eps
    # a ratio itself beyond binary64 range, det M / prod mu = 1e800, fails
    assert logdet_gap(big, [ctx.convert(1e-200), ctx.convert(1e-200)]) == math.inf


def test_beta_perturbation_keeps_spectrum():
    rng = random.Random(88)
    cases = [
        ParamSet(r=1, s=1, N=6, q=0.45, alpha=(0.7 + 0.2j,), beta=(1.3 - 0.4j,)),
        ParamSet(r=2, s=2, N=5, q=0.4 + 0.3j, alpha=(0.8, 1.4 - 0.2j), beta=(0.9 + 0.1j, 1.7)),
    ]
    for params in cases:
        mus = mu_closed(params)
        M0 = Case(params).M
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
            Mp, lam = forward_spectrum(Case(pert))
            rep = spectrum_match(lam, mus)
            assert rep.is_match
            norm0 = max(sum(abs(v) for v in row) for row in M0)
            drift = max(
                sum(abs(a - b) for a, b in zip(ra, rb))
                for ra, rb in zip(Mp, M0)
            )
            assert drift / norm0 > 1e-3


def test_diophantine_rational_case():
    q = Fraction(1, 2)
    alphas = (Fraction(3, 4),)
    exact = mu_closed_exact(q, alphas, 5, 1, 1)
    params = ParamSet(r=1, s=1, N=5, q=0.5, alpha=(0.75,), beta=(1.3 - 0.4j,))
    _, lam = forward_spectrum(Case(params))
    rep = spectrum_match(lam, [complex(Fraction(v)) for v in exact])
    assert rep.is_match
    # the rationals do not depend on beta
    other = ParamSet(r=1, s=1, N=5, q=0.5, alpha=(0.75,), beta=(0.6 + 0.2j,))
    _, lam2 = forward_spectrum(Case(other))
    assert spectrum_match(lam2, [complex(v) for v in exact]).is_match


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


def test_closed_trace_equals_the_eigenvalue_sum_exactly():
    # the general sum against sum_n mu_n and, at (1, 1) and (2, 1), against
    # the explicit formulas it replaced, all in exact rationals
    q = Fraction(2, 3)
    alphas = (Fraction(3, 4), Fraction(5, 3), Fraction(-7, 2))
    betas = (Fraction(7, 5), Fraction(1, 9), Fraction(-4, 3))
    for r, s in ((0, 0), (1, 1), (2, 1), (2, 2), (0, 3), (3, 0), (1, 2)):
        for N in (1, 2, 5, 9):
            params = ParamSet(r=r, s=s, N=N, q=q, alpha=alphas[:r], beta=betas[:s])
            trace = closed_trace(params)
            assert isinstance(trace, Fraction), (r, s, N)
            assert trace == sum(mu_closed_exact(q, alphas[:r], N, r, s)), (r, s, N)
            special = {(1, 1): closed_trace_r1s1, (2, 1): closed_trace_r2s1}.get((r, s))
            if special is not None:
                assert trace == special(params), (r, s, N)


def test_closed_trace_never_reads_mu_n(suite, monkeypatch):
    # closed_trace_gap is a check of its own only if closed_trace does not
    # sum the eigenvalues that trace_gap_p1 compares against
    def refused(*args):
        raise AssertionError("mu_n called")

    monkeypatch.setattr(isospectral, "mu_n", refused)
    for params in suite:
        closed_trace(params)


def test_reduction_retains_alpha2_factor():
    # beta_2 = alpha_2 cancels in the polynomial but not in the spectrum
    q = 0.45
    a1, a2 = 0.7 + 0.2j, 1.5 - 0.3j
    full = ParamSet(r=2, s=2, N=5, q=q, alpha=(a1, a2), beta=(1.3 - 0.4j, a2))
    reduced = ParamSet(r=1, s=1, N=5, q=q, alpha=(a1,), beta=(1.3 - 0.4j,))
    _, lam = forward_spectrum(Case(full))
    rep = spectrum_match(lam, mu_closed(full))
    assert rep.is_match
    # the mu of the full set retain (alpha_2 q^{N-n} - 1); they differ from
    # the reduced set's mu by that factor
    diff = max(
        abs(a - b) / max(1.0, abs(b))
        for a, b in zip(mu_closed(full), mu_closed(reduced))
    )
    assert diff > 1e-2
    assert not spectrum_match(lam, mu_closed(reduced)).is_match


EPS64 = 2.0**-52
# the suite cases whose binary64 eigenvalue certificate of M fails
ESCALATING = (19, 26, 38)


def test_eig_with_bound_matches_the_lapack_left_vector_estimate(suite):
    # the conditions read from the rows of V^-1 are those of LAPACK's own
    # left eigenvectors, on M and on the balanced companion matrices alike.
    # Both carry rounding errors of order n eps kappa_2(V), V the right
    # eigenvectors: about 1e-15 where V is well conditioned, 1e-4 on M of
    # suite case 19, where kappa_2(V) is 8.5e11 (at most 0.47 of that level)
    failing = {"M": [], "companion": []}
    for index, params in enumerate(suite):
        p, zeros = zeros_of(params)
        matrices = {
            "M": build_M(Case(params, zeros)),
            "companion": rootfind.balanced_companion(p),
        }
        for name, arr in matrices.items():
            worst = isospectral._eig_with_bound(arr)[1].max()
            _, ref = eig_bound_lapack(arr)
            level = len(arr) * F64.eps * np.linalg.cond(np.linalg.eig(arr)[1])
            assert abs(worst - ref) <= level * ref, (index, name)
            if worst > EIG_TARGET:
                failing[name].append(index)
    assert failing == {"M": list(ESCALATING), "companion": [26, 38]}


def test_defective_matrix_fails_the_certificates_without_raising():
    # the Jordan block has one eigenvector, which binary64 eig returns twice:
    # V is singular to working precision and the conditions near 1/eps64
    jordan = ((1, 1), (0, 1))
    ctx = extended(50)
    rows = tuple(tuple(ctx.convert(v) for v in row) for row in jordan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, bounds = isospectral._eig_with_bound(np.array(jordan, dtype=complex))
        assert list(vals) == [1, 1] and bounds.max() > EIG_TARGET
        assert refined_eigenvalues_fdot(rows, ctx.eps) is None
        # with no certificate at all the nilpotent block escalates to mpmath.eig
        nilpotent = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
        assert all(abs(v) < 1e-50 for v in certified_eigenvalues(nilpotent))


def test_singular_eigenvectors_fail_the_certificates_not_the_solve(monkeypatch):
    ctx = extended(50)
    diagonal = ((1, 0), (0, 2))
    rows = tuple(tuple(ctx.convert(v) for v in row) for row in diagonal)
    arr = np.array(diagonal, dtype=complex)

    def fails(_):
        raise np.linalg.LinAlgError("Singular matrix")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "inv", fails)
        vals, bounds = isospectral._eig_with_bound(arr)
        assert sorted(vals.real) == [1, 2] and (bounds == float("inf")).all()
        assert refined_eigenvalues_fdot(rows, ctx.eps) is None
    # a QR iteration that does not converge is an error of the solve
    monkeypatch.setattr(np.linalg, "eig", fails)
    with pytest.raises(EigenNoConvergence):
        isospectral._eig_with_bound(arr)
    assert refined_eigenvalues_fdot(rows, ctx.eps) is None


def test_suite_escalations_refine_without_mpmath_eig(suite, monkeypatch):
    eig_calls = counting(monkeypatch, mpmath, "eig")
    refined = counting(monkeypatch, oracles, "refined_eigenvalues_fdot")
    for params in suite:
        _, lam = forward_spectrum(Case(params, zeros_of(params)[1].zeros))
        assert spectrum_match(lam, mu_closed(params)).is_match
    assert len(refined) == len(ESCALATING)
    assert all(vals is not None for vals in refined)
    assert eig_calls == []


def test_refined_eigenvalues_equal_mpmath_eig(suite, monkeypatch):
    for index in ESCALATING:
        params = suite[index]
        zeros = zeros_of(params)[1].zeros
        _, lam = forward_spectrum(Case(params, zeros))
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "refined_eigenvalues_fdot", lambda rows, eps_out: None)
            _, ref = forward_spectrum(Case(params, zeros))
        nearest = [min(range(len(ref)), key=lambda j: abs(v - ref[j])) for v in lam]
        assert sorted(nearest) == list(range(len(ref))), index
        for v, j in zip(lam, nearest):
            assert abs(v - ref[j]) <= 4 * EPS64 * abs(ref[j]), index


def test_residual_below_the_squared_binary64_range_is_not_certified_at_0():
    # the binary64 start of the eigenvalue 5 2^-830 is 0, its residual parts
    # near 1e-250, whose squares underflow: an unscaled 2-norm read 0 there
    # and certified that start at 0
    ctx = extended(50)
    mp = ctx.mp
    big, small = mp.ldexp(1, 830), mp.ldexp(1, -830)
    rows = [[mp.mpf(v) for v in row] for row in ((big, 1, 0), (0, 3, small), (0, 0, 5 * small))]
    vals = certified_eigenvalues(rows)
    for exact in (big, 3, 5 * small):
        assert min(abs(v - exact) for v in vals) <= ctx.eps * abs(exact), exact


def test_stream_case_199_certifies_by_refinement(monkeypatch):
    # r = 1, s = 0, N = 10 at q = -0.224: eigenvalue condition about 1e12;
    # the pairs of 3168819.2 and 3168894.2 contract slowly, then
    # quadratically, and reach EIG_TARGET |lambda| after about 9 corrections
    params = suite_cases(200)[199]
    refined = counting(monkeypatch, oracles, "refined_eigenvalues_fdot")
    fallback = counting(monkeypatch, isospectral, "_eig_extended")
    _, lam = forward_spectrum(Case(params))
    assert len(refined) == 1 and refined[0] is not None and fallback == []
    assert lam == [complex(v) for v in refined[0]]
    assert spectrum_match(lam, mu_closed(params)).is_match


def test_overflowing_binary64_solve_escalates_instead_of_returning_nan():
    # LAPACK overflows on entries near 1.5e308 and returns NaN eigenvalues,
    # whose NaN certificate once passed as certified
    c = -1.5e308 * (1 + 1j)
    assert isospectral._escalated(math.nan) is isospectral._escalated(math.inf)
    got = certified_eigenvalues([[0, c], [1, -1]])
    with mpmath.workdps(40):
        root = mpmath.sqrt(1 + 4 * mpmath.mpc(c))
        exact = [(-1 + root) / 2, (-1 - root) / 2]
    assert len(got) == 2
    for v in exact:
        assert min(abs(g - v) for g in got) <= 1e-15 * abs(v)


def test_near_defective_matrix_falls_back_to_mpmath_eig(monkeypatch):
    # eigenvalues 1 +- 1e-30: binary64 sees a double eigenvalue 1, and the
    # two starts cannot be refined to two certified, separated eigenvalues
    ctx = extended(40)
    rows = ((ctx.convert(1), ctx.convert(1)), (ctx.mp.mpf("1e-60"), ctx.convert(1)))
    fallback = counting(monkeypatch, isospectral, "_eig_extended")
    got = certified_eigenvalues(rows)
    assert len(fallback) == 1 and got is fallback[0]


def _verify_report(tmp_path, params, precision):
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
    code = main(["verify", "--config", str(path), "--precision", precision, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_escalation_stops_its_newton_sweeps_once_converged(suite, monkeypatch):
    # the escalated case's binary64 start is ~1e-11 off; the first Newton
    # pass brings it to the escalated eps, and the second finds each zero
    # settled, within two units of its last bit, where its correction is not
    # applied, so no pass follows; no Aberth sweep runs at those digits
    for index in (19, 26, 38):
        params = suite[index]
        zeros = find_zeros(to_monic(coeffs_P(params)), params).zeros
        sweeps = counting(monkeypatch, rootfind, "_aberth")
        corrections = counting(monkeypatch, rootfind, "_quotient")
        _, lam = forward_spectrum(Case(params, zeros))
        assert len(corrections) == 2 * params.N, index
        assert sweeps and all(type(z) is complex for zs in sweeps for z in zs), index
        assert spectrum_match(lam, mu_closed(params)).is_match


def test_extended_verify_solves_no_eigenproblem_it_only_reports(suite, tmp_path, monkeypatch):
    # the reported pairs come from one binary64 solve, and the spectrum
    # verdict refines no witness: mpmath.eig never runs
    eig_calls = counting(monkeypatch, mpmath, "eig")
    fallback = counting(monkeypatch, isospectral, "_eig_extended")
    witnessed = counting(monkeypatch, isospectral, "_witnessed")
    small = [params for params in suite if params.N <= 5]
    assert len(small) == 25
    caught = []
    for params in small:
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            code, report = _verify_report(tmp_path, params, "extended")
        caught += [(params, str(w.message)) for w in records]
        values = {c["name"]: c["value"] for c in report["checks"]}
        # each forward gap lies within its binary64 certificate, times the
        # dimension constant the first-order estimate leaves out
        # (_eig_with_bound), plus the 50-digit gap between mu and M
        pairs = report["result"]["matched_pairs"]
        assert code == 0 and values["jacobian_defect"] <= 1e-45, (params, values["jacobian_defect"])
        assert all(pair[3] is not None and pair[2] <= 2 * params.N * pair[3] + 1e-40 for pair in pairs), params
        # the matrix-side checks run in the scalars of M, not rounded to binary64
        for name in ("trace_gap_p1", "trace_gap_p2", "trace_gap_p3", "closed_trace_gap", "det_gap"):
            assert values[name] <= 1e-30, (params, name, values[name])
    assert eig_calls == fallback == witnessed == []
    assert caught == []


def test_refined_extended_eigenvalues_equal_mpmath_eig(suite):
    ctx = extended()
    for index in (1, 3, 4):
        params = in_context(suite[index], ctx)
        zeros = find_zeros(to_monic(coeffs_P(params)), params).zeros
        M, lam = forward_spectrum(Case(params, zeros))
        ref = isospectral._eig_extended(M, extended(ctx.mp.dps + 20))
        assert len(lam) == params.N == len(ref), index
        for v in lam:
            gap = min(abs(v - r) / abs(r) for r in ref)
            assert gap <= 8 * ctx.eps, (index, gap)


def test_near_defective_matrix_falls_back_on_the_extended_route(suite, monkeypatch):
    # the extended branch of forward_spectrum refines before it calls
    # mpmath.eig; the near-defective pair must still reach mpmath.eig
    ctx = extended()
    one, tiny = ctx.convert(1), ctx.mp.mpf("1e-60")
    rows = np.array([[one, one], [tiny, one]], dtype=ctx.dtype)
    monkeypatch.setattr(isospectral, "build_M", lambda case: rows)
    fallback = counting(monkeypatch, isospectral, "_eig_extended")
    params = in_context(suite[1], ctx)
    assert params.N == 2
    _, lam = forward_spectrum(Case(params, [ctx.convert(1), ctx.convert(2)]))
    assert len(fallback) == 1 and lam is fallback[0]
    assert sorted(abs(v - 1) for v in lam) == pytest.approx([1e-30, 1e-30], rel=1e-12)


def test_extended_matrix_beyond_binary64_falls_back_with_the_lost_digits(suite, monkeypatch):
    # M with the companion rows of z^2 - (1e400 + 3) z + 3e400: 1e400 rounds
    # to inf in binary64, so there are no eigenpairs to refine, and mpmath.eig
    # at 50 digits returns 0 for the eigenvalue 3 unless it is given the
    # digits the solve loses
    ctx = extended()
    big = ctx.mp.mpf("1e400")
    rows = np.array([[ctx.convert(0), ctx.convert(-3 * big)], [ctx.convert(1), ctx.convert(big + 3)]])
    monkeypatch.setattr(isospectral, "build_M", lambda case: rows)
    lost = counting(monkeypatch, isospectral, "_lost_digits")
    fallback = counting(monkeypatch, isospectral, "_eig_extended")
    params = in_context(suite[1], ctx)
    assert params.N == 2
    _, lam = forward_spectrum(Case(params, [ctx.convert(1), ctx.convert(2)]))
    assert len(fallback) == 1 and lam is fallback[0]
    assert len(lost) == 1 and lost[0] > 0
    small, large = sorted(lam, key=abs)
    assert abs(small - 3) <= 3 * ctx.eps and abs(large - big) <= big * ctx.eps


def test_binary64_verify_judges_the_spectrum_by_backward_error(suite, tmp_path, monkeypatch):
    # the suite cases whose binary64 eigenvalue certificate fails: verify
    # judges them by backward error, rebuilds nothing, solves nothing, and
    # reports each eigenvalue's own estimate, above EIG_TARGET on each. Case
    # 19 is judged by the binary64 SVD alone; cases 26 and 38, whose
    # smallest mu_n lie below the SVD's floor, by the exact residual of its
    # singular vectors
    rebuilt = counting(monkeypatch, isospectral, "_escalated")
    fallback = counting(monkeypatch, isospectral, "_eig_extended")
    eig_calls = counting(monkeypatch, mpmath, "eig")
    witnessed = counting(monkeypatch, isospectral, "_witnessed")
    for index in ESCALATING:
        witnessed.clear()
        code, report = _verify_report(tmp_path, suite[index], "f64")
        backward = {c["name"]: c for c in report["checks"]}["spectrum_backward_max"]
        certificates = [pair[3] for pair in report["result"]["matched_pairs"]]
        assert code == 0 and backward["pass"] and backward["threshold"] == EIG_TARGET, index
        assert len(certificates) == suite[index].N and max(certificates) > EIG_TARGET, index
        assert len(witnessed) == (index != 19), index
    assert rebuilt == fallback == eig_calls == []


# draw 96 of the E3 stream (ROADMAP item 12), (r, s) = (3, 0), whose |mu_n|
# span 1.5e7
E3_96 = validate(
    ParamSet(
        r=3,
        s=0,
        N=7,
        q=0.25446164455744025 + 0j,
        alpha=(
            1.848342540052744 - 0.4264861014522885j,
            0.34573433466418213 - 0.4719859455051796j,
            1.8792130207648807 - 0.18616358061962068j,
        ),
    )
)


def test_binary64_verify_rebuilds_m_where_its_small_scales_are_off(monkeypatch):
    # the binary64 M itself, read exactly, puts E3 case 96's two smallest
    # mu_n at 2.5e-9 and 1.5e-8, while M rebuilt at the digits that resolve
    # their scale puts them below 1e-16; verify rebuilds once and passes the
    # spectrum check (its det_gap fails, ROADMAP item 13)
    case = Case(E3_96)
    S, nu, _, _ = case.shifted_svd
    own = isospectral._witnessed(case.M, case.mu, isospectral._stacked_svd(S, nu, vectors=True)[2][:, -1].conj().T)
    assert own.max() > 10 * EIG_TARGET
    rebuilt = counting(monkeypatch, isospectral, "_escalated")
    checks, _ = cmd_verify(case, {}, None, None)
    backward = {c["name"]: c for c in checks}["spectrum_backward_max"]
    assert backward["pass"] and backward["value"] < EIG_TARGET / 10 and len(rebuilt) == 1


def test_binary64_verify_certifies_the_zeros_of_its_rebuilt_case(monkeypatch):
    # the rebuilt case is the extended case itself: its zeros pass _certify
    # at the escalated digits, as every zero set find_zeros returns does,
    # and its verdict is the one the binary64 zeros finished by Newton at
    # those digits give
    case = Case(E3_96)
    escalated = counting(monkeypatch, isospectral, "_escalated")
    certified = counting(monkeypatch, rootfind, "_certify")
    checks, _ = cmd_verify(case, {}, None, None)
    value = {c["name"]: c for c in checks}["spectrum_backward_max"]["value"]
    assert len(escalated) == 1
    assert [context_of(zs.zeros[0]) for zs in certified] == [F64, escalated[0]]

    def newton_finished(p, params):
        finished = rootfind._newton_finish(p, case.zeros, context_of(p.coeffs[0]))
        assert finished is not None
        return rootfind.ZeroSet(tuple(finished[0]), math.nan, max(finished[1]))

    monkeypatch.setattr(isospectral, "find_zeros", newton_finished)
    assert Case(E3_96, case.zeros).backward.max() == value


def test_refined_witness_bounds_the_backward_error_of_the_rebuilt_m(monkeypatch):
    # E3 case 96 and E4 case 29 read their small mu_n beyond the binary64
    # floor from the refined witness on M rebuilt at more digits: each eta_n
    # it reads is at or above sigma_min(M - mu_n I) / |mu_n| from mpmath.svd
    # at those digits, an upper bound as it should be, and resolves mu_n to
    # EIG_TARGET / 10; no mpmath.eig call is made
    from test_suite_verdicts import EDGE_STREAMS, edge_cases

    _, _, count, mags, rs = EDGE_STREAMS["verify-e4"]
    witnessed = isospectral._witnessed
    calls = []

    def recorded(rows, closed, V, eps_out=None):
        eta = witnessed(rows, closed, V, eps_out)
        if eps_out is not None:
            calls.append((rows, closed, eta))
        return eta

    monkeypatch.setattr(isospectral, "_witnessed", recorded)
    eig_calls = counting(monkeypatch, mpmath, "eig")
    for params in (E3_96, edge_cases(count, mags, rs)[29]):
        calls.clear()
        Case(params).backward
        (rows, closed, eta), = calls
        assert (eta <= EIG_TARGET / 10).all(), eta
        with mpmath.workdps(context_of(rows[0, 0]).mp.dps):
            for mu, bound in zip(closed, eta):
                shifted = mpmath.matrix(rows.tolist()) - mu * mpmath.eye(len(rows))
                sigma = min(mpmath.svd_c(shifted, compute_uv=False))
                assert bound >= sigma / abs(mpmath.mpc(mu)), (mu, bound, sigma)
    assert eig_calls == []
    # the witness reads eta at the case's own mu_n, not at the eigenvalue
    # it converges to: E3 case 96's smallest mu_n moved by 1e-6 of itself
    # reads as moved
    case = Case(E3_96)
    k = int(np.argmin(np.abs(case.mu)))
    case.mu = [m * (1 + 1e-6) if n == k else m for n, m in enumerate(case.mu)]
    assert case.backward[k] > 100 * EIG_TARGET


def _smallest_mu_mutant(M, mu):
    k = int(np.argmin(np.abs(mu)))
    return M, [m * (1 + 1e-4) if n == k else m for n, m in enumerate(mu)]


MUTANTS = {
    "mu_N": lambda M, mu: (M, mu[:-1] + [mu[-1] * (1 + 1e-6)]),
    "smallest |mu_n|": _smallest_mu_mutant,
    "M[0, 0]": lambda M, mu: (M + np.diag([M[0, 0] * 1e-6] + [0] * (len(M) - 1)), mu),
    "M[0, N-1]": lambda M, mu: (M + np.outer(np.eye(len(M))[0], np.eye(len(M))[-1]) * M[0, -1] * 1e-6, mu),
}


def test_backward_error_catches_what_the_forward_gap_caught(suite, monkeypatch):
    # each mutant changes one value x of M or mu to x + x 1e-6 on the 45
    # suite cases with N >= 2, the smallest |mu_n| to x + x 1e-4, which a
    # backward error normwise in M missed on 4 of them (spectra spanning up
    # to 1e8); spectrum_backward_max must catch it on at least as many as
    # the forward gap at its 1e-6 threshold, the eigenvalues verify reports
    # against mu
    cases = [params for params in suite if params.N >= 2]
    assert len(cases) == 45
    for name, mutant in MUTANTS.items():
        backward = forward = 0
        for params in cases:
            case = Case(params)
            case.M, case.mu = mutant(case.M, case.mu)
            checks, result = cmd_verify(case, {}, None, None)
            passed = {c["name"]: c["pass"] for c in checks}
            backward += not passed["spectrum_backward_max"]
            forward += max(pair[2] for pair in result["matched_pairs"]) > 1e-6
        assert backward >= forward, (name, backward, forward)
        if name != "M[0, N-1]":
            assert backward == len(cases), (name, backward)


def _given(M, closed):
    """A case whose M and mu are given: its spectrum stages read nothing else
    of it, the rebuild of a binary64 M aside."""
    case = Case(None)
    case.M, case.mu = M, list(closed)
    return case


@pytest.mark.parametrize("ctx", [F64, extended()])
def test_spectrum_report_of_a_one_by_one_matrix(ctx):
    m = ctx.convert(0.7 - 0.4j)
    M = np.array([[m]], dtype=ctx.dtype)
    case = _given(M, [m])
    assert case.backward.tolist() == [0.0] and case.eigenpairs == ([m], [0.0])
    eta = _given(M, [m * (1 + ctx.convert(1e-6))]).backward
    assert eta[0] == pytest.approx(1e-6 / (1 + 1e-6), rel=1e-9)


def test_spectrum_report_of_extended_entries_beyond_binary64(monkeypatch):
    # the companion rows of z^2 - (1e400 + 3) z + 3e400: the entries round
    # to inf in binary64, so the SVD reads M and mu scaled by one power of
    # two, where mu_1 = 3 underflows; backward reads eta_1 from M's
    # eigenvalues by mpmath.eig, uncertified, in its one call. The reported
    # eigenvalues come from the same scaled binary64 matrix, scaled back in
    # the scalar type: 1e400 within its certificate, and mu_1's partner 0,
    # whose certificate says nothing
    ctx = extended()
    big = ctx.mp.mpf("1e400")
    M = np.array([[ctx.convert(0), ctx.convert(-3 * big)], [ctx.convert(1), ctx.convert(big + 3)]])
    closed = [ctx.convert(3), ctx.convert(big)]
    fallback = counting(monkeypatch, isospectral, "_eig_extended")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        case = _given(M, closed)
        assert case.backward.max() <= 4 * F64.eps
        assert len(fallback) == 1
        (zero, large), (vacuous, certificate) = case.eigenpairs
        assert len(fallback) == 1
        assert zero == 0 and vacuous > 1 and abs(large - big) <= 2 * certificate * big
        eta = _given(M, [closed[0], closed[1] * (1 + ctx.convert(1e-6))]).backward
    assert eta.max() > EIG_TARGET
