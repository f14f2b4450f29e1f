"""Zero finding against the companion-matrix oracle."""

import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg

from qzeros import isospectral, rootfind
from qzeros.cli import cmd_zeros
from qzeros.errors import DegenerateZeros, NoConvergence, OverflowRisk
from qzeros.isospectral import Case
from qzeros.params import ParamSet, _elementary, in_context
from qzeros.precision import F64, context_of, extended
from qzeros.qseries import Poly, coeffs_P, to_monic
from qzeros.rootfind import companion_zeros, find_zeros

from conftest import counting, suite_cases, zeros_of
from oracles import certified_eigenvalues, certify_pairs, companion_rows, eval_poly, relative_separation_pairs


def _pair_off(found, oracle):
    """Greedy nearest-neighbour multiset matching; returns the pair gaps."""
    pool = list(oracle)
    gaps = []
    for z in found:
        best = min(range(len(pool)), key=lambda i: abs(pool[i] - z))
        gaps.append(abs(pool[best] - z) / max(1.0, abs(z)))
        pool.pop(best)
    return gaps


def test_linear_hand_case():
    q = 0.45
    params = ParamSet(r=0, s=0, N=1, q=q, alpha=(), beta=())
    zset = find_zeros(Poly((-q, 1.0), monic=True), params)
    assert len(zset.zeros) == 1
    assert abs(zset.zeros[0] - q) < 1e-15
    oracle = companion_zeros(Poly((-q, 1.0), monic=True))
    assert len(oracle) == 1 and abs(oracle[0] - q) < 1e-12


def test_quadratic_hand_case():
    # z^2 - 3z + 2 = (z-1)(z-2) on both routes
    p = Poly((2.0, -3.0, 1.0), monic=True)
    params = ParamSet(r=0, s=0, N=2, q=0.5, alpha=(), beta=())
    zset = find_zeros(p, params)
    assert sorted(abs(z) for z in zset.zeros) == pytest.approx([1.0, 2.0], abs=1e-12)
    assert max(abs(z.imag) for z in zset.zeros) < 1e-12
    oracle = sorted(companion_zeros(p), key=abs)
    assert abs(oracle[0] - 1.0) < 1e-10 and abs(oracle[1] - 2.0) < 1e-10


def test_chain_case_q2():
    # the bare N=2, q=2 polynomial z^2 - 6z + 8 has the chain zeros {q, q^2}
    params = ParamSet(r=0, s=0, N=2, q=2.0, alpha=(), beta=())
    zset = find_zeros(to_monic(coeffs_P(params)), params)
    got = sorted(z.real for z in zset.zeros)
    assert abs(got[0] - 2.0) < 1e-12 and abs(got[1] - 4.0) < 1e-12


def test_degenerate_pair_rejected():
    # (z-1)(z-1.0000000001): separation 1e-10 sits below the certificate
    eps = 1.0000000001
    p = Poly((eps, -(1.0 + eps), 1.0), monic=True)
    params = ParamSet(r=0, s=0, N=2, q=0.5, alpha=(), beta=())
    with pytest.raises(DegenerateZeros):
        find_zeros(p, params)


def test_oracle_agreement_on_suite(suite):
    for params in suite:
        p, zset = zeros_of(params)
        oracle = companion_zeros(p)
        assert max(_pair_off(zset.zeros, oracle)) < 1e-7


def test_companion_escalates_on_the_balanced_matrix():
    # coefficients from 1.5e-37 to 1. The eigenvector estimate of the
    # balanced matrix read 1.1e-9 here and asked for 25 digits, too few for
    # the unbalanced companion matrix, whose five smallest eigenvalues then
    # land up to 5e-5 away. As zeros of p, the binary64 eigenvalues certify
    # by their Newton bounds (7.9e-14) with no escalation, and the fallback
    # still converts the balanced entries: at those 25 digits their
    # eigenvalues meet the target too
    params = ParamSet(
        r=2,
        s=2,
        N=10,
        q=complex(0.19710328622590897, -0.08047794822177096),
        alpha=(
            complex(0.4124378438664725, 0.1500923083833725),
            complex(1.2692071805549092, 0.21411061762836225),
        ),
        beta=(
            complex(0.45746064718702406, -0.03216704839290663),
            complex(1.1460788291600041, 0.49160040582020714),
        ),
    )
    p = to_monic(coeffs_P(params))
    zeros = find_zeros(p, params).zeros
    balanced = rootfind.balanced_companion(p)
    starts = np.linalg.eigvals(balanced).tolist()
    assert (rootfind._newton_bounds(p, starts)[1] / np.abs(starts)).max() < 1e-13
    ext = isospectral._escalated(isospectral._eig_with_bound(balanced)[1].max())
    assert ext.mp.dps == 25
    rows = [[ext.convert(v) for v in row] for row in balanced]
    fallback = rootfind._canonical_order(isospectral._extended_eigenvalues(rows, F64.eps)[0])
    for oracle in (companion_zeros(p), fallback):
        for z, w in zip(zeros, oracle):
            assert abs(z - w) <= 1e-9 * abs(z)


def test_companion_zeros_where_moduli_overflow():
    # z^2 + z + 1.5e308 (1 + i): finite parts whose moduli leave binary64,
    # read as inf by the Newton bounds and by the canonical order, where abs
    # raises
    c = 1.5e308 * (1 + 1j)
    got = companion_zeros(Poly((c, 1.0, 1.0), monic=True))
    with mpmath.workdps(40):
        root = mpmath.sqrt(1 - 4 * mpmath.mpc(c))
        exact = [(-1 + root) / 2, (-1 - root) / 2]
    assert len(got) == 2
    for v in exact:
        assert min(abs(g - v) for g in got) <= 1e-15 * abs(v)


def test_companion_escalations_on_suite(suite, monkeypatch):
    # the Newton bounds of the binary64 eigenvalues meet EIG_TARGET on every
    # suite case (at most 3.5e-10), where the eigenvector estimate of the
    # balanced matrix failed on 2 of them (21 unbalanced): no suite case
    # finishes at more digits, and none reaches the eigenvalue fallback
    finished = counting(monkeypatch, rootfind, "_newton_finish")
    fallback = counting(monkeypatch, isospectral, "_extended_eigenvalues")
    for params in suite:
        companion_zeros(zeros_of(params)[0])
    assert finished == fallback == []


EPS64 = 2.0**-52


def _assert_near(got, ref, tol):
    nearest = [min(range(len(ref)), key=lambda j: abs(v - ref[j])) for v in got]
    assert sorted(nearest) == list(range(len(ref)))
    for v, j in zip(got, nearest):
        assert abs(v - ref[j]) <= tol * abs(ref[j]), (v, ref[j])


# the zeros-f64 stream cases whose binary64 eigenvalues' Newton bounds
# exceed EIG_TARGET (1.9e-9 to 1.5e-8), so that Newton finishes them
FINISHED = (78, 228, 348, 438, 468)
# the stream cases whose eigenvector estimate of the balanced matrix
# exceeded EIG_TARGET, where the oracle refined eigenpairs
EIGENPAIR_ESCALATIONS = (26, 38, 78, 98, 158, 228, 269, 348, 368, 398, 446, 458)


def test_companion_escalations_refine_without_mpmath_eig(monkeypatch):
    # the stream cases whose Newton bounds fail finish as zeros of p at the
    # digits _escalated derives, by exact Newton: no eigenpair is refined
    # and mpmath.eig never runs. Each value is p's zero rounded once, within
    # 4 eps64 of the balanced matrix's eigenvalues by mpmath.eig at 40 digits
    stream = suite_cases(500)
    polys = [to_monic(coeffs_P(stream[index])) for index in FINISHED]
    refs = [isospectral._eig_extended(rootfind.balanced_companion(p), extended(40)) for p in polys]
    eig_calls = counting(monkeypatch, mpmath, "eig")
    refined = counting(monkeypatch, isospectral, "_refined_eigenvalues")
    finished = counting(monkeypatch, rootfind, "_newton_finish")
    for index, p, ref in zip(FINISHED, polys, refs):
        finished.clear()
        got = companion_zeros(p)
        assert len(finished) == 1 and finished[0] is not None, index
        assert context_of(finished[0][0][0]).mp.dps in (25, 26), index
        _assert_near(got, ref, 4 * EPS64)
    assert refined == eig_calls == []


def test_companion_oracle_on_the_eigenpair_escalations():
    # on the stream cases whose eigenpairs the oracle once refined, every
    # value lies within EIG_TARGET of the 50-digit zeros. Where Newton
    # finishes, it lies within 4 eps64 of that refinement
    # (oracles.certified_eigenvalues); elsewhere within its own Newton bound
    # of it, which reads at most 2.2e-13 there
    stream = suite_cases(500)
    ctx = extended(50)
    for index in EIGENPAIR_ESCALATIONS:
        params = stream[index]
        p = to_monic(coeffs_P(params))
        got = companion_zeros(p)
        exact = find_zeros(to_monic(coeffs_P(in_context(params, ctx))), in_context(params, ctx)).zeros
        _assert_near(got, exact, isospectral.EIG_TARGET)
        refined = certified_eigenvalues(rootfind.balanced_companion(p))
        bounds = rootfind._newton_bounds(p, got)[1] / np.abs(got)
        tol = 4 * EPS64 if index in FINISHED else 4 * EPS64 + bounds.max()
        assert index in FINISHED or bounds.max() <= 2.5e-13, index
        _assert_near(got, refined, tol)


@pytest.mark.parametrize("ctx", [F64, extended(50)], ids=["f64", "ext50"])
def test_companion_falls_back_to_eigenvalues_where_the_finish_fails(ctx, monkeypatch):
    # with the finish refused, the oracle solves the balanced rows at the
    # finish's digits as eigenvalues, once, and returns the same values: to
    # 4 eps64 in binary64 (stream cases 78 and 228), to the refinement's
    # certificate EIG_TARGET (eps / eps64) at 50 digits (stream cases 3, 9,
    # 19, 26 and 38)
    stream = suite_cases(500)
    indices, tol = ((78, 228), 4 * EPS64) if ctx is F64 else ((3, 9, 19, 26, 38), 1e-9 * ctx.eps / EPS64)
    for index in indices:
        p = to_monic(coeffs_P(in_context(stream[index], ctx)))
        want = companion_zeros(p)
        with monkeypatch.context() as patch:
            patch.setattr(rootfind, "_newton_finish", lambda p, start, ctx: None)
            fallback = counting(patch, isospectral, "_extended_eigenvalues")
            got = companion_zeros(p)
        assert len(fallback) == 1, index
        _assert_near(got, want, tol)


@pytest.mark.parametrize("ctx", [F64, extended(50)], ids=["f64", "ext50"])
def test_suite_zeros_refine_no_eigenpairs(suite, ctx, monkeypatch):
    # no zeros run of the 50 suite cases refines an eigenpair, calls
    # mpmath.eig or builds the balanced rows, in either precision: the
    # oracle's eigenvalues are certified, or finished, as zeros of p, and
    # only its eigenvalue fallback balances the matrix itself
    eig_calls = counting(monkeypatch, mpmath, "eig")
    refined = counting(monkeypatch, isospectral, "_refined_eigenvalues")
    built = counting(monkeypatch, rootfind, "balanced_companion")
    for params in suite:
        checks, _ = cmd_zeros(Case(in_context(params, ctx)), {}, None, None)
        assert all(check["pass"] for check in checks), params
    assert refined == eig_calls == built == []


@pytest.mark.parametrize("coeffs", [(0.5, 2.0), (1.0, -3.0, 0.5, 2.0)], ids=["N1", "N3"])
def test_companion_zeros_expects_a_monic_polynomial(coeffs):
    # as find_zeros does: a leading coefficient other than 1 is refused, not
    # read as 1
    with pytest.raises(ValueError, match="expects a monic polynomial"):
        companion_zeros(Poly(tuple(complex(c) for c in coeffs), monic=False))


def _lapack_balanced(p):
    """The binary64 companion matrix of p, and scipy.linalg.matrix_balance's
    (LAPACK zgebal, no permutation) balanced matrix and powers of two."""
    arr = np.array(companion_rows(p), dtype=complex)
    with warnings.catch_warnings():
        # scipy casts zgebal's scale array to int for the permutation it
        # does not use here, which warns once a power of two passes 2^63
        warnings.simplefilter("ignore", RuntimeWarning)
        balanced, (scale, _) = scipy.linalg.matrix_balance(arr, permute=False, separate=True)
    return arr, balanced, scale


def test_balanced_companion_is_lapacks_on_the_zeros_stream():
    # every companion matrix of the 500-case zeros-f64 stream, bit for bit
    for index, params in enumerate(suite_cases(500)):
        p = to_monic(coeffs_P(params))
        _, ref, _ = _lapack_balanced(p)
        assert rootfind.balanced_companion(p).tobytes() == ref.tobytes(), index


@pytest.mark.parametrize(
    "coeffs",
    [
        (0.45,),
        (-0.7 + 0.4j,),
        (0j,),
        (2.0, -3.0),
        (1e-3 - 2j, 5 + 1j),
        (0j, 1e-6 + 1j),
        (1e-9j, 1e6),
        (1e8, -1e-4),
        (-3e-12 + 1e-12j, 4e5j),
    ],
)
def test_balanced_companion_is_lapacks_at_degrees_one_and_two(coeffs):
    # bit for bit, the sign of a zero part included: the last column is
    # scaled part by part, as zgebal scales it
    p = Poly(tuple(complex(c) for c in coeffs) + (1 + 0j,), monic=True)
    _, ref, _ = _lapack_balanced(p)
    assert rootfind.balanced_companion(p).tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "coeffs",
    [
        (1e-300, 1.0, 1e300),
        (1e300, 1e-300),
        (1e-300, 1e-300, 1e-300, 1e-300),
        (1e300j, 1e300, 1e300),
        (1e300, 1e-300j, 1.0, 1e-300, 1e300),
        # zgebal's scale stops at its guard on the accumulated D here
        (0.0, 0.0, 1e-150),
        # and at its guard on the row sizes here, next to a subnormal part
        (5e-324, 1e300, 1e300, 1e300, 1e-300),
    ],
)
def test_balanced_companion_keeps_lapacks_guards(coeffs):
    # coefficients near the ends of the binary64 range, where zgebal's
    # guards stop the scaling. zgebal scales its matrix in place one power
    # of two at a time, so an entry it scales below the normal range loses
    # bits or becomes 0. balanced_companion forms B once from LAPACK's D
    # instead, with no such loss: it equals LAPACK's powers of two applied
    # once, the subdiagonal as their product, the last column rounded from
    # its exact value
    p = Poly(tuple(complex(c) for c in coeffs) + (1 + 0j,), monic=True)
    arr, _, scale = _lapack_balanced(p)
    d = scale.astype(complex)
    ref = arr * d / d[:, None]
    ref[:, -1] = _exact_last_column(p, scale)
    assert rootfind.balanced_companion(p).tobytes() == ref.tobytes()


def _exact_last_column(p, scale):
    """-c_i d_{N-1} / d_i for the powers of two d of scale, each part rounded
    once from its exact value, with its sign (zgebal scales part by part)."""
    column = []
    for c, d in zip(p.coeffs[:-1], scale):
        ratio = Fraction(scale[-1]) / Fraction(d)
        column.append(complex(*(math.copysign(float(Fraction(-x) * ratio), -x) for x in (c.real, c.imag))))
    return np.array(column)


def test_balanced_companion_last_column_is_correctly_rounded():
    # random monic polynomials with parts in 1e+-300. Formed as
    # (-c_i d_{N-1}) / d_i, about 0.4 % of the parts whose exact value is
    # normal came out wrong: the product left the normal range before the
    # division brought it back
    rng = random.Random(6000)
    for _ in range(2000):
        N = rng.randint(1, 10)
        parts = [rng.choice((-1, 1)) * 10 ** rng.uniform(-300, 300) for _ in range(2 * N)]
        p = Poly(tuple(complex(*parts[i : i + 2]) for i in range(0, 2 * N, 2)) + (1 + 0j,), monic=True)
        got = rootfind.balanced_companion(p)[:, -1]
        assert got.tobytes() == _exact_last_column(p, _lapack_balanced(p)[2]).tobytes(), p.coeffs


def test_extended_companion_refines_without_mpmath_eig(suite, monkeypatch):
    ctx = extended(50)
    small = [in_context(params, ctx) for params in suite if params.N <= 5]
    assert len(small) == 25
    polys = [to_monic(coeffs_P(params)) for params in small]
    # a linear p's zero is -c_0, which companion_zeros returns before any
    # matrix is built; _eig_extended takes 2 x 2 and larger
    rows = [companion_rows(p) for p in polys]
    refs = [[r[0][0]] if len(r) == 1 else isospectral._eig_extended(r, extended(70)) for r in rows]
    eig_calls = counting(monkeypatch, mpmath, "eig")
    for p, ref in zip(polys, refs):
        _assert_near(companion_zeros(p), ref, 1e-45)
    assert eig_calls == []


def test_rows_beyond_binary64_are_solved_by_mpmath_eig(monkeypatch):
    # 1e400 rounds to inf in binary64, where no binary64 eigenpairs exist to refine
    ctx = extended(60)
    big = ctx.mp.mpf("1e400")
    rows = ((ctx.convert(big), ctx.convert(1)), (ctx.convert(0), ctx.convert(2)))
    fallback = counting(monkeypatch, isospectral, "_eig_extended")
    got, certificates = isospectral._extended_eigenvalues(rows, ctx.eps)
    assert len(fallback) == 1 and got is fallback[0] and certificates == [None, None]
    _assert_near(got, [big, 2], 1e-55)


def test_companion_rows_beyond_binary64_keep_the_small_zeros():
    # z^2 - (1e400 + 3) z + 3e400: no diagonal scaling brings the entry
    # 1e400 + 3 into binary64 range, and mpmath.eig at 60 digits returns 0
    # for the zero 3 unless it is given the digits the solve loses
    ctx = extended(60)
    big = ctx.mp.mpf("1e400")
    p = Poly((ctx.convert(3 * big), ctx.convert(-(big + 3)), ctx.convert(1)), monic=True)
    _assert_same_zeros(companion_zeros(p), (3, big), ctx.eps)


def test_zeros_whose_powers_leave_binary64_settle_at_the_extended_level():
    # z^2 - 1e200 z + 1: at the zero 1e200 the Horner noise floor is 1e400,
    # beyond binary64, so float powers of |z| alone would make it inf and
    # settle that zero wherever the sweeps first reach it
    ctx = extended(60)
    big = ctx.mp.mpf("1e200")
    p = Poly((ctx.convert(1), ctx.convert(-big), ctx.convert(1)), monic=True)
    zset = find_zeros(p, ParamSet(r=0, s=0, N=2, q=0.5, alpha=(), beta=()))
    _assert_same_zeros(zset.zeros, (1 / big, big), 1e-55)


def test_constant_term_beyond_binary64_starts_a_finite_spiral():
    # z^2 - (1e400 + 3) z + 3e400: the spiral radius is the root of 3e400
    ctx = extended(60)
    big = ctx.mp.mpf("1e400")
    p = Poly((ctx.convert(3 * big), ctx.convert(-(big + 3)), ctx.convert(1)), monic=True)
    zset = find_zeros(p, ParamSet(r=0, s=0, N=2, q=0.5, alpha=(), beta=()))
    _assert_same_zeros(zset.zeros, (3, big), 1e-55)


@pytest.mark.parametrize("ctx", [F64, extended(60)])
def test_nan_zeros_are_not_certified(ctx):
    # builtin min and max skip a NaN unless it comes first, so a NaN must be
    # rejected wherever it sits
    p = Poly((ctx.convert(2), ctx.convert(-3), ctx.convert(1)), monic=True)
    nan = ctx.convert(complex("nan"))
    for zs in ([nan, nan], [1, nan], [1, 2, nan]):
        with pytest.raises(DegenerateZeros):
            rootfind._certify([ctx.convert(z) for z in zs], p)


def test_aberth_evaluates_p_once_per_root_per_sweep(suite, monkeypatch):
    # a sweep evaluates p once at each root, one at its noise floor too, and
    # _aberth returns at the sweep whose largest step passes the step test,
    # so each run from the spiral evaluates p a whole number of sweeps
    evaluations, runs = [0], []
    original, aberth = rootfind.eval_poly_deriv, rootfind._aberth

    def counted(p, z):
        evaluations[0] += 1
        return original(p, z)

    def recorded(p, zs, ctx):
        evaluations[0] = 0
        out = aberth(p, zs, ctx)
        runs.append((len(zs), evaluations[0]))
        return out

    monkeypatch.setattr(rootfind, "eval_poly_deriv", counted)
    monkeypatch.setattr(rootfind, "_aberth", recorded)
    cases = [params for params in suite if params.N >= 2]
    assert len(cases) == 45
    for params in cases:
        find_zeros(to_monic(coeffs_P(params)), params)
    assert len(runs) == len(cases)
    assert all(count > 0 and count % N == 0 for N, count in runs), runs


def test_residual_bound_on_suite(suite):
    for params in suite:
        p, zset = zeros_of(params)
        coeff_scale = max(abs(c) for c in p.coeffs)
        for z in zset.zeros:
            bound = 1e-9 * coeff_scale * max(1.0, abs(z)) ** params.N
            assert abs(eval_poly(p, z)) <= bound


def test_reconstruction_on_suite(suite):
    for params in suite:
        p, zset = zeros_of(params)
        prod = [1.0 + 0.0j]
        for z in zset.zeros:
            nxt = [0.0j] * (len(prod) + 1)
            for m, c in enumerate(prod):
                nxt[m + 1] += c
                nxt[m] -= c * z
            prod = nxt
        scale = max(abs(c) for c in p.coeffs)
        worst = max(abs(a - b) for a, b in zip(prod, p.coeffs))
        assert worst < 1e-8 * scale


def test_separation_certificate_on_suite(suite):
    for params in suite:
        _, zset = zeros_of(params)
        assert zset.min_separation > 1e-8
        assert len(zset.zeros) == params.N


@pytest.mark.parametrize("ctx", [F64, extended(50)])
def test_pairwise_gaps_decide_as_the_pair_loops(suite, ctx):
    # the one gap array against one pair at a time: the same DegenerateZeros
    # decisions and min_separation to a few ulps, on the suite's zeros, a
    # coincident and a near-coincident pair, one zero and a NaN anywhere
    def scalars(*zs):
        return [ctx.convert(z) for z in zs]

    def monic(*zs):
        return Poly(tuple(scalars(*np.poly(zs)[::-1])), monic=True)

    nan = complex("nan")
    sets = []
    for params in suite:
        p, zset = zeros_of(in_context(params, ctx))
        sets.append((zset.zeros, p))
    sets += [(scalars(*zs), monic(*zs)) for zs in ([1, 1], [1, 1 + 1e-10], [0.5])]
    sets += [(scalars(*zs), monic(1, 2, 3)) for zs in ([nan, 1, 2], [1, nan, 2], [1, 2, nan])]
    for zs, p in sets:
        try:
            want = certify_pairs(zs, p)
        except DegenerateZeros:
            with pytest.raises(DegenerateZeros):
                rootfind._certify(zs, p)
            continue
        got = rootfind._certify(zs, p)
        assert got.min_separation == pytest.approx(want.min_separation, rel=4 * F64.eps, abs=0)
        want_sep = relative_separation_pairs(zs)
        assert rootfind.relative_separation(zs) == pytest.approx(want_sep, rel=4 * F64.eps, abs=0)


THREE = ParamSet(r=0, s=0, N=3, q=0.5, alpha=(), beta=())


def _monic(ctx, zeros):
    """prod (z - z_n) over the zeros, expanded in the scalars of ctx."""
    lower = _elementary([-ctx.convert(z) for z in zeros])
    return Poly(tuple(reversed((ctx.convert(1), *lower))), monic=True)


def test_tiny_zeros_are_found_at_their_own_scale():
    # (z - a)(z - 2a)(z - 3a), a = 1e-110, at 50 digits: a step test that
    # is absolute below |z| = 1 settles these zeros wherever a sweep first
    # takes a step below its tolerance, 4.5e-48, some 1e62 times their size
    ctx = extended(50)
    a = ctx.mp.mpf("1e-110")
    zeros = [a, 2 * a, 3 * a]
    _assert_same_zeros(find_zeros(_monic(ctx, zeros), THREE).zeros, zeros, 1e-45)


@pytest.mark.parametrize("ctx", [F64, extended(50)])
def test_each_pair_is_separated_at_its_own_scale(ctx):
    # 1e-12 and 2e-12 are half their larger modulus apart, though their gap
    # is 1e-12 of the largest zero; 1e-6 and 1e-6 (1 + 1e-10) are not
    # apart at their scale, which binary64 certifies only without the
    # Horner rounding floor of its residuals
    zset = find_zeros(_monic(ctx, [1e-12, 2e-12, 1.0]), THREE)
    assert zset.min_separation == pytest.approx(0.5, rel=1e-12)
    _assert_same_zeros(zset.zeros, [1e-12, 2e-12, 1.0], 1e-12)
    with pytest.raises(DegenerateZeros):
        find_zeros(_monic(ctx, [1e-6, 1e-6 * (1 + 1e-10), 1.0]), THREE)


def test_deterministic_output_order():
    params = ParamSet(r=1, s=1, N=6, q=0.45, alpha=(0.7 + 0.2j,), beta=(1.3 - 0.4j,))
    p = to_monic(coeffs_P(params))
    first = find_zeros(p, params).zeros
    second = find_zeros(p, params).zeros
    assert first == second
    mags = [abs(z) for z in first]
    assert mags == sorted(mags)


def test_degree_warning_above_12():
    params = ParamSet(r=0, s=0, N=13, q=0.8, alpha=(), beta=())
    p = to_monic(coeffs_P(params))
    with pytest.warns(RuntimeWarning):
        zset = find_zeros(p, params)
    assert len(zset.zeros) == 13


def test_degree_cap_at_binary64():
    params = ParamSet(r=0, s=0, N=17, q=0.8, alpha=(), beta=())
    coeffs = (-0.5,) + (0.0,) * 16 + (1.0,)
    with pytest.raises(OverflowRisk):
        find_zeros(Poly(coeffs, monic=True), params)


def test_extended_context_lifts_cap():
    params = in_context(ParamSet(r=0, s=0, N=13, q=0.8, alpha=(), beta=()), extended(30))
    p = to_monic(coeffs_P(params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zset = find_zeros(p, params)
    # chain case: the zeros are q, q^2, ..., q^13
    got = sorted((abs(complex(z)) for z in zset.zeros), reverse=True)
    for n, mag in enumerate(got, start=1):
        assert abs(mag - 0.8**n) < 1e-10


def _extended_case(suite, index):
    params = in_context(suite[index], extended())
    return to_monic(coeffs_P(params)), params


def _spiral_only(p, params, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(rootfind, "_binary64_start", lambda p, spiral: None)
        return find_zeros(p, params).zeros


def _assert_same_zeros(got, ref, tol):
    assert len(got) == len(ref)
    for z, w in zip(got, ref):
        assert abs(z - w) <= tol * abs(w)


def _recording_start(monkeypatch):
    starts = []
    original = rootfind._binary64_start

    def recorded(p, spiral):
        starts.append(original(p, spiral))
        return starts[-1]

    monkeypatch.setattr(rootfind, "_binary64_start", recorded)
    return starts


def test_extended_zeros_equal_the_spiral_only_run(suite, monkeypatch):
    p, params = _extended_case(suite, 3)
    ref = _spiral_only(p, params, monkeypatch)
    starts = _recording_start(monkeypatch)
    got = find_zeros(p, params).zeros
    assert len(starts) == 1 and starts[0] is not None
    _assert_same_zeros(got, ref, 1e-45)


def test_coefficients_beyond_binary64_start_from_the_spiral(monkeypatch):
    # z^2 - (1e400 + 1e-100) z + 1e300: the z coefficient rounds to inf
    ctx = extended(60)
    big, small = ctx.mp.mpf("1e400"), ctx.mp.mpf("1e-100")
    p = Poly((ctx.convert(big * small), ctx.convert(-(big + small)), ctx.convert(1)), monic=True)
    starts = _recording_start(monkeypatch)
    zset = find_zeros(p, ParamSet(r=0, s=0, N=2, q=0.5, alpha=(), beta=()))
    assert starts == [None]
    _assert_same_zeros(zset.zeros, (small, big), 1e-55)


def _coincident(zs):
    return [zs[0], zs[0]] + list(zs[2:])


def _not_finite(zs):
    return [complex("nan")] + list(zs[1:])


def _no_convergence(zs):
    raise NoConvergence("sweep budget exhausted")


@pytest.mark.parametrize("spoil", [_coincident, _not_finite, _no_convergence])
def test_unusable_binary64_start_falls_back_to_the_spiral(suite, monkeypatch, spoil):
    p, params = _extended_case(suite, 3)
    ref = _spiral_only(p, params, monkeypatch)
    original = rootfind._aberth

    def spoiled(p, zs, ctx):
        out = original(p, zs, ctx)
        return spoil(out) if ctx.mp is None else out

    monkeypatch.setattr(rootfind, "_aberth", spoiled)
    starts = _recording_start(monkeypatch)
    got = find_zeros(p, params).zeros
    assert starts == [None]
    _assert_same_zeros(got, ref, 0.0)


def test_extended_zeros_lie_within_a_few_units_of_their_last_bit(suite):
    # the Newton finish reads exact residuals, so its zeros are those of the
    # 50-digit polynomial itself, to the two units of the last bit at which
    # a zero settles; two mpmath Newton steps at 90 digits from each give
    # that polynomial's zero to 90 digits (a finish whose Horner passes
    # round in mpc stops at their rounding floor, up to 1e-47 off)
    ctx = extended(50)
    unit = 2.0**-ctx.mp.prec
    worst = 0.0
    for params in suite:
        p, zset = zeros_of(in_context(params, ctx))
        with mpmath.workdps(90):
            coeffs = [mpmath.mpc(c) for c in p.coeffs[::-1]]
            for z in zset.zeros:
                ref = mpmath.mpc(z)
                for _ in range(2):
                    val, der = mpmath.polyval(coeffs, ref, derivative=True)
                    ref -= val / der
                worst = max(worst, float(abs(mpmath.mpc(z) - ref) / abs(ref)))
    assert worst <= 4 * unit


def test_start_settled_by_underflow_falls_back_to_the_sweeps(monkeypatch):
    # (z - a)(z - 2a)(z - 3a), a = 1e-110: rounded to binary64, p is exactly
    # 0 at each point of this start (every Horner term underflows), so
    # binary64 sweeps would stop there, although it lies 5 to 9 times the
    # zeros' modulus away from them; Newton contracts by only about 2/3 a
    # pass there, and the sweeps at the extended digits finish that start
    ctx = extended(120)
    zeros = [k * ctx.mp.mpf("1e-110") for k in (1, 2, 3)]
    a, b, c = zeros
    p = Poly(tuple(ctx.convert(v) for v in (-a * b * c, a * b + b * c + a * c, -(a + b + c), 1)), monic=True)
    start = [5e-109 * complex(math.cos(t), math.sin(t)) for t in (0.3, 2.4, 4.5)]
    p64 = Poly(tuple(complex(v) for v in p.coeffs), monic=True)
    assert all(eval_poly(p64, z) == 0 for z in start)
    monkeypatch.setattr(rootfind, "_binary64_start", lambda p, spiral: start)
    finishes = counting(monkeypatch, rootfind, "_newton_finish")
    got = find_zeros(p, ParamSet(r=0, s=0, N=3, q=0.5, alpha=(), beta=()))
    assert finishes == [None]
    assert got.zeros == rootfind._certify(rootfind._aberth(p, [ctx.convert(z) for z in start], ctx), p).zeros
    _assert_same_zeros(got.zeros, zeros, 1e-100)
