"""Dilation operators and the annihilation residual."""

import cmath
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from qzeros import qdiff, qseries, zero_algebra
from qzeros.cli import DEFAULT_THRESHOLDS, cmd_verify
from qzeros.errors import DegreeMismatch
from qzeros.isospectral import Case
from qzeros.params import ParamSet, in_context
from qzeros.precision import F64, extended
from qzeros.qdiff import (
    apply_delta,
    apply_Delta,
    qde_checks,
    qde_expanded_agreement,
    qde_residual,
)
from qzeros.qseries import Poly, coeffs_P, to_monic

from conftest import zeros_of
from oracles import expanded_residual, qde_coefficient_checks, qde_point_checks, spiral_points


def _sample_points(params, rng, count=20):
    lim = max(1.0, abs(params.q) ** (-params.N))
    pts = []
    for _ in range(count):
        radius = rng.uniform(0.05, 1.0) * lim
        angle = rng.uniform(-3.1, 3.1)
        pts.append(radius * cmath.exp(1j * angle))
    return pts


def test_apply_delta_hand_cases():
    c = 2.5 - 1.0j
    out = apply_delta(Poly((c,), monic=False), 0.3)
    assert out.coeffs == (c,)

    out = apply_delta(Poly((0.0, 1.0), monic=True), 3.0)
    assert out.coeffs == (0.0, 3.0)

    out = apply_delta(Poly((1.0, 1.0, 1.0), monic=True), 2.0)
    assert out.coeffs == (1.0, 2.0, 4.0)


def test_apply_Delta_hand_cases():
    q = 0.5
    out = apply_Delta(1.0, Poly((4.0 + 1.0j,), monic=False), q)
    assert out.coeffs == (0.0,)

    # Delta_{q^{-N}} kills the z^N monomial: (q^{-2} q^2 - 1) = 0.
    out = apply_Delta(q ** (-2), Poly((0.0, 0.0, 1.0), monic=True), q)
    assert abs(out.coeffs[2]) < 1e-15
    # the lower coefficients are zero already, so the whole vector vanishes
    assert all(abs(v) < 1e-15 for v in out.coeffs)

    out = apply_Delta(3.0, Poly((1.0, 1.0), monic=True), 2.0)
    assert out.coeffs == (2.0, 5.0)


def test_commutation_exact_over_rationals():
    # Diagonal scalings commute; with exact scalars the coefficient tuples
    # agree bitwise, no tolerance involved.
    q = Fraction(3, 7)
    g1 = Fraction(5, 2)
    g2 = Fraction(-4, 9)
    p = Poly(tuple(Fraction(k * k - 3, k + 1) for k in range(6)), monic=False)
    ab = apply_Delta(g1, apply_Delta(g2, p, q), q)
    ba = apply_Delta(g2, apply_Delta(g1, p, q), q)
    assert ab.coeffs == ba.coeffs


def test_commutation_float_to_rounding():
    # In binary64 the two orders group the same three factors differently,
    # so agreement is to a couple of ulp rather than bitwise.
    rng = random.Random(11)
    for _ in range(40):
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        g1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        g2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        p = Poly(tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(7)), monic=False)
        ab = apply_Delta(g1, apply_Delta(g2, p, q), q)
        ba = apply_Delta(g2, apply_Delta(g1, p, q), q)
        for x, y in zip(ab.coeffs, ba.coeffs):
            assert abs(x - y) <= 8e-16 * max(abs(x), abs(y), 1e-30)


def test_annihilation_on_suite(suite):
    for params in suite:
        res = qde_residual(Case(params))
        assert len(res) == params.N + 2
        assert max(abs(v) for v in res) < 1e-9


def test_expanded_form_equivalence(suite):
    for params in suite:
        gaps = qde_expanded_agreement(Case(params))
        assert len(gaps) == params.N + 2
        assert max(gaps) < 1e-10


def test_expanded_residual_matches_operator_route(small_suite):
    # expanded_residual is the same identity evaluated addend by addend; on
    # the true polynomial it vanishes just like the operator route.
    rng = random.Random(407)
    for params in small_suite:
        p = to_monic(coeffs_P(params))
        pts = _sample_points(params, rng, count=8)
        res = expanded_residual(p, params, pts)
        assert max(abs(v) for v in res) < 1e-9


def test_monomial_alone_is_not_annihilated():
    params = ParamSet(r=1, s=1, N=3, q=0.45, alpha=(0.7 + 0.2j,), beta=(1.3 - 0.4j,))
    case = Case(params)
    case.monic = Poly((0.0, 0.0, 0.0, 1.0), monic=True)
    res = qde_residual(case)
    assert max(abs(v) for v in res) > 1e-3


def test_linear_case_cancels_by_hand():
    # r=s=0, N=1, p = z - q: the A side is (q-1)z, the B side times z is the
    # same, so the residual is pure round-off from computing q^{-1} q.
    q = 0.45
    params = ParamSet(r=0, s=0, N=1, q=q, alpha=(), beta=())
    case = Case(params)
    case.monic = Poly((-q, 1.0), monic=True)
    res = qde_residual(case)
    assert max(abs(v) for v in res) < 1e-13


def test_true_zeros_annihilate(small_suite):
    # The defining property at the zeros themselves: both routes vanish.
    for params in small_suite:
        _, zset = zeros_of(params)
        res, _ = qde_point_checks(Case(params, zset.zeros), zset.zeros)
        assert max(abs(v) for v in res) < 1e-9


def test_degree_mismatch_raised():
    # the checks read the case's monic polynomial, of degree N by
    # construction; a case given zeros checks their count once
    params = ParamSet(r=0, s=1, N=2, q=0.5, beta=(1.4,))
    short = Poly((1.0, 1.0), monic=True)
    with pytest.raises(DegreeMismatch):
        Case(params, [1.0])
    with pytest.raises(DegreeMismatch):
        expanded_residual(short, params, [1.0])


@pytest.mark.parametrize("ctx", [F64, extended(50)], ids=["f64", "ext50"])
def test_array_pass_equals_the_scalar_oracle(suite, ctx):
    # each coefficient is a sum of at most 2 S + 2 products over its
    # largest addend or cascade intermediate, whose rounding error is at
    # most gamma_(2S+2) of that term (Higham, Accuracy and Stability of
    # Numerical Algorithms, 3.1); the array pass and the oracle round
    # differently, each within that
    for params in suite:
        case = Case(in_context(params, ctx))
        got, want = qde_checks(case), qde_coefficient_checks(case)
        for route, ref in zip(got, want):
            assert len(route) == len(ref) == params.N + 2
            for a, b in zip(route, ref):
                assert abs(a - b) <= 64 * ctx.eps


def test_checks_evaluate_once_per_route_never_per_point(monkeypatch, small_suite):
    # eval_poly_deriv takes the zero-identity route's points as one array;
    # the q-difference checks compare coefficients and evaluate p nowhere:
    # the package has no Horner pass for p alone (eval_poly is a test's)
    assert not any(hasattr(module, "eval_poly") for module in (qseries, qdiff, zero_algebra))
    calls = []
    original = qseries.eval_poly_deriv

    def recorded(p, z):
        calls.append(("eval_poly_deriv", type(z)))
        return original(p, z)

    for module in (qseries, zero_algebra):
        monkeypatch.setattr(module, "eval_poly_deriv", recorded)
    for params in small_suite:
        _, zset = zeros_of(params)
        case = Case(params, zset.zeros)
        for check, want in (
            (lambda: qde_checks(case), []),
            (lambda: zero_algebra.prop1_residuals(case), []),
            (lambda: zero_algebra.prop1_residuals_qde(case), [("eval_poly_deriv", np.ndarray)]),
        ):
            calls.clear()
            check()
            assert calls == want


def test_extended_verify_takes_each_shift_power_of_q_once(suite, monkeypatch):
    # q^k is formed once per case and shift (Case.flow_powers): the flow
    # weights, the zero identities' grid and the expanded route's grid all
    # read it, 3 powers over the 3 nonzero shifts of an (r, s) = (2, 1)
    # case; the closed forms take powers of q of their own
    params = in_context(suite[4], extended())
    assert (params.r, params.s, params.N) == (2, 1, 5)
    case = Case(params)
    calls = []
    original = type(params.q).__pow__

    def counted(base, k, *rest):
        if base is params.q:
            calls.append((sys._getframe(1).f_code.co_name, k))
        return original(base, k, *rest)

    monkeypatch.setattr(type(params.q), "__pow__", counted)
    cmd_verify(case, {}, None, None)
    closed_forms = {"qde_terms", "_operator_sides", "closed_trace"}
    shifts = sorted(k for name, k in calls if name not in closed_forms)
    assert shifts == sorted(case.velocity_weights) == [-1, 1, 2]


MUTANT_DELTAS = (1e-6, 1e-8, 3e-9)


def _mutated(params, zeros, mutant, delta):
    """A case on the found zeros with one input of the q-difference checks
    taken to x + x delta: p's c_0, p's middle coefficient c_((N + 1) // 2),
    or the first z-weighted qde_terms weight."""
    case = Case(params, zeros)
    if mutant == "weight":
        i = next(i for i, (_, _, e) in enumerate(case.qde_terms) if e)
        k, w, e = case.qde_terms[i]
        case.qde_terms = [*case.qde_terms[:i], (k, w + w * delta, e), *case.qde_terms[i + 1 :]]
    else:
        coeffs = list(case.monic.coeffs)
        m = 0 if mutant == "c0" else (params.N + 1) // 2
        coeffs[m] = coeffs[m] + coeffs[m] * delta
        # at N = 1 the middle is the leading 1, which p is then monic no more
        case.monic = Poly(tuple(coeffs), monic=m < params.N)
    return case


def _caught(residuals, agreements) -> bool:
    """Whether verify's thresholds fail either q-difference check."""
    return (
        max(abs(v) for v in residuals) > DEFAULT_THRESHOLDS["qde_residual_max"]
        or max(agreements) > DEFAULT_THRESHOLDS["qde_expanded_agreement_max"]
    )


def test_coefficient_route_catches_what_the_point_route_caught(suite):
    # each mutant run through qde_checks and through the point route at the
    # 20 spiral points it was once judged at
    for mutant in ("c0", "middle", "weight"):
        for delta in MUTANT_DELTAS:
            by_coefficients = by_points = 0
            for params in suite:
                zeros = zeros_of(params)[1].zeros
                case = _mutated(params, zeros, mutant, delta)
                by_coefficients += _caught(*qde_checks(case))
                by_points += _caught(*qde_point_checks(case, spiral_points(zeros)))
            assert by_coefficients >= by_points, (mutant, delta)
            if delta == 1e-6:
                assert by_coefficients == len(suite), mutant
