"""Dilation operators and the annihilation residual."""

import cmath
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from qzeros import qdiff, qseries, zero_algebra
from qzeros.cli import cmd_verify
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
from oracles import expanded_residual, qde_checks_scalar


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
    rng = random.Random(405)
    for params in suite:
        pts = _sample_points(params, rng)
        res = qde_residual(Case(params), pts)
        assert max(abs(v) for v in res) < 1e-9


def test_expanded_form_equivalence(suite):
    rng = random.Random(406)
    for params in suite:
        pts = _sample_points(params, rng)
        gaps = qde_expanded_agreement(Case(params), pts)
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
    res = qde_residual(case, [0.8 + 0.3j, -0.5j, 1.1])
    assert max(abs(v) for v in res) > 1e-3


def test_linear_case_cancels_by_hand():
    # r=s=0, N=1, p = z - q: the A side is (q-1)z, the B side times z is the
    # same, so the residual is pure round-off from computing q^{-1} q.
    q = 0.45
    params = ParamSet(r=0, s=0, N=1, q=q, alpha=(), beta=())
    case = Case(params)
    case.monic = Poly((-q, 1.0), monic=True)
    res = qde_residual(case, [0.3, -1.7 + 0.2j, 5.0j])
    assert max(abs(v) for v in res) < 1e-13


def test_true_zeros_annihilate(small_suite):
    # The defining property at the zeros themselves: both routes vanish.
    for params in small_suite:
        _, zset = zeros_of(params)
        res = qde_residual(Case(params, zset.zeros), zset.zeros)
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
    # both routes are Horner sums over their largest term, whose rounding
    # error is at most gamma_2N = 2N eps / (1 - 2N eps) of that term
    # (Higham, Accuracy and Stability of Numerical Algorithms, 5.1); the
    # array pass and the oracle round differently, each within that
    rng = random.Random(408)
    for params in suite:
        params = in_context(params, ctx)
        case = Case(params)
        pts = [ctx.convert(z) for z in _sample_points(params, rng, count=8)]
        got, want = qde_checks(case, pts), qde_checks_scalar(case.monic, params, pts)
        for route, ref in zip(got, want):
            assert len(route) == len(ref)
            for a, b in zip(route, ref):
                assert abs(a - b) <= 64 * ctx.eps


def test_checks_evaluate_once_per_route_never_per_point(monkeypatch, small_suite):
    # eval_poly and eval_poly_deriv take each route's points as one array
    calls = []
    for name in ("eval_poly", "eval_poly_deriv"):
        original = getattr(qseries, name)

        def recorded(p, z, name=name, original=original):
            calls.append((name, type(z)))
            return original(p, z)

        for module in (qseries, qdiff, zero_algebra):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorded)
    for params in small_suite:
        _, zset = zeros_of(params)
        case = Case(params, zset.zeros)
        pts = list(zset.zeros) + [0.5 + 0.25j]
        for check, want in (
            (lambda: qde_checks(case, pts), [("eval_poly", np.ndarray)] * 2),
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
