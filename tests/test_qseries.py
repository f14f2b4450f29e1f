"""q-Pochhammer products, P_N coefficients, monic rescale, series evaluation."""

import numpy as np
import pytest

from qzeros.errors import OverflowRisk, ZeroLeadingCoefficient
from qzeros.params import ParamSet, in_context, validate
from qzeros.precision import F64, extended
from qzeros.qseries import Poly, coeffs_P, eval_poly_deriv, monic_prefactor, qpochhammer, to_monic

from conftest import zeros_of
from oracles import eval_phi, eval_poly, horner_deriv, spiral_points


def test_qpochhammer_hand_cases():
    assert qpochhammer(5 + 2j, 0.3, 0) == 1
    assert qpochhammer(2, 3, 2) == (1 - 2) * (1 - 6) == 5
    for N in (0, 1, 3):
        q = 0.7
        assert abs(qpochhammer(q ** (-N), q, N + 1)) < 1e-14


def test_qpochhammer_recurrence():
    gamma, q = 0.8 - 0.3j, 0.45 + 0.2j
    for m in range(7):
        lhs = qpochhammer(gamma, q, m + 1)
        rhs = qpochhammer(gamma, q, m) * (1 - gamma * q**m)
        assert lhs == rhs


def test_coeffs_P_linear_case():
    q = 0.5
    p = coeffs_P(ParamSet(r=0, s=0, N=1, q=q))
    assert abs(p.coeffs[0] - 1) < 1e-15
    assert abs(p.coeffs[1] - (-1 / q)) < 1e-15
    assert not p.monic


def test_coeffs_P_constant_term_is_one(small_suite):
    for params in small_suite:
        assert coeffs_P(params).coeffs[0] == 1


def test_coeffs_P_quadratic_q2():
    # the m=2 coefficient is (1-1/4)(1-1/2) / ((1-2)(1-4)) = (3/8)/3 = 1/8;
    # monic form z^2 - 6z + 8 factors as (z-2)(z-4), the chain {q, q^2} at q=2
    p = coeffs_P(ParamSet(r=0, s=0, N=2, q=2.0))
    assert abs(p.coeffs[0] - 1) < 1e-15
    assert abs(p.coeffs[1] - (-3 / 4)) < 1e-15
    assert abs(p.coeffs[2] - (1 / 8)) < 1e-15
    mono = to_monic(p)
    assert abs(mono.coeffs[0] - 8) < 1e-12
    assert abs(mono.coeffs[1] - (-6)) < 1e-12
    assert abs(eval_poly(mono, 2.0)) < 1e-12
    assert abs(eval_poly(mono, 4.0)) < 1e-12


def test_coeffs_P_degree_and_lead(suite):
    for params in suite:
        p = coeffs_P(params)
        assert len(p.coeffs) == params.N + 1
        assert p.coeffs[params.N] != 0


def test_to_monic_hand_cases():
    q = 0.5
    mono = to_monic(Poly(coeffs=(1.0, -1 / q), monic=False))
    assert mono.coeffs == (-q, 1)
    assert mono.monic
    assert to_monic(mono) is mono
    mono = to_monic(Poly(coeffs=(2.0, 0.0, 4.0), monic=False))
    assert mono.coeffs == (0.5, 0.0, 1.0)


def test_to_monic_lead_exactly_one(suite):
    for params in suite:
        assert to_monic(coeffs_P(params)).coeffs[-1] == 1


def test_to_monic_zero_lead():
    with pytest.raises(ZeroLeadingCoefficient):
        to_monic(Poly(coeffs=(1.0, 0.0), monic=False))


def test_monic_prefactor_matches_division(suite):
    for params in suite:
        p = coeffs_P(params)
        mono = to_monic(p)
        pre = monic_prefactor(params)
        for raw, monic_c in zip(p.coeffs, mono.coeffs):
            scale = max(1.0, abs(monic_c))
            assert abs(raw * pre - monic_c) < 1e-10 * scale


def test_eval_poly_hand_cases():
    q = 0.5
    assert eval_poly(Poly(coeffs=(-q, 1.0), monic=True), q) == 0
    p = Poly(coeffs=(3.0 + 1j, 2.0, 1.0), monic=True)
    assert eval_poly(p, 0) == p.coeffs[0]


def _bits(values):
    """The exact binary form of each value: signed-zero and NaN aware."""
    return [v._mpc_ if hasattr(v, "_mpc_") else (v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("ctx", [F64, extended(50)], ids=["f64", "ext50"])
def test_monic_horner_start_is_bitwise_the_generic_loop(suite, ctx):
    # the monic start drops the product by the leading 1 (and the first
    # derivative step's product by 0); at finite points nothing else moves
    for params in suite:
        p, zset = zeros_of(in_context(params, ctx))
        assert p.monic and p.coeffs[-1] == 1
        points = list(zset.zeros)
        points += [ctx.convert(z) for z in spiral_points(points)]
        # the array pass against the loop over the same array (NumPy's
        # complex128 loops may round unlike builtin complex), then per point
        grid = np.array(points, dtype=ctx.dtype)
        value, deriv = eval_poly_deriv(p, grid)
        expected = horner_deriv(p, grid)
        assert _bits(value.tolist()) == _bits(expected[0].tolist())
        # a linear monic p's derivative is one scalar 1 for the whole array
        assert _bits(np.broadcast_to(deriv, grid.shape).tolist()) == _bits(expected[1].tolist())
        for z in points:
            assert _bits(eval_poly_deriv(p, z)) == _bits(horner_deriv(p, z))


def test_eval_phi_partial_sum_oracle():
    params = ParamSet(r=0, s=0, N=1, q=0.5)
    alpha0, z = 0.5, 0.1
    got = eval_phi((alpha0,), params, z, 1e-16)
    total, q = 0j, 0.5
    for m in range(200):
        term = qpochhammer(alpha0, q, m) / qpochhammer(q, q, m) * z**m
        total += term
    assert abs(got - total) < 1e-12


def test_eval_phi_terminating_matches_coeffs(small_suite):
    for params in small_suite:
        p = coeffs_P(params)
        z = 0.3 + 0.2j
        via_series = eval_phi((params.q ** (-params.N),) + params.alpha, params, z, 1e-16)
        via_coeffs = eval_poly(p, z)
        assert abs(via_series - via_coeffs) < 1e-10 * max(1.0, abs(via_coeffs))


def test_coeffs_P_overflow_guard():
    params = validate(
        ParamSet(r=2, s=0, N=16, q=0.05, alpha=(0.7 + 0.2j, 1.3 - 0.1j))
    )
    with pytest.raises(OverflowRisk):
        coeffs_P(params)
