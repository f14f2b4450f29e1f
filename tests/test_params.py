"""Parameter validation, Vieta's expansion, and reduction."""

import cmath
import random

import pytest

from qzeros.errors import InvalidDegree, NonGenericParameter
from qzeros.params import ParamSet, _elementary, validate
from qzeros.qseries import coeffs_P

from conftest import suite_cases
from oracles import ReductionMismatch, ReductionTooDeep, reduce


def test_validate_accepts_bare_00():
    validate(ParamSet(r=0, s=0, N=3, q=0.5))


def test_validate_rejects_beta_on_pole():
    with pytest.raises(NonGenericParameter):
        validate(ParamSet(r=0, s=1, N=2, q=0.5, beta=(2.0,)))


def test_validate_rejects_alpha_on_pole():
    # alpha_1 = q^{-1} annihilates the leading coefficient through (alpha;q)_N
    with pytest.raises(NonGenericParameter):
        validate(ParamSet(r=1, s=0, N=3, q=0.5, alpha=(2.0,)))


def test_validate_accepts_mixed_generic_case():
    validate(ParamSet(r=1, s=1, N=4, q=0.3 + 0.1j, alpha=(1.7,), beta=(-0.4,)))


def test_validate_rejects_small_N():
    with pytest.raises(InvalidDegree):
        validate(ParamSet(r=0, s=0, N=0, q=0.5))
    with pytest.raises(InvalidDegree):
        ParamSet(r=-1, s=0, N=2, q=0.5)


def test_validate_rejects_degenerate_q():
    with pytest.raises(NonGenericParameter):
        validate(ParamSet(r=0, s=0, N=2, q=0.0))
    with pytest.raises(NonGenericParameter):
        validate(ParamSet(r=0, s=0, N=2, q=1.0))
    # root of unity of order <= N zeroes a (q;q)_m factor
    with pytest.raises(NonGenericParameter):
        validate(ParamSet(r=0, s=0, N=2, q=-1.0))


def test_elementary_empty_and_hand_cases():
    assert _elementary(()) == ()
    assert [complex(b) for b in _elementary((1.0, 2.0, 3.0))] == [6, 11, 6]

    a1, a2 = 0.7 + 0.2j, 1.3 - 0.4j
    a = _elementary((a1, a2))
    assert abs(a[0] - (a1 + a2)) < 1e-15
    assert abs(a[1] - a1 * a2) < 1e-15


def test_elementary_generating_function_identity(small_suite):
    rng = random.Random(5)
    for params in small_suite:
        for values in (params.alpha, params.beta):
            e = _elementary(values)
            for _ in range(1 + max(params.r, params.s)):
                x = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                lhs = 1.0 + 0j
                for v in values:
                    lhs *= 1 + v * x
                rhs = 1 + sum(c * x ** (j + 1) for j, c in enumerate(e))
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_elementary_top_coefficient_is_full_product():
    for values in ((0.3 + 0.1j, 1.2), (0.9, 1.4j)):
        assert abs(_elementary(values)[-1] - values[0] * values[1]) < 1e-15


def _reduction_pair():
    a1, a2, b1 = 0.8 + 0.3j, 1.4 - 0.2j, 0.6 + 0.5j
    full = validate(ParamSet(r=2, s=2, N=5, q=0.45, alpha=(a1, a2), beta=(b1, a2)))
    return full, a1, b1


def test_reduce_drops_matched_trailing_pair():
    full, a1, b1 = _reduction_pair()
    red = reduce(full, 1)
    assert (red.r, red.s) == (1, 1)
    assert red.alpha == (a1,) and red.beta == (b1,)


def test_reduce_u0_is_identity():
    full, _, _ = _reduction_pair()
    assert reduce(full, 0) == full


def test_reduce_mismatch_and_depth_errors():
    bad = ParamSet(r=2, s=2, N=3, q=0.45, alpha=(0.3, 0.7), beta=(0.5, 0.6))
    with pytest.raises(ReductionMismatch):
        reduce(bad, 1)
    full, _, _ = _reduction_pair()
    with pytest.raises(ReductionTooDeep):
        reduce(full, 2)


def test_reduce_preserves_coefficients():
    full, _, _ = _reduction_pair()
    red = reduce(full, 1)
    cf = coeffs_P(full).coeffs
    cr = coeffs_P(red).coeffs
    for a, b in zip(cf, cr):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_suite_spans_the_quantifier_domain():
    cases = suite_cases()
    assert len(cases) == 50
    assert {(p.r, p.s) for p in cases} == {(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)}
    assert {p.N for p in cases} == set(range(1, 11))
    assert all(0.2 <= abs(p.q) <= 0.9 for p in cases)
    assert any(abs(p.q.imag) > 1e-9 for p in cases)
    assert any(p.q.real < 0 and abs(p.q.imag) < 1e-9 for p in cases)
