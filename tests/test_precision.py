"""Precision contexts: extended precision lives in the values, not in mpmath's
globals, and every function computes in the precision of its inputs."""

import inspect

import mpmath

import qzeros
from qzeros import (
    build_C,
    certified_spectrum,
    coeffs_P,
    companion_zeros,
    find_zeros,
    mu_closed,
    to_monic,
)
from qzeros.params import in_context
from qzeros.precision import F64, extended

THIRD_30 = "0." + "3" * 30


def test_extended_context_is_private():
    with mpmath.workdps(15):
        ctx = extended(30)
        third = ctx.convert(1) / 3
        assert mpmath.mp.dps == 15
    assert mpmath.nstr(third.real, 30) == THIRD_30
    # a binary64 third is off from the 17th digit on
    assert mpmath.nstr(ctx.convert(F64.convert(1) / 3).real, 30) != THIRD_30


def _outputs(params):
    p = to_monic(coeffs_P(params))
    M, lam = certified_spectrum(params)
    C = build_C(params)
    return [
        *p.coeffs,
        *find_zeros(p, params).zeros,
        *companion_zeros(p),
        *(v for row in M.entries for v in row),
        *lam,
        *mu_closed(params),
        *C.diag,
        *C.sub,
    ]


def test_outputs_follow_the_precision_of_the_inputs(suite):
    params = suite[3]
    assert all(type(v) is complex for v in _outputs(params))
    ctx = extended(30)
    assert all(v.context is ctx.mp for v in _outputs(in_context(params, ctx)))


def test_no_public_function_takes_a_context():
    for name in qzeros.__all__:
        obj = getattr(qzeros, name)
        if inspect.isfunction(obj):
            assert "ctx" not in inspect.signature(obj).parameters, name
