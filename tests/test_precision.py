"""Precision contexts: extended precision lives in the values, not in mpmath's globals."""

import mpmath

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
