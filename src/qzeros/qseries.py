"""Coefficient vectors of the degree-N q-hypergeometric polynomial family.

The polynomial is

    P_N(z) = sum_{m=0}^{N} T_m z^m,
    T_m = (q^{-N};q)_m prod_j (alpha_j;q)_m
          / ( (q;q)_m prod_k (beta_k;q)_m ) * [(-1)^m q^{m(m-1)/2}]^{s-r},

built here by the consecutive-term ratio

    T_m / T_{m-1} = (1 - q^{m-1-N}) prod_j (1 - alpha_j q^{m-1})
                    / ( (1 - q^m) prod_k (1 - beta_k q^{m-1}) )
                    * [(-1) q^{m-1}]^{s-r},

which costs O(N(r+s)) and never recomputes a Pochhammer product. The monic
form divides by the leading coefficient; monic_prefactor is the closed form
of that rescale, an independent oracle for the leading coefficient (the poly
command checks one against the other). eval_poly and eval_poly_deriv are
Horner's rule at a scalar or an array; a monic polynomial starts at
z + c_{N-1}, without the product by its leading 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import OverflowRisk, ZeroLeadingCoefficient
from .params import ParamSet, in_context
from .precision import context_of

OVERFLOW_LIMIT = 1e280


@dataclass(frozen=True)
class Poly:
    """Dense coefficient vector: coeffs[m] is the coefficient of z^m."""

    coeffs: Tuple
    monic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("empty coefficient vector")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def qpochhammer(gamma, q, m: int):
    """(gamma; q)_m = prod_{i=0}^{m-1} (1 - gamma q^i); empty product is 1."""
    if m < 0:
        raise ValueError(f"order must be nonnegative, got {m}")
    out = 1 + 0 * gamma  # one, in the scalar type of gamma (exact for int/rational)
    power = 1 + 0 * q
    for _ in range(m):
        out = out * (1 - gamma * power)
        power = power * q
    return out


def coeffs_P(params: ParamSet) -> Poly:
    """Coefficient vector of P_N via the consecutive-term ratio recurrence,
    in the precision of params.q. OverflowRisk in binary64 once a coefficient
    passes OVERFLOW_LIMIT or a power of q overflows."""
    ctx = context_of(params.q)
    params = in_context(params, ctx)
    q, N, diff = params.q, params.N, params.s - params.r

    term = ctx.convert(1.0)
    coeffs = [term]
    qpow = ctx.convert(1.0)  # q^{m-1} while filling coefficient m
    try:
        q_minus_N = q ** (-N)
        for m in range(1, N + 1):
            num = 1 - qpow * q_minus_N
            den = 1 - q**m
            for a in params.alpha:
                num = num * (1 - a * qpow)
            for b in params.beta:
                den = den * (1 - b * qpow)
            ratio = num / den
            if diff:
                ratio = ratio * (-qpow) ** diff
            term = term * ratio
            if ctx.mp is None and not abs(term) <= OVERFLOW_LIMIT:
                raise OverflowRisk(
                    f"coefficient magnitude {abs(term):.3e} at m={m} exceeds {OVERFLOW_LIMIT:.0e};"
                    " use extended precision"
                )
            coeffs.append(term)
            qpow = qpow * q
    except OverflowError:
        # binary64 powers raise it; mpc ones do not overflow
        raise OverflowRisk(f"a power of q overflows binary64 at N={N}; use extended precision") from None
    return Poly(coeffs=tuple(coeffs), monic=False)


def to_monic(p: Poly) -> Poly:
    """Divide through by the leading coefficient; the lead is then set to exactly 1."""
    lead = p.coeffs[-1]
    if lead == 0:
        raise ZeroLeadingCoefficient("leading coefficient is zero")
    if p.monic:
        return p
    scaled = [c / lead for c in p.coeffs[:-1]]
    scaled.append(1 + 0 * lead)
    return Poly(coeffs=tuple(scaled), monic=True)


def eval_poly(p: Poly, z):
    """Horner evaluation from the highest coefficient down, at a scalar or at
    every entry of an array z, which stays on the left of each product: an
    mpc on the left of an object array is slow. A monic p starts at
    z + c_{N-1}, its leading 1 applied by no product: the same value bit for
    bit at finite z, since z * 1 is z."""
    if p.monic and p.degree:
        acc, rest = z + p.coeffs[-2], p.coeffs[-3::-1]
    else:
        acc, rest = p.coeffs[-1], p.coeffs[-2::-1]
    for c in rest:
        acc = z * acc + c
    return acc


def eval_poly_deriv(p: Poly, z):
    """Value and first derivative in one Horner pass, as eval_poly; a monic
    p's derivative starts at its leading 1, the value of z * 0 + 1, so a
    linear monic p's derivative is that scalar 1 at every entry of z."""
    if p.monic and p.degree:
        acc, dacc, rest = z + p.coeffs[-2], p.coeffs[-1], p.coeffs[-3::-1]
    else:
        acc, dacc, rest = p.coeffs[-1], 0 * p.coeffs[-1], p.coeffs[-2::-1]
    for c in rest:
        dacc = z * dacc + acc
        acc = z * acc + c
    return acc, dacc


def monic_prefactor(params: ParamSet):
    """Closed rescale factor carrying P_N to its monic form (oracle for the lead)."""
    q = params.q
    N, diff = params.N, params.r - params.s
    num = qpochhammer(q, q, N)
    for b in params.beta:
        num = num * qpochhammer(b, q, N)
    den = qpochhammer(q ** (-N), q, N)
    for a in params.alpha:
        den = den * qpochhammer(a, q, N)
    out = num / den
    if diff:
        out = out * ((-1) ** N * q ** (N * (N - 1) // 2)) ** diff
    return out
