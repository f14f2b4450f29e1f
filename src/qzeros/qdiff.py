"""Dilation operators and the q-difference annihilation residual.

The dilation delta maps f(z) to f(qz); the shifted operator Delta_gamma is
gamma*delta - 1. Both act diagonally on coefficient vectors:

    delta:        coeffs[m] -> q^m coeffs[m]
    Delta_gamma:  coeffs[m] -> (gamma q^m - 1) coeffs[m]

so all operator algebra here is exact diagonal scaling (and commutation is
exact). The defining residual of the polynomial family is

    Delta_1 prod_k Delta_{beta_k/q} p(z)
      - z * Delta_{q^-N} prod_j Delta_{alpha_j} p(z q^{s-r})  =  0,

evaluated per sample point and normalized by the largest intermediate term
magnitude (coefficient scales are tracked through every operator stage, see
_operator_sides) so the pass threshold is scale-free. An expanded dual route
evaluates the same
identity purely through shifted-argument polynomial values p(z q^k); up to an
overall (-1)^{s+1} the two routes are algebraically identical, which is the
agreement check exported as qde_expanded_agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .errors import DegreeMismatch
from .params import ParamSet, elem_sym
from .precision import TINY
from .qseries import Poly, eval_poly


@dataclass(frozen=True)
class DilationOp:
    """The gamma of a shifted dilation operator Delta_gamma = gamma*delta - 1."""

    gamma: object


def apply_delta(p: Poly, q) -> Poly:
    """Pure dilation: coefficient m picks up q^m."""
    qpow = 1 + 0 * q
    out = []
    for c in p.coeffs:
        out.append(c * qpow)
        qpow = qpow * q
    return Poly(coeffs=tuple(out), monic=False)


def apply_Delta(op: DilationOp, p: Poly, q) -> Poly:
    """Shifted dilation: coefficient m picks up (gamma q^m - 1)."""
    gamma = op.gamma
    qpow = 1 + 0 * q
    out = []
    for c in p.coeffs:
        out.append(c * (gamma * qpow - 1))
        qpow = qpow * q
    return Poly(coeffs=tuple(out), monic=False)


def _operator_sides(p: Poly, params: ParamSet):
    """Coefficient vectors of the two operator-route sides, with stage scales.

    A = Delta_1 prod_k Delta_{beta_k/q} applied to p;
    B = Delta_{q^-N} prod_j Delta_{alpha_j} applied to p(z q^{s-r}).
    The full residual polynomial is A(z) - z*B(z).

    Alongside each side we carry, per coefficient, the largest magnitude that
    coefficient reached at any stage of the operator cascade. A stage can
    shrink a coefficient by a near-total cancellation (gamma q^m - 1 with
    gamma q^m within rounding of 1, e.g. the Delta_{q^-N} factor at m = N
    after the q^{s-r} dilation inflated the entry by q^{-m}); what is left is
    then pure round-off of the larger intermediate, so the residual threshold
    has to be measured against that intermediate, not against the final
    coefficient.
    """
    q = params.q

    def grow(scale, side):
        for m, c in enumerate(side.coeffs):
            mag = abs(c)
            if mag > scale[m]:
                scale[m] = mag

    a_side = p
    a_scale = [abs(c) for c in p.coeffs]
    a_side = apply_Delta(DilationOp(1 + 0 * q), a_side, q)
    grow(a_scale, a_side)
    for b in params.beta:
        a_side = apply_Delta(DilationOp(b / q), a_side, q)
        grow(a_scale, a_side)

    b_side = apply_delta(p, q ** (params.s - params.r))
    b_scale = [abs(c) for c in b_side.coeffs]
    b_side = apply_Delta(DilationOp(q ** (-params.N)), b_side, q)
    grow(b_scale, b_side)
    for a in params.alpha:
        b_side = apply_Delta(DilationOp(a), b_side, q)
        grow(b_scale, b_side)
    return a_side, a_scale, b_side, b_scale


def _horner_terms(poly: Poly, z, shift: int, scales):
    """Value of poly(z)*z^shift with the largest intermediate-term magnitude."""
    value = eval_poly(poly, z) * z**shift if shift else eval_poly(poly, z)
    zpow = z**shift if shift else 1 + 0 * z
    largest = 0.0
    for s in scales:
        largest = max(largest, s * abs(zpow))
        zpow = zpow * z
    return value, largest


def qde_residual(p: Poly, params: ParamSet, zs: Sequence) -> List:
    """Normalized annihilation residual of the operator route at each sample point."""
    if p.degree != params.N:
        raise DegreeMismatch(f"polynomial degree {p.degree} != N = {params.N}")
    a_side, a_marks, b_side, b_marks = _operator_sides(p, params)
    out = []
    for z in zs:
        a_val, a_scale = _horner_terms(a_side, z, 0, a_marks)
        b_val, b_scale = _horner_terms(b_side, z, 1, b_marks)
        scale = max(a_scale, b_scale, TINY)
        out.append((a_val - b_val) / scale)
    return out


def _expanded_terms(p: Poly, params: ParamSet, z):
    """Addends of the expanded shifted-argument identity at z.

    Returns (sum, largest addend magnitude). The addends are
        p(z) - p(zq) + sum_k (-q)^{-k} b_k [p(zq^k) - p(zq^{k+1})]
        - (-1)^{r-s} z { p(zq^{s-r}) - q^{-N} p(zq^{s-r+1})
          + sum_j (-1)^j a_j [p(zq^{s-r+j}) - q^{-N} p(zq^{s-r+j+1})] }.
    """
    q = params.q
    r, s, N = params.r, params.s, params.N
    sym = elem_sym(params)
    q_minus_N = q ** (-N)
    sign_rs = (-1) ** (r - s)

    def pv(k: int):
        return eval_poly(p, z * q**k)

    addends = [pv(0), -pv(1)]
    for k in range(1, s + 1):
        w = sym.b[k - 1] * (-q) ** (-k)
        addends.append(w * pv(k))
        addends.append(-w * pv(k + 1))
    addends.append(-sign_rs * z * pv(s - r))
    addends.append(sign_rs * z * q_minus_N * pv(s - r + 1))
    for j in range(1, r + 1):
        w = sym.a[j - 1] * (-1) ** j
        addends.append(-sign_rs * z * w * pv(s - r + j))
        addends.append(sign_rs * z * w * q_minus_N * pv(s - r + j + 1))

    total = addends[0]
    largest = abs(addends[0])
    for a in addends[1:]:
        total = total + a
        largest = max(largest, abs(a))
    return total, largest


def expanded_residual(p: Poly, params: ParamSet, zs: Sequence) -> List:
    """Normalized residual of the expanded shifted-argument route at each sample point."""
    if p.degree != params.N:
        raise DegreeMismatch(f"polynomial degree {p.degree} != N = {params.N}")
    out = []
    for z in zs:
        total, largest = _expanded_terms(p, params, z)
        out.append(total / max(largest, TINY))
    return out


def qde_expanded_agreement(p: Poly, params: ParamSet, zs: Sequence) -> List[float]:
    """Defect between the operator route and the expanded route at each point.

    The operator route equals (-1)^{s+1} times the expanded route as
    polynomials in z; the defect is the raw difference over a scale shared by
    both routes, so it measures pure floating round-off.
    """
    if p.degree != params.N:
        raise DegreeMismatch(f"polynomial degree {p.degree} != N = {params.N}")
    a_side, a_marks, b_side, b_marks = _operator_sides(p, params)
    orient = (-1) ** (params.s + 1)
    out = []
    for z in zs:
        a_val, a_scale = _horner_terms(a_side, z, 0, a_marks)
        b_val, b_scale = _horner_terms(b_side, z, 1, b_marks)
        op_val = a_val - b_val
        exp_val, exp_scale = _expanded_terms(p, params, z)
        scale = max(a_scale, b_scale, exp_scale, 1.0)
        out.append(abs(op_val - orient * exp_val) / scale)
    return out
