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
_operator_sides) so the pass threshold is scale-free.

Expanding the operators gives the same equation as a weighted sum of
shifted-argument values p(z q^k). Its weights live in one table, qde_terms,
which the zero identities (zero_algebra), the zero flow (flow) and the
spectral matrix (isospectral) read as well. The expanded route sums that
table; up to an overall (-1)^{s+1} it is algebraically identical to the
operator route, which never reads the table and so certifies it. qde_checks
evaluates both routes in one pass and returns the operator-route residual
(qde_residual) and the defect between the routes (qde_expanded_agreement).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .errors import DegreeMismatch
from .params import ParamSet, elem_sym
from .precision import TINY, context_of
from .qseries import Poly, eval_poly


def apply_delta(p: Poly, q) -> Poly:
    """Pure dilation: coefficient m picks up q^m."""
    qpow = 1 + 0 * q
    out = []
    for c in p.coeffs:
        out.append(c * qpow)
        qpow = qpow * q
    return Poly(coeffs=tuple(out), monic=False)


def apply_Delta(gamma, p: Poly, q) -> Poly:
    """Shifted dilation Delta_gamma = gamma*delta - 1: coefficient m picks up
    (gamma q^m - 1)."""
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
    size = context_of(q).size

    def cascade(side, gammas):
        scale = [size(c) for c in side.coeffs]
        for gamma in gammas:
            side = apply_Delta(gamma, side, q)
            scale = [max(m, size(c)) for m, c in zip(scale, side.coeffs)]
        return side, scale

    a_side, a_scale = cascade(p, [1 + 0 * q] + [b / q for b in params.beta])
    b_dilated = apply_delta(p, q ** (params.s - params.r))
    b_side, b_scale = cascade(b_dilated, [q ** (-params.N), *params.alpha])
    return a_side, a_scale, b_side, b_scale


def _horner_terms(poly: Poly, z, shift: int, scales, size):
    """Value of poly(z)*z^shift and its largest intermediate-term magnitude, from size(z)."""
    value = eval_poly(poly, z) * z**shift if shift else eval_poly(poly, z)
    for f in (size, abs):  # abs once float powers overflow
        mag = f(z)
        largest, power = 0.0, mag**shift
        for s in scales:
            largest = max(largest, s * power)
            power = power * mag
        if largest < math.inf:
            break
    return value, largest


def _operator_route(p: Poly, params: ParamSet, zs: Sequence, size) -> List:
    """(value, largest intermediate-term magnitude) of the operator-route
    residual A(z) - z*B(z) at each sample point."""
    if p.degree != params.N:
        raise DegreeMismatch(f"polynomial degree {p.degree} != N = {params.N}")
    a_side, a_marks, b_side, b_marks = _operator_sides(p, params)
    out = []
    for z in zs:
        a_val, a_scale = _horner_terms(a_side, z, 0, a_marks, size)
        b_val, b_scale = _horner_terms(b_side, z, 1, b_marks, size)
        out.append((a_val - b_val, max(a_scale, b_scale)))
    return out


def qde_terms(params: ParamSet) -> List[Tuple[int, object, int]]:
    """The expanded q-difference equation as (k, w, e) triples.

    The equation reads sum_i w_i z^{e_i} p(z q^{k_i}) = 0 with e_i in {0, 1}:
        p(z) - p(zq) + sum_k (-q)^{-k} b_k [p(zq^k) - p(zq^{k+1})]
        - (-1)^{r-s} z { p(zq^{s-r}) - q^{-N} p(zq^{s-r+1})
          + sum_j (-1)^j a_j [p(zq^{s-r+j}) - q^{-N} p(zq^{s-r+j+1})] },
    one addend per triple, in this order (b_0 = a_0 = 1 give the leading
    pairs). The one home of these weights.
    """
    q = params.q
    r, s = params.r, params.s
    sym = elem_sym(params)
    q_minus_N = q ** (-params.N)
    sign_rs = (-1) ** (r - s)
    terms = []
    for k, b in enumerate((1,) + sym.b):
        w = b * (-q) ** (-k)
        terms += [(k, w, 0), (k + 1, -w, 0)]
    for j, a in enumerate((1,) + sym.a):
        w = -sign_rs * (-1) ** j * a
        terms += [(s - r + j, w, 1), (s - r + j + 1, -w * q_minus_N, 1)]
    return terms


def _expanded_terms(p: Poly, terms, qk, z, size):
    """Sum of the qde_terms addends at z and the largest addend magnitude (qk[k] = q^k)."""
    values = {k: eval_poly(p, z * qp) for k, qp in qk.items()}
    total = 0
    largest = 0.0
    for k, w, e in terms:
        weight = w * z if e else w
        addend = weight * values[k]
        total = total + addend
        largest = max(largest, size(addend))
    return total, largest


def qde_checks(p: Poly, params: ParamSet, zs: Sequence) -> Tuple[List, List[float]]:
    """qde_residual and qde_expanded_agreement at each point, from one pass of
    the operator route."""
    size = context_of(params.q).size
    orient = (-1) ** (params.s + 1)
    terms = qde_terms(params)
    qk = {k: params.q**k for k, _, _ in terms}
    residuals, agreements = [], []
    for z, (op_val, op_scale) in zip(zs, _operator_route(p, params, zs, size)):
        residuals.append(op_val / max(op_scale, TINY))
        exp_val, exp_scale = _expanded_terms(p, terms, qk, z, size)
        agreements.append(size(op_val - orient * exp_val) / max(op_scale, exp_scale, 1.0))
    return residuals, agreements


def qde_residual(p: Poly, params: ParamSet, zs: Sequence) -> List:
    """Normalized annihilation residual of the operator route at each sample point."""
    return qde_checks(p, params, zs)[0]


def qde_expanded_agreement(p: Poly, params: ParamSet, zs: Sequence) -> List[float]:
    """Defect between the operator route and the expanded route at each point.

    The operator route equals (-1)^{s+1} times the expanded route as
    polynomials in z; the defect is the raw difference over a scale shared by
    both routes, so it measures pure floating round-off.
    """
    return qde_checks(p, params, zs)[1]
