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
spectral matrix (isospectral) read as well, formed once per case (a stage
of isospectral.Case). The expanded route sums that table; up to an overall
(-1)^{s+1} it is algebraically identical to the operator route, which never
reads the table and so certifies it. qde_checks evaluates both routes and
returns the operator-route residual (qde_residual) and the defect between
the routes (qde_expanded_agreement), each route one array pass over all
sample points in the context's exact arithmetic (PrecisionContext.exact:
complex128 in binary64, precision.Dyadic at extended digits, whose +, -
and * are exact): one Horner pass of A(z) - z B(z), and one of p over every
point times every shift (shift_grid), the table grouped by shift
(shift_groups) into sum_k (a_k + b_k z) p(z q^k) (shift_sum), which the
zero identities read too. Neither route divides, so at extended digits
they round only their inputs (the points, the coefficients, the powers of
q and the grouped weights, and the operator cascade's gammas beta_k/q and
q^-N and its dilation q^{s-r}, which divide in mpc) and what they return.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .params import ParamSet, _elementary
from .precision import TINY, context_of
from .qseries import Poly, eval_poly

if TYPE_CHECKING:
    from .isospectral import Case


def apply_delta(p: Poly, q) -> Poly:
    """Pure dilation: coefficient m picks up q^m (q^0 the exact 1, which
    costs no product)."""
    qpow = 1
    out = []
    for c in p.coeffs:
        out.append(c * qpow)
        qpow = qpow * q
    return Poly(coeffs=tuple(out), monic=False)


def apply_Delta(gamma, p: Poly, q) -> Poly:
    """Shifted dilation Delta_gamma = gamma*delta - 1: coefficient m picks up
    (gamma q^m - 1), q^0 the exact 1 as in apply_delta."""
    qpow = 1
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

    Only the gammas beta_k/q and q^-N and the dilation q^{s-r} divide; they
    are formed in q's scalars, and the cascade and its stage sizes run in
    the context's exact arithmetic (ctx.exact: precision.Dyadic at extended
    digits, so the sides are exact in their inputs; builtin complex in
    binary64, through tolist).
    """
    ctx = context_of(params.q)
    size = ctx.size
    q, dilation = ctx.exact([params.q, params.q ** (params.s - params.r)]).tolist()

    def cascade(side, gammas):
        scale = [size(c) for c in side.coeffs]
        for gamma in ctx.exact(gammas).tolist():
            side = apply_Delta(gamma, side, q)
            scale = [max(m, size(c)) for m, c in zip(scale, side.coeffs)]
        return side, scale

    p = Poly(tuple(ctx.exact(p.coeffs).tolist()), p.monic)
    a_side, a_scale = cascade(p, [1] + [b / params.q for b in params.beta])
    b_side, b_scale = cascade(apply_delta(p, dilation), [params.q ** (-params.N), *params.alpha])
    return a_side, a_scale, b_side, b_scale


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
    q_minus_N = q ** (-params.N)
    sign_rs = (-1) ** (r - s)
    terms = []
    for k, b in enumerate((1,) + _elementary(params.beta)):
        w = b * (-q) ** (-k)
        terms += [(k, w, 0), (k + 1, -w, 0)]
    for j, a in enumerate((1,) + _elementary(params.alpha)):
        w = -sign_rs * (-1) ** j * a
        terms += [(s - r + j, w, 1), (s - r + j + 1, -w * q_minus_N, 1)]
    return terms


def shift_groups(terms, ctx):
    """The (k, w, e) addends grouped by shift, summing to sum_k (a_k + b_k z) v_k:
    the shifts, arrays of a_k and b_k (the e = 0 and e = 1 weight sums, each
    summed in the scalars of w) in ctx's exact arithmetic (ctx.exact), and
    float arrays of the largest |w| in each of them."""
    ks = sorted({k for k, _, _ in terms})
    col = {k: i for i, k in enumerate(ks)}
    sums = [[0] * len(ks), [0] * len(ks)]
    largest = [[0.0] * len(ks), [0.0] * len(ks)]
    for k, w, e in terms:
        i = col[k]
        sums[e][i] = sums[e][i] + w
        largest[e][i] = max(largest[e][i], ctx.size(w))
    return ks, *map(ctx.exact, sums), *map(np.array, largest)


def shift_grid(z, q, ks):
    """z q^k at each entry of the array z (rows) and each shift k in ks
    (columns), the powers q^k taken in q's scalars and multiplied in q's
    context's exact arithmetic (ctx.exact); q^0 is the exact 1, so the
    k = 0 column is z itself."""
    return z[:, None] * context_of(q).exact([q**k if k else 1 for k in ks])


def shift_sum(groups, z, zmag, values, mags):
    """sum_k (a_k + b_k z) values[:, k] at each entry of the array z over the
    shift_groups groups, and its largest addend |w| |z|^e mags[:, k], mags
    being the sizes taken for values and zmag those of z."""
    _, a, b, wa, wb = groups
    total = ((z[:, None] * b + a) * values).sum(axis=1)
    return total, np.fmax.reduce(np.fmax(mags * wa, mags * zmag[:, None] * wb), axis=1)


def _horner_scale(marks, z, zmag, ctx):
    """max_m marks[m] |z|^m at each entry of the array z (zmag its sizes):
    the largest term of a Horner pass, in floats, and in the scalar type
    where a float power leaves the binary64 range."""
    largest, power = 0 * zmag, 1 + 0 * zmag
    for mark in marks:
        largest = np.fmax(largest, power * mark)
        power = power * zmag
    far = largest == math.inf
    if ctx.mp is not None and far.any():
        largest = largest.astype(object)
        largest[far] = _horner_scale(marks, z[far], np.array([abs(v) for v in z[far]], dtype=object), ctx)
    return largest


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def qde_checks(case: Case, zs: Sequence) -> Tuple[List, List[float]]:
    """qde_residual and qde_expanded_agreement of the case's monic
    polynomial p at each point of zs: the operator route over the largest
    intermediate term of either side, the expanded route over its largest
    addend (the case's qde_terms), each one array pass over all the points
    in the exact arithmetic of params.q's context (ctx.exact): the points,
    the coefficients of p and of both operator sides, the powers of q and
    the grouped weights are read once, and only the sizes and the
    operator-route values leave it, each rounded once."""
    params, p = case.params, case.monic
    ctx = context_of(params.q)
    z = ctx.exact(zs)
    zmag = ctx.sizes(z)
    a_side, a_marks, b_side, b_marks = _operator_sides(p, params)
    sides = zip([*ctx.exact(a_side.coeffs), 0], [0, *ctx.exact(b_side.coeffs)])
    op_val = eval_poly(Poly(tuple(a - b for a, b in sides)), z)
    marks = [max(a, b) for a, b in zip([*a_marks, 0.0], [0.0, *b_marks])]
    op_scale = _horner_scale(marks, z, zmag, ctx)

    groups = shift_groups(case.qde_terms, ctx)
    values = eval_poly(Poly(ctx.exact(p.coeffs), p.monic), shift_grid(z, params.q, groups[0]))
    exp_val, exp_scale = shift_sum(groups, z, zmag, values, ctx.sizes(values))
    defect = ctx.sizes(op_val - exp_val * (-1) ** (params.s + 1))
    agreements = defect / np.maximum(np.maximum(op_scale, exp_scale), 1.0)
    return (ctx.rounded(op_val) / np.maximum(op_scale, TINY)).tolist(), agreements.tolist()


def qde_residual(case: Case, zs: Sequence) -> List:
    """Normalized annihilation residual of the operator route at each sample point."""
    return qde_checks(case, zs)[0]


def qde_expanded_agreement(case: Case, zs: Sequence) -> List[float]:
    """Defect between the operator route and (-1)^{s+1} times the expanded
    route, equal as polynomials in z, over a scale shared by both: round-off."""
    return qde_checks(case, zs)[1]
