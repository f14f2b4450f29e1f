"""Shift kernels over a zero configuration and the zero-identity residuals.

For a configuration z_1..z_N and integer shift p the kernels are

    f_n(p)  = prod_{l != n}   (q^p z_n - z_l) / (z_n - z_l)
    f_nm(p) = prod_{l != n,m} (q^p z_n - z_l) / (z_n - z_l)
    g_n(p)  = sum_{k != n} f_nk(p) z_k / (z_n - z_k)^2

with empty products 1 and empty sums 0. Their coordinate derivatives close in
the same family:

    d f_n / d z_n = (1 - q^p) g_n(p)
    d f_n / d z_m = (q^p - 1) f_nm(p) z_n / (z_n - z_m)^2

Every table over the other zeros z_l, l != n, is N x (N - 1), row n in the
order of others(z), the one gather of them. A KernelCache holds, for each
shift of the zero flow (velocity_weights), the f_nm(p) table and the whole
products f_n(p) as read-only arrays in the carried arithmetic of the zeros'
context (PrecisionContext.carried: complex128 in binary64, an object array
of precision.Dyadic at a width at extended digits, Gaussian integers over a
power of two cut to 3 times the context's bits at each product), and the
flow-weighted sum of those tables,

    S = sum_k f_nm(k) (a_k + b_k z_n)(q^k - 1).

It is the one builder of these tables and of S, and the matrix assembly
(isospectral.build_M) its one reader, once a case, from the case's zeros
and velocity_weights. The flow's Jacobian check (flow.jacobian_fd) reads
none of them: it differentiates the velocity through leave_one_out.
reciprocal_table inverts each z_n - z_l once per unordered pair, the one
division of the tables and of the flow, in that carried arithmetic (a
Dyadic reciprocal, rounded once, at extended digits); one leave_one_out
pass a shift gives f_nm(p) and f_n(p) from the prefix and suffix products
along the rows of factors: O(N^2) per shift, in array passes, with no
division by a factor.
g_n(p) is never tabled: the matrix assembly sums it against the flow
weights.

The N algebraic identities satisfied by the true zeros are the q-difference
equation at z = z_n, its weights read from the case's qdiff.qde_terms table
(as are those of the zero flow and the spectral matrix, through
velocity_terms and its grouping by shift, velocity_weights), grouped by
shift as qdiff.shift_groups groups them. Both routes read one shift grid
z_n q^k, a stage of the case (identity_grid): prop1_residuals forms every
zero's products at every shift as one N x S x N array (shifted_products),
prop1_residuals_qde evaluates the monic polynomial over the grid in one
Horner pass. Both are array passes in the context's exact arithmetic
(PrecisionContext.exact: precision.Dyadic at extended digits), so they
round only their inputs and the sizes they return. Residuals are
normalized by the largest term sensitivity scale (see shifted_products),
so a true configuration scores at the zeros' own forward error and an
O(delta) perturbation scores at O(delta) even when the shifted products
all collapse simultaneously.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from .qdiff import shift_grid, shift_groups, shift_sum
from .qseries import Poly, eval_poly_deriv
from .precision import TINY, context_of
from .rootfind import _pairs

if TYPE_CHECKING:
    from .isospectral import Case


@functools.cache
def _others_index(n: int) -> np.ndarray:
    """Row i of the n x (n - 1) index: 0..n-1 without i."""
    return np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)


def others(z):
    """Row n the entries of the vector z other than z[n], N x (N - 1): the
    one layout of every table over the other zeros."""
    return z[_others_index(len(z))]


@functools.cache
def _mirror_index(n: int) -> np.ndarray:
    """The n x (n - 1) index, in the order of others, into the pairs i < l
    of _pairs(n) and then their negations, which row i takes where i > l."""
    rows, cols = np.arange(n)[:, None], _others_index(n)
    return _pairs(n)[2][rows, cols] + np.where(rows < cols, 0, n * (n - 1) // 2)


def reciprocal_table(z):
    """1/(z_n - z_l) over the array z of zeros, N x (N - 1) in the order of
    others: each unordered pair divided once, its other entry the negation,
    since -(a - b) = b - a and 1/(-x) = -(1/x) hold exactly in binary64 and
    in a carried Dyadic, so the table is that of dividing every ordered
    pair, bit for bit; taken factor by factor by KernelCache and the flow,
    so binary64 cannot overflow at N = 16."""
    n, m, _ = _pairs(len(z))
    upper = 1 / (z[n] - z[m])
    return np.concatenate((upper, -upper))[_mirror_index(len(z))]


def leave_one_out(factors):
    """The products along each row of the N x L array factors with factor l
    left out, as an N x L array, and each whole row product: the product of
    the factors before l (np.multiply.accumulate) times that of the factors
    after it, with no division by a factor, since a geometric chain puts
    q^p z_n exactly on another zero. Read by KernelCache, one call a shift,
    and by the dual pass of the flow's Jacobian (flow._moved_velocity)."""
    ones = np.ones((len(factors), 1), dtype=factors.dtype)
    forward = np.concatenate((ones, np.multiply.accumulate(factors, axis=1)), axis=1)
    backward = np.concatenate((np.multiply.accumulate(factors[:, ::-1], axis=1)[:, ::-1], ones), axis=1)
    return forward[:, :-1] * backward[:, 1:], forward[:, -1]


class KernelCache:
    """The kernel tables of one configuration z (the zeros, a sequence or an
    array) over the shifts of the flow weights (Case.velocity_weights,
    {k: (q^k, a_k, b_k)} in the carried arithmetic of z's context,
    PrecisionContext.carried: precision.Dyadic at a width at extended
    digits, the complex array in binary64): z itself, read in once, and,
    each N x (N - 1) in the order of others, inv = reciprocal_table(z),
    divided in that arithmetic, fnm[k], f_nm(k), from one leave_one_out
    pass a shift over the factors (q^k z_n - z_l) inv[n, l], each q^k the
    weights' own, with fn[k], the whole products f_n(k), and the weighted
    sum over the shifts S = sum_k f_nm(k) ((a_k + b_k z_n)(q^k - 1)),
    row n scaled. Every array is read-only: an in-place write would leave a
    cache whose tables are no longer those of its z, from which build_M
    assembles M."""

    def __init__(self, z, weights):
        self.z = context_of(z[0]).carried(z)
        self.inv = reciprocal_table(self.z)
        rest = others(self.z)
        self.fnm, self.fn, self.S = {}, {}, 0
        for k, (qk, a, b) in weights.items():
            # z * qk, never qk * z: an mpc on the left of an object array is slow
            self.fnm[k], self.fn[k] = leave_one_out((self.z[:, None] * qk - rest) * self.inv)
            self.S = self.S + self.fnm[k] * ((self.z * b + a) * (qk - 1))[:, None]
        for table in (self.z, self.inv, self.S, *self.fnm.values(), *self.fn.values()):
            table.flags.writeable = False


def shifted_products(zk, zs):
    """prod_l (zk - z_l) at each entry of the array zk over the array zs of
    zeros, and the sensitivity scale of each product. zs is either one set
    of zeros for every entry or per-row zeros, whose leading axes broadcast
    against zk's (flow.equilibrium_residual: row n the zeros other than z_n).

    The scale is max(|product|, |product with its single most-cancelling
    factor replaced by |zk| + |z_l*||): the size the product takes under an
    order-one relative move of the zero it is most nearly cancelling against.
    This is the scale on which residuals built from such products respond to
    single-zero perturbations. The plain |product| would collapse in the
    balanced low-order cases where the zeros form geometric chains and zk
    lands on another zero exactly (e.g. r = s = 0, where z_n = q^n), turning
    a normalized residual into 0/0 noise at true zeros; the fully factor-wise
    bound prod(|zk| + |z_l|) errs the other way, hiding genuine perturbations
    behind the compounded looseness of every factor."""
    ctx = context_of(zs.flat[0])
    factors = zk[..., None] - zs
    mags = ctx.sizes(factors)
    i_min = mags.argmin(axis=-1)[..., None]
    low = np.take_along_axis(mags, i_min, axis=-1)[..., 0]
    np.put_along_axis(mags, i_min, 1.0, axis=-1)
    nearest = np.take_along_axis(np.broadcast_to(ctx.sizes(zs), mags.shape), i_min, axis=-1)[..., 0]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rest = mags.prod(axis=-1)
        near = ctx.sizes(zk) + nearest
        return factors.prod(axis=-1), np.fmax(rest * low, near * rest)


def identity_grid(case: Case) -> Tuple:
    """The inputs both zero-identity routes read (Case.identity_grid): the
    context, the zeros as an array z in its exact arithmetic, the qde_terms
    addends grouped by shift less p(z)'s, which vanishes at a zero, and the
    grid z_n q^k."""
    ctx = context_of(case.params.q)
    z = ctx.exact(case.zeros)
    groups = shift_groups([t for t in case.qde_terms if t[0] or t[2]], ctx)
    return ctx, z, groups, shift_grid(z, case.flow_powers, groups[0])


def _residuals(ctx, groups, z, values, mags) -> List[float]:
    """Each zero identity from values[n, k], zero n's shifted product at
    shift k, over its largest addend, mags[n, k] being values[n, k]'s scale."""
    total, largest = shift_sum(groups, z, ctx.sizes(z), values, mags)
    return (ctx.sizes(total) / np.maximum(largest, TINY)).astype(float).tolist()


def velocity_terms(case: Case) -> List:
    """(k, c, e) addends of the zero flow, velocity_n = sum c z_n^e f_n(k),
    with c = (-1)^s w (q^k - 1) for each qde_terms addend (k, w, e).

    The velocity is (-1)^s times the n-th zero identity over
    z_n prod_{l != n} (z_n - z_l), and that denominator divides each shifted
    product prod_l (q^k z_n - z_l) to (q^k - 1) f_n(k). Shift-0 addends drop
    out, since q^0 - 1 = 0. Each q^k is the case's (Case.flow_powers),
    formed once a shift. A stage of the case (Case.velocity_terms), read
    by velocity_weights and flow.equilibrium_residual.
    """
    powers = case.flow_powers
    sign = (-1) ** case.params.s
    return [(k, sign * w * (powers[k] - 1), e) for k, w, e in case.qde_terms if k != 0]


def velocity_weights(case: Case) -> Dict[int, Tuple]:
    """The velocity_terms addends grouped by shift, {k: (q^k, a_k, b_k)},
    so that velocity_n = sum_k (a_k + b_k z_n) f_n(k): the form the flow,
    its Jacobian check and the matrix assembly read, one kernel table a
    shift, each through the case's stage (Case.velocity_weights), formed
    once. a_k and b_k are summed in q's scalars, q^k is the case's
    flow_powers entry, and the three are read into its context's carried
    arithmetic (PrecisionContext.carried), the one the kernel tables hold."""
    sums: Dict[int, Tuple] = {}
    for k, c, e in case.velocity_terms:
        a, b = sums.get(k, (0, 0))
        sums[k] = (a, b + c) if e else (a + c, b)
    weights = [(case.flow_powers[k], a, b) for k, (a, b) in sums.items()]
    return dict(zip(sums, map(tuple, context_of(case.params.q).carried(weights).tolist())))


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def prop1_residuals(case: Case) -> List[float]:
    """Normalized residuals of the N zero identities, product form.

    Each identity is evaluated with full-configuration products
    prod_m (z_n q^k - z_m), formed for every zero and shift in one N x S x N
    array, and normalized by the largest term magnitude, each term's taken
    from its product's shifted_products scale. At a true zero set every
    residual is round-off small, and perturbing any single zero lifts some
    residual by orders of magnitude (the sensitivity the acceptance suite
    probes).
    """
    ctx, z, groups, grid = case.identity_grid
    return _residuals(ctx, groups, z, *shifted_products(grid, z))


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def prop1_residuals_qde(case: Case) -> List[float]:
    """Dual route: the same identities with each shifted product replaced by a
    polynomial evaluation p(z_n q^k) of the case's monic polynomial p, one
    Horner pass over every zero and shift of the same grid."""
    ctx, z, groups, grid = case.identity_grid
    p = case.monic
    values, der = eval_poly_deriv(Poly(ctx.exact(p.coeffs), p.monic), grid)
    # same sensitivity scale as the product route: p' near a zero is the
    # de-cancelled product, and the zero being cancelled against sits at
    # |z| ~ |zk|, so its order-one move has size 2|zk| |p'(zk)|
    mags = np.fmax(ctx.sizes(values), 2.0 * ctx.sizes(grid) * ctx.sizes(der))
    return _residuals(ctx, groups, z, values, mags)
