"""Shift kernels over a zero configuration and the zero-identity residuals.

For a configuration z_1..z_N and integer shift p the kernels are

    f_n(p)  = prod_{l != n}   (q^p z_n - z_l) / (z_n - z_l)
    f_nm(p) = prod_{l != n,m} (q^p z_n - z_l) / (z_n - z_l)
    g_n(p)  = sum_{k != n} f_nk(p) z_k / (z_n - z_k)^2

with empty products 1 and empty sums 0. Their coordinate derivatives close in
the same family:

    d f_n / d z_n = (1 - q^p) g_n(p)
    d f_n / d z_m = (q^p - 1) f_nm(p) z_n / (z_n - z_m)^2

A KernelCache precomputes all values over the contiguous shift range the
matrix assembly reads (min(1, s-r) .. s+1), since the matrix reuses each
O(N^2) times.

The N algebraic identities satisfied by the true zeros are the q-difference
equation at z = z_n, its weights read from qdiff.qde_terms (as are those of
the zero flow and the spectral matrix, through velocity_terms).
prop1_residuals evaluates them in the product form built directly from the
configuration; prop1_residuals_qde is the dual route through
shifted-argument evaluations of the monic polynomial. Residuals are
normalized by the largest term sensitivity scale (see decancelled_size), so a true configuration scores at
the zeros' own forward error and an O(delta) perturbation scores at O(delta)
even when the shifted products all collapse simultaneously.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .errors import DegreeMismatch, IndexCollision
from .params import ParamSet
from .qdiff import qde_terms
from .qseries import Poly, coeffs_P, eval_poly_deriv, to_monic
from .precision import TINY


def f_n(p: int, n: int, zeros: Sequence, q):
    """prod over l != n of (q^p z_n - z_l)/(z_n - z_l); 1 for N = 1 (0-based n)."""
    if p == 0:
        return 1 + 0 * q
    qp = q**p
    zn = zeros[n]
    out = 1 + 0 * q
    for l, zl in enumerate(zeros):
        if l != n:
            out = out * (qp * zn - zl) / (zn - zl)
    return out


def f_nm(p: int, n: int, m: int, zeros: Sequence, q):
    """Same product excluding both n and m (0-based); 1 for N = 2."""
    if n == m:
        raise IndexCollision(f"kernel excluding two indices needs n != m, got n = m = {n}")
    if p == 0:
        return 1 + 0 * q
    qp = q**p
    zn = zeros[n]
    out = 1 + 0 * q
    for l, zl in enumerate(zeros):
        if l != n and l != m:
            out = out * (qp * zn - zl) / (zn - zl)
    return out


def g_n(p: int, n: int, zeros: Sequence, q):
    """sum over k != n of f_nk(p) z_k/(z_n - z_k)^2; 0 for N = 1 (0-based n)."""
    zn = zeros[n]
    out = 0 * q
    for k, zk in enumerate(zeros):
        if k != n:
            out = out + f_nm(p, n, k, zeros, q) * zk / (zn - zk) ** 2
    return out


def shift_range(r: int, s: int) -> range:
    """All integer shifts the matrix assembly and the flow read: the union of
    {1..s+1} and {s-r..s+1} is the contiguous range min(1, s-r)..s+1."""
    return range(min(1, s - r), s + 2)


class KernelCache:
    """All f_n, f_nm, g_n values for one configuration over shift_range(r, s).

    Immutable after construction; reads are index lookups.
    """

    def __init__(self, zeros: Sequence, q, r: int, s: int):
        self.zeros = tuple(zeros)
        self.q = q
        n_count = len(self.zeros)
        self.f: Dict[int, List] = {}
        self.fnm: Dict[int, List[List]] = {}
        self.g: Dict[int, List] = {}
        for p in shift_range(r, s):
            self.f[p] = [f_n(p, n, self.zeros, q) for n in range(n_count)]
            table = [[None] * n_count for _ in range(n_count)]
            for n in range(n_count):
                for m in range(n_count):
                    if m != n:
                        table[n][m] = f_nm(p, n, m, self.zeros, q)
            self.fnm[p] = table
            gvals = []
            for n in range(n_count):
                acc = 0 * q
                zn = self.zeros[n]
                for k in range(n_count):
                    if k != n:
                        acc = acc + table[n][k] * self.zeros[k] / (zn - self.zeros[k]) ** 2
                gvals.append(acc)
            self.g[p] = gvals


def _shift_products(zeros: Sequence, n: int, q, powers: Sequence[int]) -> Dict:
    """prod_m (z_n q^k - z_m) over the full configuration, for each power k."""
    zn = zeros[n]
    out = {}
    for k in set(powers):
        acc = 1 + 0 * q
        zk = zn * q**k
        for zm in zeros:
            acc = acc * (zk - zm)
        out[k] = acc
    return out


def decancelled_size(zk, zs):
    """Sensitivity scale of the product prod_l (zk - z_l).

    Defined as max(|product|, |product with its single most-cancelling factor
    replaced by |zk| + |z_l*||): the size the product takes under an
    order-one relative move of the zero it is most nearly cancelling against.
    This is the scale on which residuals built from such products respond to
    single-zero perturbations. The plain |product| would collapse in the
    balanced low-order cases where the zeros form geometric chains and zk
    lands on another zero exactly (e.g. r = s = 0, where z_n = q^n), turning
    a normalized residual into 0/0 noise at true zeros; the fully factor-wise
    bound prod(|zk| + |z_l|) errs the other way, hiding genuine perturbations
    behind the compounded looseness of every factor."""
    mags = [abs(zk - zl) for zl in zs]
    i_min = min(range(len(mags)), key=mags.__getitem__)
    rest = 1.0
    for i, m in enumerate(mags):
        if i != i_min:
            rest *= m
    return max(rest * mags[i_min], (abs(zk) + abs(zs[i_min])) * rest)


def _shift_magnitudes(zeros: Sequence, n: int, q, powers: Sequence[int]) -> Dict:
    """decancelled_size of each shifted product prod_m (z_n q^k - z_m)."""
    zn = zeros[n]
    return {k: float(decancelled_size(zn * q**k, zeros)) for k in set(powers)}


def _prop1_terms(zeros: Sequence, n: int, params: ParamSet) -> List:
    """(coefficient, shift) pairs of the n-th zero identity, sum over pairs of
    coefficient * [shifted product at q^shift]: the qde_terms addends at
    z = z_n, less the constant p(z) addend, which vanishes there."""
    zn = zeros[n]
    return [(w * zn if e else w, k) for k, w, e in qde_terms(params) if (k, e) != (0, 0)]


def velocity_terms(params: ParamSet) -> List:
    """(k, c, e) addends of the zero flow, velocity_n = sum c z_n^e f_n(k),
    with c = (-1)^s w (q^k - 1) for each qde_terms addend (k, w, e).

    The velocity is (-1)^s times the n-th zero identity over
    z_n prod_{l != n} (z_n - z_l), and that denominator divides each shifted
    product prod_l (q^k z_n - z_l) to (q^k - 1) f_n(k). Shift-0 addends drop
    out, since q^0 - 1 = 0.
    """
    q = params.q
    sign = (-1) ** params.s
    return [(k, sign * w * (q**k - 1), e) for k, w, e in qde_terms(params) if k != 0]


def _normalized(terms, values, magnitudes) -> float:
    total = 0
    largest = TINY
    for coef, k in terms:
        total = total + coef * values[k]
        largest = max(largest, float(abs(coef)) * magnitudes[k])
    return float(abs(total) / largest)


def prop1_residuals(zeros: Sequence, params: ParamSet) -> List[float]:
    """Normalized residuals of the N zero identities, product form.

    Each identity is evaluated with full-configuration products
    prod_m (z_n q^k - z_m) and normalized by the largest term magnitude,
    with each term's magnitude bounded factor-wise (see _shift_magnitudes).
    At a true zero set every residual is round-off small, and perturbing any
    single zero lifts some residual by orders of magnitude (the sensitivity
    the acceptance suite probes).
    """
    zs = tuple(zeros)
    if len(zs) != params.N:
        raise DegreeMismatch(f"got {len(zs)} zeros for N = {params.N}")
    q = params.q
    out = []
    for n in range(len(zs)):
        terms = _prop1_terms(zs, n, params)
        powers = [k for _, k in terms]
        prods = _shift_products(zs, n, q, powers)
        mags = _shift_magnitudes(zs, n, q, powers)
        out.append(_normalized(terms, prods, mags))
    return out


def prop1_residuals_qde(zeros: Sequence, params: ParamSet, p: Poly | None = None) -> List[float]:
    """Dual route: the same identities with each shifted product replaced by a
    polynomial evaluation p(z_n q^k) of the monic coefficient vector."""
    zs = tuple(zeros)
    if len(zs) != params.N:
        raise DegreeMismatch(f"got {len(zs)} zeros for N = {params.N}")
    if p is None:
        p = to_monic(coeffs_P(params))
    if p.degree != params.N:
        raise DegreeMismatch(f"polynomial degree {p.degree} != N = {params.N}")
    q = params.q
    out = []
    for n in range(len(zs)):
        zn = zs[n]
        terms = _prop1_terms(zs, n, params)
        values, mags = {}, {}
        for k in {k for _, k in terms}:
            zk = zn * q**k
            val, der = eval_poly_deriv(p, zk)
            values[k] = val
            # same sensitivity scale as the product route: p' near a zero
            # is the de-cancelled product, and the zero being cancelled
            # against sits at |z| ~ |zk|, so its order-one move has size
            # 2|zk| |p'(zk)|
            mags[k] = float(max(abs(val), 2.0 * abs(zk) * abs(der)))
        out.append(_normalized(terms, values, mags))
    return out
