"""Point configurations xi and the interpolation polynomials Phi built on them.

A configuration is a finite multiset of real locations.  For a simple
configuration (all multiplicities one) the polynomial

    Phi_xi^u(z) = prod_{r in supp xi, r != u} (z - r) / (u - r)

is the Lagrange cardinal polynomial of the support at node u.  For
configurations with multiple points the same object is produced by a
residue at u of a transition-density-weighted rational function.  The
pole at u has finite order, so the residue is a finite Taylor coefficient,
and this module sums it exactly from the Taylor series of the density
ratio (Hermite polynomials for BM, shifted entire Bessel series for BESQ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import specfun
from .errors import DomainError
from .processes import ProcessKind

#: locations closer than this are merged into one atom on construction
MERGE_TOL = 1e-9


@dataclass(frozen=True)
class PointConfiguration:
    """Finite multiset of real locations with positive integer weights."""

    atoms: tuple  # ((location, multiplicity), ...) strictly increasing

    def __post_init__(self):
        object.__setattr__(self, "atoms", _normalize_atoms(self.atoms))

    @classmethod
    def from_points(cls, points: Iterable[float]) -> "PointConfiguration":
        return cls(tuple((float(p), 1) for p in points))

    def support(self) -> tuple:
        return tuple(loc for loc, _ in self.atoms)

    def multiplicity(self, loc: float) -> int:
        for r, m in self.atoms:
            if abs(r - loc) <= MERGE_TOL:
                return m
        return 0

    def total(self) -> int:
        return sum(m for _, m in self.atoms)

    def simple(self) -> bool:
        return all(m == 1 for _, m in self.atoms)

    def points(self) -> tuple:
        """All locations with multiplicity, repeated, in increasing order."""
        out = []
        for loc, m in self.atoms:
            out.extend([loc] * m)
        return tuple(out)

    # -- operations ----------------------------------------------------

    def square(self) -> "PointConfiguration":
        return PointConfiguration(tuple((loc * loc, m) for loc, m in self.atoms))


def _normalize_atoms(raw) -> tuple:
    items = sorted((float(loc), int(m)) for loc, m in raw)
    if not items:
        raise DomainError("a configuration needs at least one point")
    for loc, m in items:
        if m < 1:
            raise DomainError("multiplicities must be >= 1")
        if not math.isfinite(loc):
            raise DomainError("locations must be finite")
    merged: list[list] = []
    for loc, m in items:
        if merged and loc - merged[-1][0] <= MERGE_TOL:
            merged[-1][1] += m
        else:
            merged.append([loc, m])
    return tuple((loc, m) for loc, m in merged)


# --------------------------------------------------------------------------
# Vandermonde and the simple Phi
# --------------------------------------------------------------------------


def vandermonde(x):
    """prod_{j < k} (x_k - x_j) over the last axis; 1 for a single entry.

    ``x`` has shape (..., N); a floating or complex dtype is kept
    (longdouble stays longdouble), anything else becomes float.  A 1-D
    float input gives a Python float.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    n = x.shape[-1]
    out = np.ones(x.shape[:-1], dtype=x.dtype)
    for j in range(n):
        for k in range(j + 1, n):
            out *= x[..., k] - x[..., j]
    return float(out) if x.ndim == 1 and x.dtype == np.float64 else out[()]


def phi_simple(xi: PointConfiguration, u: float, z):
    """Phi_xi^u(z) for simple xi; z may be complex or an array."""
    _require_simple(xi)
    u = _locate(xi, u)
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for r in xi.support():
        if r == u:
            continue
        out = out * (z - r) / (u - r)
    return complex(out) if out.ndim == 0 else out


def phi_coeffs(xi: PointConfiguration, u: float) -> np.ndarray:
    """Monomial coefficients of Phi_xi^u, ascending powers, length N.

    Newton-form expansion of the Kronecker interpolation data over the
    support, then conversion to monomials; this keeps rounding in check
    for a few dozen nodes where naive product expansion would not.
    """
    _require_simple(xi)
    u = _locate(xi, u)
    nodes = np.array(xi.support(), dtype=float)
    n = len(nodes)
    # divided differences of delta-at-u data
    dd = np.where(np.abs(nodes - u) <= MERGE_TOL, 1.0, 0.0)
    for level in range(1, n):
        dd[level:] = (dd[level:] - dd[level - 1 : -1]) / (nodes[level:] - nodes[: n - level])
        # in-place top-down update keeps dd[k] = f[x_{k-level} .. x_k]
    # Horner conversion: p(z) = dd[n-1]; p = p*(z - x_k) + dd[k]
    coeffs = np.zeros(n)
    coeffs[0] = dd[n - 1]
    for k in range(n - 2, -1, -1):
        coeffs[1 : n - k] = coeffs[0 : n - k - 1]
        coeffs[0] = 0.0
        coeffs[0 : n - k - 1] -= nodes[k] * coeffs[1 : n - k]
        coeffs[0] += dd[k]
    return coeffs


def _require_simple(xi: PointConfiguration):
    if not xi.simple():
        raise DomainError("operation requires a simple configuration")


def _locate(xi: PointConfiguration, u: float) -> float:
    for r, _ in xi.atoms:
        if abs(r - u) <= MERGE_TOL:
            return r
    raise DomainError(f"{u} is not in the support of the configuration")


# --------------------------------------------------------------------------
# Two-time Phi as a finite Taylor residue
# --------------------------------------------------------------------------


def _ratio_taylor(process: ProcessKind, s: float, x: float, u: float, n: int):
    """First n Taylor coefficients in w of R(u + w) = p(s, x | u + w) / p(s, x | u)."""
    j = np.arange(n)
    fact = np.array([math.factorial(k) for k in range(n)], dtype=float)
    if process.tag == "BM":
        # e^{2ab - b^2} = sum_j H_j(a) b^j / j!, b = w / sqrt(2s)
        a = (x - u) / math.sqrt(2.0 * s)
        herm = np.array([specfun.hermite(k, a) for k in range(n)])
        return herm / (fact * (2.0 * s) ** (j / 2.0))
    if process.tag == "BESQ":
        # e^{-w/2s} e_nu(q0 + x w / 4s^2) / e_nu(q0), and e_nu' = e_{nu+1}
        scale = 4.0 * s * s
        q0 = x * u / scale
        ser = np.array(
            [specfun.entire_bessel_series(process.nu + k, q0) for k in range(n)]
        )
        ser = ser / ser[0] * (x / scale) ** j / fact
        return np.convolve((-1.0 / (2.0 * s)) ** j / fact, ser)[:n]
    raise DomainError("two-time Phi supports BM and BESQ only")


def phi_twotime(
    process: ProcessKind, xi: PointConfiguration, u: float, s: float, x: float, z
) -> complex:
    """Phi((s, x); z) = Res_{zeta = u} R(zeta) / (z - zeta)
    prod_r ((z - r) / (zeta - r))^{m_r}, R = p(s, x | zeta) / p(s, x | u)."""
    coeffs = phi_twotime_coeffs(process, xi, u, s, x)
    return complex(np.polyval(coeffs[::-1], complex(z)))


def phi_twotime_coeffs(
    process: ProcessKind, xi: PointConfiguration, u: float, s: float, x: float
) -> np.ndarray:
    """Monomial coefficients (ascending, length total(xi)) of z -> Phi((s,x); z).

    Phi = prod_{r != u} (z - r)^{m_r} sum_{j < m_u} c_j (z - u)^j, where c
    holds the first m_u Taylor coefficients in w of
    R(u + w) prod_{r != u} (u - r + w)^{-m_r}, R the density ratio.
    """
    if s <= 0:
        raise DomainError("phi_twotime requires s > 0")
    u = _locate(xi, u)
    m_u = xi.multiplicity(u)
    others = [(r, m) for r, m in xi.atoms if r != u]
    c = _ratio_taylor(process, s, x, u, m_u)
    j = np.arange(m_u)
    for r, m in others:
        binom = np.array([math.comb(m + k - 1, k) for k in range(m_u)], dtype=float)
        c = np.convolve(c, (-1.0) ** j * binom / (u - r) ** (m + j))[:m_u]
    # monomials by Horner in (z - u), then one factor (z - r) at a time
    poly = c[-1:]
    for cj in c[-2::-1]:
        poly = np.convolve(poly, [-u, 1.0])
        poly[0] += cj
    for r, m in others:
        for _ in range(m):
            poly = np.convolve(poly, [-r, 1.0])
    return poly


# --------------------------------------------------------------------------
# Canned configurations
# --------------------------------------------------------------------------


def lattice_config(window: int) -> PointConfiguration:
    """One particle on every integer in [-window, window]."""
    if not 1 <= window <= 10_000:
        raise DomainError("lattice window must be in [1, 10000]")
    return PointConfiguration.from_points(range(-window, window + 1))


def besselzero_config(nu: float, count: int) -> PointConfiguration:
    """Squares of the first ``count`` positive zeros of J_nu."""
    zeros = specfun.bessel_zeros(nu, count)
    return PointConfiguration.from_points(z * z for z in zeros)


# --------------------------------------------------------------------------
# Determinant identity
# --------------------------------------------------------------------------


def stacked_det(a) -> np.ndarray:
    """Determinants of a stack of square matrices (..., n, n), shape (...).

    Partial-pivoted elimination run on every matrix of the stack at once; a
    floating or complex dtype is kept (longdouble stays longdouble), anything
    else becomes float.  A zero pivot, hence a singular matrix, gives 0.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    n = a.shape[-1]
    lead = a.shape[:-2]
    # the stack axis last, so that every entry is one contiguous vector
    a = a.reshape((-1, n, n)).transpose(1, 2, 0).copy()
    m = a.shape[-1]
    flat = a.reshape(-1)
    # flat offsets of row 0 of every matrix; row r adds r * n * m
    row0 = np.arange(n)[:, None] * m + np.arange(m)
    det = np.ones(m, dtype=a.dtype)
    odd = np.zeros(m, dtype=bool)
    for col in range(n - 1):
        # the first row of largest magnitude in column col, as argmax picks
        # it (NaN aside): the count of running maxima below the overall one
        running = np.maximum.accumulate(np.abs(a[col:, col]), axis=0)
        pivot = (running < running[-1]).sum(axis=0)
        # swap it into row col, from column col on
        dst = row0[col:] + col * n * m
        src = dst + pivot * (n * m)
        top = flat[dst]
        flat[dst] = flat[src]
        flat[src] = top
        odd ^= pivot > 0
        p = a[col, col]
        det *= p
        # below a zero pivot the column is zero: divide by 1 and leave it
        factor = a[col + 1 :, col] / (p + (p == 0))
        a[col + 1 :, col + 1 :] -= factor[:, None] * a[col, col + 1 :]
    det *= a[n - 1, n - 1]
    # each swap flips the sign; negation is exact, so it may come last
    return np.where(odd, -det, det).reshape(lead)


def det_phi_identity_check(xi: PointConfiguration, x: Sequence[float]):
    """Compare h(x)/h(u) with det[Phi_xi^{u_k}(x_j)].

    Returns (lhs, rhs, |lhs - rhs|).  Entries and the elimination run in
    extended precision: closely spaced configurations make the cardinal
    matrix large and its determinant small, and plain double precision
    cannot certify the identity to 1e-10 there.
    """
    _require_simple(xi)
    u = xi.support()
    if len(x) != len(u):
        raise DomainError("query size must match the configuration size")
    xl = np.asarray(x, dtype=np.longdouble)
    ul = np.asarray(u, dtype=np.longdouble)
    n = len(u)
    lhs = float(vandermonde(xl) / vandermonde(ul))
    # mat[j, k] = prod_{r != k} (x_j - u_r) / (u_k - u_r), a product in
    # the order of r with the factor r = k set to 1
    off = ~np.eye(n, dtype=bool)
    den = np.where(off, ul[:, None] - ul[None, :], 1.0)
    ratio = (xl[:, None, None] - ul[None, None, :]) / den
    mat = np.where(off, ratio, 1.0).prod(axis=-1)
    rhs = float(stacked_det(mat))
    return lhs, rhs, abs(lhs - rhs)
