"""Point configurations xi and the interpolation polynomials Phi built on them.

A configuration is a finite multiset of real locations.  Its one cardinal
basis is the Hermite one, B_{u,i}(v + w) = delta_{uv} w^i + O(w^{m_v}) at
every atom v; for a simple configuration it is Lagrange's,

    Phi_xi^u(z) = prod_{r in supp xi, r != u} (z - r) / (u - r).

With multiple points Phi is a residue at u of a transition-density-weighted
rational function.  The pole has finite order, so the residue is the Hermite
interpolant sum_{i < m_u} r_i B_{u,i}, r the Taylor coefficients of the
density ratio (Hermite polynomials for BM, shifted entire Bessel series for BESQ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

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

    def index(self, u: float) -> int:
        """Position of the atom within ``MERGE_TOL`` of u."""
        for k, (r, _) in enumerate(self.atoms):
            if abs(r - u) <= MERGE_TOL:
                return k
        raise DomainError(f"{u} is not in the support of the configuration")

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
    u = xi.support()[xi.index(u)]
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for r in xi.support():
        if r == u:
            continue
        out = out * (z - r) / (u - r)
    return complex(out) if out.ndim == 0 else out


@lru_cache(maxsize=256)
def phi_coeffs(xi: PointConfiguration) -> np.ndarray:
    """The Hermite cardinal basis of xi, shape (N, N), N = total(xi), read-only:
    columns follow ``xi.points()``, the i-th copy of the atom u holding the
    monomial coefficients (ascending) of B_{u,i}; Phi_xi^{u_k} for simple xi.

    Newton-form expansion of the interpolation data over the points, then
    conversion to monomials, for every column at once; this keeps rounding
    in check for a few dozen nodes where naive product expansion would not.
    A divided difference over coinciding nodes is the datum of that level.
    """
    nodes = np.array(xi.points(), dtype=float)
    n = len(nodes)
    # the datum of (atom, level) is the unit vector of column first + level
    first = np.searchsorted(nodes, nodes)
    eye = np.eye(n)
    dd = eye[first]
    for level in range(1, n):
        step = nodes[level:] - nodes[: n - level]
        same = step == 0.0
        dd[level:] = (dd[level:] - dd[level - 1 : -1]) / np.where(same, 1.0, step)[:, None]
        # in-place top-down update keeps dd[k] = f[x_{k-level} .. x_k]
        dd[level:][same] = eye[first[level:][same] + level]
    # Horner conversion: p(z) = dd[n-1]; p = p*(z - x_k) + dd[k]
    coeffs = np.zeros((n, n))
    coeffs[0] = dd[n - 1]
    for k in range(n - 2, -1, -1):
        coeffs[1 : n - k] = coeffs[0 : n - k - 1]
        coeffs[0] = 0.0
        coeffs[0 : n - k - 1] -= nodes[k] * coeffs[1 : n - k]
        coeffs[0] += dd[k]
    coeffs.setflags(write=False)
    return coeffs


def _require_simple(xi: PointConfiguration):
    if not xi.simple():
        raise DomainError("operation requires a simple configuration")


# --------------------------------------------------------------------------
# Two-time Phi as a finite Taylor residue
# --------------------------------------------------------------------------


def ratio_taylor(process: ProcessKind, xi: PointConfiguration, s: float, x):
    """The density ratio's Taylor coefficient of every column of ``phi_coeffs``:
    the column of the i-th copy of the atom u gets the coefficient of w^i in
    R(u + w) = p(s, x | u + w) / p(s, x | u); shape x.shape + (total(xi),).
    """
    if s <= 0:
        raise DomainError("phi_twotime requires s > 0")
    nodes = np.array(xi.points(), dtype=float)
    level = np.arange(len(nodes)) - np.searchsorted(nodes, nodes)
    j = np.arange(level.max() + 1)
    fact = np.array([math.factorial(k) for k in j], dtype=float)
    x = np.asarray(x, dtype=float)[..., None]
    # coefficient j of every column on the last axis, shape x.shape + (N, j)
    if process.tag == "BM":
        # e^{2ab - b^2} = sum_j H_j(a) b^j / j!, b = w / sqrt(2s)
        a = (x - nodes) / math.sqrt(2.0 * s)
        herm = np.stack([specfun.hermite(k, a) for k in j], axis=-1)
        coef = herm / (fact * (2.0 * s) ** (j / 2.0))
    elif process.tag == "BESQ":
        # e^{-w/2s} e_nu(q0 + x w / 4s^2) / e_nu(q0), and e_nu' = e_{nu+1}
        scale = 4.0 * s * s
        q0 = x * nodes / scale
        ser = np.stack(
            [specfun.entire_bessel_series(process.nu + k, q0) for k in j], axis=-1
        )
        ser = ser / ser[..., :1] * (x[..., None] / scale) ** j / fact
        decay = (-1.0 / (2.0 * s)) ** j / fact
        coef = np.zeros_like(ser)
        for k in j:
            coef[..., k:] += decay[k] * ser[..., : len(j) - k]
    else:
        raise DomainError("two-time Phi supports BM and BESQ only")
    return coef[..., np.arange(len(nodes)), level]


def phi_twotime(
    process: ProcessKind, xi: PointConfiguration, u: float, s: float, x: float, z
) -> complex:
    """Phi((s, x); z) = Res_{zeta = u} R(zeta) / (z - zeta)
    prod_r ((z - r) / (zeta - r))^{m_r}, R = p(s, x | zeta) / p(s, x | u)."""
    coeffs = phi_twotime_coeffs(process, xi, s, x)[:, xi.index(u)]
    return complex(np.polyval(coeffs[::-1], complex(z)))


def phi_twotime_coeffs(
    process: ProcessKind, xi: PointConfiguration, s: float, x: float
) -> np.ndarray:
    """Two-time Phi of every atom: column k holds the monomial coefficients
    (ascending) of z -> Phi((s, x); z) at the k-th atom u; shape
    (total(xi), number of atoms).

    The residue is the Hermite interpolant of R at u and of 0 at the other
    atoms, so Phi = sum_{i < m_u} r_i B_{u,i} with r = ``ratio_taylor`` and
    B = ``phi_coeffs``.
    """
    starts = np.cumsum([0] + [m for _, m in xi.atoms[:-1]])
    return np.add.reduceat(phi_coeffs(xi) * ratio_taylor(process, xi, s, x), starts, axis=1)


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
    real floating dtype is kept (longdouble stays longdouble), a complex one
    refused, anything else made float.  A zero pivot (singular) gives 0.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise DomainError("stacked_det takes real matrices")
    if a.dtype.kind != "f":
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
        # it (NaN aside): only a strictly larger magnitude moves the pivot
        best = np.abs(a[col, col])
        pivot = np.zeros(m, dtype=np.intp)
        for row in range(col + 1, n):
            mag = np.abs(a[row, col])
            more = mag > best
            best = np.where(more, mag, best)
            pivot = np.where(more, row - col, pivot)
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


def det_phi_identity_check(xi: PointConfiguration | np.ndarray, x):
    """Compare h(x)/h(u) with det[Phi_xi^{u_k}(x_j)]: (lhs, rhs, |lhs - rhs|).

    ``xi`` is a simple configuration (floats out) or distinct support points
    u of shape (..., N) (arrays (...) out); ``x`` has the shape of u.  The
    work is in extended precision: close points make the cardinal matrix
    large and its det small, and double cannot certify 1e-10 there.
    """
    if isinstance(xi, PointConfiguration):
        _require_simple(xi)
        xi = xi.support()
    ul = np.asarray(xi, dtype=np.longdouble)
    xl = np.asarray(x, dtype=np.longdouble)
    if xl.shape != ul.shape or (np.diff(np.sort(ul), axis=-1) == 0).any():
        raise DomainError("the query needs the shape of u, and u distinct points")
    lhs = (vandermonde(xl) / vandermonde(ul)).astype(float)
    # mat[..., j, k] = prod_{r != k} (x_j - u_r) / (u_k - u_r), a product in
    # the order of r with the factor r = k set to 1
    off = ~np.eye(ul.shape[-1], dtype=bool)
    den = np.where(off, ul[..., :, None] - ul[..., None, :], 1.0)
    ratio = (xl[..., :, None, None] - ul[..., None, None, :]) / den[..., None, :, :]
    mat = np.where(off, ratio, 1.0).prod(axis=-1)
    rhs = stacked_det(mat).astype(float)[()]
    return lhs, rhs, np.abs(lhs - rhs)
