"""Point configurations xi and the interpolation polynomials Phi built on them.

A configuration is a finite multiset of real locations.  For a simple
configuration (all multiplicities one) the polynomial

    Phi_xi^u(z) = prod_{r in supp xi, r != u} (z - r) / (u - r)

is the Lagrange cardinal polynomial of the support at node u.  For
configurations with multiple points the same object is produced by a
residue: a contour integral of a transition-density-weighted rational
function around u, which this module evaluates by trapezoid quadrature on
a circle (spectrally accurate for the analytic integrand).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import specfun
from .errors import DomainError, NumericError
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

    def shift(self, u: float) -> "PointConfiguration":
        return PointConfiguration(tuple((loc + u, m) for loc, m in self.atoms))

    def dilate(self, c: float) -> "PointConfiguration":
        if c <= 0:
            raise DomainError("dilate requires c > 0")
        return PointConfiguration(tuple((c * loc, m) for loc, m in self.atoms))

    def square(self) -> "PointConfiguration":
        return PointConfiguration(tuple((loc * loc, m) for loc, m in self.atoms))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {"atoms": [[loc, m] for loc, m in self.atoms]}

    @classmethod
    def from_dict(cls, d: dict) -> "PointConfiguration":
        try:
            atoms = tuple((float(a[0]), int(a[1])) for a in d["atoms"])
        except (KeyError, TypeError, IndexError) as exc:
            raise DomainError(f"bad configuration payload: {exc}") from exc
        return cls(atoms)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PointConfiguration":
        return cls.from_dict(json.loads(text))


def _normalize_atoms(raw) -> tuple:
    items = sorted((float(loc), int(m)) for loc, m in raw)
    for _, m in items:
        if m < 1:
            raise DomainError("multiplicities must be >= 1")
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

    ``x`` has shape (..., N); a floating dtype is kept (longdouble stays
    longdouble), anything else becomes float.  A 1-D float input gives a
    Python float.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
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
# Two-time Phi by residue quadrature
# --------------------------------------------------------------------------


def _density_ratio(process: ProcessKind, s: float, x: float, zeta, u: float):
    """p(s, x | zeta) / p(s, x | u) continued to complex zeta."""
    zeta = np.asarray(zeta, dtype=complex)
    if process.tag == "BM":
        return np.exp((-((x - zeta) ** 2) + (x - u) ** 2) / (2.0 * s))
    if process.tag == "BESQ":
        nu = process.nu
        scale = 4.0 * s * s
        num = specfun.entire_bessel_series(nu, x * zeta / scale)
        den = specfun.entire_bessel_series(nu, np.asarray(x * u / scale))
        return np.exp(-(zeta - u) / (2.0 * s)) * num / den
    raise DomainError("two-time Phi supports BM and BESQ only")


def phi_twotime(
    process: ProcessKind,
    xi: PointConfiguration,
    u: float,
    s: float,
    x: float,
    z,
    quad_start: int = 64,
    quad_max: int = 1024,
) -> complex:
    """Residue at u of the two-time Phi integrand, by contour quadrature.

    The contour is a circle around u of radius min(half the gap to the
    nearest other support point, 1), shrunk further to stay clear of the
    evaluation point z.  The node count doubles from ``quad_start`` until
    two successive values agree to 1e-10.
    """
    if s <= 0:
        raise DomainError("phi_twotime requires s > 0")
    u = _locate(xi, u)
    z = complex(z)
    if abs(z - u) <= 1e-9:
        # the residue degenerates when z sits on u itself; recover the
        # polynomial value by interpolation through generic nodes
        coeffs = phi_twotime_coeffs(process, xi, u, s, x, quad_start, quad_max)
        return complex(np.polynomial.polynomial.polyval(z, coeffs))
    others = [r for r, _ in xi.atoms if r != u]
    radius = 1.0
    if others:
        radius = min(radius, 0.5 * min(abs(r - u) for r in others))
    radius = min(radius, 0.5 * abs(z - u))
    radius = max(radius, 1e-6)

    def contour_value(k: int) -> complex:
        theta = 2.0 * math.pi * np.arange(k) / k
        ring = radius * np.exp(1j * theta)
        zeta = u + ring
        vals = _density_ratio(process, s, x, zeta, u) / (z - zeta)
        for r, m in xi.atoms:
            vals = vals * ((z - r) / (zeta - r)) ** m
        return complex(np.mean(vals * ring))

    prev = contour_value(quad_start)
    k = quad_start
    while k < quad_max:
        k *= 2
        cur = contour_value(k)
        if abs(cur - prev) <= 1e-10 * max(1.0, abs(cur)):
            return cur
        prev = cur
    cur = contour_value(quad_max)
    if abs(cur - prev) > 1e-8 * max(1.0, abs(cur)):
        raise NumericError("contour quadrature for two-time Phi did not settle")
    return cur


def phi_twotime_coeffs(
    process: ProcessKind,
    xi: PointConfiguration,
    u: float,
    s: float,
    x: float,
    quad_start: int = 64,
    quad_max: int = 1024,
) -> np.ndarray:
    """Monomial coefficients (ascending, length total(xi)) of z -> Phi((s,x); z).

    The polynomial has degree at most total(xi) - 1; it is recovered from
    values at Chebyshev nodes scaled by (1 + max |support|), skipping nodes
    that fall on the support where the residue formula degenerates.
    """
    u = _locate(xi, u)
    d = xi.total()
    scale = 1.0 + max(abs(r) for r in xi.support())
    nodes = []
    m = 2 * d + 3
    cheb = scale * np.cos((2 * np.arange(m) + 1) * math.pi / (2 * m))
    for node in cheb:
        if all(abs(node - r) > 1e-6 for r in xi.support()):
            nodes.append(float(node))
        if len(nodes) == d:
            break
    if len(nodes) < d:
        raise NumericError("could not place interpolation nodes off the support")
    vals = np.array(
        [
            phi_twotime(process, xi, u, s, x, z, quad_start, quad_max)
            for z in nodes
        ]
    )
    vmat = np.vander(np.array(nodes), N=d, increasing=True)
    coeffs = np.linalg.solve(vmat, vals)
    if np.max(np.abs(coeffs.imag)) > 1e-7 * max(1.0, float(np.max(np.abs(coeffs)))):
        raise NumericError("two-time Phi coefficients are not numerically real")
    return coeffs.real


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
    table = specfun.bessel_zeros(nu, count)
    return PointConfiguration.from_points(z * z for z in table.zeros)


# --------------------------------------------------------------------------
# Determinant identity
# --------------------------------------------------------------------------


def _det_lu_longdouble(mat: np.ndarray) -> float:
    """Determinant by partial-pivoted elimination in extended precision."""
    a = mat.astype(np.longdouble).copy()
    n = a.shape[0]
    det = np.longdouble(1.0)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            return 0.0
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            det = -det
        det *= a[col, col]
        for row in range(col + 1, n):
            a[row, col:] -= (a[row, col] / a[col, col]) * a[col, col:]
    return float(det)


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
    mat = np.empty((n, n), dtype=np.longdouble)
    for k in range(n):
        col = np.ones(n, dtype=np.longdouble)
        for r in range(n):
            if r != k:
                col *= (xl - ul[r]) / (ul[k] - ul[r])
        mat[:, k] = col
    rhs = _det_lu_longdouble(mat)
    return lhs, rhs, abs(lhs - rhs)
