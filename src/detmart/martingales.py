"""Polynomial martingales and the martingale maps built from configurations.

For each process the monic polynomials m_n(t, x) with m_n(0, x) = x^n that
are (local) martingales along the process:

    BM    m_n(t,x) = (t/2)^{n/2} H_n(x / sqrt(2t))
    BESQ  m_n(t,x) = (-1)^n n! (2t)^n L_n^{(nu)}(x / 2t)
    RW    Fujita's polynomials, generated by e^{a x} / (cosh a)^t

The martingale map of a simple configuration xi at support point u is
M_xi^u(t, y) = sum_l c_l m_l(t, y) with c the column of u in the cardinal
basis of xi (``configurations.phi_coeffs``); a two-time variant covers
configurations with multiple points through the residue polynomials
``configurations.phi_twotime_coeffs`` built on the same basis.
"""

from __future__ import annotations

import math

import numpy as np

from . import configurations as cfg
from . import quadrature, specfun
from .errors import DomainError
from .processes import ProcessKind

__all__ = [
    "poly_coeffs",
    "poly_martingale",
    "poly_values",
    "martingale_transform",
    "martingale_transform_twotime",
    "bes_q_factor",
]

_MAX_DEGREE = 64

# node count of the quadrature route of martingale_transform
_TRANSFORM_ORDER = 64


def poly_coeffs(process: ProcessKind, n: int, t: float) -> np.ndarray:
    """Ascending monomial coefficients of m_n(t, .); length n + 1, monic."""
    if n < 0 or n > _MAX_DEGREE:
        raise DomainError(f"poly_coeffs supports 0 <= n <= {_MAX_DEGREE}")
    if t < 0:
        raise DomainError("poly_coeffs requires t >= 0")
    out = np.zeros(n + 1)
    if process.tag == "BM":
        # sum_j (-1)^j n! / (j! (n-2j)!) (t/2)^j x^{n-2j}
        term = 1.0
        for j in range(n // 2 + 1):
            out[n - 2 * j] = term
            term *= -(t / 2.0) * (n - 2 * j) * (n - 2 * j - 1) / (j + 1.0)
        return out
    if process.tag == "BESQ":
        nu = process.nu
        # sum_k (-1)^k n! G(n+nu+1) / (G(nu+n-k+1) (n-k)! k!) (2t)^k x^{n-k}
        term = 1.0
        for k in range(n + 1):
            out[n - k] = term
            term *= -(2.0 * t) * (n - k) * (nu + n - k) / (k + 1.0)
        return out
    if process.tag == "RW":
        if t != int(t):
            raise DomainError("RW polynomial martingales need integer t")
        sech_pow = specfun.cosh_neg_power_series(int(t), n)
        nfact = math.factorial(n)
        for k in range(n + 1):
            out[k] = nfact * sech_pow[n - k] / math.factorial(k)
        return out
    raise DomainError(f"no polynomial martingales for {process}")


def poly_martingale(process: ProcessKind, n: int, t: float, x):
    """m_n(t, x); vectorized over x."""
    co = poly_coeffs(process, n, t)
    out = np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), co)
    return float(out) if np.ndim(out) == 0 else out


def poly_values(process: ProcessKind, max_degree: int, t: float, x) -> np.ndarray:
    """Stack m_0 .. m_{max_degree} at x: shape x.shape + (max_degree + 1,);
    a floating x keeps its dtype (longdouble evaluates in extended precision)."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(float)
    out = np.empty(x.shape + (max_degree + 1,), dtype=x.dtype)
    for n in range(max_degree + 1):
        out[..., n] = np.polynomial.polynomial.polyval(
            x, poly_coeffs(process, n, t)
        )
    return out


# --------------------------------------------------------------------------
# Martingale maps
# --------------------------------------------------------------------------


def _transform_quadrature(process, xi, u, t, y):
    if process.tag == "BM":
        nodes, weights = quadrature.gauss_hermite(_TRANSFORM_ORDER)
        zpts = np.asarray(y, dtype=complex)[..., None] + 1j * math.sqrt(2.0 * t) * nodes
        vals = cfg.phi_simple(xi, u, zpts)
        return np.real(vals @ weights) / math.sqrt(math.pi)
    if process.tag == "BESQ":
        nu = process.nu
        nodes, weights = quadrature.gauss_laguerre_general(nu, _TRANSFORM_ORDER)
        y = np.asarray(y, dtype=float)
        ent = specfun.entire_bessel_series(
            nu, -(nodes[None, :] * np.atleast_1d(y)[:, None]) / (2.0 * t)
        )
        phi = cfg.phi_simple(xi, u, (-2.0 * t * nodes).astype(complex)).real
        acc = (ent * phi[None, :]) @ weights
        out = np.exp(np.atleast_1d(y) / (2.0 * t)) * acc
        return out.reshape(np.shape(y)) if np.ndim(y) else float(out[0])
    raise DomainError(f"quadrature route unavailable for {process}")


def martingale_transform(
    process: ProcessKind,
    xi: cfg.PointConfiguration,
    u: float,
    t: float,
    y,
    route: str = "coefficient",
):
    """M_xi^u(t, y) for a simple configuration; vectorized over y.

    The coefficient route is exact up to rounding; the quadrature route
    (BM: Gauss-Hermite on the vertical line, BESQ: generalized
    Gauss-Laguerre) exists as an independent cross-check.
    """
    if not xi.simple():
        raise DomainError("martingale_transform needs a simple configuration; "
                          "use martingale_transform_twotime for multiple points")
    if t < 0:
        raise DomainError("martingale_transform requires t >= 0")
    if route == "coefficient":
        # the column of u as a contiguous copy: a strided dot rounds otherwise
        co = np.ascontiguousarray(cfg.phi_coeffs(xi)[:, xi.index(u)])
        vals = poly_values(process, len(co) - 1, t, y)
        out = vals @ co
        return float(out) if np.ndim(out) == 0 else out
    if route == "quadrature":
        if t == 0:
            raise DomainError("quadrature route needs t > 0")
        out = _transform_quadrature(process, xi, u, t, y)
        return float(out) if np.ndim(out) == 0 else out
    raise DomainError(f"unknown route {route!r}")


def martingale_transform_twotime(
    process: ProcessKind,
    xi: cfg.PointConfiguration,
    u: float,
    s: float,
    x: float,
    t: float,
    y,
):
    """M_xi^u((s, x) | (t, y)): two-time map valid for multiple points.

    Coefficients of the residue polynomial in z are extracted once per
    (s, x) and contracted with the polynomial martingales at (t, y).
    """
    if s <= 0:
        raise DomainError("two-time transform requires s > 0")
    if t < 0:
        raise DomainError("two-time transform requires t >= 0")
    basis = cfg.phi_twotime_coeffs(process, xi, float(s), float(x))
    co = np.ascontiguousarray(basis[:, xi.index(u)])  # a strided dot rounds otherwise
    vals = poly_values(process, len(co) - 1, t, y)
    out = vals @ co
    return float(out) if np.ndim(out) == 0 else out


# --------------------------------------------------------------------------
# Bessel-process martingale pieces (half-odd index)
# --------------------------------------------------------------------------


def bes_q_factor(n: int, t: float, z):
    """Weight Q_t^{(n+1/2)}(z) of the Bessel-process complex representation.

    (t/2)^n z / (Re z)^{2n+1} * sum_k (2n-k)!/((n-k)! k!) (2 Re z * z / t)^k;
    vectorized over z, a complex for a scalar z.
    """
    if n < 0:
        raise DomainError("bes_q_factor requires n >= 0")
    if t <= 0:
        raise DomainError("bes_q_factor requires t > 0")
    z = np.asarray(z, dtype=complex)
    if (z.real == 0.0).any():
        raise DomainError("bes_q_factor undefined on the imaginary axis")
    acc = np.zeros_like(z)
    base = 2.0 * z.real * z / t
    for k in range(n + 1):
        acc += (
            math.factorial(2 * n - k)
            / (math.factorial(n - k) * math.factorial(k))
            * base**k
        )
    out = (t / 2.0) ** n * z / z.real ** (2 * n + 1) * acc
    return complex(out) if out.ndim == 0 else out
