"""Polynomial martingales and the martingale maps built from configurations.

For each process the monic polynomials m_n(t, x) with m_n(0, x) = x^n that
are (local) martingales along the process:

    BM    m_n(t,x) = (t/2)^{n/2} H_n(x / sqrt(2t))
    BESQ  m_n(t,x) = (-1)^n n! (2t)^n L_n^{(nu)}(x / 2t)
    RW    Fujita's polynomials, generated by e^{a x} / (cosh a)^t

The martingale map of a simple configuration xi at support point u is
M_xi^u(t, y) = sum_l c_l m_l(t, y) with c the monomial coefficients of the
cardinal polynomial Phi_xi^u; a two-time variant covers configurations
with multiple points through the residue polynomial of ``configurations``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import configurations as cfg
from . import quadrature, specfun
from .errors import DomainError
from .processes import ProcessKind

__all__ = [
    "MartingaleTransform",
    "poly_coeffs",
    "poly_martingale",
    "poly_values",
    "generating_function",
    "martingale_transform",
    "martingale_transform_twotime",
    "sample_ctime",
    "bes_q_factor",
    "bes_transform_monomial",
    "lattice_martingale",
    "besselzero_martingale",
]

_MAX_DEGREE = 64


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
        sech_pow = specfun.cosh_neg_power_series(int(t), n).coeffs
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


def generating_function(process: ProcessKind, alpha: complex, t: float, x: float):
    """Closed-form martingale generating function G_alpha(t, x)."""
    if process.tag == "BM":
        return cmath.exp(alpha * x - t * alpha * alpha / 2.0)
    if process.tag == "BESQ":
        den = 1.0 + 2.0 * t * alpha
        if abs(den) < 1e-14:
            raise DomainError("generating function singular at 1 + 2 t alpha = 0")
        return cmath.exp(alpha * x / den) / den ** (process.nu + 1.0)
    if process.tag == "RW":
        if t < 0 or t != int(t):
            raise DomainError("RW generating function needs integer t >= 0")
        return cmath.exp(alpha * x) / cmath.cosh(alpha) ** int(t)
    raise DomainError(f"no generating function for {process}")


# --------------------------------------------------------------------------
# Martingale maps
# --------------------------------------------------------------------------


def _transform_quadrature(process, xi, u, t, y, order=64):
    if process.tag == "BM":
        nodes, weights = quadrature.gauss_hermite(order)
        zpts = np.asarray(y, dtype=complex)[..., None] + 1j * math.sqrt(2.0 * t) * nodes
        vals = cfg.phi_simple(xi, u, zpts)
        return np.real(vals @ weights) / math.sqrt(math.pi)
    if process.tag == "BESQ":
        nu = process.nu
        nodes, weights = quadrature.gauss_laguerre_general(nu, order)
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
        co = cfg.phi_coeffs(xi, u)
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
    co = cfg.phi_twotime_coeffs(process, xi, u, s, x)
    vals = poly_values(process, len(co) - 1, t, y)
    out = vals @ co
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class MartingaleTransform:
    """Bound evaluator for M_xi^u of one process and configuration."""

    process: ProcessKind
    xi: cfg.PointConfiguration
    u: float
    route: str = "coefficient"

    def evaluate(self, t: float, y):
        return martingale_transform(self.process, self.xi, self.u, t, y, self.route)

    def evaluate_twotime(self, s: float, x: float, t: float, y):
        return martingale_transform_twotime(
            self.process, self.xi, self.u, s, x, t, y
        )


# --------------------------------------------------------------------------
# The random time change C(t) for the walk's complex companion
# --------------------------------------------------------------------------


# Devroye's sampler for J*(1) at z = 0: the density is split at _PG_TRUNC
# into an exponential piece (right) and a truncated Levy piece (left), with
# branch masses p and q.
_PG_TRUNC = 0.64
_PG_K = math.pi**2 / 8.0
_PG_P = (math.pi / (2.0 * _PG_K)) * math.exp(-_PG_K * _PG_TRUNC)
_PG_Q = 2.0 * math.erfc(1.0 / math.sqrt(2.0 * _PG_TRUNC))
_PG_EXP_MASS = _PG_P / (_PG_P + _PG_Q)


def _jstar_coeff(n: int, x: np.ndarray) -> np.ndarray:
    """Term a_n(x) of the alternating series for the J*(1) density."""
    k = math.pi * (n + 0.5)
    left = k * (2.0 / (math.pi * x)) ** 1.5 * np.exp(-2.0 * (n + 0.5) ** 2 / x)
    right = k * np.exp(-0.5 * k * k * x)
    return np.where(x <= _PG_TRUNC, left, right)


def _truncated_levy(rng, n: int) -> np.ndarray:
    """n draws of the Levy law x^{-3/2} e^{-1/(2x)} conditioned on x < _PG_TRUNC.

    1/sqrt(X) is a normal tail beyond 1/sqrt(_PG_TRUNC), drawn by the
    exponential-proposal rejection method.
    """
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        e1 = rng.standard_exponential(todo.size)
        e2 = rng.standard_exponential(todo.size)
        ok = e1 * e1 <= 2.0 * e2 / _PG_TRUNC
        out[todo[ok]] = _PG_TRUNC / (1.0 + _PG_TRUNC * e1[ok]) ** 2
        todo = todo[~ok]
    return out


def _sample_jstar1(rng, n: int) -> np.ndarray:
    """n exact draws of J*(1), with E e^{-lam J*(1)} = 1 / cosh(sqrt(2 lam)).

    Devroye's alternating-series method (Devroye, Stat. Probab. Lett. 2009;
    Polson, Scott and Windle, JASA 2013): every proposal and every series
    step runs as one masked pass over the samples still undecided.
    """
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        m = todo.size
        x = np.empty(m)
        expo = rng.random(m) < _PG_EXP_MASS
        n_expo = int(expo.sum())
        x[expo] = _PG_TRUNC + rng.standard_exponential(n_expo) / _PG_K
        x[~expo] = _truncated_levy(rng, m - n_expo)
        s = _jstar_coeff(0, x)
        y = rng.random(m) * s
        accept = np.zeros(m, dtype=bool)
        live = np.arange(m)
        k = 0
        while live.size:
            k += 1
            a = _jstar_coeff(k, x[live])
            if k % 2:
                s[live] -= a
                hit = y[live] <= s[live]
                accept[live[hit]] = True
                live = live[~hit]
            else:
                s[live] += a
                live = live[y[live] <= s[live]]
        out[todo[accept]] = x[accept]
        todo = todo[~accept]
    return out


def sample_ctime(t: float, rng, size=None):
    """Exact samples of C(t), with E e^{-lam C(t)} = cosh(sqrt(2 lam))^{-t}.

    C(t) = 4 PG(t, 0) is the sum of t iid J*(1) variables for a positive
    integer t, each drawn exactly by Devroye's method; no series is
    truncated.  Every draw comes from ``rng``, so the output is a function
    of the generator state alone.
    """
    if not (float(t).is_integer() and t >= 1):
        raise DomainError("sample_ctime requires a positive integer t")
    shape = () if size is None else tuple(np.atleast_1d(size))
    draws = _sample_jstar1(rng, int(t) * math.prod(shape))
    out = draws.reshape((int(t),) + shape).sum(axis=0)
    return float(out) if size is None else out


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


def bes_transform_monomial(n: int, ell: int, t: float, x: float) -> float:
    """Closed form of the Bessel(n + 1/2) transform of the monomial (iW)^{2 ell}.

    Hermite-sum expression; equals the direct integral against the
    sign-flipped Bessel kernel density.
    """
    if n < 0 or ell < 0:
        raise DomainError("bes_transform_monomial requires n, ell >= 0")
    if t <= 0 or x <= 0:
        raise DomainError("bes_transform_monomial requires t > 0 and x > 0")
    h = x / math.sqrt(2.0 * t)
    acc = 0.0
    for k in range(n + 1):
        acc += (
            math.factorial(2 * n - k)
            / (math.factorial(n - k) * math.factorial(k))
            * (2.0 * h) ** k
            * specfun.hermite(2 * ell + k + 1, h)
        )
    return (t / 2.0) ** ell * h ** (-(2 * n + 1)) * acc / 2.0 ** (2 * n + 1)


# --------------------------------------------------------------------------
# Martingales of the two canonical infinite configurations
# --------------------------------------------------------------------------


def lattice_martingale(k: int, t: float, x: float, tol: float = 1e-10) -> float:
    """Integral-transform martingale of the full integer lattice at site k.

    (1/pi) int_0^pi exp(t L^2 / 2) cos(L (x - k)) dL.  At t = 0 this is
    sin(pi (x - k)) / (pi (x - k)).
    """
    m = x - k

    def f(lam):
        return np.exp(t * lam * lam / 2.0) * np.cos(lam * m)

    val = quadrature.adaptive_gauss_legendre(f, 0.0, math.pi, tol)
    return val / math.pi


def besselzero_martingale(
    nu: float,
    k: int,
    t: float,
    x: float,
    table: specfun.BesselZeroTable | None = None,
    tol: float = 1e-10,
) -> float:
    """Martingale of the squared-Bessel-zero configuration at the k-th zero.

    (j^2/x)^{nu/2} / J_{nu+1}(j)^2 int_0^1 e^{L t / 2}
    J_nu(sqrt(L x)) J_nu(sqrt(L) j) dL with j = j_{nu,k}; the x^{nu/2}
    singularity is folded into an entire series so x = 0 is allowed.
    """
    if table is None:
        table = specfun.bessel_zeros(nu, k)
    if len(table.zeros) < k or table.nu != nu:
        raise DomainError("zero table does not cover the requested index")
    j = table.zeros[k - 1]
    jn1 = specfun.bessel_j(nu + 1.0, j)

    # substitute L = mu^2; (j^2/x)^{nu/2} J_nu(mu sqrt(x)) =
    # j^nu (mu/2)^nu e_nu(-mu^2 x / 4)
    def f(mu):
        ent = specfun.entire_bessel_series(nu, -(mu * mu) * x / 4.0)
        jv = specfun.bessel_j(nu, mu * j)
        return (
            2.0
            * mu
            * np.exp(mu * mu * t / 2.0)
            * j**nu
            * (mu / 2.0) ** nu
            * ent
            * jv
        )

    val = quadrature.adaptive_gauss_legendre(f, 0.0, 1.0, tol)
    return val / (jn1 * jn1)
