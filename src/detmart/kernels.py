"""Space-time correlation kernels and correlation-function determinants.

The defining structure: for a finite configuration xi,

    K(s, x; t, y) = sum_v xi({v}) p(s, x | v) M_xi^v(t, y)
                    - 1(s > t) p(s - t, x | y),

and every multi-time correlation function is a block determinant of K.
The module also carries the closed-form extended kernels (Hermite,
Laguerre, sine, Bessel) and kernels of the two canonical infinite
configurations (full integer lattice, squared Bessel zeros), the latter
evaluated by an exact image resummation: the naive site sum is a
difference of terms of size exp(pi^2 (t + tau) / 2) with an O(1) result,
hopeless in double precision already for tau around 4.

``kernel_eval_grid`` is the one evaluation path: the matrix of K over
xs x ys at one time pair, computed natively for every variant
(``kernel_eval`` is its single cell).  The closed forms broadcast over x
and y; the sine and Bessel integrals share one adaptive panel tree per
grid.  ``correlation`` and the Fredholm series assemble one grid block per
pair of times (``_block_matrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import configurations as cfg
from . import martingales as mart
from . import quadrature, specfun
from .errors import DomainError, NumericError
from .processes import ProcessKind, bm, besq, check_starts, check_times, rw

__all__ = [
    "VARIANTS",
    "CorrelationKernel",
    "SpaceTimeQuery",
    "general_kernel",
    "rw_kernel",
    "multipoint_kernel",
    "extended_hermite_kernel",
    "extended_laguerre_kernel",
    "sine_kernel",
    "bessel_kernel",
    "kernel_eval",
    "kernel_eval_grid",
    "kernel_extended_hermite",
    "kernel_extended_laguerre",
    "laguerre_gauge",
    "kernel_sine",
    "kernel_bessel",
    "correlation",
    "gue_density",
    "lattice_kernel",
    "besselzero_kernel_half",
    "relaxation_probe",
    "QUADRATURE_TOL",
]

# absolute tolerance of the adaptive quadrature behind the sine and Bessel
# kernels; the image sums of the lattice and Bessel-zero kernels integrate
# all images as one vector-valued integrand, each image to _IMAGE_TOL
QUADRATURE_TOL = 1e-10
_IMAGE_TOL = 1e-11

VARIANTS = (
    "general",
    "rw",
    "multipoint",
    "extended_hermite",
    "extended_laguerre",
    "sine",
    "bessel",
)


@dataclass(frozen=True)
class CorrelationKernel:
    variant: str
    process: ProcessKind | None = None
    xi: cfg.PointConfiguration | None = None
    size: int | None = None
    nu: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown kernel variant {self.variant!r}")


def general_kernel(process: ProcessKind, xi: cfg.PointConfiguration) -> CorrelationKernel:
    if process.tag == "RW":
        return rw_kernel(xi)
    if not xi.simple():
        raise DomainError("general kernel needs a simple configuration")
    return CorrelationKernel("general", process=process, xi=xi)


def rw_kernel(xi: cfg.PointConfiguration) -> CorrelationKernel:
    if not xi.simple():
        raise DomainError("walk kernel needs a simple configuration")
    check_starts(rw(), xi.support(), representation=True)
    return CorrelationKernel("rw", process=rw(), xi=xi)


def multipoint_kernel(process: ProcessKind, xi: cfg.PointConfiguration) -> CorrelationKernel:
    if process.tag not in ("BM", "BESQ"):
        raise DomainError("multipoint kernel supports BM and BESQ")
    return CorrelationKernel("multipoint", process=process, xi=xi)


def extended_hermite_kernel(size: int) -> CorrelationKernel:
    return CorrelationKernel("extended_hermite", process=bm(), size=int(size))


def extended_laguerre_kernel(size: int, nu: float) -> CorrelationKernel:
    return CorrelationKernel(
        "extended_laguerre", process=besq(nu), size=int(size), nu=float(nu)
    )


def sine_kernel() -> CorrelationKernel:
    return CorrelationKernel("sine")


def bessel_kernel(nu: float) -> CorrelationKernel:
    return CorrelationKernel("bessel", nu=float(nu))


@dataclass(frozen=True)
class SpaceTimeQuery:
    """Strictly increasing positive times with per-time point lists."""

    times: tuple
    points: tuple  # tuple of tuples, one per time

    def __post_init__(self):
        ts = check_times(None, self.times)
        ps = tuple(tuple(float(x) for x in row) for row in self.points)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "points", ps)
        if len(ts) != len(ps):
            raise DomainError("times and point lists must align")
        if not all(math.isfinite(x) for row in ps for x in row):
            raise DomainError("query points must be finite")
        if any(t <= 0 for t in ts):
            raise DomainError("query times must be positive")
        if sum(len(row) for row in ps) > 64:
            raise DomainError("queries support at most 64 points in total")


# --------------------------------------------------------------------------
# Finite-configuration kernels
# --------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _phi_coeff_matrix(xi: cfg.PointConfiguration) -> np.ndarray:
    """Columns: monomial coefficients of Phi_xi^{u_k}; shape (N, N)."""
    sup = xi.support()
    n = len(sup)
    out = np.empty((n, n))
    for k, u in enumerate(sup):
        out[:, k] = cfg.phi_coeffs(xi, u)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=4096)
def _twotime_coeff_matrix(
    process: ProcessKind, xi: cfg.PointConfiguration, s: float, x: float
) -> np.ndarray:
    """Columns: coefficients of the two-time Phi for each support point."""
    sup = xi.support()
    d = xi.total()
    out = np.empty((d, len(sup)))
    for k, u in enumerate(sup):
        out[:, k] = cfg.phi_twotime_coeffs(process, xi, u, s, x)
    out.setflags(write=False)
    return out


def _rw_parity_ok(t: float, x: np.ndarray) -> np.ndarray:
    """Integer offsets x from a start that a walk reaches at time t: t + x even."""
    return (x == np.floor(x)) & ((t + x) % 2 == 0)


def kernel_eval(kern: CorrelationKernel, s: float, x: float, t: float, y: float) -> float:
    """Evaluate the kernel at (s, x; t, y): ``kernel_eval_grid`` at one cell."""
    return float(kernel_eval_grid(kern, s, x, t, y)[0, 0])


def kernel_eval_grid(
    kern: CorrelationKernel, s: float, xs: np.ndarray, t: float, ys: np.ndarray
) -> np.ndarray:
    """Matrix of kernel values over xs x ys at a fixed time pair."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    v = kern.variant
    if v == "rw":
        check_times(kern.process, (s,))
        check_times(kern.process, (t,))
    if xs.size == 0 or ys.size == 0:
        return np.zeros((xs.size, ys.size))
    x, y = xs[:, None], ys[None, :]
    if v == "extended_hermite":
        return kernel_extended_hermite(kern.size, s, x, t, y)
    if v == "extended_laguerre":
        return kernel_extended_laguerre(kern.size, kern.nu, s, x, t, y)
    if v == "sine":
        return kernel_sine(t - s, y - x)
    if v == "bessel":
        return kernel_bessel(kern.nu, t - s, y, x)
    # finite configurations: sum_u p(s, x | u) M^u(t, y), where M^u has
    # monomial coefficients cmat[:, k] (depending on (s, x) for multipoint)
    proc, xi = kern.process, kern.xi
    mask = None
    if v == "rw":
        # every start has the parity of the first
        u0 = xi.support()[0]
        mask = np.outer(_rw_parity_ok(s, xs - u0), _rw_parity_ok(t, ys - u0))
        if not mask.any():
            return np.zeros(mask.shape)
    pvals = specfun.transition_density(proc, s, xs[:, None], np.array(xi.support()))
    if v == "multipoint":
        cmat = np.stack(
            [_twotime_coeff_matrix(proc, xi, float(s), float(xv)) for xv in xs]
        )
    else:
        cmat = _phi_coeff_matrix(xi)
    mvals = mart.poly_values(proc, cmat.shape[-2] - 1, t, ys) @ cmat
    out = (mvals @ pvals[:, :, None])[..., 0]
    if s > t:
        out -= specfun.transition_density(proc, s - t, x, y)
    return out if mask is None else np.where(mask, out, 0.0)


# --------------------------------------------------------------------------
# Extended Hermite / Laguerre kernels
# --------------------------------------------------------------------------


def _scalar_or_array(a):
    a = np.asarray(a)
    return float(a) if a.ndim == 0 else a


def _require_rank(size: int, s: float, t: float, norm) -> None:
    """DomainError unless s, t > 0 and ``norm(size - 1)``, the normalisation
    constant of the largest term, is a finite float."""
    if s <= 0 or t <= 0:
        raise DomainError("extended kernels require s > 0 and t > 0")
    try:
        finite = size >= 1 and math.isfinite(norm(size - 1))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"rank {size} is out of range: it must be positive and the "
            "normalisation of its last term a finite float"
        )


def _hermite_norm(n: int) -> float:
    return math.sqrt(math.sqrt(math.pi) * 2.0**n * math.factorial(n))


def _hermite_fn(n: int, x):
    # orthonormal oscillator function
    return specfun.hermite(n, x) * np.exp(-x * x / 2.0) / _hermite_norm(n)


def kernel_extended_hermite(size: int, s: float, x, t: float, y):
    """Extended Hermite kernel of rank ``size``; broadcasts over x and y.

    The s > t subtraction uses the Mehler sum form, i.e. the heat kernel
    conjugated by the oscillator gauge; with that convention the
    concentrated-start kernel equals gauge times this one identically.
    """
    _require_rank(size, s, t, _hermite_norm)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xs, yt = x / math.sqrt(2.0 * s), y / math.sqrt(2.0 * t)
    ratio = math.sqrt(t / s)
    acc = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    for n in range(size):
        acc += ratio**n * _hermite_fn(n, xs) * _hermite_fn(n, yt)
    acc /= math.sqrt(2.0 * s)
    if s > t:
        gauge = np.exp(x * x / (4.0 * s) - y * y / (4.0 * t))
        acc -= gauge * specfun.transition_density(bm(), s - t, x, y)
    return _scalar_or_array(acc)


def _laguerre_norm(n: int, nu: float) -> float:
    return math.sqrt(math.gamma(n + 1.0) / math.gamma(n + nu + 1.0))


def _laguerre_fn(n: int, nu: float, x):
    return (
        _laguerre_norm(n, nu)
        * x ** (nu / 2.0)
        * specfun.laguerre(n, nu, x)
        * np.exp(-x / 2.0)
    )


def laguerre_gauge(nu: float, s: float, x, t: float, y):
    num = (x / (2.0 * s)) ** (nu / 2.0) * np.exp(-x / (4.0 * s))
    den = (y / (2.0 * t)) ** (nu / 2.0) * np.exp(-y / (4.0 * t))
    return num / den


def kernel_extended_laguerre(size: int, nu: float, s: float, x, t: float, y):
    """Extended Laguerre kernel of rank ``size`` and index nu; broadcasts
    over x and y.

    Same gauge convention as the Hermite variant, with the Hardy-Hille sum
    supplying the s > t subtraction.
    """
    _require_rank(size, s, t, lambda n: _laguerre_norm(n, nu))
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xs, yt = x / (2.0 * s), y / (2.0 * t)
    ratio = t / s
    acc = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    for n in range(size):
        acc += ratio**n * _laguerre_fn(n, nu, xs) * _laguerre_fn(n, nu, yt)
    acc /= 2.0 * s
    if s > t:
        acc -= specfun.transition_density(besq(nu), s - t, x, y) / laguerre_gauge(
            nu, s, x, t, y
        )
    return _scalar_or_array(acc)


# --------------------------------------------------------------------------
# Sine and Bessel kernels
# --------------------------------------------------------------------------


def kernel_sine(t: float, x):
    """Extended sine kernel K_sin(t, x); vectorized over x."""
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        return _scalar_or_array(np.sinc(x))

    def f(lam):
        return np.exp(math.pi**2 * lam * lam * t / 2.0) * np.cos(
            math.pi * lam * x[..., None]
        )

    if t > 0.0:
        return quadrature.adaptive_gauss_legendre(f, 0.0, 1.0, QUADRATURE_TOL)
    hi = 1.0 + math.sqrt(100.0 / (math.pi**2 * abs(t) / 2.0))
    return -quadrature.adaptive_gauss_legendre(f, 1.0, hi, QUADRATURE_TOL)


def kernel_bessel(nu: float, t: float, y, x):
    """Extended Bessel kernel K_J(t, y | x), nu > -1, x, y >= 0; broadcasts
    over x and y."""
    if nu <= -1.0:
        raise DomainError("kernel_bessel requires nu > -1")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if (x < 0).any() or (y < 0).any():
        raise DomainError("kernel_bessel requires x, y >= 0")
    sx, sy = np.sqrt(x), np.sqrt(y)
    if t == 0.0:
        diag = x == y
        if (diag & (x == 0.0)).any():
            raise DomainError("equal-time Bessel kernel undefined at the origin")
        jx, jy = specfun.bessel_j(nu, sx), specfun.bessel_j(nu, sy)
        # J' at a placeholder where the argument is 0: it enters times 0
        jdx = specfun.bessel_j_derivative(nu, np.where(x > 0.0, sx, 1.0))
        jdy = specfun.bessel_j_derivative(nu, np.where(y > 0.0, sy, 1.0))
        on = 0.25 * ((1.0 - nu * nu / np.where(x > 0.0, x, 1.0)) * jx * jx + jdx * jdx)
        off = (jx * sy * jdy - sx * jdx * jy) / (2.0 * np.where(diag, 1.0, x - y))
        return _scalar_or_array(np.where(diag, on, off))

    def f(lam):
        root = np.sqrt(lam)
        return (
            np.exp(lam * t / 2.0)
            * specfun.bessel_j(nu, root * sx[..., None])
            * specfun.bessel_j(nu, root * sy[..., None])
        )

    if t > 0.0:
        return 0.25 * quadrature.adaptive_gauss_legendre(f, 0.0, 1.0, QUADRATURE_TOL)
    hi = 1.0 + 100.0 / (abs(t) / 2.0)
    return -0.25 * quadrature.adaptive_gauss_legendre(f, 1.0, hi, QUADRATURE_TOL)


# --------------------------------------------------------------------------
# Correlation functions
# --------------------------------------------------------------------------


def correlation(kern: CorrelationKernel, query: SpaceTimeQuery) -> float:
    """Determinant of the block kernel matrix over the query points.

    One ``kernel_eval_grid`` block per pair of query times.  A walk query
    point that violates the time-space parity gives a zero row, hence 0.
    """
    if not any(query.points):
        return 1.0
    return float(np.linalg.det(_block_matrix(kern, query.times, query.points)))


def _block_matrix(kern: CorrelationKernel, times, points) -> np.ndarray:
    """K over the points of every time, stacked: block (m, n) is the
    ``kernel_eval_grid`` of (times[m], points[m]) against (times[n], points[n])."""
    pairs = list(zip(times, points))
    return np.block(
        [[kernel_eval_grid(kern, s, xs, t, ys) for t, ys in pairs] for s, xs in pairs]
    )


def gue_density(size: int, t: float, x) -> float:
    """Eigenvalue density of the Gaussian unitary ensemble, variance t."""
    if t <= 0:
        raise DomainError("gue_density requires t > 0")
    x = np.asarray(x, dtype=float)
    if len(x) != size:
        raise DomainError("point count must equal the ensemble size")
    norm = t ** (-size * size / 2.0) / (
        (2.0 * math.pi) ** (size / 2.0)
        * np.prod([math.gamma(j) for j in range(1, size + 1)])
    )
    h = cfg.vandermonde(x)
    return float(norm * math.exp(-float(x @ x) / (2.0 * t)) * h * h)


# --------------------------------------------------------------------------
# Infinite-configuration kernels by image resummation
# --------------------------------------------------------------------------


def _auto_images(s: float, unit: float) -> int:
    # image m contributes at most exp(-s * unit^2 (2m - 1)^2 / 2); pick the
    # count that pushes the first dropped image below 1e-18
    target = math.sqrt(2.0 * 88.0 / s) / unit
    return max(3, int(math.ceil((target + 1.0) / 2.0)) + 1)


def lattice_kernel(
    s: float, x: float, t: float, y: float, images: int | None = None
) -> float:
    """Kernel of the noncolliding motion started from the full lattice.

    Exact Poisson resummation of sum_k p(s, x | k) M^k(t, y): the image
    j = 0 reproduces the extended sine kernel in (t - s), the others decay
    with s; ``images`` bounds |j| and is sized automatically by default.
    """
    if images is None:
        images = _auto_images(s, 2.0 * math.pi)
    j = np.arange(-images, images + 1)[:, None]

    # image j: (1/2pi) int_{-pi}^{pi} exp((t l^2 - s (l + 2 pi j)^2) / 2)
    #                                 cos(l (y - x) - 2 pi j x) dl
    def f(lam):
        expo = 0.5 * (t * lam * lam - s * (lam + 2.0 * math.pi * j) ** 2)
        return np.exp(expo) * np.cos(lam * (y - x) - 2.0 * math.pi * j * x)

    terms = quadrature.adaptive_gauss_legendre(f, -math.pi, math.pi, _IMAGE_TOL)
    acc = float(np.sum(terms)) / (2.0 * math.pi)
    if s > t:
        acc -= specfun.transition_density(bm(), s - t, x, y)
    return acc


def besselzero_kernel_half(
    s: float, x: float, t: float, y: float, images: int | None = None
) -> float:
    """Kernel of the squared-Bessel-zero configuration at index 1/2.

    For nu = 1/2 the Fourier-Bessel sum over zeros (k pi)^2 collapses to a
    theta function; Poisson resummation gives images of the half-line heat
    kernel:

      sum part = (1/(pi sqrt(y))) sum_m int_0^1
                 exp(mu^2 t/2 - s (mu - 2m)^2 / 2)
                 sin(mu sqrt(y)) sin(sqrt(x) (mu - 2m)) d mu.
    """
    if x <= 0 or y <= 0:
        raise DomainError("positive coordinates required")
    if images is None:
        images = _auto_images(s, 1.0)
    sx, sy = math.sqrt(x), math.sqrt(y)
    m = np.arange(-images, images + 1)[:, None]

    def f(mu):
        shift = mu - 2.0 * m
        expo = 0.5 * (t * mu * mu - s * shift * shift)
        return np.exp(expo) * np.sin(mu * sy) * np.sin(sx * shift)

    acc = float(np.sum(quadrature.adaptive_gauss_legendre(f, 0.0, 1.0, _IMAGE_TOL)))
    acc /= math.pi * sy
    if s > t:
        acc -= specfun.transition_density(besq(0.5), s - t, x, y)
    return acc


def relaxation_probe(
    variant: str,
    s: float,
    x: float,
    t: float,
    y: float,
    tau_ladder,
):
    """Distances from the time-shifted kernel to its equilibrium limit.

    The Bessel variant is the index-1/2 one, the only index whose image
    form reaches large times.

    Returns (discrepancies, truncation_moves): one entry per tau, where
    ``truncation_moves`` records how much doubling the image count shifts
    the kernel value (the empirical convergence monitor).
    """
    if variant == "sine":
        limit = kernel_sine(t - s, y - x)
        unit = 2.0 * math.pi

        def at(tau, images):
            return lattice_kernel(s + tau, x, t + tau, y, images=images)

    elif variant == "bessel":
        limit = (x / y) ** 0.25 * kernel_bessel(0.5, t - s, y, x)
        unit = 1.0

        def at(tau, images):
            return besselzero_kernel_half(s + tau, x, t + tau, y, images=images)

    else:
        raise DomainError(f"unknown relaxation variant {variant!r}")

    discrepancies = []
    moves = []
    for tau in tau_ladder:
        count = _auto_images(s + tau, unit)
        base = at(tau, count)
        double = at(tau, 2 * count)
        moves.append(abs(double - base))
        if abs(double - base) > 1e-8:
            raise NumericError("image count did not converge for the probe")
        discrepancies.append(abs(double - limit))
    return discrepancies, moves
