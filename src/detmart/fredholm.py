"""Fredholm determinants of the finite-rank correlation kernels.

Three routes to the same moment generating function
E[prod_m prod_j (1 + chi_{t_m}(V_j(t_m))) * det-weight]:

  * ``fredholm_series``     the Nystrom determinant det(I + K diag(w chi))
                            over the stacked nodes of every time slice,
                            quadrature or exact site sums,
  * ``finite_rank_det``     the N x N shortcut det(I + A) available at a
                            single time,
  * ``mgf_monte_carlo``     the direct weighted Monte Carlo.

The Nystrom determinant (F. Bornemann, "On the numerical evaluation of
Fredholm determinants", Math. Comp. 79 (2010), arXiv:0804.2543) is the
principal-minor expansion of the Fredholm series over the quadrature nodes,
so it needs no truncation of block sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import configurations as cfg
from . import kernels as ker
from . import martingales as mart
from . import quadrature, simulate, specfun
from .errors import DomainError, NumericError
from .processes import ProcessKind, check_times

__all__ = [
    "ContinuousChi",
    "SiteChi",
    "TestFunctionSpec",
    "fredholm_series",
    "finite_rank_det",
    "mgf_monte_carlo",
]

# Gauss-Legendre nodes of the finite-rank shortcut's single slice
_SHORTCUT_ORDER = 200

# the largest series order: doubled, it is the Gauss-Legendre cap of 1024
_MAX_QUAD_ORDER = 512


@dataclass(frozen=True)
class ContinuousChi:
    """chi equal to ``scale`` on a compact interval and 0 off it."""

    support: tuple
    scale: float

    def __post_init__(self):
        a, b = self.support
        if not a < b:
            raise DomainError("chi support must be a nonempty interval")
        if self.scale <= -1.0:
            raise DomainError("chi must stay above -1")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        a, b = self.support
        return np.where((y >= a) & (y <= b), self.scale, 0.0)

    @classmethod
    def indicator(cls, a: float, b: float, scale: float) -> "ContinuousChi":
        return cls(support=(float(a), float(b)), scale=float(scale))


@dataclass(frozen=True)
class SiteChi:
    """chi supported on finitely many lattice sites."""

    sites: tuple  # ((site, value), ...)

    def __post_init__(self):
        items = tuple(sorted((float(s), float(v)) for s, v in self.sites))
        object.__setattr__(self, "sites", items)
        if any(v <= -1.0 for _, v in items):
            raise DomainError("chi must stay above -1")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for s, v in self.sites:
            out = np.where(y == s, v, out)
        return out


@dataclass(frozen=True)
class TestFunctionSpec:
    """Times, as ``check_times`` admits them, with one chi per time."""

    times: tuple
    chis: tuple

    def __post_init__(self):
        ts = check_times(None, self.times)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "chis", tuple(self.chis))
        if len(ts) != len(self.chis):
            raise DomainError("need exactly one chi per time")


# --------------------------------------------------------------------------
# Quadrature discretization of each time slice
# --------------------------------------------------------------------------


def _check_chis(process: ProcessKind, spec: TestFunctionSpec) -> None:
    """DomainError for a chi on sites off the walk: diffusion paths never
    hit a site, so such a chi is read by every route as zero or not at all."""
    if process.tag != "RW" and any(isinstance(c, SiteChi) for c in spec.chis):
        raise DomainError(f"a chi on sites needs the walk; {process.tag} needs "
                          "a chi on an interval")


def _slice_nodes(kern: ker.CorrelationKernel, t: float, chi, order: int):
    """(points, weights, chi values) discretizing the slice at time t.

    The walk sums exactly over sites: those of a site chi, or the sites of
    an interval that a walker started in xi can reach by time t (one parity,
    within t of the starts).  A diffusion integrates an interval by
    Gauss-Legendre of ``order`` nodes.
    """
    if isinstance(chi, SiteChi):
        pts = np.array([s for s, _ in chi.sites])
        return pts, np.ones_like(pts), np.array([v for _, v in chi.sites])
    a, b = chi.support
    if kern.process.tag == "RW":
        sup = kern.xi.support()
        first = sup[0] - t
        lo = first + 2.0 * max(0.0, np.ceil((a - first) / 2.0))
        pts = np.arange(lo, np.floor(min(b, sup[-1] + t)) + 1.0, 2.0)
        return pts, np.ones_like(pts), chi(pts)
    x, w = quadrature.gauss_legendre(order)
    pts = 0.5 * (b - a) * x + 0.5 * (a + b)
    wts = 0.5 * (b - a) * w
    return pts, wts, chi(pts)


def _series_value(kern, spec, order: int) -> float:
    """det(I + K diag(w chi)) on the stacked slice nodes of every time."""
    slices = [_slice_nodes(kern, t, chi, order) for t, chi in zip(spec.times, spec.chis)]
    mat = ker._block_matrix(kern, spec.times, [pts for pts, _, _ in slices])
    wchi = np.concatenate([w * c for _, w, c in slices])
    return float(np.linalg.det(np.eye(len(wchi)) + mat * wchi))


def fredholm_series(
    kern: ker.CorrelationKernel,
    spec: TestFunctionSpec,
    quad_order: int = 64,
) -> float:
    """Nystrom determinant of the Fredholm series det(I + K chi).

    Exact site sums for the walk; for a diffusion, Gauss-Legendre of
    ``quad_order`` nodes on each slice, doubled once, and a shift beyond
    1e-6 raises.  A ``quad_order`` whose double is past the Gauss-Legendre
    cap is refused before any kernel work.
    """
    if kern.xi is None:
        raise DomainError("the series needs a finite-configuration kernel")
    _check_chis(kern.process, spec)
    if kern.process.tag == "RW":
        return _series_value(kern, spec, quad_order)
    if quad_order > _MAX_QUAD_ORDER:
        raise DomainError(f"quad_order must be at most {_MAX_QUAD_ORDER}: it is "
                          "doubled once, and Gauss-Legendre rules stop at 1024 nodes")
    fine = _series_value(kern, spec, 2 * quad_order)
    coarse = _series_value(kern, spec, quad_order)
    if abs(fine - coarse) > 1e-6:
        raise NumericError(
            f"fredholm series moved {abs(fine - coarse):.2e} on order doubling"
        )
    return fine


def finite_rank_det(kern: ker.CorrelationKernel, spec: TestFunctionSpec) -> float:
    """det(I_N + A) with A_jk the chi-weighted overlap of M^{u_j} with
    p(t, . | u_k); single time only."""
    if len(spec.times) != 1:
        raise DomainError("the finite-rank shortcut is a single-time formula")
    xi = kern.xi
    proc = kern.process
    if xi is None or not xi.simple():
        raise DomainError("the finite-rank shortcut needs a simple configuration")
    _check_chis(proc, spec)
    t = spec.times[0]
    pts, wts, chiv = _slice_nodes(kern, t, spec.chis[0], _SHORTCUT_ORDER)
    cmat = cfg.phi_coeffs(xi)
    mvals = mart.poly_values(proc, len(cmat) - 1, t, pts) @ cmat
    pvals = specfun.transition_density(proc, t, pts[:, None], np.array(xi.support()))
    a = np.einsum("q,qj,qk->jk", wts * chiv, mvals, pvals)
    return float(np.linalg.det(np.eye(len(cmat)) + a))


def mgf_monte_carlo(
    process: ProcessKind,
    xi: cfg.PointConfiguration,
    spec: TestFunctionSpec,
    n_paths: int,
    seed: int,
    T: float | None = None,
    workers: int = 1,
) -> simulate.Estimate:
    """Monte Carlo of the chi-product observable under the det weight."""
    _check_chis(process, spec)

    def observable(paths):
        out = np.ones(paths.shape[0])
        for m, chi in enumerate(spec.chis):
            out *= np.prod(1.0 + chi(paths[:, m, :]), axis=1)
        return out

    return simulate.dmr_expectation(
        process, xi, observable, spec.times, n_paths, seed, T=T, workers=workers
    )

