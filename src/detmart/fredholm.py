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


def _slice_nodes(chi, order: int):
    """(points, weights, chi values) discretizing one time slice."""
    if isinstance(chi, SiteChi):
        pts = np.array([s for s, _ in chi.sites])
        wts = np.ones_like(pts)
        return pts, wts, np.array([v for _, v in chi.sites])
    a, b = chi.support
    x, w = quadrature.gauss_legendre(order)
    pts = 0.5 * (b - a) * x + 0.5 * (a + b)
    wts = 0.5 * (b - a) * w
    return pts, wts, chi(pts)


def _series_value(kern, spec, order: int) -> float:
    """det(I + K diag(w chi)) on the stacked slice nodes of every time."""
    if kern.xi is None:
        raise DomainError("the series needs a finite-configuration kernel")
    slices = [_slice_nodes(chi, order) for chi in spec.chis]
    mat = ker._block_matrix(kern, spec.times, [pts for pts, _, _ in slices])
    wchi = np.concatenate([w * c for _, w, c in slices])
    return float(np.linalg.det(np.eye(len(wchi)) + mat * wchi))


def fredholm_series(
    kern: ker.CorrelationKernel,
    spec: TestFunctionSpec,
    quad_order: int = 64,
) -> float:
    """Nystrom determinant of the Fredholm series det(I + K chi).

    Gauss-Legendre of ``quad_order`` nodes on each continuous slice, exact
    sums on site chis.  With any continuous slice the order is doubled once
    and a shift beyond 1e-6 raises.
    """
    coarse = _series_value(kern, spec, quad_order)
    if all(isinstance(c, SiteChi) for c in spec.chis):
        return coarse
    fine = _series_value(kern, spec, 2 * quad_order)
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
    t = spec.times[0]
    pts, wts, chiv = _slice_nodes(spec.chis[0], _SHORTCUT_ORDER)
    sup = xi.support()
    n = len(sup)
    mvals = np.column_stack(
        [mart.martingale_transform(proc, xi, u, t, pts) for u in sup]
    )
    pvals = np.column_stack(
        [specfun.transition_density(proc, t, pts, u) for u in sup]
    )
    a = np.einsum("q,qj,qk->jk", wts * chiv, mvals, pvals)
    return float(np.linalg.det(np.eye(n) + a))


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

    def observable(paths):
        out = np.ones(paths.shape[0])
        for m, chi in enumerate(spec.chis):
            out *= np.prod(1.0 + chi(paths[:, m, :]), axis=1)
        return out

    return simulate.dmr_expectation(
        process, xi, observable, spec.times, n_paths, seed, T=T, workers=workers
    )

