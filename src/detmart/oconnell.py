"""The geometrically lifted observable of the softened leftmost-particle step.

The rational cardinal polynomials of a drift configuration are lifted to
Gamma-function ratios

    Phi^{u,a}(x) = Gamma(1 - a(u - x)) prod_{r != u}
                   Gamma(a(r - u)) / Gamma(a(r - x)),

which interpolate between the stochastic Toda world (a > 0) and the
noncolliding Brownian motion (a -> 0, the combinatorial limit).  The
expectation of the softened indicator of the lowest particle is a
determinantal-martingale representation with Phi^{u,a} in place of Phi^u,
run on complex or real paths by the estimator body of ``simulate``; the
plain noncolliding reference comes through the reciprocal time relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import configurations as cfg
from . import quadrature, simulate, specfun
from .errors import DomainError, NumericError
from .processes import bm

__all__ = [
    "LiftParams",
    "phi_lift",
    "pole_distance",
    "oconnell_theta_cpr",
    "oconnell_theta_dmr",
    "reciprocal_reference",
]


@dataclass(frozen=True)
class LiftParams:
    a: float
    nu_hat: cfg.PointConfiguration
    t: float
    h: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.t, self.h)):
            raise DomainError("lift parameters a, t and h must be finite")
        if self.a <= 0:
            raise DomainError("lift scale a must be positive")
        if self.t <= 0:
            raise DomainError("time must be positive")
        if not self.nu_hat.simple():
            raise DomainError("drift configuration must be simple")
        if self.nu_hat.total() > 5:
            raise DomainError("at most 5 drift components supported")


_POLE_TOL = 1e-8


def pole_distance(u: float, a: float, x) -> np.ndarray:
    """Distance from x to the nearest pole u - n/a, n >= 1."""
    x = np.asarray(x, dtype=complex)
    w = a * (u - x)  # poles at w = 1, 2, 3, ...
    nearest = np.clip(np.round(w.real), 1, None)
    return np.abs(w - nearest) / a


def _check_poles(u: float, a: float, x) -> None:
    """Raise if an argument lies within 1e-8 of a pole of Phi^{u,a}."""
    dist = pole_distance(u, a, x)
    if (dist < _POLE_TOL).any():
        w = a * (u - x)
        idx = int(np.clip(np.round(np.atleast_1d(w.real)[np.argmin(dist)]), 1, None))
        raise DomainError(f"argument within 1e-8 of pole {idx} at {u} - {idx}/a")


def phi_lift(nu_hat: cfg.PointConfiguration, u: float, a: float, x):
    """Lifted cardinal function; vectorized over complex x.

    Computed through complex log-gamma sums; the exponential of the sum is
    branch-independent.  Arguments within 1e-8 of a pole of Phi^{u,a} raise.
    """
    if a <= 0:
        raise DomainError("lift scale a must be positive")
    if u not in nu_hat.support():
        raise DomainError(f"{u} is not a drift component")
    out = _lift_components(nu_hat, (u,), a, np.asarray(x, dtype=complex))[0]
    return complex(out) if out.ndim == 0 else out


def _lift_components(nu_hat: cfg.PointConfiguration, us, a: float, z: np.ndarray):
    """Phi^{u,a}(z) for each drift component u of ``us``, stacked on a
    leading axis; arguments within 1e-8 of a pole of one of them raise.

    The log-gamma of a(r - z) is evaluated once per r and shared by the
    components: 2N log-gammas per point for all N of them, where one
    component at a time takes N^2.
    """
    sup = nu_hat.support()
    for u in us:
        _check_poles(u, a, z)
    shared = {r: specfun.log_gamma(a * (r - z)) for r in sup if set(us) - {r}}
    out = np.empty((len(us),) + z.shape, dtype=complex)
    for k, u in enumerate(us):
        acc = specfun.log_gamma(1.0 - a * (u - z))
        for r in sup:
            if r == u:
                continue
            acc = acc + specfun.log_gamma(np.asarray(a * (r - u), dtype=complex))
            acc = acc - shared[r]
        out[k] = np.exp(acc)
    return out


def _ridge_clearance(params: LiftParams) -> float:
    """Smallest pole gap, in units of the Gaussian scale sqrt(1/t): from the
    lowest drift component to the first pole of the highest.  The gap
    (v - (u - 1/a)) / sigma is monotone in u and in v, so this is the
    minimum over all pairs in floating point too."""
    sup = params.nu_hat.support()
    return (min(sup) - (max(sup) - 1.0 / params.a)) / math.sqrt(1.0 / params.t)


def _lift_weight(params: LiftParams, z: np.ndarray) -> np.ndarray:
    """det[Phi^{nu_k,a}(Z_j)] over a batch, z of shape (paths, N), in closed form.

    With c_k = prod_{r != k} Gamma(a(u_r - u_k)), Gamma(w) Gamma(1 - w) =
    pi / sin(pi w) turns the entries into pi c_k / (sin(pi a(u_k - x_j))
    prod_r Gamma(a(r - x_j))), and the trigonometric Cauchy determinant gives

        prod_k c_k prod_{k<l} sin(pi a(u_k - u_l)) sin(pi a(x_l - x_k))
        * prod_{j,k} Gamma(1 - a(u_k - x_j)) / pi^{N(N-1)},

    each Cauchy-denominator sine having cancelled one 1/Gamma.  The same
    formula pairs the constants, Gamma(w) Gamma(-w) sin(-pi w) = pi / w, so

        det = prod_{k<l} sin(pi a(x_l - x_k)) / (pi a(u_l - u_k))
              * prod_{j,k} Gamma(1 + a(x_j - u_k)):

    N^2 log-gammas per path, no matrix, and no poles but phi_lift's own.
    As a -> 0 it tends to the Vandermonde ratio h(x) / h(u).
    """
    u = np.array(params.nu_hat.support())
    a = params.a
    out = np.exp(specfun.log_gamma(1.0 + a * (z[:, :, None] - u)).sum(axis=(1, 2)))
    for k in range(len(u)):
        for m in range(k + 1, len(u)):
            out *= np.sin(math.pi * a * (z[:, m] - z[:, k])) / (math.pi * a * (u[m] - u[k]))
    return out


def _indicator_estimate(params: LiftParams, n_paths, seed, workers, weight_fn):
    """E[prod_j 1(V_j(1/t) >= h/t) * weight] over BM from the drifts; the
    weight is taken on the rows with the indicator on."""
    threshold = params.h / params.t

    def indicator(paths):
        return (paths[:, 0, :] >= threshold).all(axis=1)

    return simulate._representation_estimate(
        bm(), params.nu_hat, indicator, (1.0 / params.t,), n_paths, seed, None,
        workers, weight_fn,
    )


def oconnell_theta_cpr(
    params: LiftParams, n_paths: int, seed: int, workers: int = 1
) -> simulate.Estimate:
    """Complex-path estimate of the softened-step expectation.

    E[prod_j 1(Re Z_j(1/t) >= h/t) det Phi^{nu_k,a}(Z_j(1/t))] with
    Z_j = nu_j + B_j + i W_j, W the companions of ``cpr_expectation``.
    Only the paths with the indicator on are weighted; the rest are 0.
    A weighted path within 1e-8 of a pole raises NumericError.
    """
    sup = params.nu_hat.support()

    def weight(block, paths, grid, kept):
        z = simulate._complex_ends(bm(), seed, block, paths, grid, kept)
        if any((pole_distance(u, params.a, z) < _POLE_TOL).any() for u in sup):
            raise NumericError("a weighted path fell within 1e-8 of a pole of the lift")
        return _lift_weight(params, z)

    return _indicator_estimate(params, n_paths, seed, workers, weight)


# the Gauss-Hermite order of the transform, checked against half as many
# nodes at the probe points, and the Chebyshev node count of the table
_QUAD_ORDER = 256
_TABLE_NODES = 96


def _lift_transform(params: LiftParams, x: np.ndarray, order: int) -> np.ndarray:
    """E_g[Phi^{u,a}(x + i g)], g centered Gaussian of variance 1/t, for
    every drift component u: shape x.shape + (N,)."""
    nodes, weights = quadrature.gauss_hermite(order)
    scale = math.sqrt(2.0 / params.t)
    z = x[..., None] + 1j * scale * nodes
    nu_hat = params.nu_hat
    vals = _lift_components(nu_hat, nu_hat.support(), params.a, z) @ weights
    return np.moveaxis(vals, 0, -1) / math.sqrt(math.pi)


class _TransformTable:
    """Chebyshev interpolant of x -> E_g[Phi^{u,a}(x + i g)] on [lo, hi],
    for all drift components u at once (coefficients of shape (nodes, N)).

    The transform is analytic with its nearest singularities on the pole
    ladder, so a modest node count reaches full precision; a spot self
    check against direct quadrature guards the construction.
    """

    def __init__(self, params, lo, hi):
        self.lo, self.hi = lo, hi
        k = np.arange(_TABLE_NODES)
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(
            (2 * k + 1) * math.pi / (2 * _TABLE_NODES)
        )
        vals = _lift_transform(params, x, _QUAD_ORDER)
        scaled = (2.0 * x - (lo + hi)) / (hi - lo)
        coef = np.polynomial.chebyshev.chebfit(scaled, vals, _TABLE_NODES - 1)
        # real and imaginary parts interleaved, (nodes, 2N): one real
        # product with the Chebyshev-Vandermonde matrix evaluates them all
        self.coef = np.ascontiguousarray(coef).view(float)
        check = np.linspace(lo, hi, 7)[1:-1]
        direct = _lift_transform(params, check, _QUAD_ORDER)
        if np.max(np.abs(self(check) - direct)) > 1e-8:
            raise NumericError("transform interpolant failed its self check")

    def __call__(self, x):
        """All components at x: shape x.shape + (N,)."""
        scaled = (2.0 * np.asarray(x) - (self.lo + self.hi)) / (self.hi - self.lo)
        basis = np.polynomial.chebyshev.chebvander(scaled, _TABLE_NODES - 1)
        return (basis @ self.coef).view(complex)


def oconnell_theta_dmr(
    params: LiftParams,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> simulate.Estimate:
    """Real-path estimate through the quadrature transform of the lift.

    Requires the first pole of every lifted factor to sit at least three
    Gaussian standard deviations below the drift components.  The
    transform is a 256-node Gauss-Hermite rule; where it moves by more than
    1e-8 from 128 nodes the run raises NumericError.  Only the paths with
    the indicator on are weighted; the rest are 0.
    """
    clearance = _ridge_clearance(params)
    if clearance < 3.0:
        raise DomainError(
            f"poles are {clearance:.2f} standard deviations from the ridge; "
            "need at least 3 (decrease a or increase t)"
        )
    sup = np.array(params.nu_hat.support())
    sigma = math.sqrt(1.0 / params.t)
    probe = np.concatenate([sup + d for d in (-3 * sigma, 0.0, 3 * sigma)])
    low = _lift_transform(params, probe, _QUAD_ORDER // 2)
    high = _lift_transform(params, probe, _QUAD_ORDER)
    if not np.max(np.abs(low - high)) <= 1e-8:
        raise NumericError(
            f"the {_QUAD_ORDER}-node transform of the lift has not converged "
            "at these parameters; use the cpr route"
        )
    lo = float(sup.min() - 6.0 * sigma)
    hi = float(sup.max() + 6.0 * sigma)
    first_pole = float(sup.max() - 1.0 / params.a)
    table = None
    if lo - first_pole > 1.5 * sigma:
        table = _TransformTable(params, lo, hi)

    def weight(_block, paths, _grid, kept):
        rows = paths[kept, -1, :]
        if table is not None and ((rows > lo) & (rows < hi)).all():
            return np.linalg.det(table(rows))
        return np.linalg.det(_lift_transform(params, rows, _QUAD_ORDER))

    return _indicator_estimate(params, n_paths, seed, workers, weight)


def reciprocal_reference(
    nu_hat: cfg.PointConfiguration,
    t: float,
    h: float,
    n_paths: int,
    seed: int,
    dt: float = 5e-4,
) -> simulate.Estimate:
    """P(all particles >= h at time t) for the noncolliding motion from
    the drift configuration; the reciprocal-time counterpart of the lifted
    estimates."""
    ens = simulate.sample_noncolliding(bm(), nu_hat, [t], dt, n_paths, seed)
    vals = (ens.paths[:, 0, :] >= h).all(axis=1).astype(float)
    return simulate.Estimate.from_samples(vals)
