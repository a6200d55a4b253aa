"""Quadrature rules used across the package.

Gauss-Legendre and Gauss-Hermite come from numpy; generalized
Gauss-Laguerre is built by Golub-Welsch.  ``adaptive_gauss_legendre``
bisects panels until an embedded error estimate meets the tolerance, for
scalar or vector-valued integrands alike.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError

# numpy's leggauss builds a dense eigenproblem of the node count: 0.09 s
# at 1024 nodes and 0.56 s at 2048 (2 cores, numpy 2.4); a larger rule is
# refused before anything is allocated
_LEGENDRE_MAX = 1024

# numpy's hermgauss overflows from 371 nodes on (zero or NaN weights and
# RuntimeWarnings, numpy 2.4); refuse well before that
_HERMITE_MAX = 360

# the bisection depth at which adaptive_gauss_legendre gives up
_MAX_DEPTH = 48


def _frozen(*arrays):
    """Marks the arrays read-only: every caller of a cached rule shares them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes/weights for integral of f(x) dx over [-1, 1]; 1 <= n <= 1024."""
    if not 1 <= n <= _LEGENDRE_MAX:
        raise DomainError(f"Gauss-Legendre rules have 1 to {_LEGENDRE_MAX} nodes")
    return _frozen(*np.polynomial.legendre.leggauss(n))


@lru_cache(maxsize=64)
def gauss_hermite(n: int):
    """Nodes/weights for integral of f(x) e^{-x^2} dx over R; n <= 360."""
    if n > _HERMITE_MAX:
        raise DomainError(f"Gauss-Hermite rules stop at {_HERMITE_MAX} nodes")
    return _frozen(*np.polynomial.hermite.hermgauss(n))


@lru_cache(maxsize=64)
def gauss_laguerre_general(alpha: float, n: int):
    """Nodes/weights for integral of f(x) x^alpha e^{-x} dx over [0, inf).

    Golub-Welsch on the Laguerre Jacobi matrix; alpha > -1.
    """
    if alpha <= -1.0:
        raise NumericError("generalized Laguerre rule needs alpha > -1")
    i = np.arange(n, dtype=float)
    diag = 2.0 * i + alpha + 1.0
    off = np.sqrt((i[1:]) * (i[1:] + alpha))
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jac)
    weights = math.gamma(alpha + 1.0) * vecs[0, :] ** 2
    return _frozen(vals, weights)


def adaptive_gauss_legendre(f, a: float, b: float, tol: float):
    """Integrate a vectorized callable on [a, b] to absolute tolerance.

    ``f`` maps the nodes x to values of shape (..., len(x)); the result has
    shape (...), a float for a scalar integrand.  Panels bisect until the
    32/64-point discrepancy of every component fits a budget that shrinks
    sublinearly with panel width, so refinement grades into integrable
    endpoint singularities instead of stalling on them; all components
    share one panel tree, and both halves of a bisection take one call of f.
    """

    span = abs(b - a)
    x, w = gauss_legendre(32)

    def panels(centers, halves):
        # the 32-point rule on each panel (center, half-width), shape (..., panels)
        c, h = np.array(centers)[:, None], np.array(halves)[:, None]
        vals = f((c + h * x).ravel())
        vals = vals.reshape(np.shape(vals)[:-1] + (len(c), len(x)))
        return h[:, 0] * np.sum(w * vals, axis=-1)

    def recurse(lo, hi, coarse, depth):
        mid = 0.5 * (lo + hi)
        both = panels(
            [0.5 * (lo + mid), 0.5 * (mid + hi)], [0.5 * (mid - lo), 0.5 * (hi - mid)]
        )
        left, right = both[..., 0], both[..., 1]
        err = np.abs(left + right - coarse)
        budget = 0.25 * tol * (abs(hi - lo) / span) ** 0.6
        if np.all(err <= np.maximum(budget, 1e-16 * np.abs(coarse))):
            return left + right
        if depth >= _MAX_DEPTH:
            raise NumericError("adaptive quadrature exceeded maximum depth")
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    if a == b:
        return 0.0
    out = recurse(a, b, panels([0.5 * (a + b)], [0.5 * (b - a)])[..., 0], 0)
    return float(out) if np.ndim(out) == 0 else out
