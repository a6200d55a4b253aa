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

from .errors import NumericError


def _frozen(*arrays):
    """Marks the arrays read-only: every caller of a cached rule shares them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    return _frozen(*np.polynomial.legendre.leggauss(n))


@lru_cache(maxsize=64)
def gauss_hermite(n: int):
    """Nodes/weights for integral of f(x) e^{-x^2} dx over R."""
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


def gauss_legendre_panel(f, a: float, b: float, n: int):
    x, w = gauss_legendre(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * np.sum(w * f(mid + half * x), axis=-1)


def adaptive_gauss_legendre(f, a: float, b: float, tol: float, max_depth: int = 48):
    """Integrate a vectorized callable on [a, b] to absolute tolerance.

    ``f`` maps the nodes x to values of shape (..., len(x)); the result has
    shape (...), a float for a scalar integrand.  Panels bisect until the
    32/64-point discrepancy of every component fits a budget that shrinks
    sublinearly with panel width, so refinement grades into integrable
    endpoint singularities instead of stalling on them; all components
    share one panel tree.
    """

    span = abs(b - a)

    def recurse(lo, hi, coarse, depth):
        mid = 0.5 * (lo + hi)
        left = gauss_legendre_panel(f, lo, mid, 32)
        right = gauss_legendre_panel(f, mid, hi, 32)
        err = np.abs(left + right - coarse)
        budget = 0.25 * tol * (abs(hi - lo) / span) ** 0.6
        if np.all(err <= np.maximum(budget, 1e-16 * np.abs(coarse))):
            return left + right
        if depth >= max_depth:
            raise NumericError("adaptive quadrature exceeded maximum depth")
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    if a == b:
        return 0.0
    out = recurse(a, b, gauss_legendre_panel(f, a, b, 32), 0)
    return float(out) if np.ndim(out) == 0 else out
