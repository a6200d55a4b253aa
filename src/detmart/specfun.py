"""Self-contained special functions and elementary transition densities.

Complex log-gamma, Hermite and Laguerre polynomials, Bessel J and its
zeros, the entire Bessel series behind J and the BESQ density, power series
of ``sech^t``, and the one-step transition densities of the four supported
processes.

Orthogonal polynomials are evaluated by three-term recurrence, never by the
literal factorial sums (those cancel already for moderate degree; the sums
survive only as test oracles).  Bessel J uses the entire series for small
argument and Miller's backward recurrence with the Watson normalization sum
for large argument; the large-argument Hankel expansion is useless here
because it diverges for orders up to 20 at desk-scale arguments.  The
coefficients of sech^t come from J. C. P. Miller's recurrence for a power
of a power series, one O(order^2) loop for any real t >= 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError
from .processes import ProcessKind

__all__ = [
    "log_gamma",
    "hermite",
    "laguerre",
    "bessel_j",
    "bessel_j_derivative",
    "bessel_zeros",
    "entire_bessel_series",
    "cosh_neg_power_series",
    "transition_density",
]


# --------------------------------------------------------------------------
# Gamma
# --------------------------------------------------------------------------

# Lanczos approximation, g = 7, 9 coefficients.  Relative error is a few
# ulps over the right half plane, comfortably below the 1e-12 target.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _lanczos_sum(z):
    # z is shifted so the series is evaluated at z-1; works on numpy arrays.
    acc = np.full_like(z, _LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc = acc + c / (z - 1.0 + i)
    return acc


def _log_gamma_right(z):
    """log Gamma on Re z >= 0.5 via Lanczos (array-safe, complex)."""
    t = z - 1.0 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (z - 0.5) * np.log(t) - t + np.log(_lanczos_sum(z))


def _log_sin_pi_upper(z):
    # log sin(pi z) for Im z >= 0, written to avoid overflow of e^{pi |Im z|};
    # real integer z legitimately produces -inf (a zero of sin)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (
            -1j * math.pi * z
            + np.log1p(-np.exp(2j * math.pi * z))
            + (-math.log(2.0) + 0.5j * math.pi)
        )


def log_gamma(z):
    """Complex log-gamma, vectorized.

    Any branch returned by the reflection step is consistent under ``exp``,
    which is all downstream code relies on.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    right = z.real >= 0.5
    if right.any():
        out[right] = _log_gamma_right(z[right])
    left = ~right
    if left.any():
        zl = z[left]
        # log sin(pi conj z) = conj log sin(pi z): one evaluation per point
        upper = zl.imag >= 0.0
        ls = _log_sin_pi_upper(np.where(upper, zl, np.conj(zl)))
        ls = np.where(upper, ls, np.conj(ls))
        out[left] = math.log(math.pi) - ls - _log_gamma_right(1.0 - zl)
    return out[0] if scalar else out


# --------------------------------------------------------------------------
# Orthogonal polynomials
# --------------------------------------------------------------------------


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) by three-term recurrence."""
    if n < 0 or n > 200:
        raise DomainError("hermite supports 0 <= n <= 200")
    x = np.asarray(x, dtype=float)
    h0 = np.ones_like(x)
    if n == 0:
        return float(h0) if h0.ndim == 0 else h0
    h1 = 2.0 * x
    for k in range(1, n):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * k * h0
    return float(h1) if h1.ndim == 0 else h1


def laguerre(n: int, nu: float, x):
    """Generalized Laguerre polynomial L_n^(nu)(x), nu > -1."""
    if n < 0 or n > 200:
        raise DomainError("laguerre supports 0 <= n <= 200")
    if nu <= -1.0:
        raise DomainError("laguerre requires nu > -1")
    x = np.asarray(x, dtype=float)
    l0 = np.ones_like(x)
    if n == 0:
        return float(l0) if l0.ndim == 0 else l0
    l1 = 1.0 + nu - x
    for k in range(1, n):
        l0, l1 = l1, ((2 * k + 1 + nu - x) * l1 - (k + nu) * l0) / (k + 1.0)
    return float(l1) if l1.ndim == 0 else l1


# --------------------------------------------------------------------------
# Bessel functions
# --------------------------------------------------------------------------

_SERIES_MAX_TERMS = 700


def entire_bessel_series(nu: float, q):
    """The entire function e_nu(q) = sum_m q^m / (m! Gamma(m + nu + 1)).

    J_nu(z) = (z/2)^nu e_nu(-z^2/4) and I_nu(z) = (z/2)^nu e_nu(z^2/4);
    the left-hand sides are multivalued in z, e_nu is not, and
    e_nu' = e_{nu+1}.  Accepts real or complex arrays.
    """
    q = np.asarray(q)
    if not np.issubdtype(q.dtype, np.complexfloating):
        q = q.astype(float)
    term = np.full(q.shape, 1.0 / math.gamma(nu + 1.0), dtype=q.dtype)
    acc = term.copy()
    qmax = float(np.max(np.abs(q))) if q.size else 0.0
    for m in range(1, _SERIES_MAX_TERMS):
        term = term * q / (m * (m + nu))
        acc = acc + term
        if m > 8 and qmax <= m * (m + nu) / 4.0:
            if float(np.max(np.abs(term))) <= 1e-18 * max(
                1e-300, float(np.max(np.abs(acc)))
            ):
                break
    else:
        raise NumericError("entire Bessel series did not converge")
    return acc


def _bessel_j_miller(nu: float, x):
    """J_nu(x) and J_{nu+1}(x) for an array of x > 0 by backward recurrence.

    One pass serves every argument, started at the index the largest one
    needs (a higher start only adds accuracy).  Normalized with the Watson
    sum (x/2)^nu = sum_k (nu + 2k) Gamma(nu + k) / k! * J_{nu+2k}(x).
    """
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise DomainError("Miller recurrence needs x > 0")
    xmax = float(x.max())
    start = int(
        math.ceil(abs(nu) + max(xmax, 20.0) + 15.0 * xmax ** (1.0 / 3.0) + 25.0)
    )
    fp = np.zeros_like(x)  # f_{mu+1}
    fc = np.full_like(x, 1e-280)  # f_mu, arbitrary tiny seed
    norm = np.zeros_like(x)
    for k in range(start, -1, -1):
        mu = nu + k
        # f_{mu-1} from f_mu, f_{mu+1}; fc then holds f_{nu+k}
        fp, fc = fc, (2.0 * (mu + 1.0) / x) * fc - fp
        if k % 2 == 0:
            half = k // 2
            # (nu + 2*half) Gamma(nu + half) / half!
            if nu + half > 0:
                lc = math.log(nu + k) + math.lgamma(nu + half) - math.lgamma(half + 1.0)
                norm += math.exp(lc) * fc
            else:  # only possible at k == 0 with nu in (-1, 0]
                norm += math.gamma(nu + 1.0) * fc
        big = np.abs(fc) > 1e250
        if big.any():
            shrink = np.where(big, 1e-250, 1.0)
            fp, fc, norm = fp * shrink, fc * shrink, norm * shrink
    scale = np.exp(nu * np.log(x / 2.0)) / norm
    return fc * scale, fp * scale


def bessel_j(nu: float, x):
    """Bessel function of the first kind, nu > -1, x >= 0.

    Vectorized over x; series below x = 9, one Miller pass above.
    """
    if nu <= -1.0:
        raise DomainError("bessel_j requires nu > -1")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if (arr < 0.0).any():
        raise DomainError("bessel_j requires x >= 0")
    out = np.zeros_like(arr)
    zero = arr == 0.0
    if zero.any() and nu == 0.0:
        out[zero] = 1.0
    small = (arr > 0.0) & (arr <= 9.0)
    if small.any():
        xs = arr[small]
        out[small] = np.exp(nu * np.log(xs / 2.0)) * entire_bessel_series(
            nu, -(xs * xs) / 4.0
        )
    big = arr > 9.0
    if big.any():
        out[big] = _bessel_j_miller(nu, arr[big])[0]
    return float(out[0]) if scalar else out


def bessel_j_derivative(nu: float, x):
    """d/dx J_nu(x) via J_nu' = (nu/x) J_nu - J_{nu+1}; vectorized, x > 0."""
    arr = np.asarray(x, dtype=float)
    if (arr <= 0.0).any():
        raise DomainError("bessel_j_derivative requires x > 0")
    out = (nu / arr) * bessel_j(nu, arr) - bessel_j(nu + 1.0, arr)
    return float(out) if out.ndim == 0 else out


def bessel_zeros(nu: float, count: int) -> tuple:
    """The first ``count`` positive zeros of J_nu, ascending, Newton-refined.

    One sign scan of J_nu over a grid of step pi/2 brackets every zero at
    once: the grid starts at max(nu, 1e-2), below the first zero, and
    consecutive zeros are more than pi/2 apart, so no cell holds two.  One
    safeguarded Newton loop then refines all zeros together, starting from
    the McMahon-type value (k + nu/2 - 1/4) pi where it lies in its bracket
    (the midpoint otherwise) and bisecting whenever a step leaves it.
    """
    if nu <= -1.0:
        raise DomainError("bessel_zeros requires nu > -1")
    if not 1 <= count <= 500:
        raise DomainError("bessel_zeros supports 1 <= count <= 500")
    start, step = max(nu, 1e-2), 0.5 * math.pi
    # past the count-th zero, j_{nu,k} ~ (k + nu/2 - 1/4) pi; the grid is
    # extended if the scan finds fewer sign changes
    stop = (count + 0.5 * nu + 1.0) * math.pi
    for _ in range(4):
        grid = start + step * np.arange(int((stop - start) / step) + 2)
        fgrid = bessel_j(nu, grid)
        cells = np.flatnonzero((fgrid[:-1] > 0.0) != (fgrid[1:] > 0.0))[:count]
        if len(cells) == count:
            break
        stop += count * math.pi
    else:
        raise NumericError(f"zero {len(cells) + 1} of J_{nu} not bracketed")
    lo, hi, flo = grid[cells], grid[cells + 1], fgrid[cells]
    guess = (np.arange(1, count + 1) + nu / 2.0 - 0.25) * math.pi
    z = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    todo = np.arange(count)
    for _ in range(80):
        f = bessel_j(nu, z[todo])
        moving = np.abs(f) > 1e-14
        todo, f = todo[moving], f[moving]
        if not len(todo):
            break
        zt = z[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            znew = zt - f / bessel_j_derivative(nu, zt)
        out = ~((lo[todo] < znew) & (znew < hi[todo]))
        left = out & (flo[todo] * f < 0)
        right = out & ~left
        hi[todo[left]] = zt[left]
        lo[todo[right]], flo[todo[right]] = zt[right], f[right]
        z[todo] = np.where(out, 0.5 * (lo[todo] + hi[todo]), znew)
    else:
        raise NumericError(f"zero {todo[0] + 1} of J_{nu} did not converge")
    return tuple(z.tolist())


# --------------------------------------------------------------------------
# sech powers
# --------------------------------------------------------------------------


@lru_cache(maxsize=256)
def cosh_neg_power_series(t: float, order: int) -> tuple:
    """Coefficients q_0 .. q_order of (cosh a)^(-t) in a, as a tuple.

    J. C. P. Miller's recurrence for a power of a power series (Knuth,
    TAOCP vol. 2, 4.7): with c_k = 1/k! the even coefficients of cosh,
    q_0 = 1 and q_n = (1/n) sum_{even k=2..n} ((1 - t) k - n) c_k q_{n-k}.
    O(order^2) work for any real t >= 0, and q_n does not depend on
    ``order``.  Cached: the result is a frozen tuple and a function of
    (t, order) alone.
    """
    if order < 0 or order > 64:
        raise DomainError("cosh_neg_power_series supports 0 <= order <= 64")
    if t < 0:
        raise DomainError("cosh_neg_power_series requires t >= 0")
    q = [1.0] + [0.0] * order
    for n in range(2, order + 1, 2):
        q[n] = sum(
            ((1.0 - t) * k - n) * q[n - k] / math.factorial(k)
            for k in range(2, n + 1, 2)
        ) / n
    return tuple(q)


# --------------------------------------------------------------------------
# Transition densities
# --------------------------------------------------------------------------


def besq_density(nu: float, t: float, y, x):
    """BESQ(nu) transition density p(t, y | x) for t > 0, x >= 0, y >= 0.

    Single formula covering the x = 0 branch as well:
    p = (1/2t) (y/2t)^nu e^{-(x+y)/2t} e_nu(x y / 4 t^2),
    since e_nu(0) = 1/Gamma(nu+1).  Broadcasts over y and x.
    """
    x = np.asarray(x, dtype=float)
    if (x < 0.0).any():
        raise DomainError("BESQ state must be nonnegative")
    y = np.asarray(y, dtype=float)
    neg = y < 0
    ysafe = np.where(neg, 0.0, y)
    q = x * ysafe / (4.0 * t * t)
    with np.errstate(divide="ignore"):
        log_pow = nu * np.log(np.where(ysafe > 0, ysafe / (2.0 * t), 1.0))
    body = (
        (1.0 / (2.0 * t))
        * np.exp(log_pow - (x + ysafe) / (2.0 * t))
        * entire_bessel_series(nu, q)
    )
    if nu > 0.0:
        body = np.where(ysafe > 0, body, 0.0)
    elif nu < 0.0:
        body = np.where(ysafe > 0, body, np.inf)
    out = np.where(neg, 0.0, body)
    return float(out) if out.ndim == 0 else out


def transition_density(process: ProcessKind, t, y, x):
    """One-step transition density/probability p(t, y | x) of ``process``.

    Broadcasts over y and x.  Continuous kinds require t > 0 (the t = 0
    point mass never reaches this code); RW requires integer t >= 0.
    """
    if t < 0:
        raise DomainError("transition_density requires t >= 0")
    if process.tag == "RW":
        if not float(t).is_integer():
            raise DomainError("RW time must be a nonnegative integer")
        steps = int(t)
        d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
        k = (steps + d) / 2.0
        ok = (k == np.floor(k)) & (np.abs(d) <= steps)
        k = np.where(ok, k, 0.0).astype(int)
        log_fact = np.array([math.lgamma(j + 1.0) for j in range(steps + 1)])
        log_p = log_fact[steps] - log_fact[k] - log_fact[steps - k] - steps * math.log(2.0)
        out = np.where(ok, np.exp(log_p), 0.0)
        return float(out) if out.ndim == 0 else out
    if t == 0.0:
        raise DomainError("continuous transition density undefined at t = 0")
    if process.tag == "BM":
        y = np.asarray(y, dtype=float)
        out = np.exp(-((y - x) ** 2) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
        return float(out) if out.ndim == 0 else out
    if process.tag == "BESQ":
        return besq_density(process.nu, float(t), y, x)
    if process.tag == "BES":
        y = np.asarray(y, dtype=float)
        out = besq_density(process.nu, float(t), y * y, np.square(x)) * 2.0 * y
        return float(out) if out.ndim == 0 else out
    raise DomainError(f"unsupported process {process}")

