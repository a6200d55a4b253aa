"""Independent reference values for the benchmark's job outputs.

Every check here recomputes a job's answer by a route that does not share
the code path under measurement: exact enumeration, closed forms written
out afresh, fixed high-order quadrature in place of the adaptive rule, or a
Nystrom determinant in place of the block multi-sum.  Where a route is a
second library function (``brute_force_rw``, ``finite_rank_det``, the
quadrature route of ``martingale_transform``), it is one that the measured
job does not call.

Each check returns a list of problems; an empty list means the output
passed.  Monte Carlo comparisons allow ``SIGMAS`` standard errors, and an
estimate may carry a ceiling on its standard error.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from detmart import martingales as mart
from detmart.processes import bm

#: Monte Carlo tolerance in standard errors.  Inputs change with the
#: workload seed, so a check runs on many draws; at 5 sigma a correct
#: program misses with probability below 1e-6 per check.
SIGMAS = 5.0

#: relative tolerance of deterministic comparisons
DET_TOL = 1e-8


# --------------------------------------------------------------------------
# reading outputs
# --------------------------------------------------------------------------


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_grid(path: str):
    """Kernel CSV as (s, x, t, y, value) float rows."""
    return [
        tuple(float(r[k]) for k in ("s", "x", "t", "y", "value")) for r in read_csv(path)
    ]


def read_paths(path: str, n_times: int, n_particles: int):
    """Simulate CSV as (paths, companions) arrays of shape (P, M, N)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_paths = data.shape[0] // (n_times * n_particles)
    paths = data[:, 3].reshape(n_paths, n_times, n_particles)
    comp = None
    if data.shape[1] > 4:
        comp = data[:, 4].reshape(n_paths, n_times, n_particles)
    return paths, comp


# --------------------------------------------------------------------------
# comparisons
# --------------------------------------------------------------------------


def close(label: str, got: float, want: float, tol: float = DET_TOL) -> list[str]:
    if not math.isfinite(got) or abs(got - want) > tol * max(1.0, abs(want)):
        return [f"{label}: got {got!r}, want {want!r} (rel tol {tol:g})"]
    return []


def within_se(label: str, mean: float, se: float, want: float) -> list[str]:
    if not (math.isfinite(mean) and math.isfinite(se)):
        return [f"{label}: non-finite estimate {mean!r} +- {se!r}"]
    if abs(mean - want) > SIGMAS * se + 1e-12:
        return [f"{label}: {mean!r} +- {se!r} misses {want!r} at {SIGMAS:g} sigma"]
    return []


def estimate_near(label: str, est: dict, want: float, se_max: float | None = None) -> list[str]:
    """Real part within SIGMAS of ``want``; a complex estimate's imaginary
    part within SIGMAS of zero.  With ``se_max``, a standard error above it
    is a miss too, so that a noisier estimator cannot pass on a wider
    tolerance."""
    out = within_se(label, est["mean"], est["std_error"], want)
    if "mean_imag" in est:
        out += within_se(label + " (imaginary part)", est["mean_imag"], est["std_error_imag"], 0.0)
    if se_max is not None:
        out += se_at_most(label, est["std_error"], se_max)
    return out


def se_at_most(label: str, se: float, se_max: float) -> list[str]:
    if not se <= se_max:
        return [f"{label}: standard error {se!r} above its ceiling {se_max!r}"]
    return []


def sample_mean_near(label: str, values: np.ndarray, want: float) -> list[str]:
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / math.sqrt(len(values)))
    return within_se(label, float(values.mean()), se, want)


# --------------------------------------------------------------------------
# densities and special functions written out independently
# --------------------------------------------------------------------------


def bm_density(t: float, y, x):
    y = np.asarray(y, dtype=float)
    return np.exp(-((y - x) ** 2) / (2.0 * t)) / np.sqrt(2.0 * math.pi * t)


def bessel_i_series(nu: float, z: float) -> float:
    """I_nu(z) by its power series in log space (positive terms)."""
    if z == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    acc = 0.0
    m = 0
    lz = math.log(z / 2.0)
    while True:
        term = math.exp((2 * m + nu) * lz - math.lgamma(m + 1.0) - math.lgamma(m + nu + 1.0))
        acc += term
        if m > z and term < 1e-17 * acc:
            return acc
        m += 1


def besq_density(nu: float, t: float, y: float, x: float) -> float:
    """BESQ(nu) density at y after time t from x > 0."""
    if y <= 0.0:
        return 0.0
    return (
        (1.0 / (2.0 * t))
        * (y / x) ** (nu / 2.0)
        * math.exp(-(x + y) / (2.0 * t))
        * bessel_i_series(nu, math.sqrt(x * y) / t)
    )


def bessel_j_half(nu: float, z):
    """J_nu for nu in {1/2, 3/2} from the spherical closed forms."""
    z = np.asarray(z, dtype=float)
    pre = np.sqrt(2.0 / (math.pi * z))
    if nu == 0.5:
        return pre * np.sin(z)
    if nu == 1.5:
        # sin z / z - cos z, by series near 0 where it cancels
        small = z < 0.1
        zs = np.where(small, 1.0, z)
        direct = np.sin(zs) / zs - np.cos(zs)
        series = z * z / 3.0 - z**4 / 30.0 + z**6 / 840.0
        return pre * np.where(small, series, direct)
    raise ValueError("closed forms exist for nu = 1/2 and 3/2 only")


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------


def _hermite_fns(size: int, x: float) -> np.ndarray:
    """Orthonormal oscillator functions psi_0 .. psi_{size-1} at x."""
    out = np.empty(size)
    for n in range(size):
        coef = np.zeros(n + 1)
        coef[n] = 1.0
        hn = float(np.polynomial.hermite.hermval(x, coef))
        lognorm = 0.5 * (0.5 * math.log(math.pi) + n * math.log(2.0) + math.lgamma(n + 1.0))
        out[n] = hn * math.exp(-x * x / 2.0 - lognorm)
    return out


def hermite_kernel(size: int, s: float, x: float, t: float, y: float) -> float:
    a = _hermite_fns(size, x / math.sqrt(2.0 * s))
    b = _hermite_fns(size, y / math.sqrt(2.0 * t))
    ratio = math.sqrt(t / s) ** np.arange(size)
    val = float(np.sum(ratio * a * b)) / math.sqrt(2.0 * s)
    if s > t:
        val -= math.exp(x * x / (4.0 * s) - y * y / (4.0 * t)) * float(bm_density(s - t, x, y))
    return val


def _laguerre_fns(size: int, nu: float, x: float) -> np.ndarray:
    out = np.empty(size)
    for n in range(size):
        # explicit sum L_n^nu(x) = sum_k (-1)^k C(n + nu, n - k) x^k / k!
        poly = 0.0
        for k in range(n + 1):
            poly += (-1.0) ** k * math.exp(
                math.lgamma(n + nu + 1.0)
                - math.lgamma(n - k + 1.0)
                - math.lgamma(nu + k + 1.0)
                - math.lgamma(k + 1.0)
            ) * x**k
        norm = math.exp(0.5 * (math.lgamma(n + 1.0) - math.lgamma(n + nu + 1.0)))
        out[n] = norm * x ** (nu / 2.0) * poly * math.exp(-x / 2.0)
    return out


def laguerre_kernel(size: int, nu: float, s: float, x: float, t: float, y: float) -> float:
    a = _laguerre_fns(size, nu, x / (2.0 * s))
    b = _laguerre_fns(size, nu, y / (2.0 * t))
    ratio = (t / s) ** np.arange(size)
    val = float(np.sum(ratio * a * b)) / (2.0 * s)
    if s > t:
        gauge = ((x / (2.0 * s)) ** (nu / 2.0) * math.exp(-x / (4.0 * s))) / (
            (y / (2.0 * t)) ** (nu / 2.0) * math.exp(-y / (4.0 * t))
        )
        val -= besq_density(nu, s - t, x, y) / gauge
    return val


def multipoint_hermite(size: int, s: float, x: float, t: float, y: float) -> float:
    """Concentrated-start BM kernel: gauge times the extended Hermite kernel."""
    return math.exp(-x * x / (4.0 * s) + y * y / (4.0 * t)) * hermite_kernel(size, s, x, t, y)


def _panels(lo: float, hi: float, width: float, order: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    count = max(1, int(math.ceil((hi - lo) / width)))
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, count + 1)
    nodes = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(edges, edges[1:])])
    weights = np.concatenate([0.5 * (b - a) * w for a, b in zip(edges, edges[1:])])
    return nodes, weights


def sine_kernel(tau: float, d: float) -> float:
    """Extended sine kernel K(tau, d) by fixed composite quadrature."""
    if tau == 0.0:
        return 1.0 if d == 0.0 else math.sin(math.pi * d) / (math.pi * d)
    if tau > 0.0:
        lam, w = _panels(0.0, 1.0, 0.25, 40)
        sign = 1.0
    else:
        # the integrand decays like exp(-pi^2 lam^2 |tau| / 2); stop at e^-50
        hi = max(2.0, math.sqrt(100.0 / (math.pi**2 * abs(tau))))
        lam, w = _panels(1.0, hi, 0.25, 40)
        sign = -1.0
    vals = np.exp(math.pi**2 * lam * lam * tau / 2.0) * np.cos(math.pi * lam * d)
    return sign * float(vals @ w)


def bessel_kernel(nu: float, tau: float, y: float, x: float) -> float:
    """Extended Bessel kernel K_J(tau, y | x) for tau != 0, nu in {1/2, 3/2}.

    Integrates over mu = sqrt(lambda), which removes the endpoint root
    singularity, with fixed composite Gauss-Legendre panels.
    """
    sx, sy = math.sqrt(x), math.sqrt(y)
    if tau > 0.0:
        mu, w = _panels(0.0, 1.0, 0.125, 40)
        sign = 1.0
    else:
        hi = max(2.0, math.sqrt(100.0 / abs(tau)))
        mu, w = _panels(1.0, hi, 0.125, 40)
        sign = -1.0
    vals = 2.0 * mu * np.exp(mu * mu * tau / 2.0) * bessel_j_half(nu, mu * sx) * bessel_j_half(nu, mu * sy)
    return sign * 0.25 * float(vals @ w)


def general_bm_kernel(xi, s: float, x: float, t: float, y: float) -> float:
    """Finite-configuration BM kernel with M_xi^v from the Gauss-Hermite
    (quadrature) route of ``martingale_transform``."""
    acc = 0.0
    for v in xi.support():
        acc += float(bm_density(s, x, v)) * float(
            mart.martingale_transform(bm(), xi, v, t, y, route="quadrature")
        )
    if s > t:
        acc -= float(bm_density(s - t, x, y))
    return acc


# --------------------------------------------------------------------------
# Fredholm determinants
# --------------------------------------------------------------------------


def nystrom_bm(xi, times, chis, order: int = 48) -> float:
    """det(I + K diag(w chi)) over Gauss-Legendre nodes of every time slice.

    ``chis`` is a list of (a, b, scale) indicator functions, one per time;
    K is the BM kernel of ``xi`` from :func:`general_bm_kernel`.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    pts, wts, slot = [], [], []
    for m, (a, b, scale) in enumerate(chis):
        pts.append(0.5 * (b - a) * x + 0.5 * (a + b))
        wts.append(0.5 * (b - a) * w * scale)
        slot.append(np.full(order, m))
    pts, wts, slot = np.concatenate(pts), np.concatenate(wts), np.concatenate(slot)
    ts = np.asarray(times, dtype=float)[slot]
    sup = xi.support()
    # M_xi^v(t_j, y_j) by the quadrature route, one column per support point
    mvals = np.empty((len(pts), len(sup)))
    for m, t in enumerate(times):
        sel = slot == m
        for k, v in enumerate(sup):
            mvals[sel, k] = mart.martingale_transform(bm(), xi, v, t, pts[sel], route="quadrature")
    pvals = np.stack([bm_density(ts, pts, v) for v in sup], axis=1)
    kmat = pvals @ mvals.T
    later = ts[:, None] > ts[None, :]
    tau = np.where(later, ts[:, None] - ts[None, :], 1.0)
    heat = np.exp(-((pts[:, None] - pts[None, :]) ** 2) / (2.0 * tau)) / np.sqrt(2.0 * math.pi * tau)
    kmat -= np.where(later, heat, 0.0)
    return float(np.linalg.det(np.eye(len(pts)) + kmat * wts[None, :]))


def km_all_above(u, t: float, h: float, order: int = 160) -> float:
    """P(both particles >= h at t) for two noncolliding BMs from u1 < u2.

    Karlin-McGregor: the density h(x)/h(u) det[p_t(x_j | u_k)] is
    symmetric, so the probability is half its integral over [h, inf)^2.
    """
    u1, u2 = u
    lo = max(h, u1 - 12.0 * math.sqrt(t))
    hi = u2 + 12.0 * math.sqrt(t)
    if lo >= hi:
        return 0.0
    x, w = _panels(lo, hi, 1.0, order // 4)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    det = bm_density(t, x1, u1) * bm_density(t, x2, u2) - bm_density(t, x1, u2) * bm_density(t, x2, u1)
    dens = (x2 - x1) / (u2 - u1) * det
    return 0.5 * float(w @ dens @ w)
