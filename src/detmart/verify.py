"""Verification suites: every structural identity, run at fixed seeds.

Each suite returns a list of check records
``{"check", "status", "measured", "tolerance"}`` with status "pass" when
measured <= tolerance.  The CLI ``verify`` command serializes these, and
the acceptance tests assert on them; both therefore run identical code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import configurations as cfg
from . import fredholm as fred
from . import kernels as ker
from . import martingales as mart
from . import oconnell as oc
from . import quadrature
from . import simulate as sim
from . import specfun
from .errors import DomainError
from .processes import besq, bm, rw

__all__ = ["SUITES", "run_suite"]


def _check(name: str, measured: float, tolerance: float) -> dict:
    return {
        "check": name,
        "status": "pass" if measured <= tolerance else "fail",
        "measured": float(measured),
        "tolerance": float(tolerance),
    }


def _simple(*points):
    return cfg.PointConfiguration.from_points(points)


# --------------------------------------------------------------------------


def _separated(rng, n, lo, hi):
    # random strictly ordered points at least 0.05 apart; closer
    # configurations belong to the multiple-point machinery
    while True:
        pts = np.sort(rng.uniform(lo, hi, size=n))
        if n == 1 or np.diff(pts).min() >= 0.05:
            return pts


def identities(seed: int = 1234) -> list:
    """Determinant identity and cardinal-polynomial structure."""
    rng = np.random.default_rng(seed)
    out = []

    # draw every case first, then check each size as one stack
    cases = {}
    for _ in range(200):
        n = int(rng.integers(2, 7))
        u = _separated(rng, n, -4.0, 4.0)
        cases.setdefault(n, []).append((u, _separated(rng, n, -5.0, 5.0)))
    checks = (cfg.det_phi_identity_check(*zip(*g)) for g in cases.values())
    worst = max(float(np.max(err / np.maximum(1.0, np.abs(lhs)))) for lhs, _, err in checks)
    out.append(_check("vandermonde-ratio det identity (200 random)", worst, 1e-10))

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        xi = _simple(*np.sort(rng.uniform(-4.0, 4.0, size=n)))
        sup = np.array(xi.support())
        mat = np.stack([cfg.phi_simple(xi, uk, sup).real for uk in sup], axis=-1)
        worst = max(worst, float(np.max(np.abs(mat - np.eye(n)))))
    out.append(_check("cardinal polynomials hit the identity matrix", worst, 1e-12))

    worst = 0.0
    xi = _simple(0.0, 2.0)
    for _ in range(10):
        s = rng.uniform(0.2, 2.0)
        x = rng.uniform(-2.0, 2.0)
        z = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        got = cfg.phi_twotime(bm(), xi, 0.0, s, x, z)
        want = cfg.phi_simple(xi, 0.0, z)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    out.append(_check("two-time residue reduces on simple configurations", worst, 1e-10))
    return out


# --------------------------------------------------------------------------


def _weight_identities(rng) -> list:
    """The identities that let det_weight and cpr_weight return Vandermonde
    ratios: det[M_xi^{u_k}(T, x_j)] = h(x) / h(u) over BM, BESQ(0, 1/2, 1)
    and RW; det[Phi_xi^{u_k}(z_j)] = h(z) / h(u); and for BES(3/2)
    det[q(z_j) Phi_{xi^2}^{u_k^2}(z_j^2)] = prod_j q(z_j) h(z^2) / h(u^2)."""
    ld = np.longdouble
    procs = (bm(), besq(0.0), besq(0.5), besq(1.0), rw())
    worst_real = worst_complex = 0.0
    # 20 starting configurations, 10 end configurations each, with
    # spacings in [0.25, 2.25] (distinct sites for the walk)
    for i in range(20):
        proc, n = procs[i % 5], 2 + i % 4
        if proc.tag == "RW":
            T = float(rng.integers(0, 7))
            u = np.sort(rng.choice(np.arange(-6.0, 7.0), n, replace=False))
            x = np.array(
                [rng.choice(np.arange(-9.0, 10.0), n, replace=False) for _ in range(10)]
            )
        else:
            T = rng.uniform(0.1, 1.0)
            lo = 0.0 if proc.tag == "BESQ" else -3.0
            u = lo + np.cumsum(rng.uniform(0.25, 2.25, size=n))
            x = lo + np.cumsum(rng.uniform(0.25, 2.25, size=(10, n)), axis=1)
            x = rng.permuted(x, axis=1)
        xi = cfg.PointConfiguration.from_points(u)
        cmat = cfg.phi_coeffs(xi)
        # extended precision: the lower coefficients of the BESQ m_l grow
        # like (2T)^l l!, and in double the matrix misses by up to 1e-8 here
        xl = x.astype(ld)
        mats = mart.poly_values(proc, n - 1, T, xl) @ cmat
        got = cfg.stacked_det(mats)
        want = cfg.vandermonde(xl) / cfg.vandermonde(u.astype(ld))
        worst_real = max(worst_real, float(np.max(np.abs(got / want - 1.0))))

        z = x + 1j * rng.uniform(-1.0, 1.0, size=x.shape)
        if proc.tag == "BESQ":
            q = mart.bes_q_factor(1, T, z)
            sq = xi.square()
            mat = np.stack([cfg.phi_simple(sq, v * v, z * z) for v in u], axis=-1)
            got = np.linalg.det(q[..., None] * mat)
            want = q.prod(axis=-1) * cfg.vandermonde(z * z) / cfg.vandermonde(u * u)
        else:
            mat = np.stack([cfg.phi_simple(xi, v, z) for v in u], axis=-1)
            got = np.linalg.det(mat)
            want = cfg.vandermonde(z) / cfg.vandermonde(u)
        worst_complex = max(worst_complex, float(np.max(np.abs(got / want - 1.0))))
    return [
        _check("det of martingale values is h(x)/h(u) (200 random)", worst_real, 1e-10),
        _check("det of complex Phi is the Vandermonde ratio (200 random)", worst_complex, 1e-10),
    ]


def martingales(seed: int = 2345) -> list:
    """Normalization of the determinantal weight and walk polynomials, and
    the determinant identities the weights are computed by."""
    out = _weight_identities(np.random.default_rng(seed + 2))
    configs = {
        "BM": (bm(), _simple(-1.0, 0.0, 1.0, 2.5), 1.0),
        "BESQ": (besq(0.5), _simple(0.5, 1.5, 3.0, 5.0), 1.0),
        "RW": (rw(), _simple(0.0, 2.0, 4.0, 6.0), 3),
    }
    for name, (proc, xi, horizon) in configs.items():
        est = sim.dmr_expectation(
            proc, xi, lambda p: np.ones(p.shape[0]), [horizon], 100_000, seed=seed
        )
        out.append(
            _check(
                f"unit mean of the det weight, {name} N=4",
                abs(est.mean - 1.0),
                4 * est.std_error,
            )
        )

    worst = 0.0
    xs = np.arange(-10, 11.0)
    for n in range(11):
        for t in range(11):
            lhs = mart.poly_martingale(rw(), n, t, xs)
            rhs = 0.5 * (
                mart.poly_martingale(rw(), n, t + 1, xs + 1)
                + mart.poly_martingale(rw(), n, t + 1, xs - 1)
            )
            rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
            worst = max(worst, float(rel.max()))
    out.append(_check("walk polynomial one-step mean recurrence", worst, 1e-9))

    x0, t, npaths = 1.0, 3, 30_000
    ens = sim.attach_companions(sim.sample_free(rw(), [x0], [t], npaths, seed + 1), seed + 2)
    z = x0 + 1j * ens.companions[:, 0, 0]
    for n in range(1, 6):
        vals = (z**n).real
        se = vals.std(ddof=1) / math.sqrt(npaths)
        want = mart.poly_martingale(rw(), n, t, x0)
        out.append(
            _check(
                f"time-changed complex moment matches walk polynomial n={n}",
                abs(vals.mean() - want),
                4 * se,
            )
        )
    return out


# --------------------------------------------------------------------------


def _rw_correlations(xi) -> tuple:
    """The walk correlations ``dmr_rw`` checks, as ``correlation`` takes them
    but from one kernel grid per time pair, and by enumeration: each site of
    [-t, t + 2] and site pair at t = 2, then t = 4, then each (x at 2, y at 4)."""
    kern = ker.rw_kernel(xi)
    sites = {t: np.arange(-t, t + 3.0) for t in (2, 4)}
    grid = {(s, t): ker.kernel_eval_grid(kern, s, sites[s], t, sites[t])
            for s in sites for t in sites}

    def minors(s, a, t, b):
        # det [[K(s, a; s, a), K(s, a; t, b)], [K(t, b; s, a), K(t, b; t, b)]]
        cells = [grid[s, s][a, a], grid[s, t][a, b], grid[t, s][b, a], grid[t, t][b, b]]
        return np.linalg.det(np.stack(cells, axis=-1).reshape(-1, 2, 2))

    def occupied(s, a, t, b):
        # P(sites a occupied at s and sites b at t), one enumeration column each
        def both(p):
            hit = (p[:, 0, :, None] == sites[s]).any(axis=1)[:, a]
            return (hit & (p[:, -1, :, None] == sites[t]).any(axis=1)[:, b]).astype(float)

        return sim.brute_force_rw(xi, both, sorted({s, t}), T=t)[1]

    dets, exact = [], []
    for t, xs in sites.items():
        every, (a, b) = np.arange(len(xs)), np.triu_indices(len(xs), 1)
        dets += [np.linalg.det(grid[t, t][every, every, None, None]), minors(t, a, t, b)]
        exact.append(occupied(t, np.r_[every, a], t, np.r_[every, b]))
    a, b = np.indices((len(sites[2]), len(sites[4]))).reshape(2, -1)
    dets.append(minors(2, a, 4, b))
    exact.append(occupied(2, a, 4, b))
    return np.concatenate(dets), np.concatenate(exact)


def dmr_rw(seed: int = 3456) -> list:
    """Exact walk identities: representation, kernel correlations, reduction."""
    out = []
    xi = _simple(0.0, 2.0)
    rng = np.random.default_rng(seed)

    def random_products(p):
        # ten columns F_i = prod_{m, j} f_i(m, p[:, m, j]), each f_i drawn
        # lazily: one uniform per (m, j) column entry, the first draw of a
        # site kept (the draws a setdefault per entry would make)
        cols = np.ones((p.shape[0], 10))
        for i in range(10):
            site_vals = {}
            for m in range(p.shape[1]):
                for j in range(p.shape[2]):
                    draws = rng.uniform(0.1, 1.0, size=p.shape[0])
                    keys, first, inverse = np.unique(
                        p[:, m, j].astype(int), return_index=True, return_inverse=True
                    )
                    table = [site_vals.setdefault((m, k), draws[f])
                             for k, f in zip(keys, first)]
                    cols[:, i] *= np.array(table)[inverse]
        return cols

    free, doob = sim.brute_force_rw(xi, random_products, [2, 4], T=4)
    worst = float(np.max(np.abs(free - doob)))
    out.append(_check("free weighted mean equals conditioned mean (10 F)", worst, 1e-12))

    # every site, site pair and two-time pair is one column of one enumeration
    got, exact = _rw_correlations(xi)
    worst = float(np.max(np.abs(got - exact)))
    out.append(_check("kernel correlations equal enumeration, t in {2,4}", worst, 1e-12))

    # size reduction, exactly: sum_j E[f(V_j(t)) det] = sum_v E_v[f det_1x1]
    f_sites = rng.uniform(0.1, 1.0, size=11)  # f on the sites -4..6

    def f(xs):
        return f_sites[xs.astype(int) + 4]

    free, _ = sim.brute_force_rw(xi, lambda p: f(p[:, 0, :]), [2], T=4)
    lhs = free[0] + free[1]
    rhs = 0.0
    cmat = cfg.phi_coeffs(xi)
    # the 16 walks of 4 steps; each start's terms summed left to right
    walks = np.cumsum(list(itertools.product((-1, 1), repeat=4)), axis=1)
    for ki, v in enumerate(xi.support()):
        pos = v + walks
        mval = mart.poly_values(rw(), 1, 4.0, pos[:, -1]) @ cmat[:2, ki]
        rhs += np.cumsum(f(pos[:, 1]) * mval / 2.0**4)[-1]
    out.append(_check("size reduction N=2 to N'=1, exact", abs(lhs - rhs), 1e-12))
    return out


# --------------------------------------------------------------------------


def dmr_bm(seed: int = 4567) -> list:
    """Diffusion kernels against transition-determinant densities."""
    out = []
    rng = np.random.default_rng(seed)

    def km(proc, t, x, u):
        mat = specfun.transition_density(proc, t, np.asarray(x)[:, None], np.asarray(u))
        return cfg.vandermonde(x) / cfg.vandermonde(u) * float(np.linalg.det(mat))

    worst = 0.0
    for u in ([0.0, 2.0], [0.0, 1.0, 3.0]):
        xi = _simple(*u)
        kern = ker.general_kernel(bm(), xi)
        done = 0
        while done < 25:
            t = rng.uniform(0.3, 2.0)
            x = _separated(rng, len(u), min(u) - 2.0, max(u) + 2.0)
            want = km(bm(), t, x, u)
            if abs(want) < 1e-6:
                continue  # relative comparison is meaningless below noise
            got = ker.correlation(kern, ker.SpaceTimeQuery((t,), (tuple(x),)))
            worst = max(worst, abs(got - want) / abs(want))
            done += 1
    out.append(_check("full-size one-time correlation vs KM density", worst, 1e-8))

    worst = 0.0
    u = [0.0, 2.0]
    xi = _simple(*u)
    kern = ker.general_kernel(bm(), xi)
    done = 0
    while done < 10:
        t1 = rng.uniform(0.3, 1.0)
        t2 = t1 + rng.uniform(0.3, 1.0)
        x1 = _separated(rng, 2, -2.0, 4.0)
        x2 = _separated(rng, 2, -2.0, 4.0)
        want = km(bm(), t2 - t1, x2, x1) * km(bm(), t1, x1, u)
        if abs(want) < 1e-6:
            continue
        got = ker.correlation(
            kern, ker.SpaceTimeQuery((t1, t2), (tuple(x1), tuple(x2)))
        )
        worst = max(worst, abs(got - want) / abs(want))
        done += 1
    out.append(_check("two-time full-size correlation factorizes", worst, 1e-7))

    # concentrated initial data: residue pipeline vs closed forms
    worst_h, worst_l = 0.0, 0.0
    N, nu = 3, 0.5
    xi_h = cfg.PointConfiguration(((0.0, N),))
    for _ in range(8):
        s, t = rng.uniform(0.3, 2.0, size=2)
        x, y = rng.uniform(-2.0, 2.0, size=2)
        got = mart.martingale_transform_twotime(bm(), xi_h, 0.0, s, x, t, y)
        want = sum(
            (t / s) ** (n / 2.0)
            * specfun.hermite(n, x / math.sqrt(2 * s))
            * specfun.hermite(n, y / math.sqrt(2 * t))
            / (math.factorial(n) * 2.0**n)
            for n in range(N)
        )
        worst_h = max(worst_h, abs(got - want) / max(1.0, abs(want)))
        xb, yb = rng.uniform(0.3, 4.0, size=2)
        got = mart.martingale_transform_twotime(besq(nu), xi_h, 0.0, s, xb, t, yb)
        want = sum(
            math.gamma(nu + 1.0)
            * math.factorial(n)
            / math.gamma(n + nu + 1.0)
            * (t / s) ** n
            * specfun.laguerre(n, nu, xb / (2 * s))
            * specfun.laguerre(n, nu, yb / (2 * t))
            for n in range(N)
        )
        worst_l = max(worst_l, abs(got - want) / max(1.0, abs(want)))
    out.append(_check("concentrated-start Hermite closed form", worst_h, 1e-8))
    out.append(_check("concentrated-start Laguerre closed form", worst_l, 1e-8))

    # gauge-conjugated correlations: concentrated kernel vs Hermite kernel
    worst = 0.0
    kmp = ker.multipoint_kernel(bm(), xi_h)
    kh = ker.extended_hermite_kernel(N)
    for _ in range(6):
        t1 = rng.uniform(0.3, 1.0)
        t2 = t1 + rng.uniform(0.3, 1.0)
        q = ker.SpaceTimeQuery(
            (t1, t2),
            (tuple(np.sort(rng.uniform(-2, 2, 2))), (rng.uniform(-2, 2),)),
        )
        a = ker.correlation(kmp, q)
        b = ker.correlation(kh, q)
        worst = max(worst, abs(a - b))
    out.append(_check("gauge-conjugated correlations agree", worst, 1e-10))

    worst = 0.0
    xi2 = cfg.PointConfiguration(((0.0, 2),))
    kmp2 = ker.multipoint_kernel(bm(), xi2)
    t = 1.0
    for _ in range(10):
        x = np.sort(rng.uniform(-2.5, 2.5, size=2))
        got = ker.correlation(kmp2, ker.SpaceTimeQuery((t,), (tuple(x),)))
        want = ker.gue_density(2, t, x)
        worst = max(worst, abs(got - want) / max(1e-12, abs(want)))
    out.append(_check("equal-time density matches the unitary-ensemble law", worst, 1e-8))

    nodes, weights = quadrature.gauss_legendre(400)
    lo, hi = -14.0, 14.0
    xs = 0.5 * (hi - lo) * nodes + 0.5 * (lo + hi)
    w = 0.5 * (hi - lo) * weights
    vals = ker.kernel_extended_hermite(2, t, xs, t, xs)
    out.append(_check("equal-time diagonal integrates to N", abs(float(w @ vals) - 2.0), 1e-5))

    # size reduction by Monte Carlo, N=3 to N'=2
    xi3 = _simple(-1.0, 0.5, 2.0)

    def F2(p):
        return np.tanh(p[:, 0, 0] + 0.5 * p[:, 0, 1])

    lhs, rhs = sim.reducibility_check(bm(), xi3, 2, F2, 0.7, 60_000, seed=seed)
    out.append(
        _check(
            "size reduction N=3 to N'=2, Monte Carlo",
            abs(lhs.mean - rhs.mean),
            4 * lhs.combined_se(rhs),
        )
    )
    return out


# --------------------------------------------------------------------------


def fredholm(seed: int = 5678) -> list:
    """Agreement of the three generating-function routes."""
    out = []
    xi = _simple(0.0, 2.0)
    kern = ker.general_kernel(bm(), xi)
    spec = fred.TestFunctionSpec(
        (0.8,), (fred.ContinuousChi.indicator(-1.0, 2.5, -0.6),)
    )
    series = fred.fredholm_series(kern, spec)
    shortcut = fred.finite_rank_det(kern, spec)
    out.append(_check("series equals finite-rank shortcut (BM)", abs(series - shortcut), 1e-8))
    est = fred.mgf_monte_carlo(bm(), xi, spec, 100_000, seed=seed)
    out.append(
        _check(
            "series equals weighted Monte Carlo (BM)",
            abs(est.mean - series),
            4 * est.std_error,
        )
    )

    chi1 = fred.SiteChi(((0, 0.5), (2, -0.4)))
    chi2 = fred.SiteChi(((-2, 0.3), (2, 0.2), (4, -0.5)))
    spec2 = fred.TestFunctionSpec((2, 4), (chi1, chi2))
    kern_rw = ker.rw_kernel(xi)
    series2 = fred.fredholm_series(kern_rw, spec2)

    def F(p):
        return np.prod(1.0 + chi1(p[:, 0, :]), axis=1) * np.prod(
            1.0 + chi2(p[:, 1, :]), axis=1
        )

    free, doob = sim.brute_force_rw(xi, F, [2, 4], T=4)
    out.append(_check("walk series equals enumeration (two times)", abs(series2 - doob), 1e-10))
    out.append(_check("walk free route equals enumeration", abs(free - doob), 1e-12))
    est2 = fred.mgf_monte_carlo(rw(), xi, spec2, 100_000, seed=seed + 1, T=4)
    out.append(
        _check(
            "walk Monte Carlo matches enumeration",
            abs(est2.mean - doob),
            4 * est2.std_error,
        )
    )
    return out


# --------------------------------------------------------------------------


def relaxation() -> list:
    """Long-time convergence to the sine and Bessel kernels."""
    out = []
    ladder = [1.0, 4.0, 16.0, 64.0]
    disc, moves = ker.relaxation_probe("sine", 0.5, 0.3, 1.0, -0.2, ladder)
    mono = all(b < a for a, b in zip(disc, disc[1:]))
    out.append(_check("sine probe strictly decreasing", 0.0 if mono else 1.0, 0.5))
    out.append(_check("sine probe final distance", disc[-1], 5e-2))
    out.append(_check("sine probe truncation stability", max(moves), 1e-8))
    disc, moves = ker.relaxation_probe("bessel", 0.5, 1.3, 1.0, 2.2, ladder)
    mono = all(b < a for a, b in zip(disc, disc[1:]))
    out.append(_check("bessel probe strictly decreasing", 0.0 if mono else 1.0, 0.5))
    out.append(_check("bessel probe final distance", disc[-1], 5e-2))
    out.append(_check("bessel probe truncation stability", max(moves), 1e-8))
    return out


# --------------------------------------------------------------------------


def oconnell(seed: int = 6789) -> list:
    """Lifted-observable identities and the reciprocal-time reference."""
    out = []
    rng = np.random.default_rng(seed)
    nu_hat = _simple(-1.0, 1.0)

    worst = 0.0
    for a in (0.1, 1.0):
        sup = [-1.3, 0.4, 1.1, 2.45]
        conf = _simple(*sup)
        for j, vj in enumerate(sup):
            for k, vk in enumerate(sup):
                val = oc.phi_lift(conf, vk, a, complex(vj))
                worst = max(worst, abs(val - (1.0 if j == k else 0.0)))
    out.append(_check("lifted cardinal functions are Kronecker", worst, 1e-10))

    conf = _simple(-1.0, 0.5, 2.0)
    xs = rng.uniform(-3, 3, size=20) + 1j * rng.uniform(-1, 1, size=20)
    ratios = []
    for u in conf.support():
        base = cfg.phi_simple(conf, u, xs)
        e3 = np.abs(oc.phi_lift(conf, u, 1e-3, xs) - base)
        e4 = np.abs(oc.phi_lift(conf, u, 1e-4, xs) - base)
        ratios.append(e3 / np.maximum(e4, 1e-300))
    ratios = np.concatenate(ratios)
    dev = float(np.max(np.abs(ratios / 10.0 - 1.0)))
    out.append(_check("combinatorial-limit deviation scales linearly in a", dev, 0.2))

    params_small = oc.LiftParams(a=1e-3, nu_hat=nu_hat, t=1.0, h=0.0)
    est_cpr = oc.oconnell_theta_cpr(params_small, 100_000, seed=seed)
    ref = oc.reciprocal_reference(nu_hat, 1.0, 0.0, 100_000, seed=seed + 1)
    out.append(
        _check(
            "small-lift estimate matches the reciprocal reference",
            abs(est_cpr.mean.real - ref.mean),
            4 * est_cpr.combined_se(ref),
        )
    )

    params = oc.LiftParams(a=0.1, nu_hat=nu_hat, t=1.0, h=0.0)
    a_est = oc.oconnell_theta_cpr(params, 100_000, seed=seed + 2)
    b_est = oc.oconnell_theta_dmr(params, 30_000, seed=seed + 3)
    out.append(
        _check(
            "complex and quadrature routes agree",
            abs(a_est.mean.real - b_est.mean.real),
            4 * a_est.combined_se(b_est),
        )
    )
    return out


SUITES = {
    "identities": identities,
    "martingales": martingales,
    "dmr_rw": dmr_rw,
    "dmr_bm": dmr_bm,
    "fredholm": fredholm,
    "relaxation": relaxation,
    "oconnell": oconnell,
}


def run_suite(name: str) -> list:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
