import math

import numpy as np
import pytest

from detmart import configurations as cfg
from detmart import kernels as ker
from detmart import quadrature, specfun
from detmart.errors import DomainError
from detmart.processes import besq, bm


def km_density(process, t, x, u):
    """Karlin-McGregor h-transform density: h(x)/h(u) det[p(t, x_j | u_k)]."""
    mat = np.array(
        [[specfun.transition_density(process, t, xj, uk) for uk in u] for xj in x]
    )
    return cfg.vandermonde(x) / cfg.vandermonde(u) * float(np.linalg.det(mat))


# ---- oracles of the infinite-configuration kernels: the martingales of
# the lattice and of the squared Bessel zeros, and the direct zero sum ----

# absolute tolerance of the oracle martingale integrals
_QUAD_TOL = 1e-10


def lattice_martingale(k, t, x):
    """Integral-transform martingale of the full integer lattice at site k.

    (1/pi) int_0^pi exp(t L^2 / 2) cos(L (x - k)) dL.  At t = 0 this is
    sin(pi (x - k)) / (pi (x - k)).
    """
    m = x - k

    def f(lam):
        return np.exp(t * lam * lam / 2.0) * np.cos(lam * m)

    val = quadrature.adaptive_gauss_legendre(f, 0.0, math.pi, _QUAD_TOL)
    return val / math.pi


def besselzero_martingale(nu, k, t, x, zeros):
    """Martingale of the squared-Bessel-zero configuration at the k-th zero.

    (j^2/x)^{nu/2} / J_{nu+1}(j)^2 int_0^1 e^{L t / 2}
    J_nu(sqrt(L x)) J_nu(sqrt(L) j) dL with j = j_{nu,k}; the x^{nu/2}
    singularity is folded into an entire series so x = 0 is allowed.
    """
    j = zeros[k - 1]
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

    val = quadrature.adaptive_gauss_legendre(f, 0.0, 1.0, _QUAD_TOL)
    return val / (jn1 * jn1)


def besselzero_kernel_direct(nu, s, x, t, y, zeros):
    """Direct zero-by-zero sum of the squared-Bessel-zero kernel, one term
    per entry of ``zeros``.

    Terms carry a factor e^{t/2} against an O(1) result, so cancellation
    limits this route to small times.
    """
    assert math.exp(t / 2.0) * 1e-15 <= 0.1 * ker.QUADRATURE_TOL
    acc = 0.0
    proc = besq(nu)
    for k, zero in enumerate(zeros, start=1):
        p = specfun.transition_density(proc, s, x, zero**2)
        if p == 0.0:
            continue
        acc += p * besselzero_martingale(nu, k, t, y, zeros)
    if s > t:
        acc -= specfun.transition_density(proc, s - t, x, y)
    return acc


class TestKernelEval:
    def test_single_particle_equal_time(self):
        xi = cfg.PointConfiguration.from_points([0.7])
        k = ker.general_kernel(bm(), xi)
        t, x = 1.3, 0.4
        want = specfun.transition_density(bm(), t, x, 0.7)
        assert ker.kernel_eval(k, t, x, t, x) == pytest.approx(want, rel=1e-12)

    def test_rw_single_particle(self):
        xi = cfg.PointConfiguration.from_points([0.0])
        k = ker.rw_kernel(xi)
        assert ker.kernel_eval(k, 1, 1, 1, 1) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "cached",
        [
            lambda xi: ker._phi_coeff_matrix(xi),
            lambda xi: ker._twotime_coeff_matrix(bm(), xi, 1.0, 0.5),
            lambda xi: quadrature.gauss_legendre(8)[1],
            lambda xi: quadrature.gauss_hermite(8)[0],
            lambda xi: quadrature.gauss_laguerre_general(0.5, 8)[1],
            lambda xi: specfun.cosh_neg_power_series(3, 4),
        ],
    )
    def test_cached_arrays_are_read_only(self, cached):
        # lru_cache hands the same array to every caller
        arr = cached(cfg.PointConfiguration.from_points([0.0, 1.0]))
        with pytest.raises(TypeError if isinstance(arr, tuple) else ValueError):
            arr[0] = 1.0

    def test_rw_parity_zero(self):
        xi = cfg.PointConfiguration.from_points([0.0])
        k = ker.rw_kernel(xi)
        assert ker.kernel_eval(k, 1, 0, 1, 1) == 0.0
        assert ker.kernel_eval(k, 1, 1, 1, 0) == 0.0


# per variant: the kernel, its x and y axes, and times (lo, hi); every grid
# runs at t > s, t < s and t = s.  The Bessel axes reach the Miller branch
# (x > 81) and share values, so its t = s grid has diagonal cells
GRID_CASES = {
    "general": (
        lambda: ker.general_kernel(bm(), cfg.PointConfiguration.from_points([0.0, 2.0])),
        [-1.0, 0.5, 2.0], [0.3, 2.0], (0.7, 1.3),
    ),
    "rw": (
        lambda: ker.rw_kernel(cfg.PointConfiguration.from_points([0.0, 2.0])),
        [-2.0, -1.0, 0.0, 1.0, 3.0], [0.0, 1.0, 2.0, 4.0], (2, 4),
    ),
    "multipoint": (
        lambda: ker.multipoint_kernel(besq(0.5), cfg.PointConfiguration(((0.0, 2),))),
        [0.4, 1.5, 3.0], [0.6, 1.5], (0.6, 1.2),
    ),
    "extended_hermite": (
        lambda: ker.extended_hermite_kernel(3), [-1.5, 0.2, 1.1], [-0.4, 1.1], (0.5, 1.4),
    ),
    "extended_laguerre": (
        lambda: ker.extended_laguerre_kernel(2, 0.5), [0.4, 1.5, 3.0], [0.6, 1.5], (0.6, 1.2),
    ),
    "sine": (lambda: ker.sine_kernel(), [-1.0, 0.0, 0.5], [0.0, 0.5, 1.7], (0.4, 1.1)),
    "bessel": (lambda: ker.bessel_kernel(0.5), [0.5, 20.0, 90.0], [2.0, 20.0, 95.0], (0.4, 1.1)),
}


class TestKernelGrid:
    @pytest.mark.parametrize("variant", ker.VARIANTS)
    def test_grid_cells_match_kernel_eval(self, variant):
        make, xs, ys, (lo, hi) = GRID_CASES[variant]
        k = make()
        mid = (lo + hi) // 2 if variant == "rw" else 0.5 * (lo + hi)
        for s, t in ((lo, hi), (hi, lo), (mid, mid)):
            grid = ker.kernel_eval_grid(k, s, xs, t, ys)
            assert grid.shape == (len(xs), len(ys))
            for i, xv in enumerate(xs):
                for j, yv in enumerate(ys):
                    assert grid[i, j] == pytest.approx(
                        ker.kernel_eval(k, s, xv, t, yv), rel=1e-12
                    )

    def test_bessel_equal_time_origin_raises(self):
        k = ker.bessel_kernel(0.5)
        with pytest.raises(DomainError):
            ker.kernel_eval_grid(k, 1.0, [0.0, 1.0], 1.0, [0.0, 2.0])

    def test_closed_forms_keep_scalars_scalar(self):
        vals = [
            ker.kernel_extended_hermite(3, 0.5, 0.2, 1.4, -0.4),
            ker.kernel_extended_laguerre(2, 0.5, 1.2, 0.4, 0.6, 1.5),
            ker.kernel_sine(0.0, 0.3),
            ker.kernel_sine(-0.7, 0.3),
            ker.kernel_bessel(0.5, 0.0, 2.0, 20.0),
            ker.kernel_bessel(0.5, 0.7, 2.0, 20.0),
        ]
        assert all(type(v) is float for v in vals)


class TestExtendedKernels:
    def test_hermite_gauge_matches_multipoint(self):
        N = 3
        xi = cfg.PointConfiguration(((0.0, N),))
        kmp = ker.multipoint_kernel(bm(), xi)
        rng = np.random.default_rng(5)
        for _ in range(8):
            s, t = rng.uniform(0.2, 2.0, size=2)
            x, y = rng.uniform(-2, 2, size=2)
            a = ker.kernel_eval(kmp, s, x, t, y)
            # the gauge linking the concentrated-start kernel to the Hermite one
            gauge = math.exp(-x * x / (4.0 * s) + y * y / (4.0 * t))
            b = gauge * ker.kernel_extended_hermite(N, s, x, t, y)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    def test_laguerre_gauge_matches_multipoint(self):
        N, nu = 2, 0.5
        xi = cfg.PointConfiguration(((0.0, N),))
        kmp = ker.multipoint_kernel(besq(nu), xi)
        rng = np.random.default_rng(7)
        for _ in range(8):
            s, t = rng.uniform(0.3, 1.5, size=2)
            x, y = rng.uniform(0.3, 4.0, size=2)
            a = ker.kernel_eval(kmp, s, x, t, y)
            b = ker.laguerre_gauge(nu, s, x, t, y) * ker.kernel_extended_laguerre(
                N, nu, s, x, t, y
            )
            assert abs(a - b) <= 1e-7 * max(1.0, abs(a))

    @pytest.mark.parametrize(
        "kernel, first_bad_rank",
        [
            (lambda size, s, t: ker.kernel_extended_hermite(size, s, 0.2, t, -0.4), 152),
            (lambda size, s, t: ker.kernel_extended_laguerre(size, 0.5, s, 0.4, t, 1.5), 172),
        ],
        ids=["hermite", "laguerre"],
    )
    def test_refuses_nonpositive_times_and_unnormalisable_rank(self, kernel, first_bad_rank):
        for s, t in ((0.0, 1.0), (1.0, 0.0), (-0.5, 1.0), (1.0, -0.5)):
            with pytest.raises(DomainError):
                kernel(3, s, t)
        # 2^n n! overflows a double from n = 151 and Gamma(n + 3/2) from
        # n = 171; the Hermite terms past it used to drop out silently
        assert math.isfinite(kernel(first_bad_rank - 1, 0.5, 1.4))
        for size in (0, first_bad_rank, 200):
            with pytest.raises(DomainError):
                kernel(size, 0.5, 1.4)

    def test_equal_time_diagonal_mass(self):
        # trace of the rank-N projection: integral over R equals N
        N, t = 2, 1.0
        nodes, weights = np.polynomial.legendre.leggauss(400)
        a, b = -14.0, 14.0
        xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        w = 0.5 * (b - a) * weights
        vals = np.array([ker.kernel_extended_hermite(N, t, x, t, x) for x in xs])
        assert float(w @ vals) == pytest.approx(N, abs=1e-6)

    def test_equal_time_hermitian(self):
        N, t = 4, 0.9
        rng = np.random.default_rng(8)
        for _ in range(10):
            x, y = rng.uniform(-3, 3, size=2)
            a = ker.kernel_extended_hermite(N, t, x, t, y)
            b = ker.kernel_extended_hermite(N, t, y, t, x)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_mehler_subtraction_consistency(self):
        # the s > t subtraction equals the full oscillator sum
        s, t, x, y = 1.7, 0.6, 0.8, -0.4
        tail = sum(
            (t / s) ** (n / 2.0)
            * ker._hermite_fn(n, x / math.sqrt(2 * s))
            * ker._hermite_fn(n, y / math.sqrt(2 * t))
            for n in range(120)
        ) / math.sqrt(2 * s)
        sub = math.exp(x * x / (4 * s) - y * y / (4 * t)) * specfun.transition_density(
            bm(), s - t, x, y
        )
        assert tail == pytest.approx(sub, rel=1e-12)

    def test_hardy_hille_subtraction_consistency(self):
        nu, s, t, x, y = 0.5, 1.4, 0.5, 1.1, 2.3
        tail = sum(
            (t / s) ** n
            * ker._laguerre_fn(n, nu, x / (2 * s))
            * ker._laguerre_fn(n, nu, y / (2 * t))
            for n in range(120)
        ) / (2 * s)
        sub = specfun.transition_density(besq(nu), s - t, x, y) / ker.laguerre_gauge(
            nu, s, x, t, y
        )
        assert tail == pytest.approx(sub, rel=1e-12)


class TestSineBesselKernels:
    def test_sine_equal_time_is_sinc(self):
        for x in (0.4, 1.3, -2.7):
            want = math.sin(math.pi * x) / (math.pi * x)
            assert ker.kernel_sine(0.0, x) == pytest.approx(want, abs=1e-12)
        assert ker.kernel_sine(0.0, 0.0) == 1.0

    def test_sine_positive_time_branch(self):
        val = ker.kernel_sine(0.5, -0.5)
        def f(lam):
            return np.exp(math.pi**2 * lam**2 * 0.25) * np.cos(math.pi * lam * 0.5)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        ref = 0.5 * float(weights @ f(0.5 * nodes + 0.5))
        assert val == pytest.approx(ref, abs=1e-9)

    def test_sine_negative_time_decays(self):
        assert abs(ker.kernel_sine(-4.0, 0.3)) < 1e-6

    def test_bessel_equal_time_half_closed_form(self):
        # at nu = 1/2 both J and J' reduce to trigonometric functions
        nu = 0.5
        for x, y in ((1.3, 2.6), (0.7, 0.2)):
            sx, sy = math.sqrt(x), math.sqrt(y)
            jx = math.sqrt(2 / (math.pi * sx)) * math.sin(sx)
            jy = math.sqrt(2 / (math.pi * sy)) * math.sin(sy)
            jdx = (nu / sx) * jx - math.sqrt(2 / (math.pi * sx)) * (
                math.sin(sx) / sx - math.cos(sx)
            )
            jdy = (nu / sy) * jy - math.sqrt(2 / (math.pi * sy)) * (
                math.sin(sy) / sy - math.cos(sy)
            )
            want = (jx * sy * jdy - sx * jdx * jy) / (2 * (x - y))
            assert ker.kernel_bessel(nu, 0.0, y, x) == pytest.approx(want, abs=1e-9)

    def test_bessel_diagonal_matches_branch_limit(self):
        for nu, x in ((0.5, 1.3), (0.0, 2.0), (1.5, 0.6)):
            lim = ker.kernel_bessel(nu, 0.0, x, x)
            near = ker.kernel_bessel(nu, 0.0, x + 1e-7, x)
            assert lim == pytest.approx(near, abs=1e-6)


class TestCorrelation:
    def test_single_point(self):
        xi = cfg.PointConfiguration.from_points([0.0, 2.0])
        k = ker.general_kernel(bm(), xi)
        t, x = 0.9, 1.4
        q = ker.SpaceTimeQuery((t,), ((x,),))
        assert ker.correlation(k, q) == pytest.approx(
            ker.kernel_eval(k, t, x, t, x), rel=1e-12
        )

    def test_full_size_matches_km_density(self):
        xi = cfg.PointConfiguration.from_points([0.0, 2.0])
        k = ker.general_kernel(bm(), xi)
        rng = np.random.default_rng(20)
        for _ in range(20):
            t = rng.uniform(0.3, 2.5)
            x = np.sort(rng.uniform(-3, 5, size=2))
            q = ker.SpaceTimeQuery((t,), (tuple(x),))
            got = ker.correlation(k, q)
            want = km_density(bm(), t, x, [0.0, 2.0])
            assert abs(got - want) <= 1e-8 * max(1e-12, abs(want))

    def test_full_size_matches_km_density_three(self):
        u = [0.0, 1.0, 3.0]
        xi = cfg.PointConfiguration.from_points(u)
        k = ker.general_kernel(bm(), xi)
        rng = np.random.default_rng(21)
        for _ in range(10):
            t = rng.uniform(0.3, 2.0)
            x = np.sort(rng.uniform(-3, 6, size=3))
            q = ker.SpaceTimeQuery((t,), (tuple(x),))
            got = ker.correlation(k, q)
            want = km_density(bm(), t, x, u)
            assert abs(got - want) <= 1e-8 * max(1e-12, abs(want))

    def test_two_time_product_form(self):
        # joint full-size density factorizes through the transition density
        u = [0.0, 2.0]
        xi = cfg.PointConfiguration.from_points(u)
        k = ker.general_kernel(bm(), xi)
        rng = np.random.default_rng(22)
        for _ in range(8):
            t1 = rng.uniform(0.3, 1.0)
            t2 = t1 + rng.uniform(0.3, 1.0)
            x1 = np.sort(rng.uniform(-2, 4, size=2))
            x2 = np.sort(rng.uniform(-2, 4, size=2))
            q = ker.SpaceTimeQuery((t1, t2), (tuple(x1), tuple(x2)))
            got = ker.correlation(k, q)
            want = km_density(bm(), t2 - t1, x2, x1) * km_density(bm(), t1, x1, u)
            assert abs(got - want) <= 1e-7 * max(1e-12, abs(want))

    def test_gauge_invariance(self, monkeypatch):
        xi = cfg.PointConfiguration.from_points([0.0, 2.0])
        k = ker.general_kernel(bm(), xi)
        rng = np.random.default_rng(23)
        queries = []
        for _ in range(6):
            t1 = rng.uniform(0.3, 1.0)
            t2 = t1 + rng.uniform(0.2, 1.0)
            queries.append(ker.SpaceTimeQuery(
                (t1, t2),
                (tuple(np.sort(rng.uniform(-2, 4, 2))), (rng.uniform(-2, 4),)),
            ))
        plain = [ker.correlation(k, q) for q in queries]
        grid = ker.kernel_eval_grid
        calls = []

        def conj_grid(kern, s, xs, t, ys):
            # the Hermite gauge exp(-x^2/4s + y^2/4t), a D K D^{-1} conjugation
            calls.append((s, t))
            gx = np.exp(-np.asarray(xs) ** 2 / (4 * s))
            gy = np.exp(-np.asarray(ys) ** 2 / (4 * t))
            return grid(kern, s, xs, t, ys) * gx[:, None] / gy[None, :]

        monkeypatch.setattr(ker, "kernel_eval_grid", conj_grid)
        for q, a in zip(queries, plain):
            b = ker.correlation(k, q)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
        # one conjugated block per pair of query times
        assert len(calls) == 4 * len(queries)

    def test_nonnegative(self):
        xi = cfg.PointConfiguration.from_points([0.0, 2.0])
        k = ker.general_kernel(bm(), xi)
        rng = np.random.default_rng(24)
        for _ in range(20):
            t = rng.uniform(0.2, 2.0)
            pts = tuple(np.sort(rng.uniform(-3, 5, size=rng.integers(1, 3))))
            val = ker.correlation(k, ker.SpaceTimeQuery((t,), (pts,)))
            assert val >= -1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_refused(self, bad):
        with pytest.raises(DomainError, match="finite"):
            ker.SpaceTimeQuery((1.0,), ((bad,),))
        with pytest.raises(DomainError, match="finite"):
            ker.SpaceTimeQuery((0.5, 1.0), ((0.0,), (1.0, bad)))


class TestGUE:
    def test_single_particle_gaussian(self):
        t = 1.7
        for x in (-1.0, 0.3, 2.0):
            want = math.exp(-x * x / (2 * t)) / math.sqrt(2 * math.pi * t)
            assert ker.gue_density(1, t, [x]) == pytest.approx(want, rel=1e-12)

    def test_normalization(self):
        # integrate over the ordered sector x1 < x2
        t = 1.0
        nodes, weights = np.polynomial.legendre.leggauss(120)
        a, b = -7.0, 7.0
        xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        w = 0.5 * (b - a) * weights
        total = 0.0
        for i, x1 in enumerate(xs):
            inner = np.array(
                [
                    ker.gue_density(2, t, [x1, x2]) if x2 > x1 else 0.0
                    for x2 in xs
                ]
            )
            total += w[i] * float(w @ inner)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_matches_concentrated_kernel(self):
        N, t = 2, 1.3
        xi = cfg.PointConfiguration(((0.0, N),))
        kmp = ker.multipoint_kernel(bm(), xi)
        rng = np.random.default_rng(9)
        for _ in range(5):
            x = np.sort(rng.uniform(-2, 2, size=N))
            q = ker.SpaceTimeQuery((t,), (tuple(x),))
            a = ker.correlation(kmp, q)
            b = ker.gue_density(N, t, x)
            assert abs(a - b) <= 1e-8 * max(1e-12, abs(b))


class TestInfiniteConfigurationMartingales:
    def test_lattice_kronecker(self):
        for j in range(-3, 4):
            for k in range(-3, 4):
                val = lattice_martingale(k, 0.0, float(j))
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)

    def test_lattice_sinc_form(self):
        for x in (0.3, 1.7, -2.4):
            want = math.sin(math.pi * x) / (math.pi * x)
            assert lattice_martingale(0, 0.0, x) == pytest.approx(want, abs=1e-10)

    def test_besselzero_kronecker(self):
        nu = 0.5
        zeros = specfun.bessel_zeros(nu, 3)
        for j in range(1, 4):
            for k in range(1, 4):
                xj = zeros[j - 1] ** 2
                val = besselzero_martingale(nu, k, 0.0, xj, zeros)
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-9)


class TestRelaxation:
    def test_sine_probe(self):
        disc, moves = ker.relaxation_probe("sine", 0.5, 0.3, 1.0, -0.2, [1, 4, 16, 64])
        assert all(d2 < d1 for d1, d2 in zip(disc, disc[1:]))
        assert disc[-1] <= 5e-2
        assert max(moves) < 1e-8

    def test_bessel_probe(self):
        disc, moves = ker.relaxation_probe("bessel", 0.5, 1.3, 1.0, 2.2, [1, 4, 16, 64])
        assert all(d2 < d1 for d1, d2 in zip(disc, disc[1:]))
        assert disc[-1] <= 5e-2
        assert max(moves) < 1e-8

    def test_lattice_kernel_matches_direct_sum_small_time(self):
        # at small shifts the naive site sum is still well conditioned
        def direct(s, x, t, y, window):
            acc = 0.0
            for kk in range(-window, window + 1):
                p = specfun.transition_density(bm(), s, x, float(kk))
                acc += p * lattice_martingale(kk, t, y)
            if s > t:
                acc -= specfun.transition_density(bm(), s - t, x, y)
            return acc

        for (s, x, t, y) in [(0.5, 0.3, 1.0, -0.2), (1.3, 0.3, 0.6, -0.4)]:
            a = direct(s, x, t, y, 24)
            b = ker.lattice_kernel(s, x, t, y)
            assert abs(a - b) <= 1e-10

    def test_besselzero_kernel_matches_direct_sum_small_time(self):
        zeros = specfun.bessel_zeros(0.5, 40)
        for (s, x, t, y) in [(0.5, 1.3, 1.0, 2.2), (1.1, 0.8, 0.4, 1.9)]:
            a = besselzero_kernel_direct(0.5, s, x, t, y, zeros)
            b = ker.besselzero_kernel_half(s, x, t, y)
            assert abs(a - b) <= 1e-9

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            ker.relaxation_probe("cosine", 0.5, 0.3, 1.0, -0.2, [1])
