import math

import numpy as np
import pytest

from detmart import quadrature, specfun
from detmart.errors import DomainError
from detmart.processes import bes, besq, bm, rw


# ---- literal-sum oracles, kept independent of the recurrence code ----


def hermite_sum(n, x):
    total = 0.0
    for j in range(n // 2 + 1):
        total += (
            (-1) ** j
            * math.factorial(n)
            / (math.factorial(j) * math.factorial(n - 2 * j))
            * (2.0 * x) ** (n - 2 * j)
        )
    return total


def laguerre_sum(n, nu, x):
    total = 0.0
    for j in range(n + 1):
        total += (
            (-1) ** j
            * math.gamma(n + nu + 1.0)
            / (math.gamma(nu + j + 1.0) * math.factorial(n - j) * math.factorial(j))
            * x**j
        )
    return total


class TestGamma:
    def test_classical_values(self):
        assert specfun.gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert specfun.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert specfun.gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            specfun.gamma(0.0)
        with pytest.raises(DomainError):
            specfun.gamma(-3.0)

    def test_recurrence_random(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.5, 20.0, size=100):
            lhs = specfun.gamma(x + 1.0)
            rhs = x * specfun.gamma(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_complex_reflection(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z - round(z.real)) < 0.05 and abs(z.imag) < 0.05:
                continue
            lhs = specfun.gamma(z) * specfun.gamma(1.0 - z)
            rhs = math.pi / np.sin(math.pi * z)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_complex_matches_real_axis(self):
        for x in (0.7, 1.3, 4.5, 12.0, 29.0):
            assert specfun.gamma(complex(x, 0.0)).real == pytest.approx(
                specfun.gamma(x), rel=1e-12
            )

    def test_log_gamma_consistency(self):
        rng = np.random.default_rng(13)
        z = rng.uniform(-4, 6, size=40) + 1j * rng.uniform(-5, 5, size=40)
        z = z[np.abs(z.imag) > 0.1]
        vals = np.exp(specfun.log_gamma(z))
        ref = np.array([specfun.gamma(complex(w)) for w in z])
        assert np.max(np.abs(vals - ref) / np.abs(ref)) < 1e-10


class TestOrthogonalPolynomials:
    def test_hermite_base_cases(self):
        assert specfun.hermite(0, 0.37) == 1.0
        assert specfun.hermite(1, 3.0) == pytest.approx(hermite_sum(1, 3.0), rel=1e-14)
        assert specfun.hermite(2, 1.0) == pytest.approx(hermite_sum(2, 1.0), rel=1e-14)

    def test_hermite_matches_sum(self):
        rng = np.random.default_rng(3)
        for n in range(11):
            for x in rng.uniform(-3, 3, size=5):
                assert specfun.hermite(n, x) == pytest.approx(
                    hermite_sum(n, x), rel=1e-10, abs=1e-10
                )

    def test_hermite_recurrence(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-10, 10, size=20)
        for n in range(1, 51):
            lhs = specfun.hermite(n + 1, xs)
            rhs = 2 * xs * specfun.hermite(n, xs) - 2 * n * specfun.hermite(n - 1, xs)
            scale = np.maximum(np.abs(lhs), 1.0)
            assert np.max(np.abs(lhs - rhs) / scale) < 1e-10

    def test_laguerre_base_cases(self):
        assert specfun.laguerre(0, 0.7, 2.0) == 1.0
        nu = 0.3
        assert specfun.laguerre(1, nu, 1.7) == pytest.approx(nu + 1 - 1.7, rel=1e-14)
        assert specfun.laguerre(2, 0.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_laguerre_matches_sum(self):
        rng = np.random.default_rng(9)
        for n in range(9):
            nu = rng.uniform(-0.9, 3.0)
            for x in rng.uniform(0, 6, size=4):
                assert specfun.laguerre(n, nu, x) == pytest.approx(
                    laguerre_sum(n, nu, x), rel=1e-9, abs=1e-9
                )

    def test_laguerre_ode_residual(self):
        # x L'' + (nu + 1 - x) L' + n L = 0; five-point central differences
        # keep both truncation and rounding below the 1e-6 target for n <= 20
        h = 2e-3
        for n in range(1, 21):
            for nu, x in ((0.5, 1.3), (-0.4, 2.6), (2.0, 0.8)):
                l = [specfun.laguerre(n, nu, x + k * h) for k in (-2, -1, 0, 1, 2)]
                d1 = (l[0] - 8 * l[1] + 8 * l[3] - l[4]) / (12 * h)
                d2 = (-l[0] + 16 * l[1] - 30 * l[2] + 16 * l[3] - l[4]) / (
                    12 * h * h
                )
                res = x * d2 + (nu + 1 - x) * d1 + n * l[2]
                assert abs(res) < 1e-6


class TestBessel:
    def test_j_zero_argument(self):
        assert specfun.bessel_j(0.0, 0.0) == 1.0
        assert specfun.bessel_j(0.5, 0.0) == 0.0

    def test_j_half_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        for x in (0.3, 1.0, math.pi, 7.7, 20.0, 41.3):
            ref = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert specfun.bessel_j(0.5, x) == pytest.approx(ref, abs=1e-12)
        assert abs(specfun.bessel_j(0.5, math.pi)) < 1e-12

    def test_j_three_half_closed_form(self):
        for x in (0.5, 2.0, 9.5, 30.0):
            ref = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
            assert specfun.bessel_j(1.5, x) == pytest.approx(ref, abs=1e-12)

    def test_j_seam_consistency(self):
        # series and Miller branches agree around the x = 9 switch, and one
        # array call takes each element through its own branch
        xs = np.array([8.9, 9.0, 9.1])
        for nu in (0.0, 0.5, 2.3, 11.0, 20.0):
            j_series = np.exp(nu * np.log(xs / 2.0)) * specfun.entire_bessel_series(
                nu, -(xs * xs) / 4.0
            )
            j_miller = specfun._bessel_j_miller(nu, xs)[0]
            assert np.max(np.abs(j_series - j_miller)) < 1e-11
            want = np.where(xs <= 9.0, j_series, j_miller)
            assert np.max(np.abs(specfun.bessel_j(nu, xs) - want)) < 1e-15

    def test_j_recurrence_large_order(self):
        # 2 nu / x J_nu = J_{nu-1} + J_{nu+1}, exercised at desk-scale x
        for nu in (1.0, 5.5, 19.0):
            for x in (4.0, 13.7, 50.0):
                lhs = (2 * nu / x) * specfun.bessel_j(nu, x)
                rhs = specfun.bessel_j(nu - 1.0, x) + specfun.bessel_j(nu + 1.0, x)
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_i_small_argument_leading_term(self):
        x, nu = 1e-6, 1.0
        ref = (x / 2.0) ** nu / math.gamma(nu + 1.0)
        assert specfun.bessel_i(nu, x) == pytest.approx(ref, rel=1e-10)

    def test_i_half_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
        for x in (0.2, 1.0, 5.0, 24.0, 50.0):
            ref = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
            assert specfun.bessel_i(0.5, x) == pytest.approx(ref, rel=1e-12)

    def test_zeros_half_are_pi_multiples(self):
        table = specfun.bessel_zeros(0.5, 6)
        for k, z in enumerate(table.zeros, start=1):
            assert z == pytest.approx(k * math.pi, abs=1e-11)

    def test_zeros_invariants(self):
        for nu in (0.0, 0.5, 1.7, 6.0):
            table = specfun.bessel_zeros(nu, 12)
            zs = np.array(table.zeros)
            assert (np.diff(zs) > 0).all()
            for z in zs:
                assert abs(specfun.bessel_j(nu, z)) <= 1e-12

    def test_zero_count_bound(self):
        with pytest.raises(DomainError):
            specfun.bessel_zeros(0.5, 501)


class TestThetaSoften:
    def test_at_zero(self):
        assert specfun.theta_soften(1.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_limits(self):
        assert abs(specfun.theta_soften(0.01, 1.0) - 1.0) < 1e-12
        assert specfun.theta_soften(0.01, -1.0) < 1e-12


class TestCoshNegSeries:
    def test_t_zero(self):
        ps = specfun.cosh_neg_power_series(0, 6)
        assert ps.coeffs[0] == 1.0
        assert all(c == 0.0 for c in ps.coeffs[1:])

    def test_t_one(self):
        ps = specfun.cosh_neg_power_series(1, 2)
        assert ps.coeffs[0] == pytest.approx(1.0, abs=1e-15)
        assert ps.coeffs[1] == pytest.approx(0.0, abs=1e-15)
        assert ps.coeffs[2] == pytest.approx(-0.5, abs=1e-14)

    def test_t_two_is_square(self):
        ps = specfun.cosh_neg_power_series(2, 2)
        assert ps.coeffs[2] == pytest.approx(-1.0, abs=1e-14)

    def test_against_direct_evaluation(self):
        # compare the truncated series with sech(a)^t at small a
        t, order, a = 5, 16, 0.15
        ps = specfun.cosh_neg_power_series(t, order)
        approx = sum(c * a**k for k, c in enumerate(ps.coeffs))
        exact = math.cosh(a) ** (-t)
        assert approx == pytest.approx(exact, abs=1e-13)


class TestTransitionDensity:
    def test_rw_single_step(self):
        assert specfun.transition_density(rw(), 1, 1, 0) == 0.5
        assert specfun.transition_density(rw(), 1, 2, 0) == 0.0
        assert specfun.transition_density(rw(), 1, -1, 0) == 0.5

    def test_rw_normalization(self):
        for t in range(1, 21):
            total = sum(
                specfun.rw_transition(t, y, 0) for y in range(-t, t + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_bm_normalization_quadrature(self):
        nodes, weights = np.polynomial.legendre.leggauss(200)
        a, b = -12.0, 12.0
        y = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        w = 0.5 * (b - a) * weights
        vals = specfun.transition_density(bm(), 1.0, y, 0.0)
        assert float(w @ vals) == pytest.approx(1.0, abs=1e-10)

    def test_besq_normalization_quadrature(self):
        # substitute y = u^2 to tame the y^nu endpoint behaviour
        nodes, weights = np.polynomial.legendre.leggauss(400)
        a, b = 0.0, math.sqrt(90.0)
        u = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        w = 0.5 * (b - a) * weights
        for nu, x in ((0.5, 1.0), (-0.3, 2.0), (2.0, 0.0)):
            vals = specfun.transition_density(besq(nu), 1.3, u * u, x) * 2 * u
            assert float(w @ vals) == pytest.approx(1.0, abs=1e-7)

    def test_bes_matches_besq_change_of_variables(self):
        yv = np.linspace(0.05, 5.0, 40)
        for nu, x in ((0.5, 1.0), (1.5, 0.7)):
            lhs = specfun.transition_density(bes(nu), 0.8, yv, x)
            rhs = specfun.transition_density(besq(nu), 0.8, yv * yv, x * x) * 2 * yv
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            specfun.transition_density(bm(), -1.0, 0.0, 0.0)

    @pytest.mark.parametrize("proc", [bm(), besq(0.5), bes(1.5), rw()], ids=str)
    def test_broadcasts_over_start(self, proc):
        ys = np.array([0.0, 1.0, 2.0, 3.0])
        xs = np.array([1.0, 3.0])
        grid = specfun.transition_density(proc, 2.0, ys[:, None], xs[None, :])
        for i, yv in enumerate(ys):
            for j, xv in enumerate(xs):
                want = specfun.transition_density(proc, 2.0, yv, xv)
                assert grid[i, j] == pytest.approx(want, rel=1e-14, abs=1e-300)


class TestAdaptiveQuadrature:
    def test_vector_integrand_matches_scalar_calls(self):
        # smooth, oscillating and root-singular components share one panel tree
        comps = [
            lambda x: np.exp(-3.0 * x),
            lambda x: np.cos(40.0 * x),
            lambda x: np.sqrt(x),
            lambda x: np.zeros_like(x),
        ]

        def f(x):
            return np.stack([c(x) for c in comps]).reshape(2, 2, -1)

        got = quadrature.adaptive_gauss_legendre(f, 0.0, 1.0, 1e-10)
        assert got.shape == (2, 2)
        want = [quadrature.adaptive_gauss_legendre(c, 0.0, 1.0, 1e-10) for c in comps]
        assert np.max(np.abs(got.ravel() - want)) <= 1e-12
        exact = [(1.0 - math.exp(-3.0)) / 3.0, math.sin(40.0) / 40.0, 2.0 / 3.0, 0.0]
        assert np.max(np.abs(got.ravel() - exact)) <= 1e-10

    def test_scalar_integrand_gives_float(self):
        val = quadrature.adaptive_gauss_legendre(np.cos, 0.0, 1.0, 1e-12)
        assert type(val) is float
        assert val == pytest.approx(math.sin(1.0), abs=1e-12)
