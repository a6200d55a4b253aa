import math

import numpy as np
import pytest

from detmart import configurations as cfg
from detmart import martingales as mart
from detmart import quadrature, specfun
from detmart.errors import DomainError
from detmart.processes import besq, bm, rw


def simple(*points):
    return cfg.PointConfiguration.from_points(points)


class TestPolynomialMartingales:
    def test_poly_values_keeps_longdouble(self):
        x = np.array([[0.5, 2.0], [1.0, 3.0]], dtype=np.longdouble)
        vals = mart.poly_values(besq(0.5), 3, 1.0, x)
        assert vals.dtype == np.longdouble and vals.shape == (2, 2, 4)
        np.testing.assert_allclose(
            vals.astype(float), mart.poly_values(besq(0.5), 3, 1.0, x.astype(float))
        )

    @pytest.mark.parametrize("check", [0, 1])
    def test_weight_identity_checks_catch_a_broken_factor(self, monkeypatch, check):
        # the verify checks behind the closed-form weights must fail when
        # m_l stops being monic or a cardinal polynomial changes sign
        from detmart import verify

        if check == 0:
            coeffs = mart.poly_coeffs

            def broken(process, n, t):
                return coeffs(process, n, t) * (1.0 + 1e-6 * n)

            monkeypatch.setattr(mart, "poly_coeffs", broken)
        else:
            phi = cfg.phi_simple

            def broken(xi, u, z):
                return -phi(xi, u, z) if u == xi.support()[0] else phi(xi, u, z)

            monkeypatch.setattr(cfg, "phi_simple", broken)
        checks = verify._weight_identities(np.random.default_rng(0))
        assert checks[check]["status"] == "fail"
        assert checks[1 - check]["status"] == "pass"

    def test_rw_m2(self):
        for t in (0, 1, 3, 7):
            for x in (-4, 0, 2, 5):
                assert mart.poly_martingale(rw(), 2, t, x) == pytest.approx(
                    x * x - t, abs=1e-11
                )

    def test_rw_m4(self):
        for t in (0, 1, 2, 6):
            for x in (-3, 1, 4):
                want = x**4 - 6 * t * x**2 + (3 * t + 2) * t
                assert mart.poly_martingale(rw(), 4, t, x) == pytest.approx(
                    want, rel=1e-11, abs=1e-9
                )

    def test_bm_m2(self):
        for t in (0.0, 0.5, 2.0):
            for x in (-1.3, 0.0, 2.2):
                assert mart.poly_martingale(bm(), 2, t, x) == pytest.approx(
                    x * x - t, abs=1e-12
                )

    def test_bm_matches_hermite_form(self):
        rng = np.random.default_rng(2)
        for n in range(9):
            t = rng.uniform(0.2, 3.0)
            x = rng.uniform(-3, 3)
            want = (t / 2.0) ** (n / 2.0) * specfun.hermite(n, x / math.sqrt(2 * t))
            assert mart.poly_martingale(bm(), n, t, x) == pytest.approx(
                want, rel=1e-10, abs=1e-10
            )

    def test_besq_matches_laguerre_form(self):
        rng = np.random.default_rng(4)
        nu = 0.7
        for n in range(9):
            t = rng.uniform(0.2, 3.0)
            x = rng.uniform(0.0, 5.0)
            want = (
                (-1.0) ** n
                * math.factorial(n)
                * (2 * t) ** n
                * specfun.laguerre(n, nu, x / (2 * t))
            )
            assert mart.poly_martingale(besq(nu), n, t, x) == pytest.approx(
                want, rel=1e-10, abs=1e-10
            )

    def test_monic_and_initial_condition(self):
        for proc in (bm(), besq(0.5), rw()):
            for n in range(7):
                co = mart.poly_coeffs(proc, n, 0.0)
                assert co[n] == pytest.approx(1.0)
                assert np.allclose(co[:n], 0.0, atol=1e-12)

    def test_fujita_recurrence_exact(self):
        for n in range(11):
            for t in range(11):
                for x in range(-10, 11):
                    lhs = mart.poly_martingale(rw(), n, t, x)
                    rhs = 0.5 * (
                        mart.poly_martingale(rw(), n, t + 1, x + 1)
                        + mart.poly_martingale(rw(), n, t + 1, x - 1)
                    )
                    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestGeneratingFunction:
    def test_alpha_zero(self):
        for proc in (bm(), besq(1.2), rw()):
            assert mart.generating_function(proc, 0.0, 2.0 if proc.tag != "RW" else 2, 0.9 if proc.tag != "RW" else 1) == pytest.approx(1.0)

    def test_bm_closed_form(self):
        a, t, x = 0.37, 1.4, -0.8
        want = math.exp(a * x - t * a * a / 2)
        assert mart.generating_function(bm(), a, t, x) == pytest.approx(want, rel=1e-14)

    def test_series_matches_generating_function(self):
        # entire in alpha for BM and RW, so 12 terms reach 1e-8; the BESQ
        # series has radius 1/(2t) and needs the longer truncation
        a = 0.3
        cases = [(bm(), 1.0, 0.7, 13), (rw(), 1, 1, 13), (besq(0.5), 1.0, 0.7, 49)]
        for proc, t, x, nmax in cases:
            total = sum(
                mart.poly_martingale(proc, n, t, x) * a**n / math.factorial(n)
                for n in range(nmax)
            )
            closed = mart.generating_function(proc, a, t, x)
            assert abs(total - closed) <= 1e-8

    def test_besq_singularity(self):
        with pytest.raises(DomainError):
            mart.generating_function(besq(0.5), -0.5, 1.0, 1.0)


class TestMartingaleTransform:
    def test_kronecker_at_time_zero(self):
        xi = simple(-1.0, 0.5, 2.0)
        for proc in (bm(), rw()):
            for j, uj in enumerate(xi.support()):
                for k, uk in enumerate(xi.support()):
                    val = mart.martingale_transform(proc, xi, uk, 0.0, uj)
                    assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)

    def test_single_point_is_one(self):
        xi = simple(1.5)
        for t, y in ((0.0, 1.5), (2.0, -3.0), (0.7, 8.0)):
            assert mart.martingale_transform(bm(), xi, 1.5, t, y) == pytest.approx(1.0)

    def test_routes_agree_bm(self):
        xi = simple(-1.0, 0.0, 2.0)
        rng = np.random.default_rng(12)
        for _ in range(20):
            t = rng.uniform(0.1, 3.0)
            y = rng.uniform(-4, 4)
            a = mart.martingale_transform(bm(), xi, 0.0, t, y, route="coefficient")
            b = mart.martingale_transform(bm(), xi, 0.0, t, y, route="quadrature")
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    def test_routes_agree_besq(self):
        xi = simple(0.5, 2.0, 4.0)
        rng = np.random.default_rng(14)
        for _ in range(10):
            t = rng.uniform(0.2, 2.0)
            y = rng.uniform(0.0, 5.0)
            a = mart.martingale_transform(besq(0.5), xi, 2.0, t, y, "coefficient")
            b = mart.martingale_transform(besq(0.5), xi, 2.0, t, y, "quadrature")
            assert abs(a - b) <= 1e-7 * max(1.0, abs(a))


def hermite_pair_sum(N, s, x, t, y):
    # sum_{n<N} (t/s)^{n/2} H_n(x/sqrt(2s)) H_n(y/sqrt(2t)) / (n! 2^n)
    total = 0.0
    for n in range(N):
        total += (
            (t / s) ** (n / 2.0)
            * specfun.hermite(n, x / math.sqrt(2 * s))
            * specfun.hermite(n, y / math.sqrt(2 * t))
            / (math.factorial(n) * 2.0**n)
        )
    return total


def laguerre_pair_sum(N, nu, s, x, t, y):
    # Gamma(nu+1) sum_{n<N} (n!/Gamma(n+nu+1)) (t/s)^n L_n(x/2s) L_n(y/2t)
    total = 0.0
    for n in range(N):
        total += (
            math.gamma(nu + 1.0)
            * math.factorial(n)
            / math.gamma(n + nu + 1.0)
            * (t / s) ** n
            * specfun.laguerre(n, nu, x / (2 * s))
            * specfun.laguerre(n, nu, y / (2 * t))
        )
    return total


class TestMartingaleTransformObject:
    def test_bound_evaluator(self):
        xi = simple(0.0, 2.0)
        bound = mart.MartingaleTransform(process=bm(), xi=xi, u=0.0)
        assert bound.evaluate(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert bound.evaluate(0.0, 2.0) == pytest.approx(0.0, abs=1e-12)
        direct = mart.martingale_transform(bm(), xi, 0.0, 0.7, 1.3)
        assert bound.evaluate(0.7, 1.3) == pytest.approx(direct)
        two = bound.evaluate_twotime(0.5, 0.2, 0.7, 1.3)
        assert two == pytest.approx(direct, abs=1e-10)


class TestTwoTimeTransform:
    def test_concentrated_bm_closed_form(self):
        N = 3
        xi = cfg.PointConfiguration(((0.0, N),))
        rng = np.random.default_rng(8)
        for _ in range(6):
            s, t = rng.uniform(0.3, 2.0, size=2)
            x, y = rng.uniform(-2, 2, size=2)
            got = mart.martingale_transform_twotime(bm(), xi, 0.0, s, x, t, y)
            want = hermite_pair_sum(N, s, x, t, y)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_concentrated_besq_closed_form(self):
        N, nu = 3, 0.5
        xi = cfg.PointConfiguration(((0.0, N),))
        rng = np.random.default_rng(10)
        for _ in range(6):
            s, t = rng.uniform(0.3, 2.0, size=2)
            x, y = rng.uniform(0.3, 4.0, size=2)
            got = mart.martingale_transform_twotime(besq(nu), xi, 0.0, s, x, t, y)
            want = laguerre_pair_sum(N, nu, s, x, t, y)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_simple_configuration_reduces(self):
        xi = simple(0.0, 2.0)
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = rng.uniform(0.2, 2.0)
            x = rng.uniform(-2, 2)
            t = rng.uniform(0.0, 2.0)
            y = rng.uniform(-3, 3)
            got = mart.martingale_transform_twotime(bm(), xi, 0.0, s, x, t, y)
            want = mart.martingale_transform(bm(), xi, 0.0, t, y)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


class TestCtime:
    def test_mean_is_t(self):
        rng = np.random.default_rng(100)
        t = 2.0
        samples = mart.sample_ctime(t, rng, size=100_000)
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - t) <= 4 * se

    def test_positive(self):
        rng = np.random.default_rng(101)
        samples = mart.sample_ctime(1.0, rng, size=5000)
        assert (samples > 0).all()

    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 2.0])
    def test_laplace_transform(self, lam, t):
        rng = np.random.default_rng(102)
        samples = mart.sample_ctime(t, rng, size=100_000)
        vals = np.exp(-lam * samples)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        want = math.cosh(math.sqrt(2 * lam)) ** (-t)
        assert abs(vals.mean() - want) <= 4 * se

    def test_variance_is_two_thirds_t(self):
        rng = np.random.default_rng(103)
        t = 2.0
        samples = mart.sample_ctime(t, rng, size=100_000)
        var = samples.var(ddof=1)
        dev2 = (samples - samples.mean()) ** 2
        se = dev2.std(ddof=1) / math.sqrt(len(samples))
        assert abs(var - 2 * t / 3) <= 4 * se

    @pytest.mark.parametrize("t", [0.0, -1.0, 0.5, 1.5, math.nan, math.inf])
    def test_rejects_non_integer_time(self, t):
        with pytest.raises(DomainError):
            mart.sample_ctime(t, np.random.default_rng(104), size=10)


class TestBesMartingalePieces:
    def test_q_factor_base(self):
        z = 1.3 + 0.4j
        assert mart.bes_q_factor(0, 0.7, z) == pytest.approx(z / z.real)
        assert mart.bes_q_factor(0, 2.0, 1.7) == pytest.approx(1.0)

    def test_q_factor_direct_substitution(self):
        assert mart.bes_q_factor(1, 2.0, 1.0) == pytest.approx(3.0)

    def test_transform_monomial_normalization(self):
        for t, x in ((0.5, 1.0), (2.0, 0.7)):
            assert mart.bes_transform_monomial(0, 0, t, x) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_transform_monomial_small_time_limit(self):
        # the transform of 1 tends to 1 as t -> 0
        for n in (0, 1, 2):
            assert mart.bes_transform_monomial(n, 0, 1e-6, 1.0) == pytest.approx(
                1.0, abs=1e-4
            )

    def test_transform_monomial_vs_quadrature(self):
        # oracle: integral of (i w)^{2 ell} against the sign-flipped Bessel
        # kernel (1/t) w^{nu+1} x^{-nu} e^{(x^2 - w^2)/2t} J_nu(x w / t)
        def oracle(n, ell, t, x):
            nu = n + 0.5

            def f(w):
                return (
                    (1.0 / t)
                    * w ** (nu + 1)
                    * x ** (-nu)
                    * np.exp((x * x - w * w) / (2 * t))
                    * specfun.bessel_j(nu, x * w / t)
                    * (-1.0) ** ell
                    * w ** (2 * ell)
                )

            hi = x + 14.0 * math.sqrt(t)
            return quadrature.adaptive_gauss_legendre(f, 0.0, hi, 1e-10)

        for n in range(3):
            for ell in range(3):
                t, x = 0.8, 1.1
                got = mart.bes_transform_monomial(n, ell, t, x)
                want = oracle(n, ell, t, x)
                assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


class TestInfiniteConfigurationMartingales:
    def test_lattice_kronecker(self):
        for j in range(-3, 4):
            for k in range(-3, 4):
                val = mart.lattice_martingale(k, 0.0, float(j))
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)

    def test_lattice_sinc_form(self):
        for x in (0.3, 1.7, -2.4):
            want = math.sin(math.pi * x) / (math.pi * x)
            assert mart.lattice_martingale(0, 0.0, x) == pytest.approx(want, abs=1e-10)

    def test_besselzero_kronecker(self):
        nu = 0.5
        table = specfun.bessel_zeros(nu, 3)
        for j in range(1, 4):
            for k in range(1, 4):
                xj = table.zeros[j - 1] ** 2
                val = mart.besselzero_martingale(nu, k, 0.0, xj, table=table)
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-9)


class TestStochasticMartingaleProperty:
    """Monte Carlo check that E[m_n(t, V(t))] = x0^n, with direct samplers."""

    def test_bm(self):
        rng = np.random.default_rng(200)
        x0, npaths = 0.4, 100_000
        for t in (0.5, 1.0, 2.0):
            v = x0 + math.sqrt(t) * rng.standard_normal(npaths)
            for n in range(1, 6):
                vals = mart.poly_martingale(bm(), n, t, v)
                se = vals.std(ddof=1) / math.sqrt(npaths)
                assert abs(vals.mean() - x0**n) <= 4 * se

    def test_besq(self):
        rng = np.random.default_rng(201)
        nu, x0, npaths = 0.5, 1.2, 100_000
        for t in (0.5, 1.0, 2.0):
            mix = rng.poisson(x0 / (2 * t), size=npaths)
            v = 2 * t * rng.standard_gamma(nu + 1 + mix)
            for n in range(1, 6):
                vals = mart.poly_martingale(besq(nu), n, t, v)
                se = vals.std(ddof=1) / math.sqrt(npaths)
                assert abs(vals.mean() - x0**n) <= 4 * se

    def test_rw(self):
        rng = np.random.default_rng(202)
        x0, npaths = 2, 100_000
        for t in range(1, 7):
            steps = rng.integers(0, 2, size=(npaths, t)) * 2 - 1
            v = x0 + steps.sum(axis=1)
            for n in range(1, 6):
                vals = mart.poly_martingale(rw(), n, t, v.astype(float))
                se = vals.std(ddof=1) / math.sqrt(npaths)
                assert abs(vals.mean() - x0**n) <= 4 * se

    def test_rw_cpr_time_change(self):
        # E[(x + i W(C(t)))^n] over the time change matches Fujita's m_n
        rng = np.random.default_rng(203)
        x, t, npaths = 1.0, 3.0, 30_000
        c = mart.sample_ctime(t, rng, size=npaths)
        w = rng.standard_normal(npaths) * np.sqrt(c)
        z = x + 1j * w
        for n in range(1, 6):
            vals = z**n
            se = vals.real.std(ddof=1) / math.sqrt(npaths)
            want = mart.poly_martingale(rw(), n, int(t), x)
            assert abs(vals.real.mean() - want) <= 4 * se

    def test_bm_cpr(self):
        rng = np.random.default_rng(204)
        x, t, npaths = 0.7, 1.5, 100_000
        z = x + 1j * math.sqrt(t) * rng.standard_normal(npaths)
        for n in range(1, 6):
            vals = z**n
            se = vals.real.std(ddof=1) / math.sqrt(npaths)
            want = mart.poly_martingale(bm(), n, t, x)
            assert abs(vals.real.mean() - want) <= 4 * se


class TestIntegralRepresentations:
    def test_hermite_integral(self):
        # H_n(x) = (2^n / sqrt(pi)) int e^{-u^2} (x + i u)^n du
        nodes, weights = quadrature.gauss_hermite(96)
        for n in range(9):
            for x in (-1.2, 0.3, 2.0):
                vals = (x + 1j * nodes) ** n
                got = 2.0**n / math.sqrt(math.pi) * float(np.real(vals @ weights))
                assert abs(got - specfun.hermite(n, x)) <= 1e-8 * max(
                    1.0, abs(specfun.hermite(n, x))
                )

    def test_laguerre_bessel_integral(self):
        # L_n^{(nu)}(x) = (e^x / (n! x^{nu/2})) int_0^inf e^{-u} u^{n+nu/2}
        #                 J_nu(2 sqrt(x u)) du
        nu = 0.5
        for n in range(7):
            for x in (0.4, 1.3):

                def f(u):
                    return (
                        np.exp(-u)
                        * u ** (n + nu / 2.0)
                        * specfun.bessel_j(nu, 2.0 * np.sqrt(x * u))
                    )

                val = quadrature.adaptive_gauss_legendre(f, 0.0, 60.0, 1e-11)
                got = math.exp(x) / (math.factorial(n) * x ** (nu / 2.0)) * val
                want = specfun.laguerre(n, nu, x)
                assert abs(got - want) <= 1e-7 * max(1.0, abs(want))
