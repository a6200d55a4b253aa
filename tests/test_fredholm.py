import math

import numpy as np
import pytest

from detmart import configurations as cfg
from detmart import fredholm as fred
from detmart import kernels as ker
from detmart import simulate as sim
from detmart import specfun
from detmart.errors import DomainError, NumericError
from detmart.processes import bm, rw


def simple(*points):
    return cfg.PointConfiguration.from_points(points)


def bm_kernel(*points):
    return ker.general_kernel(bm(), simple(*points))


def two_time_spec():
    return fred.TestFunctionSpec(
        (0.7, 1.4),
        (
            fred.ContinuousChi.indicator(-1.0, 1.0, -0.4),
            fred.ContinuousChi.indicator(0.0, 3.0, 0.6),
        ),
    )


class TestSpecParsing:
    def test_chi_floor(self):
        with pytest.raises(DomainError):
            fred.ContinuousChi.indicator(0.0, 1.0, -1.5)
        with pytest.raises(DomainError):
            fred.SiteChi(((0, -2.0),))

    def test_repeated_site_refused(self):
        # fredholm_series summed both values at site 0 (1.4), the walk
        # enumeration kept the last one (1.25)
        with pytest.raises(DomainError, match="twice"):
            fred.SiteChi(((0, 0.5), (0, 0.3)))
        assert fred.SiteChi(((0, 0.5), (2, 0.3))).sites == ((0.0, 0.5), (2.0, 0.3))

    def test_times_strictly_increasing(self):
        chi = fred.ContinuousChi.indicator(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            fred.TestFunctionSpec((1.0, 1.0), (chi, chi))

    def test_equal_indicator_specs_compare_equal(self):
        # an indicator is its support and scale, not a fresh lambda
        assert two_time_spec() == two_time_spec()
        chi = fred.ContinuousChi.indicator(-1.0, 1.0, -0.4)
        assert chi != fred.ContinuousChi.indicator(-1.0, 1.0, 0.4)
        assert chi(np.array([-2.0, 0.0, 1.0])).tolist() == [0.0, -0.4, -0.4]


class TestFredholmSeries:
    def test_zero_chi_is_one(self):
        kern = bm_kernel(0.0)
        spec = fred.TestFunctionSpec(
            (1.0,), (fred.ContinuousChi.indicator(-1.0, 1.0, 0.0),)
        )
        assert fred.fredholm_series(kern, spec) == pytest.approx(1.0, abs=1e-14)

    def test_single_particle_closed_form(self):
        # one particle: 1 + integral of chi times the density
        lam = 0.4
        a, b = -0.5, 1.5
        t = 1.0
        kern = bm_kernel(0.0)
        spec = fred.TestFunctionSpec(
            (t,), (fred.ContinuousChi.indicator(a, b, -lam),)
        )
        got = fred.fredholm_series(kern, spec)
        mass = 0.5 * (
            math.erf(b / math.sqrt(2 * t)) - math.erf(a / math.sqrt(2 * t))
        )
        assert got == pytest.approx(1.0 - lam * mass, abs=1e-10)

    def test_matches_finite_rank(self):
        kern = bm_kernel(0.0, 2.0)
        spec = fred.TestFunctionSpec(
            (0.8,), (fred.ContinuousChi.indicator(-1.0, 2.5, -0.6),)
        )
        a = fred.fredholm_series(kern, spec)
        b = fred.finite_rank_det(kern, spec)
        assert abs(a - b) <= 1e-8

    def test_avoidance_value_in_unit_interval(self):
        kern = bm_kernel(0.0, 2.0)
        for lam in (0.2, 0.5, 0.9):
            spec = fred.TestFunctionSpec(
                (0.8,), (fred.ContinuousChi.indicator(-0.5, 2.0, -lam),)
            )
            val = fred.fredholm_series(kern, spec)
            assert 0.0 < val <= 1.0

    def test_gauge_invariance(self, monkeypatch):
        kern = bm_kernel(0.0, 2.0)
        spec = two_time_spec()
        plain = fred._series_value(kern, spec, 16)
        grid = ker.kernel_eval_grid

        def conj_grid(kern, s, xs, t, ys):
            gx = np.exp(-np.asarray(xs) ** 2 / (4 * s))
            gy = np.exp(-np.asarray(ys) ** 2 / (4 * t))
            return grid(kern, s, xs, t, ys) * gx[:, None] / gy[None, :]

        # D K D^{-1} leaves det(I + K W) unchanged, at any quadrature order
        monkeypatch.setattr(ker, "kernel_eval_grid", conj_grid)
        conj = fred._series_value(kern, spec, 16)
        assert abs(plain - conj) <= 1e-9 * max(1.0, abs(plain))

    def test_matches_block_multisum(self):
        # the block multi-sum over repeated nodes that the Nystrom determinant
        # replaced (commit f8d6b4e), _series_value(kern, spec, 16) on this spec
        multisum_q16 = 1.0860916386179933
        got = fred._series_value(bm_kernel(0.0, 2.0), two_time_spec(), 16)
        assert got == pytest.approx(multisum_q16, abs=1e-12)

    def test_two_times_matches_monte_carlo(self):
        xi = simple(0.0, 2.0)
        spec = two_time_spec()
        series = fred.fredholm_series(ker.general_kernel(bm(), xi), spec)
        est = fred.mgf_monte_carlo(bm(), xi, spec, 100_000, seed=44)
        assert abs(est.mean - series) <= 4 * est.std_error

    def test_low_order_raises_on_doubling(self):
        kern = bm_kernel(0.0, 2.0)
        spec = fred.TestFunctionSpec(
            (0.8,), (fred.ContinuousChi.indicator(-20.0, 20.0, -0.5),)
        )
        with pytest.raises(NumericError):
            fred.fredholm_series(kern, spec, quad_order=2)


class TestFiniteRank:
    def test_zero_chi(self):
        kern = bm_kernel(0.0, 2.0)
        spec = fred.TestFunctionSpec(
            (1.0,), (fred.ContinuousChi.indicator(-1.0, 1.0, 0.0),)
        )
        assert fred.finite_rank_det(kern, spec) == pytest.approx(1.0, abs=1e-13)

    def test_single_particle_reduction(self):
        lam, t = 0.3, 1.0
        kern = bm_kernel(0.5)
        spec = fred.TestFunctionSpec(
            (t,), (fred.ContinuousChi.indicator(0.0, 2.0, -lam),)
        )
        got = fred.finite_rank_det(kern, spec)
        mass = 0.5 * (
            math.erf((2.0 - 0.5) / math.sqrt(2 * t))
            - math.erf((0.0 - 0.5) / math.sqrt(2 * t))
        )
        assert got == pytest.approx(1.0 - lam * mass, abs=1e-10)

    def test_rw_matches_enumeration(self):
        # odd starts too: the walk kernel takes integer starts of one parity,
        # with chi on the sites of that parity (offset o)
        for points, o in (((0.0, 2.0), 0), ((1.0, 3.0), 1), ((-3.0, 1.0, 5.0), 1)):
            xi = simple(*points)
            kern = ker.rw_kernel(xi)
            chi = fred.SiteChi(((-2 + o, 0.4), (0 + o, -0.5), (2 + o, 0.25), (4 + o, -0.3)))
            spec = fred.TestFunctionSpec((2,), (chi,))

            def F(p, chi=chi):
                return np.prod(1.0 + chi(p[:, 0, :]), axis=1)

            _, exact = sim.brute_force_rw(xi, F, [2], T=2)
            got = fred.finite_rank_det(kern, spec)
            assert got == pytest.approx(exact, abs=1e-12)
            series = fred.fredholm_series(kern, spec)
            assert series == pytest.approx(exact, abs=1e-12)

            def F2(p, chi=chi):
                return np.prod(1.0 + chi(p), axis=(1, 2))

            _, exact2 = sim.brute_force_rw(xi, F2, [2, 4])
            series2 = fred.fredholm_series(kern, fred.TestFunctionSpec((2, 4), (chi, chi)))
            assert series2 == pytest.approx(exact2, abs=1e-10)


class TestStateSpace:
    """chi is read on the states the process lives on: sites for the walk,
    intervals for a diffusion."""

    def test_walk_reads_interval_on_sites(self):
        # the interval covers the sites 0, 1 and 2; the Gauss-Legendre nodes
        # of a quadrature are no sites, and the series read 1.0 there
        xi = simple(0.0, 2.0)
        kern = ker.rw_kernel(xi)
        interval = fred.ContinuousChi.indicator(-0.5, 2.5, -0.5)

        def F(p):
            return np.prod(1.0 + interval(p[:, 0, :]), axis=1)

        _, exact = sim.brute_force_rw(xi, F, [2], T=2)
        assert exact == pytest.approx(0.546875, abs=1e-15)
        sites = fred.SiteChi(((0, -0.5), (1, -0.5), (2, -0.5)))
        for chi in (interval, sites):
            spec = fred.TestFunctionSpec((2,), (chi,))
            assert fred.fredholm_series(kern, spec) == pytest.approx(exact, abs=1e-12)
            assert fred.finite_rank_det(kern, spec) == pytest.approx(exact, abs=1e-12)
        mc = fred.mgf_monte_carlo(
            rw(), xi, fred.TestFunctionSpec((2,), (interval,)), 40_000, seed=45
        )
        assert abs(mc.mean - exact) <= 4 * mc.std_error

    def test_walk_reads_huge_interval_on_reachable_sites(self):
        xi = simple(0.0, 2.0)
        kern = ker.rw_kernel(xi)
        spec = fred.TestFunctionSpec((2, 4), (
            fred.ContinuousChi.indicator(-1e15, 1e15, 0.3),
            fred.ContinuousChi.indicator(-math.inf, 1.0, -0.2),
        ))
        pts, wts, _ = fred._slice_nodes(kern, 2.0, spec.chis[0], 64)
        assert pts.tolist() == [-2.0, 0.0, 2.0, 4.0] and wts.tolist() == [1.0] * 4

        def F(p):
            return np.prod(1.3 * (1.0 - 0.2 * (p[:, 1, :] <= 1.0)), axis=1)

        _, exact = sim.brute_force_rw(xi, F, [2, 4], T=4)
        assert fred.fredholm_series(kern, spec) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("route", ["series", "finite_rank", "mc"])
    def test_diffusion_refuses_site_chi(self, route):
        # Brownian paths never hit a site: the series read each site with
        # weight 1 (1.00865), the Monte Carlo never saw it (1.0015)
        xi = simple(0.0, 2.0)
        spec = fred.TestFunctionSpec((1.0,), (fred.SiteChi(((0, 0.5), (2, -0.4))),))
        kern = ker.general_kernel(bm(), xi)
        run = {
            "series": lambda: fred.fredholm_series(kern, spec),
            "finite_rank": lambda: fred.finite_rank_det(kern, spec),
            "mc": lambda: fred.mgf_monte_carlo(bm(), xi, spec, 100, seed=1),
        }[route]
        with pytest.raises(DomainError, match="chi on sites needs the walk"):
            run()


class TestMultiTime:
    def test_rw_two_times_all_routes(self):
        xi = simple(0.0, 2.0)
        kern = ker.rw_kernel(xi)
        chi1 = fred.SiteChi(((0, 0.5), (2, -0.4)))
        chi2 = fred.SiteChi(((-2, 0.3), (2, 0.2), (4, -0.5)))
        spec = fred.TestFunctionSpec((2, 4), (chi1, chi2))

        def F(p):
            return np.prod(1.0 + chi1(p[:, 0, :]), axis=1) * np.prod(
                1.0 + chi2(p[:, 1, :]), axis=1
            )

        free, doob = sim.brute_force_rw(xi, F, [2, 4], T=4)
        series = fred.fredholm_series(kern, spec)
        assert series == pytest.approx(doob, abs=1e-10)
        assert free == pytest.approx(doob, abs=1e-12)
        mc = fred.mgf_monte_carlo(rw(), xi, spec, 60_000, seed=41, T=4)
        assert abs(mc.mean - doob) <= 4 * mc.std_error


class TestMonteCarloRoute:
    def test_zero_chi(self):
        # the observable collapses to 1, leaving the unit-mean det weight
        xi = simple(0.0, 2.0)
        spec = fred.TestFunctionSpec(
            (0.8,), (fred.ContinuousChi.indicator(-1.0, 1.0, 0.0),)
        )
        est = fred.mgf_monte_carlo(bm(), xi, spec, 20_000, seed=42)
        assert abs(est.mean - 1.0) <= 4 * est.std_error

    def test_bm_single_time(self):
        xi = simple(0.0, 2.0)
        kern = ker.general_kernel(bm(), xi)
        spec = fred.TestFunctionSpec(
            (0.8,), (fred.ContinuousChi.indicator(-1.0, 2.5, -0.6),)
        )
        series = fred.fredholm_series(kern, spec)
        est = fred.mgf_monte_carlo(bm(), xi, spec, 100_000, seed=43)
        assert abs(est.mean - series) <= 4 * est.std_error


class TestRankStructure:
    def test_overflow_block_vanishes(self):
        # N + 1 points at one time: the equal-time kernel has rank N
        kern = bm_kernel(0.0, 2.0)
        pts = np.array([-1.0, 0.4, 1.7])
        mat = ker.kernel_eval_grid(kern, 0.9, pts, 0.9, pts)
        assert abs(np.linalg.det(mat)) <= 1e-10
