import math

import numpy as np
import pytest

from detmart import configurations as cfg
from detmart import oconnell as oc
from detmart import simulate as sim
from detmart.errors import DomainError
from detmart.processes import bm


def drifts(*points):
    return cfg.PointConfiguration.from_points(points)


class TestPhiLift:
    def test_kronecker(self):
        # supports with non-integer gaps, so no a(r - u) lands on a Gamma pole
        for a in (0.1, 1.0):
            for sup in ([-0.95, 0.85], [-1.3, 0.4, 1.1, 2.45]):
                nu_hat = drifts(*sup)
                for j, vj in enumerate(sup):
                    for k, vk in enumerate(sup):
                        val = oc.phi_lift(nu_hat, vk, a, complex(vj))
                        want = 1.0 if j == k else 0.0
                        assert abs(val - want) <= 1e-10

    def test_singleton(self):
        nu_hat = drifts(0.7)
        assert oc.phi_lift(nu_hat, 0.7, 0.3, complex(0.7)) == pytest.approx(1.0)
        # plain Gamma(1 - a(u - x)) elsewhere
        x = 1.9 + 0.3j
        want = np.exp(oc.specfun.log_gamma(1.0 - 0.3 * (0.7 - x)))
        assert oc.phi_lift(nu_hat, 0.7, 0.3, x) == pytest.approx(complex(want))

    def test_combinatorial_limit_linear_in_a(self):
        nu_hat = drifts(-1.0, 0.5, 2.0)
        rng = np.random.default_rng(3)
        xs = rng.uniform(-3, 3, size=20) + 1j * rng.uniform(-1, 1, size=20)
        for u in nu_hat.support():
            base = cfg.phi_simple(nu_hat, u, xs)
            err3 = np.abs(oc.phi_lift(nu_hat, u, 1e-3, xs) - base)
            err4 = np.abs(oc.phi_lift(nu_hat, u, 1e-4, xs) - base)
            # the deviation scales linearly in a, within 20 percent
            ratio = err3 / np.maximum(err4, 1e-300)
            assert np.all(ratio > 10.0 * 0.8)
            assert np.all(ratio < 10.0 * 1.2)

    def test_pole_ladder_blowup(self):
        nu_hat = drifts(0.0, 1.0)
        a = 0.5
        pole = 0.0 - 1.0 / a
        vals = [
            abs(oc.phi_lift(nu_hat, 0.0, a, complex(pole + eps)))
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_pole_rejection(self):
        nu_hat = drifts(0.0, 1.0)
        with pytest.raises(DomainError):
            oc.phi_lift(nu_hat, 0.0, 0.5, complex(-2.0))


class TestCprEstimate:
    def test_unit_mass_without_indicator(self):
        params = oc.LiftParams(a=0.1, nu_hat=drifts(-1.0, 1.0), t=1.0, h=-1000.0)
        est = oc.oconnell_theta_cpr(params, 40_000, seed=50)
        assert abs(est.mean.real - 1.0) <= 4 * est.std_error
        assert abs(est.mean.imag) <= 4 * est.std_error_imag

    def test_imaginary_part_vanishes(self):
        params = oc.LiftParams(a=0.1, nu_hat=drifts(-1.0, 1.0), t=1.0, h=0.0)
        est = oc.oconnell_theta_cpr(params, 40_000, seed=51)
        assert abs(est.mean.imag) <= 4 * est.std_error_imag


class TestDmrEstimate:
    def test_routes_agree(self):
        params = oc.LiftParams(a=0.1, nu_hat=drifts(-1.0, 1.0), t=1.0, h=0.0)
        a = oc.oconnell_theta_cpr(params, 60_000, seed=52)
        b = oc.oconnell_theta_dmr(params, 20_000, seed=53)
        assert abs(a.mean.real - b.mean.real) <= 4 * a.combined_se(b)

    def test_unit_mass(self):
        params = oc.LiftParams(a=0.1, nu_hat=drifts(-1.0, 1.0), t=1.0, h=-1000.0)
        est = oc.oconnell_theta_dmr(params, 20_000, seed=54)
        assert abs(est.mean.real - 1.0) <= 4 * est.std_error

    def test_single_particle_matches_cpr(self):
        params = oc.LiftParams(a=0.1, nu_hat=drifts(0.5), t=1.0, h=0.0)
        a = oc.oconnell_theta_cpr(params, 60_000, seed=55)
        b = oc.oconnell_theta_dmr(params, 30_000, seed=56)
        assert abs(a.mean.real - b.mean.real) <= 4 * a.combined_se(b)

    def test_pole_clearance_guard(self):
        params = oc.LiftParams(a=2.0, nu_hat=drifts(-1.0, 1.0), t=1.0, h=0.0)
        with pytest.raises(DomainError):
            oc.oconnell_theta_dmr(params, 1000, seed=57)


class TestReference:
    def test_total_mass(self):
        est = oc.reciprocal_reference(drifts(-1.0, 1.0), 1.0, -1000.0, 2000, seed=58)
        assert est.mean == pytest.approx(1.0)

    def test_single_particle_gaussian_tail(self):
        nu1, t, h = 0.5, 1.0, 0.0
        est = oc.reciprocal_reference(drifts(nu1), t, h, 50_000, seed=59, dt=1e-2)
        want = 0.5 * (1.0 + math.erf((nu1 - h) / math.sqrt(2 * t)))
        assert abs(est.mean - want) <= 4 * est.std_error

    def test_reciprocal_relation_plain_weights(self):
        # the complex representation with the plain cardinal polynomials at
        # time 1/t and threshold h/t equals the interacting probability at
        # time t and threshold h
        nu_hat = drifts(-1.0, 1.0)
        t, h = 1.0, 0.0

        def F(p):
            return (p[:, 0, :] >= h / t).all(axis=1).astype(float)

        a = sim.cpr_expectation(bm(), nu_hat, F, [1.0 / t], 100_000, seed=70)
        b = oc.reciprocal_reference(nu_hat, t, h, 60_000, seed=71)
        assert abs(a.mean.real - b.mean) <= 4 * a.combined_se(b)

    def test_small_lift_matches_reference(self):
        nu_hat = drifts(-1.0, 1.0)
        params = oc.LiftParams(a=1e-3, nu_hat=nu_hat, t=1.0, h=0.0)
        a = oc.oconnell_theta_cpr(params, 100_000, seed=60)
        b = oc.reciprocal_reference(nu_hat, 1.0, 0.0, 100_000, seed=61)
        assert abs(a.mean.real - b.mean) <= 4 * a.combined_se(b) + 2e-3

    def test_softening_monotone(self):
        nu_hat = drifts(-1.0, 1.0)
        ref = oc.reciprocal_reference(nu_hat, 1.0, 0.0, 100_000, seed=62)
        gaps = []
        for i, a in enumerate((0.5, 0.1, 0.02)):
            params = oc.LiftParams(a=a, nu_hat=nu_hat, t=1.0, h=0.0)
            est = oc.oconnell_theta_cpr(params, 100_000, seed=63 + i)
            gaps.append(abs(est.mean.real - ref.mean))
        noise = 2 * ref.std_error
        assert gaps[1] <= gaps[0] + noise
        assert gaps[2] <= gaps[1] + noise
