import math
import warnings

import numpy as np
import pytest

from detmart import configurations as cfg
from detmart import oconnell as oc
from detmart import simulate as sim
from detmart.errors import DomainError, NumericError
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


def matrix_weight(params, z):
    """det[Phi^{nu_k,a}(Z_j)] from the public phi_lift and a LAPACK det."""
    sup = params.nu_hat.support()
    mat = np.empty(z.shape + (len(sup),), dtype=complex)
    for k, u in enumerate(sup):
        mat[..., k] = oc.phi_lift(params.nu_hat, u, params.a, z)
    return np.linalg.det(mat)


# (a, drifts, row, det) with det evaluated from the matrix of lifted
# cardinal functions in 40-digit mpmath; each row is the one of 400 random
# rows that the double-precision matrix route gets worst
MPMATH_WEIGHTS = [
    (0.001, [-0.86, 0.93], [0.352 + 2.368j, 0.552 + 2.305j],
     0.1114315960608207 - 0.03576207529651759j),
    (0.065, [1.26, 1.68], [0.314 - 1.97j, 0.134 - 2.332j],
     -0.07194429111675735 - 1.1027286364928446j),
    (0.001, [-0.95, 0.71, 1.14], [-1.235 + 0.053j, 1.349 + 1.538j, 1.374 + 1.523j],
     0.1538285630738923 + 0.08182896118015494j),
    (0.5, [-1.49, -0.29, 1.68], [-2.895 - 0.97j, 0.116 - 1.723j, 0.192 - 1.449j],
     0.014527198788316159 + 0.00456022644987511j),
    (0.065, [-0.23, 1.45, 1.86, 2.53],
     [-0.772 + 0.203j, 0.22 + 0.854j, 2.365 - 1.256j, 0.264 + 0.862j],
     -0.9827598736715866 + 0.8436698039319969j),
    (1.0, [-0.07, 0.45, 1.2, 2.65],
     [-0.029 - 1.936j, -0.996 - 1.867j, 1.432 - 0.878j, 1.57 - 1.362j],
     -1.1605682920974847e-13 + 1.9725051589801372e-13j),
    (0.5, [-1.0, 0.47, 1.16, 1.68, 2.69],
     [-0.636 + 1.404j, 0.823 + 1.456j, 1.803 + 0.853j, 3.604 + 3.291j, 3.145 + 0.961j],
     -0.011166662975874694 - 0.15168384932292156j),
    (1.0, [0.62, 1.17, 1.58, 2.09, 3.03],
     [1.417 - 1.821j, 1.01 - 1.973j, 0.28 - 1.772j, 1.319 - 2.04j, 3.147 - 1.496j],
     -5.2823145046330305e-25 - 8.575156251625013e-25j),
]


class TestLiftWeight:
    def test_matches_matrix_oracle(self):
        # the matrix route's own rounding grows with the spread of the rows
        # (it is off by 1e-8 on some unit-scale rows at N=5, a=1; see the
        # mpmath table), so the rows are drawn at half the unit scale
        rng = np.random.default_rng(80)
        for n in (2, 3, 4, 5):
            sup = np.sort(rng.uniform(-1.5, 1.5, n)) + 0.4 * np.arange(n)
            for a in (1e-3, 0.065, 0.5, 1.0):
                params = oc.LiftParams(a=a, nu_hat=drifts(*sup), t=1.0, h=0.0)
                z = sup + 0.5 * (
                    rng.standard_normal((512, n)) + 1j * rng.standard_normal((512, n))
                )
                got = oc._lift_weight(params, z)
                want = matrix_weight(params, z)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_mpmath_table(self):
        for a, sup, row, want in MPMATH_WEIGHTS:
            params = oc.LiftParams(a=a, nu_hat=drifts(*sup), t=1.0, h=0.0)
            got = oc._lift_weight(params, np.array([row]))[0]
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_combinatorial_limit_is_vandermonde_ratio(self):
        rng = np.random.default_rng(81)
        for n in (2, 3, 5):
            nu_hat = drifts(*(np.arange(n) - 1.3 + 0.1 * rng.uniform(size=n)))
            z = np.array(nu_hat.support()) + (
                rng.standard_normal((50, n)) + 1j * rng.standard_normal((50, n))
            )
            base = sim.cpr_weight(bm(), nu_hat, 1.0, z)
            errs = []
            for a in (1e-6, 1e-7):
                params = oc.LiftParams(a=a, nu_hat=nu_hat, t=1.0, h=0.0)
                errs.append(np.abs(oc._lift_weight(params, z) - base))
            assert np.max(errs[1]) <= 1e-5 * np.max(np.abs(base))
            # the deviation is linear in a, within 20 percent
            ratio = errs[0] / np.maximum(errs[1], 1e-300)
            assert np.all((ratio > 8.0) & (ratio < 12.0))

    def test_shared_components_match_phi_lift(self):
        nu_hat = drifts(-1.3, 0.4, 1.1, 2.45)
        params = oc.LiftParams(a=0.3, nu_hat=nu_hat, t=1.0, h=0.0)
        rng = np.random.default_rng(82)
        z = rng.uniform(-2, 4, size=(30, 7)) + 1j * rng.uniform(0.1, 2, size=(30, 7))
        sup = nu_hat.support()
        got = oc._lift_components(nu_hat, sup, 0.3, z)
        assert got.shape == (4,) + z.shape
        for k, u in enumerate(sup):
            want = oc.phi_lift(nu_hat, u, 0.3, z)
            assert np.max(np.abs(got[k] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_shared_components_reject_poles(self):
        nu_hat = drifts(0.0, 1.0)
        with pytest.raises(DomainError):
            oc._lift_components(nu_hat, nu_hat.support(), 0.5, np.array([0.5 + 1j, -2.0 + 0j]))
        # -2 is on the pole ladder of the component at 0 only: Phi^{1,a}(-2)
        # is Gamma(1 - a (1 + 2)) Gamma(a (0 - 1)) / Gamma(a (0 + 2))
        want = math.gamma(-0.5) * math.gamma(1.0 - 1.5) / math.gamma(1.0)
        assert oc.phi_lift(nu_hat, 1.0, 0.5, -2.0) == pytest.approx(want, rel=1e-12)
        with pytest.raises(DomainError):
            oc.phi_lift(nu_hat, 0.0, 0.5, -2.0)


class TestEdgeCases:
    def test_no_path_passes(self):
        params = oc.LiftParams(a=0.1, nu_hat=drifts(-1.0, 1.0), t=1.0, h=50.0)
        for route in (oc.oconnell_theta_cpr, oc.oconnell_theta_dmr):
            est = route(params, 5000, seed=83)
            assert est.mean == 0
            assert est.n == 5000

    def test_pole_path_raises(self, monkeypatch):
        # a weighted path within the pole tolerance fails the run
        monkeypatch.setattr(oc, "_POLE_TOL", 100.0)
        params = oc.LiftParams(a=0.1, nu_hat=drifts(-1.0, 1.0), t=1.0, h=0.0)
        with pytest.raises(NumericError, match="pole"):
            oc.oconnell_theta_cpr(params, 1000, seed=85)

    def test_workers_do_not_change_estimates(self):
        params = oc.LiftParams(a=0.1, nu_hat=drifts(-1.0, 1.0), t=1.0, h=0.0)
        n_paths = 2 * sim.BLOCK + 37
        for route in (oc.oconnell_theta_cpr, oc.oconnell_theta_dmr):
            one = route(params, n_paths, seed=84, workers=1)
            two = route(params, n_paths, seed=84, workers=2)
            assert one == two


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

    def test_unconverged_transform_refused(self):
        # clears the ridge guard, but 256 nodes are not enough, and no
        # larger Gauss-Hermite rule is tried
        params = oc.LiftParams(a=1 / 6, nu_hat=drifts(-1.0, 1.0), t=1.0, h=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="cpr"):
                oc.oconnell_theta_dmr(params, 1000, seed=59)

    def test_fixed_rule_estimate(self):
        # the estimate the order search returned, at 256 nodes
        params = oc.LiftParams(a=1 / 7, nu_hat=drifts(-1.0, 1.0), t=1.0, h=0.0)
        est = oc.oconnell_theta_dmr(params, 4000, seed=61)
        # the real part is pinned; the imaginary part is roundoff, whose
        # last bits depend on numpy's SIMD dispatch
        assert est.mean.real == 0.037913133827217345
        assert est.std_error == 0.002489274117159304
        assert est.n == 4000
        assert abs(est.mean.imag) <= 1e-15
        assert est.std_error_imag <= 1e-15


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

    @pytest.mark.parametrize("t, h", [(1.0, 0.0), (0.8, 0.3)])
    def test_small_lift_is_the_plain_cpr_estimate(self, t, h):
        # the lifted CPR is the complex representation at time 1/t with
        # Phi^{u,a} in place of Phi^u: same paths, same companions, and a
        # weight that differs by O(a)
        nu_hat = drifts(-1.0, 1.0)
        params = oc.LiftParams(a=1e-6, nu_hat=nu_hat, t=t, h=h)

        def F(p):
            return (p[:, 0, :] >= h / t).all(axis=1).astype(float)

        lifted = oc.oconnell_theta_cpr(params, 20_000, seed=72)
        plain = sim.cpr_expectation(bm(), nu_hat, F, [1.0 / t], 20_000, seed=72)
        assert abs(lifted.mean - plain.mean) <= 1e-5
        assert lifted.n == plain.n

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
