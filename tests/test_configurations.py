import math

import numpy as np
import pytest

from detmart import configurations as cfg
from detmart.errors import DomainError
from detmart.processes import besq, bm, rw


def simple(*points):
    return cfg.PointConfiguration.from_points(points)


class TestPointConfiguration:
    def test_sorting_and_merging(self):
        xi = cfg.PointConfiguration(((2.0, 1), (0.0, 1), (2.0 + 1e-12, 2)))
        assert xi.atoms == ((0.0, 1), (2.0, 3))
        assert xi.total() == 4
        assert not xi.simple()

    def test_shift_dilate(self):
        xi = simple(0.0, 1.0)
        assert xi.shift(2.0).support() == (2.0, 3.0)
        assert simple(1.0, 2.0).dilate(3.0).support() == (3.0, 6.0)

    def test_square_merges_images(self):
        xi = simple(-1.0, 1.0).square()
        assert xi.atoms == ((1.0, 2),)

    def test_operations_preserve_total(self):
        xi = cfg.PointConfiguration(((-1.0, 2), (0.5, 1), (2.0, 3)))
        for op in (lambda c: c.shift(1.7), lambda c: c.dilate(0.3), lambda c: c.square()):
            assert op(xi).total() == xi.total()

    def test_json_round_trip(self):
        xi = cfg.PointConfiguration(((0.0, 2), (1.5, 1)))
        again = cfg.PointConfiguration.from_json(xi.to_json())
        assert again == xi

    def test_bad_multiplicity(self):
        with pytest.raises(DomainError):
            cfg.PointConfiguration(((0.0, 0),))


class TestVandermonde:
    def test_single_entry(self):
        assert cfg.vandermonde([3.0]) == 1.0

    def test_three_points(self):
        assert cfg.vandermonde([0.0, 1.0, 2.0]) == pytest.approx(2.0)

    def test_repeated_entry_zero(self):
        assert cfg.vandermonde([1.0, 1.0, 4.0]) == 0.0

    def test_scalar_is_python_float(self):
        assert type(cfg.vandermonde([0, 1, 3])) is float

    def test_batched_rows(self):
        x = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 4.0], [-1.0, 2.0, 0.5]])
        got = cfg.vandermonde(x)
        assert got.shape == (3,)
        assert got.tolist() == [cfg.vandermonde(row) for row in x]

    def test_keeps_longdouble(self):
        x = np.array([0.0, 1.0, 3.0], dtype=np.longdouble)
        assert cfg.vandermonde(x).dtype == np.longdouble
        assert cfg.vandermonde(x[None, :]).dtype == np.longdouble

    def test_keeps_complex128(self):
        z = np.array([[0.0, 1j, 2.0 + 1j], [1.0, -1j, 3.0]])
        got = cfg.vandermonde(z)
        assert got.dtype == np.complex128
        assert got[0] == (1j - 0.0) * (2.0 + 1j - 0.0) * (2.0 + 1j - 1j)
        assert cfg.vandermonde(z[0]).dtype == np.complex128


class TestPhiSimple:
    def test_kronecker(self):
        xi = simple(-1.0, 0.5, 2.0, 3.5)
        u = xi.support()
        for j, uj in enumerate(u):
            for k, uk in enumerate(u):
                val = cfg.phi_simple(xi, uk, uj)
                assert abs(val - (1.0 if j == k else 0.0)) <= 1e-12

    def test_singleton_is_one(self):
        xi = simple(0.0)
        assert cfg.phi_simple(xi, 0.0, 123.4 + 5j) == pytest.approx(1.0)

    def test_two_point_formula(self):
        xi = simple(0.0, 1.0)
        z = 0.3 + 0.4j
        assert cfg.phi_simple(xi, 0.0, z) == pytest.approx(1.0 - z)

    def test_unknown_support_point(self):
        with pytest.raises(DomainError):
            cfg.phi_simple(simple(0.0, 1.0), 0.5, 1.0)


class TestPhiCoeffs:
    def test_two_point(self):
        co = cfg.phi_coeffs(simple(0.0, 1.0), 0.0)
        assert co == pytest.approx([1.0, -1.0])

    def test_singleton(self):
        assert cfg.phi_coeffs(simple(0.0), 0.0) == pytest.approx([1.0])

    def test_matches_phi_simple_at_random_points(self):
        rng = np.random.default_rng(21)
        xi = simple(*np.sort(rng.uniform(-3, 3, size=6)))
        for u in xi.support():
            co = cfg.phi_coeffs(xi, u)
            for z in rng.uniform(-4, 4, size=20):
                direct = cfg.phi_simple(xi, u, z)
                horner = np.polynomial.polynomial.polyval(z, co)
                assert abs(direct - horner) <= 1e-12 * max(1.0, abs(direct))

    def test_leading_coefficient(self):
        xi = simple(-1.0, 0.0, 2.0)
        for u in xi.support():
            co = cfg.phi_coeffs(xi, u)
            expect = 1.0 / np.prod([u - r for r in xi.support() if r != u])
            assert co[-1] == pytest.approx(expect, rel=1e-12)


class TestPhiTwoTime:
    def test_simple_reduces_to_phi(self):
        xi = simple(0.0, 2.0)
        rng = np.random.default_rng(5)
        for _ in range(6):
            s = rng.uniform(0.2, 2.0)
            x = rng.uniform(-2, 2)
            z = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            got = cfg.phi_twotime(bm(), xi, 0.0, s, x, z)
            want = cfg.phi_simple(xi, 0.0, z)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_simple_reduces_to_phi_besq(self):
        xi = simple(1.0, 3.0)
        rng = np.random.default_rng(6)
        for _ in range(4):
            s = rng.uniform(0.3, 1.5)
            x = rng.uniform(0.2, 3.0)
            z = complex(rng.uniform(0, 4), rng.uniform(-1, 1))
            got = cfg.phi_twotime(besq(0.5), xi, 1.0, s, x, z)
            want = cfg.phi_simple(xi, 1.0, z)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_concentrated_matches_hermite_sum(self):
        # all mass at the origin: the polynomial is the Hermite sum
        # sum_{n<N} (z/sqrt(2s))^n H_n(x/sqrt(2s)) / n!
        from detmart import specfun

        N = 3
        xi = cfg.PointConfiguration(((0.0, N),))
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = rng.uniform(0.2, 2.0)
            x = rng.uniform(-2, 2)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            want = sum(
                (z / math.sqrt(2 * s)) ** n
                * specfun.hermite(n, x / math.sqrt(2 * s))
                / math.factorial(n)
                for n in range(N)
            )
            got = cfg.phi_twotime(bm(), xi, 0.0, s, x, z)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_degree_bound_by_interpolation(self):
        xi = cfg.PointConfiguration(((0.0, 2), (1.0, 1)))
        s, x = 0.7, 0.4
        co = cfg.phi_twotime_coeffs(bm(), xi, 0.0, s, x)
        assert len(co) == xi.total()
        rng = np.random.default_rng(3)
        for z in rng.uniform(-2, 2, size=5):
            got = cfg.phi_twotime(bm(), xi, 0.0, s, x, complex(z))
            want = np.polynomial.polynomial.polyval(z, co)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_rw_rejected(self):
        with pytest.raises(DomainError):
            cfg.phi_twotime(rw(), simple(0.0, 2.0), 0.0, 1.0, 0.0, 1.0)


class TestCannedConfigurations:
    def test_lattice(self):
        xi = cfg.lattice_config(2)
        assert xi.support() == (-2.0, -1.0, 0.0, 1.0, 2.0)
        assert xi.simple()

    def test_besselzero_half(self):
        xi = cfg.besselzero_config(0.5, 3)
        expect = [(k * math.pi) ** 2 for k in (1, 2, 3)]
        assert np.allclose(xi.support(), expect, atol=1e-9)
        assert xi.simple()


class TestDetPhiIdentity:
    def test_two_point_closed_form(self):
        xi = simple(0.0, 1.0)
        a, b = -0.3, 2.2
        lhs, rhs, err = cfg.det_phi_identity_check(xi, [a, b])
        assert lhs == pytest.approx(b - a)
        assert err <= 1e-12 * max(1.0, abs(lhs))

    def test_identity_on_support(self):
        xi = simple(-1.0, 0.0, 3.0)
        lhs, rhs, err = cfg.det_phi_identity_check(xi, list(xi.support()))
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)

    def test_random_configurations(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = rng.integers(2, 7)
            xi = simple(*np.sort(rng.uniform(-4, 4, size=n)))
            x = rng.uniform(-5, 5, size=n)
            lhs, rhs, err = cfg.det_phi_identity_check(xi, x)
            assert err <= 1e-10 * max(1.0, abs(lhs))
