import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from detmart import configurations as cfg
from detmart import specfun
from detmart.errors import DomainError
from detmart.processes import besq, bm, rw


def simple(*points):
    return cfg.PointConfiguration.from_points(points)


def contour_phi(process, xi, u, s, x, z, nodes=256):
    """Reference: the residue at u of the two-time Phi integrand by a fixed
    trapezoid rule on a circle around u that excludes z and the other
    support points."""
    others = [r for r, _ in xi.atoms if r != u]
    radius = min([1.0, 0.5 * abs(z - u)] + [0.5 * abs(r - u) for r in others])
    ring = radius * np.exp(2j * math.pi * np.arange(nodes) / nodes)
    zeta = u + ring
    if process.tag == "BM":
        ratio = np.exp((-((x - zeta) ** 2) + (x - u) ** 2) / (2.0 * s))
    else:
        scale = 4.0 * s * s
        num = specfun.entire_bessel_series(process.nu, x * zeta / scale)
        den = specfun.entire_bessel_series(process.nu, x * u / scale)
        ratio = np.exp(-(zeta - u) / (2.0 * s)) * num / den
    vals = ratio / (z - zeta)
    for r, m in xi.atoms:
        vals = vals * ((z - r) / (zeta - r)) ** m
    return complex(np.mean(vals * ring))


class TestPointConfiguration:
    def test_sorting_and_merging(self):
        xi = cfg.PointConfiguration(((2.0, 1), (0.0, 1), (2.0 + 1e-12, 2)))
        assert xi.atoms == ((0.0, 1), (2.0, 3))
        assert xi.total() == 4
        assert not xi.simple()

    def test_square_merges_images(self):
        xi = simple(-1.0, 1.0).square()
        assert xi.atoms == ((1.0, 2),)

    def test_operations_preserve_total(self):
        xi = cfg.PointConfiguration(((-1.0, 2), (0.5, 1), (2.0, 3)))
        assert xi.square().total() == xi.total()

    def test_bad_multiplicity(self):
        with pytest.raises(DomainError):
            cfg.PointConfiguration(((0.0, 0),))

    def test_empty(self):
        with pytest.raises(DomainError, match="at least one point"):
            cfg.PointConfiguration(())

    def test_nonfinite_location(self):
        for loc in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                cfg.PointConfiguration.from_points([0.0, loc])


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
            got = contour_phi(bm(), xi, 0.0, s, x, complex(z))
            want = np.polynomial.polynomial.polyval(z, co)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "process, atoms",
        [
            (bm(), ((-1.0, 2), (0.5, 1), (1.7, 3))),
            (besq(1.0), ((0.3, 2), (1.5, 2))),
        ],
    )
    def test_matches_contour_integral(self, process, atoms):
        xi = cfg.PointConfiguration(atoms)
        rng = np.random.default_rng(29)
        for _ in range(4):
            s = rng.uniform(0.3, 1.5)
            x = rng.uniform(0.1, 2.5)
            for u in xi.support():
                for _ in range(3):
                    z = complex(rng.uniform(-2.0, 3.0), rng.uniform(-1.0, 1.0))
                    got = cfg.phi_twotime(process, xi, u, s, x, z)
                    want = contour_phi(process, xi, u, s, x, z)
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_length_kept_when_top_coefficient_vanishes(self):
        # BM, all mass at 0, x = 0: Phi = 1 + H_1(0) z / sqrt(2s) = 1
        xi = cfg.PointConfiguration(((0.0, 2),))
        co = cfg.phi_twotime_coeffs(bm(), xi, 0.0, 0.8, 0.0)
        assert co.tolist() == [1.0, 0.0]

    def test_value_at_u_is_one(self):
        # c_0 = prod_{r != u} (u - r)^{-m_r}, so Phi((s, x); u) = 1
        xi = cfg.PointConfiguration(((-1.0, 2), (0.5, 1), (1.7, 3)))
        for u in (-1.0, 1.7):
            co = cfg.phi_twotime_coeffs(bm(), xi, u, 0.6, 0.9)
            got = cfg.phi_twotime(bm(), xi, u, 0.6, 0.9, u)
            assert got == np.polynomial.polynomial.polyval(u, co)
            assert abs(got - 1.0) <= 1e-12

    def test_nonpositive_s_rejected(self):
        xi = cfg.PointConfiguration(((0.0, 2),))
        with pytest.raises(DomainError):
            cfg.phi_twotime_coeffs(bm(), xi, 0.0, 0.0, 0.0)

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


def per_matrix_det(mat):
    """The per-matrix partial-pivoted elimination that ``stacked_det``
    replaced, in the dtype of ``mat``: the reference for extended precision."""
    a = mat.copy()
    n = a.shape[0]
    det = a.dtype.type(1.0)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            return a.dtype.type(0.0)
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            det = -det
        det *= a[col, col]
        for row in range(col + 1, n):
            a[row, col:] -= (a[row, col] / a[col, col]) * a[col, col:]
    return det


def stacks(dtype, elements):
    """Stacks (m, n, n), m in 1..5 and n in 1..6."""
    sizes = st.tuples(st.integers(1, 5), st.integers(1, 6))
    shapes = sizes.map(lambda mn: (mn[0], mn[1], mn[1]))
    return hnp.arrays(dtype, shapes, elements=elements)


# six decimals, so that no product of entries underflows
_REALS = st.floats(-10.0, 10.0).map(lambda v: round(v, 6))
_COMPLEX = st.builds(complex, _REALS, _REALS)


def hadamard(mats):
    """The product of the row norms, which bounds |det|; rounding in an
    elimination is relative to it, not to det, which may cancel to 0."""
    return np.prod(np.linalg.norm(mats, axis=-1), axis=-1)


class TestStackedDet:
    @settings(max_examples=80, deadline=None)
    @given(mats=stacks(np.float64, _REALS) | stacks(np.complex128, _COMPLEX))
    def test_matches_lapack(self, mats):
        got = cfg.stacked_det(mats)
        assert got.dtype == mats.dtype and got.shape == mats.shape[:1]
        want = np.linalg.det(mats)
        assert np.all(np.abs(got - want) <= 1e-12 * hadamard(mats) + 1e-300)

    @settings(max_examples=60, deadline=None)
    @given(mats=stacks(np.float64, _REALS))
    def test_longdouble_equals_per_matrix_elimination(self, mats):
        mats = mats.astype(np.longdouble)
        got = cfg.stacked_det(mats)
        assert got.dtype == np.longdouble
        assert np.array_equal(got, [per_matrix_det(m) for m in mats])

    @settings(max_examples=60, deadline=None)
    @given(
        mats=stacks(np.float64, _REALS) | stacks(np.longdouble, _REALS),
        pick=st.integers(0, 4),
        data=st.data(),
    )
    def test_singular_gives_zero_without_warning(self, mats, pick, data):
        m, n = mats.shape[0], mats.shape[-1]
        k = pick % m
        if n > 1:
            # a repeated row: the elimination cancels it exactly
            pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            r1, r2 = data.draw(pair)
            mats[k, r2] = mats[k, r1]
        # a zero column in the next matrix: a zero pivot
        mats[(k + 1) % m, :, data.draw(st.integers(0, n - 1))] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cfg.stacked_det(mats)
        assert got[(k + 1) % m] == 0.0
        assert n == 1 or got[k] == 0.0

    def test_shapes_and_integer_input(self):
        assert cfg.stacked_det(np.array([[2, 1], [1, 3]])) == 5.0
        assert cfg.stacked_det(np.eye(3)[None, None]).shape == (1, 1)
        mats = np.arange(24.0).reshape(2, 3, 2, 2)
        np.testing.assert_allclose(cfg.stacked_det(mats), np.linalg.det(mats))
        cplx = np.zeros((2, 2), complex)
        assert cfg.stacked_det(cplx) == 0.0


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
