import math
import warnings
from fractions import Fraction

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


def rw_exact(t, y, x):
    """P(V(t) = y | V(0) = x) of the simple walk as an exact binomial."""
    d = y - x
    if d != int(d) or abs(d) > t or (t + d) % 2:
        return 0.0
    return math.comb(t, int(t + d) // 2) / 2**t


def rw_rtol(t):
    """Relative error of a walk probability taken as exp of log-factorials:
    rounding of terms of size log t! moves the exponent by that many ulps."""
    return 1e-15 * max(1.0, math.lgamma(t + 1.0))


# Gamma at the points of the log-gamma consistency check (uniform real part
# in [-4, 6), imaginary part in [-5, 5)), evaluated by mpmath 1.3.0 gamma at
# 40 digits and rounded to double
GAMMA_REFERENCE = (
    ((4.647975870165865+1.5967132084929148j), (-7.177918237444755+7.831863275666049j)),
    ((4.5530251493205895-0.44217039920734713j), (9.947090412274687-7.112925395348439j)),
    ((4.110233987843422+2.3265146684717664j), (-3.4226570669585756+0.01875178040091814j)),
    ((-1.385536385835234-0.2210996909805658j), (2.011384070237573-0.7694327642827274j)),
    ((-3.228005422815786-3.752786666940887j), (3.081583765424642e-05-4.838647929106333e-07j)),
    ((5.464657804460634+1.0457988803734422j), (-5.055379693015574+44.05605717451086j)),
    ((2.1379169104710183+2.4693642456191656j), (-0.0664775869953226+0.24256500232107026j)),
    ((-3.973692463737003+2.4414682883326924j), (-0.00015702748480505248+0.00018104678468721467j)),
    ((5.104071780658378+0.5156740126384483j), (19.232779937176247+19.390093419642376j)),
    ((5.848034752375554+4.284915198370209j), (5.277028420854377+18.66254499779464j)),
    ((-1.1370339583382956+4.457125619000804j), (0.00015197243251907386-0.00011633355517612584j)),
    ((4.136611230389795+3.7486966226967624j), (0.8093320802081203-1.0586171977449288j)),
    ((-3.175920561186918-1.283563648408772j), (-0.016811354148270216-0.007590822140031325j)),
    ((0.38280047303421405-2.322299257411886j), (0.050943222821644686+0.030162757004388693j)),
    ((4.177037747448075+0.2981198274967225j), (6.880541573172361+2.823548342972966j)),
    ((0.08733332689773654+1.5431021259207354j), (0.003718158573775062-0.18606002666239374j)),
    ((1.1774970718697713-3.394067316982381j), (-0.005297276743458386-0.027297606231037292j)),
    ((-2.8296011652493367+0.5946453561054907j), (-0.20347163780291164+0.06155577365493717j)),
    ((4.140065192501119-0.6105174689783324j), (4.783040620195959-4.860916241950818j)),
    ((0.9786740833251217-4.983352051474842j), (-0.0017584594449016285+0.0012450016761450904j)),
    ((-1.5172080511332808-0.8117021487968259j), (0.36257612466757944-0.21933656998806042j)),
    ((3.7668615600086843-1.001011067810058j), (1.3935796272035181-3.625173771732766j)),
    ((5.792282891895626+4.633892562820304j), (-4.832394705613803+12.76720037154592j)),
    ((1.3834323407629006-4.4548518857612995j), (-0.008030158017475395+0.003103147005128711j)),
    ((3.371502226207836+4.285460335053834j), (0.17745310679384987-0.1542639209175479j)),
    ((5.927606888483627+4.083194924222267j), (14.796263023008919+21.148943248094955j)),
    ((-3.6987250362467603+0.9980025007697888j), (0.013583061390264542+0.014581993686600606j)),
    ((1.9897765236677127-3.127709525452811j), (-0.08119599987601248-0.06759466733445747j)),
    ((5.672952777915867+2.913043338720918j), (6.930889973967252-31.044763859557165j)),
    ((-2.8266342615668316-3.3847830945202526j), (0.00013061364328889786-5.010616589168191e-05j)),
    ((-1.768985050060797-1.793596153555932j), (0.018323546914850976-0.018598580567484528j)),
    ((1.5022838898337287+1.6642308708141638j), (0.2818005239408057+0.1504476086162648j)),
    ((3.2232731071979597-0.7476469915867776j), (1.6236103778738005-1.54947211695102j)),
    ((1.5275241539482938-0.390747842075835j), (0.8283135062269772-0.02637242222305937j)),
    ((1.4770179564236612-1.9684277462621846j), (0.17611793702401124-0.143292610259512j)),
    ((-3.484611705256385-4.62762719510533j), (1.5278864347549272e-06-2.102338649243013e-06j)),
    ((3.3922971219474327-1.392318652785749j), (0.07749158606589501-2.1443332899670007j)),
    ((-0.7929849007718124+3.2662239012299423j), (-0.00030838216375696876-0.0031047009140428425j)),
    ((-3.2603812620859483+3.3016172507147843j), (5.976631392432434e-05-6.16143342945933e-05j)),
    ((5.584683194126471-4.189379858556945j), (7.45421262209286-10.07438141313345j)),
)


def gamma(z):
    return np.exp(specfun.log_gamma(z))


class TestGamma:
    def test_classical_values(self):
        assert gamma(1.0).real == pytest.approx(1.0, rel=1e-14)
        assert gamma(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma(5.0).real == pytest.approx(24.0, rel=1e-14)

    def test_recurrence_random(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.5, 20.0, size=100):
            lhs = gamma(x + 1.0)
            rhs = x * gamma(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_complex_reflection(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z - round(z.real)) < 0.05 and abs(z.imag) < 0.05:
                continue
            lhs = gamma(z) * gamma(1.0 - z)
            rhs = math.pi / np.sin(math.pi * z)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_complex_matches_real_axis(self):
        for x in (0.7, 1.3, 4.5, 12.0, 29.0):
            assert gamma(x).real == pytest.approx(math.gamma(x), rel=1e-12)

    def test_log_gamma_consistency(self):
        z, ref = (np.array(col) for col in zip(*GAMMA_REFERENCE))
        vals = gamma(z)
        assert np.max(np.abs(vals - ref) / np.abs(ref)) < 1e-13

    def test_log_gamma_reflection_bit_identical_to_two_branches(self):
        # the reflection used to evaluate log sin(pi z) on both half-planes
        # and pick one; evaluating it once on the upper half-plane image and
        # conjugating back must not move a bit
        rng = np.random.default_rng(17)
        re = rng.uniform(-8.0, 0.5, size=600)
        im = rng.uniform(-6.0, 6.0, size=600)
        im[::5] = 0.0
        im[1::10] = -0.0
        z = re + 1j * im
        z = z[np.abs(z - np.round(z.real)) > 1e-3]  # off the poles
        sin_upper = specfun._log_sin_pi_upper
        ls = np.where(
            z.imag >= 0.0, sin_upper(z), np.conj(sin_upper(np.conj(z)))
        )
        want = math.log(math.pi) - ls - specfun._log_gamma_right(1.0 - z)
        got = specfun.log_gamma(z)
        assert (z.imag == 0.0).sum() > 50 and (z.imag < 0).sum() > 50
        assert np.array_equal(got.view(np.float64), want.view(np.float64))


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
        # I_nu(x) = (x/2)^nu e_nu(x^2/4): the series at positive argument,
        # the branch the BESQ density takes
        x, nu = 1e-6, 1.0
        ref = (x / 2.0) ** nu / math.gamma(nu + 1.0)
        got = (x / 2.0) ** nu * specfun.entire_bessel_series(nu, x * x / 4.0)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_i_half_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
        for x in (0.2, 1.0, 5.0, 24.0, 50.0):
            ref = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
            got = math.sqrt(x / 2.0) * specfun.entire_bessel_series(0.5, x * x / 4.0)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_zeros_half_are_pi_multiples(self):
        for k, z in enumerate(specfun.bessel_zeros(0.5, 6), start=1):
            assert z == pytest.approx(k * math.pi, abs=1e-11)

    def test_zeros_invariants(self):
        for nu in (0.0, 0.5, 1.7, 6.0):
            zs = specfun.bessel_zeros(nu, 12)
            assert isinstance(zs, tuple) and len(zs) == 12
            assert all(z2 > z1 for z1, z2 in zip(zs, zs[1:]))
            for z in zs:
                assert abs(specfun.bessel_j(nu, z)) <= 1e-12

    def test_zeros_match_reference_values(self):
        # 30-digit values (mpmath besseljzero; (k - 1/2) pi for nu = -1/2)
        ref = {
            -0.5: (1.5707963267948966, 4.71238898038469, 20.420352248333657, 124.09290981679683),
            0.0: (2.404825557695773, 5.520078110286311, 21.21163662987926, 124.87930891323295),
            0.5: (3.141592653589793, 6.283185307179586, 21.991148575128552, 125.66370614359172),
            1.0: (3.8317059702075125, 7.015586669815619, 22.760084380592772, 126.44613869851659),
            2.5: (5.76345919689455, 9.095011330476355, 25.01280320228961, 128.78200361698467),
            10.0: (14.475500686554541, 18.43346366696658, 35.499909205373854, 140.23046526883238),
        }
        for nu, want in ref.items():
            zs = specfun.bessel_zeros(nu, 40)
            got = [zs[k - 1] for k in (1, 2, 7, 40)]
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_zero_count_bound(self):
        with pytest.raises(DomainError):
            specfun.bessel_zeros(0.5, 501)


def sech_powers_exact(count, order):
    """Exact coefficients of (cosh a)^(-t) for t = 0 .. count - 1 as lists of
    Fractions: the 1/cosh series by long division, raised to each integer
    power by repeated multiplication."""
    cosh = [
        Fraction(1, math.factorial(k)) if k % 2 == 0 else 0 for k in range(order + 1)
    ]
    sech = []
    for n in range(order + 1):
        sech.append((n == 0) - sum(cosh[k] * sech[n - k] for k in range(1, n + 1)))
    power = [Fraction(1)] + [Fraction(0)] * order
    out = []
    for _ in range(count):
        out.append(power)
        power = [
            sum(power[j] * sech[n - j] for j in range(n + 1) if power[j] and sech[n - j])
            for n in range(order + 1)
        ]
    return out


class TestCoshNegSeries:
    def test_t_zero(self):
        ps = specfun.cosh_neg_power_series(0, 6)
        assert ps[0] == 1.0
        assert all(c == 0.0 for c in ps[1:])

    def test_t_one(self):
        ps = specfun.cosh_neg_power_series(1, 2)
        assert ps[0] == pytest.approx(1.0, abs=1e-15)
        assert ps[1] == pytest.approx(0.0, abs=1e-15)
        assert ps[2] == pytest.approx(-0.5, abs=1e-14)

    def test_t_two_is_square(self):
        ps = specfun.cosh_neg_power_series(2, 2)
        assert ps[2] == pytest.approx(-1.0, abs=1e-14)

    def test_against_direct_evaluation(self):
        # compare the truncated series with sech(a)^t at small a; t need
        # not be an integer
        order, a = 16, 0.15
        for t in (5, 2.5, 0.3):
            ps = specfun.cosh_neg_power_series(t, order)
            approx = sum(c * a**k for k, c in enumerate(ps))
            exact = math.cosh(a) ** (-t)
            assert approx == pytest.approx(exact, abs=1e-13)

    def test_matches_exact_rationals(self):
        order, worst = 64, 0.0
        for t, want in enumerate(sech_powers_exact(40, order)):
            got = specfun.cosh_neg_power_series(t, order)
            assert len(got) == order + 1
            for n in range(order + 1):
                if want[n] == 0:
                    assert got[n] == 0.0
                else:
                    worst = max(worst, abs(got[n] / float(want[n]) - 1.0))
        assert worst <= 1e-14

    def test_cached_value_independent_of_call_history(self):
        cases = [(t, n) for t in (1, 3, 7, 39) for n in (0, 1, 5, 17, 64)]

        def bits(t, n):
            return np.array(specfun.cosh_neg_power_series(t, n)).tobytes()

        specfun.cosh_neg_power_series.cache_clear()
        cold = [bits(t, n) for t, n in cases]
        assert [bits(t, n) for t, n in cases] == cold
        specfun.cosh_neg_power_series.cache_clear()
        full = {t: specfun.cosh_neg_power_series(t, 64) for t, _ in cases}
        assert [bits(t, n) for t, n in cases] == cold
        # the low coefficients do not depend on the order the series is built to
        assert [np.array(full[t][: n + 1]).tobytes() for t, n in cases] == cold


class TestTransitionDensity:
    def test_rw_single_step(self):
        assert specfun.transition_density(rw(), 1, 1, 0) == 0.5
        assert specfun.transition_density(rw(), 1, 2, 0) == 0.0
        assert specfun.transition_density(rw(), 1, -1, 0) == 0.5

    def test_rw_normalization(self):
        for t in range(1, 21):
            ys = np.arange(-t, t + 1)
            probs = specfun.transition_density(rw(), t, ys, 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            want = [rw_exact(t, y, 0) for y in ys]
            assert np.allclose(probs, want, rtol=rw_rtol(t), atol=0.0)

    def test_rw_grid_matches_scalar(self):
        # array ops over a log-factorial table against the exact binomial;
        # wrong parity, unreachable and non-integer sites are exactly 0
        for t in (0, 1, 2, 7, 40, 1000):
            ys = np.arange(-t - 3, t + 4, dtype=float)[:, None]
            xs = np.array([-2.0, 0.0, 1.0, 3.0, 0.5])[None, :]
            grid = specfun.transition_density(rw(), t, ys, xs)
            assert grid.shape == (ys.size, xs.size)
            want = np.array([[rw_exact(t, a, b) for b in xs[0]] for a in ys[:, 0]])
            assert ((grid == 0.0) == (want == 0.0)).all()
            assert np.allclose(grid, want, rtol=rw_rtol(t), atol=0.0)
        assert isinstance(specfun.transition_density(rw(), 3, 1, 0), float)

    def test_rw_bit_equal_to_log_factorial_table(self):
        # the lgamma table up to t that the sparse lookup replaced
        for t in range(201):
            ys = np.arange(-t - 3, t + 4, dtype=float)[:, None]
            xs = np.array([-2.0, 0.0, 1.0, 0.5])
            d = ys - xs
            k = (t + d) / 2.0
            ok = (k == np.floor(k)) & (np.abs(d) <= t)
            k = np.where(ok, k, 0.0).astype(int)
            log_fact = np.array([math.lgamma(j + 1.0) for j in range(t + 1)])
            log_p = log_fact[t] - log_fact[k] - log_fact[t - k] - t * math.log(2.0)
            want = np.where(ok, np.exp(log_p), 0.0)
            assert np.array_equal(specfun.transition_density(rw(), t, ys, xs), want)

    def test_rw_lgamma_calls_scale_with_the_grid(self, monkeypatch):
        calls = []
        lgamma = math.lgamma
        monkeypatch.setattr(math, "lgamma", lambda v: calls.append(v) or lgamma(v))
        ys = np.arange(-6.0, 7.0)
        for t in (10**6, 10**8):
            calls.clear()
            probs = specfun.transition_density(rw(), t, ys, 0.0)
            assert len(calls) <= 2 * ys.size + 1
            # the mass near the centre: sqrt(2 / (pi t)) on every other site
            assert probs[6] == pytest.approx(math.sqrt(2.0 / (math.pi * t)), rel=1e-5)

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


class TestGaussLegendre:
    def test_largest_rule_is_built(self):
        nodes, weights = quadrature.gauss_legendre(1024)
        assert len(nodes) == 1024
        assert abs(weights.sum() - 2.0) <= 1e-13

    @pytest.mark.parametrize("n", [0, -3, 1025, 100_000])
    def test_rule_size_out_of_range_refused(self, n):
        with pytest.raises(DomainError, match="1 to 1024"):
            quadrature.gauss_legendre(n)


class TestGaussHermite:
    def test_largest_rule_is_finite(self):
        nodes, weights = quadrature.gauss_hermite(360)
        assert np.isfinite(nodes).all()
        assert (weights > 0).all()
        assert abs(weights.sum() - math.sqrt(math.pi)) <= 1e-14

    def test_larger_rule_refused_without_warning(self):
        # numpy's rule overflows from 371 nodes on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                quadrature.gauss_hermite(361)
