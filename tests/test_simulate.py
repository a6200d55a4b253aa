import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmart import configurations as cfg
from detmart import fredholm as fred
from detmart import kernels as ker
from detmart import martingales as mart
from detmart import simulate as sim
from detmart import specfun
from detmart.errors import CapacityError, DomainError
from detmart.processes import bes, besq, bm, rw


def simple(*points):
    return cfg.PointConfiguration.from_points(points)


def ones(paths):
    return np.ones(paths.shape[0])


class TestSampleFree:
    def test_deterministic(self):
        a = sim.sample_free(bm(), [0.0, 1.0], [0.5, 1.0], 5000, seed=42)
        b = sim.sample_free(bm(), [0.0, 1.0], [0.5, 1.0], 5000, seed=42)
        assert (a.paths == b.paths).all()
        c = sim.sample_free(bm(), [0.0, 1.0], [0.5, 1.0], 5000, seed=43)
        assert not (a.paths == c.paths).all()

    def test_bm_mean(self):
        u = [0.3, 1.7]
        ens = sim.sample_free(bm(), u, [0.8], 100_000, seed=1)
        for j, uj in enumerate(u):
            vals = ens.paths[:, 0, j]
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - uj) <= 4 * se

    def test_besq_mean(self):
        nu, x0, t = 0.5, 1.2, 0.9
        ens = sim.sample_free(besq(nu), [x0], [t], 100_000, seed=2)
        vals = ens.paths[:, 0, 0]
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - (x0 + 2 * (nu + 1) * t)) <= 4 * se
        assert (vals >= 0).all()

    def test_rw_parity(self):
        ens = sim.sample_free(rw(), [0, 2], [1, 2, 5], 2000, seed=3)
        for m, t in enumerate(ens.times):
            assert ((ens.paths[:, m, :] - np.array([0, 2])) % 2 == t % 2).all()

    def test_besq_marginal_matches_density(self):
        # histogram check against the exact transition density; the bin
        # mass is integrated in u = sqrt(y) where the nu < 0 density is finite
        nu, x0, t = -0.3, 2.0, 0.7
        ens = sim.sample_free(besq(nu), [x0], [t], 200_000, seed=4)
        vals = ens.paths[:, 0, 0]
        edges = np.linspace(0.0, 10.0, 21)
        hist, _ = np.histogram(vals, bins=edges)
        n = len(vals)
        for i in range(len(edges) - 1):
            grid = np.linspace(math.sqrt(edges[i]), math.sqrt(edges[i + 1]), 201)
            grid[grid == 0.0] = 1e-12  # u = 0 limit of 2 u * density is 0
            dens = specfun.transition_density(besq(nu), t, grid * grid, x0) * 2 * grid
            p = float(np.trapezoid(dens, grid))
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(hist[i] / n - p) <= 5 * se + 1e-4

    @pytest.mark.parametrize(
        "proc, x0, times, hi, seed",
        [
            (besq(0.0), 2.0, (0.35, 0.7), 12.0, 21),
            (besq(0.5), 1.5, (0.25, 0.5), 10.0, 22),
            (besq(1.0), 3.0, (0.6, 1.2), 18.0, 23),
            (besq(0.5), 0.0, (0.4, 0.8), 10.0, 24),  # noncentrality 0
            (besq(-0.3), 0.0, (0.3, 0.6), 6.0, 25),
            (bes(1.5), 1.0, (0.5, 1.0), 5.0, 26),
            (bes(1.5), 0.0, (0.5, 1.0), 5.0, 27),
            (besq(-0.7), 1.0, (0.3, 0.6), 6.0, 28),  # df < 1: numpy's sampler
        ],
    )
    def test_marginals_match_density(self, proc, x0, times, hi, seed):
        # both time slices, so the second transition starts from a random
        # state; BESQ bin masses are integrated in u = y^a, a = min(1/2, nu + 1),
        # where the density (~ y^nu at 0) is finite, BES in y
        n = 200_000
        ens = sim.sample_free(proc, [x0], times, n, seed=seed)
        edges = np.linspace(0.0, hi, 21)
        for m, t in enumerate(times):
            hist, _ = np.histogram(ens.paths[:, m, 0], bins=edges)
            for i in range(len(edges) - 1):
                if proc.tag == "BESQ":
                    a = min(0.5, proc.nu + 1.0)
                    grid = np.linspace(edges[i] ** a, edges[i + 1] ** a, 201)
                    grid[grid == 0.0] = 1e-12
                    jac = grid ** (1 / a - 1) / a
                    dens = specfun.transition_density(proc, t, grid ** (1 / a), x0) * jac
                else:
                    grid = np.linspace(edges[i], edges[i + 1], 201)
                    dens = specfun.transition_density(proc, t, grid, x0)
                p = float(np.trapezoid(dens, grid))
                se = math.sqrt(max(p * (1 - p), 1e-12) / n)
                assert abs(hist[i] / n - p) <= 5 * se + 1e-4, (t, i)

    @pytest.mark.parametrize("steps", [1, 3, 64, 65, 130])
    def test_walk_increments_binomial(self, steps):
        # increments are 2 * Binomial(steps, 1/2) - steps; 64 fair bits are
        # drawn per word, so 65 and 130 steps take two and three words
        n = 100_000
        ens = sim.sample_free(rw(), [0, 2], [steps, 2 * steps], n, seed=steps)
        incs = np.concatenate(
            [ens.paths[:, 0, :] - [0, 2], ens.paths[:, 1, :] - ens.paths[:, 0, :]]
        ).ravel()
        heads = (incs + steps) / 2
        assert (heads == np.round(heads)).all()
        counts = np.bincount(heads.astype(int), minlength=steps + 1)
        assert len(counts) == steps + 1
        total = len(incs)
        for k in range(steps + 1):
            p = math.comb(steps, k) / 2.0**steps
            se = math.sqrt(max(p * (1 - p), 1e-12) / total)
            assert abs(counts[k] / total - p) <= 5 * se + 1e-4, k


class TestCompanions:
    def test_companion_zero_at_time_zero(self):
        ens = sim.sample_free(bm(), [0.0], [0.0, 1.0], 100, seed=5)
        ens = sim.attach_companions(ens, seed2=6)
        assert (ens.companions[:, 0, 0] == 0.0).all()

    def test_independence(self):
        ens = sim.sample_free(bm(), [0.0], [1.0], 50_000, seed=7)
        ens = sim.attach_companions(ens, seed2=8)
        a = ens.paths[:, 0, 0]
        b = ens.companions[:, 0, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4 / math.sqrt(len(a))

    def test_rw_companion_variance(self):
        t = 3
        ens = sim.sample_free(rw(), [0], [t], 50_000, seed=9)
        ens = sim.attach_companions(ens, seed2=10)
        w = ens.companions[:, 0, 0]
        var = w.var(ddof=1)
        se = np.var(w**2, ddof=1) ** 0.5 / math.sqrt(len(w))
        assert abs(var - t) <= 4 * se


class TestDetWeight:
    def test_normalization_bm(self):
        xi = simple(-1.0, 0.0, 1.5)
        est = sim.dmr_expectation(bm(), xi, ones, [1.0], 100_000, seed=11)
        assert abs(est.mean - 1.0) <= 4 * est.std_error

    def test_normalization_rw(self):
        xi = simple(0.0, 2.0, 4.0, 6.0)
        est = sim.dmr_expectation(rw(), xi, ones, [3], 100_000, seed=12)
        assert abs(est.mean - 1.0) <= 4 * est.std_error

    def test_normalization_besq(self):
        xi = simple(0.5, 2.0)
        est = sim.dmr_expectation(besq(0.5), xi, ones, [1.0], 100_000, seed=13)
        assert abs(est.mean - 1.0) <= 4 * est.std_error


def matrix_det_weight(process, xi, T, ends):
    """The matrix route the closed form replaced: det of the martingale
    values M_xi^{u_k}(T, V_j) assembled from monomial coefficients, in
    extended precision (in double it misses h(V)/h(u) by 1e-9 at N = 4,
    T = 1: BESQ(1/2), u = (1, 2.5, 3, 3.25), V = (0.5, 0.75, 1, 2))."""
    cmat = cfg.phi_coeffs(xi)
    mats = mart.poly_values(process, len(cmat) - 1, T, ends.astype(np.longdouble)) @ cmat
    return cfg.stacked_det(mats)


def lapack_cpr_weight(process, xi, T, z):
    """The matrix route for det[phi_xi^{u_k}(Z_j)]; for BES(n + 1/2) the
    entries are q(Z_j) times the Lagrange basis in Z_j^2 over the u^2."""
    sup = xi.support()
    if process.tag == "BES":
        q = mart.bes_q_factor(int(process.nu - 0.5), T, z)
        cols = [
            q * np.prod([(z * z - r * r) / (u * u - r * r) for r in sup if r != u], axis=0)
            for u in sup
        ]
    else:
        cols = [cfg.phi_simple(xi, u, z) for u in sup]
    return np.linalg.det(np.stack(cols, axis=-1))


@st.composite
def weight_case(draw, tag):
    """(starts, end rows) with N = 2..4: increasing starts and rows of end
    points in arbitrary order, so weights of either sign occur; spacings
    lie in [0.25, 2.25] (distinct sites for the walk).  The matrix routes
    lose digits as N and T grow (the lower coefficients of the BESQ m_l
    grow like (2T)^l l!: at N = 4, T = 2 BESQ(0) misses h(u)/h(u) = 1 by
    1.5e-9), so BESQ horizons stay below 1; the det route runs in extended
    precision, and verify martingales covers N = 5."""
    n = draw(st.integers(2, 4))
    lo = 0.0 if tag in ("BESQ", "BES") else float(draw(st.integers(-6, 0)))
    gaps = st.integers(1, 3).map(float) if tag == "RW" else st.floats(0.25, 2.25)

    def points():
        return lo + np.cumsum(draw(st.lists(gaps, min_size=n, max_size=n)))

    starts = points()
    rows = [draw(st.permutations(list(points()))) for _ in range(draw(st.integers(1, 4)))]
    return starts, np.array(rows, dtype=float)


class TestWeightClosedForms:
    @pytest.mark.parametrize(
        "tag, procs, horizons",
        [
            ("BM", st.just(bm()), st.floats(0.0, 2.0)),
            ("BESQ", st.sampled_from([besq(0.0), besq(0.5), besq(1.0)]), st.floats(0.0, 1.0)),
            ("RW", st.just(rw()), st.integers(0, 8)),
        ],
        ids=["BM", "BESQ", "RW"],
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_det_matches_matrix_route(self, data, tag, procs, horizons):
        proc, T = data.draw(procs), data.draw(horizons)
        starts, ends = data.draw(weight_case(tag))
        xi = simple(*starts)
        np.testing.assert_allclose(
            sim.det_weight(proc, xi, T, ends),
            matrix_det_weight(proc, xi, T, ends),
            rtol=1e-9,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        proc=st.sampled_from([bm(), rw(), bes(0.5), bes(1.5), bes(2.5)]),
        case=weight_case("BES"),
        imag=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        T=st.floats(0.1, 2.0),
    )
    def test_cpr_matches_matrix_route(self, proc, case, imag, T):
        starts, ends = case
        xi = simple(*starts)
        z = ends + 1j * np.array(imag[: ends.shape[1]])
        np.testing.assert_allclose(
            sim.cpr_weight(proc, xi, T, z),
            lapack_cpr_weight(proc, xi, T, z),
            rtol=1e-9,
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda xi, e: sim.det_weight(bes(1.5), xi, 1.0, e),
            lambda xi, e: sim.det_weight(rw(), xi, 2.5, e),
            lambda xi, e: sim.det_weight(bm(), xi, -1.0, e),
            lambda xi, e: sim.det_weight(bm(), xi, 1.0, e[:, :1]),
            lambda xi, e: sim.cpr_weight(bes(1.0), xi, 1.0, e),
            lambda xi, e: sim.cpr_weight(bes(-0.5), xi, 1.0, e),
            lambda xi, e: sim.cpr_weight(besq(0.5), xi, 1.0, e),
            lambda xi, e: sim.cpr_weight(bm(), xi, 1.0, e[:, :1]),
        ],
        ids=[
            "dmr-bes",
            "dmr-rw-fractional-horizon",
            "dmr-negative-horizon",
            "dmr-column-count",
            "cpr-bes-integer-index",
            "cpr-bes-negative-order",
            "cpr-besq",
            "cpr-column-count",
        ],
    )
    def test_refusals(self, call):
        with pytest.raises(DomainError):
            call(simple(1.0, 2.0), np.array([[1.5, 2.5], [3.0, 0.5]]))

    def test_multiple_points_refused(self):
        xi = cfg.PointConfiguration(((1.0, 2),))
        with pytest.raises(DomainError):
            sim.det_weight(bm(), xi, 1.0, np.array([[0.5, 1.5]]))
        with pytest.raises(DomainError):
            sim.cpr_weight(bm(), xi, 1.0, np.array([[0.5, 1.5]]))


class TestBruteForce:
    def test_symmetric_mean_zero(self):
        xi = simple(0.0)
        free, doob = sim.brute_force_rw(xi, lambda p: p[:, 0, 0], [1])
        assert free == pytest.approx(0.0, abs=1e-15)

    def test_doob_total_mass(self):
        xi = simple(0.0, 2.0)
        free, doob = sim.brute_force_rw(xi, ones, [2], T=2)
        assert doob == pytest.approx(1.0, abs=1e-13)
        assert free == pytest.approx(1.0, abs=1e-13)

    def test_free_weighted_equals_doob(self):
        xi = simple(0.0, 2.0)
        rng = np.random.default_rng(33)
        for trial in range(5):
            table = {}

            def F(p, table=table, rng=rng):
                # bounded symmetric function: random per-site values
                out = np.ones(p.shape[0])
                for m in range(p.shape[1]):
                    for j in range(p.shape[2]):
                        key_arr = p[:, m, j].astype(int)
                        vals = np.array(
                            [
                                table.setdefault((m, k), rng.uniform(0.2, 1.0))
                                for k in key_arr
                            ]
                        )
                        out *= vals
                return out

            free, doob = sim.brute_force_rw(xi, F, [2, 4], T=4)
            assert free == pytest.approx(doob, abs=1e-12)

    def test_vector_observable_columns_equal_scalar_calls(self):
        xi = simple(0.0, 2.0)
        tables = np.random.default_rng(5).uniform(0.2, 1.0, size=(3, 2, 21))

        def column(i):
            # a product of per-time site values, one table per column
            def F(p):
                sites = p.astype(int) + 10
                return np.prod(tables[i][np.arange(2)[:, None], sites], axis=(1, 2))

            return F

        def hit(p):
            both = (p[:, 0, :] == 2).any(axis=1) & (p[:, 1, :] == 4).any(axis=1)
            return both.astype(float)

        scalars = [column(0), column(1), hit, column(2)]
        free, doob = sim.brute_force_rw(
            xi, lambda p: np.column_stack([F(p) for F in scalars]), [2, 4], T=4
        )
        assert free.shape == doob.shape == (4,)
        for i, F in enumerate(scalars):
            f1, d1 = sim.brute_force_rw(xi, F, [2, 4], T=4)
            assert type(f1) is float and type(d1) is float
            assert free[i] == f1 and doob[i] == d1

    def test_capacity_bound(self):
        xi = simple(0.0, 2.0, 4.0)
        with pytest.raises(CapacityError):
            sim.brute_force_rw(xi, ones, [9], T=9)


class TestStartChecks:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: sim.dmr_expectation(besq(0.5), simple(-1.0, 2.0), ones, [1.0], 100, 1),
            lambda: sim.cpr_expectation(bes(1.5), simple(-1.0, 2.0), ones, [1.0], 100, 1),
            lambda: sim.dmr_expectation(rw(), simple(0.5, 2.0), ones, [2], 100, 1),
            lambda: sim.cpr_expectation(rw(), simple(0.5, 2.0), ones, [2], 100, 1),
            # walkers of mixed parity swap places without meeting
            lambda: sim.dmr_expectation(rw(), simple(0.0, 1.0), ones, [2], 100, 1),
            lambda: sim.cpr_expectation(rw(), simple(0.0, 1.0), ones, [2], 100, 1),
            lambda: sim.brute_force_rw(simple(0.5, 2.0), ones, [2]),
            lambda: sim.brute_force_rw(simple(0.0, 1.0), ones, [2]),
            lambda: sim.sample_free(besq(0.5), [-1.0, 2.0], [1.0], 100, 1),
            lambda: sim.sample_free(rw(), [0.5, 2.0], [2], 100, 1),
            lambda: sim.sample_free(bm(), [0.0, 1.0], [], 100, 1),
            lambda: sim.dmr_expectation(bm(), simple(0.0, 1.0), ones, [], 100, 1),
        ],
        ids=[
            "dmr-besq-negative",
            "cpr-bes-negative",
            "dmr-rw-fractional",
            "cpr-rw-fractional",
            "dmr-rw-mixed-parity",
            "cpr-rw-mixed-parity",
            "enumeration-fractional",
            "enumeration-mixed-parity",
            "free-besq-negative",
            "free-rw-fractional",
            "free-no-times",
            "dmr-no-times",
        ],
    )
    def test_refused(self, call):
        with pytest.raises(DomainError):
            call()

    def test_free_walk_of_mixed_parity_allowed(self):
        # free paths need no parity; only the representations do
        ens = sim.sample_free(rw(), [0.0, 1.0], [2], 100, seed=1)
        assert ens.paths.shape == (100, 1, 2)


def _walk_spec(ts):
    return fred.TestFunctionSpec(ts, (fred.SiteChi(((0, 0.5),)),) * len(ts))


# every entry point that takes a time axis, and whether it runs the walk
# (which also refuses a fractional time)
TIME_AXIS_ENTRIES = {
    "sample_free": (lambda ts: sim.sample_free(rw(), [0.0, 2.0], ts, 10, 1), True),
    "sample_noncolliding": (
        lambda ts: sim.sample_noncolliding(bm(), simple(0.0, 2.0), ts, 0.01, 10, 1), False
    ),
    "sample_noncolliding_rw": (
        lambda ts: sim.sample_noncolliding_rw(simple(0.0, 2.0), ts, 10, 1), True
    ),
    "dmr_expectation": (
        lambda ts: sim.dmr_expectation(rw(), simple(0.0, 2.0), ones, ts, 10, 1), True
    ),
    "cpr_expectation": (
        lambda ts: sim.cpr_expectation(rw(), simple(0.0, 2.0), ones, ts, 10, 1), True
    ),
    "brute_force_rw": (lambda ts: sim.brute_force_rw(simple(0.0, 2.0), ones, ts), True),
    "mgf_monte_carlo": (
        lambda ts: fred.mgf_monte_carlo(rw(), simple(0.0, 2.0), _walk_spec(ts), 10, 1), True
    ),
    "SpaceTimeQuery": (lambda ts: ker.SpaceTimeQuery(ts, ((0.5,),) * len(ts)), False),
    "TestFunctionSpec": (_walk_spec, False),
    "fredholm_series": (
        lambda ts: fred.fredholm_series(ker.rw_kernel(simple(0.0, 2.0)), _walk_spec(ts)), True
    ),
}
BAD_AXES = [[], [math.inf], [math.nan], [2.0, 1.0], [-1.0]]


class TestTimeChecks:
    @pytest.mark.parametrize(
        "name, ts",
        [(name, ts) for name, (_, walk) in TIME_AXIS_ENTRIES.items()
         for ts in BAD_AXES + [[2.5]] * walk],
        ids=str,
    )
    def test_bad_axis_refused(self, name, ts):
        with pytest.raises(DomainError):
            TIME_AXIS_ENTRIES[name][0](ts)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0, 2.5])
    def test_walk_kernel_grid_refuses_bad_time(self, bad):
        # it returned zeros here
        kern = ker.rw_kernel(simple(0.0, 2.0))
        for s, t in ((bad, 2), (2, bad)):
            with pytest.raises(DomainError):
                ker.kernel_eval_grid(kern, s, [0.0, 1.0], t, [0.0, 2.0])

    @pytest.mark.parametrize(
        "process, T", [(rw(), 3.5), (rw(), math.inf), (rw(), math.nan),
                       (bm(), math.inf), (bm(), math.nan)],
        ids=str,
    )
    @pytest.mark.parametrize("estimator", [sim.dmr_expectation, sim.cpr_expectation])
    def test_bad_horizon_refused(self, estimator, process, T):
        # a walk horizon of 3.5 used to be rounded, inf to overflow and a
        # BM horizon of nan to become the last time
        with pytest.raises(DomainError):
            estimator(process, simple(0.0, 2.0), ones, [2], 10, 1, T=T)

    @pytest.mark.parametrize("T", [3.5, math.inf, math.nan])
    def test_enumeration_horizon_refused(self, T):
        # 3.5 used to be truncated to 3
        with pytest.raises(DomainError):
            sim.brute_force_rw(simple(0.0, 2.0), ones, [2], T=T)

    def test_enumeration_observes_time_zero(self):
        # time 0 is the start, not the position at the horizon
        def first(p):
            return p[:, 0, 0]

        assert sim.brute_force_rw(simple(0.0, 2.0), first, [0, 2]) == (0.0, 0.0)
        assert sim.brute_force_rw(simple(0.0, 2.0), first, [0]) == (0.0, 0.0)


class TestSortParticles:
    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_np_sort(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        real = rng.standard_normal((257, m, n))
        # walk positions: few integer values, so most rows carry ties
        walk = rng.integers(-3, 4, size=(257, m, n)).astype(float)
        tied = np.repeat(real[..., :1], n, axis=2)
        for paths in (real, walk, tied, real[:, :, ::-1]):
            got = sim._sort_particles(paths)
            assert got.shape == paths.shape
            assert got.tobytes() == np.sort(paths, axis=2).tobytes()


class TestDmrAgainstEnumeration:
    def test_occupancy_probability(self):
        xi = simple(0.0, 2.0)

        def F(p):
            return ((p[:, 0, 0] == 0) & (p[:, 0, 1] == 2)).astype(float)

        _, exact = sim.brute_force_rw(xi, F, [2], T=2)
        est = sim.dmr_expectation(rw(), xi, F, [2], 100_000, seed=14, T=2)
        assert abs(est.mean - exact) <= 4 * est.std_error


class TestCpr:
    def test_unit_mean_bm(self):
        xi = simple(-1.0, 1.0)
        est = sim.cpr_expectation(bm(), xi, ones, [1.0], 50_000, seed=15)
        assert abs(est.mean.real - 1.0) <= 4 * est.std_error
        assert abs(est.mean.imag) <= 4 * est.std_error_imag

    def test_unit_mean_rw(self):
        xi = simple(0.0, 2.0)
        est = sim.cpr_expectation(rw(), xi, ones, [2], 20_000, seed=16)
        assert abs(est.mean.real - 1.0) <= 4 * est.std_error
        assert abs(est.mean.imag) <= 4 * est.std_error_imag

    def test_unit_mean_bes(self):
        xi = simple(1.0, 2.5)
        est = sim.cpr_expectation(bes(0.5), xi, ones, [0.8], 20_000, seed=17)
        assert abs(est.mean.real - 1.0) <= 4 * est.std_error
        assert abs(est.mean.imag) <= 4 * est.std_error_imag

    def test_rw_cpr_matches_dmr(self):
        xi = simple(0.0, 2.0)

        def F(p):
            return ((p[:, 0, 0] == 0) & (p[:, 0, 1] == 2)).astype(float)

        a = sim.cpr_expectation(rw(), xi, F, [2], 30_000, seed=18)
        b = sim.dmr_expectation(rw(), xi, F, [2], 30_000, seed=19)
        assert abs(a.mean.real - b.mean) <= 4 * a.combined_se(b)

    def test_rw_dmr_repeats_bit_for_bit(self):
        # the walk weights read a cached series; a second run must not move
        xi = simple(-2.0, 0.0, 2.0, 4.0)
        runs = [sim.dmr_expectation(rw(), xi, ones, [2, 4], 5000, seed=21) for _ in "ab"]
        assert runs[0] == runs[1]

    def test_rw_same_for_any_worker_count(self):
        # each block's walk companions come from that block's own stream
        xi = simple(0.0, 2.0)
        n = 3 * sim.BLOCK + 5
        serial = sim.cpr_expectation(rw(), xi, ones, [1, 3], n, seed=20)
        pooled = sim.cpr_expectation(rw(), xi, ones, [1, 3], n, seed=20, workers=2)
        assert serial == pooled


def vandermonde_ratio_rw(xi, times, n_paths, seed):
    """The ordered-walk sampler with the step it had before the pair factors:
    every candidate state x + e formed as a (paths, 2^N, N) array, weighted by
    2^{-N} h(x + e) / h(x) from two Vandermonde products, the move picked
    by inverse CDF from one uniform per path of the (seed, block) stream."""
    u = np.array(xi.support(), dtype=float)
    n = len(u)
    moves = np.array(list(itertools.product((-1, 1), repeat=n)), dtype=float)
    record = {int(t): i for i, t in enumerate(times)}

    def one_block(block, size):
        rng = sim.stream(seed, block)
        out = np.empty((size, len(times), n))
        state = np.broadcast_to(u, (size, n)).copy()
        if 0 in record:
            out[:, record[0], :] = state
        for step in range(1, int(times[-1]) + 1):
            cand = state[:, None, :] + moves[None, :, :]
            h_new = cfg.vandermonde(cand)
            weights = np.maximum(h_new, 0.0) / (2.0**n * cfg.vandermonde(state)[:, None])
            cum = np.cumsum(weights, axis=1)
            pick = (rng.random(size)[:, None] >= cum).sum(axis=1)
            state = cand[np.arange(size), pick, :]
            if step in record:
                out[:, record[step], :] = state
        return out

    return sim._run_blocks(n_paths, 1, one_block)


# N = 1-5 from even and odd starts, some time axes starting at 0
WALK_ORACLE_CASES = [
    ((0,), (0, 3)),
    ((1,), (2, 5)),
    ((0, 2), (0, 1, 4)),
    ((-3, 1), (3, 6)),
    ((0, 2, 4), (2, 6)),
    ((-5, -1, 3), (0, 5)),
    ((0, 2, 6, 8), (1, 4)),
    ((1, 3, 5, 9), (0, 3)),
    ((0, 2, 4, 6, 8), (0, 2, 4)),
    ((-3, -1, 1, 3, 5), (3,)),
]


class TestNoncollidingRw:
    @pytest.mark.parametrize("seed", [3, 19])
    @pytest.mark.parametrize("starts, times", WALK_ORACLE_CASES)
    def test_pair_factors_match_vandermonde_ratio(self, starts, times, seed):
        # the same paths, bit for bit, over three blocks (the last one short)
        xi = simple(*starts)
        n = 2 * sim.BLOCK + 3
        paths = sim.sample_noncolliding_rw(xi, times, n, seed).paths
        assert (paths == vandermonde_ratio_rw(xi, times, n, seed)).all()

    def test_single_particle_free_law(self):
        xi = simple(0.0)
        ens = sim.sample_noncolliding_rw(xi, [2], 50_000, seed=20)
        vals = ens.paths[:, 0, 0]
        for site, p in ((-2, 0.25), (0, 0.5), (2, 0.25)):
            freq = float((vals == site).mean())
            se = math.sqrt(p * (1 - p) / len(vals))
            assert abs(freq - p) <= 4 * se

    def test_ordering_always(self):
        xi = simple(0.0, 2.0)
        ens = sim.sample_noncolliding_rw(xi, [1, 2, 3, 4], 20_000, seed=21)
        assert (np.diff(ens.paths, axis=2) > 0).all()

    def test_step_weights_sum_to_one(self):
        # harmonicity of the Vandermonde factor, state by state
        for state in ([0, 2], [-2, 4], [0, 2, 4], [-4, 0, 6]):
            state = np.array(state, dtype=float)
            n = len(state)
            h_old = cfg.vandermonde(state)
            total = 0.0
            for eps in itertools.product((-1, 1), repeat=n):
                h_new = cfg.vandermonde(state + np.array(eps))
                total += max(h_new, 0.0) / (2.0**n * h_old)
            assert abs(total - 1.0) <= 1e-12

    def test_marginal_matches_enumeration(self):
        # from even and from odd starts, offset o
        states = [(-2, 0), (-2, 2), (-2, 4), (0, 2), (0, 4), (2, 4)]
        for o in (0, 1):
            xi = simple(0.0 + o, 2.0 + o)
            ens = sim.sample_noncolliding_rw(xi, [2], 100_000, seed=22 + o)
            for a, b in ((a + o, b + o) for a, b in states):

                def F(p, a=a, b=b):
                    return ((p[:, 0, 0] == a) & (p[:, 0, 1] == b)).astype(float)

                _, exact = sim.brute_force_rw(xi, F, [2], T=2)
                freq = float(
                    ((ens.paths[:, 0, 0] == a) & (ens.paths[:, 0, 1] == b)).mean()
                )
                se = math.sqrt(max(exact * (1 - exact), 1e-12) / ens.n_paths)
                assert abs(freq - exact) <= 4 * se + 1e-6


class TestNoncollidingDiffusion:
    def test_ordering_preserved(self):
        xi = simple(0.0, 2.0)
        ens = sim.sample_noncolliding(bm(), xi, [0.25, 0.5], 0.002, 2000, seed=23)
        assert (np.diff(ens.paths, axis=2) > 0).all()

    def test_single_particle_marginal_ks(self):
        xi = simple(0.0)
        t = 1.0
        ens = sim.sample_noncolliding(bm(), xi, [t], 0.01, 100_000, seed=24)
        vals = np.sort(ens.paths[:, 0, 0])
        grid = np.arange(1, len(vals) + 1) / len(vals)
        cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2 * t)) for v in vals]))
        ks = float(np.max(np.abs(grid - cdf)))
        assert ks <= 1.63 / math.sqrt(len(vals))  # 1% level

    def test_smooth_observable_matches_quadrature(self):
        xi = simple(0.0, 2.0)
        t, dt = 0.5, 5e-4
        ens = sim.sample_noncolliding(bm(), xi, [t], dt, 40_000, seed=25)

        def F(p):
            return np.exp(-0.25 * (p[:, 0, 0] ** 2 + p[:, 0, 1] ** 2))

        vals = F(np.sort(ens.paths, axis=2))
        se = vals.std(ddof=1) / math.sqrt(len(vals))

        # quadrature of the h-transform density over the ordered sector
        nodes, weights = np.polynomial.legendre.leggauss(160)
        lo, hi = -4.0, 6.0
        xs = 0.5 * (hi - lo) * nodes + 0.5 * (lo + hi)
        w = 0.5 * (hi - lo) * weights
        u = [0.0, 2.0]
        total = 0.0
        for i, x1 in enumerate(xs):
            dens = np.array(
                [
                    ker.correlation(
                        ker.general_kernel(bm(), xi),
                        ker.SpaceTimeQuery((t,), ((x1, x2),)),
                    )
                    if x2 > x1
                    else 0.0
                    for x2 in xs
                ]
            )
            total += w[i] * float(
                w @ (dens * np.exp(-0.25 * (x1**2 + xs**2)))
            )
        assert abs(vals.mean() - total) <= 4 * se

    def test_besq_ordering_and_positivity(self):
        xi = simple(1.0, 4.0)
        ens = sim.sample_noncolliding(besq(0.5), xi, [0.5], 0.002, 2000, seed=26)
        assert (ens.paths >= 0).all()
        assert (np.diff(ens.paths, axis=2) > 0).all()



def _density_integral(proc, xi, t, f, lo, hi, q=400):
    """Integral of K(t, y; t, y) f(y) over [lo, hi] by Gauss-Legendre;
    for BESQ in the variable sqrt(y), which smooths the y^nu edge at 0."""
    nodes, w = np.polynomial.legendre.leggauss(q)
    if proc.tag == "BESQ":
        r = 0.5 * math.sqrt(hi) * (nodes + 1.0)
        y, w = r * r, math.sqrt(hi) * w * r
    else:
        y, w = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * w
    dens = np.diag(ker.kernel_eval_grid(ker.general_kernel(proc, xi), t, y, t, y))
    return float(w @ (dens * f(y)))


class TestMatrixModels:
    """The matrix models never use the determinantal theory, so agreement
    with the kernel checks the correlation structure independently."""

    @pytest.mark.parametrize(
        "proc, points, t, lo, hi, seed",
        [
            (bm(), (-1.0, 0.2, 1.0), 1.0, -12.0, 12.0, 33),
            (besq(1.0), (0.5, 1.5), 0.7, 0.0, 80.0, 34),
            (besq(0.5), (0.5, 1.5), 0.7, 0.0, 80.0, 35),
            (besq(0.5), (0.5, 1.5, 3.0), 0.7, 0.0, 100.0, 36),
        ],
        ids=["bm-3", "besq1-2", "besq_half-2", "besq_half-3"],
    )
    def test_one_time_density(self, proc, points, t, lo, hi, seed):
        xi = simple(*points)

        def f(y):
            return np.exp(-y * y / 4.0) if proc.tag == "BM" else np.exp(-y / 2.0)

        ens = sim.sample_noncolliding(proc, xi, [t], 1e-3, 100_000, seed=seed)
        vals = f(ens.paths[:, 0, :]).sum(axis=1)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        want = _density_integral(proc, xi, t, f, lo, hi)
        assert abs(vals.mean() - want) <= 4 * se

    def test_two_time_moment_bm(self):
        # E sum_{i,j} f(X_i(s)) g(X_j(t)) against the 2x2 block determinant
        xi = simple(-1.0, 0.2, 1.0)
        s, t = 0.5, 1.0

        def f(x):
            return np.exp(-x * x / 4.0)

        def g(y):
            return np.cos(y)

        ens = sim.sample_noncolliding(bm(), xi, [s, t], 1e-3, 100_000, seed=37)
        vals = f(ens.paths[:, 0, :]).sum(axis=1) * g(ens.paths[:, 1, :]).sum(axis=1)
        se = vals.std(ddof=1) / math.sqrt(len(vals))

        nodes, w = np.polynomial.legendre.leggauss(240)
        x, w = 12.0 * nodes, 12.0 * w
        kern = ker.general_kernel(bm(), xi)
        k_ss = np.diag(ker.kernel_eval_grid(kern, s, x, s, x))
        k_tt = np.diag(ker.kernel_eval_grid(kern, t, x, t, x))
        k_st = ker.kernel_eval_grid(kern, s, x, t, x)
        k_ts = ker.kernel_eval_grid(kern, t, x, s, x)
        rho = np.outer(k_ss, k_tt) - k_st * k_ts.T
        want = float((w * f(x)) @ rho @ (w * g(x)))
        assert abs(vals.mean() - want) <= 4 * se

    def test_dt_is_ignored(self):
        xi = simple(0.0, 1.0, 3.0)
        for proc in (bm(), besq(0.5), besq(2.0)):
            a = sim.sample_noncolliding(proc, xi, [0.0, 0.3, 1.0], 1e-3, 5000, seed=38)
            b = sim.sample_noncolliding(proc, xi, [0.0, 0.3, 1.0], 1e-2, 5000, seed=38)
            assert (a.paths == b.paths).all()
            assert (a.paths[:, 0, :] == [0.0, 1.0, 3.0]).all()
        with pytest.raises(DomainError):
            sim.sample_noncolliding(bm(), xi, [1.0], 0.0, 10, seed=38)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 3.0])
    def test_besq_integer_index_ordering_and_positivity(self, nu):
        xi = simple(0.0, 1.0, 4.0)
        ens = sim.sample_noncolliding(besq(nu), xi, [0.01, 0.5], 1e-3, 4000, seed=39)
        assert (ens.paths > 0).all()
        assert (np.diff(ens.paths, axis=2) > 0).all()

    def test_large_model_drawn_in_chunks(self):
        # N = 100: one path per chunk, each with fresh draws; the particle
        # sum is the trace, a Gaussian of variance N t
        u = np.arange(0.0, 200.0, 2.0)
        ens = sim.sample_noncolliding(bm(), simple(*u), [0.5], 1e-3, 60, seed=41)
        assert (np.diff(ens.paths, axis=2) > 0).all()
        assert len(np.unique(ens.paths[:, 0, 0])) == 60
        total = ens.paths[:, 0, :].sum(axis=1)
        assert abs(total.mean() - u.sum()) <= 4 * math.sqrt(len(u) * 0.5 / 60)
        with pytest.raises(CapacityError):
            sim.sample_noncolliding(besq(10**6), simple(1.0, 4.0), [0.5], 1e-3, 10, seed=41)

    def test_index_without_matrix_model_refused(self):
        with pytest.raises(DomainError):
            sim.sample_noncolliding(besq(0.3), simple(1.0, 4.0), [0.5], 1e-3, 10, seed=40)


def _cgauss(rng, shape):
    return rng.standard_normal(shape + (2,)).view(complex)[..., 0]


def _test_matrices(rng, m, n, kind):
    """A stack (m, n, n) of Hermitian matrices of the named kind."""
    g = _cgauss(rng, (m, n, n))
    p = g + np.conj(np.swapaxes(g, -1, -2))
    if kind == "diagonal":
        p = p * np.eye(n)
    elif kind == "repeated":
        # U diag(lam) U^H with one eigenvalue taken at least twice
        u = np.linalg.qr(_cgauss(rng, (m, n, n)))[0]
        lam = np.repeat(rng.standard_normal((m, 2)), [n - n // 2, n // 2], axis=1)
        p = (u * lam[:, None, :]) @ np.conj(np.swapaxes(u, -1, -2))
    elif kind == "scalar":
        # c I: each rotation sees equal diagonal entries and a zero entry
        p = rng.standard_normal((m, 1, 1)) * np.eye(n) + 0j
    elif kind == "tiny":
        # close diagonal entries, off-diagonal entries 1e-12 of them
        off = 1e-12 * (p - p * np.eye(n))
        p = np.eye(n) * (1.0 + 1e-9 * p.real) + off
    elif kind == "graded":
        scale = 1e4 ** np.arange(n)
        p = scale[:, None] * p * scale
    return p


def _stack_last(a):
    return np.ascontiguousarray(a.transpose(1, 2, 0))


def _assert_close(got, want, tol=1e-13):
    """|got - want| <= tol max|want| for each leading index (row or slice)."""
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= tol * scale).all()


def lapack_chunk(process, u, ts, size, rng):
    """The matrix-model chunk with LAPACK's spectra (eigvalsh of the
    Hermitian and the 2N x 2N class-C matrix, svd of the Wishart matrix),
    drawing what ``_noncolliding_chunk`` draws: the oracle of its eigen stage."""
    n = len(u)
    if process.tag == "BM":
        shape, diag = (n, n), u
    elif process.nu == 0.5:
        shape, diag = (2 * n, 2 * n), np.concatenate([np.sqrt(u), -np.sqrt(u)])
    else:
        shape, diag = (n + int(process.nu), n), np.sqrt(u)
    mat = np.zeros((size,) + shape, dtype=complex)
    mat[:, range(len(diag)), range(len(diag))] = diag
    out = np.empty((size, len(ts), n))
    for m, (t, step) in enumerate(zip(ts, np.diff((0.0,) + ts))):
        if t == 0:
            out[:, m, :] = u
            continue
        if process.tag == "BM":
            mat += sim._hermitian_bm(rng, (size, n, n), step)
            out[:, m, :] = np.linalg.eigvalsh(mat)
        elif process.nu == 0.5:
            a = sim._hermitian_bm(rng, (size, n, n), step)
            g = sim._complex_gaussian(rng, (size, n, n), step / 2.0)
            b = g + np.swapaxes(g, -1, -2)
            mat += np.block([[a, b], [np.conj(b), -np.conj(a)]])
            out[:, m, :] = np.linalg.eigvalsh(mat)[:, n:] ** 2
        else:
            mat += sim._complex_gaussian(rng, mat.shape, 2.0 * step)
            out[:, m, :] = np.linalg.svd(mat, compute_uv=False)[:, ::-1] ** 2
    return out


class TestEigenStage:
    """``_hermitian_eigvals`` and the three routes through it, against LAPACK."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, sim._JACOBI_MAX + 1),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "diagonal", "scalar", "repeated", "tiny", "graded"]),
    )
    def test_matches_eigvalsh(self, n, m, seed, kind):
        p = _test_matrices(np.random.default_rng(seed), m, n, kind)
        got = sim._hermitian_eigvals(_stack_last(p))
        assert (np.diff(got, axis=1) >= 0).all()
        _assert_close(got, np.linalg.eigvalsh(p))

    @pytest.mark.parametrize("nu", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_wishart_route_matches_svd(self, n, nu):
        mats = _cgauss(np.random.default_rng(10 * n + nu), (300, n + nu, n))
        got = sim._model_positions(besq(nu), _stack_last(mats))
        _assert_close(got, np.linalg.svd(mats, compute_uv=False)[:, ::-1] ** 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_class_c_route_matches_eigvalsh(self, n):
        rng = np.random.default_rng(n)
        a = _test_matrices(rng, 300, n, "random")
        g = _cgauss(rng, (300, n, n))
        b = g + np.swapaxes(g, -1, -2)
        h = np.block([[a, b], [np.conj(b), -np.conj(a)]])
        got = sim._model_positions(besq(0.5), _stack_last(np.concatenate([a, b], axis=1)))
        _assert_close(got, np.linalg.eigvalsh(h)[:, n:] ** 2)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "p01_zero", "q01_zero", "both_zero", "graded"]),
    )
    def test_class_c_two_by_two_reduction(self, m, seed, kind):
        # H^2 = [[P, Q], [-conj Q, conj P]] for H = [[A, B], [conj B, -conj A]],
        # P = A^2 + B conj B and Q = A B - B conj A, has each eigenvalue twice
        rng = np.random.default_rng(seed)
        a = _test_matrices(rng, m, 2, "random")
        g = _cgauss(rng, (m, 2, 2))
        b = g + np.swapaxes(g, -1, -2)
        if kind in ("p01_zero", "both_zero"):
            # A diagonal: Q_01 = (a_0 - a_1) b_01 and P_01 = (B conj B)_01,
            # 0 for B antidiagonal and both 0 for B diagonal
            a = a * np.eye(2)
            b = b * (np.eye(2) if kind == "both_zero" else 1 - np.eye(2))
        elif kind == "q01_zero":
            # A = c I: Q = c (B - B) = 0
            a = rng.standard_normal((m, 1, 1)) * np.eye(2) + 0j
        elif kind == "graded":
            scale = np.array([1.0, 1e4])
            a, b = (scale[:, None] * x * scale for x in (a, b))
        p = a @ a + b @ np.conj(b)
        q = a @ b - b @ np.conj(a)
        if kind.endswith("_zero"):
            assert (p[:, 0, 1] == 0).all() == (kind != "q01_zero")
            assert (q[:, 0, 1] == 0).all() == (kind != "p01_zero")
        got = sim._model_positions(besq(0.5), _stack_last(np.concatenate([a, b], axis=1)))
        want = np.linalg.eigvalsh(np.block([[p, q], [-np.conj(q), np.conj(p)]]))[:, ::2]
        _assert_close(got, want)

    @pytest.mark.parametrize(
        "proc, points",
        [
            (bm(), (0.0, 1.0)),
            (bm(), (-1.0, 0.2, 1.0)),
            (bm(), (-1.0, 0.0, 0.5, 2.0)),
            (besq(0.5), (0.5, 1.5)),
            (besq(0.5), (0.5, 1.5, 3.0)),
            (besq(0.0), (0.5, 1.5)),
            (besq(1.0), (0.1, 1.0, 4.0)),
            (besq(3.0), (0.5, 1.5, 3.0)),
            (besq(0.5), (0.5,)),
            (besq(0.5), (0.5, 1.5, 3.0, 5.0)),
        ],
    )
    def test_sampler_matches_lapack_oracle(self, proc, points, monkeypatch):
        def paths():
            ens = sim.sample_noncolliding(proc, simple(*points), [0.0, 0.3, 1.0], 1e-3, 5000, 42)
            return ens.paths

        got = paths()
        monkeypatch.setattr(sim, "_noncolliding_chunk", lapack_chunk)
        want = paths()
        _assert_close(got, want)
        assert (np.diff(got, axis=2) > 0).all()
        assert proc.tag == "BM" or (got > 0).all()


class TestOptionalStopping:
    def test_horizon_consistency(self):
        xi = simple(0.0, 2.0)

        def F(p):
            return np.tanh(p[:, 0, 0] + p[:, 0, 1])

        a = sim.dmr_expectation(bm(), xi, F, [0.8], 60_000, seed=27)
        b = sim.dmr_expectation(bm(), xi, F, [0.8], 60_000, seed=28, T=1.6)
        assert abs(a.mean - b.mean) <= 4 * a.combined_se(b)


class TestReducibility:
    def test_full_size_sanity(self):
        xi = simple(0.0, 2.0)

        def F(p):
            return np.exp(-np.abs(p).sum(axis=(1, 2)) / 4.0)

        lhs, rhs = sim.reducibility_check(bm(), xi, 2, F, 0.7, 30_000, seed=29)
        assert abs(lhs.mean - rhs.mean) <= 4 * lhs.combined_se(rhs)

    def test_bm_two_to_one(self):
        xi = simple(0.0, 2.0)

        def F(p):
            return np.tanh(p[:, 0, 0])

        lhs, rhs = sim.reducibility_check(bm(), xi, 1, F, 0.7, 60_000, seed=30)
        assert abs(lhs.mean - rhs.mean) <= 4 * lhs.combined_se(rhs)


class TestDmrVsInteractingSampler:
    def test_bm_two_particles(self):
        xi = simple(0.0, 2.0)
        t = 0.5

        def F(p):
            return np.exp(-0.25 * (p[:, 0, 0] ** 2 + p[:, 0, 1] ** 2))

        a = sim.dmr_expectation(bm(), xi, F, [t], 60_000, seed=31)
        ens = sim.sample_noncolliding(bm(), xi, [t], 5e-4, 40_000, seed=32)
        vals = F(np.sort(ens.paths, axis=2))
        b = sim.Estimate.from_samples(vals)
        assert abs(a.mean - b.mean) <= 4 * a.combined_se(b)


# every sampler, as a function of the path count, returning its path array
SAMPLERS = {
    "free": lambda n: sim.sample_free(bm(), [0.0, 1.0], [0.5], n, seed=8).paths,
    "companions": lambda n: sim.attach_companions(
        sim.sample_free(rw(), [0.0, 2.0], [2], n, seed=8), 9
    ).companions,
    "noncolliding_rw": lambda n: sim.sample_noncolliding_rw(
        simple(0.0, 2.0), [1, 3], n, seed=8
    ).paths,
    # 6 matrix cells per path: a block is drawn in several chunks
    "noncolliding": lambda n: sim.sample_noncolliding(
        besq(1.0), simple(0.5, 1.5), [0.5], 0.01, n, seed=8
    ).paths,
}

ESTIMATORS = {
    "dmr": lambda n: sim.dmr_expectation(bm(), simple(0.0, 1.0), ones, [0.5], n, 1),
    "cpr": lambda n: sim.cpr_expectation(bm(), simple(0.0, 1.0), ones, [0.5], n, 1),
    "reducibility": lambda n: sim.reducibility_check(
        bm(), simple(0.0, 1.0), 1, ones, 0.5, n, 1
    ),
}


class TestBlockEngine:
    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_first_block_is_a_prefix(self, name):
        longer = SAMPLERS[name](sim.BLOCK + 5)
        assert longer.shape[0] == sim.BLOCK + 5
        assert (longer[: sim.BLOCK] == SAMPLERS[name](sim.BLOCK)).all()

    @pytest.mark.parametrize("name", sorted(SAMPLERS) + sorted(ESTIMATORS))
    def test_no_paths_refused(self, name):
        with pytest.raises(DomainError):
            {**SAMPLERS, **ESTIMATORS}[name](0)

    @pytest.mark.parametrize(
        "cores, blocks, workers, threads",
        [(4, 10, 10_000, 4), (64, 3, 10_000, 3), (64, 10, 2, 2), (64, 1, 10_000, None),
         (1, 10, 10_000, None)],
    )
    def test_threads_capped_by_blocks_and_cores(self, monkeypatch, cores, blocks, workers, threads):
        # a large worker count starts no more threads than blocks or cores;
        # the pool is recorded, not started
        seen = []

        class Pool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        monkeypatch.setattr(sim, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(sim, "_CORES", cores)
        out = sim._run_blocks(blocks * sim.BLOCK, workers, lambda i, size: np.full(size, i))
        assert seen == ([] if threads is None else [threads])
        assert (out == np.repeat(np.arange(blocks), sim.BLOCK)).all()

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=st.integers(1, 3),
        offset=st.sampled_from([-1, 0, 1]),
    )
    def test_same_estimate_for_any_worker_count(self, seed, blocks, offset):
        # every block draws from its own stream, so threads change nothing
        xi = simple(0.0, 2.0)
        n = blocks * sim.BLOCK + offset

        def F(p):
            return (p[:, -1, :] >= 0.0).all(axis=1).astype(float)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_CORES", 2)  # the pool runs on any box
            for est in (sim.dmr_expectation, sim.cpr_expectation):
                serial, pooled = (
                    est(bm(), xi, F, [0.5, 1.0], n, seed=seed, workers=w) for w in (1, 2)
                )
                assert serial == pooled

    def test_only_kept_rows_are_weighted(self):
        # the estimator weighs the rows where the observable is nonzero and
        # sets the others to 0: the same estimate as weighing every path
        xi = simple(-1.0, 0.5, 2.0)
        n = sim.BLOCK + 123

        def F(p):
            return (p[:, -1, :] >= 0.0).all(axis=1).astype(float)

        got = sim.dmr_expectation(bm(), xi, F, [0.3, 0.8], n, seed=41)
        ens = sim.sample_free(bm(), xi.support(), [0.3, 0.8], n, seed=41)
        weights = sim.det_weight(bm(), xi, 0.8, ens.paths[:, -1, :])
        obs = F(np.sort(ens.paths, axis=-1))
        assert 0 < obs.sum() < n
        assert got == sim.Estimate.from_samples(obs * weights)
