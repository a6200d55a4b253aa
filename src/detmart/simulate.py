"""Path sampling, Monte Carlo representation estimators, and exact oracles.

Estimators compute E[F * det-weight] where the weight is the determinantal
martingale det[M_xi^{u_k}(T, V_j(T))] over independent free paths (real
representation) or det[phi^{u_k}(Z_j(T))] over complex paths (complex
representation).  By the determinant identity the weights are evaluated
as h(V(T)) / h(u), h(Z(T)) / h(u), or prod_j q(Z_j) h(Z(T)^2) / h(u^2) for
BES(n + 1/2), h the Vandermonde product; no matrix is formed.
``brute_force_rw`` enumerates every walk outcome exactly and is the
ground truth the walk estimators are tested against.

Free transitions over dt: BM adds sqrt(dt) Z; BESQ(nu) is
dt chi'^2_{2 nu + 2}(x / dt), a noncentral chi^2, and BES(nu) its square
root at noncentrality x^2 / dt; the walk adds 2 B - steps, B the set bits
of ``steps`` uniform bits in words of <= 64.  For df >= 1, chi'^2_df(l) is
(Z + sqrt(l))^2 + chi^2_{df - 1}, the last Z'^2 at df = 2, 0 at df = 1 and
else 2 Gamma((df - 1) / 2); below df = 1 numpy's ``noncentral_chisquare``.

Randomness: Philox counter streams keyed by (seed, block index) with a
fixed block size, so results are bit-reproducible and independent of how
blocks are distributed over workers.  Every block loop is ``_run_blocks``;
every estimator (DMR, CPR, ``reducibility_check``, both O'Connell routes)
runs the block body of ``_representation_estimate``.  The imaginary
companions of a block come from one loop, ``_companion_block``, on a
stream of their own: keyed by (seed2, block) in ``attach_companions`` (the
CLI passes seed + 1) and by (seed ^ 0x9E3779B97F4A7C15, block) in
``_complex_ends``, for ``cpr_expectation`` and the O'Connell CPR.  Each
transition draws a fixed number of variates per coordinate from that
stream: one normal for BM/BES, and for the walk one uniform per unit of
time (a hyperbolic-secant variate, see ``_companion_block``).

Noncolliding BM and BESQ paths are exact spectra of matrix diffusions,
whose increments between observation times come from the (seed, block)
stream in time order: eigenvalues of diag(u) + H(t), H a Hermitian BM
(Dyson); for BESQ(nu), integer nu >= 0, squared singular values of the
(N + nu) x N complex Brownian matrix M from [diag(sqrt u); 0]
(Koenig-O'Connell 2001); for BESQ(1/2), squared positive eigenvalues of
the class-C matrix H = [[A, B], [conj B, -conj A]], A = diag(sqrt u) + H(t),
B complex symmetric Brownian (Katori-Tanemura 2004).  Every position is
an eigenvalue of a complex Hermitian matrix, found for a whole chunk at
once by ``_hermitian_eigvals``: the Hermitian one, the Gram matrix M^H M,
or for class C up to N = 2 a real matrix with the spectrum of H^2 (see
``_model_positions``) and above that H itself, its positive half squared.
The squared forms carry an absolute error of about eps x_max, x_max the
largest position of the time slice.
The ordered walk is the h-transform of free walks, whose step weight
h(x + e) / h(x) is the product over pairs j < k of 1 + (e_k - e_j) /
(x_k - x_j).  Observables receive positions sorted within each time slice
(the unlabeled configuration) as an array of shape (paths, times,
particles) and must return one value per path.  ``_sort_particles`` does
that sort: up to MAX_PARTICLES (8) particles, odd-even transposition over
the particle columns with np.minimum / np.maximum, which returns the same
array as np.sort; above that (only ``cpr_expectation`` and
``brute_force_rw`` take more) np.sort.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import configurations as cfg
from . import martingales as mart
from .errors import CapacityError, DomainError, NumericError
from .processes import ProcessKind, bm, check_starts, check_times, rw

__all__ = [
    "Estimate",
    "PathEnsemble",
    "stream",
    "sample_free",
    "attach_companions",
    "det_weight",
    "cpr_weight",
    "dmr_expectation",
    "cpr_expectation",
    "sample_noncolliding_rw",
    "sample_noncolliding",
    "brute_force_rw",
    "reducibility_check",
]

BLOCK = 4096
# the pool never has more threads than this, whatever ``workers`` asks for
_CORES = os.cpu_count() or 1
# the noncolliding sampler draws its matrices in chunks of about 2^13
# entries (128 KB of complex128); one path's matrix may have at most 2^18
_CHUNK_CELLS = 1 << 13
_MAX_CELLS = 1 << 18
# up to this many rows ``_hermitian_eigvals`` runs Jacobi sweeps over the
# stack; LAPACK is faster from 4 x 4 on at the sampler's chunk sizes
_JACOBI_MAX = 3
_MASK64 = (1 << 64) - 1
_COMPANION_KEY = 0x9E3779B97F4A7C15
# the real-representation estimators take at most this many particles, and
# up to this many the particle axis is sorted by a compare-exchange network
MAX_PARTICLES = 8


def stream(seed: int, block: int) -> np.random.Generator:
    """Counter-based generator for one path block; 2^64 blocks per seed."""
    key = ((int(seed) & _MASK64) << 64) | (int(block) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with standard error; complex means carry both SEs."""

    mean: complex | float
    std_error: float
    n: int
    std_error_imag: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("an estimate needs at least two samples")
        if self.std_error < 0:
            raise DomainError("standard error must be nonnegative")

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "Estimate":
        n = len(values)
        if n < 2:
            raise DomainError("an estimate needs at least two samples")
        if np.iscomplexobj(values):
            return cls(
                mean=complex(values.mean()),
                std_error=float(values.real.std(ddof=1) / math.sqrt(n)),
                n=n,
                std_error_imag=float(values.imag.std(ddof=1) / math.sqrt(n)),
            )
        return cls(
            mean=float(values.mean()),
            std_error=float(values.std(ddof=1) / math.sqrt(n)),
            n=n,
        )

    def combined_se(self, other: "Estimate") -> float:
        return math.sqrt(self.std_error**2 + other.std_error**2)


@dataclass(frozen=True)
class PathEnsemble:
    """Sampled trajectories: paths[p, m, j] = particle j at times[m]."""

    process: ProcessKind
    times: tuple
    paths: np.ndarray
    companions: np.ndarray | None = None

    def __post_init__(self):
        if self.paths.ndim != 3 or self.paths.shape[1] != len(self.times):
            raise DomainError("path array must be (paths, times, particles)")
        if self.companions is not None and self.companions.shape != self.paths.shape:
            raise DomainError("companions must match the path array shape")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


def _sort_particles(paths: np.ndarray) -> np.ndarray:
    """A sorted copy of (paths, times, N) along the particle axis.

    Up to MAX_PARTICLES columns it is N rounds of odd-even transposition,
    a compare-exchange of column slices by np.minimum / np.maximum, faster
    than np.sort for so few columns; above that np.sort.
    """
    n = paths.shape[-1]
    if n > MAX_PARTICLES:
        return np.sort(paths, axis=-1)
    cols = [paths[..., j] for j in range(n)]
    for r in range(n):
        for j in range(r % 2, n - 1, 2):
            cols[j], cols[j + 1] = (
                np.minimum(cols[j], cols[j + 1]),
                np.maximum(cols[j], cols[j + 1]),
            )
    return np.stack(cols, axis=-1)


def sample_free(
    process: ProcessKind, u, times, n_paths: int, seed: int
) -> PathEnsemble:
    """Independent free paths from u_j, exact transition sampling."""
    ts = check_times(process, times)
    u = check_starts(process, u, representation=False)

    def one_block(block, size):
        return _sample_free_block(process, u, ts, size, stream(seed, block))

    out = _run_blocks(n_paths, 1, one_block)
    return PathEnsemble(process=process, times=ts, paths=out)


def _sample_free_block(process, u, ts, size, rng):
    n_particles = len(u)
    out = np.empty((size, len(ts), n_particles))
    state = np.broadcast_to(u, (size, n_particles)).copy()
    prev_t = 0.0
    for m, t in enumerate(ts):
        dt = t - prev_t
        if dt > 0:
            if process.tag == "BM":
                state = state + math.sqrt(dt) * rng.standard_normal(state.shape)
            elif process.tag == "BESQ":
                state = dt * _noncentral_chisquare(rng, 2 * process.nu + 2, state / dt)
            elif process.tag == "BES":
                sq = dt * _noncentral_chisquare(rng, 2 * process.nu + 2, state**2 / dt)
                state = np.sqrt(sq)
            elif process.tag == "RW":
                steps, heads = int(round(dt)), np.zeros(state.shape, np.int64)
                for lo in range(0, steps, 64):
                    k = min(64, steps - lo)
                    bits = rng.integers(0, 1 << k, size=state.shape, dtype=np.uint64)
                    heads += np.bitwise_count(bits)
                state = state + 2 * heads - steps
            else:
                raise DomainError(f"unsupported process {process}")
        out[:, m, :] = state
        prev_t = t
    return out


def _noncentral_chisquare(rng, df, nonc):
    """chi'^2_df(nonc) per entry of ``nonc``, as the module docstring says."""
    if df < 1:
        return rng.noncentral_chisquare(df, nonc)
    out = np.square(rng.standard_normal(nonc.shape) + np.sqrt(nonc))
    if df == 2:
        out += np.square(rng.standard_normal(nonc.shape))
    elif df > 1:
        out += 2.0 * rng.standard_gamma((df - 1) / 2, nonc.shape)
    return out


def _companion_block(process, ts, size, n_particles, rng):
    """One block of imaginary companions at the times ``ts``: Brownian for
    BM/BES; for the walk W(C(t)), whose law sech(k)^t is that of a sum of t
    hyperbolic-secant variates, each (2/pi) asinh(tan(pi (U - 1/2)))."""
    if process.tag != "RW":
        return _sample_free_block(bm(), np.zeros(n_particles), ts, size, rng)
    out = np.empty((size, len(ts), n_particles))
    state = np.zeros((size, n_particles))
    prev_t = 0.0
    for m, t in enumerate(ts):
        # in place, so each unit of time allocates one array
        for _ in range(int(round(t - prev_t))):
            y = rng.random(state.shape)
            y -= 0.5
            y *= math.pi
            np.arcsinh(np.tan(y, out=y), out=y)
            y *= 2.0 / math.pi
            state += y
        out[:, m, :] = state
        prev_t = t
    return out


def attach_companions(ens: PathEnsemble, seed2: int) -> PathEnsemble:
    """Independent imaginary parts: Brownian for BM/BES, time-changed
    Brownian W(C(t)) for the walk (see ``_companion_block``), drawn from
    the streams of ``seed2``."""
    proc = ens.process
    if proc.tag not in ("BM", "BES", "RW"):
        raise DomainError(f"no complex companion defined for {proc}")
    ts = check_times(proc, ens.times)
    n_particles = ens.paths.shape[2]

    def one_block(block, size):
        rng = stream(seed2, block)
        return _companion_block(proc, ts, size, n_particles, rng)

    comp = _run_blocks(ens.n_paths, 1, one_block)
    return PathEnsemble(
        process=proc,
        times=ens.times,
        paths=ens.paths,
        companions=comp,
    )


# --------------------------------------------------------------------------
# Determinantal weights
# --------------------------------------------------------------------------


def _weight_nodes(xi: cfg.PointConfiguration, ends: np.ndarray) -> np.ndarray:
    """Support of a simple xi with one point per column of ``ends``."""
    if not xi.simple() or ends.shape[-1] != xi.total():
        raise DomainError("weights need a simple xi and one column per particle")
    return np.array(xi.support())


def det_weight(
    process: ProcessKind, xi: cfg.PointConfiguration, T: float, end_positions
) -> np.ndarray:
    """det[M_xi^{u_k}(T, V_j(T))] = h(V(T)) / h(u) for end positions (n, N);
    refused for BES (no polynomial martingales), T < 0 and a fractional walk T."""
    pts = np.asarray(end_positions, dtype=float)
    u = _weight_nodes(xi, pts)
    if process.tag == "BES" or T < 0 or process.tag == "RW" and not float(T).is_integer():
        raise DomainError(f"no det weight for {process} at horizon T = {T}")
    return cfg.vandermonde(pts) / cfg.vandermonde(u)


def cpr_weight(
    process: ProcessKind, xi: cfg.PointConfiguration, T: float, z_end
) -> np.ndarray:
    """det[phi_xi^{u_k}(Z_j(T))] for complex end points (n, N): h(Z) / h(u),
    and prod_j q(Z_j) h(Z^2) / h(u^2) for BES(n + 1/2)."""
    z = np.asarray(z_end, dtype=complex)
    u = _weight_nodes(xi, z)
    if process.tag in ("BM", "RW"):
        return cfg.vandermonde(z) / cfg.vandermonde(u)
    if process.tag == "BES":
        order = process.nu - 0.5
        if order < 0 or order != int(order):
            raise DomainError("complex representation needs index n + 1/2")
        q = mart.bes_q_factor(int(order), T, z)
        return q.prod(axis=-1) * cfg.vandermonde(z * z) / cfg.vandermonde(u * u)
    raise DomainError(f"no complex representation for {process}")


# --------------------------------------------------------------------------
# Representation estimators
# --------------------------------------------------------------------------


def _run_blocks(n_paths, workers, block_fn):
    """``block_fn(block, size)`` over blocks of BLOCK paths (the last one
    shorter), on at most ``workers`` threads, and never more threads than
    blocks or cores, concatenated in block order."""
    if n_paths < 1:
        raise DomainError("need at least one path")
    sizes = [min(BLOCK, n_paths - start) for start in range(0, n_paths, BLOCK)]
    threads = min(workers or 1, len(sizes), _CORES)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(block_fn, range(len(sizes)), sizes))
    else:
        results = list(map(block_fn, range(len(sizes)), sizes))
    return np.concatenate(results)


def _observation_grid(process, times, T) -> tuple:
    """The checked times, and the sampling grid: them, then a later horizon T."""
    ts = check_times(process, times)
    if T is None or T == ts[-1]:
        return ts, ts
    if T < ts[-1]:
        raise DomainError("horizon must not precede the last observation time")
    return ts, check_times(process, ts + (T,))


def _representation_estimate(
    process, xi, observable, times, n_paths, seed, T, workers, weight_fn
) -> Estimate:
    """Mean of F(sorted free paths) * weight over blocks of free paths from
    the support of xi, 0 where F is 0; ``weight_fn(block, paths, grid,
    kept)`` weighs the rows ``kept`` where F is nonzero of the paths
    observed at ``grid``, whose last entry is the horizon."""
    if not xi.simple():
        raise DomainError("representation estimators need a simple configuration")
    ts, grid = _observation_grid(process, times, T)
    u = check_starts(process, xi.support(), representation=True)

    def one_block(block, size):
        paths = _sample_free_block(process, u, grid, size, stream(seed, block))
        sorted_paths = _sort_particles(paths[:, : len(ts), :])
        obs = np.asarray(observable(sorted_paths), dtype=float)
        # the rows where F is nonzero; all of them as a slice, which copies none
        kept = slice(None) if obs.all() else np.flatnonzero(obs)
        weights = weight_fn(block, paths, grid, kept)
        values = np.zeros(size, dtype=np.result_type(obs, weights))
        values[kept] = obs[kept] * weights
        return values

    return Estimate.from_samples(_run_blocks(n_paths, workers, one_block))


def _complex_ends(process, seed, block, paths, grid, kept):
    """Z(T) = V(T) + i W(T) on the rows ``kept`` of a block of free paths,
    W the block's companions on the stream keyed by (seed ^ _COMPANION_KEY,
    block); the whole block is drawn, so a row's Z does not depend on kept."""
    size, _, n_particles = paths.shape
    rng = stream(seed ^ _COMPANION_KEY, block)
    comp = _companion_block(process, grid, size, n_particles, rng)
    return paths[kept, -1, :] + 1j * comp[kept, -1, :]


def dmr_expectation(
    process: ProcessKind,
    xi: cfg.PointConfiguration,
    observable,
    times,
    n_paths: int,
    seed: int,
    T: float | None = None,
    workers: int = 1,
) -> Estimate:
    """Monte Carlo of E[F(configuration path) * det-weight at horizon T].

    ``observable`` maps sorted positions (paths, len(times), N) to one
    value per path; the default horizon is the last observation time.
    """
    if xi.total() > MAX_PARTICLES:
        raise DomainError(
            f"representation estimators support at most {MAX_PARTICLES} particles"
        )

    def weight(_block, paths, grid, kept):
        return det_weight(process, xi, grid[-1], paths[kept, -1, :])

    return _representation_estimate(
        process, xi, observable, times, n_paths, seed, T, workers, weight
    )


def cpr_expectation(
    process: ProcessKind,
    xi: cfg.PointConfiguration,
    observable,
    times,
    n_paths: int,
    seed: int,
    T: float | None = None,
    workers: int = 1,
) -> Estimate:
    """Complex-representation estimate; the real part is the estimate and
    the imaginary part a diagnostic that must vanish within noise."""
    if process.tag not in ("BM", "RW", "BES"):
        raise DomainError(f"no complex representation for {process}")

    def weight(block, paths, grid, kept):
        z_end = _complex_ends(process, seed, block, paths, grid, kept)
        return cpr_weight(process, xi, grid[-1], z_end)

    return _representation_estimate(
        process, xi, observable, times, n_paths, seed, T, workers, weight
    )


# --------------------------------------------------------------------------
# Noncolliding samplers
# --------------------------------------------------------------------------


def sample_noncolliding_rw(
    xi: cfg.PointConfiguration, times, n_paths: int, seed: int
) -> PathEnsemble:
    """Exact sampler of the ordered walk via the Vandermonde h-transform.

    One-step law P(x -> x + e) = 2^{-N} h(x + e) / h(x) over the 2^N sign
    vectors, a product of pair factors (module docstring).  The weights must
    sum to one at every visited state, which is asserted.
    """
    if not xi.simple():
        raise DomainError("starting configuration must be simple")
    u = check_starts(rw(), xi.support(), representation=True)
    ts = check_times(rw(), times)
    n = len(u)
    horizon = int(ts[-1])
    # moves as columns in product order; per pair j < k, those with e_k - e_j = 2, -2
    moves = np.array(list(itertools.product((-1, 1), repeat=n)), dtype=float).T.copy()
    pairs = [
        (j, k, np.flatnonzero(moves[k] > moves[j]), np.flatnonzero(moves[k] < moves[j]))
        for j, k in itertools.combinations(range(n), 2)
    ]
    record = {int(t): i for i, t in enumerate(ts)}

    def one_block(block, size):
        rng = stream(seed, block)
        out = np.empty((size, len(ts), n))
        state = np.repeat(u[:, None], size, axis=1)  # (n, size)
        if 0 in record:
            out[:, record[0], :] = state.T
        for step in range(1, horizon + 1):
            weights = np.full((moves.shape[1], size), 2.0**-n)
            for j, k, up, down in pairs:
                r = 2.0 / (state[k] - state[j])
                weights[up] *= 1.0 + r
                weights[down] *= 1.0 - r
            # cumulated in place, row by row (np.cumsum is slow along axis 0)
            for m in range(1, len(weights)):
                weights[m] += weights[m - 1]
            if np.max(np.abs(weights[-1] - 1.0)) > 1e-9:
                raise NumericError(
                    "one-step weights failed to sum to one; "
                    "harmonicity of the Vandermonde factor is broken"
                )
            pick = (rng.random(size) >= weights).sum(axis=0)
            state += moves.take(pick, axis=1)
            if step in record:
                out[:, record[step], :] = state.T
        return out

    out = _run_blocks(n_paths, 1, one_block)
    return PathEnsemble(process=rw(), times=ts, paths=out)


def sample_noncolliding(
    process: ProcessKind,
    xi: cfg.PointConfiguration,
    times,
    dt: float,
    n_paths: int,
    seed: int,
) -> PathEnsemble:
    """Exact noncolliding BM or BESQ(nu) paths from the matrix models of
    the module docstring; BESQ needs nu = 1/2 or an integer nu >= 0.
    ``dt`` must be positive and is otherwise ignored (there is no step)."""
    if process.tag not in ("BM", "BESQ"):
        raise DomainError("interacting sampler supports BM and BESQ")
    if dt <= 0:
        raise DomainError("dt must be positive")
    if not xi.simple():
        raise DomainError("starting configuration must be simple")
    u = check_starts(process, xi.support(), representation=False)
    if process.tag == "BESQ" and process.nu != 0.5 and not float(process.nu).is_integer():
        raise DomainError(f"BESQ({process.nu}) has no matrix model")
    ts = check_times(process, times)
    cells = math.prod(_matrix_model(process, u)[0])
    if cells > _MAX_CELLS:
        raise CapacityError(f"matrix model of {cells} > {_MAX_CELLS} entries")
    chunk = max(1, _CHUNK_CELLS // cells)

    def one_block(block, size):
        # a block's chunks are drawn in order from its stream
        rng = stream(seed, block)
        return np.concatenate(
            [
                _noncolliding_chunk(process, u, ts, min(chunk, size - lo), rng)
                for lo in range(0, size, chunk)
            ]
        )

    out = _run_blocks(n_paths, 1, one_block)
    return PathEnsemble(process=process, times=ts, paths=out)


def _matrix_model(process, u):
    """Shape of one path's matrix (H for class C), and the diagonal of its
    first N rows (of A for class C) at time 0."""
    n = len(u)
    if process.tag == "BM":
        return (n, n), u
    root = np.sqrt(u)
    if process.nu == 0.5:
        return (2 * n, 2 * n), root
    return (n + int(process.nu), n), root


def _complex_gaussian(rng, shape, var):
    """iid complex Gaussians with E|g|^2 = var, viewed from pairs of normals."""
    g = rng.standard_normal(shape + (2,)).view(complex)[..., 0]
    g *= math.sqrt(var / 2.0)
    return g


def _hermitian_bm(rng, shape, dt):
    """Hermitian BM increment: diagonal variance dt, off-diagonal E|h|^2 = dt."""
    g = _complex_gaussian(rng, shape, dt / 2.0)
    return g + np.conj(np.swapaxes(g, -1, -2))


def _noncolliding_chunk(process, u, ts, size, rng):
    """``size`` paths of the matrix model, carried from one time to the next,
    stack axis last: the (rows, N) matrix, for class C A over B."""
    n = len(u)
    shape, diag = _matrix_model(process, u)
    mat = np.zeros((shape[0], n, size), dtype=complex)
    mat[range(n), range(n)] = diag[:, None]
    out = np.empty((size, len(ts), n))
    for m, (t, step) in enumerate(zip(ts, np.diff((0.0,) + ts))):
        if t == 0:
            out[:, m, :] = u
            continue
        if process.tag == "BM":
            mat += _hermitian_bm(rng, (size, n, n), step).transpose(1, 2, 0)
        elif process.nu == 0.5:
            mat[:n] += _hermitian_bm(rng, (size, n, n), step).transpose(1, 2, 0)
            g = _complex_gaussian(rng, (size, n, n), step / 2.0)
            mat[n:] += (g + np.swapaxes(g, -1, -2)).transpose(1, 2, 0)
        else:
            mat += _complex_gaussian(rng, (size,) + shape, 2.0 * step).transpose(1, 2, 0)
        out[:, m, :] = _model_positions(process, mat)
    return out


def _model_positions(process, mat):
    """Positions, ascending (m, N), of a stack-last matrix-model state: the
    eigenvalues of the Hermitian matrix (Dyson), of the Gram matrix M^H M
    (Wishart), and for class C the squares of the N positive eigenvalues of
    H.  H^2 is [[P, Q], [-conj Q, conj P]] with P = A^2 + B conj(B) and Q =
    A B - B conj(A) antisymmetric, the quaternion matrix P + Qj.  Up to N = 2
    that is [[p_0, w], [conj w, p_1]], w = P_01 + Q_01 j, which the unitary
    diag(1, w / |w|) makes real: P with P_01 = hypot(|P_01|, |Q_01|).  Above
    that LAPACK on the 2N x 2N matrix H."""

    def mul(x, y):  # x @ y, stack axis last
        return np.einsum("ikm,kjm->ijm", x, y)

    if process.tag == "BM":
        return _hermitian_eigvals(mat)
    if process.nu != 0.5:
        return _hermitian_eigvals(mul(np.conj(mat).swapaxes(0, 1), mat))
    a, b = np.split(mat, 2)
    n = len(a)
    if n > 2:
        top, bottom = np.concatenate([a, b], 1), np.concatenate([np.conj(b), -np.conj(a)], 1)
        return np.square(_hermitian_eigvals(np.concatenate([top, bottom]))[:, n:])
    p = mul(a, a) + mul(b, np.conj(b))
    if n == 2:
        q01 = mul(a[:1], b[:, 1:]) - mul(b[:1], np.conj(a[:, 1:]))
        p[0, 1] = p[1, 0] = np.hypot(np.abs(p[0, 1]), np.abs(q01[0, 0]))
    return _hermitian_eigvals(p)


def _hermitian_eigvals(p):
    """Ascending eigenvalues (m, n) of a stack of complex Hermitian matrices
    held stack axis last, (n, n, m).

    Up to _JACOBI_MAX rows, cyclic Jacobi rotations of every matrix at once
    on the diagonal and upper triangle (n = 2: one rotation, the closed
    form), until each off-diagonal part is below eps times the Frobenius
    norm: an error of about eps max|lambda|.  Above that LAPACK's eigvalsh.
    """
    n = p.shape[0]
    if n > _JACOBI_MAX:
        return np.linalg.eigvalsh(np.moveaxis(p, -1, 0))
    pairs = list(itertools.combinations(range(n), 2))
    d = [p[i, i].real for i in range(n)]
    x = {}
    for i, j in pairs:
        x[i, j], x[j, i] = p[i, j], np.conj(p[i, j])

    def off():
        return sum(np.square(x[ij].real) + np.square(x[ij].imag) for ij in pairs)

    # off() <= tol: (eps ||A||_F)^2, the Frobenius norm kept by every rotation
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    tol = eps * eps * (sum(np.square(v) for v in d) + 2.0 * off()) if n > 2 else 0
    zero = np.zeros_like(p[0, 0])
    for _ in range(30):
        for i, j in pairs:
            h = x[i, j]
            r = np.abs(h)
            delta = 0.5 * (d[j] - d[i])
            # the smaller angle, tan = g r, with g finite where h = 0
            g = np.copysign(1.0 / np.maximum(np.abs(delta) + np.hypot(delta, r), tiny), delta)
            t = g * r
            c = 1.0 / np.hypot(1.0, t)
            tr = t * r
            d[i], d[j] = d[i] - tr, d[j] + tr
            # the rotation by (c, s) in the plane of h / r; tau = s (h / r) / c
            tau = g * h
            x[i, j] = x[j, i] = zero
            for k in set(range(n)) - {i, j}:
                xi = c * (x[k, i] - x[k, j] * np.conj(tau))
                xj = c * (x[k, j] + x[k, i] * tau)
                x[k, i], x[i, k], x[k, j], x[j, k] = xi, np.conj(xi), xj, np.conj(xj)
        if n <= 2 or not (off() > tol).any():
            return _sort_particles(np.stack(d, axis=-1))
    raise NumericError("Jacobi sweeps did not converge in 30 sweeps")


# --------------------------------------------------------------------------
# Exact enumeration for the walk
# --------------------------------------------------------------------------


def brute_force_rw(
    xi: cfg.PointConfiguration, observable, times, T: int | None = None
):
    """Exact expectations over every outcome of the free walk.

    Returns (free_value, doob_value): the free-path expectation of
    F * det-weight, and the conditioned-walk expectation of F computed by
    the harmonic-transform weighting 1(ordered through T) h(V(T)) / h(u).
    An observable returning one value per outcome gives a pair of floats;
    one returning a column per quantity, shape (outcomes, k), gives a pair
    of length-k arrays, entry i equal to the scalar call whose observable
    returns column i (as a contiguous array).
    Bounded by 2^(N T) <= 2^24 outcomes.
    """
    if not xi.simple():
        raise DomainError("starting configuration must be simple")
    u = check_starts(rw(), xi.support(), representation=True)
    n = len(u)
    ts, grid = _observation_grid(rw(), times, T)
    horizon = int(grid[-1])
    bits = n * horizon
    if bits > 24:
        raise CapacityError("enumeration bounded by 2^(N T) <= 2^24 outcomes")
    total = 1 << bits
    h_u = cfg.vandermonde(u)
    free_acc = 0.0
    doob_acc = 0.0
    chunk = 1 << 20
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        # bit (j * horizon + s) is the step of particle j at time s+1
        steps = ((idx[:, None] >> np.arange(bits)) & 1) * 2 - 1
        steps = steps.reshape(len(idx), n, horizon)
        # pos[:, j, s] is particle j at time s, from its start at s = 0
        pos = np.zeros((len(idx), n, horizon + 1))
        np.cumsum(steps, axis=2, out=pos[:, :, 1:])
        pos += u[:, None]
        at_obs = np.stack([pos[:, :, int(t)] for t in ts], axis=1)  # (chunk, M, n)
        fvals = np.asarray(observable(_sort_particles(at_obs)), dtype=float)
        end = pos[:, :, horizon]
        weights = det_weight(rw(), xi, horizon, end)
        ordered = (np.diff(pos, axis=1) > 0).all(axis=(1, 2))
        doob = ordered * cfg.vandermonde(end) / h_u
        # one dot product per quantity: the scalar F as returned, a column
        # of a vector F as a contiguous copy (a strided dot rounds otherwise)
        columns = fvals[None] if fvals.ndim == 1 else np.ascontiguousarray(fvals.T)
        free_acc += np.array([col @ weights for col in columns])
        doob_acc += np.array([col @ doob for col in columns])
    if fvals.ndim == 1:
        return float(free_acc[0]) / total, float(doob_acc[0]) / total
    return free_acc / total, doob_acc / total


# --------------------------------------------------------------------------
# Reducibility of the determinantal weight
# --------------------------------------------------------------------------


def reducibility_check(
    process: ProcessKind,
    xi: cfg.PointConfiguration,
    n_prime: int,
    observable,
    t: float,
    n_paths: int,
    seed: int,
):
    """Both sides of the size-reduction identity, as Monte Carlo estimates.

    Left: sum over size-n' index subsets J of E[F(V_J(t)) * full det].
    Right: sum over ordered n'-subsets v of the support of
    E_v[F(V(t)) * n'-by-n' det of M_xi^{v_k}].
    """
    if not xi.simple():
        raise DomainError("reducibility check needs a simple configuration")
    sup = xi.support()
    n = len(sup)
    if not 1 <= n_prime <= n <= 4:
        raise DomainError("supported sizes: 1 <= n_prime <= N <= 4")
    ts = check_times(process, (t,))
    u = np.array(sup)

    # left side: one ensemble from the full configuration; the sum over
    # n'-subsets of the positions does not depend on the labels
    def subset_sum(pos):
        return sum(
            np.asarray(observable(pos[:, :, list(sub)]), dtype=float)
            for sub in itertools.combinations(range(n), n_prime)
        )

    lhs = dmr_expectation(process, xi, subset_sum, ts, n_paths, seed)

    # right side: one ensemble per ordered support subset, each on the
    # streams of seed + 7919 (subset index + 1)
    rhs_mean = rhs_var = 0.0
    for si, subset in enumerate(itertools.combinations(range(n), n_prime)):
        cmat = cfg.phi_coeffs(xi)[:, list(subset)]

        def weight(_block, paths, grid, kept):
            # M_xi^{v_k}(t, V_j) of every row as one (rows * n', n) @ (n, n') product
            mvals = mart.poly_values(process, n - 1, grid[-1], paths[kept, -1, :])
            mats = (mvals.reshape(-1, n) @ cmat).reshape(-1, n_prime, n_prime)
            return cfg.stacked_det(mats)

        est = _representation_estimate(
            process, cfg.PointConfiguration.from_points(u[list(subset)]), observable,
            ts, n_paths, seed + 7919 * (si + 1), None, 1, weight,
        )
        rhs_mean += est.mean
        rhs_var += est.std_error**2
    count = math.comb(n, n_prime)
    rhs = Estimate(mean=rhs_mean, std_error=math.sqrt(rhs_var), n=n_paths * count)
    return lhs, rhs
