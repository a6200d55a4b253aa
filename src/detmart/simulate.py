"""Path sampling, Monte Carlo representation estimators, and exact oracles.

Estimators compute E[F * det-weight] where the weight is the determinantal
martingale det[M_xi^{u_k}(T, V_j(T))] over independent free paths (real
representation) or det[phi^{u_k}(Z_j(T))] over complex paths (complex
representation).  By the determinant identity the weights are evaluated
as h(V(T)) / h(u), h(Z(T)) / h(u), or prod_j q(Z_j) h(Z(T)^2) / h(u^2) for
BES(n + 1/2), h the Vandermonde product; no matrix is formed.
``brute_force_rw`` enumerates every walk outcome exactly and is the
ground truth the walk estimators are tested against.

Randomness: Philox counter streams keyed by (seed, block index) with a
fixed block size, so results are bit-reproducible and independent of how
blocks are distributed over workers.  The imaginary companions of a block
come from one loop, ``_companion_block``, on a stream of their own: keyed
by (seed2, block) in ``attach_companions`` (the CLI passes seed + 1) and
by (seed ^ 0x9E3779B97F4A7C15, block) in ``cpr_expectation``.  The walk's
C(t) sampler draws a data-dependent number of variates from that stream,
so its output still depends on (seed, block) alone.

Noncolliding BM and BESQ paths are exact spectra of matrix diffusions,
whose increments between observation times come from the (seed, block)
stream in time order: eigenvalues of diag(u) + H(t), H a Hermitian BM
(Dyson); for BESQ(nu), integer nu >= 0, squared singular values of the
(N + nu) x N complex Brownian matrix from [diag(sqrt u); 0]
(Koenig-O'Connell 2001); for BESQ(1/2), squared positive eigenvalues of
the class-C matrix [[A, B], [conj B, -conj A]], A = diag(sqrt u) + H(t),
B complex symmetric Brownian (Katori-Tanemura 2004).  Observables receive
positions sorted within each time slice (the unlabeled configuration) as
an array of shape (paths, times, particles) and must return one value
per path.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import configurations as cfg
from . import martingales as mart
from .errors import CapacityError, DomainError, NumericError
from .processes import ProcessKind, rw

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
# the noncolliding sampler draws its matrices in chunks of about 2^13
# entries (128 KB of complex128); one path's matrix may have at most 2^18
_CHUNK_CELLS = 1 << 13
_MAX_CELLS = 1 << 18
_MASK64 = (1 << 64) - 1
_COMPANION_KEY = 0x9E3779B97F4A7C15


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
    seed: int
    companions: np.ndarray | None = None

    def __post_init__(self):
        if self.paths.ndim != 3 or self.paths.shape[1] != len(self.times):
            raise DomainError("path array must be (paths, times, particles)")
        if self.companions is not None and self.companions.shape != self.paths.shape:
            raise DomainError("companions must match the path array shape")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


def _blocks(n_paths: int):
    start = 0
    block = 0
    while start < n_paths:
        size = min(BLOCK, n_paths - start)
        yield block, start, size
        start += size
        block += 1


def _check_times(process: ProcessKind, times) -> tuple:
    ts = tuple(float(t) for t in times)
    if not all(math.isfinite(t) for t in ts):
        raise DomainError("times must be finite")
    if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise DomainError("times must be strictly increasing")
    if any(t < 0 for t in ts):
        raise DomainError("times must be nonnegative")
    if process.tag == "RW" and any(not float(t).is_integer() for t in ts):
        raise DomainError("walk times must be integers")
    return ts


def sample_free(
    process: ProcessKind, u, times, n_paths: int, seed: int
) -> PathEnsemble:
    """Independent free paths from u_j, exact transition sampling."""
    ts = _check_times(process, times)
    u = np.asarray(u, dtype=float)
    n_particles = len(u)
    if process.tag == "BESQ" and (u < 0).any():
        raise DomainError("BESQ starts must be nonnegative")
    if process.tag == "BES" and (u < 0).any():
        raise DomainError("BES starts must be nonnegative")
    if process.tag == "RW" and any(not float(v).is_integer() for v in u):
        raise DomainError("walk starts must be integers")
    out = np.empty((n_paths, len(ts), n_particles))
    for block, start, size in _blocks(n_paths):
        rng = stream(seed, block)
        out[start : start + size] = _sample_free_block(process, u, ts, size, rng)
    return PathEnsemble(process=process, times=ts, paths=out, seed=int(seed))


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
                mix = rng.poisson(state / (2.0 * dt))
                state = 2.0 * dt * rng.standard_gamma(process.nu + 1.0 + mix)
            elif process.tag == "BES":
                sq = state * state
                mix = rng.poisson(sq / (2.0 * dt))
                state = np.sqrt(2.0 * dt * rng.standard_gamma(process.nu + 1.0 + mix))
            elif process.tag == "RW":
                steps = int(round(dt))
                jumps = rng.integers(0, 2, size=state.shape + (steps,)) * 2 - 1
                state = state + jumps.sum(axis=-1)
            else:
                raise DomainError(f"unsupported process {process}")
        out[:, m, :] = state
        prev_t = t
    return out


def _companion_block(process, ts, size, n_particles, rng):
    """One block of imaginary companions at the times ``ts``: Brownian for
    BM/BES, time-changed Brownian W(C(t)) for the walk."""
    out = np.empty((size, len(ts), n_particles))
    state = np.zeros((size, n_particles))
    prev_t = 0.0
    for m, t in enumerate(ts):
        dt = t - prev_t
        if dt > 0:
            if process.tag == "RW":
                dc = mart.sample_ctime(dt, rng, size=state.shape)
                state = state + np.sqrt(dc) * rng.standard_normal(state.shape)
            else:
                state = state + math.sqrt(dt) * rng.standard_normal(state.shape)
        out[:, m, :] = state
        prev_t = t
    return out


def attach_companions(ens: PathEnsemble, seed2: int) -> PathEnsemble:
    """Independent imaginary parts: Brownian for BM/BES, time-changed
    Brownian W(C(t)) for the walk, drawn from the streams of ``seed2``."""
    proc = ens.process
    if proc.tag not in ("BM", "BES", "RW"):
        raise DomainError(f"no complex companion defined for {proc}")
    comp = np.empty_like(ens.paths)
    n_particles = ens.paths.shape[2]
    for block, start, size in _blocks(ens.n_paths):
        comp[start : start + size] = _companion_block(
            proc, ens.times, size, n_particles, stream(seed2, block)
        )
    return PathEnsemble(
        process=proc,
        times=ens.times,
        paths=ens.paths,
        seed=ens.seed,
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
    m_{N-1} is built only to refuse processes and horizons without one."""
    pts = np.asarray(end_positions, dtype=float)
    u = _weight_nodes(xi, pts)
    mart.poly_coeffs(process, len(u) - 1, T)
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
    chunks = list(_blocks(n_paths))
    results = [None] * len(chunks)
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = {
                pool.submit(block_fn, block, size): i
                for i, (block, _, size) in enumerate(chunks)
            }
            for fut, i in futs.items():
                results[i] = fut.result()
    else:
        for i, (block, _, size) in enumerate(chunks):
            results[i] = block_fn(block, size)
    return np.concatenate(results)


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
    if not xi.simple():
        raise DomainError("representation estimators need a simple configuration")
    if xi.total() > 8:
        raise DomainError("representation estimators support at most 8 particles")
    ts = _check_times(process, times)
    horizon = float(ts[-1]) if T is None else float(T)
    if horizon < ts[-1]:
        raise DomainError("horizon must not precede the last observation time")
    grid = ts if horizon == ts[-1] else ts + (horizon,)
    u = np.array(xi.support())

    def one_block(block, size):
        rng = stream(seed, block)
        paths = _sample_free_block(process, u, grid, size, rng)
        weights = det_weight(process, xi, horizon, paths[:, -1, :])
        obs = np.asarray(
            observable(np.sort(paths[:, : len(ts), :], axis=2)), dtype=float
        )
        return obs * weights

    values = _run_blocks(n_paths, workers, one_block)
    return Estimate.from_samples(values)


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
    if not xi.simple():
        raise DomainError("representation estimators need a simple configuration")
    ts = _check_times(process, times)
    horizon = float(ts[-1]) if T is None else float(T)
    if horizon < ts[-1]:
        raise DomainError("horizon must not precede the last observation time")
    grid = ts if horizon == ts[-1] else ts + (horizon,)
    u = np.array(xi.support())

    def one_block(block, size):
        rng = stream(seed, block)
        paths = _sample_free_block(process, u, grid, size, rng)
        comp = _companion_block(
            process, grid, size, len(u), stream(seed ^ _COMPANION_KEY, block)
        )
        z_end = paths[:, -1, :] + 1j * comp[:, -1, :]
        weights = cpr_weight(process, xi, horizon, z_end)
        obs = np.asarray(
            observable(np.sort(paths[:, : len(ts), :], axis=2)), dtype=float
        )
        return obs * weights

    values = _run_blocks(n_paths, workers, one_block)
    return Estimate.from_samples(values)


# --------------------------------------------------------------------------
# Noncolliding samplers
# --------------------------------------------------------------------------


def sample_noncolliding_rw(
    xi: cfg.PointConfiguration, times, n_paths: int, seed: int
) -> PathEnsemble:
    """Exact sampler of the ordered walk via the Vandermonde h-transform.

    One-step law P(x -> x + e) = 2^{-N} h(x + e) / h(x) over the 2^N sign
    vectors; moves that leave the ordered sector carry h = 0.  The weights
    must sum to one at every visited state, which is asserted.
    """
    if not xi.simple():
        raise DomainError("starting configuration must be simple")
    u = np.array(xi.support())
    if any(v != int(v) or int(v) % 2 != 0 for v in u):
        raise DomainError("starting sites must be distinct even integers")
    ts = _check_times(rw(), times)
    n = len(u)
    horizon = int(ts[-1])
    moves = np.array(list(itertools.product((-1, 1), repeat=n)), dtype=float)
    record = {int(t): i for i, t in enumerate(ts)}
    out = np.empty((n_paths, len(ts), n))
    for block, start, size in _blocks(n_paths):
        rng = stream(seed, block)
        state = np.broadcast_to(u, (size, n)).copy()
        if 0 in record:
            out[start : start + size, record[0], :] = state
        for step in range(1, horizon + 1):
            cand = state[:, None, :] + moves[None, :, :]  # (size, 2^n, n)
            h_new = cfg.vandermonde(cand)
            h_old = cfg.vandermonde(state)
            weights = np.maximum(h_new, 0.0) / (2.0**n * h_old[:, None])
            total = weights.sum(axis=1)
            if np.max(np.abs(total - 1.0)) > 1e-9:
                raise NumericError(
                    "one-step weights failed to sum to one; "
                    "harmonicity of the Vandermonde factor is broken"
                )
            cum = np.cumsum(weights, axis=1)
            draws = rng.random(size)
            pick = (draws[:, None] >= cum).sum(axis=1)
            state = cand[np.arange(size), pick, :]
            if step in record:
                out[start : start + size, record[step], :] = state
    return PathEnsemble(process=rw(), times=ts, paths=out, seed=int(seed))


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
    u = np.array(xi.support())
    if process.tag == "BESQ":
        if (u < 0).any():
            raise DomainError("BESQ starts must be nonnegative")
        if process.nu != 0.5 and not float(process.nu).is_integer():
            raise DomainError(f"BESQ({process.nu}) has no matrix model")
    ts = _check_times(process, times)
    cells = math.prod(_matrix_model(process, u)[0])
    if cells > _MAX_CELLS:
        raise CapacityError(f"matrix model of {cells} > {_MAX_CELLS} entries")
    # a block's chunks are drawn in order from its stream
    chunk = max(1, _CHUNK_CELLS // cells)
    out = np.empty((n_paths, len(ts), len(u)))
    for block, start, size in _blocks(n_paths):
        rng = stream(seed, block)
        for lo in range(start, start + size, chunk):
            hi = min(lo + chunk, start + size)
            out[lo:hi] = _noncolliding_chunk(process, u, ts, hi - lo, rng)
    return PathEnsemble(process=process, times=ts, paths=out, seed=int(seed))


def _matrix_model(process, u):
    """Shape of one path's matrix, and its diagonal at time 0."""
    n = len(u)
    if process.tag == "BM":
        return (n, n), u
    root = np.sqrt(u)
    if process.nu == 0.5:
        return (2 * n, 2 * n), np.concatenate([root, -root])
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
    """``size`` paths of the matrix model, carried from one time to the next."""
    n = len(u)
    shape, diag = _matrix_model(process, u)
    mat = np.zeros((size,) + shape, dtype=complex)
    mat[:, range(len(diag)), range(len(diag))] = diag
    out = np.empty((size, len(ts), n))
    for m, (t, step) in enumerate(zip(ts, np.diff((0.0,) + ts))):
        if t == 0:
            out[:, m, :] = u
            continue
        if process.tag == "BM":
            mat += _hermitian_bm(rng, (size, n, n), step)
            out[:, m, :] = np.linalg.eigvalsh(mat)
        elif process.nu == 0.5:
            a = _hermitian_bm(rng, (size, n, n), step)
            g = _complex_gaussian(rng, (size, n, n), step / 2.0)
            b = g + np.swapaxes(g, -1, -2)
            mat += np.block([[a, b], [np.conj(b), -np.conj(a)]])
            out[:, m, :] = np.linalg.eigvalsh(mat)[:, n:] ** 2
        else:
            mat += _complex_gaussian(rng, mat.shape, 2.0 * step)
            out[:, m, :] = np.linalg.svd(mat, compute_uv=False)[:, ::-1] ** 2
    return out


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
    Bounded by 2^(N T) <= 2^24 outcomes.
    """
    if not xi.simple():
        raise DomainError("starting configuration must be simple")
    u = np.array(xi.support())
    n = len(u)
    ts = [int(t) for t in _check_times(rw(), times)]
    horizon = int(ts[-1]) if T is None else int(T)
    if horizon < ts[-1]:
        raise DomainError("horizon must not precede the last observation time")
    bits = n * horizon
    if bits > 24:
        raise CapacityError("enumeration bounded by 2^(N T) <= 2^24 outcomes")
    total = 1 << bits
    cmat = np.column_stack([cfg.phi_coeffs(xi, v) for v in u])
    h_u = cfg.vandermonde(u)
    free_acc = 0.0
    doob_acc = 0.0
    chunk = 1 << 20
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        # bit (j * horizon + s) is the step of particle j at time s+1
        steps = ((idx[:, None] >> np.arange(bits)) & 1) * 2 - 1
        steps = steps.reshape(len(idx), n, horizon)
        pos = u[None, :, None] + np.cumsum(steps, axis=2)  # (chunk, n, T)
        at_obs = np.stack([pos[:, :, t - 1] for t in ts], axis=1)  # (chunk, M, n)
        fvals = np.asarray(observable(np.sort(at_obs, axis=2)), dtype=float)
        end = pos[:, :, horizon - 1].astype(float)
        weights = det_weight(rw(), xi, horizon, end)
        free_acc += float(fvals @ weights)
        ordered = (np.diff(pos, axis=1) > 0).all(axis=(1, 2))
        doob_acc += float(fvals @ (ordered * cfg.vandermonde(end) / h_u))
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
    T: float | None = None,
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
    ts = _check_times(process, (t,))
    horizon = float(ts[-1]) if T is None else float(T)
    grid = ts if horizon == ts[-1] else ts + (horizon,)
    u = np.array(sup)
    cmat_full = np.column_stack([cfg.phi_coeffs(xi, v) for v in sup])

    # left side: one ensemble from the full configuration
    lhs_vals = np.zeros(n_paths)
    for block, start, size in _blocks(n_paths):
        rng = stream(seed, block)
        paths = _sample_free_block(process, u, grid, size, rng)
        dets = det_weight(process, xi, horizon, paths[:, -1, :])
        acc = np.zeros(size)
        for subset in itertools.combinations(range(n), n_prime):
            sub = np.sort(paths[:, 0, list(subset)], axis=1)
            acc += np.asarray(observable(sub[:, None, :]), dtype=float)
        lhs_vals[start : start + size] = acc * dets
    lhs = Estimate.from_samples(lhs_vals)

    # right side: one ensemble per ordered support subset
    rhs_mean = 0.0
    rhs_var = 0.0
    count = 0
    for si, subset in enumerate(itertools.combinations(range(n), n_prime)):
        v = u[list(subset)]
        cmat = cmat_full[:, list(subset)]
        vals = np.zeros(n_paths)
        for block, start, size in _blocks(n_paths):
            rng = stream(seed + 7919 * (si + 1), block)
            paths = _sample_free_block(process, v, grid, size, rng)
            mvals = mart.poly_values(process, n - 1, horizon, paths[:, -1, :])
            dets = np.linalg.det(mvals @ cmat)
            obs = np.asarray(
                observable(np.sort(paths[:, :1, :], axis=2)), dtype=float
            )
            vals[start : start + size] = obs * dets
        est = Estimate.from_samples(vals)
        rhs_mean += est.mean
        rhs_var += est.std_error**2
        count += 1
    rhs = Estimate(mean=rhs_mean, std_error=math.sqrt(rhs_var), n=n_paths * count)
    return lhs, rhs
