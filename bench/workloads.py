"""Seeded job lists of the three benchmark workloads.

A workload is a fixed list of ``detmart`` CLI jobs.  The seed draws every
input that does not set the amount of work (starting points, times, grid
coordinates, thresholds, Monte Carlo seeds); path counts, grid shapes,
quadrature orders and step sizes are fixed, so runs with different seeds
cost the same.  Each job carries an oracle from :mod:`oracles` that checks
its primary output.

Workloads:

``mc_estimate``
    Monte Carlo estimation reduced to a weighted mean: path sampling, the
    determinantal weights, the C(t) time change, the lifted observable and
    the worker pool.  No kernel grid, Fredholm series or Euler step.
``kernel_fredholm``
    Deterministic numerics: kernel grids (Bessel J, adaptive quadrature,
    contour residues) and the Fredholm block multi-sum.
``noncolliding_paths``
    Whole path ensembles produced and written: the Euler noncolliding
    sampler, the exact walk sampler, companions, and the CSV writer.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from detmart import configurations as cfg
from detmart import fredholm as fred
from detmart import kernels as ker
from detmart import simulate as sim
from detmart.processes import bm

import oracles as orc

WORKLOADS = ("mc_estimate", "kernel_fredholm", "noncolliding_paths")

#: Largest per-path standard deviation, std_error * sqrt(n_paths), that the
#: seed library gave for each Monte Carlo job (workload seeds 1000-1039, and
#: 200-259 for the reciprocal reference).  A standard error above SE_FACTOR
#: times this over sqrt(n_paths) misses the job's oracle, so that a speed-up
#: bought with variance does not pass.  The spread over seeds is wide (up to
#: 13x between seeds for CPR RW), so only a large loss of accuracy shows.
#: CPR BES(3/2) at N=3 is known to return noise; its entry records that
#: noise, not a sound estimator.
SE_FACTOR = 2.0
SD_WORST = {
    "estimate.dmr.rw": 4.61,
    "estimate.dmr.bm.serial": 8.26,
    "estimate.dmr.bm.pool": 8.26,
    "estimate.dmr.besq": 164.0,
    "estimate.cpr.rw": 26.7,
    "estimate.cpr.bm": 16.7,
    "estimate.cpr.bes": 585.0,
    "fredholm.mc": 0.604,
    "oconnell.cpr": 0.361,
    "oconnell.dmr": 0.354,
    "oconnell.reference": 0.372,
}


def _se_max(name: str, mc: dict) -> float:
    return SE_FACTOR * SD_WORST[name] / math.sqrt(mc["n_paths"])


@dataclass
class Job:
    """One CLI invocation and the check of its primary output."""

    name: str
    group: str  # per-command metric <group>_s: dmr, cpr, oconnell, kernel, ...
    command: str  # detmart subcommand
    config: dict | None = None  # detmart/1 config; output.path is filled in
    suite: str | None = None  # verify suite name
    oracle: Callable[[str], list] = field(default=lambda path: [], repr=False)
    mc_paths: int = 0  # Monte Carlo paths the job completes

    def argv(self, config_path: str, output_path: str) -> list[str]:
        if self.command == "verify":
            return ["verify", self.suite, "--output", output_path]
        return [self.command, config_path]


@dataclass
class Workload:
    name: str
    jobs: list
    # pairs of job names whose primary outputs must be byte-identical
    same_output: list = field(default_factory=list)


def _workers() -> int:
    # threads never outnumber cores
    return max(1, min(2, os.cpu_count() or 1))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _config(command: str, **body) -> dict:
    return {"schema": "detmart/1", "command": command, **body, "output": {"path": ""}}


def _atoms(points) -> dict:
    return {"atoms": [[float(p), 1] for p in points]}


def _spread(rng, n: int, lo: float, step: float, jitter: float) -> list[float]:
    """n increasing points lo, lo + step, ... each moved by up to +-jitter."""
    return [round(lo + step * k + float(rng.uniform(-jitter, jitter)), 6) for k in range(n)]


def _even_sites(rng, n: int, lo: int, hi: int) -> list[int]:
    sites = np.arange(lo, hi + 1, 2)
    return sorted(int(v) for v in rng.choice(sites, size=n, replace=False))


def _scaled(n: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(n * scale)))


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The job list of workload ``name`` drawn from ``seed``.

    ``scale`` shrinks path counts and grids for the benchmark's own tests;
    measured runs always use 1.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return {
        "mc_estimate": _mc_estimate,
        "kernel_fredholm": _kernel_fredholm,
        "noncolliding_paths": _noncolliding_paths,
    }[name](rng, scale)


def warmups(workload: Workload) -> list:
    """One tiny job per command kind of the workload, for set-up.

    The first job of each kind with at most 64 paths and one point per
    grid axis; verify warms up on the cheap ``identities`` suite.
    """
    out = {}
    for job in workload.jobs:
        if job.command in out:
            continue
        if job.command == "verify":
            out["verify"] = _verify("identities")
            continue
        config = json.loads(json.dumps(job.config))
        if "mc" in config:
            config["mc"]["n_paths"] = min(64, config["mc"]["n_paths"])
        if "grid" in config:
            config["grid"] = {axis: values[:1] for axis, values in config["grid"].items()}
        out[job.command] = Job(f"warmup.{job.command}", job.group, job.command, config=config)
    return list(out.values())


def _verify(suite: str) -> Job:
    def oracle(path):
        report = orc.read_json(path)
        return [
            f"verify {suite}: check {c['check']!r} {c['status']}: "
            f"{c['measured']!r} > {c['tolerance']!r}"
            for c in report["checks"]
            if c["status"] != "pass"
        ]

    return Job(f"verify.{suite}", "verify", "verify", suite=suite, oracle=oracle)


# --------------------------------------------------------------------------
# mc_estimate
# --------------------------------------------------------------------------


def _estimate_job(name, group, config, want, label) -> Job:
    def oracle(path):
        return orc.estimate_near(label, orc.read_json(path)["estimate"], want(),
                                 _se_max(name, config["mc"]))

    return Job(name, group, "estimate", config=config, oracle=oracle,
               mc_paths=config["mc"]["n_paths"])


def _rw_exact(points, times, threshold):
    """Exact E[1(all >= h at the last time)] of the conditioned walk."""

    def want():
        xi = cfg.PointConfiguration.from_points(points)
        _, doob = sim.brute_force_rw(
            xi, lambda p: (p[:, -1, :] >= threshold).all(axis=1).astype(float), times
        )
        return doob

    return want


def _mc_estimate(rng, scale) -> Workload:
    w = _workers()
    jobs = []

    # one worker: a pooled job's wall time swings with whether the second
    # core is free, so only the paired BM job below runs in the pool
    def mc(n):
        return {"n_paths": _scaled(n, scale), "seed": _seed(rng), "workers": 1}

    # DMR on the walk: N=4, two observation times, exact enumeration oracle
    sites = _even_sites(rng, 4, -6, 8)
    h = int(rng.integers(sites[0] - 2, sites[0] + 2))
    cfg_rw = _config(
        "estimate", estimator="dmr", process={"kind": "RW"}, xi=_atoms(sites),
        times=[2, 4], observable={"kind": "all_ge", "threshold": h}, mc=mc(200_000),
    )
    jobs.append(_estimate_job("estimate.dmr.rw", "dmr", cfg_rw,
                              _rw_exact(sites, [2, 4], h), "DMR RW vs enumeration"))

    # DMR on BM at one and at two workers: unit mean, equal outputs
    pts = _spread(rng, 4, -2.0, 1.4, 0.2)
    t = round(float(rng.uniform(0.7, 1.3)), 6)
    bm_mc = mc(200_000)
    for label, k in (("serial", 1), ("pool", w)):
        cfg_bm = _config(
            "estimate", estimator="dmr", process={"kind": "BM"}, xi=_atoms(pts),
            times=[t], observable={"kind": "one"}, mc=dict(bm_mc, workers=k),
        )
        jobs.append(_estimate_job(f"estimate.dmr.bm.{label}", "dmr", cfg_bm,
                                  lambda: 1.0, f"DMR BM unit weight mean, {k} workers"))

    # DMR on BESQ: unit mean
    nu = float(rng.choice([0.0, 0.5, 1.0]))
    cfg_besq = _config(
        "estimate", estimator="dmr", process={"kind": "BESQ", "nu": nu},
        xi=_atoms(_spread(rng, 4, 1.0, 2.0, 0.3)),
        times=[round(float(rng.uniform(0.4, 0.6)), 6)], observable={"kind": "one"},
        mc=mc(200_000),
    )
    jobs.append(_estimate_job("estimate.dmr.besq", "dmr", cfg_besq, lambda: 1.0,
                              "DMR BESQ unit weight mean"))

    # CPR on the walk: the C(t) companion, exact enumeration oracle
    sites = _even_sites(rng, 4, -6, 8)
    h = int(rng.integers(sites[0] - 2, sites[0] + 2))
    cfg_cpr_rw = _config(
        "estimate", estimator="cpr", process={"kind": "RW"}, xi=_atoms(sites),
        times=[2, 4], observable={"kind": "all_ge", "threshold": h}, mc=mc(8192),
    )
    jobs.append(_estimate_job("estimate.cpr.rw", "cpr", cfg_cpr_rw,
                              _rw_exact(sites, [2, 4], h), "CPR RW vs enumeration"))

    # CPR on BM and on BES(3/2): unit mean; BES(3/2) at N=3 is known noisy
    cfg_cpr_bm = _config(
        "estimate", estimator="cpr", process={"kind": "BM"},
        xi=_atoms(_spread(rng, 4, -2.0, 1.4, 0.2)),
        times=[round(float(rng.uniform(0.7, 1.3)), 6)], observable={"kind": "one"},
        mc=mc(100_000),
    )
    jobs.append(_estimate_job("estimate.cpr.bm", "cpr", cfg_cpr_bm, lambda: 1.0,
                              "CPR BM unit weight mean"))
    cfg_cpr_bes = _config(
        "estimate", estimator="cpr", process={"kind": "BES", "nu": 1.5},
        xi=_atoms(_spread(rng, 3, 0.6, 1.0, 0.2)),
        times=[round(float(rng.uniform(0.8, 1.2)), 6)], observable={"kind": "one"},
        mc=mc(20_000),
    )
    jobs.append(_estimate_job("estimate.cpr.bes", "cpr", cfg_cpr_bes, lambda: 1.0,
                              "CPR BES(3/2) unit weight mean"))

    # Fredholm generating function by weighted Monte Carlo
    jobs.append(_fredholm_mc(rng, mc(100_000)))

    # lifted observable, complex and quadrature routes, checked as a pair
    jobs.extend(_oconnell_pair(rng, mc(50_000), mc(50_000)))

    jobs.append(_verify("martingales"))
    return Workload("mc_estimate", jobs, same_output=[("estimate.dmr.bm.serial", "estimate.dmr.bm.pool")])


def _fredholm_mc(rng, mc) -> Job:
    pts = _spread(rng, 2, 0.0, 2.0, 0.3)
    t = round(float(rng.uniform(0.6, 1.0)), 6)
    a = round(float(rng.uniform(-1.5, -0.5)), 6)
    b = round(float(rng.uniform(2.0, 3.0)), 6)
    scale = round(float(rng.uniform(-0.7, -0.3)), 6)
    config = _config(
        "fredholm", route="mc", process={"kind": "BM"}, xi=_atoms(pts),
        spec={"times": [t], "chi": [{"support": [a, b], "scale": scale}]}, mc=mc,
    )

    def oracle(path):
        xi = cfg.PointConfiguration.from_points(pts)
        spec = fred.TestFunctionSpec((t,), (fred.ContinuousChi.indicator(a, b, scale),))
        want = fred.finite_rank_det(ker.general_kernel(bm(), xi), spec)
        return orc.estimate_near("Fredholm MC vs finite-rank det", orc.read_json(path)["estimate"], want,
                                 _se_max("fredholm.mc", mc))

    return Job("fredholm.mc", "fredholm", "fredholm", config=config, oracle=oracle,
               mc_paths=mc["n_paths"])


def _oconnell_pair(rng, mc_cpr, mc_dmr) -> list:
    nu_hat = _spread(rng, 2, -1.0, 2.0, 0.3)
    params = {
        "a": round(float(rng.uniform(0.05, 0.08)), 6),
        "nu_hat": nu_hat,
        "t": round(float(rng.uniform(0.8, 1.2)), 6),
        "h": round(float(rng.uniform(-0.5, 0.5)), 6),
    }
    outputs = {}

    def make(route, mc):
        config = _config("oconnell", route=route, params=params, mc=mc)

        def oracle(path):
            outputs[route] = orc.read_json(path)["estimate"]
            out = orc.se_at_most(f"O'Connell {route}", outputs[route]["std_error"],
                                 _se_max(f"oconnell.{route}", mc))
            if len(outputs) < 2:
                return out
            a, b = outputs["cpr"], outputs["dmr"]
            se = math.hypot(a["std_error"], b["std_error"])
            return out + orc.within_se("O'Connell CPR vs DMR", a["mean"] - b["mean"], se, 0.0)

        return Job(f"oconnell.{route}", "oconnell", "oconnell", config=config,
                   oracle=oracle, mc_paths=mc["n_paths"])

    return [make("cpr", mc_cpr), make("dmr", mc_dmr)]


# --------------------------------------------------------------------------
# kernel_fredholm
# --------------------------------------------------------------------------


def _grid(rng, n_s, n_x, n_t, n_y, s_range, x_range, t_range, y_range) -> dict:
    def draw(n, lo_hi):
        # one point per equal slice of the range, so that the cost of
        # adaptive evaluations does not swing with the seed
        lo, hi = lo_hi
        return [round(lo + (k + float(rng.uniform())) * (hi - lo) / n, 6) for k in range(n)]

    return {"s": draw(n_s, s_range), "x": draw(n_x, x_range),
            "t": draw(n_t, t_range), "y": draw(n_y, y_range)}


def _kernel_job(name, kernel, grid, reference) -> Job:
    config = _config("kernel", kernel=kernel, grid=grid)

    def oracle(path):
        rows = orc.read_grid(path)
        want_rows = len(grid["s"]) * len(grid["x"]) * len(grid["t"]) * len(grid["y"])
        if len(rows) != want_rows:
            return [f"kernel {name}: {len(rows)} rows, want {want_rows}"]
        out = []
        for s, x, t, y, value in rows:
            out += orc.close(f"kernel {name} at ({s}, {x}; {t}, {y})", value, reference(s, x, t, y))
        return out[:5]

    return Job(f"kernel.{name}", "kernel", "kernel", config=config, oracle=oracle)


def _kernel_fredholm(rng, scale) -> Workload:
    def n(k):
        return _scaled(k, scale, floor=1)

    jobs = []
    # general BM kernel; oracle uses the quadrature route of M_xi^v
    pts = _spread(rng, 3, -1.5, 1.5, 0.3)
    xi = cfg.PointConfiguration.from_points(pts)
    grid = _grid(rng, n(2), n(6), n(2), n(6), (0.4, 1.6), (-3, 3), (0.4, 1.6), (-3, 3))
    jobs.append(_kernel_job(
        "general", {"variant": "general", "process": {"kind": "BM"}, "xi": _atoms(pts)},
        grid, lambda s, x, t, y: orc.general_bm_kernel(xi, s, x, t, y)))

    # walk kernel; oracle: one- and two-point correlations by enumeration
    jobs.append(_rw_kernel_job(rng, n))

    # concentrated start (multiple point); oracle: gauge times Hermite
    size = 3
    grid = _grid(rng, n(2), n(4), n(2), n(4), (0.4, 1.6), (-2, 2), (0.4, 1.6), (-2, 2))
    jobs.append(_kernel_job(
        "multipoint",
        {"variant": "multipoint", "process": {"kind": "BM"}, "xi": {"atoms": [[0.0, size]]}},
        grid, lambda s, x, t, y, size=size: orc.multipoint_hermite(size, s, x, t, y)))

    # extended kernels of fixed rank: the rank sets the work
    size = 4
    grid = _grid(rng, n(2), n(8), n(2), n(8), (0.4, 1.6), (-3, 3), (0.4, 1.6), (-3, 3))
    jobs.append(_kernel_job(
        "extended_hermite", {"variant": "extended_hermite", "size": size}, grid,
        lambda s, x, t, y, size=size: orc.hermite_kernel(size, s, x, t, y)))

    nu = float(rng.choice([0.0, 0.5, 1.0]))
    grid = _grid(rng, n(2), n(8), n(2), n(8), (0.4, 1.6), (0.2, 6), (0.4, 1.6), (0.2, 6))
    jobs.append(_kernel_job(
        "extended_laguerre", {"variant": "extended_laguerre", "size": size, "nu": nu}, grid,
        lambda s, x, t, y, size=size, nu=nu: orc.laguerre_kernel(size, nu, s, x, t, y)))

    # sine: both signs of t - s
    grid = _grid(rng, n(2), n(8), n(2), n(8), (0.3, 1.7), (-2, 2), (0.3, 1.7), (-2, 2))
    jobs.append(_kernel_job(
        "sine", {"variant": "sine"}, grid,
        lambda s, x, t, y: orc.sine_kernel(t - s, y - x)))

    # Bessel: t > s throughout; arguments reach the Miller branch (x > 81).
    # The index sets the cost (nu = 1/2 refines at the root singularity)
    nu = 0.5
    grid = _grid(rng, n(1), n(6), n(1), n(6), (0.3, 0.9), (0.5, 100), (1.1, 1.7), (0.5, 100))
    jobs.append(_kernel_job(
        "bessel", {"variant": "bessel", "nu": nu}, grid,
        lambda s, x, t, y, nu=nu: orc.bessel_kernel(nu, t - s, y, x)))

    jobs.extend(_fredholm_jobs(rng, n))
    for suite in ("identities", "dmr_rw", "dmr_bm", "fredholm", "relaxation"):
        jobs.append(_verify(suite))
    return Workload("kernel_fredholm", jobs)


def _rw_kernel_job(rng, n) -> Job:
    sites = _even_sites(rng, 2, -2, 4)
    times = [2, 4]
    lo, hi = sites[0] - 4, sites[-1] + 4
    xs = sorted(int(v) for v in rng.choice(np.arange(lo, hi + 1), size=n(6), replace=False))
    grid = {"s": times, "x": xs, "t": times, "y": xs}
    config = _config("kernel", kernel={"variant": "rw", "xi": _atoms(sites)}, grid=grid)
    xi = cfg.PointConfiguration.from_points(sites)

    def correlation(points):
        # P(the walk visits every (time, site) in points), by enumeration
        def F(p):
            hit = np.ones(p.shape[0], dtype=bool)
            for t, x in points:
                hit &= (p[:, times.index(t), :] == x).any(axis=1)
            return hit.astype(float)

        return sim.brute_force_rw(xi, F, times)[1]

    def oracle(path):
        table = {(s, x, t, y): v for s, x, t, y, v in orc.read_grid(path)}
        pts = [(t, float(x)) for t in map(float, times) for x in xs]
        out = []
        for i, p in enumerate(pts):
            for q in pts[i:]:
                kpp, kqq = table[p + p], table[q + q]
                got = kpp if p == q else kpp * kqq - table[p + q] * table[q + p]
                want = correlation([p] if p == q else [p, q])
                out += orc.close(f"walk kernel correlation at {p}, {q}", got, want, 1e-10)
        return out[:5]

    return Job("kernel.rw", "kernel", "kernel", config=config, oracle=oracle)


def _fredholm_jobs(rng, n) -> list:
    def chi(a_range, b_range):
        return (round(float(rng.uniform(*a_range)), 6), round(float(rng.uniform(*b_range)), 6),
                round(float(rng.uniform(-0.7, 0.5)), 6))

    def spec_json(times, chis):
        return {"times": times, "chi": [{"support": [a, b], "scale": c} for a, b, c in chis]}

    jobs = []
    # one time: oracle is the finite-rank N x N determinant
    pts = _spread(rng, 2, 0.0, 2.0, 0.3)
    t = round(float(rng.uniform(0.6, 1.2)), 6)
    chis = [chi((-1.5, -0.5), (2.0, 3.0))]
    config = _config("fredholm", route="series", process={"kind": "BM"}, xi=_atoms(pts),
                     spec=spec_json([t], chis), quad_order=32)

    def one_time(path, pts=pts, t=t, chis=chis):
        xi = cfg.PointConfiguration.from_points(pts)
        (a, b, c), = chis
        spec = fred.TestFunctionSpec((t,), (fred.ContinuousChi.indicator(a, b, c),))
        want = fred.finite_rank_det(ker.general_kernel(bm(), xi), spec)
        return orc.close("one-time series vs finite-rank det", orc.read_json(path)["value"], want, 1e-6)

    jobs.append(Job("fredholm.series.one_time", "fredholm", "fredholm", config=config, oracle=one_time))

    # two times: the q^(N M) block multi-sum; oracle is a Nystrom determinant
    pts = _spread(rng, 2, 0.0, 2.0, 0.3)
    t1 = round(float(rng.uniform(0.4, 0.8)), 6)
    t2 = round(t1 + float(rng.uniform(0.3, 0.7)), 6)
    chis = [chi((-1.5, -0.5), (1.5, 2.5)), chi((-0.5, 0.5), (2.5, 3.5))]
    config = _config("fredholm", route="series", process={"kind": "BM"}, xi=_atoms(pts),
                     spec=spec_json([t1, t2], chis), quad_order=16)

    def two_times(path, pts=pts, ts=(t1, t2), chis=chis):
        want = orc.nystrom_bm(cfg.PointConfiguration.from_points(pts), ts, chis)
        return orc.close("two-time series vs Nystrom det", orc.read_json(path)["value"], want, 1e-6)

    jobs.append(Job("fredholm.series.two_times", "fredholm", "fredholm", config=config, oracle=two_times))

    # finite rank at N=3; oracle is a Nystrom determinant
    pts = _spread(rng, 3, -1.5, 1.5, 0.3)
    t = round(float(rng.uniform(0.6, 1.2)), 6)
    chis = [chi((-2.5, -1.5), (1.5, 2.5))]
    config = _config("fredholm", route="finite_rank", process={"kind": "BM"}, xi=_atoms(pts),
                     spec=spec_json([t], chis))

    def finite_rank(path, pts=pts, t=t, chis=chis):
        want = orc.nystrom_bm(cfg.PointConfiguration.from_points(pts), (t,), chis)
        return orc.close("finite-rank det vs Nystrom det", orc.read_json(path)["value"], want, 1e-8)

    jobs.append(Job("fredholm.finite_rank", "fredholm", "fredholm", config=config, oracle=finite_rank))
    return jobs


# --------------------------------------------------------------------------
# noncolliding_paths
# --------------------------------------------------------------------------


def _simulate_job(name, config, check) -> Job:
    n_times = len(config["times"])
    n_particles = len(config["xi"]["atoms"])

    def oracle(path):
        paths, comp = orc.read_paths(path, n_times, n_particles)
        if paths.shape[0] != config["mc"]["n_paths"]:
            return [f"simulate {name}: {paths.shape[0]} paths, want {config['mc']['n_paths']}"]
        return check(paths, comp)

    return Job(f"simulate.{name}", "simulate", "simulate", config=config, oracle=oracle,
               mc_paths=config["mc"]["n_paths"])


def _ordered(label, paths) -> list:
    if not (np.diff(paths, axis=2) > 0).all():
        return [f"{label}: a path left the ordered sector"]
    return []


def _noncolliding_paths(rng, scale) -> Workload:
    jobs = []

    def mc(n):
        return {"n_paths": _scaled(n, scale), "seed": _seed(rng), "workers": _workers()}

    def times():
        # the horizon sets the Euler step count, so it is fixed
        return [round(float(rng.uniform(0.3, 0.7)), 6), 1.0]

    # Euler noncolliding BM, N=3: the particle sum is a BM of variance N t.
    # A path whose particles nearly touch can stick and exhaust the
    # rejection budget (exit code 3) in a few percent of seeds; such a run
    # counts the job as failed
    pts = _spread(rng, 3, -1.0, 1.0, 0.2)
    ts = times()
    config = _config("simulate", sampler="noncolliding", process={"kind": "BM"},
                     xi=_atoms(pts), times=ts, dt=1e-3, mc=mc(8192))

    def check_bm(paths, _, pts=pts, ts=ts):
        out = _ordered("noncolliding BM", paths)
        for m, t in enumerate(ts):
            total = paths[:, m, :].sum(axis=1)
            out += orc.sample_mean_near(f"noncolliding BM sum at t={t}", total, sum(pts))
            out += orc.sample_mean_near(
                f"noncolliding BM sum variance at t={t}", (total - sum(pts)) ** 2, len(pts) * t)
        return out

    jobs.append(_simulate_job("noncolliding.bm", config, check_bm))

    # Euler noncolliding BESQ: the sum has drift 2N(nu+1) + 2N(N-1)
    nu = float(rng.choice([0.5, 1.0]))
    pts = _spread(rng, 2, 0.5, 1.5, 0.2)
    ts = times()
    config = _config("simulate", sampler="noncolliding", process={"kind": "BESQ", "nu": nu},
                     xi=_atoms(pts), times=ts, dt=1e-3, mc=mc(8192))

    def check_besq(paths, _, pts=pts, ts=ts, nu=nu):
        out = _ordered("noncolliding BESQ", paths)
        n = len(pts)
        drift = 2 * n * (nu + 1.0) + 2 * n * (n - 1)
        for m, t in enumerate(ts):
            out += orc.sample_mean_near(
                f"noncolliding BESQ sum at t={t}", paths[:, m, :].sum(axis=1), sum(pts) + drift * t)
        return out

    jobs.append(_simulate_job("noncolliding.besq", config, check_besq))

    # exact noncolliding walk, N=3: mean particle sum against enumeration
    sites = _even_sites(rng, 3, -4, 6)
    ts = [int(rng.integers(2, 4)), 6]
    config = _config("simulate", sampler="noncolliding_rw", process={"kind": "RW"},
                     xi=_atoms(sites), times=ts, mc=mc(20_000))

    def check_rw(paths, _, sites=sites, ts=ts):
        xi = cfg.PointConfiguration.from_points(sites)
        out = _ordered("noncolliding walk", paths)
        for m, t in enumerate(ts):
            _, want = sim.brute_force_rw(xi, lambda p: p[:, m, :].sum(axis=1), ts)
            out += orc.sample_mean_near(f"noncolliding walk sum at t={t}", paths[:, m, :].sum(axis=1), want)
        return out

    jobs.append(_simulate_job("noncolliding_rw", config, check_rw))

    # free paths with complex companions: E[Z^k] = u^k for Z = X + iY
    for kind, n_paths, ts in (("RW", 4096, [2, 4]), ("BM", 20_000, times())):
        if kind == "RW":
            pts = [float(v) for v in _even_sites(rng, 3, -4, 6)]
        else:
            pts = _spread(rng, 3, -1.0, 1.0, 0.2)
        config = _config("simulate", sampler="free", process={"kind": kind}, xi=_atoms(pts),
                         times=ts, companions=True, mc=mc(n_paths))

        def check_free(paths, comp, pts=pts, ts=ts, kind=kind):
            if comp is None:
                return [f"free {kind}: no companion column"]
            out = []
            z = paths + 1j * comp
            for j, u in enumerate(pts):
                for power in (1, 2, 3):
                    vals = (z[:, -1, j] ** power).real
                    out += orc.sample_mean_near(f"free {kind} companion moment {power}, particle {j}",
                                                vals, u**power)
            return out

        jobs.append(_simulate_job(f"free.{kind.lower()}", config, check_free))

    # reciprocal-time reference (Euler, N=2); oracle: Karlin-McGregor quadrature
    nu_hat = _spread(rng, 2, -1.0, 2.0, 0.3)
    t = 1.0
    h = round(float(rng.uniform(-0.5, 0.5)), 6)
    config = _config("oconnell", route="reference",
                     params={"a": 0.1, "nu_hat": nu_hat, "t": t, "h": h}, mc=mc(20_000))

    def check_ref(path, nu_hat=nu_hat, t=t, h=h, se_max=_se_max("oconnell.reference", config["mc"])):
        return orc.estimate_near("reciprocal reference vs Karlin-McGregor",
                                 orc.read_json(path)["estimate"], orc.km_all_above(nu_hat, t, h), se_max)

    jobs.append(Job("oconnell.reference", "oconnell", "oconnell", config=config,
                    oracle=check_ref, mc_paths=config["mc"]["n_paths"]))
    return Workload("noncolliding_paths", jobs)
