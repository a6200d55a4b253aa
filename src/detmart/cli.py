"""Batch command line front end.

Commands: ``detmart kernel|simulate|estimate|fredholm|oconnell|verify``.
Structured inputs arrive as a JSON configuration file (schema
``detmart/1``); only the seed, path count, worker count, and output path
may be overridden by flags.  Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error, 3 numeric non-convergence.

Outputs are pure functions of the resolved configuration: rerunning the
same configuration produces byte-identical files.  Every output embeds the
resolved configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import configurations as cfg
from . import fredholm as fred
from . import kernels as ker
from . import oconnell as oc
from . import simulate as sim
from . import verify as verify_mod
from .errors import DetmartError, DomainError, NumericError
from .processes import process_from_dict

SCHEMA = "detmart/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class ConfigError(DomainError):
    pass


# paths per formatted write of the simulate CSV: larger chunks write no
# faster and hold more argument objects and text in memory at once
_CSV_CHUNK = 256


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _require(config: dict, field: str, kind=None):
    cur = config
    for part in field.split("."):
        if not isinstance(cur, dict) or part not in cur:
            raise ConfigError(f"config field '{field}' is missing")
        cur = cur[part]
    if kind is not None and not isinstance(cur, kind):
        raise ConfigError(f"config field '{field}' has the wrong type")
    return cur


def _number(value, field: str, positive_int: bool = False):
    """A finite JSON number (a positive integer if asked), else ConfigError."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if positive_int:
        ok = ok and isinstance(value, int) and value > 0
    if not ok:
        kind = "a positive integer" if positive_int else "a finite number"
        raise ConfigError(f"config field '{field}' must be {kind}")
    return value if positive_int else float(value)


def _numbers(values, field: str) -> list:
    if not isinstance(values, list):
        raise ConfigError(f"config field '{field}' must be a list")
    return [_number(v, field) for v in values]


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON (line {exc.lineno}, column {exc.colno})"
        ) from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if config.get("schema") != SCHEMA:
        raise ConfigError(f"config field 'schema' must be {SCHEMA!r}")
    return config


def _apply_overrides(config: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        config.setdefault("mc", {})["seed"] = args.seed
    if getattr(args, "n_paths", None) is not None:
        config.setdefault("mc", {})["n_paths"] = args.n_paths
    if getattr(args, "workers", None) is not None:
        config.setdefault("mc", {})["workers"] = args.workers
    if getattr(args, "output", None) is not None:
        config.setdefault("output", {})["path"] = args.output
    return config


def _mc_params(config: dict):
    seed = _require(config, "mc.seed", int)
    n_paths = _require(config, "mc.n_paths", int)
    if n_paths <= 0:
        raise ConfigError("config field 'mc.n_paths' must be positive")
    workers = config.get("mc", {}).get("workers", os.cpu_count() or 1)
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError("config field 'mc.workers' must be a positive integer")
    return seed, n_paths, workers


def _horizon(config: dict):
    horizon = config.get("horizon")
    return None if horizon is None else _number(horizon, "horizon")


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _json_dump(obj, path: str):
    with _open_output(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _estimate_payload(est: sim.Estimate) -> dict:
    payload = {"std_error": est.std_error, "n": est.n}
    if isinstance(est.mean, complex):
        payload["mean"] = est.mean.real
        payload["mean_imag"] = est.mean.imag
        payload["std_error_imag"] = est.std_error_imag
    else:
        payload["mean"] = est.mean
    return payload


# --------------------------------------------------------------------------
# kernel
# --------------------------------------------------------------------------


def _build_kernel(kconf: dict) -> ker.CorrelationKernel:
    variant = kconf.get("variant")
    if variant not in ker.VARIANTS:
        raise ConfigError(f"unknown kernel variant {variant!r}")
    if variant in ("general", "rw", "multipoint"):
        xi = cfg.PointConfiguration.from_dict(_require(kconf, "xi", dict))
        if variant == "rw":
            return ker.rw_kernel(xi)
        proc = process_from_dict(_require(kconf, "process", dict))
        if variant == "general":
            return ker.general_kernel(proc, xi)
        return ker.multipoint_kernel(proc, xi)
    if variant in ("extended_hermite", "extended_laguerre"):
        size = _number(_require(kconf, "size"), "kernel.size", positive_int=True)
        if variant == "extended_hermite":
            return ker.extended_hermite_kernel(size)
        return ker.extended_laguerre_kernel(
            size, _number(_require(kconf, "nu"), "kernel.nu")
        )
    if variant == "sine":
        return ker.sine_kernel()
    return ker.bessel_kernel(_number(_require(kconf, "nu"), "kernel.nu"))


def cmd_kernel(config: dict) -> int:
    kconf = _require(config, "kernel", dict)
    kernel = _build_kernel(kconf)
    grid = _require(config, "grid", dict)
    svals, xvals, tvals, yvals = (
        _numbers(grid.get(axis, []), f"grid.{axis}") for axis in "sxty"
    )
    path = _require(config, "output.path", str)
    rows = []
    for s in svals:
        blocks = [ker.kernel_eval_grid(kernel, s, xvals, t, yvals) for t in tvals]
        for i, x in enumerate(xvals):
            for t, block in zip(tvals, blocks):
                rows.extend((s, x, t, y, v) for y, v in zip(yvals, block[i]))
    with _open_output(path) as fh:
        fh.write("s,x,t,y,value\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    sidecar = {
        "schema": SCHEMA,
        "config": config,
        "variant": kernel.variant,
        "xi": kernel.xi.to_dict() if kernel.xi is not None else None,
        "truncation": {"query_points": len(rows)},
        "tolerances": {"closed_form_quadrature": ker.QUADRATURE_TOL},
    }
    _json_dump(sidecar, path + ".json")
    return EXIT_OK


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def _write_paths(fh, ens: sim.PathEnsemble) -> None:
    """The ensemble CSV: a row (path, time, component, value[, companion])
    per sample, formatted one %-template per path, _CSV_CHUNK paths a write."""
    columns = [ens.paths] if ens.companions is None else [ens.paths, ens.companions]
    fh.write("path,time,component,value" + ",companion" * (len(columns) - 1) + "\n")
    tail = ",%.17g" * len(columns) + "\n"
    template = "".join(
        f"%d,{_fmt(t)},{j}{tail}" for t in ens.times for j in range(ens.paths.shape[2])
    )
    for lo in range(0, ens.n_paths, _CSV_CHUNK):
        hi = min(lo + _CSV_CHUNK, ens.n_paths)
        args = np.empty((hi - lo,) + ens.paths.shape[1:] + (1 + len(columns),), object)
        args[..., 0] = np.arange(lo, hi)[:, None, None]
        for k, col in enumerate(columns, 1):
            args[..., k] = col[lo:hi]
        fh.write(template * (hi - lo) % tuple(args.ravel().tolist()))


def cmd_simulate(config: dict) -> int:
    proc = process_from_dict(_require(config, "process", dict))
    xi = cfg.PointConfiguration.from_dict(_require(config, "xi", dict))
    times = _numbers(_require(config, "times"), "times")
    seed, n_paths, _ = _mc_params(config)
    sampler = config.get("sampler", "free")
    if sampler == "free":
        ens = sim.sample_free(proc, xi.points(), times, n_paths, seed)
    elif sampler == "noncolliding":
        dt = _number(config.get("dt", 1e-3), "dt")
        ens = sim.sample_noncolliding(proc, xi, times, dt, n_paths, seed)
    elif sampler == "noncolliding_rw":
        ens = sim.sample_noncolliding_rw(xi, times, n_paths, seed)
    else:
        raise ConfigError(f"unknown sampler {sampler!r}")
    if config.get("companions", False):
        ens = sim.attach_companions(ens, seed2=seed + 1)
    path = _require(config, "output.path", str)
    with _open_output(path) as fh:
        _write_paths(fh, ens)
    summary = {
        "schema": SCHEMA,
        "config": config,
        "n_paths": ens.n_paths,
        "times": list(ens.times),
        "mean": ens.paths.mean(axis=0).tolist(),
        # the sample variance is undefined below two paths
        "variance": ens.paths.var(axis=0, ddof=1).tolist() if ens.n_paths > 1 else None,
    }
    _json_dump(summary, path + ".summary.json")
    return EXIT_OK


# --------------------------------------------------------------------------
# estimate
# --------------------------------------------------------------------------


def _build_observable(oconf: dict):
    kind = oconf.get("kind")
    if kind == "one":
        return lambda p: np.ones(p.shape[0])
    if kind == "all_ge":
        h = _number(_require(oconf, "threshold"), "observable.threshold")

        def all_ge(p):
            return (p[:, -1, :] >= h).all(axis=1).astype(float)

        return all_ge
    if kind == "set_equals":
        sites = np.sort(_numbers(_require(oconf, "sites"), "observable.sites"))

        def set_equals(p):
            if p.shape[2] != len(sites):
                raise ConfigError("site count must match the particle count")
            return (p[:, -1, :] == sites).all(axis=1).astype(float)

        return set_equals
    raise ConfigError(f"unknown observable kind {kind!r}")


def cmd_estimate(config: dict) -> int:
    proc = process_from_dict(_require(config, "process", dict))
    xi = cfg.PointConfiguration.from_dict(_require(config, "xi", dict))
    times = _numbers(_require(config, "times"), "times")
    observable = _build_observable(_require(config, "observable", dict))
    seed, n_paths, workers = _mc_params(config)
    horizon = _horizon(config)
    estimator = config.get("estimator", "dmr")
    if estimator == "dmr":
        est = sim.dmr_expectation(
            proc, xi, observable, times, n_paths, seed, T=horizon, workers=workers
        )
    elif estimator == "cpr":
        est = sim.cpr_expectation(
            proc, xi, observable, times, n_paths, seed, T=horizon, workers=workers
        )
    else:
        raise ConfigError(f"unknown estimator {estimator!r}")
    payload = {"schema": SCHEMA, "config": config, "estimate": _estimate_payload(est)}
    _json_dump(payload, _require(config, "output.path", str))
    return EXIT_OK


# --------------------------------------------------------------------------
# fredholm
# --------------------------------------------------------------------------


def cmd_fredholm(config: dict) -> int:
    proc = process_from_dict(_require(config, "process", dict))
    xi = cfg.PointConfiguration.from_dict(_require(config, "xi", dict))
    spec = fred.TestFunctionSpec.from_dict(_require(config, "spec", dict))
    route = config.get("route", "series")
    kernel = ker.general_kernel(proc, xi)
    payload = {"schema": SCHEMA, "config": config}
    if route == "series":
        quad_order = _number(
            config.get("quad_order", 64), "quad_order", positive_int=True
        )
        payload["value"] = fred.fredholm_series(kernel, spec, quad_order=quad_order)
    elif route == "finite_rank":
        payload["value"] = fred.finite_rank_det(kernel, spec)
    elif route == "mc":
        seed, n_paths, workers = _mc_params(config)
        est = fred.mgf_monte_carlo(
            proc, xi, spec, n_paths, seed, T=_horizon(config), workers=workers
        )
        payload["value"] = est.mean
        payload["estimate"] = _estimate_payload(est)
    else:
        raise ConfigError(f"unknown fredholm route {route!r}")
    _json_dump(payload, _require(config, "output.path", str))
    return EXIT_OK


# --------------------------------------------------------------------------
# oconnell
# --------------------------------------------------------------------------


def cmd_oconnell(config: dict) -> int:
    params = oc.LiftParams.from_dict(_require(config, "params", dict))
    seed, n_paths, workers = _mc_params(config)
    route = config.get("route", "cpr")
    if route == "cpr":
        est = oc.oconnell_theta_cpr(params, n_paths, seed, workers=workers)
    elif route == "dmr":
        est = oc.oconnell_theta_dmr(params, n_paths, seed, workers=workers)
    elif route == "reference":
        est = oc.reciprocal_reference(
            params.nu_hat,
            params.t,
            params.h,
            n_paths,
            seed,
            dt=_number(config.get("dt", 5e-4), "dt"),
        )
    else:
        raise ConfigError(f"unknown oconnell route {route!r}")
    payload = {"schema": SCHEMA, "config": config, "estimate": _estimate_payload(est)}
    _json_dump(payload, _require(config, "output.path", str))
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def cmd_verify(suite: str, output: str | None) -> int:
    checks = verify_mod.run_suite(suite)
    report = {"schema": SCHEMA, "suite": suite, "checks": checks}
    text = json.dumps(report, indent=2, sort_keys=True)
    if output:
        with _open_output(output) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if any(c["status"] != "pass" for c in checks):
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# --------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="detmart",
        description="Determinantal-martingale toolkit: kernels, Monte Carlo "
        "representations, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("kernel", "simulate", "estimate", "fredholm", "oconnell"):
        p = sub.add_parser(name, help=f"run the {name} command from a JSON config")
        p.add_argument("config", help="path to a detmart/1 JSON configuration")
        p.add_argument("--seed", type=int, help="override mc.seed")
        p.add_argument("--n-paths", dest="n_paths", type=int, help="override mc.n_paths")
        p.add_argument("--workers", type=int, help="override mc.workers")
        p.add_argument("--output", help="override output.path")
    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("suite", help=f"one of {sorted(verify_mod.SUITES)}")
    v.add_argument("--output", help="write the JSON report to a file")
    return parser


_COMMANDS = {
    "kernel": cmd_kernel,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "fredholm": cmd_fredholm,
    "oconnell": cmd_oconnell,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.output)
        config = _apply_overrides(_load_config(args.config), args)
        return _COMMANDS[args.command](config)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DetmartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
