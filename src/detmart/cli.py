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
from .processes import ProcessKind

SCHEMA = "detmart/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class ConfigError(DomainError):
    pass


# paths per formatted write of the simulate CSV: 512 writes slower, 2048
# only a few percent faster for more text in memory at once
_CSV_CHUNK = 1024


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


def _pairs(values, field: str) -> list:
    if not isinstance(values, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in values
    ):
        raise ConfigError(f"config field '{field}' must be a list of pairs")
    return values


# --------------------------------------------------------------------------
# schema nodes: each reader takes the whole config and the node's dotted path
# --------------------------------------------------------------------------


def _process(config: dict, field: str) -> ProcessKind:
    kind = _require(config, f"{field}.kind")
    if kind in ("BM", "RW"):
        return ProcessKind(kind)
    if kind in ("BESQ", "BES"):
        return ProcessKind(kind, _number(_require(config, f"{field}.nu"), f"{field}.nu"))
    raise ConfigError(f"config field '{field}.kind' must be BM, BESQ, BES or RW")


def _xi(config: dict, field: str) -> cfg.PointConfiguration:
    at = f"{field}.atoms"
    atoms = _pairs(_require(config, at), at)
    return cfg.PointConfiguration(
        tuple((_number(loc, at), _number(m, at, positive_int=True)) for loc, m in atoms)
    )


def _spec(config: dict, field: str) -> fred.TestFunctionSpec:
    times = _numbers(_require(config, f"{field}.times"), f"{field}.times")
    at = f"{field}.chi"
    chis = []
    for item in _require(config, at, list):
        if not isinstance(item, dict) or ("sites" in item) == ("support" in item):
            raise ConfigError(f"each entry of config field '{at}' needs exactly one "
                              "of 'sites' or 'support'")
        if "sites" in item:
            sites = _pairs(item["sites"], f"{at}.sites")
            sites = tuple(_numbers(p, f"{at}.sites") for p in sites)
            try:
                chis.append(fred.SiteChi(sites))
            except DomainError as exc:
                raise ConfigError(f"config field '{at}[].sites': {exc}") from exc
            continue
        if item.get("kind", "indicator") != "indicator":
            raise ConfigError(f"config field '{at}.kind' must be 'indicator'")
        support = _numbers(item["support"], f"{at}.support")
        if len(support) != 2:
            raise ConfigError(f"config field '{at}.support' must be a pair")
        scale = _number(item.get("scale"), f"{at}.scale")
        chis.append(fred.ContinuousChi.indicator(*support, scale))
    return fred.TestFunctionSpec(tuple(times), tuple(chis))


def _params(config: dict, field: str) -> oc.LiftParams:
    nu_hat = _numbers(_require(config, f"{field}.nu_hat"), f"{field}.nu_hat")
    a, t, h = (_number(_require(config, f"{field}.{k}"), f"{field}.{k}") for k in "ath")
    return oc.LiftParams(a=a, nu_hat=cfg.PointConfiguration.from_points(nu_hat), t=t, h=h)


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
    if isinstance(seed, bool):
        raise ConfigError("config field 'mc.seed' has the wrong type")
    n_paths = _number(_require(config, "mc.n_paths"), "mc.n_paths", positive_int=True)
    workers = config.get("mc", {}).get("workers", os.cpu_count() or 1)
    return seed, n_paths, _number(workers, "mc.workers", positive_int=True)


def _dt(config: dict, default: float) -> float:
    """The positive ``dt`` of every simulate and oconnell route; none steps by it."""
    dt = _number(config.get("dt", default), "dt")
    if dt <= 0:
        raise ConfigError("config field 'dt' must be a positive number")
    return dt


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


# --------------------------------------------------------------------------
# CSV text
# --------------------------------------------------------------------------
#
# Every CSV float is printed as '%.17g' prints it, in numpy.  For zeros and
# 1e-4 <= |x| < 1e17, '%.17g' is positional: the 17 significant digits
# D = round(|x| * 10**(16 - k)), 10**16 <= D < 10**17, have k + 1 digits
# before the point, and trailing zeros and a bare point are cut.  D is exact:
# hi + lo = |x| * 10**(16 - k) exactly (Dekker's two-product, Numer. Math. 18
# (1971)), 10**(16 - k) is an exact double, and hi is an even integer, so
# hi + rint(lo) rounds half to even as CPython does.  A log10 guess of k is
# corrected where D leaves [10**16, 10**17).  Every other value (NaN, the
# infinities, 0 < |x| < 1e-4 with the subnormals, |x| >= 1e17) goes through
# '%.17g' one at a time.
#
# The text is built in three little-endian 64-bit words.  A zero digit is
# inserted after the k + 1 integer digits (after the last digit if k < 0),
# the 18 digits are looked up 2 and 4 at a time, the inserted digit becomes
# the point, the words are cut after the last digit kept and shifted past the
# sign and the "0.000" prefix of k < 0, and the end byte follows.  The
# tables below are indexed by k + 4 where they depend on k.

_KS = np.arange(-4, 17)
_POW10 = np.array([float(10**e) for e in range(20, -1, -1)])  # 10**(16 - k), exact


def _veltkamp(a):
    """a = hi + lo in halves of at most 26 bits, whose products are exact."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)
# the inserted digit: D + 9 * (D // s) * s puts a 0 after D // s
_SPLIT = np.where(_KS < 0, 1, 10 ** np.clip(16 - _KS, 0, 16))
_POINT_AT = np.where(_KS < 0, 17, _KS + 1)
# just below 1e17: the largest |x| printed positionally
_TOP = np.nextafter(1e17, 0)


def _digit_tables(width: int, offsets):
    """For each width-digit group: its ASCII digits as a little-endian word,
    and, per offset, offset + the place of its last nonzero digit (0 if none)."""
    groups = np.arange(10**width)
    digits = groups[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10
    chars = np.zeros((groups.size, 8), np.uint8)
    chars[:, :width] = digits + ord("0")
    last = width - np.argmax(digits[:, ::-1] != 0, axis=1)
    return chars.view("<u8").ravel().astype(np.uint64), [
        np.where(groups > 0, offset + last, 0).astype(np.int8) for offset in offsets
    ]


def _byte_tables(byte: int, at):
    """Row w, column i: word w of a text that is 0 but ``byte`` at byte at[i]."""
    shift = 8 * np.asarray(at) - 64 * np.arange(3)[:, None]
    inside = (shift >= 0) & (shift < 64)
    return (np.uint64(byte) << (shift * inside).astype(np.uint64)) * inside


# the 18 digits: two, then four groups of four
_CHARS2, (_LAST2,) = _digit_tables(2, [0])
_CHARS4, _LAST4 = _digit_tables(4, [2, 6, 10, 14])
_POINT = _byte_tables(ord("0") ^ ord("."), _POINT_AT)
_ONE = _byte_tables(1, np.arange(25))
# per word, the bytes below n
_MASK = [np.array([(1 << min(max(8 * n - 64 * w, 0), 64)) - 1 for n in range(25)], np.uint64)
         for w in range(3)]
# by 21 * sign + k + 4: the sign and, for k < 0, the "0." and zeros
_PREFIX = [sign + (b"0." + b"0" * (-k - 1) if k < 0 else b"") for sign in (b"", b"-") for k in _KS]
_PREFIX_WORD = np.array([int.from_bytes(p, "little") for p in _PREFIX], np.uint64)
_PREFIX_BITS = np.array([8 * len(p) for p in _PREFIX], np.uint64)
_PREFIX_LEN = np.array([len(p) for p in _PREFIX])


def _digits17(a, kk):
    """round(a * 10**(16 - k)) as int64, exactly, with kk = k + 4."""
    hi = a * _POW10[kk]
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = _POW10_HI[kk], _POW10_LO[kk]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _format_floats(values, end: bytes) -> np.ndarray:
    """'%.17g' % v + end for every v of values, as a bytes array."""
    x = np.asarray(values, dtype=float)
    shape, x = x.shape, x.ravel()
    ax = np.abs(x)
    a = np.minimum(np.fmax(ax, 1e-4), _TOP)  # NaN too lands in the range
    exact = a == ax
    kk = np.floor(np.log10(a)).astype(np.intp) + 4
    np.clip(kk, 0, 20, out=kk)
    d = _digits17(a, kk)
    redo = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if redo.size:
        kk[redo] += np.where(d[redo] < 10**16, -1, 1)
        d[redo] = _digits17(a[redo], kk[redo])
    # zeros print as 0 with k = 0; so do, until the end, the other values
    d *= exact
    kk[~exact] = 4
    split = _SPLIT[kk]
    d += 9 * (d // split) * split
    head = d // 10**8
    tail = d - head * 10**8
    q0 = head // 10**8
    q12 = head - q0 * 10**8
    q1 = q12 // 10**4
    q2 = q12 - q1 * 10**4
    q3 = tail // 10**4
    q4 = tail - q3 * 10**4
    # digits kept: the integer part and the fraction to its last nonzero digit
    keep = np.maximum(kk - 3, _LAST2[q0])
    for last, q in zip(_LAST4, (q1, q2, q3, q4)):
        np.maximum(keep, last[q], out=keep)
    c2, c4 = _CHARS4[q2], _CHARS4[q4]
    body = (
        _CHARS2[q0] | (_CHARS4[q1] << np.uint64(16)) | (c2 << np.uint64(48)),
        (c2 >> np.uint64(16)) | (_CHARS4[q3] << np.uint64(16)) | (c4 << np.uint64(48)),
        c4 >> np.uint64(16),
    )
    key = 21 * np.signbit(x) + kk
    bits = _PREFIX_BITS[key]
    back = np.uint64(56) - bits  # the carry shift, 64 - bits, in two steps under 64
    stop = _PREFIX_LEN[key] + keep
    carry = _PREFIX_WORD[key]
    ends = _ONE * np.uint64(ord(end))
    # a fourth word: '%.17g' of a tiny negative value and the end take 25 bytes
    words = np.zeros((x.size, 4), "<u8")
    for w in range(3):
        word = (body[w] ^ _POINT[w][kk]) & _MASK[w][keep]
        words[:, w] = (word << bits) | carry | ends[w][stop]
        carry = (word >> back) >> np.uint64(8)
    rare = np.flatnonzero(~exact & (ax != 0))
    extra = [b"%.17g" % v + end for v in x[rare].tolist()]
    width = max([int(stop.max(initial=0)) + 1] + [len(t) for t in extra])
    text = words.view(np.uint8)[:, :width].copy().view(f"S{width}").ravel()
    text[rare] = extra
    return text.reshape(shape)


def _csv_lines(fields) -> str:
    """One line per element of the broadcast shape of ``fields``: the bytes
    arrays of its fields side by side, NUL padding dropped.  Each field
    carries its own separator."""
    shape = np.broadcast_shapes(*(f.shape for f in fields))
    text = np.empty(shape + (sum(f.itemsize for f in fields),), np.uint8)
    at = 0
    for f in fields:
        text[..., at : at + f.itemsize] = f[..., None].view(np.uint8)
        at += f.itemsize
    return text[text != 0].tobytes().decode("ascii")


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


def _build_kernel(config: dict) -> ker.CorrelationKernel:
    variant = _require(config, "kernel", dict).get("variant")
    if variant not in ker.VARIANTS:
        raise ConfigError(f"unknown kernel variant {variant!r}")
    if variant in ("general", "rw", "multipoint"):
        xi = _xi(config, "kernel.xi")
        if variant == "rw":
            return ker.rw_kernel(xi)
        proc = _process(config, "kernel.process")
        if variant == "general":
            return ker.general_kernel(proc, xi)
        return ker.multipoint_kernel(proc, xi)
    if variant in ("extended_hermite", "extended_laguerre"):
        size = _number(_require(config, "kernel.size"), "kernel.size", positive_int=True)
        if variant == "extended_hermite":
            return ker.extended_hermite_kernel(size)
        return ker.extended_laguerre_kernel(
            size, _number(_require(config, "kernel.nu"), "kernel.nu")
        )
    if variant == "sine":
        return ker.sine_kernel()
    return ker.bessel_kernel(_number(_require(config, "kernel.nu"), "kernel.nu"))


def cmd_kernel(config: dict) -> int:
    kernel = _build_kernel(config)
    grid = _require(config, "grid", dict)
    svals, xvals, tvals, yvals = (
        _numbers(grid.get(axis, []), f"grid.{axis}") for axis in "sxty"
    )
    path = _require(config, "output.path", str)
    values = np.zeros((len(svals), len(xvals), len(tvals), len(yvals)))
    for i, s in enumerate(svals):
        for j, t in enumerate(tvals):
            values[i, :, j] = ker.kernel_eval_grid(kernel, s, xvals, t, yvals)
    axes = np.ix_(*(_format_floats(v, b",") for v in (svals, xvals, tvals, yvals)))
    with _open_output(path) as fh:
        fh.write("s,x,t,y,value\n")
        fh.write(_csv_lines([*axes, _format_floats(values, b"\n")]))
    sidecar = {
        "schema": SCHEMA,
        "config": config,
        "variant": kernel.variant,
        "xi": None if kernel.xi is None else {"atoms": [list(a) for a in kernel.xi.atoms]},
        "truncation": {"query_points": values.size},
        "tolerances": {"closed_form_quadrature": ker.QUADRATURE_TOL},
    }
    _json_dump(sidecar, path + ".json")
    return EXIT_OK


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def _write_paths(fh, ens: sim.PathEnsemble) -> None:
    """The ensemble CSV: a row (path, time, component, value[, companion])
    per sample, _CSV_CHUNK paths a write."""
    columns = [ens.paths] if ens.companions is None else [ens.paths, ens.companions]
    fh.write("path,time,component,value" + ",companion" * (len(columns) - 1) + "\n")
    ends = [b","] * (len(columns) - 1) + [b"\n"]
    index = _format_floats(np.arange(ens.n_paths), b",")[:, None, None]
    times = _format_floats(ens.times, b",")[:, None]
    components = _format_floats(np.arange(ens.paths.shape[2]), b",")
    for lo in range(0, ens.n_paths, _CSV_CHUNK):
        hi = min(lo + _CSV_CHUNK, ens.n_paths)
        fields = [index[lo:hi], times, components]
        fields += [_format_floats(col[lo:hi], end) for col, end in zip(columns, ends)]
        fh.write(_csv_lines(fields))


def cmd_simulate(config: dict) -> int:
    proc = _process(config, "process")
    xi = _xi(config, "xi")
    times = _numbers(_require(config, "times"), "times")
    seed, n_paths, _ = _mc_params(config)
    companions = config.get("companions", False)
    if not isinstance(companions, bool):
        raise ConfigError("config field 'companions' must be true or false")
    dt = _dt(config, 1e-3)
    sampler = config.get("sampler", "free")
    if sampler == "free":
        ens = sim.sample_free(proc, xi.points(), times, n_paths, seed)
    elif sampler == "noncolliding":
        ens = sim.sample_noncolliding(proc, xi, times, dt, n_paths, seed)
    elif sampler == "noncolliding_rw":
        if proc.tag != "RW":
            raise ConfigError("the noncolliding_rw sampler needs process kind RW")
        ens = sim.sample_noncolliding_rw(xi, times, n_paths, seed)
    else:
        raise ConfigError(f"unknown sampler {sampler!r}")
    if companions:
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
    proc = _process(config, "process")
    xi = _xi(config, "xi")
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
    proc = _process(config, "process")
    xi = _xi(config, "xi")
    spec = _spec(config, "spec")
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
    params = _params(config, "params")
    seed, n_paths, workers = _mc_params(config)
    dt = _dt(config, 5e-4)
    route = config.get("route", "cpr")
    if route == "cpr":
        est = oc.oconnell_theta_cpr(params, n_paths, seed, workers=workers)
    elif route == "dmr":
        est = oc.oconnell_theta_dmr(params, n_paths, seed, workers=workers)
    elif route == "reference":
        est = oc.reciprocal_reference(
            params.nu_hat, params.t, params.h, n_paths, seed, dt=dt
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
