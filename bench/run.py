#!/usr/bin/env python3
"""The detmart benchmark: seeded batch workloads driven through the CLI.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: the workload's job list (see
``workloads.py``) is generated from the seed and run back to back through
``detmart.cli.main``, in rounds, until the next round would overrun
``--seconds``; the first ``MIN_ROUNDS`` untraced rounds run as long as they
fit in twice ``--seconds``.  Each job's wall and CPU time is its median over
rounds, and the end-to-end times are built from these medians.
Set-up (import of ``detmart.cli`` plus one tiny job per command kind) is
timed in ``SETUP_SAMPLES`` fresh interpreters, a few before each round.  After the rounds, every
job's first output is checked against its oracle.

A job that raises or exits nonzero counts in ``failed``.  An output that
misses its oracle, or changes between rounds, between the two worker counts
of the paired DMR job, or from an earlier run of the same source and inputs
counts in ``failed`` too and makes ``correct`` false.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced rounds alternate and
it carries the per-layer metrics.  The lines before it list every metric
the benchmark computes, per job results and the machine.  A full report
(and, when traced, the spans) goes to ``.bench_out/``.
"""

import os

# BLAS threads are pinned before numpy loads so that threads <= cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 12
SETUP_PER_ROUND = 3
MIN_ROUNDS = 3
SE_TARGET = 0.01  # accuracy that time_to_se_s projects to

# every metric the benchmark computes: name -> unit.  BENCHMARK.json lists
# the ones that exist, and are nonzero, on every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "1",
    "mc_paths_per_s": "1/s",
    "time_to_se_s": "s",
    **{f"{g}_s": "s" for g in ("dmr", "cpr", "oconnell", "kernel", "fredholm", "simulate", "verify")},
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _median(values):
    return statistics.median(values) if values else None


# --------------------------------------------------------------------------
# jobs
# --------------------------------------------------------------------------


def _primary_digest(job, path: str) -> str:
    """sha256 of the primary output; JSON outputs drop the embedded config,
    which carries the output path and the worker count."""
    with open(path, "rb") as fh:
        data = fh.read()
    if job.command not in ("kernel", "simulate"):
        payload = json.loads(data)
        payload.pop("config", None)
        data = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _prepare(job, rdir: str):
    """Write the job's config into ``rdir``; returns (argv, output path)."""
    config_path = os.path.join(rdir, job.name + ".json")
    out_path = os.path.join(rdir, job.name + ".out")
    if job.config is not None:
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(dict(job.config, output={"path": out_path}), fh)
    return job.argv(config_path, out_path), out_path


def run_job(cli, job, rdir: str) -> dict:
    """Run one job through ``cli.main``; only the call itself is timed."""
    argv, out_path = _prepare(job, rdir)
    error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv)
    except Exception:  # a job that raises is a failure, not the end of the run
        rc, error = None, traceback.format_exc()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    res = {"name": job.name, "group": job.group, "rc": rc, "error": error, "wall": wall,
           "cpu": cpu, "digest": None, "std_error": None, "path": out_path, "bytes_out": 0}
    if rc == 0 and os.path.isfile(out_path):
        res["digest"] = _primary_digest(job, out_path)
        if job.mc_paths and job.command != "simulate":
            with open(out_path, "r", encoding="utf-8") as fh:
                res["std_error"] = json.load(fh)["estimate"]["std_error"]
    elif error is None:
        res["error"] = f"exit code {rc}" if rc else "no output file"
    res["bytes_out"] = sum(
        os.path.getsize(os.path.join(rdir, f)) for f in os.listdir(rdir) if f.startswith(job.name + ".out")
    )
    return res


def run_round(cli, workload, rdir: str, tracer=None) -> list:
    os.makedirs(rdir, exist_ok=True)
    results = []
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = job.name
        results.append(run_job(cli, job, rdir))
    return results


def median_job_results(rounds) -> list:
    """The results of the first round with each job's wall and CPU time
    replaced by its median over ``rounds``, so that a slow spell in one
    round moves no metric."""
    return [dict(rs[0], wall=_median([r["wall"] for r in rs]), cpu=_median([r["cpu"] for r in rs]))
            for rs in zip(*rounds)]


def round_metrics(workload, results) -> dict:
    """End-to-end metrics of a round of job results; metrics of job kinds
    the workload lacks are left out."""
    by_name = {j.name: j for j in workload.jobs}
    out = {"wall_s": sum(r["wall"] for r in results), "cpu_s": sum(r["cpu"] for r in results)}
    for r in results:
        key = f"{r['group']}_s"
        out[key] = out.get(key, 0.0) + r["wall"]
    mc = [r for r in results if by_name[r["name"]].mc_paths]
    if mc:
        mc_wall = sum(r["wall"] for r in mc)
        out["mc_paths_per_s"] = sum(by_name[r["name"]].mc_paths for r in mc) / mc_wall
    with_se = [r for r in mc if r["std_error"] is not None]
    if with_se:
        out["time_to_se_s"] = sum(r["wall"] * (r["std_error"] / SE_TARGET) ** 2 for r in with_se)
    return out


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def setup_prober(workload, work: str):
    """A function that times one set-up of ``workload`` in a fresh
    interpreter and returns the seconds."""
    import workloads

    wdir = os.path.join(work, "setup")
    os.makedirs(wdir, exist_ok=True)
    argvs = [_prepare(job, wdir)[0] for job in workloads.warmups(workload)]
    argv_path = os.path.join(wdir, "warmups.json")
    with open(argv_path, "w", encoding="utf-8") as fh:
        json.dump(argvs, fh)

    def probe() -> float:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, argv_path],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        return float(proc.stdout.strip().splitlines()[-1])

    return probe


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def _code_hash() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "detmart")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_outputs(workload, rounds) -> tuple:
    """(attempted, failed, wrong, problems) over every job execution.

    An execution fails if it raised or exited nonzero.  It is wrong, and
    fails, if its output differs from the job's first output, or if the
    first output misses the oracle, differs from its ``same_output`` partner
    or from the digest an earlier run of the same source and inputs
    recorded.
    """
    first = {r["name"]: r for r in rounds[0]}
    registry_path = os.path.join(OUT, "digests.json")
    registry = {}
    if os.path.isfile(registry_path):
        with open(registry_path, "r", encoding="utf-8") as fh:
            registry = json.load(fh)
    known = registry.setdefault(_code_hash(), {})
    bad = {}  # job name -> problems that apply to every execution
    for job in workload.jobs:
        r = first[job.name]
        if r["digest"] is None:
            continue
        try:
            problems = job.oracle(r["path"])
        except Exception:
            problems = ["oracle raised:\n" + traceback.format_exc()]
        key = hashlib.sha256(json.dumps([job.command, job.suite, job.config], sort_keys=True).encode()).hexdigest()
        if known.setdefault(key, r["digest"]) != r["digest"]:
            problems.append("output differs from an earlier run of the same source and inputs")
        if problems:
            bad[job.name] = problems
    with open(registry_path, "w", encoding="utf-8") as fh:
        json.dump(registry, fh)
    for a, b in workload.same_output:
        if first[a]["digest"] != first[b]["digest"]:
            bad.setdefault(b, []).append(f"output differs from {a} (worker count changed the result)")

    attempted = failed = wrong = 0
    problems = []
    for i, results in enumerate(rounds):
        for r in results:
            attempted += 1
            why = []
            if r["digest"] is not None and r["digest"] != first[r["name"]]["digest"]:
                why.append(f"output of round {i} differs from round 0")
            why += bad.get(r["name"], [])
            wrong += bool(why)
            if r["error"]:
                why.insert(0, r["error"].strip().splitlines()[-1])
            if why:
                failed += 1
                problems.append((i, r["name"], why))
    return attempted, failed, wrong, problems


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):  # show_config differs across numpy versions
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(),
        "source_sha256": _code_hash(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def emit(spec_metrics, computed: dict) -> dict:
    """The metrics BENCHMARK.json lists, with their units."""
    out = {}
    for m in spec_metrics:
        value = computed.get(m["name"])
        if value is None:
            raise RuntimeError(f"metric {m['name']!r} was not measured")
        out[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "detmart", "cli.py")):
        return _fail(f"no detmart source under {SRC}; run from a repository checkout")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        return _fail("BENCHMARK.json is missing")
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    spec = load_spec()
    workload = workloads.build(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        probe = setup_prober(workload, work)
        setup_samples = []

        def sample_setup(upto):
            while len(setup_samples) < min(SETUP_SAMPLES, upto):
                setup_samples.append(probe())

        import detmart.cli as cli

        warm = os.path.join(work, "warm")
        for r in run_round(cli, workloads.Workload("warmup", workloads.warmups(workload)), warm):
            if r["rc"] != 0:
                raise RuntimeError(f"warm-up job {r['name']} failed: {r['error']}")

        tracer = None
        if args.trace:
            import layertrace

            tracer = layertrace.Tracer()
        plain, traced, layer_rounds, last = [], [], [], {}

        def next_kind():
            return "traced" if tracer is not None and len(traced) < len(plain) else "plain"

        start = time.perf_counter()
        while True:
            # set-up samples are spread over the run, a few before each round
            sample_setup(SETUP_PER_ROUND * (len(plain) + len(traced) + 1))
            kind = next_kind()
            rdir = os.path.join(work, f"r{len(plain) + len(traced)}")
            t0 = time.perf_counter()
            if kind == "traced":
                first_span = len(tracer.spans)
                tracer.install()
                try:
                    results = run_round(cli, workload, rdir, tracer)
                finally:
                    tracer.uninstall()
                traced.append(results)
                layer_rounds.append(layertrace.layer_metrics(
                    tracer.spans[first_span:], sum(r["bytes_out"] for r in results)))
            else:
                results = run_round(cli, workload, rdir)
                plain.append(results)
            last[kind] = time.perf_counter() - t0
            if rdir != os.path.join(work, "r0"):
                shutil.rmtree(rdir, ignore_errors=True)
            # every kind runs once; then a round starts only if it fits in
            # --seconds, or in twice that while the kind has few rounds
            nxt = next_kind()
            done = len(traced) if nxt == "traced" else len(plain)
            limit = args.seconds * (2 if done < MIN_ROUNDS else 1)
            if nxt in last and time.perf_counter() - start + last[nxt] > limit:
                break
        sample_setup(SETUP_SAMPLES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        rounds = plain + traced
        # round 0 is plain and kept on disk; the oracles read it
        attempted, failed, wrong, problems = check_outputs(workload, rounds)

        computed = round_metrics(workload, median_job_results(plain))
        computed.update({"setup_s": _median(setup_samples), "peak_rss_mb": peak_rss_mb,
                         "fail_frac": failed / attempted})
        layers = {}
        if tracer is not None:
            layers = {k: _median([m[k] for m in layer_rounds]) for k in layer_rounds[0]}
            layers["trace.overhead_frac"] = (
                _median([sum(r["wall"] for r in t) for t in traced])
                / _median([sum(r["wall"] for r in p) for p in plain]) - 1.0)
            tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))

        info = machine()
        print(f"# detmart benchmark: workload {args.workload}, seed {args.seed}, "
              f"{len(plain)} untraced and {len(traced)} traced rounds of {len(workload.jobs)} jobs")
        print("# machine: " + json.dumps(info, sort_keys=True))
        print(f"# set-up samples (s): {[round(s, 4) for s in setup_samples]}")
        for r in plain[0]:
            status = "ok" if not any(p[1] == r["name"] for p in problems) else "FAILED"
            print(f"#   job {r['name']:<28} {r['wall']:9.4f} s  {status}")
        for i, name, why in problems[:20]:
            print(f"# failure: round {i} job {name}: {'; '.join(why)}")
        for name, unit in END_TO_END.items():
            value = computed.get(name)
            print(f"# {name:<24} {'n/a (no such jobs)' if value is None else repr(value)} {unit}")
        for name, value in layers.items():
            print(f"# {name:<32} {value!r}")

        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "machine": info, "setup_samples": setup_samples,
                  "rounds": {"plain": len(plain), "traced": len(traced)},
                  "end_to_end": computed, "per_layer": layers,
                  "jobs": [{k: v for k, v in r.items() if k != "path"} for r in plain[0]],
                  "failures": problems}
        with open(os.path.join(OUT, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)

        if args.trace:
            metrics = emit(spec["per_layer"], layers)
        else:
            metrics = emit(spec["end_to_end"], computed)
        print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
