"""Tests of the benchmark itself: span arithmetic, tiny workloads, metric names.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layertrace  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _span(id_, parent, start, end, layer="simulate", name=None):
    s = layertrace.Span(id_, name or f"{layer}.f{id_}", layer, parent, "job")
    s.start, s.end = start, end
    return s


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# self-time arithmetic
# --------------------------------------------------------------------------


class TestSelfTime:
    def test_nested(self):
        spans = [
            _span(1, None, 0.0, 10.0, "cli"),
            _span(2, 1, 1.0, 3.0, "kernels"),
            _span(3, 2, 1.5, 2.0, "specfun"),
            _span(4, 1, 6.0, 7.0, "kernels"),
        ]
        own = layertrace.self_times(spans)
        assert own == {1: pytest.approx(7.0), 2: pytest.approx(1.5), 3: pytest.approx(0.5), 4: pytest.approx(1.0)}
        m = layertrace.layer_metrics(spans, 0)
        assert m["cli.self_s"] == pytest.approx(7.0)
        assert m["kernels.self_s"] == pytest.approx(2.5)
        assert m["specfun.self_s"] == pytest.approx(0.5)
        assert sum(m[f"{layer}.self_s"] for layer in layertrace.LAYERS) == pytest.approx(10.0)

    def test_threaded_children_subtract_their_union(self):
        # two pool blocks overlap in time; the parent waits on both
        spans = [
            _span(1, None, 0.0, 10.0, name="simulate._run_blocks"),
            _span(2, 1, 1.0, 6.0, name="simulate.block"),
            _span(3, 1, 2.0, 8.0, name="simulate.block"),
            _span(4, 3, 2.0, 3.0, "martingales"),
        ]
        own = layertrace.self_times(spans)
        assert own[1] == pytest.approx(3.0)  # 10 - |[1, 8]|
        assert own[2] == pytest.approx(5.0)
        assert own[3] == pytest.approx(5.0)
        m = layertrace.layer_metrics(spans, 0)
        # busy time over both threads exceeds the parent's wall time
        assert m["simulate.self_s"] == pytest.approx(13.0)
        assert m["martingales.self_s"] == pytest.approx(1.0)

    def test_children_clipped_to_parent(self):
        assert layertrace.covered(0.0, 1.0, [(-1.0, 0.5), (0.25, 2.0)]) == pytest.approx(1.0)
        assert layertrace.covered(0.0, 1.0, [(2.0, 3.0)]) == 0.0

    def test_pool_blocks_nest_under_run_blocks(self):
        import numpy as np

        from detmart import configurations as cfg
        from detmart import simulate as sim
        from detmart.processes import bm

        tracer = layertrace.Tracer()
        original = sim._run_blocks
        tracer.install()
        try:
            est = sim.dmr_expectation(bm(), cfg.PointConfiguration.from_points([0.0, 1.5]),
                                      lambda p: np.ones(p.shape[0]), [1.0], 4 * sim.BLOCK, 7, workers=2)
        finally:
            tracer.uninstall()
        assert sim._run_blocks is original
        by_id = {s.id: s for s in tracer.spans}
        (pool,) = [s for s in tracer.spans if s.name == "simulate._run_blocks"]
        blocks = [s for s in tracer.spans if s.name == "simulate.block"]
        assert len(blocks) == 4 and all(b.parent == pool.id for b in blocks)
        weights = [s for s in tracer.spans if s.name == "simulate.det_weight"]
        assert len(weights) == 4 and all(by_id[w.parent].name == "simulate.block" for w in weights)
        m = layertrace.layer_metrics(tracer.spans, 0)
        assert m["simulate.paths"] == 4 * sim.BLOCK
        assert m["simulate.weight_rows"] == 4 * sim.BLOCK
        assert 0.0 < m["simulate.parallel_frac"] <= 2.5
        assert all(v >= 0.0 for k, v in m.items() if k.endswith("self_s"))
        assert est.n == 4 * sim.BLOCK

    def test_spans_from_several_threads_keep_their_own_stacks(self):
        tracer = layertrace.Tracer()
        inner = tracer.wrap("specfun", "specfun.inner", lambda: time.sleep(0.01))
        outer = tracer.wrap("kernels", "kernels.outer", lambda: inner())
        threads = [threading.Thread(target=outer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        by_id = {s.id: s for s in tracer.spans}
        inners = [s for s in tracer.spans if s.name == "specfun.inner"]
        assert len(inners) == 4
        assert all(by_id[s.parent].name == "kernels.outer" for s in inners)
        assert len({s.parent for s in inners}) == 4


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 5)
        b = workloads.build(name, 5)
        c = workloads.build(name, 6)
        assert [j.config for j in a.jobs] == [j.config for j in b.jobs]
        assert [j.config for j in a.jobs] != [j.config for j in c.jobs]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_its_oracles(name, tmp_path, monkeypatch):
    import detmart.cli as cli

    monkeypatch.setattr(run, "OUT", str(tmp_path))
    workload = workloads.build(name, 3, scale=0.02)
    rounds = [run.run_round(cli, workload, str(tmp_path / f"r{i}")) for i in range(2)]
    attempted, failed, wrong, problems = run.check_outputs(workload, rounds)
    assert attempted == 2 * len(workload.jobs)
    assert failed == wrong == 0, problems


def test_oracle_catches_a_wrong_output(tmp_path, monkeypatch):
    import detmart.cli as cli

    monkeypatch.setattr(run, "OUT", str(tmp_path))
    workload = workloads.build("kernel_fredholm", 3, scale=0.02)
    workload.jobs = [j for j in workload.jobs if j.name == "kernel.sine"]
    rounds = [run.run_round(cli, workload, str(tmp_path / "r0"))]
    path = rounds[0][0]["path"]
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-3)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    _, failed, wrong, _ = run.check_outputs(workload, rounds)
    assert failed == wrong == 1


def test_a_job_that_exits_nonzero_fails_but_is_not_wrong(tmp_path, monkeypatch):
    import detmart.cli as cli

    monkeypatch.setattr(run, "OUT", str(tmp_path))
    workload = workloads.build("kernel_fredholm", 3, scale=0.02)
    workload.jobs = [j for j in workload.jobs if j.name == "kernel.sine"]
    workload.jobs[0].config["kernel"]["variant"] = "no_such_variant"  # refused by the CLI
    rounds = [run.run_round(cli, workload, str(tmp_path / "r0"))]
    assert rounds[0][0]["rc"] != 0
    attempted, failed, wrong, problems = run.check_outputs(workload, rounds)
    assert (attempted, failed, wrong) == (1, 1, 0), problems


def test_estimate_oracle_rejects_a_noisier_estimator():
    est = {"mean": 1.0, "std_error": 0.02}
    assert oracles.estimate_near("x", est, 1.0, se_max=0.03) == []
    assert oracles.estimate_near("x", dict(est, std_error=0.04), 1.0, se_max=0.03)


# --------------------------------------------------------------------------
# metric names
# --------------------------------------------------------------------------


def test_spec_metrics_are_computed_with_their_units():
    spec = _spec()
    for m in spec["end_to_end"]:
        assert run.END_TO_END[m["name"]] == m["unit"]
    layer_names = set(layertrace.layer_metrics([], 0)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_the_spec(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "kernel_fredholm",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel_fredholm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
