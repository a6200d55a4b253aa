import json
import math

import numpy as np
import pytest

from detmart import cli


def run(args):
    return cli.main(args)


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_json(path):
    return json.loads(read_text(path))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def old_paths_csv(ens):
    """The per-row f-strings the simulate writer used before its per-path
    %-templates: the oracle the CLI bytes must equal."""
    header = "path,time,component,value"
    if ens.companions is not None:
        header += ",companion"
    ts = [f"{float(t):.17g}" for t in ens.times]
    paths = ens.paths.tolist()
    if ens.companions is None:
        rows = (
            f"{p},{ts[m]},{j},{v:.17g}\n"
            for p, trajectory in enumerate(paths)
            for m, vals in enumerate(trajectory)
            for j, v in enumerate(vals)
        )
    else:
        rows = (
            f"{p},{ts[m]},{j},{v:.17g},{c:.17g}\n"
            for p, (trajectory, comp) in enumerate(zip(paths, ens.companions.tolist()))
            for m, (vals, cvals) in enumerate(zip(trajectory, comp))
            for j, (v, c) in enumerate(zip(vals, cvals))
        )
    return header + "\n" + "".join(rows)


class TestKernelCommand:
    def config(self, tmp_path, out, variant="sine", **extra):
        kernel = {"variant": variant}
        kernel.update(extra)
        return write_config(
            tmp_path,
            {
                "schema": "detmart/1",
                "command": "kernel",
                "kernel": kernel,
                "grid": {"s": [1.0], "x": [0.0], "t": [1.0], "y": [0.25, 0.5, 1.0]},
                "output": {"path": out},
            },
        )

    def test_sine_grid_reproduces_sinc(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        assert run(["kernel", self.config(tmp_path, out)]) == 0
        rows = [
            line.split(",") for line in read_text(out).strip().splitlines()[1:]
        ]
        for row in rows:
            y = float(row[3])
            want = math.sin(math.pi * y) / (math.pi * y)
            assert float(row[4]) == pytest.approx(want, abs=1e-10)

    def test_sidecar_round_trip(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        config_path = self.config(tmp_path, out)
        assert run(["kernel", config_path]) == 0
        sidecar = read_json(out + ".json")
        assert sidecar["config"] == read_json(config_path)

    def test_empty_grid_header_only(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        path = write_config(
            tmp_path,
            {
                "schema": "detmart/1",
                "command": "kernel",
                "kernel": {"variant": "sine"},
                "grid": {"s": [], "x": [], "t": [], "y": []},
                "output": {"path": out},
            },
        )
        assert run(["kernel", path]) == 0
        assert read_text(out) == "s,x,t,y,value\n"

    def test_one_grid_call_per_time_pair(self, tmp_path, monkeypatch):
        calls = []
        grid = cli.ker.kernel_eval_grid

        def counted(kern, s, xs, t, ys):
            calls.append((s, t))
            return grid(kern, s, xs, t, ys)

        monkeypatch.setattr(cli.ker, "kernel_eval_grid", counted)
        out = str(tmp_path / "grid.csv")
        axes = {"s": [0.5, 1.0], "x": [0.0, 0.3], "t": [1.0, 1.5, 2.0], "y": [0.25, 0.5]}
        path = write_config(
            tmp_path,
            {
                "schema": "detmart/1",
                "command": "kernel",
                "kernel": {"variant": "sine"},
                "grid": axes,
                "output": {"path": out},
            },
        )
        assert run(["kernel", path]) == 0
        assert calls == [(s, t) for s in axes["s"] for t in axes["t"]]
        rows = [tuple(map(float, line.split(",")[:4]))
                for line in read_text(out).splitlines()[1:]]
        assert rows == [(s, x, t, y) for s in axes["s"] for x in axes["x"]
                        for t in axes["t"] for y in axes["y"]]

    def test_unknown_variant_exit_2(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        path = self.config(tmp_path, out, variant="cosine")
        assert run(["kernel", path]) == 2

    def test_bad_schema_exit_2(self, tmp_path):
        path = write_config(tmp_path, {"schema": "nope", "command": "kernel"})
        assert run(["kernel", path]) == 2

    def test_general_variant(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        path = write_config(
            tmp_path,
            {
                "schema": "detmart/1",
                "command": "kernel",
                "kernel": {
                    "variant": "general",
                    "process": {"kind": "BM"},
                    "xi": {"atoms": [[0.0, 1], [2.0, 1]]},
                },
                "grid": {"s": [0.5, 1.0], "x": [0.3], "t": [1.0], "y": [0.7]},
                "output": {"path": out},
            },
        )
        assert run(["kernel", path]) == 0
        assert len(read_text(out).strip().splitlines()) == 3


class TestSimulateCommand:
    def config(self, tmp_path, out, n_paths=50, seed=9):
        return write_config(
            tmp_path,
            {
                "schema": "detmart/1",
                "command": "simulate",
                "process": {"kind": "RW"},
                "xi": {"atoms": [[0.0, 1], [2.0, 1]]},
                "times": [1, 2],
                "sampler": "noncolliding_rw",
                "mc": {"n_paths": n_paths, "seed": seed},
                "output": {"path": out},
            },
        )

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(["simulate", self.config(tmp_path, out1, seed=9)]) == 0
        assert run(["simulate", self.config(tmp_path, out2, seed=9), "--output", out2]) == 0
        assert read_text(out1) == read_text(out2)

    def test_summary_contains_moments(self, tmp_path):
        out = str(tmp_path / "a.csv")
        assert run(["simulate", self.config(tmp_path, out)]) == 0
        summary = read_json(out + ".summary.json")
        assert "mean" in summary and "variance" in summary
        assert summary["n_paths"] == 50

    def test_n_paths_zero_exit_2(self, tmp_path):
        out = str(tmp_path / "a.csv")
        path = self.config(tmp_path, out)
        assert run(["simulate", path, "--n-paths", "0"]) == 2

    def test_missing_seed_exit_2(self, tmp_path):
        out = str(tmp_path / "a.csv")
        path = write_config(
            tmp_path,
            {
                "schema": "detmart/1",
                "command": "simulate",
                "process": {"kind": "RW"},
                "xi": {"atoms": [[0.0, 1]]},
                "times": [1],
                "sampler": "free",
                "mc": {"n_paths": 10},
                "output": {"path": out},
            },
        )
        assert run(["simulate", path]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_single_path_summary_is_strict_json(self, tmp_path):
        out = str(tmp_path / "a.csv")
        assert run(["simulate", self.config(tmp_path, out, n_paths=1)]) == 0

        def refuse(name):
            raise ValueError(f"summary holds the non-JSON constant {name}")

        summary = json.loads(read_text(out + ".summary.json"), parse_constant=refuse)
        assert summary["n_paths"] == 1
        assert summary["variance"] is None


# each case: (id, config fields, text the CSV must contain)
CSV_CASES = [
    ("free-rw-companions",
     {"process": {"kind": "RW"}, "xi": {"atoms": [[0.0, 1], [2.0, 1]]},
      "times": [1, 2, 3], "sampler": "free", "companions": True,
      "mc": {"n_paths": 40, "seed": 3}}, None),
    ("noncolliding-rw",
     {"process": {"kind": "RW"}, "xi": {"atoms": [[0.0, 1], [2.0, 1], [4.0, 1]]},
      "times": [1, 2], "sampler": "noncolliding_rw",
      "mc": {"n_paths": 60, "seed": 4}}, None),
    ("noncolliding-bm-257",
     {"process": {"kind": "BM"}, "xi": {"atoms": [[0.0, 1], [1.0, 1], [2.5, 1]]},
      "times": [0.5, 1.25], "sampler": "noncolliding",
      "mc": {"n_paths": 257, "seed": 5}}, None),
    ("free-bm-1e17",
     {"process": {"kind": "BM"}, "xi": {"atoms": [[1e17, 1]]},
      "times": [0.5, 1], "sampler": "free",
      "mc": {"n_paths": 20, "seed": 6}}, ",1e+17\n"),
    ("walk-negative-zero",
     {"process": {"kind": "RW"}, "xi": {"atoms": [[-0.0, 1], [2.0, 1]]},
      "times": [0, 1, 2], "sampler": "free",
      "mc": {"n_paths": 10, "seed": 7}}, "\n0,0,0,-0\n"),
]


class TestSimulateCsvBytes:
    @pytest.mark.parametrize(
        "fields, must_contain", [c[1:] for c in CSV_CASES], ids=[c[0] for c in CSV_CASES]
    )
    def test_bytes_match_per_row_formatting(self, tmp_path, monkeypatch, fields, must_contain):
        written = []
        write_paths = cli._write_paths

        def spy(fh, ens):
            written.append(ens)
            write_paths(fh, ens)

        monkeypatch.setattr(cli, "_write_paths", spy)
        out = str(tmp_path / "paths.csv")
        config = {"schema": "detmart/1", "command": "simulate", **fields,
                  "output": {"path": out}}
        assert run(["simulate", write_config(tmp_path, config)]) == 0
        (ens,) = written
        assert ens.n_paths == fields["mc"]["n_paths"]
        with open(out, "rb") as fh:
            assert fh.read() == old_paths_csv(ens).encode()
        if must_contain is not None:
            assert must_contain in read_text(out)


class TestEstimateCommand:
    def test_estimate_json_schema(self, tmp_path):
        out = str(tmp_path / "est.json")
        path = write_config(
            tmp_path,
            {
                "schema": "detmart/1",
                "command": "estimate",
                "estimator": "dmr",
                "process": {"kind": "BM"},
                "xi": {"atoms": [[0.0, 1], [2.0, 1]]},
                "times": [0.5],
                "observable": {"kind": "one"},
                "mc": {"n_paths": 2000, "seed": 5},
                "output": {"path": out},
            },
        )
        assert run(["estimate", path]) == 0
        payload = read_json(out)
        est = payload["estimate"]
        assert set(est) >= {"mean", "std_error", "n"}
        assert est["n"] == 2000
        assert abs(est["mean"] - 1.0) <= 6 * est["std_error"]

    def test_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        base = {
            "schema": "detmart/1",
            "command": "estimate",
            "estimator": "cpr",
            "process": {"kind": "RW"},
            "xi": {"atoms": [[0.0, 1], [2.0, 1]]},
            "times": [2],
            "observable": {"kind": "set_equals", "sites": [0, 2]},
            "mc": {"n_paths": 500, "seed": 11},
            "output": {"path": out1},
        }
        path1 = write_config(tmp_path, base, "c1.json")
        assert run(["estimate", path1]) == 0
        base2 = dict(base)
        base2["output"] = {"path": out2}
        path2 = write_config(tmp_path, base2, "c2.json")
        assert run(["estimate", path2]) == 0
        a = read_json(out1)["estimate"]
        b = read_json(out2)["estimate"]
        assert a == b


class TestFredholmCommand:
    def test_routes_agree(self, tmp_path):
        values = {}
        for route in ("series", "finite_rank"):
            out = str(tmp_path / f"{route}.json")
            path = write_config(
                tmp_path,
                {
                    "schema": "detmart/1",
                    "command": "fredholm",
                    "route": route,
                    "process": {"kind": "BM"},
                    "xi": {"atoms": [[0.0, 1], [2.0, 1]]},
                    "spec": {
                        "times": [0.8],
                        "chi": [
                            {"support": [-1.0, 2.5], "kind": "indicator", "scale": -0.6}
                        ],
                    },
                    "output": {"path": out},
                },
                name=f"{route}.config.json",
            )
            assert run(["fredholm", path]) == 0
            values[route] = read_json(out)["value"]
        assert values["series"] == pytest.approx(values["finite_rank"], abs=1e-8)


class TestOconnellCommand:
    def test_reference_route(self, tmp_path):
        out = str(tmp_path / "oc.json")
        path = write_config(
            tmp_path,
            {
                "schema": "detmart/1",
                "command": "oconnell",
                "route": "cpr",
                "params": {"a": 0.1, "nu_hat": [-1.0, 1.0], "t": 1.0, "h": -1000.0},
                "mc": {"n_paths": 4000, "seed": 3},
                "output": {"path": out},
            },
        )
        assert run(["oconnell", path]) == 0
        est = read_json(out)["estimate"]
        assert abs(est["mean"] - 1.0) <= 6 * est["std_error"]


# one valid configuration per command; each bad-input case below breaks
# exactly one field of one of them
VALID = {
    "fredholm": {
        "route": "series",
        "process": {"kind": "BM"},
        "xi": {"atoms": [[0.0, 1], [2.0, 1]]},
        "spec": {"times": [0.8], "chi": [{"support": [-1.0, 2.5], "scale": -0.6}]},
        "quad_order": 16,
    },
    "simulate": {
        "process": {"kind": "BM"},
        "xi": {"atoms": [[0.0, 1], [2.0, 1]]},
        "times": [0.1],
        "sampler": "noncolliding",
        "dt": 0.01,
        "mc": {"n_paths": 10, "seed": 1},
    },
    "oconnell": {
        "route": "reference",
        "params": {"a": 0.1, "nu_hat": [-1.0, 1.0], "t": 0.1, "h": -1000.0},
        "dt": 0.01,
        "mc": {"n_paths": 10, "seed": 1},
    },
    "estimate": {
        "process": {"kind": "BM"},
        "xi": {"atoms": [[0.0, 1], [2.0, 1]]},
        "times": [0.5],
        "observable": {"kind": "one"},
        "mc": {"n_paths": 10, "seed": 1},
    },
    "kernel": {
        "kernel": {"variant": "sine"},
        "grid": {"s": [1.0], "x": [0.0], "t": [1.0], "y": [0.5]},
    },
}

BAD_INPUTS = [
    ("fredholm", "quad_order", "abc"),
    ("fredholm", "quad_order", 0),
    ("simulate", "dt", "x"),
    ("oconnell", "dt", "x"),
    ("simulate", "dt", 0.0),
    ("simulate", "process", {"kind": "BESQ", "nu": 0.3}),
    ("simulate", "times", ["a"]),
    ("simulate", "times", [math.inf]),
    ("simulate", "times", [math.nan]),
    ("estimate", "times", [math.nan]),
    ("kernel", "grid.x", ["a"]),
    ("estimate", "horizon", "x"),
    ("estimate", "xi.atoms", [["a", 1]]),
    # one DMR path has no standard error: refused before numpy divides by 0
    ("estimate", "mc.n_paths", 1),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, field, value", BAD_INPUTS, ids=[f"{c}-{f}-{v}" for c, f, v in BAD_INPUTS]
    )
    def test_bad_input_exits_2_without_traceback(
        self, tmp_path, capsys, command, field, value
    ):
        config = json.loads(json.dumps(VALID[command]))
        node = config
        *parents, leaf = field.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = value
        config.update(schema="detmart/1", command=command)
        config["output"] = {"path": str(tmp_path / "out")}
        assert run([command, write_config(tmp_path, config)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_numeric_error_maps_to_3(self, tmp_path, monkeypatch):
        from detmart import simulate
        from detmart.errors import NumericError

        def boom(*args, **kwargs):
            raise NumericError("synthetic non-convergence")

        monkeypatch.setattr(cli.sim, "sample_noncolliding_rw", boom)
        out = str(tmp_path / "a.csv")
        path = write_config(
            tmp_path,
            {
                "schema": "detmart/1",
                "command": "simulate",
                "process": {"kind": "RW"},
                "xi": {"atoms": [[0.0, 1], [2.0, 1]]},
                "times": [1],
                "sampler": "noncolliding_rw",
                "mc": {"n_paths": 10, "seed": 1},
                "output": {"path": out},
            },
        )
        assert run(["simulate", path]) == 3


class TestVerifyCommand:
    def test_identities_suite_passes(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert run(["verify", "identities", "--output", out]) == 0
        report = read_json(out)
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_unknown_suite_exit_2(self):
        assert run(["verify", "nonsense"]) == 2

    def test_mutation_fails_suite(self, monkeypatch, tmp_path):
        # corrupting the sign of the cardinal polynomial must flip the
        # determinant identity and fail the suite
        from detmart import configurations as cfgmod

        orig = cfgmod.phi_simple

        def corrupted(xi, u, z):
            return -orig(xi, u, z)

        monkeypatch.setattr(cfgmod, "phi_simple", corrupted)
        out = str(tmp_path / "report.json")
        assert run(["verify", "identities", "--output", out]) == 1
        report = read_json(out)
        assert any(c["status"] == "fail" for c in report["checks"])
