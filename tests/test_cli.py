import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    """The simulate CSV from per-row f-strings: the oracle the CLI bytes
    must equal."""
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


def old_kernel_csv(kernel, grid):
    """The kernel CSV from per-row f-strings: the oracle the CLI bytes must
    equal."""
    lines = ["s,x,t,y,value\n"]
    for s in grid["s"]:
        blocks = [cli.ker.kernel_eval_grid(kernel, s, grid["x"], t, grid["y"]) for t in grid["t"]]
        for i, x in enumerate(grid["x"]):
            for t, block in zip(grid["t"], blocks):
                for y, v in zip(grid["y"], block[i]):
                    lines.append(",".join(f"{c:.17g}" for c in (s, x, t, y, float(v))) + "\n")
    return "".join(lines)


def g17(values, end):
    return [b"%.17g" % v + end for v in values]


# positional '%.17g' holds for 1e-4 <= |x| < 1e17; around its edges, a log10
# guess of the exponent can be off by one
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
EDGE_VALUES += [
    float(v) for p in [float(f"1e{k}") for k in range(-5, 18)] + [2.0**53]
    for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))
]
# doubles below a power of ten whose 17 significant digits round up to it;
# every such double lies outside the positional range
CARRIES = [1e-305, 1e-243, 1e-176, 1e-79, 1e-70, 1e-14, 1e98, 1e129, 1e153, 1e220]
EDGE_VALUES += CARRIES
EDGE_VALUES += [-v for v in EDGE_VALUES]
EDGE_VALUES += [math.nan, math.inf, -math.inf, 0.5, 2.5, 100.0, 123456789012345680.0,
                99999999999999984.0, 0.30000000000000004, 9007199254740993.0]


class TestFormatFloats:
    @pytest.mark.parametrize("end", [b",", b"\n"])
    def test_edge_values(self, end):
        assert cli._format_floats(EDGE_VALUES, end).tolist() == g17(EDGE_VALUES, end)

    @pytest.mark.parametrize("value", CARRIES)
    def test_carries_start_a_new_decade(self, value):
        assert int(("%.16e" % value).split("e")[1]) == Decimal(value).adjusted() + 1

    @settings(max_examples=500, deadline=None)
    @given(st.floats())
    def test_matches_percent_g(self, x):
        assert cli._format_floats([x], b",").tolist() == g17([x], b",")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(), max_size=40), st.sampled_from([b",", b"\n"]))
    def test_arrays_match_percent_g(self, values, end):
        text = cli._format_floats(np.array(values, dtype=float).reshape(-1, 1), end)
        assert text.shape == (len(values), 1)
        assert text.ravel().tolist() == g17(values, end)

    def test_random_magnitudes(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-8, 20, 20_000)
        values[::7] = np.round(values[::7])
        assert cli._format_floats(values, b",").tolist() == g17(values.tolist(), b",")


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

    @pytest.mark.parametrize(
        "kconf, grid, must_contain",
        [
            # zeros on the axes; off the diagonal, sin(pi (y - x)) / (pi (y - x))
            # falls below 1e-4
            ({"variant": "sine"},
             {"s": [0.0, 1.0], "x": [0.0, -0.5], "t": [1.0, 1.5],
              "y": [0.0, 1.00001, 2.000003, -3.0000001, 0.5]}, "e-0"),
            # the walk kernel is exactly 0 off its parity
            ({"variant": "rw", "xi": {"atoms": [[0.0, 1], [2.0, 1]]}},
             {"s": [1.0, 2.0], "x": [-1.0, 0.0, 1.0, 2.0], "t": [2.0, 3.0],
              "y": [-2.0, -1.0, 0.0, 5.0]}, ",0\n"),
        ],
        ids=["sine", "rw"],
    )
    def test_bytes_match_per_row_formatting(self, tmp_path, kconf, grid, must_contain):
        out = str(tmp_path / "grid.csv")
        path = write_config(
            tmp_path,
            {"schema": "detmart/1", "command": "kernel", "kernel": kconf, "grid": grid,
             "output": {"path": out}},
        )
        assert run(["kernel", path]) == 0
        with open(out, "rb") as fh:
            text = fh.read()
        assert text == old_kernel_csv(cli._build_kernel({"kernel": kconf}), grid).encode()
        assert must_contain.encode() in text

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

    def test_sidecar_xi_is_config_atoms(self, tmp_path):
        # the sidecar holds the parsed configuration: sorted, merged and
        # in floats, which for these atoms is the config's own list
        out = str(tmp_path / "grid.csv")
        atoms = [[0.0, 2], [1.5, 1]]
        path = write_config(
            tmp_path,
            {
                "schema": "detmart/1",
                "command": "kernel",
                "kernel": {"variant": "multipoint", "process": {"kind": "BM"},
                           "xi": {"atoms": atoms}},
                "grid": {"s": [1.0], "x": [0.3], "t": [1.0], "y": [0.7]},
                "output": {"path": out},
            },
        )
        assert run(["kernel", path]) == 0
        assert read_json(out + ".json")["xi"] == {"atoms": atoms}


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
    # values below 1e-4 take the per-value fallback inside a chunk
    ("free-bm-tiny-time",
     {"process": {"kind": "BM"}, "xi": {"atoms": [[0.0, 1], [1e-5, 1]]},
      "times": [1e-12, 1e-8], "sampler": "free",
      "mc": {"n_paths": 30, "seed": 8}}, "e-07\n"),
    ("noncolliding-bm-chunk-plus-1",
     {"process": {"kind": "BM"}, "xi": {"atoms": [[0.0, 1], [1.0, 1], [2.5, 1]]},
      "times": [0.5, 1.25], "sampler": "noncolliding",
      "mc": {"n_paths": cli._CSV_CHUNK + 1, "seed": 5}}, None),
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

    def test_spec_with_sites_and_support(self, tmp_path, monkeypatch):
        specs = []
        series = cli.fred.fredholm_series

        def spy(kernel, spec, quad_order):
            specs.append(spec)
            return series(kernel, spec, quad_order=quad_order)

        monkeypatch.setattr(cli.fred, "fredholm_series", spy)
        config = {
            "schema": "detmart/1",
            "command": "fredholm",
            # the walk, on whose sites both kinds of chi are read
            "process": {"kind": "RW"},
            "xi": {"atoms": [[0.0, 1], [2.0, 1]]},
            "spec": {
                "times": [1, 2.0],
                "chi": [
                    {"support": [-1, 1.0], "kind": "indicator", "scale": -0.5},
                    {"sites": [[0, 0.3], [2, -0.2]]},
                ],
            },
            "output": {"path": str(tmp_path / "out.json")},
        }
        assert run(["fredholm", write_config(tmp_path, config)]) == 0
        (spec,) = specs
        assert spec.times == (1.0, 2.0)
        assert spec.chis[0].support == (-1.0, 1.0)
        assert spec.chis[0](np.array([0.0, 3.0])).tolist() == [-0.5, 0.0]
        assert spec.chis[1].sites == ((0.0, 0.3), (2.0, -0.2))
        assert spec.chis[1](np.array([2.0, 1.0])).tolist() == [-0.2, 0.0]


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

    def test_unconverged_dmr_exits_3(self, tmp_path, capsys):
        out = str(tmp_path / "oc.json")
        path = write_config(
            tmp_path,
            {
                "schema": "detmart/1",
                "command": "oconnell",
                "route": "dmr",
                "params": {"a": 1 / 6, "nu_hat": [-1.0, 1.0], "t": 1.0, "h": 0.0},
                "mc": {"n_paths": 1000, "seed": 3},
                "output": {"path": out},
            },
        )
        assert run(["oconnell", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cpr" in err


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
        # a walk time too, so that only the process is wrong for the walk
        "times": [1],
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

_WALK_CPR = {"estimator": "cpr", "process": {"kind": "RW"}, "times": [2]}
_WALK_KERNEL = {"kernel": {"variant": "rw", "xi": {"atoms": [[0.0, 1], [2.0, 1]]}},
                "grid": {"s": [2], "x": [0.0], "t": [2], "y": [0.0]}}
_OCONNELL_DMR = {"route": "dmr",
                 "params": {"a": 0.1, "nu_hat": [-1.0, 1.0], "t": 1.0, "h": 0.0}}

BAD_INPUTS = [
    ("fredholm", "quad_order", "abc"),
    ("fredholm", "quad_order", 0),
    # the order is doubled once and the Gauss-Legendre rule is capped at
    # 1024 nodes: numpy would try to allocate 74.5 GiB for the first one
    ("fredholm", "quad_order", 100000, "quad_order must be at most 512"),
    ("fredholm", "quad_order", 513, "quad_order must be at most 512"),
    ("simulate", "dt", "x"),
    ("oconnell", "dt", "x"),
    ("simulate", "dt", 0.0),
    ("simulate", "process", {"kind": "BESQ", "nu": 0.3}),
    ("simulate", "times", ["a"]),
    ("simulate", "times", [math.inf]),
    ("simulate", "times", [math.nan]),
    ("estimate", "times", [math.nan]),
    # no observation time: refused, not an IndexError or a header-only CSV
    ("estimate", "times", []),
    ("simulate", "times", []),
    ("kernel", "grid.x", ["a"]),
    ("estimate", "horizon", "x"),
    ("estimate", "xi.atoms", [["a", 1]]),
    ("estimate", "xi.atoms", [["nan", 1], [2.0, 1]]),
    ("oconnell", "params.nu_hat", ["nan", 1.0]),
    # one DMR path has no standard error: refused before numpy divides by 0
    ("estimate", "mc.n_paths", 1),
    ("simulate", "process", {"kind": "BESQ", "nu": "a"}),
    # a NaN index passed the nu > -1 check and the estimate wrote NaN
    ("estimate", "process", {"kind": "BESQ", "nu": "nan"}),
    ("fredholm", "spec.times", ["a"]),
    # a string is not read as the list of its characters
    ("fredholm", "spec.times", "5"),
    ("fredholm", "spec", {"times": [], "chi": []}),
    ("oconnell", "params.a", "nan"),
    ("oconnell", "params.h", "nan"),
    ("kernel", "kernel", {"variant": "extended_hermite", "size": True}),
    ("kernel", "kernel", {"variant": "extended_laguerre", "size": -3, "nu": 0.5}),
    # the normalisation of the last Hermite term overflows from rank 152
    ("kernel", "kernel", {"variant": "extended_hermite", "size": 152}),
    ("kernel", "kernel", {"variant": "extended_laguerre", "size": 172, "nu": 0.5}),
    # an empty configuration: refused, not a traceback, a header-only CSV
    # or a mean of 1
    ("estimate", "xi.atoms", []),
    ("simulate", "xi.atoms", []),
    ("fredholm", "xi.atoms", []),
    ("kernel", "kernel", {"variant": "rw", "xi": {"atoms": []}}),
    ("oconnell", "params.nu_hat", []),
    # the walk sampler runs only the walk; it ran a BM config as a walk
    ("simulate", "sampler", "noncolliding_rw"),
    # companions is a JSON boolean: any truthy value used to attach them
    ("simulate", "companions", "yes"),
    ("simulate", "companions", 1),
    # dt is validated for every sampler; the free and walk samplers ignored it
    ("simulate", "dt", "x", {"sampler": "free"}),
    ("simulate", "dt", -1, {"sampler": "noncolliding_rw", "process": {"kind": "RW"}}),
    # numbers are finite JSON numbers and multiplicities positive integers:
    # each of these used to be coerced and run
    ("oconnell", "params.nu_hat", "12"),
    ("estimate", "xi.atoms", [[0.0, 1.7], [2.0, 1]]),
    ("estimate", "xi.atoms", [[0.0, True], [2.0, 1]]),
    ("fredholm", "spec.times", [True]),
    ("oconnell", "params.t", True),
    ("oconnell", "params.a", "0.1"),
    ("simulate", "process", {"kind": "BESQ", "nu": "0.5"}),
    ("estimate", "xi.atoms", [["0", 1], [2.0, 1]]),
    ("fredholm", "spec.chi", [{"support": [-1.0, math.inf], "scale": -0.6}]),
    # a chi is either on sites or on an interval
    ("fredholm", "spec.chi", [{"sites": [[0, 0.3]], "support": [-1.0, 2.5], "scale": -0.6}]),
    # Brownian paths never hit a site: the series read each site with
    # weight 1, the Monte Carlo never saw it
    *(("fredholm", "spec.chi", [{"sites": [[0, 0.5], [2, -0.4]]}], route,
       "chi on sites needs the walk")
      for route in ({"route": "series"}, {"route": "finite_rank"},
                    {"route": "mc", "mc": {"n_paths": 10, "seed": 1}})),
    # a repeated site: the series summed both values, the enumeration kept one
    ("fredholm", "spec.chi", [{"sites": [[0, 0.5], [0, 0.3]]}],
     {"process": {"kind": "RW"}, "spec": {"times": [2], "chi": []}}, "spec.chi[].sites"),
    # every route refuses the times the process does not admit: these ran,
    # the series at 1.0, the horizon rounded, the grid as zeros
    ("fredholm", "spec.times", [2.5], {"process": {"kind": "RW"}}),
    ("fredholm", "spec.times", [-2], {"process": {"kind": "RW"}}),
    ("estimate", "horizon", 2.5, _WALK_CPR),
    ("estimate", "horizon", 3.5, _WALK_CPR),
    ("kernel", "grid.s", [2.5], _WALK_KERNEL),
    ("kernel", "grid.s", [-1], _WALK_KERNEL),
    ("kernel", "grid.t", [2.5], _WALK_KERNEL),
    # the walk times are checked before an empty axis returns no cells
    ("kernel", "grid.s", [2.5], {**_WALK_KERNEL, "grid": {"s": [2], "x": [], "t": [2], "y": [0.0]}}),
    # dt is validated for every oconnell route; cpr and dmr ignored it
    ("oconnell", "dt", "x", {"route": "cpr"}),
    ("oconnell", "dt", 0, {"route": "cpr"}),
    ("oconnell", "dt", -1, _OCONNELL_DMR),
    ("oconnell", "dt", 0, _OCONNELL_DMR),
]


def _numeric_leaves(node, path=()):
    """Paths (keys and list indices) to the numbers in a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        number = isinstance(node, (int, float)) and not isinstance(node, bool)
        return [path] if number else []
    return [leaf for key, value in items for leaf in _numeric_leaves(value, path + (key,))]


NUMERIC_LEAVES = [(c, path) for c in sorted(VALID) for path in _numeric_leaves(VALID[c])]


def _bad_input_id(row):
    command, field, value, *extra = row
    parts = [command, field, str(value)]
    for overrides in extra:
        if isinstance(overrides, dict):
            parts += [f"{k}={v}" for k, v in overrides.items()]
    return "-".join(parts)


class TestExitCodes:
    @pytest.mark.parametrize("row", BAD_INPUTS, ids=[_bad_input_id(r) for r in BAD_INPUTS])
    def test_bad_input_exits_2_without_traceback(self, tmp_path, capsys, row):
        # a row may end in config overrides (dicts) and a text its error names
        command, field, value, *extra = row
        overrides = [e for e in extra if isinstance(e, dict)]
        config = json.loads(json.dumps(VALID[command]))
        config.update(*json.loads(json.dumps(overrides)))  # rows share their dicts
        node = config
        *parents, leaf = field.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = value
        config.update(schema="detmart/1", command=command)
        config["output"] = {"path": str(tmp_path / "out")}
        assert run([command, write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(text in err for text in extra if isinstance(text, str))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(NUMERIC_LEAVES),
           st.one_of(st.text(max_size=4), st.booleans(), st.none(),
                     st.lists(st.integers(-3, 3), max_size=2)))
    def test_non_number_leaf_exits_2(self, tmp_path, capsys, leaf, value):
        command, path = leaf
        config = json.loads(json.dumps(VALID[command]))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        config.update(schema="detmart/1", command=command)
        config["output"] = {"path": str(tmp_path / "out")}
        assert run([command, write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_walk_sampler_refuses_besq(self, tmp_path, capsys):
        config = json.loads(json.dumps(VALID["simulate"]))
        config.update(schema="detmart/1", command="simulate", process={"kind": "BESQ", "nu": 1},
                      sampler="noncolliding_rw")
        config["output"] = {"path": str(tmp_path / "out")}
        assert run(["simulate", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err == (
            "error: the noncolliding_rw sampler needs process kind RW\n"
        )

    @pytest.mark.parametrize("route", [{"route": "cpr"}, _OCONNELL_DMR, {"route": "reference"}],
                             ids=["cpr", "dmr", "reference"])
    def test_oconnell_dt_is_a_config_field_on_every_route(self, tmp_path, capsys, route):
        config = json.loads(json.dumps(VALID["oconnell"]))
        config.update(json.loads(json.dumps(route)), schema="detmart/1", command="oconnell", dt=0)
        config["output"] = {"path": str(tmp_path / "out")}
        assert run(["oconnell", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err == "error: config field 'dt' must be a positive number\n"

    @pytest.mark.parametrize("variant", ["extended_hermite", "extended_laguerre"])
    @pytest.mark.parametrize("axis", ["s", "t"])
    def test_extended_kernel_at_time_zero_exits_2(self, tmp_path, capsys, variant, axis):
        config = json.loads(json.dumps(VALID["kernel"]))
        config.update(schema="detmart/1", command="kernel")
        config["kernel"] = {"variant": variant, "size": 3, "nu": 0.5}
        config["grid"][axis] = [0.0]
        config["output"] = {"path": str(tmp_path / "out")}
        assert run(["kernel", write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(VALID))
    def test_output_in_missing_directory_exits_2(self, tmp_path, capsys, command):
        config = json.loads(json.dumps(VALID[command]))
        config.update(schema="detmart/1", command=command)
        config["output"] = {"path": str(tmp_path / "missing" / "out")}
        assert run([command, write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1

    def test_verify_output_in_missing_directory_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "report.json")
        assert run(["verify", "identities", "--output", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "estimator, process, atoms, times",
        [
            ("dmr", {"kind": "BESQ", "nu": 0.5}, [[-1.0, 1], [2.0, 1]], [1.0]),
            ("cpr", {"kind": "BES", "nu": 1.5}, [[-1.0, 1], [2.0, 1]], [1.0]),
            ("dmr", {"kind": "RW"}, [[0.5, 1], [2.0, 1]], [2]),
            ("cpr", {"kind": "RW"}, [[0.5, 1], [2.0, 1]], [2]),
            ("dmr", {"kind": "RW"}, [[0.0, 1], [1.0, 1]], [2]),
            ("cpr", {"kind": "RW"}, [[0.0, 1], [1.0, 1]], [2]),
        ],
        ids=[
            "dmr-besq-negative",
            "cpr-bes-negative",
            "dmr-rw-fractional",
            "cpr-rw-fractional",
            "dmr-rw-mixed-parity",
            "cpr-rw-mixed-parity",
        ],
    )
    def test_bad_start_exits_2(self, tmp_path, capsys, estimator, process, atoms, times):
        config = json.loads(json.dumps(VALID["estimate"]))
        config.update(
            schema="detmart/1",
            command="estimate",
            estimator=estimator,
            process=process,
            xi={"atoms": atoms},
            times=times,
            output={"path": str(tmp_path / "out")},
        )
        assert run(["estimate", write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bes_cpr_at_horizon_zero_exits_2(self, tmp_path, capsys):
        # the BES(n + 1/2) weight divides by the horizon
        config = json.loads(json.dumps(VALID["estimate"]))
        config.update(
            schema="detmart/1",
            command="estimate",
            estimator="cpr",
            process={"kind": "BES", "nu": 1.5},
            xi={"atoms": [[1.0, 1], [2.5, 1]]},
            times=[0.0],
            output={"path": str(tmp_path / "out")},
        )
        assert run(["estimate", write_config(tmp_path, config)]) == 2
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
