import contextlib
import copy
import csv
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import cli, graphs
from netepi.cli import EXIT_INPUT, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, dispatch


def run_cli(*argv):
    return dispatch(list(argv))


class TestUsage:
    def test_no_command(self):
        assert run_cli() == EXIT_USAGE

    def test_unknown_command(self):
        assert run_cli("teleport") == EXIT_USAGE

    def test_missing_required_option(self):
        assert run_cli("generate", "--n", "10") == EXIT_USAGE

    def test_version(self, capsys):
        assert run_cli("--version") == EXIT_OK
        assert capsys.readouterr().out.startswith("netepi ")


class TestGenerate:
    def test_er_to_stdout(self, capsys):
        assert run_cli("generate", "--model", "er", "--n", "20", "--p", "0.2") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# nodes: 20"
        assert all(len(line.split()) == 2 for line in lines[1:])

    def test_deterministic(self, capsys):
        argv = ("generate", "--model", "ba", "--n", "50", "--m", "2", "--seed", "9")
        assert run_cli(*argv) == EXIT_OK
        first = capsys.readouterr().out
        assert run_cli(*argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_auto_seed_reported(self, capsys):
        assert run_cli("generate", "--model", "er", "--n", "10", "--p", "0.5",
                       "--seed", "auto") == EXIT_OK
        assert "seed:" in capsys.readouterr().err

    def test_missing_model_param(self):
        assert run_cli("generate", "--model", "er", "--n", "10") == EXIT_INPUT

    @pytest.mark.parametrize("seed", ["abc", "-5"])
    def test_bad_seed(self, seed, capsys):
        assert run_cli("generate", "--model", "er", "--n", "10", "--p", "0.1",
                       "--seed", seed) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--model", "er", "--n", "10", "--p", "2.0"],
        ["--model", "ws", "--n", "10", "--k", "2", "--p-rewire", "1.5"],
        ["--model", "ws", "--n", "10", "--k", "3", "--p-rewire", "0.1"],
        ["--model", "ba", "--n", "5", "--m", "5"],
    ], ids=" ".join)
    def test_bad_parameter_value(self, tmp_path, capsys, argv):
        out = tmp_path / "g.txt"
        assert run_cli("generate", *argv, "--out", str(out)) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--model", "er", "--n", "abc", "--p", "0.1"],
        ["--model", "er", "--n", "-1", "--p", "0.1"],
        ["--model", "er", "--n", "10", "--p", "nan"],
        ["--model", "er", "--n", "10", "--p", "-0.5"],
        ["--model", "ws", "--n", "10", "--k", "2", "--p-rewire", "nan"],
        ["--model", "ws", "--n", "10", "--k", "2.5", "--p-rewire", "0.1"],
        ["--model", "ba", "--n", "10", "--m", "0"],
    ], ids=" ".join)
    def test_bad_numbers_rejected_at_parse_time(self, tmp_path, capsys, argv):
        out = tmp_path / "g.txt"
        assert run_cli("generate", *argv, "--out", str(out)) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: argument --") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert run_cli("generate", "--model", "ws", "--n", "12", "--k", "4",
                       "--p-rewire", "0.1", "--out", str(out)) == EXIT_OK
        # header line plus 12 * 4 / 2 = 24 edges
        assert len(out.read_text().splitlines()) == 25


class TestMetrics:
    def test_triangle(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        assert run_cli("metrics", str(path)) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["nodes"] == 3
        assert report["avg_degree"] == 2.0
        assert report["density"] == 1.0
        # tail too small for a power-law fit: both fit fields are null
        assert report["power_law_exponent"] is None
        assert report["scale_free"] is None

    def test_missing_file(self):
        assert run_cli("metrics", "/no/such/file") == EXIT_INPUT

    @pytest.mark.parametrize("k_min", ["0", "-3", "abc", "2.5"])
    def test_bad_k_min(self, tmp_path, capsys, k_min):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        assert run_cli("metrics", str(path), f"--k-min={k_min}") == EXIT_INPUT
        assert "--k-min" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["metrics", "simulate"])
    def test_directory_path(self, tmp_path, command):
        assert run_cli(command, str(tmp_path)) == EXIT_INPUT

    def test_malformed_edge_list(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nbroken\n")
        assert run_cli("metrics", str(path)) == EXIT_INPUT

    @pytest.mark.parametrize("text, line", [
        ("0 1\n2 99999999999999999999\n", 2),
        ("# nodes: 3\n0 1\n1 3\n", 3),
    ], ids=["id-beyond-int64", "id-beyond-header"])
    def test_bad_id_names_its_line(self, tmp_path, capsys, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert run_cli("metrics", str(path)) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: line {line}: node ids must be below")

    @pytest.mark.parametrize("command", ["metrics", "generate"])
    def test_allocation_beyond_any_address_space(self, tmp_path, capsys, command):
        # 10**16 nodes need a 71 PiB index array: the allocation fails at once.
        path = tmp_path / "huge.txt"
        path.write_text("0 10000000000000000\n")
        argv = ([str(path)] if command == "metrics"
                else ["--model", "er", "--n", "10000000000000000", "--p", "0"])
        assert run_cli(command, *argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_generate_then_metrics_keeps_isolated_nodes(self, tmp_path, capsys):
        # ER(50, 0.02, seed 1) leaves its last node isolated.
        path = tmp_path / "er.txt"
        assert run_cli("generate", "--model", "er", "--n", "50", "--p", "0.02", "--seed", "1",
                       "--out", str(path)) == EXIT_OK
        assert run_cli("metrics", str(path)) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        g = graphs.generate_er(50, 0.02, seed=1)
        assert g.degrees()[49] == 0
        assert (report["nodes"], report["edges"]) == (50, g.edge_count)
        assert report["density"] == 2 * g.edge_count / (50 * 49)


class TestSimulate:
    def config(self, tmp_path, **overrides):
        doc = {
            "network": {"er": {"n": 200, "p": 0.05}},
            "rates": {"beta": 0.2, "gamma": 1.0},
            "init": {"fraction": 0.01, "seed": 5},
            "t_max": 5.0,
        }
        doc.update(overrides)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        return path

    def test_outputs_written(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("simulate", str(cfg), "--out-dir", str(out)) == EXIT_OK
        traj = (out / "trajectory.csv").read_text()
        assert traj.startswith("t,S,I,R\n")
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["final_recovered_fraction"] <= 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rates"]["beta"] == 0.2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("simulate", str(cfg), "--out-dir", str(out)) == EXIT_OK
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_ode_engine(self, tmp_path):
        cfg = self.config(
            tmp_path,
            network={"well_mixed": {"n": 1000, "k_avg": 10}},
            engine="ode",
        )
        out = tmp_path / "ode"
        assert run_cli("simulate", str(cfg), "--out-dir", str(out)) == EXIT_OK
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 501  # header + t in steps of dt=0.01 up to 5.0
        assert not (out / "summary.json").exists()

    def test_abm_engine(self, tmp_path):
        cfg = self.config(
            tmp_path,
            network={"well_mixed": {"n": 500, "k_avg": 10}},
            engine="abm",
            rates={"beta": 0.3, "gamma": 0.5},
        )
        out = tmp_path / "abm"
        assert run_cli("simulate", str(cfg), "--out-dir", str(out)) == EXIT_OK
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 6  # header + steps 0..5

    def test_thin_after_degree_cap_runs(self, tmp_path):
        # The cap leaves BA(500, 6) below the thin's target density; the thin
        # is then a no-op, not a runtime failure.
        cfg = self.config(
            tmp_path,
            network={"ba": {"n": 500, "m": 6}},
            rates={"beta": 0.3, "gamma": 1.0},
            interventions=[{"t": 1.0, "action": "degree_cap", "cap": 2},
                           {"t": 2.0, "action": "thin", "target": 0.01}],
        )
        out = tmp_path / "out"
        assert run_cli("simulate", str(cfg), "--out-dir", str(out)) == EXIT_OK
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 1 and float(rows[-1]["t"]) > 2.0
        assert all(int(row["S"]) + int(row["I"]) + int(row["R"]) == 500 for row in rows)

    def test_invalid_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"network\": {}}")
        assert run_cli("simulate", str(path)) == EXIT_INPUT

    @pytest.mark.parametrize("edge_list", ["1 2 3\n", None], ids=["malformed", "missing"])
    def test_bad_edge_list_leaves_no_out_dir(self, tmp_path, capsys, edge_list):
        path = tmp_path / "g.txt"
        if edge_list is not None:
            path.write_text(edge_list)
        cfg = self.config(tmp_path, network={"edge_list": {"path": str(path)}})
        out = tmp_path / "out"
        assert run_cli("simulate", str(cfg), "--out-dir", str(out)) == EXIT_INPUT
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_graph_and_init_seeds_differ(self, tmp_path, monkeypatch):
        seeds = {}
        generate_er, init_state = graphs.generate_er, cli.init_state

        def spy_generate(n, p, seed):
            seeds["graph"] = seed
            return generate_er(n, p, seed)

        def spy_init(g, initial, seed):
            seeds["init"] = seed
            return init_state(g, initial, seed)

        monkeypatch.setattr(graphs, "generate_er", spy_generate)
        monkeypatch.setattr(cli, "init_state", spy_init)
        cfg = self.config(tmp_path)
        assert run_cli("simulate", str(cfg), "--out-dir", str(tmp_path / "out")) == EXIT_OK
        assert seeds["graph"] != seeds["init"]


VALID_CONFIG = {
    "network": {"er": {"n": 40, "p": 0.1}},
    "rates": {"beta": 0.3, "gamma": 1.0, "alpha": 0.1},
    "init": {"fraction": 0.05, "seed": 3},
    "t_max": 2.0,
    "engine": "gillespie",
    "dt": 0.01,
    "interventions": [{"t": 1.0, "action": "degree_cap", "cap": 2, "seed": 1}],
    "output": {"trajectory": "traj.csv", "summary": "summary.json"},
}
BAD_VALUES = [None, "x", [], {}, math.nan, math.inf, -math.inf]


def _leaf_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@contextlib.contextmanager
def _in_fresh_dir():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def _simulate(doc) -> tuple[int, str]:
    with _in_fresh_dir():
        with open("run.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = dispatch(["simulate", "run.json", "--out-dir", "out"])
    return code, err.getvalue()


class TestBadConfigValues:
    def test_valid_config_runs(self):
        assert _simulate(VALID_CONFIG) == (EXIT_OK, "")

    @pytest.mark.parametrize("path, value", [
        (("rates",), 5),
        (("rates", "beta"), "x"),
        (("network", "er", "n"), "fifty"),
        (("rates", "beta"), math.nan),
        (("t_max",), 0),
        (("dt",), -0.5),
        (("interventions", 0, "cap"), "x"),
        (("init", "seed"), -1),
    ])
    def test_fails_at_parse_time(self, path, value):
        code, err = _simulate(_with(VALID_CONFIG, path, value))
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(
        path=st.sampled_from(list(_leaf_paths(VALID_CONFIG))),
        value=st.sampled_from(BAD_VALUES),
    )
    def test_any_bad_leaf_exits_0_or_2(self, path, value):
        code, err = _simulate(_with(VALID_CONFIG, path, value))
        assert code in (EXIT_OK, EXIT_INPUT), (path, value, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("betas", ["x"]), ("replicates", "many"), ("t_max", math.inf), ("t_max", 0),
        ("networks", 5),
    ])
    def test_bad_sweep_value(self, tmp_path, key, value):
        doc = {"networks": [{"well_mixed": {"n": 50, "k_avg": 5}}], "betas": [0.1],
               "replicates": 1, "t_max": 1.0}
        doc[key] = value
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(doc))
        assert run_cli("sweep", str(spec), "--out-dir", str(tmp_path / "out")) == EXIT_INPUT


class TestSweepAndExperiments:
    def test_sweep(self, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "networks": [{"well_mixed": {"n": 100, "k_avg": 10}}],
            "betas": [0.1],
            "replicates": 2,
            "t_max": 3.0,
        }))
        out = tmp_path / "out"
        assert run_cli("sweep", str(spec), "--out-dir", str(out)) == EXIT_OK
        assert (out / "sweep_table.csv").exists()
        assert (out / "sweep_manifest.json").exists()

    def test_non_integer_workers(self, tmp_path, monkeypatch, capsys):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "networks": [{"well_mixed": {"n": 50, "k_avg": 5}}], "betas": [0.1],
            "replicates": 1, "t_max": 1.0,
        }))
        monkeypatch.setenv("NETEPI_WORKERS", "x")
        assert run_cli("sweep", str(spec), "--out-dir", str(tmp_path / "out")) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "NETEPI_WORKERS" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_workers_below_one(self, tmp_path, monkeypatch, capsys, value):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "networks": [{"well_mixed": {"n": 50, "k_avg": 5}}], "betas": [0.1],
            "replicates": 1, "t_max": 1.0,
        }))
        monkeypatch.setenv("NETEPI_WORKERS", value)
        assert run_cli("sweep", str(spec), "--out-dir", str(tmp_path / "out")) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "NETEPI_WORKERS" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, code", [
        (["exp02", "--densities", "x"], EXIT_INPUT),
        (["exp02", "--densities", "0.01,"], EXIT_INPUT),
        (["exp02", "--densities", "0"], EXIT_INPUT),
        (["exp02", "--densities", "-0.5"], EXIT_INPUT),
        (["exp02", "--densities", "1.5"], EXIT_INPUT),
        (["exp02", "--densities", "nan"], EXIT_INPUT),
        (["exp03", "--triggers", "abc"], EXIT_INPUT),
        (["exp03", "--triggers", "nan"], EXIT_INPUT),
        (["exp03", "--triggers", "1,inf"], EXIT_INPUT),
        (["exp03", "--triggers", "20"], EXIT_RUNTIME),  # finite but past t_max
    ], ids=lambda v: " ".join(v[1:]) if isinstance(v, list) else f"exit{v}")
    def test_bad_grid_values(self, tmp_path, capsys, argv, code):
        if argv[0] != "exp02":  # exp02 has no --n: its sizes follow --densities
            argv = argv + ["--n", "60"]
        argv = argv + ["--replicates", "1", "--out-dir", str(tmp_path / "out")]
        if argv[0] == "exp03":
            argv.extend(["--m", "2"])
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["exp01", "--beta-max", "nan"],
        ["exp04", "--alpha", "nan"],
        ["exp03", "--t-max", "nan"],
        ["exp01", "--replicates", "0"],
        ["exp01", "--beta-steps", "0"],
        ["exp01", "--n", "0"],
        ["exp04", "--t-max", "0"],
        ["exp02", "--k-avg", "0", "--replicates", "1"],
        ["exp01", "--n", "1", "--network", "er", "--replicates", "1"],
        ["exp04", "--n", "1", "--replicates", "1"],
        ["exp04", "--base-seed", "-1"],
        ["exp03", "--m", "x"],
    ], ids=" ".join)
    def test_bad_exp_numbers(self, tmp_path, capsys, argv):
        # Rejected by the option's type while parsing: nothing runs.
        assert run_cli(*argv, "--out-dir", str(tmp_path / "out")) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: argument --") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_exp02_has_no_n_option(self, tmp_path, capsys):
        assert run_cli("exp02", "--n", "60", "--replicates", "1",
                       "--out-dir", str(tmp_path / "out")) == EXIT_USAGE
        assert "unrecognized arguments: --n 60" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_density_too_low_for_two_nodes(self, tmp_path, capsys):
        # <k> / d + 1 rounds to one node at d = 0.002: a range error, not a traceback.
        assert run_cli("exp02", "--k-avg", "0.001", "--replicates", "1",
                       "--out-dir", str(tmp_path / "out")) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_exp01_smoke(self, tmp_path):
        out = tmp_path / "e1"
        assert run_cli("exp01", "--n", "100", "--replicates", "2",
                       "--beta-steps", "2", "--t-max", "3",
                       "--out-dir", str(out)) == EXIT_OK
        lines = (out / "exp01_table.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 2  # four networks x two betas

    def test_exp01_cells_are_numbers(self, tmp_path):
        out = tmp_path / "e1"
        assert run_cli("exp01", "--replicates", "1", "--n", "50", "--beta-steps", "3",
                       "--network", "er", "--out-dir", str(out)) == EXIT_OK
        with open(out / "exp01_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["beta"] for row in rows] == ["0.0", "0.15", "0.3"]
        for row in rows:
            for col, cell in row.items():
                if col not in ("experiment", "network"):
                    float(cell)

    def test_exp02_smoke(self, tmp_path):
        out = tmp_path / "e2"
        assert run_cli("exp02", "--densities", "0.05", "--replicates", "2",
                       "--t-max", "3", "--out-dir", str(out)) == EXIT_OK
        assert (out / "exp02_table.csv").exists()

    def test_exp03_smoke(self, tmp_path):
        out = tmp_path / "e3"
        assert run_cli("exp03", "--triggers", "1.0", "--n", "200", "--m", "5",
                       "--replicates", "2", "--out-dir", str(out)) == EXIT_OK
        assert (out / "exp03_table.csv").exists()

    def test_exp04_smoke(self, tmp_path):
        out = tmp_path / "e4"
        assert run_cli("exp04", "--n", "100", "--replicates", "2",
                       "--t-max", "10", "--out-dir", str(out)) == EXIT_OK
        table = (out / "exp04_table.csv").read_text().splitlines()
        assert len(table) == 1 + 4  # (ER, BA) x (sirs, sir-control)
        curves = (out / "exp04_curves.csv").read_text().splitlines()
        assert curves[0].startswith("t,")
