import argparse
import contextlib
import copy
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import cli, experiments, graphs
from netepi.cli import EXIT_INPUT, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, dispatch
from netepi.experiments import ExperimentTable, NetworkSource, SweepSpec


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

    @pytest.mark.parametrize("text, code", [
        ("", EXIT_INPUT),  # no node: no degree statistics
        ("# nodes: 1\n", EXIT_OK),
    ], ids=["empty", "one-node"])
    def test_graph_without_nodes_is_bad_input(self, tmp_path, capsys, text, code):
        path, out = tmp_path / "g.txt", tmp_path / "report.json"
        path.write_text(text)
        assert run_cli("metrics", str(path), "--out", str(out)) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert json.loads(out.read_text())["nodes"] == 1
        else:
            assert err == "error: degree statistics undefined on the empty graph\n"
            assert not out.exists()

    @pytest.mark.parametrize("k_min", ["0", "-3", "abc", "2.5"])
    def test_bad_k_min(self, tmp_path, capsys, k_min):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        assert run_cli("metrics", str(path), f"--k-min={k_min}") == EXIT_INPUT
        assert "--k-min" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["metrics", "simulate"])
    def test_directory_path(self, tmp_path, command):
        assert run_cli(command, str(tmp_path)) == EXIT_INPUT

    @pytest.mark.parametrize("text, code", [
        (b"0 1\r1 2\n", EXIT_INPUT),  # a lone \r is not a line break, as in load_edge_list
        (b"0 1\r\n1 2\r\n", EXIT_OK),
    ], ids=["lone-cr", "crlf"])
    def test_line_breaks_as_the_parser_reads_them(self, tmp_path, capsys, text, code):
        path = tmp_path / "g.txt"
        path.write_bytes(text)
        assert run_cli("metrics", str(path)) == code
        captured = capsys.readouterr()
        if code == EXIT_OK:
            assert json.loads(captured.out)["edges"] == 2
        else:
            assert captured.err.startswith("error: line 1: lines must end in")

    def test_non_utf8_bytes(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n\xff\xfe 2\n")
        assert run_cli("metrics", str(path)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("argv", [
        ["--model", "ba", "--n", "1000000000000000000", "--m", "5"],  # its endpoint array
        ["--model", "ba", "--n", "100000000000000000000", "--m", "3"],
        ["--model", "er", "--n", "10000000000000000000", "--p", "0"],
        ["--model", "er", "--n", "2000000000000000000", "--p", "0"],
    ], ids=["ba-endpoints", "ba", "er-past-int64", "er"])
    def test_node_count_past_any_numpy_array(self, tmp_path, capsys, argv):
        # Arrays numpy cannot represent at all (past np.iinfo(np.intp).max
        # bytes) are bad input, checked before any work.
        out = tmp_path / "g.txt"
        assert run_cli("generate", *argv, "--out", str(out)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "do not fit in one array" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "generate"])
    def test_allocation_beyond_any_address_space(self, tmp_path, capsys, command):
        # 10**16 nodes would need a 71 PiB index array, and their edge keys
        # u * n + v overflow int64: bad input, rejected before any allocation.
        path = tmp_path / "huge.txt"
        path.write_text("0 10000000000000000\n")
        argv = ([str(path)] if command == "metrics"
                else ["--model", "er", "--n", "10000000000000000", "--p", "0"])
        assert run_cli(command, *argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: 10000000000000001 nodes exceed" if command == "metrics"
                              else "error: 10000000000000000 nodes exceed")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--model", "er", "--n", "100000000000000000", "--p", "0.5"],
        ["--model", "ws", "--n", "100000000000000000", "--k", "4", "--p-rewire", "0.1"],
    ], ids=["er", "ws"])
    def test_node_count_past_int64_edge_keys(self, tmp_path, capsys, argv):
        # Without the bound, er and ws would build Python lists until memory ran out.
        out = tmp_path / "g.txt"
        assert run_cli("generate", *argv, "--out", str(out)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "nodes exceed 3037000499" in err and err.count("\n") == 1
        assert not out.exists()

    def test_memory_error_is_a_runtime_fault(self, tmp_path, capsys, monkeypatch):
        def generate_er(n, p, seed):
            raise MemoryError("Unable to allocate 71.1 PiB")
        monkeypatch.setattr(graphs, "generate_er", generate_er)
        out = tmp_path / "g.txt"
        assert run_cli("generate", "--model", "er", "--n", "10", "--p", "0",
                       "--out", str(out)) == EXIT_RUNTIME
        assert capsys.readouterr().err == "error: Unable to allocate 71.1 PiB\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("network", [{"well_mixed": {"n": 100, "k_avg": 10}},
                                         {"er": {"n": 100, "p": 0.1}}], ids=["well_mixed", "er"])
    def test_tiny_positive_rate_runs_without_warnings(self, tmp_path, capsys, network):
        # A subnormal infection rate and nothing else: the first wait is inf,
        # past t_max, on both engines, and neither warns (warnings are errors here).
        cfg = self.config(tmp_path, network=network,
                          rates={"beta": 5e-324, "gamma": 0.0, "alpha": 0.0})
        out = tmp_path / "out"
        assert run_cli("simulate", str(cfg), "--out-dir", str(out)) == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,S,I,R" and all(row.endswith(",99,1,0") for row in rows[1:])

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

    @pytest.mark.parametrize("edge_list", [b"1 2 3\n", None, b"0 1\r1 2\n", b"0 1\n\xff\xfe 2\n"],
                             ids=["malformed", "missing", "lone-cr", "non-utf8"])
    def test_bad_edge_list_leaves_no_out_dir(self, tmp_path, capsys, edge_list):
        path = tmp_path / "g.txt"
        if edge_list is not None:
            path.write_bytes(edge_list)
        cfg = self.config(tmp_path, network={"edge_list": {"path": str(path)}})
        out = tmp_path / "out"
        assert run_cli("simulate", str(cfg), "--out-dir", str(out)) == EXIT_INPUT
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"rates": {"beta": -0.1, "gamma": 1.0}},
        {"network": {"ba": {"n": 5, "m": 10}}},
        {"network": {"er": {"n": 50, "p": 0.1}}, "init": {"count": 80, "seed": 5}},
        {"network": {"well_mixed": {"n": 1000, "k_avg": -5}}},
        {"network": {"well_mixed": {"n": 0, "k_avg": 10}}},
        {"network": {"well_mixed": {"n": -3, "k_avg": 10}}},
        {"network": {"well_mixed": {"n": 0, "k_avg": 10}}, "engine": "ode",
         "init": {"count": 1, "seed": 5}},
        {"network": {"well_mixed": {"n": 1000, "k_avg": 10}}, "engine": "ode", "dt": 1e-300},
        {"network": {"well_mixed": {"n": 1000, "k_avg": 10}}, "engine": "ode", "dt": 1e-300,
         "t_max": 1e300},
        {"network": {"well_mixed": {"n": 80, "k_avg": 5}}, "engine": "ode",
         "init": {"count": 0, "seed": 5}},
        {"network": {"well_mixed": {"n": 80, "k_avg": 5}}, "engine": "ode",
         "init": {"fraction": 0.0, "seed": 5}},
        {"network": {"well_mixed": {"n": 80, "k_avg": 5}}, "engine": "ode",
         "init": {"fraction": 1.5, "seed": 5}},
        {"network": {"well_mixed": {"n": 80, "k_avg": 5}}, "engine": "ode",
         "init": {"count": 81, "seed": 5}},
        {"network": {"er": {"n": 30, "p": 0.3}}, "rates": {"beta": 1e308, "gamma": 1.0}},
        {"network": {"well_mixed": {"n": 30, "k_avg": 10}},
         "rates": {"beta": 1e308, "gamma": 1.0}},
        {"network": {"well_mixed": {"n": 1000, "k_avg": 10}}, "engine": "ode",
         "rates": {"beta": 50, "gamma": 1.0}},
        {"network": {"well_mixed": {"n": 500, "k_avg": 10}}, "engine": "abm"},
    ], ids=["negative-beta", "ba-m-not-below-n", "count-above-n", "well-mixed-negative-k",
            "well-mixed-n-zero", "well-mixed-n-negative", "ode-n-zero", "ode-grid-too-large",
            "ode-grid-steps-infinite", "ode-count-zero", "ode-fraction-zero",
            "ode-fraction-above-one", "ode-count-above-n", "network-rate-overflow",
            "well-mixed-rate-overflow", "ode-unstable-step", "abm-engine"])
    def test_range_error_is_bad_input(self, tmp_path, capsys, overrides):
        cfg = self.config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert run_cli("simulate", str(cfg), "--out-dir", str(out)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, path", [
        ("simulate", "interventions[1]"), ("sweep", "sweep.intervention"),
    ])
    def test_intervention_error_names_its_block(self, tmp_path, capsys, command, path):
        block = {"t": 2, "action": "degree_cap"}  # no cap
        if command == "simulate":
            doc = {"network": {"er": {"n": 50, "p": 0.1}}, "rates": {"beta": 0.2, "gamma": 1.0},
                   "init": {"fraction": 0.1, "seed": 5}, "t_max": 5.0,
                   "interventions": [{"t": 1, "action": "thin", "target": 0.05}, block]}
        else:
            doc = {"networks": [{"er": {"n": 50, "p": 0.1}}], "betas": [0.1], "replicates": 1,
                   "t_max": 1.0, "intervention": block}
        cfg, out = tmp_path / "in.json", tmp_path / "out"
        cfg.write_text(json.dumps(doc))
        assert run_cli(command, str(cfg), "--out-dir", str(out)) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}: degree_cap needs a cap >= 0\n"
        assert not out.exists()

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b'{"t_max": \xff}')
        out = tmp_path / "out"
        assert run_cli("simulate", str(path), "--out-dir", str(out)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
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
    if not path:  # the whole document
        return copy.deepcopy(value)
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


def _simulate(doc, command: str = "simulate") -> tuple[int, str]:
    """`netepi <command>` (simulate or sweep) on `doc`, in a fresh directory."""
    with _in_fresh_dir():
        with open("run.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = dispatch([command, "run.json", "--out-dir", "out"])
        if code != EXIT_OK:  # a failed run writes nothing
            assert os.listdir(".") == ["run.json"]
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
        # Numbers are checked, not coerced: no bool, string or fraction
        # for an integer, no bool or string for a number.
        (("network", "er", "n"), True),
        (("network", "er", "n"), 100.7),
        (("network", "er", "n"), "100"),
        (("rates", "beta"), "0.5"),
        (("rates", "beta"), True),
        (("init", "seed"), 2.9),
        (("init",), {"count": 3.9, "seed": 3}),
        (("t_max",), "5"),
        (("network",), {"ba": {"n": 1e20, "m": 3}}),  # offsets past any numpy array
        (("network",), {"well_mixed": {"n": 1e17, "k_avg": 5}}),  # counts past 2**53
        (("interventions", 0, "seed"), -1),
        (("interventions", 0), {"t": 1.0, "action": "thin", "target": 0.01, "seed": -1}),
        (("network",), {"well_mixed": {"n": 40, "k_avg": 4}}),  # no graph to intervene on
        # A field its action does not read.
        (("interventions",), [{"t": 1.0, "action": "thin", "target": 0.05, "cap": 3},
                              {"t": 1.5, "action": "degree_cap", "cap": 2, "target": 0.9}]),
        pytest.param((), {**VALID_CONFIG, "network": {"well_mixed": {"n": 40, "k_avg": 4}},
                          "engine": "ode", "interventions": []},  # ode writes no summary
                     id="ode-with-summary"),
    ])
    def test_fails_at_parse_time(self, path, value):
        code, err = _simulate(_with(VALID_CONFIG, path, value))
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and "Traceback" not in err and err.count("\n") == 1

    def test_integral_float_loads_as_an_integer(self):
        doc = _with(VALID_CONFIG, ("network", "er", "n"), 4e1)
        assert _simulate(doc) == (EXIT_OK, "")

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
        ("networks", 5), ("networks", [{"well_mixed": {"n": 50, "k_avg": -5}}]),
        ("replicates", 1.9), ("replicates", True), ("base_seed", 2.9), ("t_max", "5"),
        ("betas", [True]), ("betas", ["0.5"]), ("base_seed", -1),
        ("intervention", {"t": 0.5, "action": "degree_cap", "cap": 2, "seed": -1}),
        ("networks", []),
    ])
    def test_bad_sweep_value(self, tmp_path, capsys, key, value):
        doc = {"networks": [{"well_mixed": {"n": 50, "k_avg": 5}}], "betas": [0.1],
               "replicates": 1, "t_max": 1.0}
        doc[key] = value
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("sweep", str(spec), "--out-dir", str(out)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


def _fuzz_config(network: dict, **extra) -> dict:
    doc = {"network": network, "rates": {"beta": 0.5, "gamma": 1.0, "alpha": 0.1},
           "init": {"fraction": 0.1, "seed": 3}, "t_max": 2.0}
    doc.update(extra)
    return doc


# One small config per network source and engine, and one sweep spec.
FUZZ_SIMULATE = {
    "er-degree-cap": _fuzz_config(
        {"er": {"n": 30, "p": 0.2}},
        interventions=[{"t": 0.5, "action": "degree_cap", "cap": 2, "seed": 1}]),
    "ws-thin": _fuzz_config(
        {"ws": {"n": 30, "k": 4, "p_rewire": 0.1}},
        interventions=[{"t": 0.5, "action": "thin", "target": 0.05, "seed": 1}]),
    "ba": _fuzz_config({"ba": {"n": 30, "m": 2}}),
    "edge-list": _fuzz_config({"edge_list": {"path": "set by the test"}}),
    "well-mixed": _fuzz_config({"well_mixed": {"n": 30, "k_avg": 4}}),
    "ode": _fuzz_config({"well_mixed": {"n": 30, "k_avg": 4}}, engine="ode", dt=0.05),
}
FUZZ_SWEEP = {
    "networks": [{"er": {"n": 30, "p": 0.2}}, {"well_mixed": {"n": 30, "k_avg": 4}}],
    "betas": [0.5], "gamma": 1.0, "alpha": 0.1, "initial_fraction": 0.1, "t_max": 2.0,
    "replicates": 2, "base_seed": 1,
    "intervention": {"t": 0.5, "action": "degree_cap", "cap": 2, "seed": 1},
    "measure_from": 1.0,
}


class TestNumericLeafFuzz:
    """Every numeric leaf set in turn to -1, then to 0: the run either
    succeeds (exit 0) or is bad input (exit 2, one `error:` line), and
    `dispatch` never raises."""

    @staticmethod
    def failures(doc, command: str) -> list:
        bad = []
        for path in _leaf_paths(doc):
            leaf = doc
            for key in path:
                leaf = leaf[key]
            if type(leaf) not in (int, float):  # bool is an int
                continue
            for value in (-1, 0):
                try:
                    code, err = _simulate(_with(doc, path, value), command)
                except Exception as exc:  # every escape is a failure
                    bad.append((path, value, repr(exc)))
                    continue
                if code != EXIT_OK and not (
                        code == EXIT_INPUT and err.startswith("error: ") and err.count("\n") == 1):
                    bad.append((path, value, code, err))
        return bad

    @pytest.mark.parametrize("name", sorted(FUZZ_SIMULATE))
    def test_simulate_config(self, tmp_path, name):
        doc = FUZZ_SIMULATE[name]
        if "edge_list" in doc["network"]:
            assert run_cli("generate", "--model", "ba", "--n", "30", "--m", "2",
                           "--out", str(tmp_path / "g.txt")) == EXIT_OK
            doc = _with(doc, ("network", "edge_list", "path"), str(tmp_path / "g.txt"))
        assert _simulate(doc) == (EXIT_OK, "")
        assert self.failures(doc, "simulate") == []

    def test_sweep_spec(self):
        assert _simulate(FUZZ_SWEEP, "sweep") == (EXIT_OK, "")
        assert self.failures(FUZZ_SWEEP, "sweep") == []


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

    @pytest.mark.parametrize("fraction", [1.5, 0])
    def test_bad_initial_fraction_fails_before_any_graph(self, tmp_path, monkeypatch, capsys,
                                                          fraction):
        builds = []
        for model in ("er", "ws", "ba"):
            real = getattr(graphs, f"generate_{model}")
            monkeypatch.setattr(graphs, f"generate_{model}",
                                lambda *args, real=real: builds.append(args) or real(*args))
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "networks": [{"ba": {"n": 50, "m": 2}}], "betas": [0.1],
            "initial_fraction": fraction, "replicates": 1, "t_max": 1.0,
        }))
        out = tmp_path / "out"
        assert run_cli("sweep", str(spec), "--out-dir", str(out)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == (f"error: initial infected fraction must be in (0, 1], "
                       f"got {float(fraction)}\n")
        assert builds == [] and not out.exists()

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
        (["exp03", "--triggers", "20"], EXIT_INPUT),  # finite but past t_max
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
                       "--out-dir", str(tmp_path / "out")) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["exp03", "--n", "60", "--m", "100"],
        ["exp01", "--n", "5", "--network", "ws"],
    ], ids=" ".join)
    def test_range_error_is_bad_input(self, tmp_path, capsys, argv):
        # Values the option types accept but the model does not (m >= n, k >= n).
        out = tmp_path / "out"
        assert run_cli(*argv, "--replicates", "1", "--out-dir", str(out)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

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


COMMON_EXP_OPTIONS = {"-h", "--help", "--out-dir", "--replicates", "--base-seed", "--t-max"}
EXP_OPTIONS = {
    "exp01": {"--n", "--network", "--beta-max", "--beta-steps"},
    "exp02": {"--densities", "--k-avg", "--beta"},
    "exp03": {"--n", "--triggers", "--m", "--cap", "--beta"},
    "exp04": {"--n", "--beta", "--alpha"},
}


def _exp_parsers() -> dict:
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: p for name, p in sub.choices.items() if name.startswith("exp")}


class TestExpOptionsPassThrough:
    """exp01-exp04 hand the options given, and only those, to their
    experiment (exp01: to its SweepSpec)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {}

        def recorder(command, result):
            def record(*args, **kwargs):
                calls[command] = (args, kwargs)
                return result
            return record

        table = ExperimentTable("stub", ["a"], [{"a": 1}])
        curves = {"ER": (np.array([0.0, 0.5]), np.array([0.25, 0.1])),
                  "ER[sir-control]": (np.array([0.0, 0.5]), np.array([0.3, 0.0]))}
        monkeypatch.setattr(cli, "experiment_scope_sweep", recorder("exp01", table))
        monkeypatch.setattr(cli, "experiment_density_comparison", recorder("exp02", table))
        monkeypatch.setattr(cli, "experiment_intervention_timing", recorder("exp03", table))
        monkeypatch.setattr(cli, "experiment_sirs", recorder("exp04", (table, curves)))
        return calls

    @pytest.mark.parametrize("command", ["exp02", "exp03", "exp04"])
    def test_options_left_out_pass_no_keyword(self, tmp_path, calls, command):
        assert run_cli(command, "--out-dir", str(tmp_path)) == EXIT_OK
        args, kwargs = calls[command]
        assert kwargs == {}
        if command == "exp04":  # the CLI's own ER/BA pair at the default --n
            assert args == ([NetworkSource.er(1000, 10 / 999, label="ER"),
                             NetworkSource.ba(1000, 5, label="BA")],)
        else:
            assert args == ()
        assert (tmp_path / f"{command}_table.csv").read_text() == "a\n1\n"

    def test_exp01_options_left_out_take_the_sweep_defaults(self, tmp_path, calls):
        assert run_cli("exp01", "--out-dir", str(tmp_path)) == EXIT_OK
        (spec,), kwargs = calls["exp01"]
        assert kwargs == {}
        assert spec.networks == [NetworkSource.ba(1000, 5, label="BA"),
                                 NetworkSource.er(1000, 10 / 999, label="ER"),
                                 NetworkSource.ws(1000, 10, 0.1, label="WS"),
                                 NetworkSource.well_mixed(1000, 10, label="well-mixed")]
        assert spec.betas == [round(b, 10) for b in np.linspace(0.0, 0.3, 13)]
        for f in dataclasses.fields(SweepSpec)[2:]:
            assert getattr(spec, f.name) == f.default, f.name

    def test_exp01_given_options_pass_as_parsed(self, tmp_path, calls):
        assert run_cli("exp01", "--network", "er", "--n", "60", "--beta-max", "0.2",
                       "--beta-steps", "3", "--replicates", "7", "--base-seed", "3",
                       "--t-max", "2.5", "--out-dir", str(tmp_path)) == EXIT_OK
        (spec,), kwargs = calls["exp01"]
        assert spec == SweepSpec(networks=[NetworkSource.er(60, 10 / 59, label="ER")],
                                 betas=[0.0, 0.1, 0.2], t_max=2.5, replicates=7, base_seed=3)
        assert (type(spec.replicates), type(spec.base_seed), type(spec.t_max)) == (int, int, float)

    def test_given_options_pass_as_parsed(self, tmp_path, calls):
        assert run_cli("exp03", "--triggers", "0.5,1", "--cap", "3",
                       "--out-dir", str(tmp_path)) == EXIT_OK
        args, kwargs = calls["exp03"]
        assert args == () and kwargs == {"trigger_times": [0.5, 1.0], "cap": 3}
        assert [type(t) for t in kwargs["trigger_times"]] == [float, float]

    def test_option_strings(self):
        options = {name: {s for a in p._actions for s in a.option_strings}
                   for name, p in _exp_parsers().items()}
        assert options == {name: COMMON_EXP_OPTIONS | own for name, own in EXP_OPTIONS.items()}

    @pytest.mark.parametrize("command, experiment, cli_only", [
        ("exp01", SweepSpec, {"network", "n", "beta_max", "beta_steps"}),
        ("exp02", experiments.experiment_density_comparison, set()),
        ("exp03", experiments.experiment_intervention_timing, set()),
        ("exp04", experiments.experiment_sirs, {"n"}),
    ])
    def test_every_option_is_a_parameter(self, command, experiment, cli_only):
        dests = {a.dest for a in _exp_parsers()[command]._actions} - {"help", "out_dir"}
        assert dests - cli_only <= set(inspect.signature(experiment).parameters)
