"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 runtime or
simulation error. All randomness flows from explicit seeds; `generate
--seed auto` draws one from OS entropy and prints it.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import secrets
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, graphs
from .config import parse_config, parse_sweep_config
from .dynamics import (
    RateParams,
    abm_run,
    gillespie_run,
    gillespie_well_mixed,
    init_state,
    summarize_trajectory,
)
from .errors import ConfigError, EdgeListFormatError, NetEpiError, ParameterError
from .experiments import (
    NETWORK_FIELDS,
    NetworkSource,
    SweepSpec,
    experiment_density_comparison,
    experiment_intervention_timing,
    experiment_scope_sweep,
    experiment_sirs,
)
from .ode import FractionState, ode_sirs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        err = sys.exc_info()[1]  # the ArgumentError being handled, if any
        bad_value = isinstance(getattr(err, "__context__", None), ConfigError)
        if bad_value:  # raised by an option type below: bad input, not bad usage
            message = f"argument {err.argument_name}: {err.__context__}"
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT if bad_value else EXIT_USAGE)


def _at_least(low: float, kind: type = float, strict: bool = False):
    """Option type: a finite `kind` number >= low (> low if strict)."""

    def parse(text: str):
        try:
            x = kind(text)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and (x > low if strict else x >= low)):
            noun = "an integer" if kind is int else "a finite number"
            raise ConfigError(f"must be {noun} {'>' if strict else '>='} {low}, got {text!r}")
        return x

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="netepi", description="Epidemic simulation on contact networks")
    parser.add_argument("--version", action="version", version=f"netepi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a graph and emit its edge list")
    gen.add_argument("--model", choices=("er", "ws", "ba"), required=True)
    rate, positive, count = _at_least(0.0), _at_least(0.0, strict=True), _at_least(1, int)
    gen.add_argument("--n", type=_at_least(0, int), required=True)
    gen.add_argument("--p", type=rate, help="ER edge probability")
    gen.add_argument("--k", type=count, help="WS ring degree")
    gen.add_argument("--p-rewire", type=rate, help="WS rewiring probability")
    gen.add_argument("--m", type=count, help="BA edges per new node")
    gen.add_argument("--seed", default="0", help="integer seed, or 'auto'")
    gen.add_argument("--out", help="output path (default stdout)")

    met = sub.add_parser("metrics", help="measure a graph from an edge-list file")
    met.add_argument("edge_list", help="edge-list path, or '-' for stdin")
    met.add_argument("--compact-ids", action="store_true", help="remap sparse ids to 0..n-1")
    met.add_argument("--k-min", type=count, help="pin the power-law fit tail cutoff")
    met.add_argument("--out", help="output path (default stdout)")

    sim = sub.add_parser("simulate", help="single run from a JSON config")
    sim.add_argument("config", help="run-config JSON path")
    sim.add_argument("--out-dir", default=".", help="where trajectory/summary/manifest go")

    swp = sub.add_parser("sweep", help="generic replicate sweep from a JSON spec")
    swp.add_argument("config", help="sweep-spec JSON path")
    swp.add_argument("--out-dir", default=".")

    for exp_id, helptext, n, t_max in (
        ("exp01", "epidemic-scope threshold sweep", 1000, 30.0),
        ("exp02", "ER vs BA density comparison", None, 30.0),
        ("exp03", "degree-cap lockdown timing", 3000, 10.0),
        ("exp04", "waning-immunity waves", 1000, 100.0),
    ):
        p = sub.add_parser(exp_id, help=helptext)
        p.add_argument("--out-dir", default=".")
        p.add_argument("--replicates", type=count, default=50)
        p.add_argument("--base-seed", type=_at_least(0, int), default=0)
        if n is not None:  # exp02's sizes follow its densities
            p.add_argument("--n", type=_at_least(2, int), default=n)
        p.add_argument("--t-max", type=positive, default=t_max)
        if exp_id == "exp01":
            p.add_argument(
                "--network", action="append", choices=("er", "ws", "ba", "well_mixed"),
                help="repeatable; default: all four",
            )
            p.add_argument("--beta-max", type=rate, default=0.3)
            p.add_argument("--beta-steps", type=count, default=13)
        elif exp_id == "exp02":
            p.add_argument("--densities", default="0.001,0.002,0.003,0.005,0.0075,0.01")
            p.add_argument("--k-avg", type=positive, default=10.0)
            p.add_argument("--beta", type=rate, default=0.1)
        elif exp_id == "exp03":
            p.add_argument("--triggers", default="0.25,0.5,0.75,1,1.25,1.5")
            p.add_argument("--m", type=count, default=20)
            p.add_argument("--cap", type=_at_least(0, int), default=5)
            p.add_argument("--beta", type=rate, default=0.1)
        else:
            p.add_argument("--beta", type=rate, default=0.3)
            p.add_argument("--alpha", type=rate, default=0.2)
    return parser


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_generate(args) -> int:
    if args.seed == "auto":
        seed = secrets.randbits(63)
        print(f"seed: {seed}", file=sys.stderr)
    elif args.seed.strip().isdecimal():
        seed = int(args.seed)
    else:
        raise ConfigError(f"--seed must be a non-negative integer or 'auto', got {args.seed!r}")
    # Each field of the model is the option of the same name (p_rewire: --p-rewire).
    values = {name: getattr(args, name) for name in NETWORK_FIELDS[args.model]}
    missing = [f"--{name.replace('_', '-')}" for name, v in values.items() if v is None]
    if missing:
        raise ConfigError(f"--model {args.model} requires {' and '.join(missing)}")
    try:
        g = getattr(NetworkSource, args.model)(**values).build_graph(seed)
    except ParameterError as exc:  # a value out of the model's range, such as --p 2.0
        raise ConfigError(str(exc)) from None
    buf = io.StringIO()
    graphs.save_edge_list(g, buf)
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def _cmd_metrics(args) -> int:
    if args.edge_list == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.edge_list).read_text(encoding="utf-8")
    g = graphs.load_edge_list(text, compact_ids=args.compact_ids)
    report = graphs.metrics_report(g, k_min=args.k_min)
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def _run_config(cfg):
    # One child stream per role, so none alias. generate_state is
    # prefix-stable: init and run keep the words of a two-stream split.
    init_seed, run_seed, graph_seed = (
        int(x) for x in np.random.SeedSequence(cfg.seed).generate_state(3)
    )
    params = RateParams(cfg.beta, cfg.gamma, cfg.alpha)
    if cfg.engine == "ode":
        n = cfg.network.n
        frac = (
            cfg.initial_infected
            if isinstance(cfg.initial_infected, float)
            else cfg.initial_infected / n
        )
        eff = RateParams(cfg.beta * cfg.network.k_avg, cfg.gamma, cfg.alpha)
        sol = ode_sirs(eff, FractionState(1.0 - frac, frac), cfg.t_max, cfg.dt)
        return sol, None
    if cfg.engine == "abm":
        steps = int(round(cfg.t_max))
        traj = abm_run(cfg.network.n, params, cfg.initial_infected, steps, run_seed)
    elif cfg.network.kind == "well_mixed":
        traj = gillespie_well_mixed(
            cfg.network.n, cfg.network.k_avg, params, cfg.initial_infected,
            cfg.t_max, run_seed,
        )
    else:
        g = cfg.network.build_graph(graph_seed)
        state = init_state(g, cfg.initial_infected, init_seed)
        traj = gillespie_run(
            g, params, state, cfg.t_max, run_seed, interventions=cfg.interventions or None
        )
    return traj, summarize_trajectory(traj)


def _cmd_simulate(args) -> int:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result, summary = _run_config(cfg)
    traj_path = Path(cfg.trajectory_path) if cfg.trajectory_path else out_dir / "trajectory.csv"
    with open(traj_path, "w", encoding="utf-8") as fh:
        result.to_csv(fh)
    if summary is not None:
        summ_path = Path(cfg.summary_path) if cfg.summary_path else out_dir / "summary.json"
        summ_path.write_text(summary.to_json() + "\n", encoding="utf-8")
    (out_dir / "manifest.json").write_text(cfg.to_json() + "\n", encoding="utf-8")
    return EXIT_OK


def _write_table(table, out_dir: Path, stem: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{stem}_table.csv", "w", encoding="utf-8") as fh:
        table.write_csv(fh)
    with open(out_dir / f"{stem}_manifest.json", "w", encoding="utf-8") as fh:
        table.write_manifest(fh)


def _cmd_sweep(args) -> int:
    spec = parse_sweep_config(Path(args.config).read_text(encoding="utf-8"))
    table = experiment_scope_sweep(spec, experiment_id="sweep")
    _write_table(table, Path(args.out_dir), "sweep")
    return EXIT_OK


def _number_list(args, option: str) -> list[float]:
    """`--densities` or `--triggers` as finite numbers; densities lie in (0, 1]."""
    text = getattr(args, option)
    try:
        values = [float(cell) for cell in text.split(",")]
    except ValueError:
        raise ConfigError(f"--{option} must be comma-separated numbers, got {text!r}") from None
    for x in values:
        if not math.isfinite(x) or (option == "densities" and not 0 < x <= 1):
            want = "in (0, 1]" if option == "densities" else "finite"
            raise ConfigError(f"--{option} values must be {want}, got {x!r}")
    return values


def _exp01_networks(names: Optional[Sequence[str]], n: int) -> list[NetworkSource]:
    k_avg = 10
    builders = {
        "ba": lambda: NetworkSource.ba(n, 5, label="BA"),
        "er": lambda: NetworkSource.er(n, k_avg / (n - 1), label="ER"),
        "ws": lambda: NetworkSource.ws(n, k_avg, 0.1, label="WS"),
        "well_mixed": lambda: NetworkSource.well_mixed(n, k_avg, label="well-mixed"),
    }
    return [builders[name]() for name in (names or ("ba", "er", "ws", "well_mixed"))]


def _cmd_exp(args) -> int:
    out_dir = Path(args.out_dir)
    if args.command == "exp01":
        spec = SweepSpec(
            networks=_exp01_networks(args.network, args.n),
            betas=[round(b, 10) for b in np.linspace(0.0, args.beta_max, args.beta_steps)],
            gamma=1.0,
            initial_fraction=0.01,
            t_max=args.t_max,
            replicates=args.replicates,
            base_seed=args.base_seed,
        )
        _write_table(experiment_scope_sweep(spec), out_dir, "exp01")
    elif args.command == "exp02":
        table = experiment_density_comparison(
            densities=_number_list(args, "densities"),
            k_avg=args.k_avg,
            beta=args.beta,
            t_max=args.t_max,
            replicates=args.replicates,
            base_seed=args.base_seed,
        )
        _write_table(table, out_dir, "exp02")
    elif args.command == "exp03":
        table = experiment_intervention_timing(
            trigger_times=_number_list(args, "triggers"),
            n=args.n,
            m=args.m,
            cap=args.cap,
            beta=args.beta,
            t_max=args.t_max,
            replicates=args.replicates,
            base_seed=args.base_seed,
        )
        _write_table(table, out_dir, "exp03")
    else:
        networks = [
            NetworkSource.er(args.n, 10 / (args.n - 1), label="ER"),
            NetworkSource.ba(args.n, 5, label="BA"),
        ]
        table, curves = experiment_sirs(
            networks,
            beta=args.beta,
            alpha=args.alpha,
            t_max=args.t_max,
            replicates=args.replicates,
            base_seed=args.base_seed,
        )
        _write_table(table, out_dir, "exp04")
        labels = list(curves)
        grid = curves[labels[0]][0]
        with open(out_dir / "exp04_curves.csv", "w", encoding="utf-8") as fh:
            fh.write("t," + ",".join(labels) + "\n")
            for idx, t in enumerate(grid):
                cells = [repr(float(curves[lab][1][idx])) for lab in labels]
                fh.write(f"{float(t)!r}," + ",".join(cells) + "\n")
    return EXIT_OK


def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a parse error (exit 1 or 2), --version or --help
        return int(exc.code or 0)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_exp(args)
    except (
        ConfigError, EdgeListFormatError, FileNotFoundError, IsADirectoryError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NetEpiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
