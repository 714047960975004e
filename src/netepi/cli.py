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
    gillespie_run,
    gillespie_well_mixed,
    init_state,
    summarize_trajectory,
)
from .errors import (
    ConfigError, EdgeListFormatError, NetEpiError, ParameterError, UndefinedMetricError,
)
from .experiments import (
    NETWORK_FIELDS,
    ExperimentTable,
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


def _numbers(want: str = "finite", ok=math.isfinite):
    """Option type: comma-separated numbers, each of them `want` (as `ok` checks)."""

    def parse(text: str) -> list[float]:
        try:
            values = [float(cell) for cell in text.split(",")]
        except ValueError:
            raise ConfigError(f"must be comma-separated numbers, got {text!r}") from None
        for x in values:
            if not ok(x):
                raise ConfigError(f"values must be {want}, got {x!r}")
        return values

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="netepi", description="Epidemic simulation on contact networks")
    parser.add_argument("--version", action="version", version=f"netepi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a graph and emit its edge list")
    gen.set_defaults(run=_cmd_generate)
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
    met.set_defaults(run=_cmd_metrics)
    met.add_argument("edge_list", help="edge-list path, or '-' for stdin")
    met.add_argument("--compact-ids", action="store_true", help="remap sparse ids to 0..n-1")
    met.add_argument("--k-min", type=count, help="pin the power-law fit tail cutoff")
    met.add_argument("--out", help="output path (default stdout)")

    sim = sub.add_parser("simulate", help="single run from a JSON config")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("config", help="run-config JSON path")
    sim.add_argument("--out-dir", default=".", help="where trajectory/summary/manifest go")

    swp = sub.add_parser("sweep", help="generic replicate sweep from a JSON spec")
    swp.set_defaults(run=_cmd_sweep)
    swp.add_argument("config", help="sweep-spec JSON path")
    swp.add_argument("--out-dir", default=".")

    # An option left out never reaches an experiment function or SweepSpec
    # (SUPPRESS): their signatures hold the only defaults.
    for exp_id, helptext, run in (
        ("exp01", "epidemic-scope threshold sweep", _cmd_exp01),
        ("exp02", "ER vs BA density comparison", _cmd_exp02),
        ("exp03", "degree-cap lockdown timing", _cmd_exp03),
        ("exp04", "waning-immunity waves", _cmd_exp04),
    ):
        p = sub.add_parser(exp_id, help=helptext, argument_default=argparse.SUPPRESS)
        p.set_defaults(run=run)
        p.add_argument("--out-dir", default=".")
        p.add_argument("--replicates", type=count)
        p.add_argument("--base-seed", type=_at_least(0, int))
        if exp_id != "exp02":  # exp02's sizes follow its densities
            p.add_argument("--n", type=_at_least(2, int))
        p.add_argument("--t-max", type=positive)
    exp01, exp02, exp03, exp04 = (sub.choices[f"exp0{i}"] for i in range(1, 5))
    exp01.add_argument(
        "--network", action="append", choices=("er", "ws", "ba", "well_mixed"), default=None,
        help="repeatable; default: all four",
    )
    exp01.add_argument("--beta-max", type=rate, default=0.3)
    exp01.add_argument("--beta-steps", type=count, default=13)
    exp02.add_argument("--densities", type=_numbers("in (0, 1]", lambda x: 0 < x <= 1))
    exp02.add_argument("--k-avg", type=positive)
    exp02.add_argument("--beta", type=rate)
    exp03.add_argument("--triggers", dest="trigger_times", metavar="TRIGGERS", type=_numbers())
    exp03.add_argument("--m", type=count)
    exp03.add_argument("--cap", type=_at_least(0, int))
    exp03.add_argument("--beta", type=rate)
    exp04.add_argument("--beta", type=rate)
    exp04.add_argument("--alpha", type=rate)
    for p in (exp01, exp04):
        p.set_defaults(n=1000)  # the node count of their `_networks`
    return parser


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_generate(args) -> None:
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
    g = getattr(NetworkSource, args.model)(**values).build_graph(seed)
    buf = io.StringIO()
    graphs.save_edge_list(g, buf)
    _write_text(args.out, buf.getvalue())


def _cmd_metrics(args) -> None:
    if args.edge_list == "-":
        g = graphs.load_edge_list(sys.stdin.read(), compact_ids=args.compact_ids)
    else:
        g = NetworkSource.edge_list(args.edge_list, args.compact_ids).build_graph(0)
    report = graphs.metrics_report(g, k_min=args.k_min)
    _write_text(args.out, json.dumps(report, indent=2) + "\n")


def _run_config(cfg):
    # One child stream per role, so none alias. generate_state is
    # prefix-stable: init and run keep the words of a two-stream split.
    init_seed, run_seed, graph_seed = (
        int(x) for x in np.random.SeedSequence(cfg.init["seed"]).generate_state(3)
    )
    params = cfg.rates
    initial = cfg.init["fraction"] if "fraction" in cfg.init else cfg.init["count"]
    if cfg.engine == "ode":
        frac = initial if "fraction" in cfg.init else initial / cfg.network.n
        eff = RateParams(params.beta * cfg.network.k_avg, params.gamma, params.alpha)
        sol = ode_sirs(eff, FractionState(1.0 - frac, frac), cfg.t_max, cfg.dt)
        return sol, None
    if cfg.network.kind == "well_mixed":
        traj = gillespie_well_mixed(
            cfg.network.n, cfg.network.k_avg, params, initial, cfg.t_max, run_seed
        )
    else:
        g = cfg.network.build_graph(graph_seed)
        state = init_state(g, initial, init_seed)
        traj = gillespie_run(
            g, params, state, cfg.t_max, run_seed, interventions=cfg.interventions or None
        )
    return traj, summarize_trajectory(traj)


def _cmd_simulate(args) -> None:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    result, summary = _run_config(cfg)  # first, so bad input leaves no out dir behind
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = cfg.output.get("trajectory", out_dir / "trajectory.csv")
    with open(traj_path, "w", encoding="utf-8") as fh:
        result.to_csv(fh)
    if summary is not None:
        summ_path = Path(cfg.output.get("summary", out_dir / "summary.json"))
        summ_path.write_text(summary.to_json() + "\n", encoding="utf-8")
    (out_dir / "manifest.json").write_text(cfg.to_json() + "\n", encoding="utf-8")


def _write_table(table, args) -> None:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{args.command}_table.csv", "w", encoding="utf-8") as fh:
        table.write_csv(fh)
    with open(out_dir / f"{args.command}_manifest.json", "w", encoding="utf-8") as fh:
        table.write_manifest(fh)


def _cmd_sweep(args) -> None:
    spec = parse_sweep_config(Path(args.config).read_text(encoding="utf-8"))
    _write_table(experiment_scope_sweep(spec, experiment_id="sweep"), args)


def _networks(names: Optional[Sequence[str]], n: int) -> list[NetworkSource]:
    """exp01's and exp04's networks of n nodes and mean degree 10; default: all four."""
    k_avg = 10
    sources = {
        "ba": NetworkSource.ba(n, 5, label="BA"),
        "er": NetworkSource.er(n, k_avg / (n - 1), label="ER"),
        "ws": NetworkSource.ws(n, k_avg, 0.1, label="WS"),
        "well_mixed": NetworkSource.well_mixed(n, k_avg, label="well-mixed"),
    }
    return [sources[name] for name in names or sources]


def _options(args, *cli_only: str) -> dict:
    """The options given to an exp subcommand, as its experiment's keywords."""
    return {key: value for key, value in vars(args).items()
            if key not in ("command", "run", "out_dir", *cli_only)}


def _cmd_exp01(args) -> None:
    spec = SweepSpec(
        networks=_networks(args.network, args.n),
        betas=[round(b, 10) for b in np.linspace(0.0, args.beta_max, args.beta_steps)],
        **_options(args, "network", "n", "beta_max", "beta_steps"),
    )
    _write_table(experiment_scope_sweep(spec), args)


def _cmd_exp02(args) -> None:
    _write_table(experiment_density_comparison(**_options(args)), args)


def _cmd_exp03(args) -> None:
    _write_table(experiment_intervention_timing(**_options(args)), args)


def _cmd_exp04(args) -> None:
    table, curves = experiment_sirs(_networks(("er", "ba"), args.n), **_options(args, "n"))
    _write_table(table, args)
    columns = ["t", *curves]
    grid = next(iter(curves.values()))[0]
    series = zip(grid.tolist(), *(curve.tolist() for _, curve in curves.values()))
    rows = [dict(zip(columns, values)) for values in series]
    with open(Path(args.out_dir) / "exp04_curves.csv", "w", encoding="utf-8") as fh:
        ExperimentTable("exp04", columns, rows).write_csv(fh)


def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a parse error (exit 1 or 2), --version or --help
        return int(exc.code or 0)
    try:
        args.run(args)
    except (  # every parameter here comes from the user: a bad one is bad input
        ConfigError, ParameterError, EdgeListFormatError, UndefinedMetricError,
        FileNotFoundError, IsADirectoryError, json.JSONDecodeError, UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NetEpiError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
