"""The four seeded workloads and the checks on their outputs.

Each workload drives netepi only through its public API and the in-process
CLI (`netepi.cli.dispatch`), with the workload seed passed as `--base-seed`,
`--seed` or a config seed. `prepare` generates the inputs (part of set-up);
`Prepared.run` is the timed part; `Prepared.check` runs afterwards and
marks an operation failed when one of its outputs breaks an invariant.
"""

from __future__ import annotations

import csv
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# |long-run mean I/n - i*| for the well-mixed SIRS run at n = 10^4. Over
# 20 probe seeds the deviation had standard deviation 0.0009, max 0.0018.
WM_TOLERANCE = 0.005
ODE_TOLERANCE = 1e-6


class Ops:
    """Operations attempted in one run, each with its failure reasons."""

    def __init__(self, audit):
        self.audit = audit
        self.reasons: dict[str, list[str]] = {}

    def call(self, label: str, func: Callable, *args, trajectories: int = 0, **kwargs):
        """Run one operation; it fails on an exception or a bad trajectory.

        `trajectories` is the number of engine runs the operation must make.
        """
        reasons = self.reasons.setdefault(label, [])
        before = self.audit.counts()
        try:
            value = func(*args, **kwargs)
        except Exception:  # the benchmark counts the failure and goes on
            reasons.append(traceback.format_exc(limit=4))
            return None
        after = self.audit.counts()
        ran = after["trajectories"] - before["trajectories"]
        if ran != trajectories:
            reasons.append(f"{ran} engine runs observed, {trajectories} expected")
        if after["bad_trajectories"] > before["bad_trajectories"]:
            reasons.append("trajectory invariant broken: " + "; ".join(self.audit.problems))
        return value

    def cli(self, label: str, argv: list[str], trajectories: int = 0) -> None:
        from netepi import cli

        code = self.call(label, cli.dispatch, argv, trajectories=trajectories)
        if code is not None and code != 0:
            self.reasons[label].append(f"exit code {code}")

    def check(self, label: str, ok: bool, message: str) -> None:
        if not ok:
            self.reasons[label].append(message)

    @property
    def attempted(self) -> int:
        return len(self.reasons)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reasons.values() if r)


@dataclass
class Prepared:
    run: Callable[[Ops], None]
    check: Callable[[Ops], None]
    outputs: dict[str, Path]  # operation label -> output file whose SHA-256 is reported


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_table(ops: Ops, label: str, path: Path, rows: int, fractions: tuple[str, ...],
                 text: tuple[str, ...] = ("experiment", "network", "model")) -> None:
    """Row count, every numeric cell finite, fraction columns within [0, 1]."""
    if not path.is_file():
        ops.check(label, False, f"{path.name} missing")
        return
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    ops.check(label, len(table) == rows, f"{path.name}: {len(table)} rows, {rows} expected")
    for lineno, row in enumerate(table, start=2):
        for col, cell in row.items():
            if col in text:
                continue
            try:
                value = float(cell)
            except (TypeError, ValueError):
                ops.check(label, False, f"{path.name}:{lineno} {col}={cell!r} is not a number")
                continue
            ops.check(label, math.isfinite(value), f"{path.name}:{lineno} {col} is {value}")
            if col in fractions:
                ops.check(label, 0.0 <= value <= 1.0, f"{path.name}:{lineno} {col}={value}")


def _time_average(times: np.ndarray, values: np.ndarray, start: float, end: float) -> float:
    """Time-weighted mean of a step function over [start, end]."""
    bounds = np.append(times, end)
    weights = np.clip(bounds[1:], start, end) - np.clip(bounds[:-1], start, end)
    return float(np.sum(weights * values) / np.sum(weights))


def lockdown_dense(seed: int, workdir: Path) -> Prepared:
    """exp03 shape: degree cap at six triggers on BA(3000, 20), via the API."""
    triggers = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
    replicates = 2
    # 5 % infected at t=0, not exp03's 1 %: over eight seeds the event count
    # then spread 3 % (quartile distance over median), not 11 %.
    initial_fraction = 0.05
    table_path = workdir / "exp03_table.csv"

    def run(ops: Ops) -> None:
        from netepi import experiments

        table = ops.call(
            "exp03", experiments.experiment_intervention_timing, triggers,
            n=3000, m=20, cap=5, beta=0.1, gamma=1.0,
            initial_fraction=initial_fraction, t_max=10.0,
            replicates=replicates, base_seed=seed,
            trajectories=len(triggers) * replicates,
        )
        if table is not None:
            with open(table_path, "w", encoding="utf-8") as fh:
                table.write_csv(fh)

    def check(ops: Ops) -> None:
        _check_table(ops, "exp03", table_path, len(triggers),
                     ("mean_windowed_peak", "mean_peak", "mean_scope"))

    return Prepared(run, check, {"exp03": table_path})


def threshold_scan(seed: int, workdir: Path) -> Prepared:
    """exp01 shape: 4 networks x 13 betas x 3 replicates, via the API.

    The sweep is the one `netepi exp01` runs, with its networks and beta
    grid built as Python floats. The CLI path is not used: it writes its
    beta column as `np.float64(...)` under numpy 2, which no CSV reader
    parses, so every run of it fails the table check.
    """
    replicates, n, k_avg = 3, 1000, 10
    betas = [round(float(b), 10) for b in np.linspace(0.0, 0.3, 13)]
    table_path = workdir / "exp01_table.csv"

    def run(ops: Ops) -> None:
        from netepi import experiments
        from netepi.experiments import NetworkSource

        spec = experiments.SweepSpec(
            networks=[NetworkSource.ba(n, 5, label="BA"),
                      NetworkSource.er(n, k_avg / (n - 1), label="ER"),
                      NetworkSource.ws(n, k_avg, 0.1, label="WS"),
                      NetworkSource.well_mixed(n, k_avg, label="well-mixed")],
            betas=betas, gamma=1.0, initial_fraction=0.01, t_max=30.0,
            replicates=replicates, base_seed=seed,
        )
        table = ops.call("exp01", experiments.experiment_scope_sweep, spec,
                         trajectories=len(spec.networks) * len(betas) * replicates)
        if table is not None:
            with open(table_path, "w", encoding="utf-8") as fh:
                table.write_csv(fh)

    def check(ops: Ops) -> None:
        _check_table(ops, "exp01", table_path, 4 * len(betas), ("mean_scope", "mean_peak"))

    return Prepared(run, check, {"exp01": table_path})


def sirs_endemic(seed: int, workdir: Path) -> Prepared:
    """exp04 shape via the CLI, plus a well-mixed SIRS run and its ODE reference."""
    replicates, rows = 2, 4  # ER and BA, each SIRS and SIR control
    n_wm, k_avg, t_max = 10_000, 10.0, 100.0
    argv = ["exp04", "--replicates", str(replicates), "--base-seed", str(seed),
            "--out-dir", str(workdir)]
    wm_path = workdir / "wm_trajectory.npy"  # saved after timing: its CSV takes ~0.8 s
    results: dict = {}

    def run(ops: Ops) -> None:
        import netepi

        ops.cli("exp04", argv, trajectories=rows * replicates)
        params = netepi.RateParams(0.3, 1.0, 0.2)
        results["wm"] = ops.call("well_mixed_sirs", netepi.gillespie_well_mixed,
                                 n_wm, k_avg, params, 0.01, t_max, seed, trajectories=1)
        # The well-mixed infection rate is beta * k_avg, as in the ODE.
        effective = netepi.RateParams(params.beta * k_avg, params.gamma, params.alpha)
        results["i_star"] = netepi.endemic_equilibrium(effective).i
        results["ode"] = ops.call("ode_sirs", netepi.ode_sirs, effective,
                                  netepi.FractionState(0.99, 0.01), t_max)

    def check(ops: Ops) -> None:
        _check_table(ops, "exp04", workdir / "exp04_table.csv", rows,
                     ("long_run_mean_infected",))
        curves = workdir / "exp04_curves.csv"
        if curves.is_file():
            values = np.loadtxt(curves, delimiter=",", skiprows=1)[:, 1:]
            ops.check("exp04", bool(np.all((values >= 0) & (values <= 1))),
                      "mean infected curve outside [0, 1]")
        else:
            ops.check("exp04", False, "exp04_curves.csv missing")
        i_star = results["i_star"]
        traj = results.get("wm")
        if traj is not None:
            np.save(wm_path, np.stack((traj.times, traj.s, traj.i, traj.r)))
            mean = _time_average(traj.times, traj.i / traj.n, t_max / 2, t_max)
            ops.check("well_mixed_sirs", abs(mean - i_star) <= WM_TOLERANCE,
                      f"long-run mean I/n {mean:.5f} vs i* {i_star:.5f}")
        sol = results.get("ode")
        if sol is not None:
            frac = sol.fractions
            ops.check("ode_sirs", bool(np.all(np.isfinite(frac))), "non-finite ODE state")
            ops.check("ode_sirs", bool(np.all(np.abs(frac.sum(axis=1) - 1.0) < 1e-9)),
                      "ODE fractions do not sum to 1")
            ops.check("ode_sirs", abs(frac[-1, 1] - i_star) <= ODE_TOLERANCE,
                      f"ODE i(t_max) {frac[-1, 1]:.8f} vs i* {i_star:.8f}")

    outputs = {"exp04": workdir / "exp04_table.csv", "well_mixed_sirs": wm_path}
    return Prepared(run, check, outputs)


def cli_pipeline_large(seed: int, workdir: Path) -> Prepared:
    """generate -> metrics -> simulate with a mid-run thin, on BA(30000, 5)."""
    n, m, t_max = 30_000, 5, 2.5
    graph, metrics = workdir / "graph.txt", workdir / "metrics.json"
    sim = workdir / "sim"
    config = workdir / "run.json"
    config.write_text(json.dumps({
        "network": {"edge_list": {"path": str(graph)}},
        "rates": {"beta": 0.3, "gamma": 1.0},
        "init": {"fraction": 0.01, "seed": seed},
        "t_max": t_max,
        # During growth, keep 60 % of the edges (density is about 3.3e-4).
        "interventions": [{"t": 1.0, "action": "thin", "target": 2e-4, "seed": seed}],
    }), encoding="utf-8")

    def run(ops: Ops) -> None:
        ops.cli("generate", ["generate", "--model", "ba", "--n", str(n), "--m", str(m),
                             "--seed", str(seed), "--out", str(graph)])
        ops.cli("metrics", ["metrics", str(graph), "--out", str(metrics)])
        ops.cli("simulate", ["simulate", str(config), "--out-dir", str(sim)], trajectories=1)

    def check(ops: Ops) -> None:
        if metrics.is_file():
            report = json.loads(metrics.read_text(encoding="utf-8"))
            ops.check("metrics", report.get("nodes") == n and report.get("edges") == m * (n - m),
                      f"metrics report {report.get('nodes')} nodes, {report.get('edges')} edges")
            ops.check("metrics", _finite(report.get("avg_degree")) and _finite(report.get("density")),
                      "non-finite degree metrics")
            exponent = report.get("power_law_exponent")
            ops.check("metrics", exponent is None or _finite(exponent), "non-finite exponent")
        else:
            ops.check("metrics", False, "metrics.json missing")
        traj_path = sim / "trajectory.csv"
        if traj_path.is_file():
            rows = np.loadtxt(traj_path, delimiter=",", skiprows=1, ndmin=2)
            t, counts = rows[:, 0], rows[:, 1:]
            ops.check("simulate", bool(np.all(np.isfinite(rows))), "non-finite trajectory cell")
            ops.check("simulate", bool(np.all(counts.sum(axis=1) == n)), "S+I+R != n")
            ops.check("simulate", bool(np.all(np.diff(t) >= 0) and t[-1] <= t_max),
                      "trajectory times not ordered within [0, t_max]")
            csv_events = int(np.count_nonzero(np.any(np.diff(counts, axis=0) != 0, axis=1)))
            audited = ops.audit.counts()["network_events"]
            ops.check("simulate", csv_events == audited,
                      f"{csv_events} events in the CSV, {audited} returned by the engine")
        else:
            ops.check("simulate", False, "trajectory.csv missing")
        summary_path = sim / "summary.json"
        if summary_path.is_file():
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            for key in ("peak_infected_fraction", "final_recovered_fraction"):
                value = summary.get(key)
                ops.check("simulate", _finite(value) and 0.0 <= value <= 1.0, f"{key}={value}")
        else:
            ops.check("simulate", False, "summary.json missing")

    outputs = {"generate": graph, "metrics": metrics, "simulate": sim / "trajectory.csv"}
    return Prepared(run, check, outputs)


# Every run is serial (NETEPI_WORKERS=1). Runs with a two-process pool took
# 2.5 to 5.7 s between runs of one seed on a 2-vCPU shared host, which does
# not reliably give the benchmark its second core.
WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "lockdown_dense": lockdown_dense,
    "threshold_scan": threshold_scan,
    "sirs_endemic": sirs_endemic,
    "cli_pipeline_large": cli_pipeline_large,
}
