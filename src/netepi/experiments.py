"""Replicate sweeps reproducing the four study experiments as tidy tables.

Replicate i of every sweep point (beta, trigger or waning rate) draws its
seeds from base_seed + i alone, so all points of a network run on the same
graphs and initial states: common random numbers across points. Sweeps are
therefore replicate-major: one task per (network, replicate) builds its
graph and initial state once and runs every point on them, and each
experiment submits all its tasks as one batch. Seeds are assigned before
dispatch, so results do not depend on execution order. Set
NETEPI_WORKERS > 1 to run a batch in a process pool.
"""

from __future__ import annotations

import json
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import IO, Optional, Sequence

import numpy as np

from . import graphs
from .dynamics import (
    RateParams,
    gillespie_run,
    gillespie_well_mixed,
    init_state,
    summarize_trajectory,
)
from .errors import ConfigError, ParameterError
from .graphs import Graph
from .interventions import InterventionSpec

WORKERS_ENV = "NETEPI_WORKERS"


# Fields of each network-source kind, with their types, in the argument
# order of both the NetworkSource.<kind> constructor and graphs.generate_<kind>.
NETWORK_FIELDS: dict[str, dict[str, type]] = {
    "er": {"n": int, "p": float},
    "ws": {"n": int, "k": int, "p_rewire": float},
    "ba": {"n": int, "m": int},
    "edge_list": {"path": str, "compact_ids": bool},
    "well_mixed": {"n": int, "k_avg": float},
}
OPTIONAL_NETWORK_FIELDS = {"compact_ids"}  # the constructor supplies the default


@dataclass(frozen=True)
class NetworkSource:
    """Where a sweep gets its contact structure from."""

    kind: str  # a key of NETWORK_FIELDS
    label: str
    n: int = 0
    p: float = 0.0
    k: int = 0
    p_rewire: float = 0.0
    m: int = 0
    k_avg: float = 0.0
    path: Optional[str] = None
    compact_ids: bool = False

    @staticmethod
    def er(n: int, p: float, label: Optional[str] = None) -> "NetworkSource":
        return NetworkSource("er", label or f"er(n={n},p={p})", n=n, p=p)

    @staticmethod
    def ws(n: int, k: int, p_rewire: float, label: Optional[str] = None) -> "NetworkSource":
        return NetworkSource(
            "ws", label or f"ws(n={n},k={k},p={p_rewire})", n=n, k=k, p_rewire=p_rewire
        )

    @staticmethod
    def ba(n: int, m: int, label: Optional[str] = None) -> "NetworkSource":
        return NetworkSource("ba", label or f"ba(n={n},m={m})", n=n, m=m)

    @staticmethod
    def edge_list(path: str, compact_ids: bool = False, label: Optional[str] = None) -> "NetworkSource":
        return NetworkSource(
            "edge_list", label or f"edge_list({path})", path=path, compact_ids=compact_ids
        )

    @staticmethod
    def well_mixed(n: int, k_avg: float, label: Optional[str] = None) -> "NetworkSource":
        return NetworkSource(
            "well_mixed", label or f"well_mixed(n={n},k={k_avg})", n=n, k_avg=k_avg
        )

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in NETWORK_FIELDS[self.kind]}

    def build_graph(self, seed: int) -> Graph:
        if self.kind == "well_mixed":
            raise ParameterError(f"{self.kind!r} source has no graph form")
        if self.kind == "edge_list":
            with open(self.path, encoding="utf-8") as fh:
                return graphs.load_edge_list(fh, compact_ids=self.compact_ids)
        # Looked up per call, so a wrapper installed on the module applies.
        generate = getattr(graphs, f"generate_{self.kind}")
        return generate(*self._fields().values(), seed)

    def to_dict(self) -> dict:
        return {self.kind: self._fields()}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: networks x infection-rate grid, fixed everything else."""

    networks: Sequence[NetworkSource]
    betas: Sequence[float]
    gamma: float = 1.0
    alpha: float = 0.0
    initial_fraction: float = 0.01
    t_max: float = 30.0
    replicates: int = 50
    base_seed: int = 0
    intervention: Optional[InterventionSpec] = None
    measure_from: Optional[float] = None  # windowed-max measurement start

    def __post_init__(self):
        if self.replicates < 1:
            raise ParameterError("replicates must be >= 1")
        if not self.betas:
            raise ParameterError("beta grid must be non-empty")
        if any(b < 0 for b in self.betas):
            raise ParameterError("beta values must be >= 0")

    def to_dict(self) -> dict:
        return {
            "networks": [src.to_dict() for src in self.networks],
            "betas": list(self.betas),
            "gamma": self.gamma,
            "alpha": self.alpha,
            "initial_fraction": self.initial_fraction,
            "t_max": self.t_max,
            "replicates": self.replicates,
            "base_seed": self.base_seed,
            "intervention": self.intervention.to_dict() if self.intervention else None,
            "measure_from": self.measure_from,
        }


@dataclass
class ExperimentTable:
    """Tidy rows plus the resolved spec that produced them."""

    experiment: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    manifest: dict = field(default_factory=dict)

    def write_csv(self, stream: IO[str]) -> None:
        stream.write(",".join(self.columns) + "\n")
        for row in self.rows:
            stream.write(",".join(_csv_cell(row.get(c)) for c in self.columns) + "\n")

    def write_manifest(self, stream: IO[str]) -> None:
        json.dump({"experiment": self.experiment, **self.manifest}, stream, indent=2)
        stream.write("\n")

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))  # np.float64 reprs as "np.float64(...)" under numpy 2
    return str(x)


def _replicate_seeds(base_seed: int, index: int) -> tuple[int, int, int]:
    # One child stream per role so graph, seeding and event draws never alias.
    g, i, r = np.random.SeedSequence(base_seed + index).generate_state(3)
    return int(g), int(i), int(r)


def _observe(traj, point: dict) -> dict:
    summary = summarize_trajectory(traj)
    out = {
        "scope": summary.final_recovered_fraction,
        "peak": summary.peak_infected_fraction,
        "peak_time": summary.peak_time,
    }
    if point["measure_from"] is not None:
        mask = traj.times >= point["measure_from"]
        out["windowed_peak"] = float(np.max(traj.i[mask])) / traj.n if np.any(mask) else 0.0
    if point["grid"] is not None:
        _, i_counts, _ = traj.counts_at(point["grid"])
        out["i_curve"] = i_counts / traj.n
    return out


def _one_replicate(args: dict) -> list[dict]:
    """One replicate at every point of its source, one result per point.

    The graph (`args["graph"]`, an edge list read once per sweep, or else
    built from the replicate's seed) and initial state are built once and
    shared by all points.
    Module-level so a process pool can pickle it.
    """
    source: NetworkSource = args["source"]
    graph_seed, init_seed, run_seed = _replicate_seeds(args["base_seed"], args["index"])
    fraction, t_max = args["initial_fraction"], args["t_max"]
    if source.kind != "well_mixed":
        g = args["graph"] or source.build_graph(graph_seed)
        state = init_state(g, fraction, init_seed)
    out = []
    for point in args["points"]:
        if source.kind == "well_mixed":
            traj = gillespie_well_mixed(source.n, source.k_avg, point["params"], fraction,
                                        t_max, run_seed)
        else:
            traj = gillespie_run(g, point["params"], state, t_max, run_seed,
                                 interventions=point["interventions"])
        out.append(_observe(traj, point))
    return out


def _run_batch(tasks: list[dict]) -> list[list[dict]]:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
        if workers < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}") from None
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_one_replicate, tasks))
    return [_one_replicate(t) for t in tasks]


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    std = statistics.pstdev(values) if len(values) > 1 else 0.0
    return mean, std


def _point(spec: SweepSpec, beta: float, grid: Optional[np.ndarray] = None) -> dict:
    """One sweep point: its rates and intervention, and what to observe;
    with a time grid, each replicate also returns its infected curve on it."""
    return {
        "params": RateParams(beta, spec.gamma, spec.alpha),
        "interventions": [spec.intervention] if spec.intervention else None,
        "measure_from": spec.measure_from,
        "grid": grid,
    }


def _sweep(spec: SweepSpec, plan: Sequence[tuple[NetworkSource, list[dict]]]) -> list[list[dict]]:
    """Run every (source, points) of `plan` as one batch, one task per replicate.

    `spec` supplies what all points share: replicates, base seed, initial
    fraction and t_max. Returns each point's results in replicate order,
    the points in plan order.
    """
    plan = [(source, points) for source, points in plan if points]
    shared = {"base_seed": spec.base_seed, "initial_fraction": spec.initial_fraction,
              "t_max": spec.t_max}
    # An edge list is the same graph for every replicate: read it once.
    loaded = [source.build_graph(0) if source.kind == "edge_list" else None for source, _ in plan]
    tasks = [{**shared, "source": source, "graph": graph, "index": i, "points": points}
             for (source, points), graph in zip(plan, loaded) for i in range(spec.replicates)]
    results = iter(_run_batch(tasks))
    grouped = []
    for _, points in plan:
        replicates = [next(results) for _ in range(spec.replicates)]
        grouped.extend([rep[p] for rep in replicates] for p in range(len(points)))
    return grouped


def _row(spec: SweepSpec, source: NetworkSource, beta: float, results: list[dict]) -> dict:
    """Aggregate one point's replicate results into a table row."""
    row: dict = {"network": source.label, "beta": beta, "replicates": spec.replicates}
    windowed = ("windowed_peak",) if spec.measure_from is not None else ()
    for key in ("scope", "peak", "peak_time", *windowed):
        row[f"mean_{key}"], row[f"std_{key}"] = _mean_std([r[key] for r in results])
    return row


def run_replicates(spec: SweepSpec, source: NetworkSource, beta: float) -> dict:
    """Aggregate `spec.replicates` runs at one (network, beta) point."""
    (results,) = _sweep(spec, [(source, [_point(spec, beta)])])
    return _row(spec, source, beta, results)


SCOPE_COLUMNS = [
    "experiment", "network", "beta", "gamma", "alpha",
    "mean_scope", "std_scope", "mean_peak", "std_peak",
    "mean_peak_time", "std_peak_time", "replicates",
]


def experiment_scope_sweep(spec: SweepSpec, experiment_id: str = "exp01") -> ExperimentTable:
    """Final-epidemic-scope sweep over the infection-rate grid (threshold scan)."""
    table = ExperimentTable(experiment_id, SCOPE_COLUMNS, manifest={"spec": spec.to_dict()})
    plan = [(source, [_point(spec, beta) for beta in spec.betas]) for source in spec.networks]
    results = iter(_sweep(spec, plan))
    for source in spec.networks:
        for beta in spec.betas:
            row = _row(spec, source, beta, next(results))
            row.update(experiment=experiment_id, gamma=spec.gamma, alpha=spec.alpha)
            table.rows.append(row)
    return table


def experiment_density_comparison(
    densities: Sequence[float],
    k_avg: float = 10.0,
    beta: float = 0.1,
    gamma: float = 1.0,
    initial_fraction: float = 0.01,
    t_max: float = 30.0,
    replicates: int = 50,
    base_seed: int = 0,
) -> ExperimentTable:
    """ER vs BA over a density grid at matched mean degree.

    Density is controlled through graph size: d = <k>/(n-1) fixes
    n = <k>/d + 1 per point, with ER p = <k>/(n-1) and BA m = <k>/2.
    """
    columns = [
        "experiment", "model", "density", "n", "avg_degree",
        "mean_peak", "std_peak", "mean_scope", "std_scope", "replicates",
    ]
    table = ExperimentTable("exp02", columns, manifest={
        "densities": list(densities), "k_avg": k_avg, "beta": beta, "gamma": gamma,
        "initial_fraction": initial_fraction, "t_max": t_max,
        "replicates": replicates, "base_seed": base_seed,
    })
    m = max(1, round(k_avg / 2.0))
    networks = []  # ER then BA at each density
    for d in densities:
        n = round(k_avg / d) + 1
        if n < 2:
            raise ParameterError(f"<k> = {k_avg} at density {d} leaves fewer than 2 nodes")
        networks += [NetworkSource.er(n, k_avg / (n - 1), label="ER"),
                     NetworkSource.ba(n, m, label="BA")]
    spec = SweepSpec(
        networks=networks, betas=[beta], gamma=gamma, initial_fraction=initial_fraction,
        t_max=t_max, replicates=replicates, base_seed=base_seed,
    )
    point = _point(spec, beta)
    results = _sweep(spec, [(source, [point]) for source in networks])
    for i, (source, res) in enumerate(zip(networks, results)):
        row = _row(spec, source, beta, res)
        row.update(experiment="exp02", model=source.label, density=densities[i // 2],
                   n=source.n, avg_degree=k_avg)
        table.rows.append(row)
    return table


def experiment_intervention_timing(
    trigger_times: Sequence[float],
    n: int = 3000,
    m: int = 20,
    cap: int = 5,
    beta: float = 0.1,
    gamma: float = 1.0,
    initial_fraction: float = 0.01,
    t_max: float = 10.0,
    replicates: int = 50,
    base_seed: int = 0,
) -> ExperimentTable:
    """Degree-cap lockdown introduced at different times on a BA graph.

    The max infected fraction is measured from a delay of 33% of the
    remaining time after the trigger, i.e. over
    [trigger + 0.33 (t_max - trigger), t_max]. Trigger times should sit
    in the epidemic growth phase; once the epidemic has peaked, the
    delayed window only sees the die-out tail.
    """
    columns = [
        "experiment", "trigger_time", "window_start",
        "mean_windowed_peak", "std_windowed_peak",
        "mean_peak", "std_peak", "mean_scope", "std_scope", "replicates",
    ]
    table = ExperimentTable("exp03", columns, manifest={
        "trigger_times": list(trigger_times), "n": n, "m": m, "cap": cap,
        "beta": beta, "gamma": gamma, "initial_fraction": initial_fraction,
        "t_max": t_max, "replicates": replicates, "base_seed": base_seed,
    })
    for trigger in trigger_times:
        if not 0 < trigger < t_max:
            raise ParameterError(f"trigger time {trigger} outside (0, {t_max})")
    source = NetworkSource.ba(n, m)
    base = SweepSpec(
        networks=[source], betas=[beta], gamma=gamma, initial_fraction=initial_fraction,
        t_max=t_max, replicates=replicates, base_seed=base_seed,
    )
    # Every trigger applies the same cap with the same seed, so each
    # replicate's capped graph is computed once (InterventionSpec.apply).
    specs = [replace(base, intervention=InterventionSpec(t, "degree_cap", cap=cap, seed=base_seed),
                     measure_from=t + 0.33 * (t_max - t)) for t in trigger_times]
    results = _sweep(base, [(source, [_point(spec, beta) for spec in specs])])
    for trigger, spec, res in zip(trigger_times, specs, results):
        row = _row(spec, source, beta, res)
        row.update(experiment="exp03", trigger_time=trigger, window_start=spec.measure_from)
        table.rows.append(row)
    return table


WAVE_MIN_HEIGHT = 0.01
WAVE_MIN_PROMINENCE = 0.005


def count_waves(
    times: np.ndarray,
    mean_i_fraction: np.ndarray,
    smooth_window: float,
    min_height: float = WAVE_MIN_HEIGHT,
    min_prominence: float = WAVE_MIN_PROMINENCE,
) -> int:
    """Local maxima of the smoothed infected-fraction curve.

    Stochastic I(t) is noisy, so the curve is moving-average smoothed
    first; a wave must rise above min_height and stand out by
    min_prominence.
    """
    if len(times) < 3:
        return 0
    dt = times[1] - times[0]
    w = max(1, int(round(smooth_window / dt)))
    kernel = np.ones(w) / w
    smoothed = np.convolve(mean_i_fraction, kernel, mode="same")
    return _count_peaks(smoothed.tolist(), min_height, min_prominence)


def _count_peaks(x: list[float], min_height: float, min_prominence: float) -> int:
    # scipy.signal.find_peaks(x, height=, prominence=) without scipy: the
    # same local maxima (a plateau counts once, the ends never), then
    # x[p] >= min_height, then a prominence with no window >= min_prominence.
    count = 0
    last = len(x) - 1
    i = 1
    while i < last:
        peak = x[i]
        if x[i - 1] < peak:
            ahead = i + 1
            while ahead < last and x[ahead] == peak:
                ahead += 1
            if x[ahead] < peak:
                p = (i + ahead - 1) // 2
                if peak >= min_height and peak - _base(x, p) >= min_prominence:
                    count += 1
                i = ahead
        i += 1
    return count


def _base(x: list[float], p: int) -> float:
    # The higher of the lowest points on each side of x[p] before a
    # sample above it (scipy's _peak_prominences).
    peak = x[p]
    left_min = right_min = peak
    i = p
    while i >= 0 and x[i] <= peak:
        left_min = min(left_min, x[i])
        i -= 1
    i = p
    while i < len(x) and x[i] <= peak:
        right_min = min(right_min, x[i])
        i += 1
    return max(left_min, right_min)


def experiment_sirs(
    networks: Sequence[NetworkSource],
    beta: float = 0.3,
    gamma: float = 1.0,
    alpha: float = 0.2,
    t_max: float = 100.0,
    initial_fraction: float = 0.01,
    replicates: int = 50,
    base_seed: int = 0,
    grid_points: int = 1000,
) -> tuple[ExperimentTable, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Waning-immunity waves: SIRS runs per network plus an SIR control row.

    Returns the table and, per row label, the (grid, mean infected
    fraction) curve behind the wave count. Smoothing window is t_max/100.
    """
    if alpha <= 0:
        raise ParameterError("experiment needs a positive waning rate")
    columns = [
        "experiment", "network", "alpha", "waves",
        "long_run_mean_infected", "replicates",
    ]
    table = ExperimentTable("exp04", columns, manifest={
        "beta": beta, "gamma": gamma, "alpha": alpha, "t_max": t_max,
        "initial_fraction": initial_fraction, "replicates": replicates,
        "base_seed": base_seed, "grid_points": grid_points,
        "wave_min_height": WAVE_MIN_HEIGHT,
        "wave_min_prominence": WAVE_MIN_PROMINENCE,
    })
    grid = np.linspace(0.0, t_max, grid_points)
    spec = SweepSpec(networks=networks, betas=[beta], gamma=gamma,
                     initial_fraction=initial_fraction, t_max=t_max, replicates=replicates,
                     base_seed=base_seed)
    points = [_point(replace(spec, alpha=a), beta, grid) for a in (alpha, 0.0)]
    results = iter(_sweep(spec, [(source, points) for source in networks]))
    curves: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for source in networks:
        for a in (alpha, 0.0):
            mean_curve = np.mean([r["i_curve"] for r in next(results)], axis=0)
            waves = count_waves(grid, mean_curve, smooth_window=t_max / 100.0)
            label = source.label if a > 0 else f"{source.label}[sir-control]"
            tail = mean_curve[grid >= t_max / 2.0]
            table.rows.append({
                "experiment": "exp04", "network": label, "alpha": a,
                "waves": waves,
                "long_run_mean_infected": float(np.mean(tail)),
                "replicates": replicates,
            })
            curves[label] = (grid, mean_curve)
    return table, curves
