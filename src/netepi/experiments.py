"""Replicate sweeps reproducing the four study experiments as tidy tables.

Replicate i of every sweep point (beta, trigger or waning rate) draws its
seeds from base_seed + i alone, so all points of a network run on the same
graphs and initial states: common random numbers across points. Sweeps are
therefore replicate-major: one task per (network, replicate) builds its
graph and initial state once and runs every point on them, and each
experiment runs all its tasks as one batch, one after another. Seeds are
assigned before the batch runs, so results do not depend on task order.

Points of a replicate with the same rates and some intervention (exp03's
trigger times) also share the run itself up to their first trigger: until
then each would draw exactly what the intervention-free run draws. So the
replicate keeps that run, paused, in one `dynamics._SharedPrefix`, and
each point's `gillespie_run` call forks off it at its trigger instead of
simulating the prefix again; a point with other rates restarts the record.
Outputs are the same either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from statistics import fmean, pstdev
from typing import IO, Optional, Sequence

import numpy as np

from . import graphs
from .dynamics import (
    RateParams,
    _SharedPrefix,
    gillespie_run,
    gillespie_well_mixed,
    init_state,
    summarize_trajectory,
)
from .errors import ParameterError
from .graphs import Graph
from .interventions import InterventionSpec


# Fields of each network-source kind, with their types, in the argument
# order of both the NetworkSource.<kind> constructor and graphs.generate_<kind>;
# an optional field is (type, default).
NETWORK_FIELDS: dict[str, dict[str, type | tuple]] = {
    "er": {"n": int, "p": float},
    "ws": {"n": int, "k": int, "p_rewire": float},
    "ba": {"n": int, "m": int},
    "edge_list": {"path": str, "compact_ids": (bool, False)},
    "well_mixed": {"n": int, "k_avg": float},
}


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
            with open(self.path, encoding="utf-8", newline="") as fh:  # keep a lone \r
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
        if self.base_seed < 0:
            raise ParameterError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.networks:
            raise ParameterError("networks must be non-empty")
        if not self.betas:
            raise ParameterError("beta grid must be non-empty")
        if any(b < 0 for b in self.betas):
            raise ParameterError("beta values must be >= 0")
        if not 0 < self.t_max < math.inf:  # every grid and window is built from it
            raise ParameterError(f"t_max must be finite and positive, got {self.t_max}")
        share = self.initial_fraction  # init_state's ranges: a float is a fraction, an int a count
        if isinstance(share, float) and not 0.0 < share <= 1.0:
            raise ParameterError(f"initial infected fraction must be in (0, 1], got {share}")
        if not isinstance(share, float) and share < 1:
            raise ParameterError(f"initial infected count must be at least 1, got {share}")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(networks=[src.to_dict() for src in self.networks], betas=list(self.betas),
                   intervention=self.intervention.to_dict() if self.intervention else None)
        return out


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
    """
    source: NetworkSource = args["source"]
    spec: SweepSpec = args["spec"]
    graph_seed, init_seed, run_seed = _replicate_seeds(spec.base_seed, args["index"])
    if source.kind == "well_mixed":  # no graph: its points run without their interventions
        return [_observe(gillespie_well_mixed(source.n, source.k_avg, point["params"],
                                              spec.initial_fraction, spec.t_max, run_seed), point)
                for point in args["points"]]
    g = args["graph"] or source.build_graph(graph_seed)
    state = init_state(g, spec.initial_fraction, init_seed)
    prefix = _SharedPrefix()
    out = []
    for point in args["points"]:
        interventions = point["interventions"]
        traj = gillespie_run(g, point["params"], state, spec.t_max, run_seed,
                             interventions=interventions, prefix=prefix if interventions else None)
        out.append(_observe(traj, point))
    return out


def _run_batch(tasks: list[dict]) -> list[list[dict]]:
    return [_one_replicate(t) for t in tasks]


def _point(row: dict, params: RateParams, intervention: Optional[InterventionSpec] = None,
           measure_from: Optional[float] = None, grid: Optional[np.ndarray] = None) -> dict:
    """One sweep point: the labels its table row starts with, its rates and
    intervention, and what to observe; with a time grid, each replicate also
    returns its infected curve on it."""
    return {"row": row, "params": params, "measure_from": measure_from, "grid": grid,
            "interventions": [intervention] if intervention else None}


def _sweep(spec: SweepSpec, plan: Sequence[tuple[NetworkSource, list[dict]]]) -> list[dict]:
    """Run every (source, points) of `plan` as one batch, one task per replicate.

    `spec` supplies what all points share: replicates, base seed, initial
    fraction and t_max. Returns one row per point, in plan order: the
    point's row labels, the replicate count, then `mean_<k>` and `std_<k>`
    (population) over the replicates, in order, of every number `_observe`
    returned for it, and `mean_i_curve` if the point has a grid.
    """
    plan = [(source, points) for source, points in plan if points]
    # An edge list is the same graph for every replicate: read it once.
    loaded = [source.build_graph(0) if source.kind == "edge_list" else None for source, _ in plan]
    tasks = [{"spec": spec, "source": source, "graph": graph, "index": i, "points": points}
             for (source, points), graph in zip(plan, loaded) for i in range(spec.replicates)]
    results, rows = _run_batch(tasks), []
    for at, (_, points) in zip(range(0, len(tasks), spec.replicates), plan):  # one source
        for point, observed in zip(points, zip(*results[at:at + spec.replicates])):
            row = {**point["row"], "replicates": spec.replicates}
            for key in observed[0]:  # each number, replicate by replicate
                values = [r[key] for r in observed]
                if key == "i_curve":
                    row["mean_i_curve"] = np.mean(values, axis=0)
                else:
                    row[f"mean_{key}"], row[f"std_{key}"] = fmean(values), pstdev(values)
            rows.append(row)
    return rows


SCOPE_COLUMNS = [
    "experiment", "network", "beta", "gamma", "alpha",
    "mean_scope", "std_scope", "mean_peak", "std_peak",
    "mean_peak_time", "std_peak_time", "replicates",
]


def experiment_scope_sweep(spec: SweepSpec, experiment_id: str = "exp01") -> ExperimentTable:
    """Final-epidemic-scope sweep over the infection-rate grid (threshold scan)."""
    plan = [(source, [_point({"experiment": experiment_id, "network": source.label, "beta": beta,
                              "gamma": spec.gamma, "alpha": spec.alpha},
                             RateParams(beta, spec.gamma, spec.alpha), spec.intervention,
                             spec.measure_from) for beta in spec.betas])
            for source in spec.networks]
    return ExperimentTable(experiment_id, SCOPE_COLUMNS, _sweep(spec, plan),
                           {"spec": spec.to_dict()})


def experiment_density_comparison(
    densities: Sequence[float] = (0.001, 0.002, 0.003, 0.005, 0.0075, 0.01),
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
    manifest = dict(locals(), densities=list(densities))
    columns = [
        "experiment", "model", "density", "n", "avg_degree",
        "mean_peak", "std_peak", "mean_scope", "std_scope", "replicates",
    ]
    m = max(1, round(k_avg / 2.0))
    plan = []  # ER then BA at each density
    for d in densities:
        n = round(k_avg / d) + 1
        if n < 2:
            raise ParameterError(f"<k> = {k_avg} at density {d} leaves fewer than 2 nodes")
        for source in (NetworkSource.er(n, k_avg / (n - 1), label="ER"),
                       NetworkSource.ba(n, m, label="BA")):
            row = {"experiment": "exp02", "network": source.label, "beta": beta,
                   "model": source.label, "density": d, "n": n, "avg_degree": k_avg}
            plan.append((source, [_point(row, RateParams(beta, gamma))]))
    spec = SweepSpec(
        networks=[source for source, _ in plan], betas=[beta], gamma=gamma,
        initial_fraction=initial_fraction, t_max=t_max, replicates=replicates,
        base_seed=base_seed,
    )
    return ExperimentTable("exp02", columns, _sweep(spec, plan), manifest)


def experiment_intervention_timing(
    trigger_times: Sequence[float] = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5),
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
    manifest = dict(locals(), trigger_times=list(trigger_times))
    columns = [
        "experiment", "trigger_time", "window_start",
        "mean_windowed_peak", "std_windowed_peak",
        "mean_peak", "std_peak", "mean_scope", "std_scope", "replicates",
    ]
    source = NetworkSource.ba(n, m)
    points = []
    for t in trigger_times:
        if not 0 < t < t_max:
            raise ParameterError(f"trigger time {t} outside (0, {t_max})")
        start = t + 0.33 * (t_max - t)
        row = {"experiment": "exp03", "network": source.label, "beta": beta,
               "trigger_time": t, "window_start": start}
        # Every trigger applies the same cap with the same seed, so each
        # replicate's capped graph is computed once (InterventionSpec.apply).
        points.append(_point(row, RateParams(beta, gamma),
                             InterventionSpec(t, "degree_cap", cap=cap, seed=base_seed), start))
    spec = SweepSpec(
        networks=[source], betas=[beta], gamma=gamma, initial_fraction=initial_fraction,
        t_max=t_max, replicates=replicates, base_seed=base_seed,
    )
    return ExperimentTable("exp03", columns, _sweep(spec, [(source, points)]), manifest)


WAVE_MIN_HEIGHT = 0.01
WAVE_MIN_PROMINENCE = 0.005


def count_waves(times: np.ndarray, mean_i_fraction: np.ndarray, smooth_window: float) -> int:
    """Local maxima of the smoothed infected-fraction curve.

    Stochastic I(t) is noisy, so the curve is moving-average smoothed
    first; a wave must rise to WAVE_MIN_HEIGHT and stand out by
    WAVE_MIN_PROMINENCE (the thresholds exp04's manifest records).
    """
    if len(times) < 3:
        return 0
    dt = times[1] - times[0]
    w = max(1, int(round(smooth_window / dt)))
    kernel = np.ones(w) / w
    smoothed = np.convolve(mean_i_fraction, kernel, mode="same")
    return _count_peaks(smoothed.tolist(), WAVE_MIN_HEIGHT, WAVE_MIN_PROMINENCE)


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
    manifest = dict(locals(), wave_min_height=WAVE_MIN_HEIGHT,
                    wave_min_prominence=WAVE_MIN_PROMINENCE)
    del manifest["networks"]  # not JSON
    if alpha <= 0:
        raise ParameterError("experiment needs a positive waning rate")
    if grid_points < 2:  # the long-run mean needs a grid point at or past t_max / 2
        raise ParameterError(f"grid_points must be >= 2, got {grid_points}")
    columns = [
        "experiment", "network", "alpha", "waves",
        "long_run_mean_infected", "replicates",
    ]
    grid = np.linspace(0.0, t_max, grid_points)
    spec = SweepSpec(networks=networks, betas=[beta], gamma=gamma,
                     initial_fraction=initial_fraction, t_max=t_max, replicates=replicates,
                     base_seed=base_seed)
    plan = [(source, [_point({"experiment": "exp04", "network": label, "alpha": a},
                             RateParams(beta, gamma, a), grid=grid)
                      for label, a in ((source.label, alpha),
                                       (f"{source.label}[sir-control]", 0.0))])
            for source in networks]
    rows, curves = [], {}
    for row in _sweep(spec, plan):
        curve = row["mean_i_curve"]
        row.update(waves=count_waves(grid, curve, smooth_window=t_max / 100.0),
                   long_run_mean_infected=float(np.mean(curve[grid >= t_max / 2.0])))
        rows.append({column: row[column] for column in columns})
        curves[row["network"]] = (grid, curve)
    return ExperimentTable("exp04", columns, rows, manifest), curves
