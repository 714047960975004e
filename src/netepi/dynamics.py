"""Stochastic epidemic engines.

Three engines share the Trajectory record:

* exact Gillespie simulation of SIR/SIRS on a contact network,
* the same event loop (`_run_events`) on a well-mixed population
  (`WellMixedPopulation`, counts only, in place of `CompartmentState`),
* a discrete-time, synchronous agent-based SIR.

A waning-immunity rate of zero turns SIRS into plain SIR everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import IO, Optional, Sequence

import numpy as np

from .errors import AbsorbingState, ParameterError, ProbabilityOverflowError, StateError
from .graphs import Graph
from .interventions import InterventionSpec

S, I, R = 0, 1, 2  # compartment labels

INFECTION = "infection"
RECOVERY = "recovery"
WANING = "waning"


@dataclass(frozen=True)
class RateParams:
    """Transition rates: infection per S-I contact, recovery, waning immunity."""

    beta: float
    gamma: float
    alpha: float = 0.0

    def __post_init__(self):
        if not all(0 <= x < math.inf for x in (self.beta, self.gamma, self.alpha)):
            raise ParameterError(f"rates must be finite and non-negative, got {self}")


@dataclass(frozen=True)
class EventRates:
    """Per-class propensities; with the helpers below, the tests' reference for the loop."""

    infection: float
    recovery: float
    waning: float

    @property
    def total(self) -> float:
        return self.infection + self.recovery + self.waning


class _IndexedSet:
    """Set with O(1) insert/remove and uniform random choice."""

    __slots__ = ("items", "pos")

    def __init__(self):
        self.items: list = []
        self.pos: dict = {}

    def __len__(self):
        return len(self.items)

    def __contains__(self, x):
        return x in self.pos

    def add(self, x):
        self.pos[x] = len(self.items)
        self.items.append(x)

    def remove(self, x):
        i = self.pos.pop(x)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def choose(self, rng: np.random.Generator | _ReplayedDraws):
        return self.items[rng.integers(len(self.items))]


class _ReplayedDraws:
    """`random()` and `integers(h)` of a PCG64 `np.random.Generator`, replayed
    in plain Python on its raw 64-bit words (drawn 8192 at a time): the same
    values in the same order, without a numpy call per draw.

    random() takes one whole word w and returns (w >> 11) * 2**-53.
    integers(h) takes the buffered high 32 bits of a word if there are any,
    else the low 32 bits of the next word (buffering its high half), and
    applies numpy's Lemire rule: x = bits * h until x % 2**32 >= 2**32 % h,
    then x >> 32 (the rule `graphs.generate_ba` replays). integers(1) takes
    no bits. Exact for 1 <= h < 2**32 only; numpy draws differently above.
    """

    __slots__ = ("_word", "_high")

    def __init__(self, bit_generator: np.random.BitGenerator):
        self._word = chain.from_iterable(
            iter(lambda: bit_generator.random_raw(8192).tolist(), None)).__next__
        self._high = None

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def _uint32(self) -> int:
        high = self._high
        if high is None:
            word = self._word()
            self._high = word >> 32
            return word & 0xFFFFFFFF
        self._high = None
        return high

    def integers(self, h: int) -> int:
        if h == 1:
            return 0
        x = self._uint32() * h
        if x & 0xFFFFFFFF < h:  # only then can x fall under the rejection threshold
            reject = (1 << 32) % h
            while x & 0xFFFFFFFF < reject:
                x = self._uint32() * h
        return x >> 32


class CompartmentState:
    """Per-node compartment labels plus the caches the event loop needs.

    Labels live in one bytearray (`labels` is an int8 view of it). Caches:
    the live S-I edge set (infection propensity and target choice) and the
    infected / recovered node sets (recovery and waning targets). The moves
    edit the S-I edge set's list and index in place, in neighbour order.
    """

    def __init__(self, graph: Graph, labels: np.ndarray):
        if labels.shape != (graph.node_count,):
            raise StateError(
                f"labels shape {labels.shape} does not match {graph.node_count} nodes"
            )
        self.graph = graph
        self._lab = bytearray(labels.astype(np.int8).tobytes())
        counts = np.bincount(self.labels, minlength=3)
        self.n_s, self.n_i, self.n_r = (int(c) for c in counts[:3])
        self._rebuild_caches()

    def _rebuild_caches(self) -> None:
        self.si_edges = _IndexedSet()
        self.infected = _IndexedSet()
        self.recovered = _IndexedSet()
        lab = self._lab
        for v in range(self.graph.node_count):
            if lab[v] == I:
                self.infected.add(v)
                for u in self.graph.adjacency[v]:
                    if lab[u] == S:
                        self.si_edges.add((u, v))  # (susceptible, infected)
            elif lab[v] == R:
                self.recovered.add(v)

    @property
    def labels(self) -> np.ndarray:
        return np.frombuffer(self._lab, dtype=np.int8)

    @property
    def n(self) -> int:
        return self.graph.node_count

    @property
    def si_edge_count(self) -> int:
        return len(self.si_edges)

    def copy(self) -> "CompartmentState":
        return CompartmentState(self.graph, self.labels.copy())

    def rebind_graph(self, graph: Graph) -> None:
        """Swap the contact structure (intervention) and rebuild caches."""
        if graph.node_count != self.graph.node_count:
            raise StateError("intervention changed the node count")
        self.graph = graph
        self._rebuild_caches()

    def infect(self, v: int) -> None:
        lab, items, pos = self._lab, self.si_edges.items, self.si_edges.pos
        if lab[v] != S:
            raise StateError(f"node {v} is not susceptible")
        lab[v] = I
        self.n_s -= 1
        self.n_i += 1
        self.infected.add(v)
        for u in self.graph.adjacency[v]:
            x = lab[u]
            if x == I:
                k, last = pos.pop((v, u)), items.pop()
                if k < len(items):
                    items[k], pos[last] = last, k
            elif x == S:
                edge = (u, v)
                pos[edge] = len(items)
                items.append(edge)

    def recover(self, v: int) -> None:
        lab, items, pos = self._lab, self.si_edges.items, self.si_edges.pos
        if lab[v] != I:
            raise StateError(f"node {v} is not infected")
        lab[v] = R
        self.n_i -= 1
        self.n_r += 1
        self.infected.remove(v)
        self.recovered.add(v)
        for u in self.graph.adjacency[v]:
            if lab[u] == S:
                k, last = pos.pop((u, v)), items.pop()
                if k < len(items):
                    items[k], pos[last] = last, k

    def wane(self, v: int) -> None:
        lab, items, pos = self._lab, self.si_edges.items, self.si_edges.pos
        if lab[v] != R:
            raise StateError(f"node {v} is not recovered")
        lab[v] = S
        self.n_r -= 1
        self.n_s += 1
        self.recovered.remove(v)
        for u in self.graph.adjacency[v]:
            if lab[u] == I:
                edge = (v, u)
                pos[edge] = len(items)
                items.append(edge)

    def infection_rate(self, beta: float) -> float:
        return beta * len(self.si_edges.items)

    def infect_one(self, rng: np.random.Generator | _ReplayedDraws) -> None:
        self.infect(self.si_edges.choose(rng)[0])  # (susceptible, infected)

    def recover_one(self, rng: np.random.Generator | _ReplayedDraws) -> None:
        self.recover(self.infected.choose(rng))

    def wane_one(self, rng: np.random.Generator | _ReplayedDraws) -> None:
        self.wane(self.recovered.choose(rng))


def resolve_infected_count(n: int, initial_infected: int | float) -> int:
    """Turn a count or fraction into a node count (fraction rounds, min 1)."""
    if isinstance(initial_infected, float):
        if not 0.0 < initial_infected <= 1.0:
            raise ParameterError(
                f"initial infected fraction must be in (0, 1], got {initial_infected}"
            )
        return max(1, round(initial_infected * n))
    count = int(initial_infected)
    if not 0 < count <= n:
        raise ParameterError(f"initial infected count must be in 1..{n}, got {count}")
    return count


def init_state(g: Graph, initial_infected: int | float, seed: int) -> CompartmentState:
    """Infect a uniformly random subset; everyone else starts susceptible.

    initial_infected: an int is a node count, a float in (0, 1] a fraction
    of the population (rounded, at least one node).
    """
    n = g.node_count
    if n == 0:
        raise ParameterError("cannot seed an empty graph")
    count = resolve_infected_count(n, initial_infected)
    rng = np.random.default_rng(seed)
    labels = np.full(n, S, dtype=np.int8)
    labels[rng.choice(n, size=count, replace=False)] = I
    return CompartmentState(g, labels)


def compute_event_rates(g: Graph, state: CompartmentState, params: RateParams) -> EventRates:
    """Propensities on a network: infection scales with the S-I edge count."""
    if state.graph is not g:
        raise StateError("state was built for a different graph")
    return EventRates(
        infection=params.beta * state.si_edge_count,
        recovery=params.gamma * state.n_i,
        waning=params.alpha * state.n_r,
    )


def sample_waiting_time(a_total: float, rng: np.random.Generator) -> float:
    """Exponential waiting time with rate a_total: tau = -ln(u) / a_total."""
    if a_total <= 0:
        raise AbsorbingState("total propensity is zero")
    u = 1.0 - rng.random()  # uniform in (0, 1]
    return -math.log(u) / a_total


def select_event(rates: EventRates, rng: np.random.Generator) -> str:
    """Pick an event class with probability proportional to its propensity."""
    total = rates.total
    if total <= 0:
        raise AbsorbingState("total propensity is zero")
    u = rng.random() * total
    if u < rates.infection:
        return INFECTION
    if u < rates.infection + rates.recovery:
        return RECOVERY
    return WANING


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped compartment counts emitted by any engine."""

    times: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    n: int
    engine: str
    seed: Optional[int] = None

    def __len__(self):
        return len(self.times)

    def counts_at(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step-function sample of (S, I, R) at the given times."""
        idx = np.clip(np.searchsorted(self.times, grid, side="right") - 1, 0, None)
        return self.s[idx], self.i[idx], self.r[idx]

    def to_csv(self, stream: IO[str]) -> None:
        rows = zip(self.times.tolist(), self.s.tolist(), self.i.tolist(), self.r.tolist())
        stream.write("t,S,I,R\n" + "".join(f"{t!r},{s},{i},{r}\n" for t, s, i, r in rows))


@dataclass(frozen=True)
class TrajectorySummary:
    """Headline observables of one run."""

    peak_infected_fraction: float
    peak_time: float
    final_recovered_fraction: float
    total_events: int
    seed: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "peak_infected_fraction": self.peak_infected_fraction,
                "peak_time": self.peak_time,
                "final_recovered_fraction": self.final_recovered_fraction,
                "seed": self.seed,
            }
        )


def summarize_trajectory(traj: Trajectory) -> TrajectorySummary:
    """Peak infected fraction (first maximum), its time, and the final
    recovered fraction (the epidemic scope)."""
    if len(traj) == 0:
        raise StateError("cannot summarize an empty trajectory")
    peak_idx = int(np.argmax(traj.i))
    return TrajectorySummary(
        peak_infected_fraction=float(traj.i[peak_idx]) / traj.n,
        peak_time=float(traj.times[peak_idx]),
        final_recovered_fraction=float(traj.r[-1]) / traj.n,
        total_events=len(traj) - 1,
        seed=traj.seed,
    )


class WellMixedPopulation:
    """Compartment counts under homogeneous mixing; no node identities."""

    __slots__ = ("n", "k_avg", "n_s", "n_i", "n_r")

    def __init__(self, n: int, k_avg: float, n_i: int):
        self.n, self.k_avg = n, k_avg
        self.n_s, self.n_i, self.n_r = n - n_i, n_i, 0

    def infection_rate(self, beta: float) -> float:
        return beta * self.k_avg * self.n_s * self.n_i / self.n

    def infect_one(self, rng: np.random.Generator) -> None:
        self.n_s -= 1
        self.n_i += 1

    def recover_one(self, rng: np.random.Generator) -> None:
        self.n_i -= 1
        self.n_r += 1

    def wane_one(self, rng: np.random.Generator) -> None:
        self.n_r -= 1
        self.n_s += 1


# (S, I, R) change per event code: infection, recovery, waning, repeated row.
_CODE_CHANGES = np.array([[-1, 1, 0], [0, -1, 1], [1, 0, -1], [0, 0, 0]], dtype=np.int64)


def _run_events(pop: CompartmentState | WellMixedPopulation, params: RateParams, t_max: float,
                seed: int, pending: list, engine: str) -> Trajectory:
    """Direct-method Gillespie loop (Gillespie 1977) on one population.

    The arithmetic and the draw order (waiting time, event class, target)
    are those of `sample_waiting_time` and `select_event`. `pending`
    interventions, sorted by trigger time, need a network population.

    Both populations draw the doubles `np.random.default_rng(seed)` would
    give, in blocks. A network population also picks targets with
    `integers(h)` between the uniforms, so it draws through
    `_ReplayedDraws`, which interleaves both calls on one stream of raw
    words. A well-mixed population draws no integers: its uniforms come
    straight from `rng.random(8192)` blocks, which is cheaper per draw
    than a Python method.
    """
    if t_max <= 0:
        raise ParameterError(f"t_max must be positive, got {t_max}")
    rng = np.random.default_rng(seed)
    if isinstance(pop, WellMixedPopulation):
        draw = chain.from_iterable(iter(lambda: rng.random(8192).tolist(), None)).__next__
    else:
        rng = _ReplayedDraws(rng.bit_generator)
        draw = rng.random
    beta, gamma, alpha = params.beta, params.gamma, params.alpha
    start = (pop.n_s, pop.n_i, pop.n_r)
    t = 0.0
    times = [0.0]
    codes = bytearray()
    while t < t_max:
        a_inf = pop.infection_rate(beta)
        a_rec = gamma * pop.n_i
        a_total = a_inf + a_rec + alpha * pop.n_r
        if a_total <= 0:
            # Interventions only remove edges, so an absorbed run stays absorbed.
            break
        tau = -math.log(1.0 - draw()) / a_total
        if pending and t + tau >= pending[0].trigger_time:
            spec = pending.pop(0)
            t = min(spec.trigger_time, t_max)
            pop.rebind_graph(spec.apply(pop.graph))
            continue
        if t + tau > t_max:
            break
        t += tau
        u = draw() * a_total
        if u < a_inf:
            pop.infect_one(rng)
            codes.append(0)
        elif u < a_inf + a_rec:
            pop.recover_one(rng)
            codes.append(1)
        else:
            pop.wane_one(rng)
            codes.append(2)
        times.append(t)
    if times[-1] != t:
        times.append(t)
        codes.append(3)
    changes = _CODE_CHANGES[np.frombuffer(codes, dtype=np.uint8)]
    s, i, r = np.cumsum(np.vstack((start, changes)), axis=0).T.copy()
    return Trajectory(np.asarray(times, dtype=np.float64), s, i, r, pop.n, engine, seed)


def gillespie_run(
    g: Graph,
    params: RateParams,
    init: CompartmentState,
    t_max: float,
    seed: int,
    interventions: Optional[Sequence[InterventionSpec]] = None,
) -> Trajectory:
    """Exact event-driven SIR/SIRS simulation on a network.

    Interventions fire when the sampled event time crosses their trigger:
    the pending event is discarded (memorylessness keeps this exact), time
    jumps to the trigger, the graph is transformed and caches rebuilt.
    """
    if init.graph is not g:
        raise StateError("initial state was built for a different graph")
    if init.n_s + init.n_i + init.n_r != g.node_count:
        raise StateError("compartment counts do not sum to the population")
    pending = sorted(interventions or [], key=lambda iv: iv.trigger_time)
    return _run_events(init.copy(), params, t_max, seed, pending, "network-gillespie")


def gillespie_well_mixed(
    n: int,
    k_avg: float,
    params: RateParams,
    initial_infected: int | float,
    t_max: float,
    seed: int,
) -> Trajectory:
    """Gillespie SIR/SIRS on a homogeneously mixing population.

    Infection propensity beta * k_avg * N_S * N_I / n, so the epidemic
    threshold matches the network criterion R0 = beta * <k> / gamma.
    """
    if n <= 0:
        raise ParameterError(f"population must be positive, got {n}")
    pop = WellMixedPopulation(n, k_avg, resolve_infected_count(n, initial_infected))
    return _run_events(pop, params, t_max, seed, [], "well-mixed-gillespie")


def abm_run(
    n: int,
    params: RateParams,
    initial_infected: int | float,
    steps: int,
    seed: int,
) -> Trajectory:
    """Discrete-time, synchronous agent-based SIR.

    Per step every susceptible agent becomes infected with Bernoulli
    probability beta * I(t) / n and every infected agent recovers with
    probability gamma; I(t) is read before any update is applied.
    """
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")
    if params.gamma > 1.0:
        raise ProbabilityOverflowError(f"gamma = {params.gamma} is not a probability")
    n_init = resolve_infected_count(n, initial_infected)
    rng = np.random.default_rng(seed)
    labels = np.full(n, S, dtype=np.int8)
    labels[rng.choice(n, size=n_init, replace=False)] = I

    rows = [np.bincount(labels, minlength=3)]
    for step in range(1, steps + 1):
        p_infect = params.beta * int(rows[-1][I]) / n
        if p_infect > 1.0:
            raise ProbabilityOverflowError(
                f"beta * I / N = {p_infect} exceeds 1 at step {step}"
            )
        susceptible = labels == S
        infected = labels == I
        draws = rng.random(n)
        labels[susceptible & (draws < p_infect)] = I
        labels[infected & (draws < params.gamma)] = R
        rows.append(np.bincount(labels, minlength=3))
    s, i, r = np.stack(rows, axis=1).astype(np.int64)
    return Trajectory(np.arange(steps + 1, dtype=np.float64), s, i, r, n, "abm", seed)
