"""Stochastic epidemic engines.

Three engines share the Trajectory record:

* exact Gillespie simulation of SIR/SIRS on a contact network,
* the same event loop (`_run_events`) on a well-mixed population
  (`WellMixedPopulation`, counts only, in place of `CompartmentState`),
* a discrete-time, synchronous agent-based SIR.

A waning-immunity rate of zero turns SIRS into plain SIR everywhere.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import length_hint
from typing import IO, Optional, Sequence

import numpy as np

from .errors import ParameterError, ProbabilityOverflowError, StateError
from .graphs import Graph
from .interventions import InterventionSpec

S, I, R = 0, 1, 2  # compartment labels


@dataclass(frozen=True)
class RateParams:
    """Transition rates: infection per S-I contact, recovery, waning immunity."""

    beta: float
    gamma: float
    alpha: float = 0.0

    def __post_init__(self):
        if not all(0 <= x < math.inf for x in (self.beta, self.gamma, self.alpha)):
            raise ParameterError(f"rates must be finite and non-negative, got {self}")


class _IndexedSet:
    """Set with O(1) insert/remove and uniform random choice."""

    __slots__ = ("items", "pos")

    def __init__(self):
        self.items: list = []
        self.pos: dict = {}

    def __len__(self):
        return len(self.items)

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

    `unread` words are read before the bit generator's, and `high` is a
    buffered high half; `clone` passes both on.
    """

    __slots__ = ("_bits", "_block", "_word", "_high")

    def __init__(self, bit_generator: np.random.BitGenerator, unread: Sequence[int] = (),
                 high: Optional[int] = None):
        # _block holds the words being read and their list iterator. The
        # block generator refers to this holder, never to self: a method of
        # self in the word chain would be a reference cycle, which keeps
        # every block alive until the cyclic collector runs.
        block = [list(unread), None]
        block[1] = iter(block[0])

        def blocks():
            while True:
                yield block[1]
                block[0] = bit_generator.random_raw(8192).tolist()
                block[1] = iter(block[0])

        self._bits, self._block, self._high = bit_generator, block, high
        self._word = chain.from_iterable(blocks()).__next__

    def clone(self, back: int = 0) -> "_ReplayedDraws":
        """An independent copy that draws what this one draws next, or from
        `back` words earlier in the current block: back = 1 right after
        random() undoes it, as it took one word and left the high half alone.
        The position is the bit generator's state (past the current block),
        the block's unread words and the buffered high half."""
        words, it = self._block
        bits = type(self._bits)()
        bits.state = self._bits.state
        return _ReplayedDraws(bits, words[len(words) - length_hint(it) - back:], self._high)

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

    def copy(self) -> "CompartmentState":
        return CompartmentState(self.graph, self.labels.copy())

    def rebind_graph(self, graph: Graph) -> None:
        """Swap the contact structure (intervention) and rebuild caches."""
        if graph.node_count != self.graph.node_count:
            raise StateError("intervention changed the node count")
        self.graph = graph
        self._rebuild_caches()

    def rebound(self, graph: Graph) -> "CompartmentState":
        """A copy of these labels and counts on `graph`, caches rebuilt by
        `rebind_graph`; this state is left as it is."""
        twin = copy.copy(self)
        twin._lab = bytearray(self._lab)
        twin.rebind_graph(graph)
        return twin

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


_CSV_BLOCK = 8192  # trajectory rows converted and written at a time


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
        stream.write("t,S,I,R\n")
        for a in range(0, len(self.times), _CSV_BLOCK):  # bounded memory on long runs
            cols = (x[a:a + _CSV_BLOCK].tolist() for x in (self.times, self.s, self.i, self.r))
            stream.write("".join(f"{t!r},{s},{i},{r}\n" for t, s, i, r in zip(*cols)))


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


class _SharedPrefix:
    """The intervention-free run of one (graph, initial state, rates, t_max,
    seed), kept across the `gillespie_run` calls of points that differ only
    in their interventions.

    It is paused at time t where the last call that ran on it left it:
    before the draw whose waiting time crossed that call's trigger or
    t_max, or where the run absorbed. A call whose first trigger falls
    after t resumes it there; any other call restarts it from the initial
    state. `_run_events` forks the caller off it at its trigger.
    """

    __slots__ = ("run", "t", "pop", "rng", "times", "codes")

    def __init__(self):
        self.run: Optional[tuple] = None  # (g, init, params, t_max, seed)
        self.t = math.inf  # nothing held: the first call restarts it

    def resume(self, run: tuple, first_trigger: float) -> None:
        """Keep the held run for a call of `run` whose first trigger falls
        after its pause; otherwise restart it from `run`'s initial state."""
        if run != self.run or not first_trigger > self.t:
            _, init, _, _, seed = run
            self.run, self.t = run, 0.0
            self.pop = init.copy()
            self.rng = _ReplayedDraws(np.random.default_rng(seed).bit_generator)
            self.times, self.codes = [0.0], bytearray()


def _run_events(pop: CompartmentState | WellMixedPopulation, params: RateParams, t_max: float,
                seed: int, pending: list, engine: str,
                prefix: Optional[_SharedPrefix] = None) -> Trajectory:
    """Direct-method Gillespie loop (Gillespie 1977) on one population.

    The arithmetic and the draw order (waiting time, event class, target)
    are those of the reference steps in `tests/reference.py`. `pending`
    interventions, sorted by trigger time, need a network population.

    Both populations draw the doubles `np.random.default_rng(seed)` would
    give, in blocks. A network population also picks targets with
    `integers(h)` between the uniforms, so it draws through
    `_ReplayedDraws`, which interleaves both calls on one stream of raw
    words. A well-mixed population draws no integers: its uniforms come
    straight from `rng.random(8192)` blocks, which is cheaper per draw
    than a Python method.

    With a `prefix` (network only), the loop goes on along the shared
    intervention-free run, and `pop` only gives the first row. Up to the
    first draw whose t + tau crosses the first trigger, both runs draw
    alike. At that draw this run forks: the shared run pauses before it,
    and this run goes on with the draws as they are and with copies of the
    labels, counts, times and codes on the transformed graph. Without a
    prefix, the same step happens in place.
    """
    if t_max <= 0:
        raise ParameterError(f"t_max must be positive, got {t_max}")
    start = (pop.n_s, pop.n_i, pop.n_r)
    if prefix is not None:
        pop, rng, t, times, codes = prefix.pop, prefix.rng, prefix.t, prefix.times, prefix.codes
        draw = rng.random
    else:
        rng = np.random.default_rng(seed)
        if isinstance(pop, WellMixedPopulation):
            draw = chain.from_iterable(iter(lambda: rng.random(8192).tolist(), None)).__next__
        else:
            rng = _ReplayedDraws(rng.bit_generator)
            draw = rng.random
        t = 0.0
        times = [0.0]
        codes = bytearray()
    # One test per draw: t + tau >= stop when it crosses the next trigger or
    # passes t_max (x > t_max is x >= nextafter(t_max, inf) in doubles).
    after_t_max = math.nextafter(t_max, math.inf)
    stop = min(after_t_max, pending[0].trigger_time) if pending else after_t_max
    beta, gamma, alpha = params.beta, params.gamma, params.alpha
    while t < t_max:
        a_inf = pop.infection_rate(beta)
        a_rec = gamma * pop.n_i
        a_total = a_inf + a_rec + alpha * pop.n_r
        if a_total <= 0:
            # Interventions only remove edges, so an absorbed run stays absorbed.
            break
        tau = -math.log(1.0 - draw()) / a_total
        if t + tau >= stop:
            if prefix is not None:  # the shared run pauses before this draw
                prefix.t, prefix.rng = t, rng.clone(back=1)
            if not (pending and t + tau >= pending[0].trigger_time):
                break
            spec = pending.pop(0)
            graph = spec.apply(pop.graph)
            if prefix is None:
                pop.rebind_graph(graph)
            else:
                pop, times, codes, prefix = pop.rebound(graph), times.copy(), codes.copy(), None
            t = min(spec.trigger_time, t_max)
            stop = min(after_t_max, pending[0].trigger_time) if pending else after_t_max
            continue
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
    if prefix is not None:
        prefix.t = t  # the shared run ended here: absorbed, or past t_max
    if times[-1] != t:
        times.append(t)
        codes.append(3)
    # One column at a time, after the list of floats is dropped (a shared
    # prefix may still hold it): the peak is the list beside its array.
    times = np.asarray(times, dtype=np.float64)
    code = np.frombuffer(codes, dtype=np.uint8)
    counts = []
    for first, change in zip(start, _CODE_CHANGES.T):
        col = np.empty(len(times), dtype=np.int64)
        col[0] = first
        np.cumsum(change[code], out=col[1:])
        col[1:] += first
        counts.append(col)
    return Trajectory(times, *counts, pop.n, engine, seed)


def gillespie_run(
    g: Graph,
    params: RateParams,
    init: CompartmentState,
    t_max: float,
    seed: int,
    interventions: Optional[Sequence[InterventionSpec]] = None,
    prefix: Optional[_SharedPrefix] = None,
) -> Trajectory:
    """Exact event-driven SIR/SIRS simulation on a network.

    Interventions fire when the sampled event time crosses their trigger:
    the pending event is discarded (memorylessness keeps this exact), time
    jumps to the trigger, the graph is transformed and caches rebuilt.

    `prefix` is a private record of the intervention-free run that calls
    with the same arguments but other interventions may share (see
    `_SharedPrefix`); the trajectory is the same with or without it.
    """
    if init.graph is not g:
        raise StateError("initial state was built for a different graph")
    if init.n_s + init.n_i + init.n_r != g.node_count:
        raise StateError("compartment counts do not sum to the population")
    pending = sorted(interventions or [], key=lambda iv: iv.trigger_time)
    if prefix is None:
        return _run_events(init.copy(), params, t_max, seed, pending, "network-gillespie")
    prefix.resume((g, init, params, t_max, seed),
                  pending[0].trigger_time if pending else math.inf)
    return _run_events(init, params, t_max, seed, pending, "network-gillespie", prefix)


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
