"""Stochastic epidemic engines.

Two engines share the Trajectory record:

* exact Gillespie simulation of SIR/SIRS on a contact network
  (`_run_events`),
* exact Gillespie simulation on a well-mixed population, counts only, run
  as its jump chain with the clock computed a block of events at a time.

A waning-immunity rate of zero turns SIRS into plain SIR everywhere.
"""

from __future__ import annotations

import copy
import json
import math
from array import array
from dataclasses import asdict, dataclass
from itertools import chain
from operator import length_hint
from typing import IO, Optional, Sequence

import numpy as np

from .errors import ParameterError, StateError
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


class _ReplayedDraws:
    """The raw 64-bit words of a PCG64 `np.random.Generator` (drawn 64 at
    first, then in blocks doubling up to 8192) and a buffered high half, on
    which `_run_events` replays its `random()` and `integers(h)` in plain
    Python: the same values in order, few words drawn ahead of a short run.

    random() takes one whole word w and returns (w >> 11) * 2**-53.
    integers(h) takes the buffered high 32 bits of a word if there are any,
    else the low 32 bits of the next word (buffering its high half), and
    applies numpy's Lemire rule: x = bits * h until x % 2**32 >= 2**32 % h,
    then x >> 32 (the rule `graphs.generate_ba` replays). integers(1) takes
    no bits. Exact for 1 <= h < 2**32 only; numpy draws differently above.
    `_run_events` draws inline but for `_redraw`; see `tests/reference.py`.

    A place in the stream is (words read, buffered high half): built with
    it on a fresh bit generator of the same seed, a replay jumps there with
    `advance` and draws what the one that gave `position()` draws next.
    """

    __slots__ = ("_block", "_word", "_high")

    def __init__(self, bit_generator: np.random.BitGenerator, read: int = 0,
                 high: Optional[int] = None):
        if read:
            bit_generator.advance(read)
        # _block: the index of the block's first word, its words, their
        # iterator. The block generator refers to this holder, never to self:
        # a method of self in the word chain would be a reference cycle,
        # which keeps every block alive until the cyclic collector runs.
        block = [read, [], iter(())]

        def blocks():
            size = 64
            while True:
                yield block[2]
                block[0] += len(block[1])
                block[1] = bit_generator.random_raw(size).tolist()
                block[2] = iter(block[1])
                size = min(2 * size, 8192)

        self._block, self._high = block, high
        self._word = chain.from_iterable(blocks()).__next__

    def position(self, back: int = 0) -> tuple[int, Optional[int]]:
        """(words read - `back`, buffered high half): back = 1 right after
        random() undoes it, as it took one word and left the high half alone."""
        first, words, it = self._block
        return first + len(words) - length_hint(it) - back, self._high

    def _uint32(self) -> int:
        high = self._high
        if high is None:
            word = self._word()
            self._high = word >> 32
            return word & 0xFFFFFFFF
        self._high = None
        return high

    def _redraw(self, x: int, h: int, high: Optional[int]) -> tuple[int, Optional[int]]:
        """Lemire redraws of integers(h) whose first product x fell under h,
        with `high` buffered: the accepted product and the half buffered then."""
        self._high, reject = high, (1 << 32) % h
        while x & 0xFFFFFFFF < reject:
            x = self._uint32() * h
        return x, self._high


class CompartmentState:
    """Per-node compartment labels plus the caches the event loop needs.

    Labels live in one bytearray (`labels` is an int8 view of it). Caches:
    the live S-I edge set (infection propensity and target choice) and the
    infected / recovered node sets (recovery and waning targets). The moves
    of `_run_events` edit their lists and indexes in place, in neighbour order.
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


_CSV_BLOCK = 8192  # CSV rows converted and written at a time


def _write_csv(stream: IO[str], columns: Sequence[np.ndarray]) -> None:
    """A `t,S,I,R` table of the columns (times, then S, I and R), each cell
    its number's repr text, converted and written a block of rows at a time."""
    stream.write("t,S,I,R\n")
    for a in range(0, len(columns[0]), _CSV_BLOCK):  # bounded memory on long runs
        cols = (x[a:a + _CSV_BLOCK].tolist() for x in columns)
        stream.write("".join(f"{t!r},{s},{i},{r}\n" for t, s, i, r in zip(*cols)))


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
        _write_csv(stream, (self.times, self.s, self.i, self.r))


@dataclass(frozen=True)
class TrajectorySummary:
    """Headline observables of one run."""

    peak_infected_fraction: float
    peak_time: float
    final_recovered_fraction: float
    total_events: int
    seed: Optional[int] = None

    def to_json(self) -> str:
        out = asdict(self)
        del out["total_events"]  # not in summary.json, whose bytes are pinned
        return json.dumps(out)


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


# (S, I, R) change per event code: infection, recovery, waning, repeated row.
_CODE_CHANGES = np.array([[-1, 1, 0], [0, -1, 1], [1, 0, -1], [0, 0, 0]], dtype=np.int64)


def _trajectory(times: np.ndarray, codes: bytearray, start: tuple, n: int, engine: str,
                seed: int) -> Trajectory:
    """Rows `start`, then one per event code. One column at a time: the peak
    is the times and codes beside one int64 column and its changes."""
    code = np.frombuffer(codes, dtype=np.uint8)
    counts = []
    for first, change in zip(start, _CODE_CHANGES.T):
        col = np.empty(len(times), dtype=np.int64)
        col[0] = first
        np.cumsum(change[code], out=col[1:])
        col[1:] += first
        counts.append(col)
    return Trajectory(times, *counts, n, engine, seed)


class _SharedPrefix:
    """The run record of every network run: the intervention-free run of
    one (graph, initial state, rates, t_max, seed). A caller keeps one
    across the `gillespie_run` calls of its points, which restart it when
    their run differs; a call given none gets a fresh one of its own.

    It holds data only: the state, times and codes at time t, where the
    last call that ran on it paused it, and `at`, the stream position
    (`_ReplayedDraws.position`) of the draw it paused before, whose waiting
    time crossed that call's trigger or t_max. A call whose first trigger
    falls after t resumes it there; any other call restarts it from the
    initial state. `_run_events` forks every run off it at its first
    trigger, the same way; a record that no caller holds is freed there,
    or, in a run that does not fork, before its trajectory is built.
    A run that stops with no draw pending, absorbed or at t == t_max, keeps
    its last `at`: no resume reads it, as an absorbed run breaks before it
    draws and at t_max the loop does not start (`TestSharedPrefix` has both).
    """

    __slots__ = ("run", "t", "pop", "at", "times", "codes")

    def __init__(self):
        self.run: Optional[tuple] = None  # (g, init, params, t_max, seed)
        self.t = math.inf  # nothing held: the first call restarts it

    def resume(self, run: tuple, first_trigger: float) -> "_SharedPrefix":
        """Keep the held run for a call of `run` whose first trigger falls
        after its pause; otherwise restart it from `run`'s initial state.
        Returns this record."""
        if run != self.run or not first_trigger > self.t:
            self.run, self.t, self.at, self.pop = run, 0.0, (0, None), run[1].copy()
            self.times, self.codes = [0.0], bytearray()
        return self


def _frame(pop: CompartmentState) -> tuple:
    """`pop`'s labels, adjacency, and its caches' lists and indexes."""
    si, inf, rec = pop.si_edges, pop.infected, pop.recovered
    return pop._lab, pop.graph.adjacency, si.items, si.pos, inf.items, inf.pos, rec.items, rec.pos


def _run_events(prefix: _SharedPrefix, pending: list) -> Trajectory:
    """Direct-method Gillespie loop (Gillespie 1977) of the network run
    `prefix.run`, with `pending` interventions sorted by trigger time. Its
    arithmetic, draw order (waiting time, event class, target) and moves
    are those of the reference steps in `tests/reference.py`; the draws are
    the `random()` and `integers(h)` of `np.random.default_rng(seed)`,
    replayed on the raw words of a `_ReplayedDraws`.

    One frame: `_frame(pop)`, the counts, the word source and the high half
    are locals, written back to `pop` and `rng` at a pause and at the end.

    The run goes on along the intervention-free run of its record `prefix`;
    its stream starts from `seed` at the record's position (0 on a
    restart). Up to the first draw whose t + tau crosses the first trigger,
    both runs draw alike. At that draw every run forks the same way: the
    record pauses before it, and this run goes on with the draws as they
    are, with a twin of the state (its own labels, the record's caches) and
    copies of the times and codes. Then it drops the record, so a record
    that no caller holds is freed before the caches are rebuilt on the
    transformed graph, never beside them. Later triggers rebuild the twin's
    caches in place.
    """
    _, init, params, t_max, seed = prefix.run
    pop, t, times, codes = prefix.pop, prefix.t, prefix.times, prefix.codes
    rng = _ReplayedDraws(np.random.default_rng(seed).bit_generator, *prefix.at)
    word, high, log = rng._word, rng._high, math.log
    # One test per draw: t + tau >= stop when it crosses the next trigger or
    # passes t_max (x > t_max is x >= nextafter(t_max, inf) in doubles).
    after_t_max = math.nextafter(t_max, math.inf)
    stop = min(after_t_max, pending[0].trigger_time) if pending else after_t_max
    beta, gamma, alpha = params.beta, params.gamma, params.alpha
    n, n_i, n_r = pop.n, pop.n_i, pop.n_r
    lab, adj, si_items, si_pos, inf_items, inf_pos, rec_items, rec_pos = _frame(pop)
    while t < t_max:
        a_inf = beta * len(si_items)
        a_rec = gamma * n_i
        a_total = a_inf + a_rec + alpha * n_r
        if a_total <= 0:
            # Interventions only remove edges, so an absorbed run stays absorbed.
            break
        tau = -log(1.0 - (word() >> 11) * 2.0 ** -53) / a_total  # random(): one word
        if t + tau >= stop:
            pop.n_s, pop.n_i, pop.n_r, rng._high = n - n_i - n_r, n_i, n_r, high
            if prefix is not None:  # the record pauses before this draw
                prefix.t, prefix.at = t, rng.position(back=1)
            if not (pending and t + tau >= pending[0].trigger_time):
                break
            spec = pending.pop(0)
            graph = spec.apply(pop.graph)
            if prefix is not None:  # the fork: a twin, then the record dropped
                pop, times, codes, prefix = copy.copy(pop), times.copy(), codes.copy(), None
                pop._lab = bytearray(pop._lab)
            # A local still bound to the replaced caches (at the fork, the
            # dropped record's) would keep them alive beside the new ones.
            lab = adj = items = si_items = si_pos = inf_items = inf_pos = rec_items = rec_pos = None
            pop.rebind_graph(graph)
            lab, adj, si_items, si_pos, inf_items, inf_pos, rec_items, rec_pos = _frame(pop)
            t = min(spec.trigger_time, t_max)
            stop = min(after_t_max, pending[0].trigger_time) if pending else after_t_max
            continue
        t += tau
        u = (word() >> 11) * 2.0 ** -53 * a_total
        if u < a_inf:
            items, code = si_items, 0
        elif u < a_inf + a_rec:
            items, code = inf_items, 1
        else:
            items, code = rec_items, 2
        # The target items[integers(h)]: the product of the held high half or
        # a new word's low half, which `_redraw` replaces if it may be rejected.
        h = len(items)
        if h == 1:
            k = 0
        else:
            if high is None:
                x = word()
                high, x = x >> 32, (x & 0xFFFFFFFF) * h
            else:
                x, high = high * h, None
            if x & 0xFFFFFFFF < h:
                x, high = rng._redraw(x, h, high)
            k = x >> 32
        if code == 0:  # infection of the edge's susceptible end
            v = items[k][0]
            lab[v] = I
            n_i += 1
            inf_pos[v] = len(inf_items)
            inf_items.append(v)
            for w in adj[v]:
                x = lab[w]
                if x == I:  # (v, w) is no longer an S-I edge: swap-remove it
                    j, last = si_pos.pop((v, w)), si_items.pop()
                    if j < len(si_items):
                        si_items[j], si_pos[last] = last, j
                elif x == S:
                    edge = (w, v)  # (susceptible, infected)
                    si_pos[edge] = len(si_items)
                    si_items.append(edge)
        elif code == 1:  # recovery
            v = items[k]
            lab[v] = R
            n_i -= 1
            n_r += 1
            del inf_pos[v]
            last = inf_items.pop()
            if k < len(inf_items):
                inf_items[k], inf_pos[last] = last, k
            rec_pos[v] = len(rec_items)
            rec_items.append(v)
            for w in adj[v]:
                if lab[w] == S:
                    j, last = si_pos.pop((w, v)), si_items.pop()
                    if j < len(si_items):
                        si_items[j], si_pos[last] = last, j
        else:  # waning
            v = items[k]
            lab[v] = S
            n_r -= 1
            del rec_pos[v]
            last = rec_items.pop()
            if k < len(rec_items):
                rec_items[k], rec_pos[last] = last, k
            for w in adj[v]:
                if lab[w] == I:
                    edge = (v, w)
                    si_pos[edge] = len(si_items)
                    si_items.append(edge)
        codes.append(code)
        times.append(t)
    pop.n_s, pop.n_i, pop.n_r = n - n_i - n_r, n_i, n_r
    if prefix is not None:
        prefix.t = t  # the record's run ended here: absorbed, or past t_max
        prefix = None  # a private record is freed here, a held one keeps its data
    if times[-1] != t:
        times.append(t)
        codes.append(3)
    times = np.asarray(times, dtype=np.float64)  # drops the list, unless a record holds it
    return _trajectory(times, codes, (init.n_s, init.n_i, init.n_r), n,
                       "network-gillespie", seed)


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

    Every run goes on a run record (see `_SharedPrefix`): `prefix`, which
    calls with the same arguments but other interventions may share, or
    a fresh one. The trajectory is the same either way. A fresh record is
    passed straight on, so that only `_run_events` holds it and it is
    freed at the fork, or before the trajectory is built.
    """
    if init.graph is not g:
        raise StateError("initial state was built for a different graph")
    if init.n_s + init.n_i + init.n_r != g.node_count:
        raise StateError("compartment counts do not sum to the population")
    if not t_max > 0:
        raise ParameterError(f"t_max must be positive, got {t_max}")
    # The loop's largest total rate (interventions only remove edges); an
    # overflowed total would send the class draw to waning.
    n = g.node_count
    if not params.beta * g.edge_count + params.gamma * n + params.alpha * n < math.inf:
        raise ParameterError(f"total event rate overflows: {params} on {g}")
    pending = sorted(interventions or [], key=lambda iv: iv.trigger_time)
    return _run_events((_SharedPrefix() if prefix is None else prefix).resume(
        (g, init, params, t_max, seed), pending[0].trigger_time if pending else math.inf), pending)


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

    Draws, arithmetic and stop are those of `tests/reference.py`. Event j
    of an `rng.random(8192)` block reads u[2j] for its wait, u[2j + 1] for
    its class. The class draws alone drive the jump chain, so each block
    runs it on plain counts first, then its clock in numpy with the same
    operations (`math.log`, an in-order `cumsum` for `t += tau`), and is
    cut where the loop stops; events past the cut change only counts.
    """
    if not 0 < n <= 2 ** 53:  # the chain's float counts are exact up to 2**53
        raise ParameterError(f"population must be in 1..2**53, got {n}")
    if not 0 <= k_avg < math.inf:
        raise ParameterError(f"mean degree must be finite and non-negative, got {k_avg}")
    if not t_max > 0:
        raise ParameterError(f"t_max must be positive, got {t_max}")
    n_i = resolve_infected_count(n, initial_infected)
    start = n - n_i, n_i, 0
    s, i, r, nf = float(n - n_i), float(n_i), 0.0, float(n)  # exact, and faster than ints
    bk, gamma, alpha = params.beta * k_avg, params.gamma, params.alpha
    # The loop's largest rates, bk * s * i before its / nf included; an
    # overflowed total would send every class draw to waning, R below zero.
    if not bk * nf * nf + gamma * nf + alpha * nf < math.inf:
        raise ParameterError(f"total event rate overflows: {params} on {n} nodes, k_avg {k_avg}")
    rng, after_t_max = np.random.default_rng(seed), math.nextafter(t_max, math.inf)
    t, times, codes = 0.0, array("d", [0.0]), bytearray()
    while t < t_max:
        u, rates = rng.random(8192), []
        for x in u[1::2].tolist():
            a_inf = bk * s * i / nf
            a_rec = gamma * i
            a_total = a_inf + a_rec + alpha * r
            if a_total <= 0.0:
                break
            rates.append(a_total)
            x *= a_total
            if x < a_inf:
                s -= 1.0
                i += 1.0
                codes.append(0)
            elif x < a_inf + a_rec:
                i -= 1.0
                r += 1.0
                codes.append(1)
            else:
                r -= 1.0
                s += 1.0
                codes.append(2)
        waits = -np.fromiter(map(math.log, (1.0 - u[:2 * len(rates):2]).tolist()), float) / rates
        waits[:1] += t
        clock = np.cumsum(waits)
        # Cut at the first time past t_max, or after one at exactly t_max.
        cut = min(np.searchsorted(clock, t_max) + 1, np.searchsorted(clock, after_t_max))
        times.frombytes(clock[:cut].tobytes())
        del codes[len(times) - 1:]
        if cut < 4096:  # cut short, or absorbed
            break
        t = clock[-1]
    return _trajectory(np.frombuffer(times), codes, start, n, "well-mixed-gillespie", seed)

