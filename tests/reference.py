"""Plain references the tests hold the package against: the direct method
one step at a time, its moves one call each and its draws one method
each, the state's caches built one node at a time, an edge list of pairs,
the line-by-line edge-list reader with the format's rules written out one
line at a time, the one-node-at-a-time Barabási–Albert generator, and the
degree cap on the CSR rows one row at a time."""

import math
import re
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from netepi.dynamics import I, R, S, CompartmentState, RateParams, _IndexedSet, _words
from netepi.errors import EdgeListFormatError, NetEpiError, ParameterError, StateError
from netepi.graphs import Graph

INFECTION = "infection"
RECOVERY = "recovery"
WANING = "waning"


class AbsorbingState(NetEpiError):
    """Total propensity is zero: no further event can occur."""


@dataclass(frozen=True)
class EventRates:
    """Per-class propensities."""

    infection: float
    recovery: float
    waning: float

    @property
    def total(self) -> float:
        return self.infection + self.recovery + self.waning


def compute_event_rates(g: Graph, state: CompartmentState, params: RateParams) -> EventRates:
    """Propensities on a network: infection scales with the S-I edge count."""
    if state.graph is not g:
        raise StateError("state was built for a different graph")
    return EventRates(
        infection=params.beta * len(state.si_edges),
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


class ReplayedDraws:
    """numpy's `random()` and `integers(h)` one call each, on the words of
    `netepi.dynamics._words` from word `read` on, with `high` held: numpy's
    Lemire rule written out apart from the event loop's. `rejections`
    counts the products the rule rejected."""

    def __init__(self, bit_generator, read: int = 0, high: Optional[int] = None):
        self._word, self._words_read = _words(bit_generator, read)
        self._high, self.rejections = high, 0

    def position(self, back: int = 0) -> tuple[int, Optional[int]]:
        """(words read - `back`, high half held): back = 1 right after
        random() undoes it, as it took one word and left the high half alone."""
        return self._words_read() - back, self._high

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def _uint32(self) -> int:
        """The held high half if there is one, else the next word's low half,
        holding its high half."""
        high = self._high
        if high is None:
            word = self._word()
            self._high = word >> 32
            return word & 0xFFFFFFFF
        self._high = None
        return high

    def integers(self, h: int) -> int:
        """x = bits * h until x % 2**32 >= 2**32 % h, then x >> 32; no bits for h = 1."""
        if h == 1:
            return 0
        reject = (1 << 32) % h
        x = self._uint32() * h
        while x & 0xFFFFFFFF < reject:
            self.rejections += 1
            x = self._uint32() * h
        return x >> 32


def add(cache: _IndexedSet, x) -> None:
    cache.pos[x] = len(cache.items)
    cache.items.append(x)


def rebuild_caches(state: CompartmentState) -> tuple[_IndexedSet, _IndexedSet, _IndexedSet]:
    """The S-I edge, infected and recovered sets of `state`'s labels, one
    node at a time: each infected node in id order, then its S-I edges as
    (susceptible, infected) in neighbour order; each recovered node too."""
    si_edges, infected, recovered = _IndexedSet([]), _IndexedSet([]), _IndexedSet([])
    lab = state._lab
    for v in range(state.graph.node_count):
        if lab[v] == I:
            add(infected, v)
            for u in state.graph.adjacency[v]:
                if lab[u] == S:
                    add(si_edges, (u, v))
        elif lab[v] == R:
            add(recovered, v)
    return si_edges, infected, recovered


def remove(cache: _IndexedSet, x) -> None:
    """Swap-remove: the last item takes x's place."""
    i = cache.pos.pop(x)
    last = cache.items.pop()
    if i < len(cache.items):
        cache.items[i] = last
        cache.pos[last] = i


def choose(cache: _IndexedSet, rng):
    return cache.items[rng.integers(len(cache.items))]


def infect(state: CompartmentState, v: int) -> None:
    """S -> I: v's S-I edges to infected neighbours go, edges to susceptible
    ones come, as (susceptible, infected), in neighbour order."""
    lab = state._lab
    if lab[v] != S:
        raise StateError(f"node {v} is not susceptible")
    lab[v] = I
    state.n_s -= 1
    state.n_i += 1
    add(state.infected, v)
    for u in state.graph.adjacency[v]:
        if lab[u] == I:
            remove(state.si_edges, (v, u))
        elif lab[u] == S:
            add(state.si_edges, (u, v))


def recover(state: CompartmentState, v: int) -> None:
    lab = state._lab
    if lab[v] != I:
        raise StateError(f"node {v} is not infected")
    lab[v] = R
    state.n_i -= 1
    state.n_r += 1
    remove(state.infected, v)
    add(state.recovered, v)
    for u in state.graph.adjacency[v]:
        if lab[u] == S:
            remove(state.si_edges, (u, v))


def wane(state: CompartmentState, v: int) -> None:
    lab = state._lab
    if lab[v] != R:
        raise StateError(f"node {v} is not recovered")
    lab[v] = S
    state.n_r -= 1
    state.n_s += 1
    remove(state.recovered, v)
    for u in state.graph.adjacency[v]:
        if lab[u] == I:
            add(state.si_edges, (v, u))


def edges(g: Graph) -> list[tuple[int, int]]:
    """All edges as sorted (u, v) pairs with u < v."""
    return list(zip(*g.edge_array().T.tolist()))


HEADER = re.compile(r"# nodes: ([0-9]{1,18})(?=\r?\n|\Z)")


def parse_lines(text: str, declared: Optional[int]) -> tuple[np.ndarray, int]:
    """(u, v) rows without self-loops, and the self-loop count, line by
    line through `int()`: the reader netepi had beside its whole-text
    parser, which agrees with it on plain text."""
    limit = 1 << 63 if declared is None else declared
    beyond = "node ids must be below " + (
        "2**63" if declared is None else f"the declared node count {declared}")
    us, vs = [], []
    self_loops = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            raise EdgeListFormatError(lineno, raw, "expected two node ids")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(lineno, raw, "node ids must be integers") from None
        if u < 0 or v < 0:
            raise EdgeListFormatError(lineno, raw, "node ids must be non-negative")
        if max(u, v) >= limit:
            raise EdgeListFormatError(lineno, raw, beyond)
        if u == v:
            self_loops += 1
            continue
        us.append(u)
        vs.append(v)
    return np.array([us, vs], dtype=np.int64).T, self_loops


def load_by_lines(text: str, compact_ids: bool = False) -> tuple[Graph, int]:
    """What `load_edge_list` builds, from `parse_lines`; and the self-loop count."""
    header = None if compact_ids else HEADER.match(text)
    declared = int(header[1]) if header else None
    pairs, self_loops = parse_lines(text, declared)
    if compact_ids:
        uniq, ids = np.unique(pairs.ravel(), return_inverse=True)
        return Graph.from_edges(len(uniq), ids.reshape(-1, 2)), self_loops
    n = declared if declared is not None else int(pairs.max()) + 1 if len(pairs) else 0
    return Graph.from_edges(n, pairs), self_loops


def first_offending_line(text: str, compact_ids: bool = False) -> Optional[int]:
    """The number of the first line that breaks a rule of the edge-list
    format, or None. Lines end in \\n or \\r\\n; outside a comment only
    ASCII digits, spaces and tabs; 0 or 2 ids of at most 18 digits, each
    below a declared node count."""
    header = None if compact_ids else HEADER.match(text)
    for number, line in enumerate(re.split(r"\r?\n", text), start=1):
        body = line.partition("#")[0]
        ids = re.findall(r"[^ \t]+", body)
        if ("".join(line.splitlines()) != line or len(ids) not in (0, 2)
                or not re.fullmatch(r"[0-9 \t]*", body) or any(len(i) > 18 for i in ids)
                or header and any(int(i) >= int(header[1]) for i in ids)):
            return number
    return None


def generate_ba(n: int, m: int, seed: int) -> Graph:
    """Barabási–Albert preferential attachment.

    Starts from m isolated seed nodes; each arriving node attaches m edges
    to distinct existing nodes chosen with probability proportional to
    current degree. Final edge count is exactly m * (n - m).
    """
    if not 1 <= m < n:
        raise ParameterError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    # rng.integers(h) replayed on the uint32 words (low half of each 64-bit output first)
    # by numpy's Lemire rule, for h < 2**32: x = word * h until x % 2**32 >= 2**32 % h.
    word = chain.from_iterable(iter(lambda: rng.bit_generator.random_raw(4096)
                                    .astype("<u8").view("<u4").tolist(), None)).__next__
    # Endpoints repeated by degree: a uniform pick from it is degree-proportional.
    repeated: list[int] = []
    targets = list(range(m))
    for new in range(m, n):
        repeated.extend(targets)
        repeated.extend([new] * m)
        h = len(repeated)
        reject = (1 << 32) % h
        chosen: set[int] = set()
        while len(chosen) < m:
            x = word() * h
            while x & 0xFFFFFFFF < reject:
                x = word() * h
            chosen.add(repeated[x >> 32])  # the draw is x >> 32
        targets = sorted(chosen)
    # Per new node: its m targets, then m copies of itself, which pair up as its edges.
    edges = np.array(repeated).reshape(-1, 2, m).transpose(0, 2, 1).reshape(-1, 2)
    return Graph.from_edges(n, edges)


def apply_degree_cap(g: Graph, cap: int, seed: int) -> Graph:
    """The degree cap of `netepi.interventions.apply_degree_cap` on the CSR
    rows, one row at a time: the same nodes in the same order, the same
    `rng.shuffle` calls on the same lists, so the same graph."""
    if cap < 0:
        raise ParameterError(f"degree cap must be >= 0, got {cap}")
    rng = np.random.default_rng(seed)
    n, deg, bounds = g.node_count, g.degrees(), g.indptr.tolist()
    kept: list[Optional[set]] = [None] * n
    cut_v, cut_u = array("q"), array("q")
    for v in np.argsort(-deg, kind="stable").tolist():
        if bounds[v + 1] - bounds[v] <= cap:
            break
        nbrs = g.indices[bounds[v]:bounds[v + 1]].tolist()
        live = [u for u in nbrs if kept[u] is None or v in kept[u]]
        if len(live) <= cap:
            continue
        rng.shuffle(live)
        kept[v] = set(live[:cap])
        cut_u.extend(live[cap:])
        cut_v.extend([v] * (len(live) - cap))
    src = g.arc_sources()
    a, b = np.frombuffer(cut_v, dtype=np.int64), np.frombuffer(cut_u, dtype=np.int64)
    cut = np.concatenate([a * n + b, b * n + a])
    cut.sort()
    keep = np.ones(len(src), dtype=bool)
    keep[np.searchsorted(src * n + g.indices, cut)] = False
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=n), out=indptr[1:])
    return Graph(indptr, g.indices[keep])
