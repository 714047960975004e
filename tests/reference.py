"""Plain references the tests hold the package against: the direct method
one step at a time, an edge list of pairs, and the line-by-line edge-list
reader with the format's rules written out one line at a time."""

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from netepi.dynamics import CompartmentState, RateParams
from netepi.errors import EdgeListFormatError, NetEpiError, StateError
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
