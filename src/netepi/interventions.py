"""Contact-reduction measures as graph-to-graph transformations.

The engines apply these mid-run; the functions here are purely structural
and never add edges or nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .graphs import Graph, density


def apply_degree_cap(g: Graph, cap: int, seed: int) -> Graph:
    """Remove edges until no node has more than `cap` neighbours.

    Nodes are processed in descending initial-degree order (ties by node
    id). A node over the cap keeps `cap` of its incident edges, chosen by
    shuffling them with the seeded RNG; the rest are deleted, which also
    lowers the neighbours' degrees. Nodes already at or under the cap are
    left untouched.
    """
    if cap < 0:
        raise ParameterError(f"degree cap must be >= 0, got {cap}")
    rng = np.random.default_rng(seed)
    # The loop's neighbour tuples if a run built them, else tuples that go with this call.
    adj = vars(g)["adjacency"] if "adjacency" in vars(g) else Graph.adjacency.func(g)
    n, deg = g.node_count, g.degrees()
    # Edge (v, u) is cut only by v or by u, so at v's turn it is live unless
    # u already cut and did not keep v. kept[u] is None until u cuts.
    kept: list[Optional[set]] = [None] * n
    cut_v, cut_u = [], []  # the adjacency's int objects: 8 B a cut edge, as in int64
    # Only the nodes that start over the cap, in order: the rest stay under it.
    for v in np.argsort(-deg, kind="stable")[:np.count_nonzero(deg > cap)].tolist():
        live = [u for u in adj[v] if (k := kept[u]) is None or v in k]
        if len(live) <= cap:
            continue
        rng.shuffle(live)
        kept[v] = set(live[:cap])
        cut_u += live[cap:]
        cut_v += [v] * (len(live) - cap)
    adj = kept = None  # freed before the mask's arrays fill, which lowers the peak
    # One mask over the CSR slots drops each cut edge in both directions.
    src, a, b = g.arc_sources(), np.array(cut_v, dtype=np.int64), np.array(cut_u, dtype=np.int64)
    cut = np.concatenate([a * n + b, b * n + a])
    cut.sort()  # sorted queries make a faster search
    keep = np.ones(len(src), dtype=bool)
    keep[np.searchsorted(src * n + g.indices, cut)] = False
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=n), out=indptr[1:])
    return Graph(indptr, g.indices[keep])


def thin_to_density(g: Graph, target: float, seed: int) -> Graph:
    """Delete uniformly random edges until density <= target.

    The surviving edge count is floor(target * n(n-1)/2), so the result
    is guaranteed to be at or below the target density. A graph already
    at or below it, such as one an earlier degree cap left sparse, comes
    back unchanged.
    """
    if not 0.0 <= target <= 1.0:
        raise ParameterError(f"target density must be in [0, 1], got {target}")
    n = g.node_count
    keep = math.floor(target * n * (n - 1) / 2)
    if keep >= g.edge_count or density(g) <= target:  # n < 2 stops at the first test
        return g
    rng = np.random.default_rng(seed)
    edges = g.edge_array()
    kept_idx = rng.choice(len(edges), size=keep, replace=False)
    return Graph.from_edges(n, edges[kept_idx])


@functools.lru_cache(maxsize=1)
def _transform(g: Graph, action: str, cap: Optional[int], target: Optional[float],
               seed: int) -> Graph:
    # Both transformations are pure functions of their arguments, and Graph
    # hashes by value, so the last result can be handed out again.
    if action == "degree_cap":
        return apply_degree_cap(g, cap, seed)
    return thin_to_density(g, target, seed)


@dataclass(frozen=True)
class InterventionSpec:
    """A scheduled contact-reduction measure.

    action is "degree_cap" (with `cap` only) or "thin" (with `target` only).
    """

    trigger_time: float
    action: str
    cap: Optional[int] = None
    target: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if not self.trigger_time >= 0:  # NaN too: it would never fire
            raise ParameterError(f"trigger time must be >= 0, got {self.trigger_time}")
        if self.action == "degree_cap":
            if self.cap is None or self.cap < 0:
                raise ParameterError("degree_cap needs a cap >= 0")
            if self.target is not None:  # never read: reject it, not ignore it
                raise ParameterError("degree_cap takes a cap, not a target")
        elif self.action == "thin":
            if self.target is None or not 0.0 <= self.target <= 1.0:
                raise ParameterError("thin needs a target density in [0, 1]")
            if self.cap is not None:
                raise ParameterError("thin takes a target, not a cap")
        else:
            raise ParameterError(f"unknown intervention action {self.action!r}")
        if self.seed < 0:
            raise ParameterError(f"intervention seed must be >= 0, got {self.seed}")

    def apply(self, g: Graph) -> Graph:
        """The transformed graph; specs that differ only in trigger time
        share it, so a sweep over triggers transforms each graph once."""
        return _transform(g, self.action, self.cap, self.target, self.seed)

    def to_dict(self) -> dict:
        out: dict = {"t": self.trigger_time, "action": self.action}
        if self.action == "degree_cap":
            out["cap"] = self.cap
        else:
            out["target"] = self.target
        if self.seed:
            out["seed"] = self.seed
        return out
