"""Independent recounts that the tests hold graphs and state caches
against, and a census of the event loop's live word sources."""

import gc
from types import GeneratorType

from netepi.dynamics import I, S, CompartmentState
from netepi.graphs import Graph


def recount_si_edges(state: CompartmentState) -> int:
    """S-I edge count over every edge of the graph (cache-coherence oracle)."""
    count, labels = 0, state.labels
    for u, v in ((u, v) for u in range(state.n) for v in state.graph.adjacency[u] if u < v):
        if {labels[u], labels[v]} == {S, I}:
            count += 1
    return count


def check_graph_invariants(g: Graph) -> None:
    """Raise if the structural invariants do not hold."""
    total_degree = 0
    for u, nbrs in enumerate(g.adjacency):
        if u in nbrs:
            raise AssertionError(f"self-loop on node {u}")
        if len(set(nbrs)) != len(nbrs):
            raise AssertionError(f"duplicate neighbour on node {u}")
        for v in nbrs:
            if u not in g.adjacency[v]:
                raise AssertionError(f"asymmetric edge ({u}, {v})")
        total_degree += len(nbrs)
    if total_degree != 2 * g.edge_count:
        raise AssertionError("degree sum does not equal 2 * edge count")


def live_word_sources() -> list:
    """The block generators of `netepi.dynamics._words` still alive: each
    holds its bit generator and its block of up to 8192 words."""
    return [o for o in gc.get_objects()
            if isinstance(o, GeneratorType) and o.gi_code.co_qualname == "_words.<locals>.blocks"]
