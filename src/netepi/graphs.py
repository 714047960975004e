"""Contact-network construction and measurement.

Graphs are undirected, simple (no self-loops, no duplicate edges) and
immutable once built, so replicate simulations can share them freely.
Node ids are dense integers 0..n-1.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import logging
import math
import re
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Optional

import numpy as np

from .errors import (
    EdgeListFormatError,
    ParameterError,
    PowerLawFitError,
    UndefinedMetricError,
)

logger = logging.getLogger(__name__)

MIN_TAIL_SIZE = 10  # smallest tail sample the power-law fit accepts


class Graph:
    """Undirected simple graph in CSR form: node v's neighbours are
    `indices[indptr[v]:indptr[v + 1]]`, ascending. Both arrays are int64 and
    read-only; `adjacency` holds the same lists as tuples, built on first use.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, edge_count: int):
        indptr, indices = np.asarray(indptr, np.int64), np.asarray(indices, np.int64)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.__dict__.update(indptr=indptr, indices=indices, edge_count=edge_count)

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __reduce__(self):  # pickles the arrays, never the derived tuples
        return Graph, (self.indptr, self.indices, self.edge_count)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.edge_count == other.edge_count and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:
        return self._digest

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"

    @functools.cached_property
    def _digest(self) -> int:
        h = hashlib.blake2b(self.indptr, digest_size=8)
        h.update(self.indices)
        return int.from_bytes(h.digest(), "little")

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour tuples, built once per graph for the event loop's state,
        which walks them (the degree cap reads the CSR lists instead); one int
        object per node id, shared by every tuple holding it.

        The cyclic collector is paused meanwhile: the build makes no cycles,
        but its n tuples would trigger about a third of its time in passes.
        """
        bounds = self.indptr.tolist()
        flat = np.array(range(self.node_count), dtype=object)[self.indices].tolist()
        enabled = gc.isenabled()
        gc.disable()
        try:
            return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
        finally:
            if enabled:
                gc.enable()

    @property
    def node_count(self) -> int:
        return len(self.indptr) - 1

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "Graph":
        """Build a graph on nodes 0..n-1 from (u, v) pairs: an iterable of
        pairs or an (m, 2) integer array.

        Reversed duplicates collapse; self-loops are rejected.
        """
        if n < 0:
            raise ParameterError("node count must be >= 0")
        try:
            pairs = np.asarray(edges if isinstance(edges, np.ndarray)
                               else list(edges) or np.empty((0, 2), dtype=np.int64))
            ok = pairs.ndim == 2 and pairs.shape[1] == 2 and pairs.dtype.kind in "iu"
        except ValueError:  # ragged pairs
            ok = False
        if not ok:
            raise ParameterError("edges must be (u, v) pairs of integer node ids")
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():  # report the first bad edge, a self-loop before a range error
            a, b = pairs[bad.argmax()].tolist()
            raise ParameterError(f"self-loop on node {a}" if a == b
                                 else f"edge ({a}, {b}) outside node range 0..{n - 1}")
        keys = np.sort(lo.astype(np.int64) * n + hi.astype(np.int64))  # np.unique: 50x slower
        keys = keys[np.diff(keys, prepend=-1) != 0]
        src, dst = np.divmod(np.sort(np.concatenate([keys, keys % n * n + keys // n])), n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return Graph(indptr, dst, len(keys))

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array of rows u < v, sorted."""
        src = np.repeat(np.arange(self.node_count), self.degrees())
        upper = src < self.indices
        return np.column_stack([src[upper], self.indices[upper]])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


@dataclass(frozen=True)
class DegreeStats:
    """Degree-based summary of a graph."""

    average_degree: float
    histogram: dict[int, int]
    density: float


def generate_er(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi G(n, p): every unordered pair is an edge with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability must be in [0, 1], got {p}")
    if n < 0:
        raise ParameterError("node count must be >= 0")
    rng = np.random.default_rng(seed)
    if n < 2 or p == 0.0:
        return Graph.from_edges(n, [])
    if p == 1.0:
        return Graph.from_edges(n, np.column_stack(np.triu_indices(n, 1)))
    # Geometric skipping over the pair sequence: O(edges), not O(n^2). A block of
    # rng.random(k) holds the doubles of k single calls; np.log may differ in the last bit.
    draw = chain.from_iterable(iter(lambda: rng.random(8192).tolist(), None)).__next__
    ws, vs = [], []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - draw()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            ws.append(w)
            vs.append(v)
    return Graph.from_edges(n, np.array([ws, vs], dtype=np.int64).T)


def generate_ws(n: int, k: int, p_rewire: float, seed: int) -> Graph:
    """Watts–Strogatz small-world graph.

    Ring lattice joining each node to its k nearest neighbours, then each
    lattice edge is rewired with probability p_rewire: the far endpoint is
    replaced by a uniformly random node that creates neither a self-loop
    nor a duplicate edge.
    """
    if k % 2 != 0:
        raise ParameterError(f"ring degree k must be even, got {k}")
    if not 0 < k < n:
        raise ParameterError(f"need 0 < k < n, got k={k}, n={n}")
    if not 0.0 <= p_rewire <= 1.0:
        raise ParameterError(f"rewiring probability must be in [0, 1], got {p_rewire}")
    rng = np.random.default_rng(seed)
    adj = [{(u + j) % n for j in range(-(k // 2), k // 2 + 1) if j} for u in range(n)]
    for u in range(n):
        for j in range(1, k // 2 + 1):
            v = (u + j) % n
            if rng.random() >= p_rewire:
                continue
            if len(adj[u]) >= n - 1:
                continue  # u already joined to everyone else
            w = int(rng.integers(n))
            while w == u or w in adj[u]:
                w = int(rng.integers(n))
            adj[u].discard(v)
            adj[v].discard(u)
            adj[u].add(w)
            adj[w].add(u)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


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


# A first line "# nodes: N", N of at most 18 digits.
_HEADER = re.compile(r"# nodes: ([0-9]{1,18})(?=\r?\n|\Z)")
# The line breaks of str.splitlines other than \n and \r\n.
_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_BAD_BREAK = re.compile(f"[{_BREAKS}]|\r(?!\n)")
_PLAIN = b"0123456789 \t\r\n"
# Any other byte read as a 0, so that a bad line's ids still count and parse.
_AS_DIGIT = bytes(c if c in _PLAIN else ord("0") for c in range(256))


def load_edge_list(text: str | IO[str], compact_ids: bool = False) -> Graph:
    """Parse an edge list: one "u v" pair per line, '#' starts a comment.

    Lines end in \\n or \\r\\n; outside comments only ASCII digits, spaces
    and tabs; two ids of at most 18 digits on each non-empty line. Any other
    text is an `EdgeListFormatError` naming the first line that breaks a rule.

    Duplicate lines and reversed duplicates collapse to a single edge;
    self-loops are skipped (counted in a warning). Node count is the N of a
    first line "# nodes: N" (as `save_edge_list` writes; an id >= N is an
    error), else max id + 1, unless compact_ids remaps ids to a dense
    0..n-1 range (and ignores the header).
    """
    if hasattr(text, "read"):
        text = text.read()
    header = None if compact_ids else _HEADER.match(text)
    declared = int(header[1]) if header else None
    pairs, self_loops = _parse_edges(text, declared)
    if self_loops:
        logger.warning("skipped %d self-loop line(s)", self_loops)
    if compact_ids:
        uniq, ids = np.unique(pairs.ravel(), return_inverse=True)
        return Graph.from_edges(len(uniq), ids.reshape(-1, 2))
    if declared is not None:
        return Graph.from_edges(declared, pairs)
    return Graph.from_edges(int(pairs.max()) + 1 if len(pairs) else 0, pairs)


def _parse_edges(text: str, declared: Optional[int]) -> tuple[np.ndarray, int]:
    """(u, v) rows without self-loops, and the self-loop count, from one
    C-level parse of the whole text. Each rule is checked on the whole text
    or array; only a failed check looks for its first line. The error names
    the first bad line, and the rule it breaks first by rank: line breaks,
    id count, digits, declared range."""
    faults = []  # (line index, rule rank, reason)
    # A str search for a character wider than the text returns at once.
    if any(c in text for c in _BREAKS) or (
            "\r" in text and text.count("\r") != text.count("\r\n")):
        at = _BAD_BREAK.search(text).start()
        faults.append((text.count("\n", 0, at), 0, "lines must end in \\n or \\r\\n"))
    raw = text.encode("utf-8", "surrogatepass")
    body = re.sub(rb"#[^\n]*", b"", raw) if b"#" in raw else raw
    if body.translate(None, _PLAIN):
        at = re.search(rb"[^0-9 \t\r\n]", body).start()
        faults.append((body.count(b"\n", 0, at), 2, "node ids must be ASCII digits"))
        body = body.translate(_AS_DIGIT)
    chars = np.frombuffer(body, dtype=np.uint8)
    # Token bounds: where the digit mask flips, starts and ends alternating.
    bounds = np.flatnonzero(np.diff(chars >= ord("0"), prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    line = np.searchsorted(np.flatnonzero(chars == ord("\n")), starts)
    if len(starts) % 2 or np.any(line[0::2] != line[1::2]) or np.any(line[1:-1:2] == line[2::2]):
        faults.append((line[np.bincount(line)[line] != 2][0], 1, "expected two node ids"))
    too_long = ends - starts > 18  # so every id fits in int64
    if too_long.any():
        faults.append((line[too_long][0], 2, "node ids must be below 10**18, in at most 18 digits"))
    # Saturates an overlong id; would read whitespace-only text as [0]. sep=" ": any whitespace.
    ids = np.fromstring(body, dtype=np.int64, sep=" ") if len(starts) else np.empty(0, np.int64)
    if declared is not None and len(ids) and ids.max() >= declared:
        faults.append((line[ids >= declared][0], 3,
                       f"node ids must be below the declared node count {declared}"))
    if faults:
        index, _, reason = min(faults)
        bad = re.split(r"\r?\n", text, index + 1)[index]
        raise EdgeListFormatError(int(index) + 1, bad, reason)
    pairs = ids.reshape(-1, 2)
    loops = pairs[:, 0] == pairs[:, 1]
    self_loops = int(np.count_nonzero(loops))
    return (pairs[~loops] if self_loops else pairs), self_loops


def save_edge_list(g: Graph, stream: IO[str]) -> None:
    """Write the "u v" per-line format load_edge_list reads, under a
    "# nodes: N" header."""
    ids = tuple(g.edge_array().ravel().tolist())
    stream.write(f"# nodes: {g.node_count}\n" + ("%d %d\n" * g.edge_count) % ids)


def density(g: Graph) -> float:
    """Fraction of all possible node pairs that are edges."""
    n = g.node_count
    if n < 2:
        raise UndefinedMetricError(f"density needs >= 2 nodes, got {n}")
    return 2.0 * g.edge_count / (n * (n - 1))


def degree_stats(g: Graph) -> DegreeStats:
    """Average degree, degree histogram and density."""
    n = g.node_count
    if n == 0:
        raise UndefinedMetricError("degree statistics undefined on the empty graph")
    degs = g.degrees()
    values, counts = np.unique(degs, return_counts=True)
    hist = {int(k): int(c) for k, c in zip(values, counts)}
    dens = density(g) if n >= 2 else 0.0
    return DegreeStats(
        average_degree=2.0 * g.edge_count / n,
        histogram=hist,
        density=dens,
    )


def _power_law_mle(tail: np.ndarray, k_min: int) -> float:
    # Continuous MLE with the half-integer shift for integer data.
    return 1.0 + tail.size / float(np.sum(np.log(tail / (k_min - 0.5))))


# Euler-Maclaurin coefficients (2k)!/B_2k of cephes' zeta(x, q).
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
    -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16  # 2**-53


def _hurwitz_zeta(x: float, q: float) -> float:
    # Hurwitz zeta sum_{i>=0} (q + i)^-x for x > 1 and 1 <= q <= 1e8, step
    # for step as cephes' zeta(x, q), so it returns the same double as
    # scipy.special.zeta(x, q): a direct sum, then Euler-Maclaurin. (Above
    # 1e8, where no degree reaches, cephes switches to an asymptotic form.)
    s = q ** -x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coeff in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coeff
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _ks_distance(tail_sorted: np.ndarray, k_min: int, exponent: float) -> float:
    # Degrees are integers, so compare against the discrete power law
    # p(k) ~ k^-exponent on k >= k_min (Hurwitz-zeta normalized); the
    # continuous CDF degenerates on heavily tied samples.
    n = tail_sorted.size
    values, counts = np.unique(tail_sorted, return_counts=True)
    ecdf = np.cumsum(counts) / n
    support = np.arange(k_min, values[-1] + 1, dtype=np.float64)
    pmf = support ** (-exponent) / _hurwitz_zeta(exponent, float(k_min))
    model = np.cumsum(pmf)[values - k_min]
    return float(np.max(np.abs(ecdf - model)))


def fit_power_law_degrees(degrees: np.ndarray, k_min: Optional[int] = None) -> float:
    """Maximum-likelihood power-law exponent of a degree sample.

    With k_min given, fits the tail degrees >= k_min directly. Otherwise
    scans candidate k_min values and keeps the one minimizing the
    Kolmogorov–Smirnov distance between the empirical tail and the fit.
    """
    degs = np.asarray(degrees, dtype=np.int64)
    degs = degs[degs >= 1]
    if k_min is not None:
        if k_min < 1:
            raise ParameterError(f"k_min must be >= 1, got {k_min}")
        tail = np.sort(degs[degs >= k_min])
        if tail.size < MIN_TAIL_SIZE:
            raise PowerLawFitError(tail.size)
        return _power_law_mle(tail, k_min)
    best: Optional[tuple[float, float]] = None
    for candidate in np.flatnonzero(np.bincount(degs)):  # np.unique imports numpy.ma
        tail = np.sort(degs[degs >= candidate])
        if tail.size < MIN_TAIL_SIZE:
            break  # candidates are ascending, tails only shrink
        exponent = _power_law_mle(tail, int(candidate))
        if exponent <= 1.0:
            continue  # zeta normalization needs exponent > 1
        dist = _ks_distance(tail, int(candidate), exponent)
        if best is None or dist < best[0]:
            best = (dist, exponent)
    if best is None:
        raise PowerLawFitError(int(np.sum(degs >= 1)))
    return best[1]


def fit_power_law(g: Graph, k_min: Optional[int] = None) -> float:
    """Power-law exponent of the graph's degree distribution."""
    return fit_power_law_degrees(g.degrees(), k_min)


def classify_scale_free(exponent: float) -> bool:
    """Scale-free iff the exponent lies strictly between 2 and 3."""
    if not math.isfinite(exponent):
        raise ParameterError(f"exponent must be finite, got {exponent}")
    return 2.0 < exponent < 3.0


def metrics_report(g: Graph, k_min: Optional[int] = None) -> dict:
    """JSON-ready metrics report for a graph."""
    stats = degree_stats(g)
    try:
        exponent: Optional[float] = fit_power_law(g, k_min)
        scale_free: Optional[bool] = classify_scale_free(exponent)
    except PowerLawFitError:
        exponent = None
        scale_free = None
    return {
        "nodes": g.node_count,
        "edges": g.edge_count,
        "avg_degree": stats.average_degree,
        "density": stats.density,
        "power_law_exponent": exponent,
        "scale_free": scale_free,
    }
