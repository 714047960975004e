import gc
import hashlib
import io
import logging
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from netepi import graphs
from netepi.errors import (
    EdgeListFormatError,
    ParameterError,
    PowerLawFitError,
    UndefinedMetricError,
)
from netepi.graphs import (
    Graph,
    classify_scale_free,
    degree_stats,
    density,
    fit_power_law,
    fit_power_law_degrees,
    generate_ba,
    generate_er,
    generate_ws,
    load_edge_list,
    metrics_report,
    save_edge_list,
)

from invariants import check_graph_invariants
from reference import edges, first_offending_line, load_by_lines


def complete_graph(n):
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def reference_from_edges(n, edges):
    """The set-per-node builder `Graph.from_edges` replaced, kept as its reference:
    the (adjacency, edge_count) the built graph must have."""
    adj = [set() for _ in range(n)]
    m = 0
    for u, v in edges:
        if u == v:
            raise ParameterError(f"self-loop on node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(f"edge ({u}, {v}) outside node range 0..{n - 1}")
        if v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            m += 1
    return tuple(tuple(sorted(s)) for s in adj), m


MALFORMED = "edges must be (u, v) pairs of integer node ids"


class TestFromEdges:
    @pytest.mark.parametrize("n, pairs, error", [
        (4, [(0, 1), (1, 0), (2, 1), (1, 2), (0, 1)], None),
        (3, [(0, 1), (2, 2), (0, 9)], "self-loop on node 2"),
        (3, [(0, 9), (2, 2)], "edge (0, 9) outside node range 0..2"),
        (3, [(1, 0), (-1, 2)], "edge (-1, 2) outside node range 0..2"),
        (0, [], None),
        (0, [(0, 1)], "edge (0, 1) outside node range 0..-1"),
        (3, [(0, 1, 2)], MALFORMED),
        (3, [(0, 1.5)], MALFORMED),
    ], ids=["reversed-duplicates", "self-loop-first", "range-first", "negative",
            "empty", "n0-range", "3-tuple", "float-id"])
    def test_array_and_iterable_agree(self, n, pairs, error):
        array = np.array(pairs) if pairs else np.empty((0, 2), dtype=np.int64)
        inputs = [pairs, iter(pairs), array]
        if error is None:
            built = [Graph.from_edges(n, edges) for edges in inputs]
            assert built[0] == built[1] == built[2]
            assert (built[0].adjacency, built[0].edge_count) == reference_from_edges(n, pairs)
        else:
            for edges in inputs:
                with pytest.raises(ParameterError) as err:
                    Graph.from_edges(n, edges)
                assert str(err.value) == error
            if error != MALFORMED:
                with pytest.raises(ParameterError) as err:
                    reference_from_edges(n, pairs)
                assert str(err.value) == error

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2, 0)],
        np.array([0, 1]),
        np.array([[[0, 1]]]),
        np.array([[0, 1]], dtype=np.float64),
        [("0", "1")],
    ], ids=["ragged", "flat-array", "3d-array", "float-array", "strings"])
    def test_malformed_input_is_rejected(self, edges):
        with pytest.raises(ParameterError) as err:
            Graph.from_edges(3, edges)
        assert str(err.value) == MALFORMED

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_builder(self, seed):
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, 40, size=(300, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        as_tuples = [tuple(p) for p in pairs.tolist()]
        want = reference_from_edges(40, as_tuples)
        for form in (pairs, as_tuples, pairs.astype(np.uint32)):
            g = Graph.from_edges(40, form)
            assert (g.adjacency, g.edge_count) == want
        assert edges(Graph.from_edges(40, pairs)) == sorted({(min(p), max(p)) for p in as_tuples})

    def test_neighbour_ids_are_shared_objects(self):
        # Ids above 256 are not interned by Python; one object each keeps memory down.
        g = generate_ba(1000, 3, seed=1)
        for node in (300, 999):
            assert g.degrees()[node] >= 3
            assert len({id(v) for nbrs in g.adjacency for v in nbrs if v == node}) == 1


class TestGenerateEr:
    def test_zero_probability(self):
        g = generate_er(5, 0.0, seed=1)
        assert g.node_count == 5
        assert g.edge_count == 0

    def test_certain_edges(self):
        g = generate_er(5, 1.0, seed=1)
        assert g.edge_count == 10

    def test_density_near_p(self):
        g = generate_er(1000, 0.01, seed=1)
        assert 0.0085 <= density(g) <= 0.0115

    def test_deterministic(self):
        a = generate_er(100, 0.05, seed=9)
        b = generate_er(100, 0.05, seed=9)
        assert edges(a) == edges(b)

    def test_invalid_p(self):
        with pytest.raises(ParameterError):
            generate_er(10, 1.5, seed=0)

    def test_invariants(self):
        check_graph_invariants(generate_er(200, 0.05, seed=3))

    def test_mean_edge_count(self):
        # 100 seeds at (n=500, p=0.02): mean within 3 sigma of the binomial mean
        n, p = 500, 0.02
        pairs = n * (n - 1) / 2
        counts = [generate_er(n, p, seed=s).edge_count for s in range(100)]
        expect = p * pairs
        sigma = np.sqrt(pairs * p * (1 - p)) / np.sqrt(100)
        assert abs(np.mean(counts) - expect) < 3 * sigma


class TestGenerateWs:
    def test_no_rewiring_is_ring(self):
        g = generate_ws(6, 2, 0.0, seed=1)
        assert g.edge_count == 6
        assert all(g.degrees() == 2)

    def test_degrees_uniform_without_rewiring(self):
        g = generate_ws(40, 6, 0.0, seed=5)
        assert all(g.degrees() == 6)

    def test_edge_count_preserved_by_rewiring(self):
        g = generate_ws(20, 4, 1.0, seed=7)
        assert g.edge_count == 40
        check_graph_invariants(g)

    def test_average_degree(self):
        g = generate_ws(1000, 10, 0.1, seed=2)
        assert 2 * g.edge_count / 1000 == pytest.approx(10.0)

    def test_transitivity_matches_networkx(self):
        # The rewired ring's clustering is what holds criterion 01's WS
        # scope near 0.31; it must be networkx's, within the seed spread.
        nx = pytest.importorskip("networkx")
        ours, theirs = [], []
        for seed in range(10):
            g = nx.Graph()
            g.add_nodes_from(range(1000))
            g.add_edges_from(edges(generate_ws(1000, 10, 0.1, seed=seed)))
            ours.append(nx.transitivity(g))
            theirs.append(nx.transitivity(nx.watts_strogatz_graph(1000, 10, 0.1, seed=seed)))
        se = np.hypot(np.std(ours, ddof=1), np.std(theirs, ddof=1)) / np.sqrt(10)
        assert abs(np.mean(ours) - np.mean(theirs)) <= 3 * se, (np.mean(ours), np.mean(theirs))

    def test_odd_k_rejected(self):
        with pytest.raises(ParameterError):
            generate_ws(10, 3, 0.1, seed=0)

    def test_k_too_large_rejected(self):
        with pytest.raises(ParameterError):
            generate_ws(6, 6, 0.1, seed=0)


class TestGenerateBa:
    def test_tree_for_m_one(self):
        g = generate_ba(3, 1, seed=1)
        assert g.edge_count == 2

    def test_edge_count_deterministic_in_params(self):
        for seed in range(5):
            g = generate_ba(50, 3, seed=seed)
            assert g.edge_count == 3 * (50 - 3)

    def test_hub_formation(self):
        ba = generate_ba(200, 3, seed=42)
        er = generate_er(200, 2 * ba.edge_count / (200 * 199), seed=42)
        ba_ratio = ba.degrees().max() / np.median(ba.degrees())
        er_ratio = er.degrees().max() / np.median(er.degrees())
        assert ba_ratio > er_ratio

    def test_average_degree(self):
        g = generate_ba(1000, 5, seed=0)
        assert 2 * g.edge_count / 1000 == pytest.approx(9.95)

    def test_invalid_m(self):
        with pytest.raises(ParameterError):
            generate_ba(5, 5, seed=0)

    def test_invariants(self):
        check_graph_invariants(generate_ba(300, 4, seed=11))


class TestLoadEdgeList:
    def test_triangle(self):
        g = load_edge_list("0 1\n1 2\n2 0\n")
        assert g.node_count == 3
        assert g.edge_count == 3

    def test_duplicates_and_self_loops(self):
        g = load_edge_list("0 1\n1 0\n# comment\n0 0\n")
        assert g.edge_count == 1

    def test_empty_input(self):
        g = load_edge_list("")
        assert g.node_count == 0

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListFormatError) as err:
            load_edge_list("0 1\nnot an edge\n")
        assert err.value.line_number == 2

    def test_node_count_is_max_id_plus_one(self):
        g = load_edge_list("0 9\n")
        assert g.node_count == 10

    def test_compact_ids(self):
        g = load_edge_list("10 20\n20 30\n", compact_ids=True)
        assert g.node_count == 3
        assert g.edge_count == 2

    def test_compact_ids_keep_id_order(self):
        g = load_edge_list("100 7\n7 50  # c\n\n50 7\n", compact_ids=True)
        assert (g.adjacency, g.edge_count) == (((1, 2), (0,), (0,)), 2)

    def test_self_loops_skipped_with_warning(self, caplog):
        g = load_edge_list("0 1\n2 2\n3 3\n")
        assert (g.adjacency, g.edge_count) == (((1,), (0,)), 1)
        assert "skipped 2 self-loop line(s)" in caplog.text

    def test_round_trip(self):
        g = generate_er(50, 0.1, seed=4)
        buf = io.StringIO()
        save_edge_list(g, buf)
        g2 = load_edge_list(buf.getvalue())
        assert edges(g) == edges(g2)

    def test_header_keeps_trailing_isolated_nodes(self):
        g = generate_er(50, 0.02, seed=1)
        assert g.degrees()[49] == 0
        text = edge_list_text(g)
        assert text.startswith("# nodes: 50\n")
        assert load_edge_list(text) == g
        assert load_edge_list(text, compact_ids=True).node_count < 50  # compact ids drop them

    def test_header_bounds_the_ids(self):
        with pytest.raises(EdgeListFormatError) as err:
            load_edge_list("# nodes: 3\n0 1\n1 2\n2 3\n")
        assert err.value.line_number == 4
        assert "declared node count 3" in str(err.value)

    def test_id_beyond_int64_names_its_line(self):
        with pytest.raises(EdgeListFormatError) as err:
            load_edge_list("0 1\n2 99999999999999999999\n")
        assert err.value.line_number == 2


def edge_list_text(g):
    buf = io.StringIO()
    save_edge_list(g, buf)
    return buf.getvalue()


def read_outcome(text, compact_ids=False):
    """What load_edge_list gives: the graph, or the error's type, line and
    message; plus the log messages."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    log = logging.getLogger("netepi.graphs")
    log.addHandler(handler)
    try:
        result = load_edge_list(text, compact_ids=compact_ids)
    except Exception as exc:
        result = (type(exc), getattr(exc, "line_number", None), str(exc))
    finally:
        log.removeHandler(handler)
    return result, [r.getMessage() for r in records]


def line_loop_outcome(text, compact_ids=False):
    """`read_outcome`'s form, from the reference line loop."""
    try:
        g, self_loops = load_by_lines(text, compact_ids)
    except EdgeListFormatError as exc:
        return (type(exc), exc.line_number, str(exc)), []
    return g, [f"skipped {self_loops} self-loop line(s)"] if self_loops else []


# text, then (node count, edges) or the number of the line an error names
AWKWARD_INPUTS = [
    ("0 1\r\n1 2\r\n", (3, [(0, 1), (1, 2)])),
    # Outside the format, though str.splitlines and int() would read them.
    ("0 1\r1 2\n", 1),
    ("0 1\v1 2", 1),
    ("0 1\f1 2", 1),
    ("0 1\x1c1 2", 1),
    ("0 1\x851 2", 1),
    ("0 1 # \v 2\n", 1),  # a break in a comment too
    ("0 1 # c\r2 3\n", 1),  # else a lone \r would hide the edge 2 3
    ("0\u00a01\n", 1),
    ("\u0663 0\n", 1),
    ("+5 0\n", 1),
    ("1_0 0\n", 1),
    ("0000000000000000001 2\n", 1),  # 19 digits
    ("# nodes: 5\v0 1\n", 1),
    ("000000000000000001 2\n", (3, [(1, 2)])),
    ("\t0\t1 \t\n\t \n1\t2\t", (3, [(0, 1), (1, 2)])),
    ("0 1\n# final comment", (2, [(0, 1)])),
    ("0 1#c\n1 2  # c # c\n", (3, [(0, 1), (1, 2)])),
    ("0 1 # caf\u00e9 \u2603\n", (2, [(0, 1)])),
    ("", (0, [])),
    ("   \n\t\n", (0, [])),
    ("# only\n#comments\n", (0, [])),
    ("0 1\n2\n", 2),
    ("0 1 2\n", 1),
    ("0 1 2\n3\n", 1),
    ("0\n1\n", 1),
    ("0 1 2 3\n", 1),
    ("0 1\n0 -1\n", 2),
    ("0 x\n", 1),
    ("2 99999999999999999999\n", 1),
    ("0 1\n2 2\n3 3\n", (2, [(0, 1)])),
    ("# nodes: 5\n0 1\n", (5, [(0, 1)])),
    ("# nodes: 5\r\n0 1\r\n", (5, [(0, 1)])),
    ("# nodes: 2\n0 1\n1 2\n", 3),
    ("# nodes: 2\n0 1\n2 2\n", 3),  # range before self-loop
    ("# nodes: 5 \n0 1\n", (2, [(0, 1)])),  # not exactly a header
    ("#nodes: 5\n0 1\n", (2, [(0, 1)])),
    ("0 1\n# nodes: 5\n", (2, [(0, 1)])),  # only the first line declares
]


class TestWholeTextReader:
    """One parser reads every edge list: it accepts what the format allows
    and names the first line of anything else."""

    @pytest.mark.parametrize("text, expected", AWKWARD_INPUTS,
                             ids=[repr(case[0])[:24] for case in AWKWARD_INPUTS])
    def test_awkward_inputs(self, text, expected):
        result, _ = read_outcome(text)
        if isinstance(expected, int):
            assert result[:2] == (EdgeListFormatError, expected)
            assert first_offending_line(text) == expected
        else:
            assert (result.node_count, edges(result)) == expected
            assert first_offending_line(text) is None

    @pytest.mark.parametrize("text, line, reason", [
        ("0 1\n1 2 3\n0 x\n", 2, "expected two node ids"),
        ("0 x y\n", 1, "expected two node ids"),  # the id count before the digits
        ("0 1\n0 -1\n", 2, "node ids must be ASCII digits"),
        ("0 1\r2 x\n", 1, "lines must end in \\n or \\r\\n"),
        ("0 1234567890123456789\n", 1, "node ids must be below 10**18, in at most 18 digits"),
        ("# nodes: 3\n0 3\n0 1 2\n", 2, "node ids must be below the declared node count 3"),
        ("# nodes: 3\n0 1\r\n3 1 2\r\n", 3, "expected two node ids"),
    ])
    def test_error_names_the_first_rule_broken(self, text, line, reason):
        with pytest.raises(EdgeListFormatError) as err:
            load_edge_list(text)
        assert (err.value.line_number, type(err.value.line_number)) == (line, int)
        assert str(err.value).startswith(f"line {line}: {reason}: ")
        assert err.value.line == text.split("\n")[line - 1].removesuffix("\r")

    def test_self_loop_warning_on_both_paths(self):
        text = "0 1\n2 2\n3 3\n"
        assert read_outcome(text)[1] == line_loop_outcome(text)[1] == [
            "skipped 2 self-loop line(s)"]

    def test_large_saved_graph_takes_whole_text_path(self):
        g = generate_ba(2000, 3, seed=5)
        text = edge_list_text(g)
        assert read_outcome(text) == line_loop_outcome(text) == (g, [])
        bad = text + "1 2 3\n"
        assert read_outcome(bad)[0][:2] == (EdgeListFormatError, g.edge_count + 2)

    @settings(max_examples=400, deadline=None)
    @given(lines=st.data(), plain=st.booleans(),
           header=st.sampled_from(["", "", "# nodes: 13\n", "# nodes: 4\r\n", "# nodes: 20\x85"]),
           drop_last=st.booleans(), compact_ids=st.booleans())
    def test_paths_agree(self, lines, plain, header, drop_last, compact_ids):
        # Half the examples use plain pieces only; ids stay small, so no graph is large.
        ids = st.sampled_from(["0", "1", "2", "3", "5", "7", "12", "000000000000000009"])
        odd = st.sampled_from(["+5", "1_0", "\u0663", "-1", "x", "0000000000000000001",
                               "99999999999999999999"])
        pieces = st.tuples(
            st.sampled_from([0, 2, 2] if plain else [0, 2, 2, 1, 3]).flatmap(
                lambda k: st.lists(ids if plain else ids | odd, min_size=k, max_size=k)),
            st.sampled_from([" ", "\t", " \t "] + ([] if plain else ["\u00a0"])),
            st.sampled_from(["", "", "#", "# c", "# nodes: 9", "# caf\u00e9"]
                            + ([] if plain else ["#\x1c", "#\r", "# \u2029"])),
            st.sampled_from(["\n", "\n", "\r\n"]
                            + ([] if plain else ["\r", "\v", "\f", "\x1c", "\x1e", "\x85",
                                                 "\u2028"])),
        )
        text = (header if not plain or header.isascii() else "") + "".join(  # \x85: not plain
            sep + sep.join(line) + sep + comment + end
            for line, sep, comment, end in lines.draw(st.lists(pieces, max_size=8)))
        if drop_last:  # a lone \r left of a \r\n would not be plain
            text = text[:-2] if plain and text.endswith("\r\n") else text[:-1]
        outcome = read_outcome(text, compact_ids)
        line = first_offending_line(text, compact_ids)
        if plain or line is None:
            # Plain text: exactly what the line loop gives, error messages included.
            assert outcome == line_loop_outcome(text, compact_ids)
        else:
            assert outcome[0][:2] == (EdgeListFormatError, line)


class TestCsr:
    def test_arrays_are_read_only(self):
        g = generate_ba(100, 2, seed=1)
        with pytest.raises(ValueError):
            g.indices[0] = 5
        with pytest.raises(ValueError):
            g.indptr[1] = 0
        with pytest.raises(AttributeError):
            g.edge_count = 3
        assert g.indices.dtype == g.indptr.dtype == np.int64

    def test_pickle_round_trip_without_tuples(self):
        g = generate_ba(300, 3, seed=2)
        before = pickle.dumps(g)
        assert len(g.adjacency) == 300
        assert pickle.dumps(g) == before  # the derived tuples are not sent
        h = pickle.loads(before)
        assert h == g and hash(h) == hash(g)
        assert not h.indices.flags.writeable
        assert h.adjacency == g.adjacency

    def test_equal_graphs_hash_equal(self):
        a, b = generate_er(200, 0.05, seed=3), generate_er(200, 0.05, seed=3)
        assert a is not b and a == b and hash(a) == hash(b)
        c = generate_er(200, 0.05, seed=4)
        assert a != c and hash(a) != hash(c)
        assert Graph.from_edges(3, []) != Graph.from_edges(4, [])
        assert a != edges(a)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_adjacency_build_restores_the_collector(self, enabled):
        g = generate_ba(2000, 3, seed=5)
        src = np.repeat(np.arange(g.node_count), g.degrees())
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            adj = g.adjacency
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert (adj, g.edge_count) == reference_from_edges(g.node_count, zip(src, g.indices))

    def test_adjacency_is_derived_once_on_use(self):
        g = generate_ba(500, 3, seed=4)
        assert "adjacency" not in vars(g)
        adj = g.adjacency
        assert g.adjacency is adj
        src = np.repeat(np.arange(g.node_count), g.degrees())
        assert (adj, g.edge_count) == reference_from_edges(g.node_count, zip(src, g.indices))
        assert [len(nbrs) for nbrs in adj] == g.degrees().tolist()
        assert edges(g) == sorted((u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v)


class TestIdentityAtScale:
    """SHA-256 of the saved edge list of seeded graphs far larger than the
    golden CLI outputs. Both BA cases redraw after a rejected integer draw.
    A digest changes only with a declared output version (see CHANGES.md)."""

    @pytest.mark.parametrize("build, digest", [
        (lambda: generate_ba(3000, 20, seed=7),
         "1a2809ec78cfe7f4533f7a7d032dafe05d65ba2064f30f3ba0567a7b896d3a9c"),
        (lambda: generate_ba(30000, 5, seed=7),
         "fb984c5b94efc7ad78eb47c5fda8c8a2e94aa837716ec741343845d1f1d86baf"),
        (lambda: generate_er(10001, 10 / 10000, seed=3),
         "389e4437799c350e30a8fb4ebfc9d3473089e91572cd4737e866dfd53db35557"),
        (lambda: generate_ws(1000, 10, 0.1, seed=0),
         "3e95935974973b42e55caa4ed28afa4814189092dcaba9196f880137c4dec150"),
    ], ids=["ba3000-20", "ba30000-5", "er10001", "ws1000"])
    def test_saved_edge_list_digest(self, build, digest):
        g = build()
        text = edge_list_text(g)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert load_edge_list(text) == g


class TestMetrics:
    def test_density_complete(self):
        assert density(complete_graph(5)) == 1.0

    def test_density_half(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert density(g) == 0.5

    def test_density_empty_edge_set(self):
        assert density(Graph.from_edges(3, [])) == 0.0

    def test_density_needs_two_nodes(self):
        with pytest.raises(UndefinedMetricError):
            density(Graph.from_edges(1, []))

    def test_degree_stats_triangle(self):
        stats = degree_stats(complete_graph(3))
        assert stats.average_degree == 2.0
        assert stats.histogram == {2: 3}

    def test_degree_stats_star(self):
        g = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        stats = degree_stats(g)
        assert stats.average_degree == pytest.approx(1.6)
        assert stats.histogram == {1: 4, 4: 1}

    def test_degree_stats_empty_graph(self):
        with pytest.raises(UndefinedMetricError):
            degree_stats(Graph.from_edges(0, []))

    def test_histogram_counts_sum_to_node_count(self):
        g = generate_ba(500, 2, seed=8)
        assert sum(degree_stats(g).histogram.values()) == 500

    @pytest.mark.parametrize("build", [
        lambda: generate_er(400, 0.03, seed=4),
        lambda: generate_ws(400, 8, 0.2, seed=5),
        lambda: generate_ba(400, 3, seed=6),
    ], ids=["er", "ws", "ba"])
    def test_degree_stats_and_density_match_networkx(self, build):
        nx = pytest.importorskip("networkx")
        g = build()
        ng = nx.Graph()
        ng.add_nodes_from(range(g.node_count))
        ng.add_edges_from(edges(g))
        stats = degree_stats(g)
        assert stats.average_degree == sum(d for _, d in ng.degree()) / ng.number_of_nodes()
        assert stats.histogram == {k: c for k, c in enumerate(nx.degree_histogram(ng)) if c}
        assert stats.density == density(g) == nx.density(ng)

    def test_metrics_report_keys(self):
        report = metrics_report(generate_ba(1000, 5, seed=1))
        assert set(report) == {
            "nodes", "edges", "avg_degree", "density",
            "power_law_exponent", "scale_free",
        }
        assert report["nodes"] == 1000


class TestPowerLawFit:
    def sample_discrete_power_law(self, gamma, size, seed, k_max=10**6):
        # Inverse-CDF sampling of p(k) ~ k^-gamma on 1..k_max.
        ks = np.arange(1, k_max + 1, dtype=np.float64)
        pmf = ks ** -gamma
        pmf /= pmf.sum()
        cdf = np.cumsum(pmf)
        u = np.random.default_rng(seed).random(size)
        return np.searchsorted(cdf, u) + 1

    def test_recovers_known_exponent(self):
        sample = self.sample_discrete_power_law(2.5, 10**5, seed=7)
        assert fit_power_law_degrees(sample) == pytest.approx(2.5, abs=0.1)

    def test_recovers_known_exponent_pinned_tail(self):
        sample = self.sample_discrete_power_law(2.5, 10**5, seed=7)
        assert fit_power_law_degrees(sample, k_min=5) == pytest.approx(2.5, abs=0.1)

    def test_ba_in_scale_free_band(self):
        exponent = fit_power_law(generate_ba(1000, 5, seed=1))
        assert 2.2 <= exponent <= 3.2

    def test_er_far_above_three(self):
        exponent = fit_power_law(generate_er(1000, 0.01, seed=1))
        assert exponent > 3.0

    @pytest.mark.parametrize("degrees, exponent", [
        (lambda: generate_ba(30000, 5, seed=1).degrees(), 2.894988954503031),
        (lambda: generate_ba(3000, 20, seed=2).degrees(), 2.894580395206999),
        (lambda: generate_er(3000, 0.003, seed=3).degrees(), 9.944050805359261),
        (lambda: generate_ws(1000, 10, 0.1, seed=0).degrees(), 15.793160216961525),
        (lambda: np.random.default_rng(5).zipf(2.5, 4000), 2.5724699542803067),
    ], ids=["ba30000", "ba3000-20", "er3000", "ws1000", "zipf"])
    def test_scanned_fit_is_pinned(self, degrees, exponent):
        # The doubles the k_min scan over np.unique(degrees) gave.
        assert fit_power_law_degrees(degrees()) == exponent

    def test_insufficient_tail(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(PowerLawFitError) as err:
            fit_power_law(g, k_min=2)
        assert err.value.tail_size < 10


class TestHurwitzZeta:
    """_hurwitz_zeta returns the very double scipy.special.zeta(x, q) does."""

    @pytest.mark.parametrize("x", [1.0001, 1.01, 1.5, 2.0, 2.5, 2.9, 3.0, 4.2, 7.0, 12.5, 40.0])
    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 9, 10, 11, 40, 1000, 30000, 10**8])
    def test_grid(self, x, q):
        assert graphs._hurwitz_zeta(x, float(q)) == special.zeta(x, q)

    def test_random_pairs(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(1.0, 8.0, 2000)
        qs = rng.integers(1, 5000, 2000)
        for x, q in zip(xs.tolist(), qs.tolist()):
            if x > 1.0:
                assert graphs._hurwitz_zeta(x, float(q)) == special.zeta(x, q), (x, q)

    @pytest.mark.parametrize("make", [
        lambda seed: generate_ba(30000, 5, seed=seed),
        lambda seed: generate_er(3000, 0.003, seed=seed),
    ], ids=["ba30000", "er3000"])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_every_fit_call(self, monkeypatch, make, seed):
        seen = []
        zeta = graphs._hurwitz_zeta
        monkeypatch.setattr(graphs, "_hurwitz_zeta", lambda x, q: seen.append((x, q)) or zeta(x, q))
        graphs.fit_power_law(make(seed))
        assert seen
        for x, q in seen:
            assert zeta(x, q) == special.zeta(x, q), (x, q)


class TestClassifyScaleFree:
    @pytest.mark.parametrize(
        "exponent,expected",
        [(2.72, True), (3.0, False), (8.22, False), (2.0, False), (2.5, True), (1.5, False)],
    )
    def test_boundaries(self, exponent, expected):
        assert classify_scale_free(exponent) is expected

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            classify_scale_free(float("nan"))
