import hashlib
import io

import numpy as np
import pytest

from netepi.config import parse_intervention_block
from netepi.dynamics import RateParams, gillespie_run, init_state
from netepi.errors import ConfigError, ParameterError
from netepi.graphs import Graph, density, generate_ba, generate_er, generate_ws, save_edge_list
from netepi.interventions import InterventionSpec, apply_degree_cap, thin_to_density

from invariants import check_graph_invariants
from reference import edges


def star(n):
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def complete_graph(n):
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def reference_degree_cap(g, cap, seed):
    """The degree cap on one Python set per node, discarding both ends of
    every cut edge; `apply_degree_cap` must match it graph for graph."""
    rng = np.random.default_rng(seed)
    adj = [set(nbrs) for nbrs in g.adjacency]
    order = sorted(range(g.node_count), key=lambda v: (-len(adj[v]), v))
    for v in order:
        if len(adj[v]) <= cap:
            continue
        incident = sorted(adj[v])
        rng.shuffle(incident)
        for u in incident[cap:]:
            adj[v].discard(u)
            adj[u].discard(v)
    kept = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v]
    return Graph.from_edges(g.node_count, np.array(kept, dtype=np.int64).reshape(-1, 2))


class TestApplyDegreeCap:
    def test_star_keeps_cap_edges(self):
        capped = apply_degree_cap(star(10), 3, seed=1)
        assert capped.edge_count == 3
        assert capped.degrees()[0] == 3

    def test_cap_zero_empties_graph(self):
        capped = apply_degree_cap(complete_graph(6), 0, seed=1)
        assert capped.edge_count == 0
        assert capped.node_count == 6

    def test_no_node_exceeds_cap(self):
        g = generate_ba(500, 5, seed=3)
        capped = apply_degree_cap(g, 5, seed=4)
        assert capped.degrees().max() <= 5
        check_graph_invariants(capped)

    def test_edges_are_subset(self):
        g = generate_ba(200, 4, seed=5)
        original = set(edges(g))
        capped = set(edges(apply_degree_cap(g, 4, seed=6)))
        assert capped <= original

    def test_idempotent(self):
        g = generate_ba(200, 4, seed=5)
        once = apply_degree_cap(g, 4, seed=6)
        twice = apply_degree_cap(once, 4, seed=6)
        assert edges(once) == edges(twice)

    def test_under_cap_untouched(self):
        g = generate_ba(100, 3, seed=7)
        assert edges(apply_degree_cap(g, 1000, seed=0)) == edges(g)

    def test_deterministic(self):
        g = generate_ba(300, 5, seed=8)
        a = apply_degree_cap(g, 5, seed=9)
        b = apply_degree_cap(g, 5, seed=9)
        assert edges(a) == edges(b)

    def test_negative_cap_rejected(self):
        with pytest.raises(ParameterError):
            apply_degree_cap(star(5), -1, seed=0)

    @pytest.mark.parametrize("g", [
        generate_ba(300, 6, seed=1),
        generate_er(300, 0.04, seed=2),
        generate_ws(300, 10, 0.2, seed=3),
        Graph.from_edges(0, []),
        Graph.from_edges(12, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7)]),  # isolated 8..11
    ], ids=["ba", "er", "ws", "empty", "isolated"])
    def test_matches_set_reference(self, g):
        for cap in range(31):
            for seed in (0, 1, 2):
                capped = apply_degree_cap(g, cap, seed)
                assert capped == reference_degree_cap(g, cap, seed), (cap, seed)
                assert capped.edge_count == len(capped.indices) // 2


class TestThinToDensity:
    def test_complete_to_half(self):
        # K10 has 45 edges; target 0.5 keeps floor(0.5 * 45) = 22.
        thinned = thin_to_density(complete_graph(10), 0.5, seed=1)
        assert thinned.edge_count == 22
        assert density(thinned) <= 0.5

    def test_target_zero(self):
        assert thin_to_density(complete_graph(5), 0.0, seed=1).edge_count == 0

    def test_edges_are_subset(self):
        g = generate_ba(100, 5, seed=2)
        thinned = thin_to_density(g, density(g) / 2, seed=3)
        assert set(edges(thinned)) <= set(edges(g))

    def test_target_above_current_unchanged(self):
        # As after a degree cap left the graph sparser than a later thin's target.
        g = generate_ba(100, 5, seed=2)
        for target in (density(g), 0.9, 1.0):
            assert thin_to_density(g, target, seed=0) == g
        assert thin_to_density(Graph.from_edges(1, []), 0.5, seed=0).edge_count == 0

    @pytest.mark.parametrize("target", [-0.1, 1.5])
    def test_target_outside_unit_interval_rejected(self, target):
        with pytest.raises(ParameterError):
            thin_to_density(complete_graph(5), target, seed=0)

    def test_deterministic(self):
        g = generate_ba(100, 5, seed=2)
        a = thin_to_density(g, 0.02, seed=4)
        b = thin_to_density(g, 0.02, seed=4)
        assert edges(a) == edges(b)


@pytest.mark.parametrize("transform, digest", [
    (lambda g: apply_degree_cap(g, 5, seed=1),
     "9df9028cb463eb34139f00f597047efdcdac8e3f7477370808b573755eb3592c"),
    (lambda g: thin_to_density(g, 0.005, seed=2),
     "d82ca2fe4305f7a7bf16d6621441071bae95f9d472d630cff36fec9e193a4545"),
], ids=["degree_cap", "thin"])
def test_transform_digest_at_scale(transform, digest):
    # SHA-256 of the saved edge list; changes only with a declared output version.
    buf = io.StringIO()
    save_edge_list(transform(generate_ba(3000, 20, seed=7)), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


class TestInterventionSpec:
    def test_degree_cap_needs_cap(self):
        with pytest.raises(ParameterError):
            InterventionSpec(1.0, "degree_cap")

    def test_unknown_action(self):
        with pytest.raises(ParameterError):
            InterventionSpec(1.0, "quarantine", cap=3)

    def test_dict_round_trip(self):
        spec = InterventionSpec(2.5, "degree_cap", cap=5, seed=7)
        assert parse_intervention_block(spec.to_dict()) == spec

    def test_from_dict_thin(self):
        spec = parse_intervention_block({"t": 1.0, "action": "thin", "target": 0.01})
        assert spec.target == 0.01
        assert spec.seed == 0

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_intervention_block({"t": 1.0, "action": "thin", "target": 0.01, "x": 1})

    def test_from_dict_missing_action(self):
        with pytest.raises(ConfigError):
            parse_intervention_block({"t": 1.0})


class TestMidRunApplication:
    def test_cap_zero_freezes_epidemic(self):
        g = generate_ba(500, 5, seed=1)
        state = init_state(g, 5, seed=2)
        spec = InterventionSpec(0.5, "degree_cap", cap=0, seed=3)
        traj = gillespie_run(g, RateParams(0.5, 1.0), state, 20.0, seed=4,
                             interventions=[spec])
        after = traj.times > 0.5
        # no further infections once every edge is gone
        assert np.all(np.diff(traj.s[after]) == 0)
        assert traj.i[-1] == 0  # remaining infected still recover

    def test_intervention_reduces_scope(self):
        g = generate_ba(1000, 5, seed=5)
        params = RateParams(0.1, 1.0)
        spec = InterventionSpec(0.5, "degree_cap", cap=2, seed=6)
        plain, capped = [], []
        for s in range(30):
            state = init_state(g, 0.01, seed=100 + s)
            plain.append(gillespie_run(g, params, state, 15.0, seed=s).r[-1])
            capped.append(
                gillespie_run(g, params, state, 15.0, seed=s, interventions=[spec]).r[-1]
            )
        assert np.mean(capped) < 0.5 * np.mean(plain)

    def test_trigger_after_t_max_never_fires(self):
        g = generate_ba(200, 3, seed=7)
        state = init_state(g, 2, seed=8)
        spec = InterventionSpec(100.0, "degree_cap", cap=0, seed=9)
        a = gillespie_run(g, RateParams(0.3, 1.0), state, 5.0, seed=10)
        b = gillespie_run(g, RateParams(0.3, 1.0), state, 5.0, seed=10,
                          interventions=[spec])
        assert np.array_equal(a.times, b.times)
