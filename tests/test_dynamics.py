import io
import itertools
import math
import pickle
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from netepi import dynamics
from netepi.dynamics import (
    CompartmentState,
    I,
    R,
    RateParams,
    S,
    _SharedPrefix,
    gillespie_run,
    gillespie_well_mixed,
    init_state,
    summarize_trajectory,
)
from netepi.errors import (
    ParameterError,
    StateError,
)
from netepi.graphs import Graph, generate_ba, generate_er, generate_ws
from netepi.interventions import InterventionSpec

from invariants import live_word_sources, recount_si_edges
from reference import (
    INFECTION,
    RECOVERY,
    WANING,
    AbsorbingState,
    EventRates,
    ReplayedDraws,
    choose,
    compute_event_rates,
    infect,
    rebuild_caches,
    recover,
    sample_waiting_time,
    select_event,
    wane,
)


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


class TestRateParams:
    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            RateParams(-0.1, 1.0)

    def test_alpha_defaults_to_sir(self):
        assert RateParams(0.5, 1.0).alpha == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        for rates in ((bad, 1.0), (0.1, bad), (0.1, 1.0, bad)):
            with pytest.raises(ParameterError):
                RateParams(*rates)


class TestInitState:
    def test_single_seed_on_triangle(self):
        state = init_state(triangle(), 1, seed=1)
        assert (state.n_s, state.n_i, state.n_r) == (2, 1, 0)
        assert len(state.si_edges) == 2

    def test_fraction_rounds(self):
        g = generate_er(1000, 0.01, seed=0)
        state = init_state(g, 0.01, seed=2)
        assert state.n_i == 10

    def test_everyone_infected(self):
        state = init_state(triangle(), 1.0, seed=3)
        assert state.n_i == 3
        assert len(state.si_edges) == 0

    def test_count_above_population_rejected(self):
        with pytest.raises(ParameterError):
            init_state(triangle(), 4, seed=0)

    def test_fraction_above_one_rejected(self):
        with pytest.raises(ParameterError):
            init_state(triangle(), 1.5, seed=0)


def _caches(state):
    return state.si_edges, state.infected, state.recovered


class TestCacheBuild:
    """The caches built from the CSR arcs equal the one-node-at-a-time walk
    of `reference.rebuild_caches`, item for item and index for index."""

    @staticmethod
    def assert_rebuilt(state):
        for got, want in zip(_caches(state), rebuild_caches(state)):
            assert got.items == want.items
            assert list(got.pos.items()) == list(want.pos.items())

    @pytest.mark.parametrize("build", [
        lambda: generate_er(400, 0.02, seed=1),
        lambda: generate_er(400, 0.003, seed=1),  # about 30 % of the nodes isolated
        lambda: generate_ws(300, 6, 0.3, seed=2),
        lambda: generate_ba(500, 3, seed=3),
        lambda: Graph.from_edges(12, [(0, 1), (0, 2), (3, 4)]),  # 5..11 isolated
        lambda: Graph.from_edges(1, []),
    ], ids=["er", "er-sparse", "ws", "ba", "isolated", "one-node"])
    def test_random_labels(self, build):
        # Mixed labels, then none infected, all recovered, all infected.
        g = build()
        rng = np.random.default_rng(7)
        for p in ([0.6, 0.3, 0.1], [0.2, 0.1, 0.7], [0.7, 0.0, 0.3], [0, 0, 1], [0, 1, 0]):
            for _ in range(3):
                state = CompartmentState(g, rng.choice(3, size=g.node_count, p=p).astype(np.int8))
                self.assert_rebuilt(state)
                assert len(state.si_edges) == recount_si_edges(state)

    def test_rebind_rebuilds_on_the_new_graph(self):
        g = generate_ba(600, 5, seed=4)
        state = init_state(g, 0.2, seed=5)
        state.rebind_graph(InterventionSpec(0.0, "degree_cap", cap=3, seed=1).apply(g))
        assert state.graph is not g
        self.assert_rebuilt(state)

    def test_caches_hold_the_graphs_id_objects(self):
        # One int object per node id, the one the neighbour tuples hold.
        g = generate_ba(2000, 3, seed=4)
        state = CompartmentState(g, np.random.default_rng(6).choice(3, size=2000).astype(np.int8))
        ids = g._ids
        assert all(v is ids[v] for cache in _caches(state)[1:] for v in cache.items)
        assert all(u is ids[u] and v is ids[v] for u, v in state.si_edges.items)
        assert all(u is ids[u] for nbrs in g.adjacency for u in nbrs)

    @pytest.mark.parametrize("fresh", ["init_state", "labels"])
    def test_copy_equals_a_rebuild_and_owns_its_lists(self, fresh):
        g = generate_ba(400, 4, seed=6)
        labels = np.random.default_rng(8).choice(3, size=400).astype(np.int8)
        state = init_state(g, 0.1, seed=9) if fresh == "init_state" else CompartmentState(g, labels)
        twin = state.copy()
        self.assert_rebuilt(twin)
        assert twin.graph is g and (twin.n_s, twin.n_i, twin.n_r) == (state.n_s, state.n_i, state.n_r)
        assert twin._lab == state._lab and twin._lab is not state._lab
        for a, b in zip(_caches(state), _caches(twin)):
            assert a is not b and a.items is not b.items and a.pos is not b.pos
        before = [(c.items.copy(), c.pos.copy()) for c in _caches(state)]
        recover(twin, twin.infected.items[0])
        infect(twin, twin.si_edges.items[0][0])
        assert [(c.items, c.pos) for c in _caches(state)] == before
        self.assert_rebuilt(state)


class TestEventRates:
    def test_triangle_single_infected(self):
        g = triangle()
        state = init_state(g, 1, seed=1)
        rates = compute_event_rates(g, state, RateParams(0.5, 1.0))
        assert rates.infection == pytest.approx(1.0)
        assert rates.recovery == pytest.approx(1.0)
        assert rates.total == pytest.approx(2.0)

    def test_all_recovered_only_waning(self):
        g = generate_er(10, 0.3, seed=1)
        labels = np.full(10, R, dtype=np.int8)
        state = CompartmentState(g, labels)
        rates = compute_event_rates(g, state, RateParams(1.0, 1.0, 0.2))
        assert rates.infection == 0.0
        assert rates.recovery == 0.0
        assert rates.total == pytest.approx(2.0)

    def test_cache_matches_recount_mid_epidemic(self):
        g = generate_er(50, 0.2, seed=5)
        state = init_state(g, 10, seed=6)
        rng = np.random.default_rng(7)
        for _ in range(30):
            if len(state.si_edges):
                infect(state, choose(state.si_edges, rng)[0])
            if len(state.infected):
                recover(state, choose(state.infected, rng))
            assert len(state.si_edges) == recount_si_edges(state)


class TestLabels:
    """`labels` is a view of the state's one label store."""

    def test_labels_track_moves_and_copies_do_not_alias(self):
        g = generate_ba(200, 4, seed=3)
        state = init_state(g, 10, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(40):
            if len(state.si_edges):
                infect(state, choose(state.si_edges, rng)[0])
            if len(state.infected) > 1:
                recover(state, choose(state.infected, rng))
        if len(state.recovered):
            wane(state, choose(state.recovered, rng))
        labels = state.labels
        assert labels.dtype == np.int8 and labels.shape == (200,)
        assert set(np.flatnonzero(labels == I).tolist()) == set(state.infected.items)
        assert set(np.flatnonzero(labels == R).tolist()) == set(state.recovered.items)
        assert np.bincount(labels, minlength=3).tolist() == [state.n_s, state.n_i, state.n_r]

        before = labels.copy()
        twin = state.copy()
        recover(twin, twin.infected.items[0])
        infect(twin, twin.si_edges.items[0][0])
        assert np.array_equal(state.labels, before)
        assert not np.array_equal(twin.labels, before)
        assert len(state.si_edges) == recount_si_edges(state)

        restored = pickle.loads(pickle.dumps(state))
        assert np.array_equal(restored.labels, before)
        infect(restored, restored.si_edges.items[0][0])
        assert np.array_equal(state.labels, before)


class TestSampleWaitingTime:
    def test_algebraic_inversion(self):
        class FixedRng:
            def random(self):
                return 1.0 - math.exp(-2.0)  # 1 - u makes u = e^-2

        assert sample_waiting_time(2.0, FixedRng()) == pytest.approx(1.0)

    def test_mean_matches_exponential(self):
        rng = np.random.default_rng(0)
        samples = [sample_waiting_time(1.0, rng) for _ in range(10**5)]
        assert abs(np.mean(samples) - 1.0) < 3.0 / np.sqrt(10**5)

    def test_absorbing_state(self):
        with pytest.raises(AbsorbingState):
            sample_waiting_time(0.0, np.random.default_rng(0))


class TestSelectEvent:
    def test_pure_infection(self):
        rng = np.random.default_rng(1)
        rates = EventRates(5.0, 0.0, 0.0)
        assert all(select_event(rates, rng) == INFECTION for _ in range(100))

    def test_frequencies_match_propensities(self):
        rng = np.random.default_rng(2)
        rates = EventRates(1.0, 1.0, 2.0)
        draws = [select_event(rates, rng) for _ in range(10**5)]
        for kind, p in ((INFECTION, 0.25), (RECOVERY, 0.25), (WANING, 0.5)):
            freq = draws.count(kind) / len(draws)
            sigma = np.sqrt(p * (1 - p) / len(draws))
            assert abs(freq - p) < 3 * sigma

    def test_absorbing_state(self):
        with pytest.raises(AbsorbingState):
            select_event(EventRates(0.0, 0.0, 0.0), np.random.default_rng(0))


class TestGillespieRun:
    def test_pure_death_process(self):
        g = generate_er(50, 0.2, seed=1)
        state = init_state(g, 10, seed=2)
        traj = gillespie_run(g, RateParams(0.0, 1.0), state, 100.0, seed=3)
        assert traj.i[-1] == 0
        assert traj.r[-1] == 10
        assert traj.s[-1] == 40

    def test_conservation_and_monotonicity(self):
        g = generate_er(100, 0.05, seed=4)
        state = init_state(g, 5, seed=5)
        traj = gillespie_run(g, RateParams(0.5, 1.0), state, 50.0, seed=6)
        assert np.all(traj.s + traj.i + traj.r == 100)
        assert np.all(np.diff(traj.r) >= 0)
        assert np.all(np.diff(traj.s) <= 0)
        assert np.all(np.diff(traj.times) > 0)

    def test_seed_determinism(self):
        g = generate_er(100, 0.05, seed=4)
        state = init_state(g, 5, seed=5)
        runs = [gillespie_run(g, RateParams(0.5, 1.0), state, 50.0, seed=6) for _ in range(2)]
        assert np.array_equal(runs[0].times, runs[1].times)
        assert np.array_equal(runs[0].i, runs[1].i)

    def test_sirs_alpha_zero_reduces_to_sir(self):
        g = generate_er(100, 0.05, seed=4)
        state = init_state(g, 5, seed=5)
        sir = gillespie_run(g, RateParams(0.5, 1.0, 0.0), state, 50.0, seed=6)
        sirs = gillespie_run(g, RateParams(0.5, 1.0, alpha=0.0), state, 50.0, seed=6)
        a, b = io.StringIO(), io.StringIO()
        sir.to_csv(a)
        sirs.to_csv(b)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize("t_max", [math.nan, 0.0, -1.0])
    def test_bad_t_max_rejected_before_the_record_is_touched(self, t_max):
        g = generate_er(50, 0.2, seed=1)
        prefix = _SharedPrefix()
        with pytest.raises(ParameterError):
            gillespie_run(g, RateParams(0.3, 1.0), init_state(g, 5, seed=2), t_max, 1,
                          prefix=prefix)
        assert prefix.run is None

    def test_total_rate_overflow_rejected(self):
        # At beta 1e308 the loop's total rate is inf: the class draw would fall
        # through to waning and choose from an empty recovered set. At 1e306
        # it is finite, and the run ends.
        g = generate_er(30, 0.3, seed=1)
        state = init_state(g, 3, seed=2)
        with pytest.raises(ParameterError, match="overflows"):
            gillespie_run(g, RateParams(1e308, 1.0), state, 5.0, seed=3)
        traj = gillespie_run(g, RateParams(1e306, 1.0), state, 5.0, seed=3)
        assert traj.i[-1] == 0 and np.all(traj.s + traj.i + traj.r == 30)

    def test_sirs_reinfection_possible(self):
        g = generate_er(200, 0.1, seed=7)
        state = init_state(g, 10, seed=8)
        traj = gillespie_run(g, RateParams(0.5, 1.0, 0.5), state, 30.0, seed=9)
        assert np.any(np.diff(traj.r) < 0)  # waning moved someone R -> S

    def test_inconsistent_init_rejected(self):
        g1 = generate_er(50, 0.2, seed=1)
        g2 = generate_er(60, 0.2, seed=1)
        state = init_state(g1, 5, seed=2)
        with pytest.raises(StateError):
            gillespie_run(g2, RateParams(0.5, 1.0), state, 10.0, seed=3)

    def test_cache_coherent_after_long_run(self):
        g = generate_er(300, 0.05, seed=10)
        state = init_state(g, 0.05, seed=11)
        params = RateParams(0.3, 0.5, 0.3)
        rng = np.random.default_rng(12)
        live = state.copy()
        for _ in range(10**4):
            rates = compute_event_rates(g, live, params)
            if rates.total <= 0:
                break
            kind = select_event(rates, rng)
            if kind == INFECTION:
                infect(live, choose(live.si_edges, rng)[0])
            elif kind == RECOVERY:
                recover(live, choose(live.infected, rng))
            else:
                wane(live, choose(live.recovered, rng))
        assert len(live.si_edges) == recount_si_edges(live)


def _reference_run(rates_of, fire, counts, t_max, seed, rng=None):
    """The direct method written with the reference helpers only: one
    (t, S, I, R) row at the start and after every event. The draws are
    `default_rng(seed)`'s, or `rng`'s if given."""
    rng = np.random.default_rng(seed) if rng is None else rng
    t, rows = 0.0, [(0.0, *counts())]
    while t < t_max:
        rates = rates_of()
        if rates.total <= 0:
            break
        tau = sample_waiting_time(rates.total, rng)
        if t + tau > t_max:
            break
        t += tau
        fire(select_event(rates, rng), rng)
        rows.append((t, *counts()))
    return rows


def _rows(traj):
    return list(zip(traj.times.tolist(), traj.s.tolist(), traj.i.tolist(), traj.r.tolist()))


def _network_reference(g, params, init, t_max, seed, rng=None):
    state = init.copy()
    moves = {
        INFECTION: lambda rng: infect(state, choose(state.si_edges, rng)[0]),
        RECOVERY: lambda rng: recover(state, choose(state.infected, rng)),
        WANING: lambda rng: wane(state, choose(state.recovered, rng)),
    }
    return _reference_run(lambda: compute_event_rates(g, state, params),
                          lambda kind, rng: moves[kind](rng),
                          lambda: (state.n_s, state.n_i, state.n_r), t_max, seed, rng)


def _intervened_reference(g, params, init, t_max, seed, interventions):
    """The direct method with interventions, written apart from the engine:
    the first draw whose t + tau reaches the next trigger is dropped, t
    moves to the trigger (at most t_max), and a new state with the labels
    as they are is built on the graph the intervention gives. A row at the
    final t ends the run if the last row is earlier."""
    pending = sorted(interventions, key=lambda iv: iv.trigger_time)
    state = CompartmentState(g, init.labels.copy())
    rng = np.random.default_rng(seed)
    t, rows = 0.0, [(0.0, state.n_s, state.n_i, state.n_r)]
    while t < t_max:
        rates = compute_event_rates(state.graph, state, params)
        if rates.total <= 0:
            break
        tau = sample_waiting_time(rates.total, rng)
        if pending and t + tau >= pending[0].trigger_time:
            spec = pending.pop(0)
            t = min(spec.trigger_time, t_max)
            state = CompartmentState(spec.apply(state.graph), state.labels.copy())
            continue
        if t + tau > t_max:
            break
        t += tau
        kind = select_event(rates, rng)
        if kind == INFECTION:
            infect(state, choose(state.si_edges, rng)[0])
        elif kind == RECOVERY:
            recover(state, choose(state.infected, rng))
        else:
            wane(state, choose(state.recovered, rng))
        rows.append((t, state.n_s, state.n_i, state.n_r))
    if rows[-1][0] != t:
        rows.append((t, *rows[-1][1:]))
    return rows


def _well_mixed_reference(n, k_avg, params, n_i, t_max, seed):
    changes = {INFECTION: (-1, 1, 0), RECOVERY: (0, -1, 1), WANING: (1, 0, -1)}
    c = [n - n_i, n_i, 0]

    def fire(kind, rng):
        c[:] = [x + d for x, d in zip(c, changes[kind])]

    return _reference_run(lambda: EventRates(params.beta * k_avg * c[0] * c[1] / n,
                                             params.gamma * c[1], params.alpha * c[2]),
                          fire, lambda: tuple(c), t_max, seed)


class TestEngineMatchesReference:
    """The engines reproduce the reference loop bit for bit, so the
    selection-frequency checks on `select_event` hold for the engines."""

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("build", [
        lambda: generate_er(300, 0.03, seed=1), lambda: generate_ba(300, 3, seed=2),
    ], ids=["er", "ba"])
    def test_network(self, build, alpha):
        g = build()
        params = RateParams(0.4, 1.0, alpha)
        moves = {
            INFECTION: lambda st, rng: infect(st, choose(st.si_edges, rng)[0]),
            RECOVERY: lambda st, rng: recover(st, choose(st.infected, rng)),
            WANING: lambda st, rng: wane(st, choose(st.recovered, rng)),
        }
        for seed in range(6):
            init = init_state(g, 0.03, seed=seed)
            state = init.copy()
            expected = _reference_run(
                lambda: compute_event_rates(g, state, params),
                lambda kind, rng: moves[kind](state, rng),
                lambda: (state.n_s, state.n_i, state.n_r), 10.0, seed,
            )
            assert _rows(gillespie_run(g, params, init, 10.0, seed)) == expected

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_well_mixed(self, alpha):
        n, k_avg, params = 400, 8.0, RateParams(0.3, 1.0, alpha)
        changes = {INFECTION: (-1, 1, 0), RECOVERY: (0, -1, 1), WANING: (1, 0, -1)}
        for seed in range(6):
            c = [n - 4, 4, 0]

            def fire(kind, rng):
                c[:] = [x + d for x, d in zip(c, changes[kind])]

            expected = _reference_run(
                lambda: EventRates(params.beta * k_avg * c[0] * c[1] / n,
                                   params.gamma * c[1], params.alpha * c[2]),
                fire, lambda: tuple(c), 10.0, seed,
            )
            assert _rows(gillespie_well_mixed(n, k_avg, params, 4, 10.0, seed)) == expected

    def test_well_mixed_across_draw_blocks(self):
        # Two uniforms per event: over 12.5k events use more than three
        # 8192-draw blocks, so block boundaries fall mid-run.
        n, k_avg, params = 2000, 8.0, RateParams(0.3, 1.0, 0.5)
        for seed in range(2):
            expected = _well_mixed_reference(n, k_avg, params, 20, 15.0, seed)
            assert len(expected) - 1 > 12_500
            assert _rows(gillespie_well_mixed(n, k_avg, params, 20, 15.0, seed)) == expected

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_hub_heavy_network(self, alpha):
        g = generate_ba(300, 10, seed=7)
        params = RateParams(0.15, 1.0, alpha)
        for seed in range(4):
            init = init_state(g, 0.03, seed=seed)
            expected = _network_reference(g, params, init, 10.0, seed)
            assert len(expected) > 100
            assert _rows(gillespie_run(g, params, init, 10.0, seed)) == expected

    def test_network_across_raw_word_blocks(self):
        # Two words and a half per event: over 25k events use more than
        # three 8192-word blocks, so block boundaries fall mid-run.
        g = generate_er(1000, 0.008, seed=5)
        params = RateParams(0.4, 1.0, 0.5)
        init = init_state(g, 0.05, seed=1)
        expected = _network_reference(g, params, init, 45.0, 1)
        assert len(expected) - 1 > 25_000
        assert _rows(gillespie_run(g, params, init, 45.0, 1)) == expected


    def test_network_draws_that_reach_the_rejection_branch(self, monkeypatch):
        # A target draw on the zero low half of every third word is x = 0,
        # which numpy's rule rejects unless h divides 2**32: the loop must
        # redraw where the reference does, and go on with the high half it
        # holds then.
        g = generate_er(300, 0.03, seed=1)
        params = RateParams(0.4, 1.0, 0.3)
        init = init_state(g, 0.03, seed=2)
        reference = ReplayedDraws(_LowHalvesZeroed(2))
        expected = _network_reference(g, params, init, 10.0, 2, reference)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: SimpleNamespace(bit_generator=_LowHalvesZeroed(seed)))
        assert _rows(gillespie_run(g, params, init, 10.0, 2)) == expected
        assert len(expected) > 1000 and reference.rejections > 100


class _LowHalvesZeroed:
    """The raw words of `np.random.PCG64(seed)`, but with the low 32 bits
    of every third one zero."""

    def __init__(self, seed):
        self._pcg, self._read = np.random.PCG64(seed), 0

    def advance(self, delta):
        self._pcg.advance(delta)
        self._read += delta

    def random_raw(self, size):
        words = self._pcg.random_raw(size)
        words[np.arange(self._read, self._read + size) % 3 == 0] &= np.uint64(0xFFFFFFFF00000000)
        self._read += size
        return words


_default_rng = np.random.default_rng


class _ZeroDraws:
    """The `random` draws of `default_rng(seed)`, one at a time or in
    blocks, except that the draws at the indices in `zeros` are 0.0."""

    def __init__(self, seed, zeros):
        self.rng, self.read, self.zeros = _default_rng(seed), 0, zeros

    def random(self, size=None):
        u = np.atleast_1d(self.rng.random(1 if size is None else size))
        for k in self.zeros:
            if self.read <= k < self.read + len(u):
                u[k - self.read] = 0.0
        self.read += len(u)
        return float(u[0]) if size is None else u


class TestWellMixedBlockEdges:
    """The well-mixed engine runs its jump chain a block of 4096 events
    (8192 draws) at a time and cuts the block on its clock; it stops where
    the reference loop does. Event 4096 is the last of the first block."""

    EVENTS = (1, 4095, 4096, 4097, 5000)

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("n", [1, 10, 400, 2000])
    def test_t_max_at_event_times(self, n, alpha, beta):
        params, n_i = RateParams(beta, 1.0, alpha), max(1, n // 100)
        for seed in range(4):
            full = _well_mixed_reference(n, 8.0, params, n_i, 15.0, seed)
            assert _rows(gillespie_well_mixed(n, 8.0, params, n_i, 15.0, seed)) == full
            for k in (k for k in self.EVENTS if k < len(full)):
                t_max = full[k][0]
                expected = _well_mixed_reference(n, 8.0, params, n_i, t_max, seed)
                assert expected == full[:k + 1]
                assert _rows(gillespie_well_mixed(n, 8.0, params, n_i, t_max, seed)) == expected

    def test_grid_covers_absorption_and_three_blocks(self):
        sir = _well_mixed_reference(400, 8.0, RateParams(0.3, 1.0), 4, 15.0, 1)
        assert sir[-1][2] == 0 and 1 < len(sir) - 1 < 4096  # absorbed mid-block
        sirs = _well_mixed_reference(2000, 8.0, RateParams(0.3, 1.0, 0.5), 20, 15.0, 0)
        assert len(sirs) - 1 > 3 * 4096

    @pytest.mark.parametrize("event", [1, 4095, 4096, 5000])
    def test_zero_wait_at_t_max(self, monkeypatch, event):
        # The wait draw of the event after `event` is 0.0, so both events
        # fall at exactly t_max; the run stops after the first, as the
        # reference's `while t < t_max` does.
        n, params = 2000, RateParams(0.3, 1.0, 0.5)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _ZeroDraws(seed, [2 * event]))
        full = _well_mixed_reference(n, 8.0, params, 20, 15.0, 0)
        assert full[event][0] == full[event + 1][0]
        t_max = full[event][0]
        expected = _well_mixed_reference(n, 8.0, params, 20, t_max, 0)
        assert expected == full[:event + 1]
        assert _rows(gillespie_well_mixed(n, 8.0, params, 20, t_max, 0)) == expected


def _chain_paths(monkeypatch, *args):
    """A well-mixed run and, per 4096-event block, its guessed passes and
    the class draws its one-at-a-time loop read: spies on
    `dynamics._recount`, whose last call in a block recounts the block's
    codes (a bytearray), and on the loop's `chain.from_iterable`."""
    blocks, recount = [[0, 0]], dynamics._recount

    def spy(xs, s, i, guess, law):
        if isinstance(guess, bytearray):
            blocks.append([0, 0])
        else:
            blocks[-1][0] += 1
        return recount(xs, s, i, guess, law)

    def read(chunks):
        for x in itertools.chain.from_iterable(chunks):
            blocks[-1][1] += 1
            yield x

    monkeypatch.setattr(dynamics, "_recount", spy)
    monkeypatch.setattr(dynamics, "chain", SimpleNamespace(from_iterable=read))
    traj = gillespie_well_mixed(*args)
    monkeypatch.undo()
    return _rows(traj), blocks[:-1]


class TestGuessedChain:
    """From enough infected and susceptible the well-mixed chain runs in
    guessed numpy passes and falls back to the one-at-a-time loop; every path
    must give the reference loop's rows. Each case asserts the path it takes."""

    def check(self, monkeypatch, n, k_avg, params, n_i, t_max, seed):
        rows, blocks = _chain_paths(monkeypatch, n, k_avg, params, n_i, t_max, seed)
        assert rows == _well_mixed_reference(n, k_avg, params, n_i, t_max, seed)
        return rows, blocks

    def test_passes_that_settle(self, monkeypatch):
        _, blocks = self.check(monkeypatch, 20_000, 10.0, RateParams(0.3, 1.0, 0.2), 1000, 3.0, 1)
        assert len(blocks) >= 5 and all(passes > 1 and read == 0 for passes, read in blocks)

    def test_passes_that_fall_back(self, monkeypatch):
        # Fast waning keeps R small, so each waning or recovery moves the
        # class boundaries: the passes keep few events and the loop runs on.
        _, blocks = self.check(monkeypatch, 2000, 10.0, RateParams(0.3, 1.0, 20.0), 600, 5.0, 6)
        assert len(blocks) >= 3 and all(passes > 0 and read > 0 for passes, read in blocks)

    def test_small_counts_never_guess(self, monkeypatch):
        rows, blocks = self.check(monkeypatch, 50, 10.0, RateParams(0.3, 1.0, 1.0), 5, 2000.0, 1)
        assert len(rows) - 1 > 4096 and blocks and all(passes == 0 for passes, _ in blocks)

    @pytest.mark.parametrize("n, n_i, blocks_run", [(10_000, 5000, 2), (1000, 300, 1)])
    def test_absorbed_in_a_pass(self, monkeypatch, n, n_i, blocks_run):
        # Subcritical SIR from many infected: guessed from its first block,
        # absorbed within its second (n = 10**4) or its first (n = 1000).
        rows, blocks = self.check(monkeypatch, n, 10.0, RateParams(0.01, 1.0), n_i, 50.0, 1)
        assert rows[-1][2] == 0 and len(blocks) == blocks_run and blocks[0][0] > 0
        assert blocks[-1][0] > 0 and blocks[-1][1] == 1  # the loop reads the absorbed event

    def test_no_pass_starts_absorbed(self, monkeypatch):
        # Subcritical SIR from 300 infected, absorbed within its second pass
        # (558 events): the passes end there, and none starts at I = 0.
        starts, recount = [], dynamics._recount

        def spy(xs, s, i, guess, law):
            if not isinstance(guess, bytearray):  # a pass, not the block's clock
                starts.append((s, i))
            return recount(xs, s, i, guess, law)

        args = 1000, 10.0, RateParams(0.05, 1.0), 300, 50.0, 1
        monkeypatch.setattr(dynamics, "_recount", spy)
        rows = _rows(gillespie_well_mixed(*args))
        monkeypatch.undo()
        assert rows == _well_mixed_reference(*args) and len(rows) - 1 == 558
        assert rows[-1][2] == 0 and starts == [(700.0, 300.0), (664.0, 215.0)]

    def test_mean_degree_zero(self, monkeypatch):
        rows, blocks = self.check(monkeypatch, 10_000, 0.0, RateParams(0.3, 1.0, 0.5), 5000, 5.0, 2)
        assert blocks[0][0] > 0 and rows[-1][1] > 5000  # waning only adds susceptibles

    def test_infection_only_until_no_one_is_susceptible(self, monkeypatch):
        rows, blocks = self.check(monkeypatch, 20_000, 10.0, RateParams(0.3, 0.0, 0.0), 10, 1e9, 3)
        assert rows[-1][1:] == (0, 20_000, 0) and len(rows) - 1 == 19_990
        assert blocks[-1][0] > 0 and blocks[-1][1] == 1  # the loop reads the absorbed event

    def test_tiny_positive_rate_does_not_warn(self):
        # beta * k_avg * S * I / n is a subnormal above zero, so the first wait
        # is inf: it is cut as past t_max, without an overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = gillespie_well_mixed(100, 10.0, RateParams(5e-324, 0.0, 0.0), 5, 10.0, 1)
        assert _rows(traj) == [(0.0, 95, 5, 0)]


class TestInterventionsMatchReference:
    """`gillespie_run` with interventions reproduces `_intervened_reference`
    row for row, on a caller's run record and on a private one."""

    T_MAX = 10.0

    @classmethod
    def cases(cls):
        sirs, sir = RateParams(0.4, 1.0, 0.3), RateParams(0.05, 2.0)
        cap = lambda t: InterventionSpec(t, "degree_cap", cap=2, seed=3)  # noqa: E731
        thin = lambda t: InterventionSpec(t, "thin", target=0.01, seed=4)  # noqa: E731
        # In order of first trigger, so a caller's record resumes from one
        # case to the next; the absorbed case has other rates and restarts it.
        return [
            ("two-interventions", sirs, [thin(2.0), cap(0.8)]),
            ("degree-cap", sirs, [cap(1.0)]),
            ("thin", sirs, [thin(1.5)]),
            ("trigger-just-past-t-max", sirs, [cap(math.nextafter(cls.T_MAX, math.inf))]),
            ("trigger-far-past-t-max", sirs, [cap(10 * cls.T_MAX)]),
            ("trigger-after-absorption", sir, [cap(8.0)]),
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_every_case_with_and_without_a_callers_record(self, seed):
        g = generate_er(300, 0.03, seed=1)
        init = init_state(g, 0.03, seed=seed)
        record = _SharedPrefix()
        for name, params, interventions in self.cases():
            expected = _intervened_reference(g, params, init, self.T_MAX, seed, interventions)
            private = gillespie_run(g, params, init, self.T_MAX, seed, interventions)
            shared = gillespie_run(g, params, init, self.T_MAX, seed, interventions, record)
            assert _rows(private) == expected, name
            assert _rows(shared) == expected, name
            if name == "trigger-just-past-t-max":  # time jumped to t_max: a repeated row
                assert expected[-1][0] == self.T_MAX and expected[-1][1:] == expected[-2][1:]
            if name == "trigger-after-absorption":
                assert expected[-1][2] == 0 and expected[-1][0] < 8.0, expected[-1]
            if name in ("two-interventions", "degree-cap", "thin"):  # the run went on
                assert expected[-1][0] > max(iv.trigger_time for iv in interventions), name

    def test_a_private_record_is_freed_at_the_fork(self, monkeypatch):
        # Every state `copy()` makes is watched. When the caches are rebuilt
        # on a new graph, none may be alive but the state being rebuilt: a
        # private record's state there would hold a second S-I edge set at
        # the peak. (CPython 3.11 moves call arguments into the callee's
        # frame, so the record `gillespie_run` passes on is not held there.)
        made, alive = [], []
        copy_state, rebind = CompartmentState.copy, CompartmentState.rebind_graph

        def spy_copy(state):
            twin = copy_state(state)
            made.append(weakref.ref(twin))
            return twin

        def spy_rebind(state, graph):
            alive.append(sum(1 for ref in made if ref() is not None and ref() is not state))
            rebind(state, graph)

        monkeypatch.setattr(CompartmentState, "copy", spy_copy)
        monkeypatch.setattr(CompartmentState, "rebind_graph", spy_rebind)
        g = generate_er(2000, 0.005, seed=3)
        init = init_state(g, 0.02, seed=4)
        thin = [InterventionSpec(t, "thin", target=0.003, seed=1) for t in (1.0, 2.0)]
        traj = gillespie_run(g, RateParams(0.4, 1.0, 0.5), init, 4.0, 5, thin)
        assert traj.times[-1] > 2.0
        assert made and alive == [0, 0]

    def test_the_caches_a_rebuild_replaces_are_freed(self, monkeypatch):
        # After each rebuild on a new graph, none of the S-I edge, infected
        # and recovered sets it replaced, lists and indexes too, may be
        # alive: at the fork they are the dropped record's, and a loop local
        # bound to one would keep it beside the new caches.
        alive, rebind = [], CompartmentState.rebind_graph

        def spy_rebind(state, graph):
            old = [weakref.ref(x) for s in (state.si_edges, state.infected, state.recovered)
                   for x in (s, s.items, s.pos)]
            rebind(state, graph)
            alive.append(sum(1 for ref in old if ref() is not None))

        monkeypatch.setattr(dynamics, "_IndexedSet", _watched_sets(lambda: None))
        monkeypatch.setattr(CompartmentState, "rebind_graph", spy_rebind)
        g = generate_er(2000, 0.005, seed=3)
        init = init_state(g, 0.02, seed=4)
        thin = [InterventionSpec(t, "thin", target=0.003, seed=1) for t in (1.0, 2.0)]
        traj = gillespie_run(g, RateParams(0.4, 1.0, 0.5), init, 4.0, 5, thin)
        assert traj.times[-1] > 2.0
        assert alive == [0, 0]


class _Items(list):
    """A cache's list that can be weakly referenced."""


class _Index(dict):
    """A cache's index that can be weakly referenced."""


def _watched_sets(on_fill):
    """An `_IndexedSet` whose instances, lists and indexes can be weakly
    referenced, calling `on_fill()` as each one is filled."""

    class Watched(dynamics._IndexedSet):
        __slots__ = ("__weakref__",)

        def __init__(self, items, pos=None):
            on_fill()
            super().__init__(_Items(items), _Index(
                zip(items, range(len(items))) if pos is None else pos))

    return Watched


class _CountingPCG64:
    """The bit generator of `np.random.default_rng(seed)`, counting its blocks."""

    def __init__(self, seed):
        self._pcg, self.blocks = np.random.PCG64(seed), 0

    def random_raw(self, size):
        self.blocks += 1
        return self._pcg.random_raw(size)


class TestReplayedDraws:
    """`_words`, with the reference draws of `ReplayedDraws`, gives
    what `np.random.Generator` gives, call for call."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_generator_call_for_call(self, seed):
        # Interleaved random() and integers(h): h = 1 takes no bits, and near
        # 3e9 about 30 % of the 32-bit draws fall in numpy's rejection band.
        bounds = [1, 2, 3, 7, 1000, 2_999_999_999, 3_000_000_000, 2**32 - 1]
        ops = np.random.default_rng(100 + seed).integers(len(bounds) + 1, size=60_000).tolist()
        ref = np.random.default_rng(seed)
        raw = _CountingPCG64(seed)
        replay = ReplayedDraws(raw)
        for op in ops:
            if op == len(bounds):
                assert replay.random() == ref.random()
            else:
                assert replay.integers(bounds[op]) == int(ref.integers(bounds[op]))
        assert raw.blocks > 3


    @staticmethod
    def _ops(replay, seed, count=20_000):
        ops = np.random.default_rng(seed).integers(4, size=count).tolist()
        return [replay.random() if op == 3 else replay.integers((1, 7, 3_000_000_000)[op])
                for op in ops]

    @pytest.mark.parametrize("words", [0, 1, 8190, 8192, 8193, 20_000])
    @pytest.mark.parametrize("held", [False, True])
    def test_clone_draws_what_the_original_draws(self, words, held):
        # A clone is a replay built at the original's `position()` on a fresh
        # generator of the same seed. The position is taken mid-block, a few
        # words before a block boundary, on one, and before any block; with
        # or without a buffered high half.
        replay = ReplayedDraws(np.random.PCG64(words))
        for _ in range(words - held):
            replay.random()
        if held:
            replay.integers(7)  # takes a word's low half, buffers its high half
        read, high = replay.position()
        assert read == max(words, held) and (high is not None) is held
        clone = ReplayedDraws(np.random.default_rng(words).bit_generator, read, high)
        ahead = self._ops(clone, words)
        assert self._ops(replay, words) == ahead

    @pytest.mark.parametrize("words", [1, 8191, 8192])
    def test_clone_back_one_word_undoes_random(self, words):
        # integers(5) holds a high half, and the last random() takes the
        # last word of the first block (8191) or the first of the second.
        replay = ReplayedDraws(np.random.PCG64(3))
        replay.integers(5)
        for _ in range(words - 1):
            replay.random()
        last = replay.random()
        read, high = replay.position(back=1)
        assert read == words and high is not None
        clone = ReplayedDraws(np.random.default_rng(3).bit_generator, read, high)
        assert clone.random() == last
        assert self._ops(clone, 4) == self._ops(replay, 4)


class TestSharedPrefix:
    """Runs that share a `_SharedPrefix` equal fresh runs, array for array."""

    @staticmethod
    def assert_fresh_equal(g, init, t_max, seed, points):
        # One prefix for all points, handed to them in call order, as
        # `experiments._one_replicate` does.
        prefix = _SharedPrefix()
        runs = []
        for params, interventions in points:
            shared = gillespie_run(g, params, init, t_max, seed, interventions, prefix=prefix)
            fresh = gillespie_run(g, params, init, t_max, seed, interventions)
            for name in ("times", "s", "i", "r"):
                assert np.array_equal(getattr(shared, name), getattr(fresh, name)), name
            runs.append(fresh)
        return runs

    def test_thin_unsorted_and_duplicate_triggers_at_two_sirs_rates(self):
        g = generate_er(2000, 0.005, seed=3)
        init = init_state(g, 0.02, seed=4)
        rates = [RateParams(0.4, 1.0, 0.5), RateParams(0.6, 1.0, 0.3)]
        triggers = [1.0, 0.5, 2.0, 2.0, 0.5, 6.0, 1.5]
        # Each rate set's triggers in a row: the record resumes or restarts
        # within a rate set, and restarts between them.
        points = [(params, [InterventionSpec(t, "thin", target=0.003, seed=1)])
                  for params in rates for t in triggers]
        runs = self.assert_fresh_equal(g, init, 8.0, 5, points)
        assert all(np.any(np.diff(run.r) < 0) for run in runs)  # waning happened

    def test_trigger_after_the_run_absorbed(self):
        g = generate_er(200, 0.02, seed=1)
        init = init_state(g, 3, seed=2)
        params = RateParams(0.05, 2.0)
        cap = [InterventionSpec(t, "degree_cap", cap=1) for t in (0.05, 5.0, 8.0)]
        runs = self.assert_fresh_equal(g, init, 10.0, 3, [(params, [iv]) for iv in cap])
        assert runs[1].i[-1] == 0 and runs[1].times[-1] < 5.0

    def test_a_paused_record_holds_data_only(self):
        # The record keeps the paused draw's stream position, not a stream.
        g = generate_er(300, 0.02, seed=2)
        init, params = init_state(g, 5, seed=3), RateParams(0.4, 1.0, 0.2)
        prefix = _SharedPrefix()
        thin = [InterventionSpec(1.0, "thin", target=0.01, seed=1)]
        gillespie_run(g, params, init, 10.0, 4, thin, prefix=prefix)
        read, high = prefix.at
        assert type(read) is int and (high is None or type(high) is int)
        assert 0 < prefix.t < 1.0 and read > 0 and (high is None or 0 <= high < 2**32)
        assert live_word_sources() == []

    def test_a_private_record_is_freed_before_the_trajectory_is_built(self, monkeypatch):
        # A run with no intervention never forks. Its private record holds
        # the run's times list, which would stay beside the trajectory's
        # arrays; it must be dead when `_trajectory` builds them. A record
        # that a caller holds keeps its data for the caller's next point.
        class Watched(_SharedPrefix):
            __slots__ = ("__weakref__",)

            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        made, alive, build = [], [], dynamics._trajectory

        def spy_trajectory(*args):
            alive.append(sum(1 for ref in made if ref() is not None))
            return build(*args)

        monkeypatch.setattr(dynamics, "_SharedPrefix", Watched)
        monkeypatch.setattr(dynamics, "_trajectory", spy_trajectory)
        g = generate_er(300, 0.02, seed=2)
        init, params = init_state(g, 5, seed=3), RateParams(0.4, 1.0, 0.2)
        gillespie_run(g, params, init, 5.0, 4)
        held = Watched()
        traj = gillespie_run(g, params, init, 5.0, 4, prefix=held)
        assert alive == [0, 1]
        assert held.times is not None and len(held.times) == len(traj)

    def test_a_private_records_caches_are_dead_when_new_ones_are_filled(self, monkeypatch):
        # At the fork the twin shares the record's caches, and the loop holds
        # their lists and indexes as locals. When a rebuild on the new graph
        # fills its first set, a private record's S-I set must be dead, list
        # and index too, or it would sit beside the new one at the peak. A
        # record that a caller holds keeps its set; a later rebuild replaces
        # the twin's own.
        watched, alive = [], []

        def on_fill():
            if watched:  # the rebuild's first fill
                alive.append(any(ref() is not None for ref in watched))
                watched.clear()

        rebind = CompartmentState.rebind_graph

        def spy_rebind(state, graph):
            old = state.si_edges
            watched.extend(weakref.ref(x) for x in (old, old.items, old.pos))
            del old
            rebind(state, graph)

        monkeypatch.setattr(dynamics, "_IndexedSet", _watched_sets(on_fill))
        monkeypatch.setattr(CompartmentState, "rebind_graph", spy_rebind)
        g = generate_er(2000, 0.005, seed=3)
        init, params = init_state(g, 0.02, seed=4), RateParams(0.4, 1.0, 0.5)
        thin = [InterventionSpec(t, "thin", target=0.003, seed=1) for t in (1.0, 2.0)]
        gillespie_run(g, params, init, 4.0, 5, thin)
        held = _SharedPrefix()
        gillespie_run(g, params, init, 4.0, 5, thin, prefix=held)
        assert alive == [False, False, True, False]
        assert held.pop.si_edges.items

    def test_points_around_t_max_and_other_point_shapes(self):
        # The intervention-free run stops at the draw past t_max, after its
        # last event at t_last. Triggers in the gap after t_last fork off at
        # that draw, and one past t_max re-checks it. Then points with one
        # earlier trigger (a restart), two triggers, and none.
        g = generate_er(300, 0.01, seed=6)
        init = init_state(g, 2, seed=7)
        params, t_max = RateParams(0.4, 0.3, 0.2), 6.0
        t_last = gillespie_run(g, params, init, t_max, 5).times[-1]
        cap = lambda t: InterventionSpec(t, "degree_cap", cap=1, seed=2)  # noqa: E731
        gap = [(t_last + t_max) / 2, t_max - 1e-9, t_max, t_max + 1.0]
        points = [(params, None)] + [(params, [cap(t)]) for t in gap]
        points += [(params, [cap(1.0)]), (params, [cap(2.5), cap(1.5)]), (params, None)]
        runs = self.assert_fresh_equal(g, init, t_max, 5, points)
        assert len(runs[0]) > 20 and runs[0].i[-1] > 0  # not absorbed
        assert runs[1].times[-1] > gap[0]  # the fork drew events after its trigger
        for run, t in zip(runs[2:4], gap[1:3]):  # time jumped to the trigger: a repeated row
            assert run.times[-1] == t
            assert (run.s[-1], run.i[-1], run.r[-1]) == (run.s[-2], run.i[-2], run.r[-2])


    def test_forks_at_the_replay_block_edges(self):
        # The replay draws its words 64 at first, then in doubling blocks
        # (128, 256, ...): one fork inside the first block, one past the end
        # of the 128-word block (word 192) and one past the 256-word block's
        # (word 448); then an earlier trigger, which restarts the record.
        g = generate_er(300, 0.02, seed=8)
        init, params = init_state(g, 3, seed=9), RateParams(0.5, 1.0, 0.3)
        thin = lambda t: [InterventionSpec(t, "thin", target=0.015, seed=1)]  # noqa: E731
        pauses = []
        for t in (0.5, 2.2, 2.9):
            prefix = _SharedPrefix()
            gillespie_run(g, params, init, 20.0, 5, thin(t), prefix=prefix)
            pauses.append(prefix.at[0])
        assert pauses[0] < 64 and 192 < pauses[1] < 448 < pauses[2]
        points = [(params, thin(t)) for t in (0.5, 2.2, 2.9, 1.0)]
        runs = self.assert_fresh_equal(g, init, 20.0, 5, points)
        assert all(len(run) > 1000 for run in runs)  # each draws on past its fork


class TestTrajectoryArrays:
    """The arrays every Gillespie engine returns, and what they cost."""

    @staticmethod
    def assert_layout(traj):
        assert traj.times.dtype == np.float64
        for name in ("times", "s", "i", "r"):
            arr = getattr(traj, name)
            assert arr.flags.c_contiguous, name
            assert len(arr) == len(traj), name
        assert traj.s.dtype == traj.i.dtype == traj.r.dtype == np.int64

    def test_layout_on_both_engines_and_a_forked_prefix_run(self):
        self.assert_layout(gillespie_well_mixed(500, 8.0, RateParams(0.3, 1.0, 0.2), 5, 10.0, 1))
        g = generate_er(300, 0.02, seed=2)
        init, params = init_state(g, 5, seed=3), RateParams(0.4, 1.0, 0.2)
        self.assert_layout(gillespie_run(g, params, init, 10.0, 4))
        prefix = _SharedPrefix()
        for t in (1.0, 2.0):  # the first call restarts the prefix, the second resumes it
            thin = [InterventionSpec(t, "thin", target=0.01, seed=1)]
            forked = gillespie_run(g, params, init, 10.0, 4, thin, prefix=prefix)
            self.assert_layout(forked)
            assert forked.times[-1] > t

    def test_traced_peak_per_event(self):
        # The run the `sirs_endemic` benchmark times. Per event the engine
        # keeps a float64 time and a one-byte code, then builds S, I and R
        # one int64 column at a time: about 42 B/event at the peak. All four
        # N x 3 arrays of a stacked cumsum alive at once would take over 100.
        tracemalloc.start()
        try:
            traj = gillespie_well_mixed(10_000, 10.0, RateParams(0.3, 1.0, 0.2), 0.01, 100.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        events = len(traj) - 1
        assert events == 337_904
        assert peak / events <= 45

    @pytest.mark.parametrize("block", [1, 7, 4096, None])
    def test_csv_blocks_join_to_one_string(self, monkeypatch, block):
        traj = gillespie_well_mixed(1000, 10.0, RateParams(0.3, 1.0, 0.5), 0.01, 30.0, 2)
        rows = zip(traj.times.tolist(), traj.s.tolist(), traj.i.tolist(), traj.r.tolist())
        expected = "t,S,I,R\n" + "".join(f"{t!r},{s},{i},{r}\n" for t, s, i, r in rows)
        if block is None:  # the default: the run crosses block boundaries
            assert len(traj) > dynamics._CSV_BLOCK
        else:
            monkeypatch.setattr(dynamics, "_CSV_BLOCK", block)
        buf = io.StringIO()
        traj.to_csv(buf)
        assert buf.getvalue() == expected


class TestGillespieWellMixed:
    def test_beta_zero_decay(self):
        traj = gillespie_well_mixed(100, 10.0, RateParams(0.0, 1.0), 10, 100.0, seed=1)
        assert traj.i[-1] == 0
        assert traj.s[-1] == 90

    def test_subcritical_scope(self):
        scopes = [
            gillespie_well_mixed(1000, 10.0, RateParams(0.05, 1.0), 0.01, 30.0, seed=s).r[-1] / 1000
            for s in range(50)
        ]
        assert np.mean(scopes) < 0.15

    def test_supercritical_scope(self):
        scopes = [
            gillespie_well_mixed(1000, 10.0, RateParams(0.2, 1.0), 0.01, 30.0, seed=s).r[-1] / 1000
            for s in range(50)
        ]
        assert np.mean(scopes) > 0.5

    def test_conservation(self):
        traj = gillespie_well_mixed(500, 8.0, RateParams(0.3, 1.0, 0.2), 0.02, 20.0, seed=3)
        assert np.all(traj.s + traj.i + traj.r == 500)

    @pytest.mark.parametrize("n, k_avg", [(0, 10.0), (-3, 10.0), (1000, -5.0), (2**53 + 1, 10.0)])
    def test_range_rejected(self, n, k_avg):
        with pytest.raises(ParameterError):
            gillespie_well_mixed(n, k_avg, RateParams(0.3, 1.0), 1, 5.0, seed=1)

    @pytest.mark.parametrize("beta", [1e308, 1e306])
    def test_total_rate_overflow_rejected(self, beta):
        # beta * k_avg is inf at 1e308; at 1e306 beta * k_avg * S * I is. An
        # infinite total sends every class draw to waning, and R goes below zero.
        with pytest.raises(ParameterError, match="overflows"):
            gillespie_well_mixed(30, 10.0, RateParams(beta, 1.0), 3, 5.0, seed=1)

    @pytest.mark.parametrize("k_avg, t_max", [
        (math.nan, 5.0), (math.inf, 5.0), (-math.inf, 5.0),
        (10.0, math.nan), (10.0, 0.0), (10.0, -1.0),
    ])
    def test_bad_input_fails_before_any_draw(self, monkeypatch, k_avg, t_max):
        def no_draws(seed):
            raise AssertionError("the engine started to draw")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ParameterError):
            gillespie_well_mixed(100, k_avg, RateParams(0.3, 1.0), 0.05, t_max, 1)


class TestSummarizeTrajectory:
    def test_flat_trajectory(self):
        traj = gillespie_well_mixed(1000, 10.0, RateParams(0.0, 0.0, 0.0), 0.01, 5.0, seed=1)
        summary = summarize_trajectory(traj)
        assert summary.peak_infected_fraction == pytest.approx(0.01)
        assert summary.final_recovered_fraction == 0.0

    def test_scope_matches_final_labels(self):
        g = generate_er(200, 0.05, seed=1)
        state = init_state(g, 0.05, seed=2)
        traj = gillespie_run(g, RateParams(0.5, 1.0), state, 40.0, seed=3)
        summary = summarize_trajectory(traj)
        assert summary.final_recovered_fraction == traj.r[-1] / 200

    def test_peak_time_is_first_maximum(self):
        traj = gillespie_well_mixed(1000, 10.0, RateParams(0.3, 1.0), 0.01, 30.0, seed=4)
        summary = summarize_trajectory(traj)
        first = traj.times[np.argmax(traj.i)]
        assert summary.peak_time == first

    def test_csv_format(self):
        traj = gillespie_well_mixed(10, 1.0, RateParams(0.0, 1.0), 1, 5.0, seed=1)
        buf = io.StringIO()
        traj.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,S,I,R"
        assert lines[1].endswith(",9,1,0")
