import io
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from netepi import dynamics
from netepi.dynamics import (
    CompartmentState,
    I,
    R,
    RateParams,
    S,
    _ReplayedDraws,
    _SharedPrefix,
    abm_run,
    gillespie_run,
    gillespie_well_mixed,
    init_state,
    summarize_trajectory,
)
from netepi.errors import (
    ParameterError,
    ProbabilityOverflowError,
    StateError,
)
from netepi.graphs import Graph, generate_ba, generate_er
from netepi.interventions import InterventionSpec
from netepi.ode import FractionState, ode_sir

from invariants import recount_si_edges
from reference import (
    INFECTION,
    RECOVERY,
    WANING,
    AbsorbingState,
    EventRates,
    compute_event_rates,
    sample_waiting_time,
    select_event,
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
                state.infect(state.si_edges.choose(rng)[0])
            if len(state.infected):
                state.recover(state.infected.choose(rng))
            assert len(state.si_edges) == recount_si_edges(state)


class TestLabels:
    """`labels` is a view of the state's one label store."""

    def test_labels_track_moves_and_copies_do_not_alias(self):
        g = generate_ba(200, 4, seed=3)
        state = init_state(g, 10, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(40):
            if len(state.si_edges):
                state.infect(state.si_edges.choose(rng)[0])
            if len(state.infected) > 1:
                state.recover(state.infected.choose(rng))
        if len(state.recovered):
            state.wane(state.recovered.choose(rng))
        labels = state.labels
        assert labels.dtype == np.int8 and labels.shape == (200,)
        assert set(np.flatnonzero(labels == I).tolist()) == set(state.infected.items)
        assert set(np.flatnonzero(labels == R).tolist()) == set(state.recovered.items)
        assert np.bincount(labels, minlength=3).tolist() == [state.n_s, state.n_i, state.n_r]

        before = labels.copy()
        twin = state.copy()
        twin.recover(twin.infected.items[0])
        twin.infect(twin.si_edges.items[0][0])
        assert np.array_equal(state.labels, before)
        assert not np.array_equal(twin.labels, before)
        assert len(state.si_edges) == recount_si_edges(state)

        restored = pickle.loads(pickle.dumps(state))
        assert np.array_equal(restored.labels, before)
        restored.infect(restored.si_edges.items[0][0])
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
                live.infect(live.si_edges.choose(rng)[0])
            elif kind == RECOVERY:
                live.recover(live.infected.choose(rng))
            else:
                live.wane(live.recovered.choose(rng))
        assert len(live.si_edges) == recount_si_edges(live)


def _reference_run(rates_of, fire, counts, t_max, seed):
    """The direct method written with the reference helpers only: one
    (t, S, I, R) row at the start and after every event."""
    rng = np.random.default_rng(seed)
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


def _network_reference(g, params, init, t_max, seed):
    state = init.copy()
    moves = {
        INFECTION: lambda rng: state.infect(state.si_edges.choose(rng)[0]),
        RECOVERY: lambda rng: state.recover(state.infected.choose(rng)),
        WANING: lambda rng: state.wane(state.recovered.choose(rng)),
    }
    return _reference_run(lambda: compute_event_rates(g, state, params),
                          lambda kind, rng: moves[kind](rng),
                          lambda: (state.n_s, state.n_i, state.n_r), t_max, seed)


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
            INFECTION: lambda st, rng: st.infect(st.si_edges.choose(rng)[0]),
            RECOVERY: lambda st, rng: st.recover(st.infected.choose(rng)),
            WANING: lambda st, rng: st.wane(st.recovered.choose(rng)),
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


class _CountingPCG64:
    """The bit generator of `np.random.default_rng(seed)`, counting its blocks."""

    def __init__(self, seed):
        self._pcg, self.blocks = np.random.PCG64(seed), 0

    def random_raw(self, size):
        self.blocks += 1
        return self._pcg.random_raw(size)


class TestReplayedDraws:
    """`_ReplayedDraws` gives what `np.random.Generator` gives, call for call."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_generator_call_for_call(self, seed):
        # Interleaved random() and integers(h): h = 1 takes no bits, and near
        # 3e9 about 30 % of the 32-bit draws fall in numpy's rejection band.
        bounds = [1, 2, 3, 7, 1000, 2_999_999_999, 3_000_000_000, 2**32 - 1]
        ops = np.random.default_rng(100 + seed).integers(len(bounds) + 1, size=60_000).tolist()
        ref = np.random.default_rng(seed)
        raw = _CountingPCG64(seed)
        replay = _ReplayedDraws(raw)
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
        # The clone is taken mid-block, a few words before a block boundary,
        # on one, and before any block; with or without a buffered high half.
        replay = _ReplayedDraws(np.random.PCG64(words))
        for _ in range(words - held):
            replay.random()
        if held:
            replay.integers(7)  # takes a word's low half, buffers its high half
        clone = replay.clone()
        assert (clone._high is not None) is held
        ahead = self._ops(clone, words)
        assert self._ops(replay, words) == ahead

    @pytest.mark.parametrize("words", [1, 8191, 8192])
    def test_clone_back_one_word_undoes_random(self, words):
        replay = _ReplayedDraws(np.random.PCG64(3))
        replay.integers(5)
        for _ in range(words - 1):
            replay.random()
        last = replay.random()
        clone = replay.clone(back=1)
        assert clone.random() == last
        assert self._ops(clone, 4) == self._ops(replay, 4)


class TestSharedPrefix:
    """Runs that share a `_SharedPrefix` equal fresh runs, array for array."""

    @staticmethod
    def assert_fresh_equal(g, init, t_max, seed, points):
        # One prefix per rate set, handed to the points in call order, as
        # `experiments._one_replicate` does.
        prefixes = {}
        runs = []
        for params, interventions in points:
            shared = gillespie_run(g, params, init, t_max, seed, interventions,
                                   prefix=prefixes.setdefault(params, _SharedPrefix()))
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
        points = [(rates[k % 2], [InterventionSpec(t, "thin", target=0.003, seed=1)])
                  for k, t in enumerate(triggers * 2)]
        runs = self.assert_fresh_equal(g, init, 8.0, 5, points)
        assert all(np.any(np.diff(run.r) < 0) for run in runs)  # waning happened

    def test_trigger_after_the_run_absorbed(self):
        g = generate_er(200, 0.02, seed=1)
        init = init_state(g, 3, seed=2)
        params = RateParams(0.05, 2.0)
        cap = [InterventionSpec(t, "degree_cap", cap=1) for t in (0.05, 5.0, 8.0)]
        runs = self.assert_fresh_equal(g, init, 10.0, 3, [(params, [iv]) for iv in cap])
        assert runs[1].i[-1] == 0 and runs[1].times[-1] < 5.0

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
        # The loop keeps a Python float per event (32 B with its list slot)
        # and a one-byte code; the counts are then built one column at a
        # time after the floats are freed. All four N x 3 arrays of a
        # stacked cumsum alive at once would take over 100 B/event.
        tracemalloc.start()
        try:
            traj = gillespie_well_mixed(10_000, 10.0, RateParams(0.3, 1.0, 0.2), 0.01, 40.0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        events = len(traj) - 1
        assert events >= 100_000
        assert peak / events <= 56

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


class TestAbmRun:
    def test_beta_zero_no_infections(self):
        traj = abm_run(100, RateParams(0.0, 0.5), 10, steps=20, seed=1)
        assert np.all(traj.i + traj.r == 10)

    def test_gamma_one_recovers_in_one_step(self):
        traj = abm_run(100, RateParams(0.0, 1.0), 10, steps=1, seed=2)
        assert traj.i[-1] == 0
        assert traj.r[-1] == 10

    def test_gamma_above_one_rejected(self):
        with pytest.raises(ProbabilityOverflowError):
            abm_run(100, RateParams(0.1, 1.5), 10, steps=5, seed=0)

    def test_mean_matches_meanfield_map(self):
        # Oracle: the exact expectation map of the Bernoulli update rule.
        n, beta, gamma, steps, reps = 10**4, 0.3, 0.1, 120, 50
        acc = np.zeros((steps + 1, 3))
        for s in range(reps):
            traj = abm_run(n, RateParams(beta, gamma), 0.01, steps, seed=s)
            acc += np.stack([traj.s, traj.i, traj.r], axis=1) / n
        acc /= reps
        s_, i_, r_ = 0.99, 0.01, 0.0
        expected = [(s_, i_, r_)]
        for _ in range(steps):
            new_inf = beta * i_ * s_
            new_rec = gamma * i_
            s_, i_, r_ = s_ - new_inf, i_ + new_inf - new_rec, r_ + new_rec
            expected.append((s_, i_, r_))
        assert np.max(np.abs(acc - np.array(expected))) < 0.01

    def test_tracks_continuous_ode_loosely(self):
        # Unit-step discretization keeps the ABM within ~0.06 of the
        # continuous-time solution at these rates; the agreement is
        # qualitative, not exact.
        n, beta, gamma, steps, reps = 10**4, 0.3, 0.1, 120, 50
        acc = np.zeros((steps + 1, 3))
        for s in range(reps):
            traj = abm_run(n, RateParams(beta, gamma), 0.01, steps, seed=s)
            acc += np.stack([traj.s, traj.i, traj.r], axis=1) / n
        acc /= reps
        sol = ode_sir(RateParams(beta, gamma), FractionState(0.99, 0.01), float(steps), 0.01)
        grid = np.arange(steps + 1, dtype=float)
        idx = np.clip(np.searchsorted(sol.times, grid), 0, len(sol.times) - 1)
        assert np.max(np.abs(acc - sol.fractions[idx])) < 0.06


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
