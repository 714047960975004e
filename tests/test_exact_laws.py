"""Exact laws the engines must meet at a fixed size, with no asymptotics.

On the complete graph K_n the network engine at per-edge rate beta and the
well-mixed engine at k_avg = n run the same Markov chain on (S, I, R):
infection at beta * S * I, recovery at gamma * I and waning at alpha * R.
So their event counts and final R agree in law, which a two-sample KS test
checks, for SIR and for SIRS. The size, run count, seeds, rates and the
threshold P_MIN were fixed before the first run. The power check holds the
same comparison to fail once the well-mixed infection rate is 5 % high.
"""

import functools
import itertools

import numpy as np
import pytest
from scipy.stats import ks_2samp

from netepi.dynamics import RateParams, gillespie_run, gillespie_well_mixed, init_state
from netepi.graphs import Graph

N, N_I, RUNS, T_MAX, BETA, GAMMA, P_MIN = 50, 3, 800, 30.0, 0.04, 1.0, 1e-3
NETWORK_SEEDS, WELL_MIXED_SEEDS = range(RUNS), range(10**6, 10**6 + RUNS)


@functools.lru_cache(maxsize=None)
def network_sample(alpha):
    """Event counts and final R of the network engine's runs on K_N."""
    g = Graph.from_edges(N, itertools.combinations(range(N), 2))
    params = RateParams(BETA, GAMMA, alpha)
    runs = [gillespie_run(g, params, init_state(g, N_I, seed), T_MAX, seed)
            for seed in NETWORK_SEEDS]
    return np.array([len(run) - 1 for run in runs]), np.array([run.r[-1] for run in runs])


def well_mixed_sample(alpha, beta=BETA):
    runs = [gillespie_well_mixed(N, float(N), RateParams(beta, GAMMA, alpha), N_I, T_MAX, seed)
            for seed in WELL_MIXED_SEEDS]
    return np.array([len(run) - 1 for run in runs]), np.array([run.r[-1] for run in runs])


def p_values(alpha, beta=BETA):
    """KS p-values of the event counts and of the final R."""
    return [ks_2samp(a, b).pvalue
            for a, b in zip(network_sample(alpha), well_mixed_sample(alpha, beta))]


@pytest.mark.parametrize("alpha", [0.0, 0.001], ids=["sir", "sirs"])
def test_complete_graph_runs_the_well_mixed_chain(alpha):
    assert min(p_values(alpha)) > P_MIN


@pytest.mark.parametrize("alpha", [0.0, 0.001], ids=["sir", "sirs"])
def test_a_five_percent_higher_infection_rate_is_rejected(alpha):
    assert min(p_values(alpha, 1.05 * BETA)) < P_MIN
