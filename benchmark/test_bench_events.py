"""Event counting: rows whose (S, I, R) changed, not len(traj) - 1.

Run with the tier-1 command from the repository root:
    PYTHONPATH=src python -m pytest -q benchmark
"""

import sys

import numpy as np
import pytest

from audit import TrajectoryAudit, count_events, trajectory_problems


def _trajectory(rows, times):
    from netepi.dynamics import Trajectory

    s, i, r = (np.array(col, dtype=np.int64) for col in zip(*rows))
    return Trajectory(np.array(times, dtype=np.float64), s, i, r, n=10, engine="test")


def test_repeated_row_is_not_an_event():
    traj = _trajectory([(9, 1, 0), (8, 2, 0), (8, 1, 1), (8, 1, 1)], [0.0, 0.5, 0.9, 2.0])
    assert len(traj) - 1 == 3
    assert count_events(traj) == 2


def test_intervention_past_t_max_repeats_the_last_row():
    """A trigger past t_max fires when the last waiting time overshoots it:
    time jumps to t_max and `gillespie_run` appends a copy of the last row,
    which `TrajectorySummary.total_events` counts as an event.

    With the same seeds and no intervention, the run draws the same events,
    so its length gives the true event count.
    """
    from netepi import (RateParams, generate_ba, gillespie_run, init_state,
                        summarize_trajectory)
    from netepi.interventions import InterventionSpec

    params, t_max = RateParams(beta=0.15, gamma=1.0), 10.0
    lockdown = [InterventionSpec(t_max + 0.5, "degree_cap", cap=2)]
    overcounted = 0
    for seed in range(40):
        g = generate_ba(500, 3, seed)
        state = init_state(g, 0.01, seed)
        traj = gillespie_run(g, params, state, t_max, seed, interventions=lockdown)
        free = gillespie_run(g, params, state, t_max, seed)
        assert trajectory_problems(traj, t_max) == []
        assert count_events(traj) == count_events(free) == len(free) - 1
        overcounted += summarize_trajectory(traj).total_events != count_events(traj)
    # 3 of these 40 runs repeat their last row at the seed commit.
    assert overcounted >= 1


def test_audit_counts_events_and_flags_broken_invariants():
    audit = TrajectoryAudit()
    audit.record(_trajectory([(9, 1, 0), (8, 2, 0), (8, 2, 0)], [0.0, 1.0, 2.0]), 5.0, 0)
    audit.record(_trajectory([(9, 1, 0), (9, 2, 0)], [0.0, 1.0]), 5.0, 1)
    counts = audit.counts()
    assert counts == {"network_events": 1, "wm_events": 1, "trajectories": 2,
                      "bad_trajectories": 1}
    assert audit.problems == ["S+I+R != n"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
