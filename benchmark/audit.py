"""Event counting and invariant checks on every trajectory an engine returns.

The audit wraps `gillespie_run` and `gillespie_well_mixed` wherever netepi
looks them up, in traced and untraced runs alike: it times nothing, it
only counts events and checks outputs. Its counters sit in shared memory
so replicates run in a forked process pool are counted too.
"""

from __future__ import annotations

import functools
import multiprocessing

import numpy as np

from tracer import Patches

NETWORK_EVENTS, WM_EVENTS, TRAJECTORIES, BAD_TRAJECTORIES = range(4)


def count_events(traj) -> int:
    """Rows whose (S, I, R) differs from the row before.

    Every Gillespie event changes the counts, but `gillespie_run` repeats
    the last row when an intervention moves time after the last event, so
    `len(traj) - 1` can overcount by one.
    """
    rows = np.stack((traj.s, traj.i, traj.r))
    return int(np.count_nonzero(np.any(rows[:, 1:] != rows[:, :-1], axis=0)))


def trajectory_problems(traj, t_max: float) -> list[str]:
    """Invariant violations of one trajectory; empty when it is sound."""
    problems = []
    if len(traj) == 0:
        return ["empty trajectory"]
    if not np.all(np.isfinite(traj.times)):
        problems.append("non-finite time")
    if np.any(np.diff(traj.times) < 0) or traj.times[0] < 0 or traj.times[-1] > t_max:
        problems.append("times not ordered within [0, t_max]")
    if np.any(traj.s + traj.i + traj.r != traj.n):
        problems.append("S+I+R != n")
    if min(traj.s.min(), traj.i.min(), traj.r.min()) < 0:
        problems.append("negative count")
    return problems


class TrajectoryAudit:
    """Shared counters of events and of trajectories checked and failed."""

    def __init__(self):
        # Forked pool workers inherit both; netepi's pool uses the platform
        # default start method, which is fork on Linux.
        ctx = multiprocessing.get_context("fork")
        self._counts = ctx.RawArray("q", 4)
        self._lock = ctx.Lock()
        self.problems: list[str] = []  # details seen in this process only

    def counts(self) -> dict:
        with self._lock:
            c = list(self._counts)
        return {
            "network_events": c[NETWORK_EVENTS],
            "wm_events": c[WM_EVENTS],
            "trajectories": c[TRAJECTORIES],
            "bad_trajectories": c[BAD_TRAJECTORIES],
        }

    def record(self, traj, t_max: float, events_slot: int) -> None:
        problems = trajectory_problems(traj, t_max)
        events = count_events(traj)
        with self._lock:
            self._counts[events_slot] += events
            self._counts[TRAJECTORIES] += 1
            self._counts[BAD_TRAJECTORIES] += bool(problems)
        self.problems.extend(problems)

    def install(self) -> Patches:
        from netepi import dynamics

        patches = Patches()
        patches.wrap_function(dynamics.gillespie_run, self._auditing(NETWORK_EVENTS, 3))
        patches.wrap_function(dynamics.gillespie_well_mixed, self._auditing(WM_EVENTS, 4))
        return patches

    def _auditing(self, events_slot: int, t_max_index: int):
        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                traj = func(*args, **kwargs)
                t_max = args[t_max_index] if len(args) > t_max_index else kwargs["t_max"]
                self.record(traj, t_max, events_slot)
                return traj

            return wrapper

        return make
