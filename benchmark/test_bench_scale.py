"""Host-speed scaling of a run's times.

Run with the tier-1 command from the repository root:
    PYTHONPATH=src python -m pytest -q benchmark
"""

import pytest

import run


def test_times_scale_by_the_mean_of_the_probes_around_the_run():
    result = {"setup_s": 1.0, "wall_s": 4.0, "events_per_s": 250.0, "events": 1000}
    before, after = {"setup_s": 0.9, "work_s": 0.1}, {"setup_s": 1.4, "work_s": 0.1}
    run.scale(result, before, after)
    factor = run.REF_PROBE_S / 1.25
    assert result["raw"] == {"setup_s": 1.0, "wall_s": 4.0, "events_per_s": 250.0}
    assert result["setup_s"] == pytest.approx(factor)
    assert result["wall_s"] == pytest.approx(4.0 * factor)
    assert result["events_per_s"] == pytest.approx(1000 / (4.0 * factor))
    assert result["probe"] == [before, after]
