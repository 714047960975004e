import hashlib
import io

import numpy as np
import pytest
from scipy.signal import find_peaks, peak_prominences

from netepi import graphs, interventions
from netepi.errors import ParameterError
from netepi.experiments import (
    WAVE_MIN_HEIGHT,
    WAVE_MIN_PROMINENCE,
    ExperimentTable,
    NetworkSource,
    SweepSpec,
    count_waves,
    experiment_density_comparison,
    experiment_intervention_timing,
    experiment_scope_sweep,
    experiment_sirs,
    _count_peaks,
    run_replicates,
)


class TestNetworkSource:
    def test_er_build(self):
        g = NetworkSource.er(100, 0.05).build_graph(seed=1)
        assert g.node_count == 100

    def test_well_mixed_has_no_graph(self):
        with pytest.raises(ParameterError):
            NetworkSource.well_mixed(100, 10.0).build_graph(seed=1)

    def test_to_dict(self):
        assert NetworkSource.ba(50, 3).to_dict() == {"ba": {"n": 50, "m": 3}}

    def test_edge_list_build(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = NetworkSource.edge_list(str(path)).build_graph(seed=0)
        assert g.edge_count == 2


class TestSweepSpec:
    def test_empty_betas_rejected(self):
        with pytest.raises(ParameterError):
            SweepSpec(networks=[NetworkSource.er(10, 0.1)], betas=[])

    def test_zero_replicates_rejected(self):
        with pytest.raises(ParameterError):
            SweepSpec(networks=[NetworkSource.er(10, 0.1)], betas=[0.1], replicates=0)


class TestRunReplicates:
    def test_beta_zero_scope_is_seed_fraction_ceiling(self):
        spec = SweepSpec(
            networks=[NetworkSource.er(100, 0.1)], betas=[0.0],
            t_max=20.0, replicates=5, base_seed=1,
        )
        row = run_replicates(spec, spec.networks[0], 0.0)
        # with beta = 0 only the single seeded node recovers
        assert row["mean_scope"] == pytest.approx(0.01)
        assert row["std_scope"] == 0.0

    def test_single_replicate(self):
        spec = SweepSpec(
            networks=[NetworkSource.well_mixed(200, 10.0)], betas=[0.2],
            replicates=1, base_seed=3, t_max=10.0,
        )
        row = run_replicates(spec, spec.networks[0], 0.2)
        assert row["replicates"] == 1
        assert 0.0 <= row["mean_scope"] <= 1.0
        assert row["std_scope"] == 0.0

    def test_deterministic_in_base_seed(self):
        spec = SweepSpec(
            networks=[NetworkSource.ba(200, 3)], betas=[0.15],
            replicates=5, base_seed=7, t_max=10.0,
        )
        a = run_replicates(spec, spec.networks[0], 0.15)
        b = run_replicates(spec, spec.networks[0], 0.15)
        assert a == b


class TestScopeSweep:
    def test_table_shape_and_csv_determinism(self):
        spec = SweepSpec(
            networks=[NetworkSource.er(100, 0.1, label="ER"),
                      NetworkSource.well_mixed(100, 10.0, label="WM")],
            betas=[0.0, 0.2], replicates=3, base_seed=0, t_max=5.0,
        )
        outputs = []
        for _ in range(2):
            table = experiment_scope_sweep(spec)
            buf = io.StringIO()
            table.write_csv(buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        assert len(lines) == 1 + 4  # header + 2 networks x 2 betas
        assert lines[0].startswith("experiment,network,beta,")

    def test_scope_increases_with_beta(self):
        spec = SweepSpec(
            networks=[NetworkSource.well_mixed(1000, 10.0)],
            betas=[0.05, 0.3], replicates=20, base_seed=2, t_max=20.0,
        )
        table = experiment_scope_sweep(spec)
        scopes = table.column("mean_scope")
        assert scopes[1] > scopes[0] + 0.3

    def test_manifest_round_trips_spec(self):
        spec = SweepSpec(
            networks=[NetworkSource.er(50, 0.1)], betas=[0.1],
            replicates=1, t_max=2.0,
        )
        table = experiment_scope_sweep(spec)
        buf = io.StringIO()
        table.write_manifest(buf)
        import json

        manifest = json.loads(buf.getvalue())
        assert manifest["experiment"] == "exp01"
        assert manifest["spec"]["betas"] == [0.1]


class TestDensityComparison:
    def test_rows_and_sizes(self):
        table = experiment_density_comparison(
            [0.01, 0.005], replicates=3, base_seed=0, t_max=5.0,
        )
        assert len(table.rows) == 4
        by_density = {(r["model"], r["density"]): r for r in table.rows}
        assert by_density[("ER", 0.01)]["n"] == 1001
        assert by_density[("BA", 0.005)]["n"] == 2001


class TestInterventionTiming:
    def test_window_start_formula(self):
        table = experiment_intervention_timing(
            [1.0], n=300, m=5, replicates=2, t_max=10.0, base_seed=0,
        )
        assert table.rows[0]["window_start"] == pytest.approx(1.0 + 0.33 * 9.0)

    def test_trigger_outside_horizon_rejected(self):
        with pytest.raises(ParameterError):
            experiment_intervention_timing([12.0], n=100, m=3, replicates=1, t_max=10.0)


class TestReplicateMajor:
    """Each replicate's graph (and its lockdown) is built once per experiment."""

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return calls

    def test_one_build_and_one_cap_per_replicate(self, monkeypatch):
        monkeypatch.delenv("NETEPI_WORKERS", raising=False)  # spies see this process only
        builds = self._count_calls(monkeypatch, graphs, "generate_ba")
        caps = self._count_calls(monkeypatch, interventions, "apply_degree_cap")
        table = experiment_intervention_timing(
            [0.5, 1.0, 1.5], n=150, m=4, cap=2, beta=0.3, initial_fraction=0.05,
            replicates=2, t_max=4.0, base_seed=11,
        )
        assert len(table.rows) == 3
        assert len(builds) == 2
        assert len(caps) == 2

    def test_every_trigger_checked_before_any_run(self, monkeypatch):
        builds = self._count_calls(monkeypatch, graphs, "generate_ba")
        with pytest.raises(ParameterError):
            experiment_intervention_timing([1.0, 12.0], n=100, m=3, replicates=1, t_max=10.0)
        assert builds == []

    def test_edge_list_read_once_per_sweep(self, monkeypatch, tmp_path):
        monkeypatch.delenv("NETEPI_WORKERS", raising=False)
        path = tmp_path / "ba.txt"
        with open(path, "w", encoding="utf-8") as fh:
            graphs.save_edge_list(graphs.generate_ba(200, 3, seed=2), fh)
        reads = self._count_calls(monkeypatch, graphs, "load_edge_list")
        spec = SweepSpec(networks=[NetworkSource.edge_list(str(path), label="BA")],
                         betas=[0.4, 1.0], replicates=5, base_seed=3, t_max=5.0)
        buf = io.StringIO()
        experiment_scope_sweep(spec).write_csv(buf)
        assert len(reads) == 1
        # The table of the per-replicate reads this replaced.
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "05a8b05c1ab797471744a728b033f18b232eb93d2d02c0191497390a7b316a12")

    def test_sweep_rows_equal_single_point_rows(self):
        spec = SweepSpec(
            networks=[NetworkSource.er(120, 0.05, label="ER"),
                      NetworkSource.ba(120, 3, label="BA")],
            betas=[0.1, 0.3, 0.6], replicates=3, base_seed=5, t_max=6.0,
        )
        table = experiment_scope_sweep(spec)
        assert len(table.rows) == 6
        rows = iter(table.rows)
        for source in spec.networks:
            for beta in spec.betas:
                expected = run_replicates(spec, source, beta)
                expected.update(experiment="exp01", gamma=spec.gamma, alpha=spec.alpha)
                assert next(rows) == expected


class TestCountWaves:
    def test_single_hump(self):
        t = np.linspace(0, 10, 500)
        i = 0.2 * np.exp(-((t - 3.0) ** 2))
        assert count_waves(t, i, smooth_window=0.1) == 1

    def test_damped_oscillation(self):
        t = np.linspace(0, 50, 2000)
        # maxima at t = 5, 15, 25, 35, 45 (all interior)
        i = 0.05 - 0.04 * np.exp(-t / 30) * np.cos(2 * np.pi * t / 10)
        assert count_waves(t, i, smooth_window=0.5) == 5

    def test_flat_curve(self):
        t = np.linspace(0, 10, 100)
        assert count_waves(t, np.full(100, 0.001), smooth_window=0.5) == 0

    def test_too_short(self):
        assert count_waves(np.array([0.0, 1.0]), np.array([0.1, 0.2]), 0.5) == 0


def _scipy_count(x, height, prominence):
    return len(find_peaks(np.asarray(x, dtype=np.float64), height=height, prominence=prominence)[0])


class TestCountPeaksMatchesScipy:
    """_count_peaks counts what scipy.signal.find_peaks keeps."""

    @pytest.mark.parametrize("x", [
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],             # the ends are never peaks
        [0.0, 2.0, 1.0, 3.0],        # a peak next to each edge
        [0.0, 1.0, 1.0, 1.0, 0.0],   # a plateau counts once
        [0.0, 1.0, 1.0, 2.0, 0.0],   # a shelf is not a peak
        [0.0, 1.0, 1.0],             # a plateau that runs to the end
        [0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0],
        [2.0, 2.0, 2.0, 2.0],
        [],
        [5.0],
        [0.0, 1.0],
    ])
    @pytest.mark.parametrize("height,prominence", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, 1.5)])
    def test_edge_cases(self, x, height, prominence):
        assert _count_peaks(x, height, prominence) == _scipy_count(x, height, prominence)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_curves_with_plateaus(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(3, 80))
            # Rounding to one or two decimals makes ties and plateaus common.
            x = np.round(np.cumsum(rng.normal(size=n)) * rng.uniform(0.1, 1.0), int(rng.integers(1, 3)))
            peaks = find_peaks(x)[0]
            heights = x[peaks].tolist() + [float(np.median(x))]
            proms = peak_prominences(x, peaks)[0].tolist() + [0.0, 0.05]
            # Thresholds equal to a peak's own height or prominence sit on the boundary.
            for h in rng.choice(heights, size=min(3, len(heights)), replace=False).tolist():
                for p in rng.choice(proms, size=min(3, len(proms)), replace=False).tolist():
                    assert _count_peaks(x.tolist(), h, p) == _scipy_count(x, h, p)

    @pytest.mark.parametrize("seed", range(5))
    def test_smoothed_noisy_waves(self, seed):
        # exp04's input: a moving average of a noisy, damped infected fraction.
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 100.0, 1001)
        i = 0.05 - 0.04 * np.exp(-t / 30) * np.cos(2 * np.pi * t / 12) + rng.normal(0, 0.01, t.size)
        smoothed = np.convolve(i, np.ones(7) / 7, mode="same")
        for h, p in [(WAVE_MIN_HEIGHT, WAVE_MIN_PROMINENCE), (0.0, 0.0), (0.05, 0.02)]:
            assert _count_peaks(smoothed.tolist(), h, p) == _scipy_count(smoothed, h, p)


class TestExperimentSirs:
    def test_control_row_and_curves(self):
        table, curves = experiment_sirs(
            [NetworkSource.well_mixed(500, 10.0, label="WM")],
            beta=0.3, gamma=1.0, alpha=0.2, t_max=30.0,
            replicates=5, base_seed=1, grid_points=300,
        )
        labels = table.column("network")
        assert labels == ["WM", "WM[sir-control]"]
        assert set(curves) == {"WM", "WM[sir-control]"}
        grid, curve = curves["WM"]
        assert len(grid) == len(curve) == 300

    def test_alpha_zero_rejected(self):
        with pytest.raises(ParameterError):
            experiment_sirs([NetworkSource.well_mixed(100, 10.0)], alpha=0.0)

    def test_sirs_outlasts_sir(self):
        table, _ = experiment_sirs(
            [NetworkSource.well_mixed(500, 10.0, label="WM")],
            beta=0.3, gamma=1.0, alpha=0.2, t_max=40.0,
            replicates=10, base_seed=2, grid_points=400,
        )
        rows = {r["network"]: r for r in table.rows}
        assert rows["WM"]["long_run_mean_infected"] > 0.01
        assert rows["WM[sir-control]"]["long_run_mean_infected"] < 0.005
        assert rows["WM"]["waves"] >= rows["WM[sir-control]"]["waves"]
