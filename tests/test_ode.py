import hashlib
import io
import itertools
import math

import numpy as np
import pytest

from netepi.dynamics import RateParams
from netepi.errors import ParameterError
from netepi.ode import (
    DISEASE_FREE,
    FractionState,
    endemic_equilibrium,
    ode_sir,
    ode_sirs,
    r0,
)


def sir_final_size(beta, gamma, s0, i0):
    """Bisection on the implicit final-size relation
    ln(s_inf / s0) = -(beta / gamma) * (s0 + i0 - s_inf)."""
    ratio = beta / gamma

    def f(s_inf):
        return math.log(s_inf / s0) + ratio * (s0 + i0 - s_inf)

    lo, hi = 1e-12, s0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    s_inf = 0.5 * (lo + hi)
    return 1.0 - s_inf  # recovered fraction; i_inf -> 0


class TestFractionState:
    def test_rejects_bad_sum(self):
        with pytest.raises(ParameterError):
            FractionState(0.5, 0.5, 0.5)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            FractionState(-0.1, 1.1, 0.0)

    def test_default_recovered(self):
        st = FractionState(0.9, 0.1)
        assert st.r == 0.0


class TestOdeSir:
    def test_pure_decay_closed_form(self):
        # beta = 0 gives i(t) = i0 * exp(-gamma * t) exactly.
        sol = ode_sir(RateParams(0.0, 1.0), FractionState(0.9, 0.1), 1.0)
        assert sol.fractions[-1, 1] == pytest.approx(0.1 * math.exp(-1.0), abs=1e-6)

    def test_conservation(self):
        sol = ode_sir(RateParams(0.4, 0.1), FractionState(0.99, 0.01), 100.0)
        sums = sol.fractions.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9

    def test_final_size_matches_implicit_relation(self):
        beta, gamma, i0 = 0.3, 0.1, 0.01
        sol = ode_sir(RateParams(beta, gamma), FractionState(1 - i0, i0), 400.0)
        expected = sir_final_size(beta, gamma, 1 - i0, i0)
        assert sol.fractions[-1, 2] == pytest.approx(expected, abs=1e-6)

    def test_subcritical_no_epidemic(self):
        sol = ode_sir(RateParams(0.05, 0.1), FractionState(0.99, 0.01), 200.0)
        assert sol.fractions[-1, 2] < 0.03

    def test_ignores_alpha(self):
        base = ode_sir(RateParams(0.3, 0.1), FractionState(0.99, 0.01), 50.0)
        with_alpha = ode_sir(RateParams(0.3, 0.1, 0.7), FractionState(0.99, 0.01), 50.0)
        assert np.array_equal(base.fractions, with_alpha.fractions)

    def test_fourth_order_convergence(self):
        params = RateParams(0.5, 0.2)
        init = FractionState(0.99, 0.01)
        reference = ode_sir(params, init, 10.0, dt=0.0001).fractions[-1, 1]
        err = [
            abs(ode_sir(params, init, 10.0, dt=dt).fractions[-1, 1] - reference)
            for dt in (0.2, 0.1)
        ]
        assert 10.0 < err[0] / err[1] < 22.0  # ~2^4 for a 4th-order method

    @pytest.mark.parametrize("t_max, dt", [(5.0, 1e-300), (1e300, 1e-300)],
                             ids=["too-many-steps", "infinite-steps"])
    def test_grid_numpy_cannot_hold_rejected(self, t_max, dt):
        with pytest.raises(ParameterError):
            ode_sir(RateParams(0.3, 0.1), FractionState(0.99, 0.01), t_max, dt)

    def test_unstable_step_rejected(self):
        # Fixed-step RK4 diverges once beta * dt passes about 4.5.
        init = FractionState(0.99, 0.01)
        fractions = ode_sirs(RateParams(400.0, 1.0), init, 5.0).fractions
        assert np.all((fractions >= 0.0) & (fractions <= 1.0))
        with pytest.raises(ParameterError, match="dt = 0.01"):
            ode_sirs(RateParams(500.0, 1.0), init, 5.0)

    def test_csv_blocks_join_to_one_string(self):
        sol = ode_sirs(RateParams(0.3, 0.1, 0.05), FractionState(0.99, 0.01), 99.99, dt=0.01)
        assert len(sol.times) == 10_000  # past one block of rows
        rows = zip(sol.times.tolist(), sol.fractions.tolist())
        expected = "t,S,I,R\n" + "".join(f"{t!r},{s!r},{i!r},{r!r}\n" for t, (s, i, r) in rows)
        buf = io.StringIO()
        sol.to_csv(buf)
        assert buf.getvalue() == expected

    def test_csv_format(self):
        sol = ode_sir(RateParams(0.0, 1.0), FractionState(0.9, 0.1), 0.02, dt=0.01)
        buf = io.StringIO()
        sol.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,S,I,R"
        assert len(lines) == 4
        assert lines[1].startswith("0.0,0.9,0.1,")


class TestOdeSirs:
    def test_alpha_zero_identical_to_sir(self):
        params = RateParams(0.3, 0.1, 0.0)
        init = FractionState(0.99, 0.01)
        a = ode_sir(params, init, 30.0)
        b = ode_sirs(params, init, 30.0)
        assert np.max(np.abs(a.fractions - b.fractions)) < 1e-12

    def test_converges_to_endemic_equilibrium(self):
        params = RateParams(1.0, 0.5, 0.25)
        sol = ode_sirs(params, FractionState(0.99, 0.01), 400.0)
        eq = endemic_equilibrium(params)
        s, i, r = sol.fractions[-1]
        assert s == pytest.approx(eq.s, abs=1e-6)
        assert i == pytest.approx(eq.i, abs=1e-6)
        assert r == pytest.approx(eq.r, abs=1e-6)

    def test_oscillatory_approach(self):
        # With slow waning the infected fraction overshoots and rings
        # before settling; beta here is already the well-mixed rate.
        sol = ode_sirs(RateParams(3.0, 1.0, 0.2), FractionState(0.99, 0.01), 100.0)
        i = sol.fractions[:, 1]
        sign_changes = np.sum(np.diff(np.sign(np.diff(i))) != 0)
        assert sign_changes >= 3


class TestEquilibriumAndR0:
    def test_known_equilibrium(self):
        eq = endemic_equilibrium(RateParams(1.0, 0.5, 0.25))
        assert eq.s == pytest.approx(0.5)
        assert eq.i == pytest.approx(1.0 / 6.0)
        assert eq.r == pytest.approx(1.0 / 3.0)

    def test_subcritical_is_disease_free(self):
        assert endemic_equilibrium(RateParams(0.1, 0.5, 0.25)) == DISEASE_FREE

    def test_sir_is_disease_free(self):
        assert endemic_equilibrium(RateParams(1.0, 0.5, 0.0)) == DISEASE_FREE

    def test_equilibrium_is_fixed_point(self):
        from netepi.ode import _sirs_rhs

        params = RateParams(1.0, 0.5, 0.25)
        eq = endemic_equilibrium(params)
        assert np.max(np.abs(_sirs_rhs(np.array([eq.s, eq.i, eq.r]), params))) < 1e-12

    def test_r0_plain(self):
        assert r0(RateParams(0.3, 0.1)) == pytest.approx(3.0)

    def test_r0_with_mean_degree(self):
        assert r0(RateParams(0.1, 1.0), k_avg=10.0) == pytest.approx(1.0)

    def test_r0_gamma_zero(self):
        with pytest.raises(ParameterError):
            r0(RateParams(0.1, 0.0))


@pytest.mark.parametrize("solve, digest", [
    (ode_sir, "607314b4da6ca737dda985cfb549983288656f7c00ed3a6ae30233f0e4631cee"),
    (ode_sirs, "6291a4b6bdae7bd3988e40c506f1be2d1bb3f56457a169640084afd90ac646a2"),
], ids=["sir", "sirs"])
def test_solution_doubles_are_pinned(solve, digest):
    """SHA-256 of every solution double over a grid of rates, initial states
    and steps, recorded from the array form of the RK4 step."""
    h = hashlib.sha256()
    for beta, alpha, init, dt in itertools.product(
        (0.0, 0.5, 3.0, 10.0), (0.0, 0.2, 1.3),
        (FractionState(0.99, 0.01), FractionState(0.5, 0.3, 0.2)), (0.003, 0.01, 0.1),
    ):
        h.update(solve(RateParams(beta, 1.0, alpha), init, 3.0, dt).fractions.tobytes())
    assert h.hexdigest() == digest
