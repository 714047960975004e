"""Deterministic SIR/SIRS reference dynamics.

Population fractions evolved with classical fixed-step 4th-order
Runge-Kutta; smooth, non-stiff system, so no adaptive stepping is needed
and grids stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .dynamics import RateParams, _write_csv
from .errors import ParameterError

DEFAULT_DT = 0.01


@dataclass(frozen=True)
class FractionState:
    """Population fractions (s, i, r), summing to one."""

    s: float
    i: float
    r: float = 0.0

    def __post_init__(self):
        for name, x in (("s", self.s), ("i", self.i), ("r", self.r)):
            if not 0.0 <= x <= 1.0:
                raise ParameterError(f"fraction {name}={x} outside [0, 1]")
        if abs(self.s + self.i + self.r - 1.0) > 1e-9:
            raise ParameterError(f"fractions must sum to 1, got {self.s + self.i + self.r}")


@dataclass(frozen=True)
class OdeSolution:
    """Fixed-step solution grid."""

    times: np.ndarray
    fractions: np.ndarray  # shape (len(times), 3), columns s, i, r

    def at_time(self, t: float) -> np.ndarray:
        idx = int(np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self.times) - 1))
        return self.fractions[idx]

    def to_csv(self, stream: IO[str]) -> None:
        _write_csv(stream, (self.times, *self.fractions.T))


def _integrate(init: FractionState, params: RateParams, t_max: float, dt: float) -> OdeSolution:
    if dt <= 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    if t_max <= 0:
        raise ParameterError(f"t_max must be positive, got {t_max}")
    if not t_max / dt < np.iinfo(np.intp).max / 8:  # numpy's bound on the grid's bytes; also inf
        raise ParameterError(f"t_max / dt = {t_max / dt:g} steps do not fit in one time grid")
    steps = int(round(t_max / dt))
    times = np.arange(steps + 1) * dt
    # Plain floats in numpy's elementwise order, so every double matches
    # the array form y + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4).
    h, c = 0.5 * dt, dt / 6.0
    y = (init.s, init.i, init.r)
    rows = [y]
    for _ in range(steps):
        s, i, r = y
        a1, b1, c1 = _sirs_rhs(y, params)
        a2, b2, c2 = _sirs_rhs((s + h * a1, i + h * b1, r + h * c1), params)
        a3, b3, c3 = _sirs_rhs((s + h * a2, i + h * b2, r + h * c2), params)
        a4, b4, c4 = _sirs_rhs((s + dt * a3, i + dt * b3, r + dt * c3), params)
        y = (s + c * (((a1 + 2.0 * a2) + 2.0 * a3) + a4),
             i + c * (((b1 + 2.0 * b2) + 2.0 * b3) + b4),
             r + c * (((c1 + 2.0 * c2) + 2.0 * c3) + c4))
        rows.append(y)
    # A fraction that is not finite stays so at every later step: the last row tells.
    if not all(map(math.isfinite, y)):
        raise ParameterError(f"RK4 solution is not finite: dt = {dt} is too large for these rates")
    return OdeSolution(times=times, fractions=np.array(rows, dtype=np.float64))


def _sirs_rhs(y, p: RateParams) -> tuple:
    s, i, r = y
    infection = p.beta * s * i
    recovery = p.gamma * i
    waning = p.alpha * r
    return (-infection + waning, infection - recovery, recovery - waning)


def ode_sir(params: RateParams, init: FractionState, t_max: float, dt: float = DEFAULT_DT) -> OdeSolution:
    """Integrate ds/dt = -beta*s*i, di/dt = beta*s*i - gamma*i, dr/dt = gamma*i."""
    sir_params = RateParams(params.beta, params.gamma, 0.0)
    return _integrate(init, sir_params, t_max, dt)


def ode_sirs(params: RateParams, init: FractionState, t_max: float, dt: float = DEFAULT_DT) -> OdeSolution:
    """SIR plus waning immunity: recovered return to susceptible at rate alpha."""
    return _integrate(init, params, t_max, dt)


def r0(params: RateParams, k_avg: Optional[float] = None) -> float:
    """Basic reproduction number: beta/gamma, times mean degree when given."""
    if params.gamma == 0:
        raise ParameterError("r0 undefined for gamma = 0")
    base = params.beta / params.gamma
    return base if k_avg is None else base * k_avg


DISEASE_FREE = FractionState(1.0, 0.0, 0.0)


def endemic_equilibrium(params: RateParams) -> FractionState:
    """Long-run fixed point of the SIRS flow.

    Subcritical (beta <= gamma) or pure SIR (alpha = 0) settles at the
    disease-free point (1, 0, 0); otherwise s* = gamma/beta,
    i* = (1 - gamma/beta) / (1 + gamma/alpha), r* = (gamma/alpha) i*.
    """
    if params.gamma == 0:
        raise ParameterError("equilibrium undefined for gamma = 0")
    if params.beta <= params.gamma or params.alpha == 0:
        return DISEASE_FREE
    s_star = params.gamma / params.beta
    i_star = (1.0 - s_star) / (1.0 + params.gamma / params.alpha)
    r_star = (params.gamma / params.alpha) * i_star
    return FractionState(s_star, i_star, r_star)
