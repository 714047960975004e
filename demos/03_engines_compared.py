"""Compare the two engines on one well-mixed scenario.

Run: python3 demos/03_engines_compared.py

The exact stochastic engine (averaged over replicates) and the
deterministic ODE describe the same epidemic at two levels of
idealization: the ODE is the stochastic engine's limit of a large
population, so the stochastic mean hugs it.
"""

import numpy as np

from netepi.dynamics import RateParams, gillespie_well_mixed
from netepi.ode import FractionState, ode_sir

N, K_AVG, BETA, GAMMA = 5000, 10.0, 0.2, 1.0
T_MAX, REPS = 15.0, 20

grid = np.linspace(0.0, T_MAX, 16)

# stochastic mean over replicates
acc = np.zeros(len(grid))
for seed in range(REPS):
    traj = gillespie_well_mixed(N, K_AVG, RateParams(BETA, GAMMA), 0.01, T_MAX, seed)
    acc += traj.counts_at(grid)[1] / N
gillespie_mean = acc / REPS

# deterministic reference (well-mixed rate = beta * <k>)
sol = ode_sir(RateParams(BETA * K_AVG, GAMMA), FractionState(0.99, 0.01), T_MAX)
ode_i = np.array([sol.at_time(t)[1] for t in grid])

print(f"{'t':>5}  {'gillespie':>10}  {'ode':>10}")
for t, a, b in zip(grid, gillespie_mean, ode_i):
    print(f"{t:5.1f}  {a:10.4f}  {b:10.4f}")

print()
print(f"max |gillespie - ode| : {np.max(np.abs(gillespie_mean - ode_i)):.4f}")
