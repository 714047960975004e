"""netepi: epidemic simulation on contact networks.

Builds and measures contact graphs, runs exact Gillespie SIR/SIRS
dynamics on them (with mid-run contact-reduction interventions), and
compares against a deterministic ODE baseline.
"""

__version__ = "0.1.0"

from .dynamics import (
    RateParams,
    Trajectory,
    TrajectorySummary,
    gillespie_run,
    gillespie_well_mixed,
    init_state,
    summarize_trajectory,
)
from .graphs import (
    DegreeStats,
    Graph,
    classify_scale_free,
    degree_stats,
    density,
    fit_power_law,
    generate_ba,
    generate_er,
    generate_ws,
    load_edge_list,
    metrics_report,
)
from .interventions import InterventionSpec, apply_degree_cap, thin_to_density
from .ode import FractionState, OdeSolution, endemic_equilibrium, ode_sir, ode_sirs, r0

__all__ = [
    "DegreeStats",
    "FractionState",
    "Graph",
    "InterventionSpec",
    "OdeSolution",
    "RateParams",
    "Trajectory",
    "TrajectorySummary",
    "apply_degree_cap",
    "classify_scale_free",
    "degree_stats",
    "density",
    "endemic_equilibrium",
    "fit_power_law",
    "generate_ba",
    "generate_er",
    "generate_ws",
    "gillespie_run",
    "gillespie_well_mixed",
    "init_state",
    "load_edge_list",
    "metrics_report",
    "ode_sir",
    "ode_sirs",
    "r0",
    "summarize_trajectory",
    "thin_to_density",
]
