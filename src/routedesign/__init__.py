"""Entropy-smoothed equilibria and cost design for atomic routing games."""

import os

# One BLAS thread unless the user set a count: numpy's and scipy's separate
# OpenBLAS pools otherwise compete for the cores, and the many small dense
# solves get several times slower.  This only takes effect when numpy has not
# been imported yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .design import (
    DesignConfig,
    DesignRecord,
    DesignTrace,
    DesignVerification,
    design_loop,
    project_B,
    project_D,
    verify_design,
)
from .errors import (
    BrokenPathError,
    ExponentOverflowError,
    InfeasibleFlowError,
    NegativeCycleError,
    NotConvergedError,
    NumericalError,
    RouteDesignError,
    UnreachableError,
)
from .game import (
    AtomicRoutingGame,
    CostParams,
    Player,
    game_from_dict,
    game_to_dict,
    load_game_file,
    membership_D,
)
from .graph import (
    DirectedGraph,
    grid_graph,
    incidence_matrix,
    od_vectors,
    path_links,
    reduced_incidence,
    shortest_path_cost,
    stranded_links,
)
from .scenarios import SCENARIOS, Scenario, build_scenario, four_player_5x5, two_player_3x3
from .sensitivity import (
    DesignObjective,
    GradientPair,
    implicit_gradients,
    path_to_target,
    tracking_objective,
)
from .smooth_eq import (
    EquilibriumSolution,
    Linearization,
    SmoothEqSettings,
    cold_start,
    homotopy_solve,
    jacobian_F,
    residual_F,
    solve_equilibrium,
    solve_nls,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicRoutingGame",
    "BrokenPathError",
    "CostParams",
    "DesignConfig",
    "DesignObjective",
    "DesignRecord",
    "DesignTrace",
    "DesignVerification",
    "DirectedGraph",
    "EquilibriumSolution",
    "ExponentOverflowError",
    "GradientPair",
    "Linearization",
    "InfeasibleFlowError",
    "NegativeCycleError",
    "NotConvergedError",
    "NumericalError",
    "Player",
    "RouteDesignError",
    "SCENARIOS",
    "Scenario",
    "SmoothEqSettings",
    "UnreachableError",
    "build_scenario",
    "cold_start",
    "design_loop",
    "four_player_5x5",
    "game_from_dict",
    "game_to_dict",
    "grid_graph",
    "homotopy_solve",
    "implicit_gradients",
    "incidence_matrix",
    "jacobian_F",
    "load_game_file",
    "membership_D",
    "od_vectors",
    "path_links",
    "path_to_target",
    "project_B",
    "project_D",
    "reduced_incidence",
    "residual_F",
    "shortest_path_cost",
    "solve_equilibrium",
    "solve_nls",
    "stranded_links",
    "tracking_objective",
    "two_player_3x3",
    "verify_design",
]
