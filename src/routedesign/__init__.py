"""Entropy-smoothed equilibria and cost design for atomic routing games.

Importing the package loads none of its submodules and no numpy.  Each name
in __all__, and each submodule name, imports the submodule that defines it
on first access (PEP 562), so `routedesign.build_scenario` loads only the
errors, game, graph and scenarios modules, and the solver and design
modules load when a caller first reaches them.
"""

import importlib
import os

# One BLAS thread unless the user set a count: numpy's and scipy's separate
# OpenBLAS pools otherwise compete for the cores, and the many small dense
# solves get several times slower.  This only takes effect when numpy has not
# been imported yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "design": (
        "DesignConfig",
        "DesignRecord",
        "DesignTrace",
        "DesignVerification",
        "design_loop",
        "project_B",
    ),
    "errors": (
        "BrokenPathError",
        "ExponentOverflowError",
        "InfeasibleFlowError",
        "NegativeCycleError",
        "NotConvergedError",
        "NumericalError",
        "RouteDesignError",
        "UnreachableError",
    ),
    "game": (
        "AtomicRoutingGame",
        "CostParams",
        "Player",
        "c_from_factor",
        "game_from_dict",
        "game_to_dict",
        "load_game_file",
        "membership_D",
        "path_to_target",
        "write_game_file",
    ),
    "graph": (
        "DirectedGraph",
        "grid_graph",
        "incidence_matrix",
        "od_vectors",
        "reduced_incidence",
        "shortest_path_cost",
        "stranded_links",
    ),
    "numerics": (),
    "scenarios": ("SCENARIOS", "Scenario", "build_scenario", "four_player_5x5", "two_player_3x3"),
    "sensitivity": ("DesignObjective", "GradientPair", "implicit_gradients", "tracking_objective"),
    "smooth_eq": (
        "EquilibriumSolution",
        "Linearization",
        "SmoothEqSettings",
        "homotopy_solve",
        "residual_F",
        "solve_nls",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the submodule behind name on first access, and keep the value."""
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
