"""Implicit differentiation of the smoothed equilibrium in the cost parameters.

At a solution of the smoothed system the equilibrium flow is an implicit
function of (b, C).  Differentiating through the log system F~(y, v) = 0
that the solver drives to zero gives objective gradients without unrolling
the solver: one solve against J~^T, the transpose of F~'s Jacobian in
(y, v), by the same smooth_eq.Linearization the solver's Newton steps use,
built at the solution's flows.  It also answers where J~ is singular, as it
is exactly on some games the load-time check accepts (a two-cycle cut off
from the players' nodes, whose two multipliers can shift together).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .game import AtomicRoutingGame
from .smooth_eq import EquilibriumSolution, Linearization


@dataclass(frozen=True)
class DesignObjective:
    """A scalar objective on joint flows with its gradient.

    Attributes:
        target: reference joint flow the objective is built around.
        evaluate: x -> objective value.
        gradient: x -> objective gradient in x.
    """

    target: np.ndarray
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


def tracking_objective(target: np.ndarray) -> DesignObjective:
    """Squared tracking error 0.5 ||x - target||^2 and its gradient."""
    target = np.array(target, dtype=float)
    if target.ndim != 1:
        raise ValueError("target must be a vector")
    target.setflags(write=False)

    def evaluate(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != target.shape:
            raise ValueError("flow length must match the target")
        return 0.5 * float(np.dot(x - target, x - target))

    def gradient(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != target.shape:
            raise ValueError("flow length must match the target")
        return x - target

    return DesignObjective(target=target, evaluate=evaluate, gradient=gradient)


@dataclass(frozen=True)
class GradientPair:
    """Implicit gradients in (b, C); the C gradient is the rank-1 product
    grad_b flow^T and is materialized on demand."""

    grad_b: np.ndarray
    flow: np.ndarray

    @property
    def grad_C(self) -> np.ndarray:
        return np.outer(self.grad_b, self.flow)


def implicit_gradients(
    game: AtomicRoutingGame,
    sol: EquilibriumSolution,
    objective: DesignObjective,
) -> GradientPair:
    """Objective gradients in (b, C) through the solved smoothed system.

    Solves J~^T w = [x * grad_psi(x); 0] through Linearization.solve_T at
    the solution's flows x (in the minimum-norm least-squares sense where
    J~ is singular) and returns grad_b = -w_y; grad_C follows as the rank-1
    outer product with the flow.
    """
    grad_x = np.asarray(objective.gradient(sol.x), dtype=float)
    if grad_x.shape != (game.pm,):
        raise ValueError("objective gradient must have length p*m")
    rhs = np.concatenate([sol.x * grad_x, np.zeros(game.dim_v)])
    w = Linearization(game, sol.x, sol.lam).solve_T(rhs)
    return GradientPair(grad_b=-w[: game.pm], flow=np.array(sol.x))
