"""Implicit differentiation of the smoothed equilibrium in the cost parameters.

At a solution of the smoothed system, the equilibrium flow is an implicit
function of (b, C).  Differentiating through the system gives objective
gradients without unrolling the solver: one least-squares solve against the
transpose of the Jacobian the equilibrium solver linearizes, scaled by the
exponential-map diagonal.  The solve is numerics.lstsq, the rank-revealing QR
the solver's LM step falls back to, because J is exactly singular on some
games the load-time check accepts (a two-cycle cut off from the players'
nodes, whose two multipliers can shift together), where LU returns NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .errors import BrokenPathError
from .game import AtomicRoutingGame
from .smooth_eq import EXP_CLAMP, EquilibriumSolution, _exponent, jacobian_F


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


def equilibrium_diag(game: AtomicRoutingGame, sol: EquilibriumSolution) -> np.ndarray:
    """Diagonal of the exponential-map linearization at a solution.

    Equals the equilibrium flow itself up to the solve tolerance, since the
    solved system pins x to the exponential map.
    """
    g = _exponent(game, sol.x, sol.v, sol.lam)
    return np.exp(np.minimum(g, EXP_CLAMP))


def implicit_gradients(
    game: AtomicRoutingGame,
    sol: EquilibriumSolution,
    objective: DesignObjective,
) -> GradientPair:
    """Objective gradients in (b, C) through the solved smoothed system.

    Solves J^T z = [grad_psi(x); 0] in the minimum-norm least-squares sense
    with numerics.lstsq, which tolerates singular J, and returns
    grad_b = -(D z_x) / lam with D the exponential-map diagonal; grad_C
    follows as the rank-1 outer product with the flow.
    """
    jac = jacobian_F(game, sol.x, sol.v, sol.lam)
    grad_x = np.asarray(objective.gradient(sol.x), dtype=float)
    if grad_x.shape != (game.pm,):
        raise ValueError("objective gradient must have length p*m")
    rhs = np.concatenate([grad_x, np.zeros(game.dim_v)])
    z = numerics.lstsq(jac.T, rhs)
    d = equilibrium_diag(game, sol)
    grad_b = -(d * z[: game.pm]) / sol.lam
    return GradientPair(grad_b=grad_b, flow=np.array(sol.x))


def path_to_target(game: AtomicRoutingGame, paths: list[list[int]]) -> np.ndarray:
    """Joint 0/1 flow putting each player on a prescribed link path.

    Args:
        paths: one list of link indices per player, chaining that player's
            origin to its destination.

    Raises:
        BrokenPathError: a path does not chain origin to destination, repeats
            a link, or the number of paths is wrong.
    """
    if len(paths) != game.p:
        raise BrokenPathError("need exactly one path per player")
    links = game.graph.links
    target = np.zeros(game.pm)
    for i, path in enumerate(paths):
        if not path:
            raise BrokenPathError(f"player {i} path is empty")
        if len(set(path)) != len(path):
            raise BrokenPathError(f"player {i} path repeats a link")
        player = game.players[i]
        at = player.origin
        for j in path:
            if not 0 <= j < game.m:
                raise BrokenPathError(f"player {i} path uses unknown link {j}")
            tail, head = links[j]
            if tail != at:
                raise BrokenPathError(
                    f"player {i} path breaks at node {at}: next link starts at {tail}"
                )
            at = head
        if at != player.destination:
            raise BrokenPathError(
                f"player {i} path ends at node {at}, not the destination"
            )
        sl = game.player_slice(i)
        for j in path:
            target[sl.start + j] = 1.0
    return target
