"""Entropy-smoothed equilibrium system and its damped least-squares solver.

Adding an entropy term (weight lam) to every player's objective replaces the
piecewise-linear equilibrium conditions with a smooth square system

    F(x, v) = [x - exp((E^T v - b - C x) / lam - 1);  s - E x] = 0,

which has a unique solution for lam > 0 with monotone interaction costs when
every player has a strictly positive feasible flow.  The solver below drives
||F|| to tolerance with a Levenberg-Marquardt iteration started from the
exponential map at (x, v) = 0, and a lam-continuation wrapper for small lam.
Each step solves the damped normal equations (J^T J + mu I) z = -J^T F by
Cholesky, forming J and its products once per accepted iterate; a step whose
Cholesky factorization fails is solved by QR on the stacked [J; sqrt(mu) I].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .errors import ExponentOverflowError, NegativeCycleError, NotConvergedError
from .game import AtomicRoutingGame

# Exponent handling: entries are clamped at EXP_CLAMP to keep trial residuals
# finite, and anything past EXP_LIMIT is treated as a hard failure.
EXP_CLAMP = 50.0
EXP_LIMIT = 200.0

# Returned flows are floored at this value so they stay elementwise positive
# even when the exact smoothed flow underflows to zero.
_POSITIVE_FLOOR = 1e-300

_DAMPING_INIT = 1e-3
_DAMPING_MIN = 1e-15
_DAMPING_MAX = 1e15


@dataclass(frozen=True)
class SmoothEqSettings:
    """Solver settings for one smoothed solve at entropy weight lam."""

    lam: float
    residual_tol: float = 1e-10
    max_iters: int = 200

    def __post_init__(self) -> None:
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        if self.residual_tol <= 0.0:
            raise ValueError("residual_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class HomotopySchedule:
    """Geometric continuation schedule in the entropy weight."""

    lambda_start: float = 1.0
    decay: float = 0.5
    lambda_min: float = 1e-3

    def __post_init__(self) -> None:
        if self.lambda_start <= 0.0 or self.lambda_min <= 0.0:
            raise ValueError("entropy weights must be positive")
        if self.lambda_min > self.lambda_start:
            raise ValueError("lambda_min cannot exceed lambda_start")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")

    def stages(self) -> list[float]:
        """Entropy weights visited, ending exactly at lambda_min."""
        out = [self.lambda_start]
        lam = self.lambda_start
        while lam > self.lambda_min:
            lam = max(lam * self.decay, self.lambda_min)
            out.append(lam)
        return out


@dataclass(frozen=True)
class EquilibriumSolution:
    """Converged (or best-effort) solution of the smoothed system."""

    x: np.ndarray
    v: np.ndarray
    residual_norm: float
    lam: float
    iterations: int
    converged: bool


def _exponent(game: AtomicRoutingGame, x: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    return (game.e_blk.T @ v - game.costs.b - game.costs.C @ x) / lam - 1.0


def _check_exponent(g: np.ndarray, lam: float) -> None:
    top = float(np.max(g))
    if top > EXP_LIMIT:
        raise ExponentOverflowError(
            f"smoothed-map exponent {top:.1f} exceeds {EXP_LIMIT:.0f} at lam={lam:g}"
        )


def residual_F(game: AtomicRoutingGame, x: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    """Stacked residual of the smoothed equilibrium system.

    First p*m entries: x minus the exponential fixed-point map; remaining
    p*(n-1) entries: conservation s - E x.

    Raises:
        ExponentOverflowError: some exponent entry exceeds the safe range.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if x.shape != (game.pm,) or v.shape != (game.dim_v,):
        raise ValueError("bad flow or multiplier length")
    g = _exponent(game, x, v, lam)
    _check_exponent(g, lam)
    ex = np.exp(np.minimum(g, EXP_CLAMP))
    return np.concatenate([x - ex, game.s - game.e_blk @ x])


def jacobian_F(game: AtomicRoutingGame, x: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    """Jacobian of residual_F with respect to (x, v).

    Blocks: [[I + D C / lam, -D E^T / lam], [-E, 0]] with D the diagonal of
    exponential-map values.  Entries past the exponent clamp contribute zero
    derivative, matching the clamped residual exactly.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if x.shape != (game.pm,) or v.shape != (game.dim_v,):
        raise ValueError("bad flow or multiplier length")
    g = _exponent(game, x, v, lam)
    _check_exponent(g, lam)
    d = np.where(g <= EXP_CLAMP, np.exp(np.minimum(g, EXP_CLAMP)), 0.0)
    pm, k = game.pm, game.pm + game.dim_v
    jac = np.zeros((k, k))
    top_left, top_right = jac[:pm, :pm], jac[:pm, pm:]
    np.multiply(d[:, None], game.costs.C, out=top_left)
    top_left /= lam
    np.multiply(d[:, None], game.e_blk.T, out=top_right)
    top_right /= -lam
    np.negative(game.e_blk, out=jac[pm:, :pm])
    jac.reshape(-1)[: pm * (k + 1) : k + 1] += 1.0
    return jac


def cold_start(game: AtomicRoutingGame, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Default start: v = 0 and x the clamped exponential map at (x, v) = 0."""
    v = np.zeros(game.dim_v)
    return np.exp(np.minimum(_exponent(game, np.zeros(game.pm), v, lam), EXP_CLAMP)), v


def solve_nls(
    game: AtomicRoutingGame,
    settings: SmoothEqSettings,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
    trace: list[float] | None = None,
) -> EquilibriumSolution:
    """Solve the smoothed system by damped least squares.

    Starts from the given warm start, else from cold_start(game, lam), and
    iterates Levenberg-Marquardt steps: damping is divided by 10 on an
    accepted step and multiplied by 10 on a rejected one.  Trial points whose
    exponent overflows are rejected like any other failed step.  Returns the
    incumbent with converged=False when the iteration budget runs out.

    Each step minimizes ||J z + F||^2 + damping ||z||^2 through
    numerics.DampedLeastSquares: Cholesky on J^T J + damping I, or, when that
    factorization fails, numerics.lstsq on the stacked system.  J and J^T F
    are formed once per accepted iterate and reused after a rejected step,
    which only refactors J^T J + damping I at the raised damping; once the
    factorization has failed for an iterate, its later steps all take the
    stacked solve.

    Raises:
        ExponentOverflowError: the starting point itself overflows.
    """
    if warm_start is None:
        warm_start = cold_start(game, settings.lam)
    x = np.maximum(np.array(warm_start[0], dtype=float), _POSITIVE_FLOOR)
    v = np.array(warm_start[1], dtype=float)

    pm = game.pm
    resid = residual_F(game, x, v, settings.lam)
    norm = float(np.linalg.norm(resid))
    damping = _DAMPING_INIT
    iterations = 0
    if trace is not None:
        trace.append(norm)

    # the linearization at the incumbent; a rejected step keeps it and only
    # changes the damping
    system: numerics.DampedLeastSquares | None = None
    while norm > settings.residual_tol and iterations < settings.max_iters:
        iterations += 1
        if system is None:
            system = numerics.DampedLeastSquares(jacobian_F(game, x, v, settings.lam), -resid)
        step = system.solve(damping)
        cand_x = np.maximum(x + step[:pm], _POSITIVE_FLOOR)
        cand_v = v + step[pm:]
        try:
            cand_resid = residual_F(game, cand_x, cand_v, settings.lam)
            cand_norm = float(np.linalg.norm(cand_resid))
        except ExponentOverflowError:
            cand_norm = math.inf
        if cand_norm < norm:
            x, v, resid, norm = cand_x, cand_v, cand_resid, cand_norm
            system = None
            damping = max(damping / 10.0, _DAMPING_MIN)
        else:
            damping *= 10.0
            if damping > _DAMPING_MAX:
                break
        if trace is not None:
            trace.append(norm)

    return EquilibriumSolution(
        x=x,
        v=v,
        residual_norm=norm,
        lam=settings.lam,
        iterations=iterations,
        converged=norm <= settings.residual_tol,
    )


def homotopy_solve(
    game: AtomicRoutingGame,
    schedule: HomotopySchedule,
    settings: SmoothEqSettings,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
    *,
    strict: bool = True,
) -> list[EquilibriumSolution]:
    """Continuation in the entropy weight, warm-starting every re-solve.

    Solves at lambda_start (from warm_start, else the cold start), then
    repeatedly multiplies the weight by decay (clamping the final stage to
    exactly lambda_min) and re-solves from the previous stage's solution.
    Every stage uses settings with its own weight in place of settings.lam.
    Returns every stage's solution, final stage last.  With strict=False a
    stage that stalls is kept unconverged and its best iterate warm starts
    the next stage; the caller then judges the endpoint by other means, such
    as its optimality gap.

    Raises:
        NegativeCycleError: strict, some stage failed, and some player's
            marginal costs there admit a negative-cost cycle.
        NotConvergedError: strict and some stage failed otherwise; the
            message names its weight.
        ExponentOverflowError: a stage started out of range.
    """
    stages: list[EquilibriumSolution] = []
    carry = warm_start
    for lam in schedule.stages():
        stage_settings = replace(settings, lam=lam)
        sol = solve_nls(game, stage_settings, warm_start=carry)
        if strict and not sol.converged:
            stall = NotConvergedError(
                f"continuation stage at lam={lam:g} stalled with residual {sol.residual_norm:.3e}"
            )
            for i in range(game.p):
                try:
                    game.best_response_path(sol.x, i)
                except NegativeCycleError:
                    raise NegativeCycleError(
                        f"continuation stage at lam={lam:g} stalled: player {i}'s "
                        "marginal costs admit a negative-cost cycle"
                    ) from stall
            raise stall
        stages.append(sol)
        carry = (sol.x, sol.v)
    return stages


def solve_equilibrium(
    game: AtomicRoutingGame,
    settings: SmoothEqSettings,
    warm: tuple[np.ndarray, np.ndarray] | None = None,
) -> EquilibriumSolution:
    """Smoothed equilibrium at settings.lam: a direct solve, else continuation.

    Given a warm start, first solves directly from it.  When there is no
    warm start, it overflows, or the direct solve does not converge, runs
    strict continuation from max(1, lam) down to lam and returns its final
    stage.

    Raises:
        NegativeCycleError: a continuation stage stalled where some player's
            marginal costs admit a negative-cost cycle.
        NotConvergedError: a continuation stage stalled otherwise.
        ExponentOverflowError: a continuation stage started out of range.
    """
    if warm is not None:
        try:
            sol = solve_nls(game, settings, warm_start=warm)
        except ExponentOverflowError:
            # the warm start lies too far from this game's solution
            sol = None
        if sol is not None and sol.converged:
            return sol
    schedule = HomotopySchedule(lambda_start=max(1.0, settings.lam), lambda_min=settings.lam)
    return homotopy_solve(game, schedule, settings)[-1]
