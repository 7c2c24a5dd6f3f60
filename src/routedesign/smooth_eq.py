"""Entropy-smoothed equilibrium system and its Newton solver.

Adding an entropy term (weight lam) to every player's objective replaces the
piecewise-linear equilibrium conditions with a smooth square system

    F(x, v) = [x - exp((E^T v - b - C x) / lam - 1);  s - E x] = 0,

which has a unique solution for lam > 0 with monotone interaction costs when
every player has a strictly positive feasible flow.  The solver below drives
||F|| to tolerance with Newton's method and a backtracking line search,
started from the exponential map at (x, v) = 0, and a continuation that
halves lam down to a small target.

J is a saddle-point matrix [[M, -D E^T / lam], [-E, 0]] with M = I + D C / lam
and D the exponential-map diagonal.  Linearization owns every solve with J:
by that structure (Woodbury through the game's rank-revealing factor
C = U W^T for M, then a Schur complement on the multipliers), by the LU of
J^T for C of rank above pm / 2, and where J is singular by the minimum-norm
least-squares solution from a rank-revealing QR.  The Newton step, the QR
fallback direction and the implicit gradient all go through it.  The
structured factor is rebuilt at every iterate; the dense LU is kept for
chord steps while they contract ||F|| by _CHORD_RATE.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np
import scipy.linalg.lapack

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

# Armijo line search: a step of length t is accepted when it cuts ||F|| by
# at least the fraction _ARMIJO * t; t is halved at most _MAX_HALVINGS times.
_ARMIJO = 1e-4
_MAX_HALVINGS = 40

# Chord steps on the dense route: after an iteration that cut ||F|| by at
# least this factor, the next one first takes the full step from the same
# LU and keeps it only if it cuts ||F|| by the factor again.  On the games of
# bench/coupled_game.py 0.5 took less time than 0.25, which refactors more
# often, and than 0.75, which takes many more chord steps that each gain less.
_CHORD_RATE = 0.5


@dataclass(frozen=True)
class SmoothEqSettings:
    """Solver settings for one smoothed solve at entropy weight lam."""

    lam: float
    residual_tol: float = 1e-10
    max_iters: int = 200

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN, so these also reject it
        if not 0.0 < self.lam < np.inf:
            raise ValueError("lam must be finite and positive")
        if not 0.0 < self.residual_tol < np.inf:
            raise ValueError("residual_tol must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be finite and positive")
    if x.shape != (game.pm,) or v.shape != (game.dim_v,):
        raise ValueError("bad flow or multiplier length")
    g = _exponent(game, x, v, lam)
    _check_exponent(g, lam)
    ex = np.exp(np.minimum(g, EXP_CLAMP))
    return np.concatenate([x - ex, game.s - game.e_blk @ x])


def _map_diag(game: AtomicRoutingGame, x: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    # Derivative of the clamped exponential map: zero past the clamp.
    g = _exponent(game, x, v, lam)
    _check_exponent(g, lam)
    return np.where(g <= EXP_CLAMP, np.exp(np.minimum(g, EXP_CLAMP)), 0.0)


def jacobian_F(game: AtomicRoutingGame, x: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    """Jacobian of residual_F with respect to (x, v).

    Blocks: [[I + D C / lam, -D E^T / lam], [-E, 0]] with D the diagonal of
    exponential-map values.  Entries past the exponent clamp contribute zero
    derivative, matching the clamped residual exactly.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be finite and positive")
    if x.shape != (game.pm,) or v.shape != (game.dim_v,):
        raise ValueError("bad flow or multiplier length")
    return _assemble_jacobian(game, _map_diag(game, x, v, lam), lam)


def _assemble_jacobian(game: AtomicRoutingGame, d: np.ndarray, lam: float) -> np.ndarray:
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


class Linearization:
    """J = dF/d(x, v) at one point, factored once by its structure.

    With C = U W^T (game.cost_factor, rank r), A = D U and K = lam I + W^T A,
    Woodbury gives M^-1 y = y - A K^-1 W^T y.  Eliminating x leaves the Schur
    complement S = E M^-1 B on the multipliers, B = D E^T / lam, of size
    p (n - 1); at C = 0 it is the per-player weighted Laplacian E B.  Both
    K and S are factored by LU, and J^T reuses them transposed, since the
    Schur complement of J^T is S^T.  When C has no such factor (rank above
    pm / 2) the LU of the dense J^T is held instead: J's C-order buffer is
    J^T in Fortran order, so LAPACK factors it without a copy, and partial
    pivoting on J^T picks its pivots along the rows of J, a choice that
    their scale, set mostly by D, does not change.

    Where a factor met a zero pivot or a result is not finite, J is
    singular, and solves return numerics.lstsq on the dense J assembled
    from d, the kept map diagonal; a dense LU is released for good first.

    Raises:
        ExponentOverflowError: the exponent at (x, v) is out of range.
    """

    def __init__(self, game: AtomicRoutingGame, x: np.ndarray, v: np.ndarray, lam: float) -> None:
        self._game = game
        self._lam = lam
        self.d = d = _map_diag(game, x, v, lam)
        self._dense = self._schur = None
        factor = game.cost_factor
        if factor is None:
            self._dense = _lu(_assemble_jacobian(game, d, lam).T)
            return
        u, w = factor
        self._woodbury = None
        if u.shape[1] > 0:
            a = d[:, None] * u
            self._woodbury = (a, w, _lu(lam * np.eye(u.shape[1]) + w.T @ a))
        self._m_inv_b = self._m_inv(game.e_blk.T * (d / lam)[:, None])
        self._schur = _lu(game.e_blk @ self._m_inv_b)

    @property
    def holds_dense_lu(self) -> bool:
        """Whether this holds a dense LU of J, worth keeping for chord steps."""
        return self._dense is not None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """d with J d = rhs; the least-squares solution where J is singular."""
        return next(self.directions(rhs))

    def solve_T(self, rhs: np.ndarray) -> np.ndarray:
        """z with J^T z = rhs; the least-squares solution where J is singular."""
        z = self._factored_solve(rhs, trans=1)
        return self._least_squares(rhs, trans=1) if z is None else z

    def directions(self, rhs: np.ndarray) -> Iterator[np.ndarray]:
        """Steps for J d = rhs: the factored solve unless J is singular, then
        the least-squares solution, computed only when asked for."""
        step = self._factored_solve(rhs, trans=0)
        if step is not None:
            yield step
        yield self._least_squares(rhs, trans=0)

    def _factored_solve(self, rhs: np.ndarray, trans: int) -> np.ndarray | None:
        # None where J is singular
        if self._schur is None:  # the dense route; no LU once released
            return None if self._dense is None else _lu_solve(self._dense, rhs, trans=1 - trans)
        pm, e = self._game.pm, self._game.e_blk
        if trans == 0:
            y = self._m_inv(rhs[:pm])
            dv = _lu_solve(self._schur, -(rhs[pm:] + e @ y))
            if dv is None:
                return None
            return _finite(np.concatenate([y + self._m_inv_b @ dv, dv]))
        zv = _lu_solve(self._schur, -(rhs[pm:] + self._m_inv_b.T @ rhs[:pm]), trans=1)
        if zv is None:
            return None
        return _finite(np.concatenate([self._m_inv(rhs[:pm] + e.T @ zv, trans=1), zv]))

    def _least_squares(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        self._dense = None  # free the LU before assembling the dense J
        jac = _assemble_jacobian(self._game, self.d, self._lam)
        return numerics.lstsq(jac.T if trans else jac, rhs)

    def _m_inv(self, y: np.ndarray, trans: int = 0) -> np.ndarray:
        # M^-1 y, or M^-T y = y - W K^-T A^T y with trans=1; y may be a
        # matrix.  A singular K leaves non-finite values, which send the
        # solves to least squares.
        if self._woodbury is None:
            return y
        a, w, (lu, piv, _) = self._woodbury
        left, right = (a, w) if trans == 0 else (w, a)
        return y - left @ scipy.linalg.lapack.dgetrs(lu, piv, right.T @ y, trans=trans)[0]


def _lu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    # LAPACK getrf directly, in place (every caller passes a fresh matrix):
    # scipy's lu_factor warns on an exact zero pivot
    return scipy.linalg.lapack.dgetrf(a, overwrite_a=True)


def _lu_solve(
    factor: tuple[np.ndarray, np.ndarray, int], rhs: np.ndarray, trans: int = 0
) -> np.ndarray | None:
    lu, piv, info = factor
    if info != 0:
        return None
    return _finite(scipy.linalg.lapack.dgetrs(lu, piv, rhs, trans=trans)[0])


def _finite(z: np.ndarray) -> np.ndarray | None:
    return z if np.all(np.isfinite(z)) else None


def cold_start(game: AtomicRoutingGame, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Default start: v = 0 and x the clamped exponential map at (x, v) = 0."""
    v = np.zeros(game.dim_v)
    return np.exp(np.minimum(_exponent(game, np.zeros(game.pm), v, lam), EXP_CLAMP)), v


def solve_nls(
    game: AtomicRoutingGame,
    settings: SmoothEqSettings,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
) -> EquilibriumSolution:
    """Solve the smoothed system by Newton's method with backtracking.

    Starts from the given warm start, else from cold_start(game, lam).  An
    iteration whose linearization holds a dense LU and cut ||F|| by at least
    the factor _CHORD_RATE keeps it, and the next iteration first takes the
    full chord step from it with the new residual; it accepts that step
    only if ||F|| falls by the factor again.  Any other iteration factors J
    afresh (Linearization) and tries its directions in turn, each with an
    Armijo line search on ||F||: the Newton step J d = -F, and, when J is
    singular or that search fails, the minimum-norm least-squares step.
    Trial points whose exponent overflows count as failed steps.
    iterations counts chord steps too.  Returns the incumbent with
    converged=False when every search fails or the iteration budget runs
    out.

    Raises:
        ExponentOverflowError: the starting point itself overflows.
    """
    if warm_start is None:
        warm_start = cold_start(game, settings.lam)
    x = np.maximum(np.array(warm_start[0], dtype=float), _POSITIVE_FLOOR)
    v = np.array(warm_start[1], dtype=float)

    resid = residual_F(game, x, v, settings.lam)
    norm = float(np.linalg.norm(resid))
    iterations = 0

    lin = None  # a dense LU kept while its steps contract
    while norm > settings.residual_tol and iterations < settings.max_iters:
        iterations += 1
        found = None
        if lin is not None:
            found = _trial(game, settings.lam, x, v, lin.solve(-resid), 1.0)
            if found is not None and found[3] > _CHORD_RATE * norm:
                found = None
        if found is None:
            lin = None  # release the stale LU before factoring afresh
            lin = Linearization(game, x, v, settings.lam)
            for step in lin.directions(-resid):
                found = _line_search(game, settings.lam, x, v, norm, step)
                if found is not None:
                    break
        if found is None:
            break
        if found[3] > _CHORD_RATE * norm or not lin.holds_dense_lu:
            lin = None
        x, v, resid, norm = found

    return EquilibriumSolution(
        x=x,
        v=v,
        residual_norm=norm,
        lam=settings.lam,
        iterations=iterations,
        converged=norm <= settings.residual_tol,
    )


def _line_search(
    game: AtomicRoutingGame,
    lam: float,
    x: np.ndarray,
    v: np.ndarray,
    norm: float,
    step: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    # The first point along step with ||F|| <= (1 - _ARMIJO t) ||F(x, v)||,
    # halving t from 1; None when every trial fails or overflows.
    t = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        found = _trial(game, lam, x, v, step, t)
        if found is not None and found[3] <= (1.0 - _ARMIJO * t) * norm:
            return found
        t /= 2.0
    return None


def _trial(
    game: AtomicRoutingGame,
    lam: float,
    x: np.ndarray,
    v: np.ndarray,
    step: np.ndarray,
    t: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    # The point t along step, flows floored positive, with its residual and
    # norm; None when its exponent overflows.
    pm = game.pm
    cand_x = np.maximum(x + t * step[:pm], _POSITIVE_FLOOR)
    cand_v = v + t * step[pm:]
    try:
        cand_resid = residual_F(game, cand_x, cand_v, lam)
    except ExponentOverflowError:
        return None
    return cand_x, cand_v, cand_resid, float(np.linalg.norm(cand_resid))


def homotopy_solve(
    game: AtomicRoutingGame,
    settings: SmoothEqSettings,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
    *,
    lam_start: float = 1.0,
    strict: bool = True,
) -> list[EquilibriumSolution]:
    """Continuation in the entropy weight, warm-starting every re-solve.

    Solves at max(lam_start, settings.lam) (from warm_start, else the cold
    start), then repeatedly halves the weight, clamping the final stage to
    exactly settings.lam, and re-solves from the previous stage's solution.
    Every stage uses settings with its own weight in place of settings.lam.
    Returns every stage's solution, final stage last.  With strict=False a
    stage that stalls is kept unconverged and its best iterate warm starts
    the next stage; the caller then judges the endpoint by other means, such
    as its optimality gap.

    Raises:
        ValueError: lam_start is not finite and positive.
        NegativeCycleError: strict, some stage failed, and some player's
            marginal costs there admit a negative-cost cycle.
        NotConvergedError: strict and some stage failed otherwise; the
            message names its weight.
        ExponentOverflowError: a stage started out of range.
    """
    if not 0.0 < lam_start < np.inf:
        raise ValueError("lam_start must be finite and positive")
    stages: list[EquilibriumSolution] = []
    carry = warm_start
    lam = max(lam_start, settings.lam)
    while True:
        sol = solve_nls(game, replace(settings, lam=lam), warm_start=carry)
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
        if lam <= settings.lam:
            return stages
        carry = (sol.x, sol.v)
        lam = max(0.5 * lam, settings.lam)


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
    return homotopy_solve(game, settings)[-1]
