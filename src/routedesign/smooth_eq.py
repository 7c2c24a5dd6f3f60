"""Entropy-smoothed equilibrium system and its Newton solver.

Adding an entropy term (weight lam) to every player's objective replaces the
piecewise-linear equilibrium conditions with a smooth square system

    F(x, v) = [x - exp(g);  s - E x] = 0,  g = (E^T v - b - C x) / lam - 1,

which has a unique solution for lam > 0 with monotone interaction costs when
every player has a strictly positive feasible flow.  residual_F is F, and
its norm is the solver's convergence test.  The map is exact wherever its
exponent g is at most EXP_LIMIT and overflows past it.

The solver works in log flows y, x = e^y, on the system with the same
solutions

    F~(y, v) = [lam (y - g(e^y, v));  s - E e^y] = 0,

where a step that moves the exponent by one unit moves F~ by about lam, not
the O(1) jump it makes in x - exp(g).  It runs Newton's method with a
backtracking line search on ||F~||, started from the log of a warm start's
flows ((x, v) = 0 by default) and, where a flow is 0, from the map's
exponent capped at EXP_LIMIT; it stops when ||F(e^y, v)|| meets the
tolerance.  Flows e^y are never negative, and the flow on a route that
costs far more than lam above the cheapest underflows to exactly 0.  A
continuation steps lam down to a small target, by longer steps while Newton
contracts fast at each stage.

The log system's Jacobian, the only one the package forms, is the
saddle-point matrix

    J~ = dF~/d(y, v) = [[lam I + C X, -E^T], [-E X, 0]],  X = diag(e^y),

and one Linearization of J~ at the flows serves the Newton step, the
solver's fallback directions and the implicit gradient.  It takes one of
two routes.  The structured route inverts J~ per player through its
block-diagonal part without C, then applies a Woodbury update through C's
factor, which the game's costs hold; it runs on numpy's batched LAPACK.
The dense route holds the LU of J~^T, where C has no factor or one wider
than pm * LOW_RANK_SHARE, and runs on scipy's LAPACK.  The solver's
directions come in a fixed order: the Newton step; where its line search
fails, the proximal step, a Levenberg-Marquardt-style solve with -||F~|| I
in place of J~'s zero multiplier block, by the same route (Yamashita and
Fukushima, Computing Suppl. 15, 2001); and last the minimum-norm
least-squares solution from a rank-revealing QR of the dense J~
(numerics.lstsq, scipy's as well), which is also the only answer where J~
is singular.  scipy is imported on the first dense factorization or
least-squares solve (numerics.scipy_linalg), so a command that needs
neither never loads it.  The structured route is rebuilt at every iterate;
the dense LU is kept for chord steps while they contract ||F~|| by
_CHORD_RATE.  C x is taken through the costs' factor where they hold one
(CostParams.c_times), so the structured route never forms the dense C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from . import numerics
from .errors import ExponentOverflowError, NegativeCycleError, NotConvergedError, NumericalError
from .game import AtomicRoutingGame

# An exponent past EXP_LIMIT is a hard failure; below it the map is exact.
EXP_LIMIT = 200.0

# Armijo line search: a step of length t is accepted when it cuts ||F~|| by
# at least the fraction _ARMIJO * t; t is halved at most _MAX_HALVINGS times.
_ARMIJO = 1e-4
_MAX_HALVINGS = 40

# Chord steps on the dense route: after an iteration that cut ||F~|| by at
# least this factor, the next one first takes the full step from the same
# LU and keeps it only if it cuts ||F~|| by the factor again.  On the games
# of bench/coupled_game.py 0.5 took less time than 0.25, which refactors
# more often, and than 0.75, which takes many more chord steps that each
# gain less.
_CHORD_RATE = 0.5

# A factor of C wider than this share of pm is no cheaper to apply than C.
LOW_RANK_SHARE = 0.5


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
    """Converged (or best-effort) solution of the smoothed system.

    contraction is ||F~|| after the solve's first iteration over ||F~|| at
    its start, 0.0 when no step was taken (the start met the tolerance, or
    the first iteration failed).
    """

    x: np.ndarray
    v: np.ndarray
    residual_norm: float
    lam: float
    iterations: int
    converged: bool
    contraction: float = 0.0


def _exponent(game: AtomicRoutingGame, x: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    return (game.e_blk.T @ v - game.costs.b - game.costs.c_times(x)) / lam - 1.0


def _check_exponent(g: np.ndarray, lam: float) -> None:
    top = float(g.max())
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
    return np.concatenate([x - np.exp(g), game.s - game.e_blk @ x])


def _log_jacobian(game: AtomicRoutingGame, x: np.ndarray, lam: float) -> np.ndarray:
    # the dense J~ at flows x
    pm, k = game.pm, game.pm + game.dim_v
    jac = np.zeros((k, k))
    np.multiply(game.costs.C, x, out=jac[:pm, :pm])
    np.negative(game.e_blk.T, out=jac[:pm, pm:])
    np.multiply(game.e_blk, -x, out=jac[pm:, :pm])
    jac.reshape(-1)[: pm * (k + 1) : k + 1] += lam
    return jac


class Linearization:
    """J~ = dF~/d(y, v) at flows x, prepared once by its structure.

    J~ = [[lam I + C X, -E^T], [-E X, 0]] with X = diag(x).  Its part
    without C, J0 = [[lam I, -E^T], [-E X, 0]], is block diagonal by player:
    eliminating player i's log flows leaves the weighted Laplacian
    L_i = E_i X_i E_i^T / lam on its n - 1 multipliers.  The constructor
    inverts all p of them in one batched np.linalg.inv call: solving with
    them instead costs more, both for the r right-hand sides of Z below
    (on one thread of a Xeon core, 120 us against 106 us for the inverse
    at p = 4, n - 1 = 24, r = 72) and for every later single right-hand
    side (24 us against 3 us for the product with the inverse).  The
    costs' factor C = Q M Q^T of width r, as C = Q W^T with W = Q M^T
    (game.costs.qw, formed once per costs object), gives C X = Q (X W)^T,
    so J~ is a rank-r update of J0.  With Z = J0^-1 [Q; 0], p block solves
    with r right-hand sides, and the r x r capacitance K = I + (X W)^T Z_y,
    Woodbury gives

        J~^-1 rhs = z0 - Z K^-1 (X W)^T z0_y,  z0 = J0^-1 rhs,
        J~^-T rhs = J0^-T (rhs - [X W a; 0]),  a = K^-T Z^T rhs,

    where J0^-T reuses the L_i^-1, which are symmetric.  K is not factored
    in the constructor: a Linearization mostly serves one solve, so each
    solve calls np.linalg.solve with K or K^T on its one column (40 us at
    r = 72, against 123 us for np.linalg.inv of K).  When C has no factor,
    or one wider than pm * LOW_RANK_SHARE, the LU of the dense J~^T is held
    instead, from scipy's LAPACK: J~'s C-order buffer is J~^T in Fortran
    order, so getrf factors it without a copy, and partial pivoting on J~^T
    picks its pivots along the rows of J~, a choice that their scale does
    not change.

    J~ is singular, and the solves return numerics.lstsq on the dense J~,
    where
    - the dense LU meets a zero pivot (the constructor keeps no factor);
    - np.linalg.inv raises LinAlgError on the stacked Laplacians, at a zero
      pivot and at some NaNs, or returns an inverse that is not finite, as
      an overflow or another NaN leaves it (the constructor keeps no
      factor);
    - np.linalg.solve raises LinAlgError on K (each solve decides this for
      itself);
    - a solve's own result is not finite.
    A dense LU is released for good before the dense J~ is assembled for
    least squares.

    directions(rhs) offers a step between the factored solve and least
    squares where J~ is not singular: the proximal step, which solves J~
    with its zero multiplier block set to -mu I, mu = ||rhs||.  Eliminating
    the log flows then leaves L_i + mu I, positive definite even where
    underflowed flows leave L_i singular in floating point.  The structured
    route inverts the stacked L_i + mu I and forms Z and K from them here;
    the dense route takes one more LU, not kept for chord steps.  The step
    is skipped where that matrix is singular or the step is not finite.
    """

    def __init__(self, game: AtomicRoutingGame, x: np.ndarray, lam: float) -> None:
        self._game = game
        self._x = x
        self._lam = lam
        self._dense = self._l_inv = self._woodbury = None
        factor = game.costs.qw
        if factor is None or factor[0].shape[1] > LOW_RANK_SHARE * game.pm:
            lu, piv, info = _lu(_log_jacobian(game, x, lam).T)
            if info == 0:
                self._dense = lu, piv
            return
        e = game.reduced
        p, _, m = e.shape
        self._ex = ex = e * x.reshape(p, 1, m)  # E_i X_i
        self._l_inv = _inverse(ex @ e.transpose(0, 2, 1) / lam)
        if self._l_inv is not None:
            self._woodbury = self._capacitance(self._l_inv)

    @property
    def holds_dense_lu(self) -> bool:
        """Whether this holds a dense LU of J~, worth keeping for chord steps."""
        return self._dense is not None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """d with J~ d = rhs; the least-squares solution where J~ is singular."""
        return next(self.directions(rhs))

    def solve_T(self, rhs: np.ndarray) -> np.ndarray:
        """z with J~^T z = rhs; the least-squares solution where J~ is singular."""
        z = self._factored_solve(rhs, trans=1)
        return self._least_squares(rhs, trans=1) if z is None else z

    def directions(self, rhs: np.ndarray) -> Iterator[np.ndarray]:
        """Steps for J~ d = rhs, each computed only when asked for: the
        factored solve; where it exists, the proximal step (see the class
        docstring); and last the least-squares solution."""
        step = self._factored_solve(rhs, trans=0)
        if step is not None:
            yield step
            step = self._proximal_solve(rhs)
            if step is not None:
                yield step
        yield self._least_squares(rhs, trans=0)

    def _factored_solve(self, rhs: np.ndarray, trans: int) -> np.ndarray | None:
        # None where J~ is singular or the result is not finite
        if self._dense is not None:
            lu, piv = self._dense
            dgetrs = numerics.scipy_linalg().lapack.dgetrs
            return _finite(dgetrs(lu, piv, rhs, trans=1 - trans)[0])
        if self._l_inv is None:  # singular, or a dense LU released
            return None
        return self._structured_solve(rhs, trans, self._l_inv, self._woodbury)

    def _proximal_solve(self, rhs: np.ndarray) -> np.ndarray | None:
        # d with (J~ - mu [[0, 0], [0, I]]) d = rhs, mu = ||rhs||, by the
        # route J~'s own factor took (see the class docstring), for a J~
        # that has one; None where that matrix is singular or the result is
        # not finite.  No factor is kept.
        mu = math.sqrt(rhs @ rhs)
        if self._dense is not None:
            pm, k = self._x.size, rhs.size
            jac = _log_jacobian(self._game, self._x, self._lam)
            jac.reshape(-1)[pm * (k + 1) :: k + 1] -= mu
            lu, piv, info = _lu(jac.T)
            if info != 0:
                return None
            dgetrs = numerics.scipy_linalg().lapack.dgetrs
            return _finite(dgetrs(lu, piv, rhs, trans=1)[0])
        e, ex = self._game.reduced, self._ex
        shifted = ex @ e.transpose(0, 2, 1) / self._lam
        shifted.reshape(len(e), -1)[:, :: e.shape[1] + 1] += mu
        l_inv = _inverse(shifted)
        if l_inv is None:
            return None
        return self._structured_solve(rhs, 0, l_inv, self._capacitance(l_inv))

    def _capacitance(self, l_inv: np.ndarray) -> tuple | None:
        # (Z, W, K) of the Woodbury update through the costs' factor (Q, W)
        # of width r > 0, for J0 with its Laplacians' inverses l_inv; None
        # for width 0
        q, w = self._game.costs.qw
        if q.shape[1] == 0:
            return None
        z = self._j0_solve(q, None, 0, l_inv)
        k = w.T @ (self._x[:, None] * z[: self._x.size])
        k.reshape(-1)[:: q.shape[1] + 1] += 1.0
        return z, w, k

    def _structured_solve(
        self, rhs: np.ndarray, trans: int, l_inv: np.ndarray, woodbury: tuple | None
    ) -> np.ndarray | None:
        # J~^-1 rhs, or J~^-T rhs with trans=1, by Woodbury from J0's
        # Laplacian inverses l_inv; None at a singular capacitance or a
        # result that is not finite
        pm, x = self._x.size, self._x[:, None]
        rhs = rhs[:, None]
        if woodbury is None:
            z = self._j0_solve(rhs[:pm], rhs[pm:], trans, l_inv)
        else:
            big_z, w, k = woodbury
            try:
                if trans == 0:
                    z = self._j0_solve(rhs[:pm], rhs[pm:], 0, l_inv)
                    z -= big_z @ np.linalg.solve(k, w.T @ (x * z[:pm]))
                else:
                    a = np.linalg.solve(k.T, big_z.T @ rhs)
                    z = self._j0_solve(rhs[:pm] - x * (w @ a), rhs[pm:], 1, l_inv)
            except np.linalg.LinAlgError:
                return None  # a singular capacitance: J~ is singular
        return _finite(z[:, 0])

    def _j0_solve(
        self, r1: np.ndarray, r2: np.ndarray | None, trans: int, l_inv: np.ndarray
    ) -> np.ndarray:
        # J0^-1 [r1; r2], or J0^-T [r1; r2] with trans=1, for r1 of shape
        # (pm, k) and r2 of shape (p (n - 1), k) or None for 0, player by
        # player, with l_inv the stacked L_i^-1 (the (L_i + mu I)^-1 give
        # J0 with -mu I in its multiplier block): with left = E X for J0
        # and E for J0^T, b_i = L_i^-1 (r2_i + left_i r1_i / lam) and the
        # solution is
        # [(r1_i - E_i^T b_i) / lam; -b_i] for J0 and
        # [(r1_i - X_i (E_i^T b_i)) / lam; -b_i] for J0^T.  X multiplies
        # E_i^T b_i after it is formed: where a flow below 1e-40 meets
        # multipliers above 1e100, x_l b_tail - x_l b_head loses the
        # difference b_tail - b_head that forming it first keeps exact.
        # Non-finite values propagate.
        e = self._game.reduced
        p, n1, m = e.shape
        r1 = r1.reshape(p, m, -1)
        b = (self._ex if trans == 0 else e) @ r1 / self._lam
        if r2 is not None:
            b += r2.reshape(b.shape)
        b = l_inv @ b
        et_b = e.transpose(0, 2, 1) @ b
        if trans:
            et_b *= self._x.reshape(p, m, 1)
        y = (r1 - et_b) / self._lam
        return np.concatenate([y.reshape(p * m, -1), -b.reshape(p * n1, -1)])

    def _least_squares(self, rhs: np.ndarray, trans: int) -> np.ndarray:
        self._dense = None  # free the LU before assembling the dense J~
        jac = _log_jacobian(self._game, self._x, self._lam)
        return numerics.lstsq(jac.T if trans else jac, rhs)


def _lu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    # LAPACK getrf directly, in place (its one caller passes a fresh matrix):
    # scipy's lu_factor warns on an exact zero pivot
    return numerics.scipy_linalg().lapack.dgetrf(a, overwrite_a=True)


def _inverse(laplacians: np.ndarray) -> np.ndarray | None:
    # the stacked inverses; None where np.linalg.inv raises LinAlgError, at
    # a zero pivot and at some NaNs, or returns an inverse that is not
    # finite, as an overflow or another NaN leaves it
    try:
        l_inv = np.linalg.inv(laplacians)
    except np.linalg.LinAlgError:
        return None
    return l_inv if np.isfinite(l_inv).all() else None


def _finite(z: np.ndarray) -> np.ndarray | None:
    return z if np.isfinite(z).all() else None


class _State(NamedTuple):
    """A point (y, v) of the log system with x = e^y, the map's exponent g
    at (x, v), F~ there and ||F~||."""

    y: np.ndarray
    v: np.ndarray
    x: np.ndarray
    g: np.ndarray
    f: np.ndarray
    norm: float

    def x_norm(self) -> float:
        """||residual_F(x, v)||, whose first block is e^y - e^g."""
        first, conservation = self.x - np.exp(self.g), self.f[self.y.size :]
        return math.sqrt(first @ first + conservation @ conservation)


def _state(game: AtomicRoutingGame, y: np.ndarray, v: np.ndarray, lam: float) -> _State:
    # Raises ExponentOverflowError where y or g passes EXP_LIMIT.
    _check_exponent(y, lam)
    x = np.exp(y)
    g = _exponent(game, x, v, lam)
    _check_exponent(g, lam)
    f = np.concatenate([lam * (y - g), game.s - game.e_blk @ x])
    return _State(y, v, x, g, f, math.sqrt(f @ f))


def solve_nls(
    game: AtomicRoutingGame,
    settings: SmoothEqSettings,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
) -> EquilibriumSolution:
    """Solve the smoothed system by Newton's method in log flows.

    The state is (y, v) with flows x = e^y, so flows are never negative, and
    Newton drives F~(y, v) = [lam (y - g(e^y, v)); s - E e^y] to zero, whose
    Jacobian is J~ = [[lam I + C X, -E^T], [-E X, 0]] with X = diag(e^y).  The
    solve starts from a warm start (x0, v0), (0, 0) when none is given, at
    y = log x0 where x0 > 0 and the map's exponent g(x0, v0), capped at
    EXP_LIMIT, elsewhere.

    Each step solves J~ [dy; dv] = -F~ through Linearization at the
    current flows, which needs no division by a flow that underflowed to 0.
    An iteration whose linearization holds a dense LU and cut ||F~|| by at
    least the factor _CHORD_RATE keeps it, and the next iteration first
    takes the full chord step from it with the new residual; it accepts that
    step only if ||F~|| falls by the factor again.  Any other iteration
    factors J~ afresh and tries its directions in turn, each with an Armijo
    line search on ||F~||: the Newton step; when that search fails, the
    proximal step, with -||F~|| I in J~'s multiplier block; and, when J~ is
    singular or those searches fail, the minimum-norm least-squares
    solution.
    Trial points where y or g passes EXP_LIMIT count as failed steps.

    Convergence is judged on ||residual_F(x, v)|| <= settings.residual_tol,
    which residual_norm reports.  iterations counts chord steps too, and
    contraction is the share of ||F~|| left after the first iteration.
    Returns the incumbent with converged=False when every search fails or
    the iteration budget runs out.

    Raises:
        ValueError: the warm start has the wrong shape or a non-finite entry.
        ExponentOverflowError: the starting point itself overflows.
    """
    lam = settings.lam
    x0, v = warm_start or (np.zeros(game.pm), np.zeros(game.dim_v))
    x0, v = np.array(x0, dtype=float), np.array(v, dtype=float)
    if x0.shape != (game.pm,) or v.shape != (game.dim_v,):
        raise ValueError("bad flow or multiplier length")
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(v))):
        raise ValueError("warm start must be finite")
    y = np.log(x0, out=np.minimum(_exponent(game, x0, v, lam), EXP_LIMIT), where=x0 > 0.0)
    state = _state(game, y, v, lam)
    x_norm = state.x_norm()
    iterations = 0
    contraction = 0.0

    lin = None  # a dense LU kept while its steps contract
    while x_norm > settings.residual_tol and iterations < settings.max_iters:
        iterations += 1
        found = None
        if lin is not None:
            found = _trial(game, lam, state, lin.solve(-state.f), 1.0)
            if found is not None and found.norm > _CHORD_RATE * state.norm:
                found = None
        if found is None:
            lin = None  # release the stale LU before factoring afresh
            lin = Linearization(game, state.x, lam)
            for step in lin.directions(-state.f):
                found = _line_search(game, lam, state, step)
                if found is not None:
                    break
        if found is None:
            break
        if iterations == 1:
            contraction = found.norm / state.norm
        if found.norm > _CHORD_RATE * state.norm or not lin.holds_dense_lu:
            lin = None
        state = found
        x_norm = state.x_norm()

    return EquilibriumSolution(
        x=state.x,
        v=state.v,
        residual_norm=x_norm,
        lam=lam,
        iterations=iterations,
        converged=x_norm <= settings.residual_tol,
        contraction=contraction,
    )


def _line_search(
    game: AtomicRoutingGame, lam: float, state: _State, step: np.ndarray
) -> _State | None:
    # The first point along step with ||F~|| <= (1 - _ARMIJO t) ||F~(state)||,
    # halving t from 1; None when every trial fails or overflows.
    t = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        found = _trial(game, lam, state, step, t)
        if found is not None and found.norm <= (1.0 - _ARMIJO * t) * state.norm:
            return found
        t /= 2.0
    return None


def _trial(
    game: AtomicRoutingGame, lam: float, state: _State, step: np.ndarray, t: float
) -> _State | None:
    # The state t along step; None when it overflows.
    pm = state.y.size
    try:
        return _state(game, state.y + t * step[:pm], state.v + t * step[pm:], lam)
    except ExponentOverflowError:
        return None


def homotopy_solve(
    game: AtomicRoutingGame,
    settings: SmoothEqSettings,
    start: EquilibriumSolution | None = None,
) -> list[EquilibriumSolution]:
    """Smoothed equilibrium at settings.lam by continuation in the entropy weight.

    The chain solves at max(start.lam, settings.lam) from (start.x, start.v),
    or without a start at max(1, settings.lam) from the cold start, then
    steps the weight down to exactly settings.lam, re-solving each stage
    from the previous stage's solution; a start at or below the target makes
    it one direct solve.  Each step multiplies the weight by a ratio r that
    starts at 1/2 and follows Newton's contraction (Deuflhard, Newton Methods
    for Nonlinear Problems, 2004, sec. 5.1): after a stage solved from the
    previous stage or from the start, r becomes r^2 when its contraction is
    at most _CHORD_RATE^2, and min(1/2, sqrt(r)) when it is above
    _CHORD_RATE, so no step is shorter than a halving.  Every stage uses
    settings with its own weight and must converge; a stage that fails
    (stalls, or raises a NumericalError) after a step longer than a halving
    is re-solved from the stage before it at half that stage's weight, with
    r = 1/2.  When a chain from a start fails with a NumericalError, the
    cold chain runs once in its place.  Returns every stage's solution,
    final stage last.

    Raises:
        ValueError: start has a non-finite entry (solve_nls).
        NegativeCycleError: some stage of the last chain stalled, and some
            player's marginal costs there admit a negative-cost cycle.
        NotConvergedError: some stage of the last chain stalled otherwise;
            the message names its weight.
        ExponentOverflowError: a stage of the last chain started out of range.
    """
    stages: list[EquilibriumSolution] = []
    carry = None if start is None else (start.x, start.v)
    lam = max(1.0 if start is None else start.lam, settings.lam)
    ratio = 0.5
    try:
        while True:
            try:
                sol = _converged_stage(game, replace(settings, lam=lam), carry)
            except NumericalError:
                if not stages or lam >= 0.5 * stages[-1].lam:
                    raise
                ratio, lam = 0.5, max(0.5 * stages[-1].lam, settings.lam)
                continue
            stages.append(sol)
            if lam <= settings.lam:
                return stages
            if carry is not None:
                if sol.contraction <= _CHORD_RATE**2:
                    ratio *= ratio
                elif sol.contraction > _CHORD_RATE:
                    ratio = min(0.5, math.sqrt(ratio))
            carry = (sol.x, sol.v)
            lam = max(ratio * lam, settings.lam)
    except NumericalError:
        if start is None:
            raise
        return homotopy_solve(game, settings)


def _converged_stage(
    game: AtomicRoutingGame,
    settings: SmoothEqSettings,
    warm_start: tuple[np.ndarray, np.ndarray] | None,
) -> EquilibriumSolution:
    # solve_nls, raising NotConvergedError (NegativeCycleError where some
    # player's marginal costs admit a negative-cost cycle) when it stalls
    sol = solve_nls(game, settings, warm_start=warm_start)
    if sol.converged:
        return sol
    lam = settings.lam
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
