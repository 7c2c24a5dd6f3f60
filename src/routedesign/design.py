"""Projected-gradient design of link-cost parameters.

The designer tunes the offsets b inside a box and the interaction matrix C
inside a convex set (monotone, Frobenius-bounded, symmetric diagonal blocks)
so that the smoothed equilibrium tracks a desired joint flow.  Gradients come
from implicit differentiation; the C projection, _step_factored, is one pass
of three closed-form sub-projections, taken in the coordinates of an
orthonormal basis carried across the design's iterations.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NegativeCycleError, NotConvergedError, NumericalError
from .game import AtomicRoutingGame, CostParams
from .sensitivity import DesignObjective, implicit_gradients
from .smooth_eq import LOW_RANK_SHARE, EquilibriumSolution, SmoothEqSettings, homotopy_solve

TRACE_COLUMNS = ("iter", "psi_bar", "psi_lambda", "db_norm", "dC_norm", "residual", "gap")

# Reference equilibria are certified at this entropy weight and gap level.
# Certification only needs gap-level accuracy, hence the looser residual.
REFERENCE_LAMBDA = 1e-3
REFERENCE_GAP_TOL = 1e-2
REFERENCE_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class DesignConfig:
    """Outer-loop parameters for the projected-gradient design."""

    alpha: float = 0.005
    lam: float = 0.01
    delta: float = 0.1
    epsilon: float = 0.01
    rho: float = 0.5
    max_outer_iters: int = 100

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN, so these also reject it
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 0.0 < self.lam < np.inf:
            raise ValueError("lam must be finite and positive")
        if not all(0.0 <= v < np.inf for v in (self.delta, self.epsilon, self.rho)):
            raise ValueError("delta, epsilon, and rho must be finite and nonnegative")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")


@dataclass(frozen=True)
class DesignRecord:
    """One outer iteration: objective values at the pre-update parameters."""

    iteration: int
    psi_bar: float
    psi_lambda: float
    db_norm: float
    dC_norm: float
    residual: float
    gap: float


@dataclass
class DesignTrace:
    """Per-iteration design log, writable as a deterministic CSV."""

    records: list[DesignRecord] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRACE_COLUMNS)
            for rec in self.records:
                writer.writerow(
                    [
                        rec.iteration,
                        repr(float(rec.psi_bar)),
                        repr(float(rec.psi_lambda)),
                        repr(float(rec.db_norm)),
                        repr(float(rec.dC_norm)),
                        repr(float(rec.residual)),
                        repr(float(rec.gap)),
                    ]
                )


@dataclass(frozen=True)
class DesignVerification:
    """Certified post-design report: objective, gap, and path agreement."""

    psi: float
    gap: float
    path_match: bool


def project_B(b: np.ndarray, delta: float) -> np.ndarray:
    """Project onto the box [0, delta]^pm (componentwise clamp)."""
    if not 0.0 <= delta < np.inf:
        raise ValueError("delta must be finite and nonnegative")
    return np.clip(np.asarray(b, dtype=float), 0.0, delta)


def _project_monotone(c: np.ndarray) -> np.ndarray:
    # Constraint touches only the symmetric part; the skew part rides along.
    sym = 0.5 * (c + c.T)
    skew = c - sym
    eigvals, q = np.linalg.eigh(sym)
    clipped = (q * np.maximum(eigvals, 0.0)) @ q.T
    return 0.5 * (clipped + clipped.T) + skew


def _project_ball(c: np.ndarray, rho: float) -> np.ndarray:
    norm = np.linalg.norm(c)
    if norm <= rho or norm == 0.0:
        return c.copy()
    return c * (rho / norm)


def _block_columns(v: np.ndarray, p: int) -> np.ndarray:
    # pm x p: column i holds player i's block of v, zeros elsewhere
    return (v.reshape(p, -1)[:, :, None] * np.eye(p)[:, None, :]).reshape(v.size, p)


def _step_factored(
    q: np.ndarray,
    mid: np.ndarray,
    grad_b: np.ndarray,
    flow: np.ndarray,
    alpha: float,
    rho: float,
    block_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The projection of Q M Q^T - alpha grad_b flow^T onto D as Q' M' Q'^T.

    D holds the C with C + C^T PSD, symmetric block_size x block_size
    diagonal blocks and Frobenius norm at most rho.  One pass of the three
    exact sub-projections suffices: the block constraint acts only on the
    skew part of C and the monotone constraint only on the orthogonal
    symmetric part, and scaling a cone's projection into a ball centred at
    0 projects onto cone and ball together.

    Q (pm x k) has orthonormal columns and Q M Q^T is admissible, so its
    diagonal blocks are symmetric: symmetrizing the stepped blocks adds only
    alpha/2 (g_i x_i^T - x_i g_i^T) per player i, with g_i and x_i the
    player's blocks of grad_b and flow embedded in R^pm.  Q' appends to Q an
    orthonormal basis of what span{g_i, x_i} adds to its range, dropping
    directions at rounding level, and the monotone and ball projections act
    on M' alone: Q' is orthonormal, so the eigenvalues of sym(Q' M' Q'^T)
    are those of sym(M') and zeros, and the Frobenius norms agree.

    The width grows by at most 2p.  Past pm * LOW_RANK_SHARE, Q' and M' are
    rebuilt from the SVD of [M', M'^T], keeping the singular vectors above
    pm * eps * sigma_1, which span the ranges of C and C^T.
    """
    pm = q.shape[0]
    p = pm // block_size
    spans = np.hstack([_block_columns(grad_b, p), _block_columns(flow, p)])
    norms = np.linalg.norm(spans, axis=0)
    fresh = spans[:, norms > 0.0] / norms[norms > 0.0]
    for _ in range(2):  # Gram-Schmidt twice keeps Q' orthonormal to rounding
        fresh -= q @ (q.T @ fresh)
    basis, sing, _ = np.linalg.svd(fresh, full_matrices=False)
    basis = basis[:, sing > pm * np.finfo(float).eps]
    # a direction with a small singular value amplifies what is left of Q in it
    q = np.hstack([q, np.linalg.qr(basis - q @ (q.T @ basis))[0]])
    k = mid.shape[0]
    mid = np.pad(mid, (0, q.shape[1] - k))
    g_cols, x_cols = q.T @ spans[:, :p], q.T @ spans[:, p:]
    mid -= alpha * np.outer(g_cols.sum(axis=1), x_cols.sum(axis=1))
    mid += 0.5 * alpha * (g_cols @ x_cols.T - x_cols @ g_cols.T)
    mid = _project_ball(_project_monotone(mid), rho)
    if q.shape[1] > LOW_RANK_SHARE * pm:
        u, sing, _ = np.linalg.svd(np.hstack([mid, mid.T]))
        u = u[:, sing > pm * np.finfo(float).eps * sing[0]]
        q, mid = q @ u, u.T @ mid @ u
    return q, mid


def _certified_reference(
    game: AtomicRoutingGame,
    start: EquilibriumSolution,
) -> tuple[EquilibriumSolution, float]:
    """Reference equilibrium at the certification weight plus its gap.

    Runs continuation from max(start.lam, REFERENCE_LAMBDA) down to
    REFERENCE_LAMBDA, warm-started from start, a solution of the same game,
    in steps of at least a halving that lengthen while Newton contracts fast;
    every stage must converge, or the cold chain from 1 is tried once
    (homotopy_solve).  The endpoint's optimality gap must not
    exceed REFERENCE_GAP_TOL.  When the marginal costs there admit a
    negative-cost cycle the first-order gap is unbounded (the flow polytope
    has circulation rays), and it is reported as inf.

    Raises:
        NotConvergedError: the gap exceeds REFERENCE_GAP_TOL.
        NumericalError: the cold retry failed too; see homotopy_solve.
    """
    settings = SmoothEqSettings(lam=REFERENCE_LAMBDA, residual_tol=REFERENCE_RESIDUAL_TOL)
    sol = homotopy_solve(game, settings, start)[-1]
    try:
        gap = game.nash_gap(sol.x)
    except NegativeCycleError:
        return sol, float("inf")
    if gap > REFERENCE_GAP_TOL:
        raise NotConvergedError(
            f"reference equilibrium gap {gap:.3e} exceeds {REFERENCE_GAP_TOL:g}"
        )
    return sol, gap


def _iteration_key(
    config: DesignConfig,
    objective: DesignObjective,
    costs: CostParams,
    start: EquilibriumSolution | None,
) -> bytes:
    """Digest of what a design iteration's solve, certification and gradient
    read, apart from the game's structure and the objective's callables:
    C = Q M Q^T enters through its factor, from which the costs form it.

    hashlib is imported here, the one place that uses it, because it loads
    OpenSSL and only a sweep's memo reaches this."""
    import hashlib

    h = hashlib.blake2b()
    h.update(np.float64(config.lam).tobytes())
    b, (q, mid) = costs.b, costs.factor
    h.update(np.int64(mid.shape[0]).tobytes())
    for arr in (objective.target, b, q, mid, *(() if start is None else (start.x, start.v))):
        h.update(np.asarray(arr, dtype=float).tobytes())
    if start is None:
        h.update(b"cold")
    return h.digest()


def design_loop(
    game: AtomicRoutingGame,
    objective: DesignObjective,
    config: DesignConfig,
    *,
    memo: dict | None = None,
) -> tuple[AtomicRoutingGame, DesignVerification, DesignTrace]:
    """Approximate projected gradient descent on the cost parameters.

    Starts from b = delta * 1 and C = 0 and repeats: solve the smoothed game
    at config.lam (by the cold chain from 1, then directly from the previous
    inner solution), take implicit gradients, and project the stepped
    parameters back onto their sets.  C is carried as Q M Q^T with Q
    orthonormal (_step_factored), and each iteration's game is built from
    (b, (Q, M)), so no pm x pm decomposition runs; its costs form the dense
    C once, which the trace's dC_norm reads.
    Stops when the combined parameter change drops below config.epsilon or
    the iteration cap is reached.
    Every iteration logs the objective both at the inner solution and at a
    certified small-entropy reference equilibrium, reached by continuation
    down from that inner solution, alongside that reference's optimality
    gap.  An inner solve or certification from a start that fails is
    retried by the cold chain from 1 (homotopy_solve); an iteration fails
    when its cold chain fails.

    One more iteration, not logged, verifies the designed game: its reference
    gives the verdict's objective and gap, and path_match holds when every
    player's cheapest path under the marginal costs there uses exactly the
    target's links (False under a negative-cost cycle, whose gap is inf).
    Returns the designed game, with rho = config.rho and its costs holding
    C's factor (Q, M), the verdict and the trace.

    memo, when given, maps a digest of an iteration's inputs (config.lam, the
    objective's target, b, C's factor and the inner solve's start) to that
    iteration's inner solution, certified reference, gap and gradient in b.  An
    iteration found there skips its solve, certification and gradient and
    reuses the stored objects, which nothing mutates; one not found stores
    them.
    Designs that differ only in rho, or in anything else that only the
    projections and the step read, share the iterations before their paths
    part, and a deterministic iteration returns the same bits either way.
    A memo may be shared only among designs of the same game and the same
    objective function: the key holds neither the graph and players nor the
    objective's callables.  Failing iterations are not stored, so each
    design that reaches one raises.

    Raises:
        ValueError: the objective's target does not have length p*m.
        NumericalError: an inner solve or certification failed (a stalled
            stage, a gap above REFERENCE_GAP_TOL); re-raised as the same
            type, with the outer iteration named.
    """
    pm = game.pm
    target = np.asarray(objective.target, dtype=float)
    if target.shape != (pm,):
        raise ValueError("objective target must have length p*m")
    # C = Q M Q^T with Q orthonormal, stepped and projected by _step_factored
    empty = (np.zeros((pm, 0)), np.zeros((0, 0)))
    current = game.with_costs(np.full(pm, config.delta), rho=config.rho, factor=empty)
    settings = SmoothEqSettings(lam=config.lam)
    trace = DesignTrace()
    sol: EquilibriumSolution | None = None  # the next inner solve's start
    final = False

    for outer in itertools.count(1):
        key = None if memo is None else _iteration_key(config, objective, current.costs, sol)
        if key is not None and key in memo:
            sol, reference, gap, grad_b = memo[key]
        else:
            try:
                sol = homotopy_solve(current, settings, sol)[-1]
                reference, gap = _certified_reference(current, sol)
            except NumericalError as exc:
                raise type(exc)(f"design iteration {outer}: {exc}") from exc
            grad_b = implicit_gradients(current, sol, objective)
            if key is not None:
                memo[key] = (sol, reference, gap, grad_b)
        if final:
            break

        b, (q, mid) = current.costs.b, current.costs.factor
        stepped = game.with_costs(
            project_B(b - config.alpha * grad_b, config.delta),
            rho=config.rho,
            factor=_step_factored(q, mid, grad_b, sol.x, config.alpha, config.rho, game.m),
        )
        db_norm = float(np.linalg.norm(stepped.costs.b - b))
        dc_norm = float(np.linalg.norm(stepped.costs.C - current.costs.C))
        trace.records.append(
            DesignRecord(
                iteration=outer,
                psi_bar=objective.evaluate(reference.x),
                psi_lambda=objective.evaluate(sol.x),
                db_norm=db_norm,
                dC_norm=dc_norm,
                residual=sol.residual_norm,
                gap=gap,
            )
        )
        current = stepped
        final = max(db_norm, dc_norm) < config.epsilon or outer == config.max_outer_iters

    path_match = _paths_match(current, reference.x, target)
    return current, DesignVerification(objective.evaluate(reference.x), gap, path_match), trace


def _paths_match(game: AtomicRoutingGame, x: np.ndarray, target: np.ndarray) -> bool:
    """Whether every player's cheapest path under its marginal costs at x
    uses exactly the links the target flow puts above one half."""
    for i in range(game.p):
        try:
            _, best = game.best_response_path(x, i)
        except NegativeCycleError:
            return False
        if not np.array_equal(best > 0.5, target[game.player_slice(i)] > 0.5):
            return False
    return True
