"""Projected-gradient design of link-cost parameters.

The designer tunes the offsets b inside a box and the interaction matrix C
inside a convex set (monotone, Frobenius-bounded, symmetric diagonal blocks)
so that the smoothed equilibrium tracks a desired joint flow.  Gradients come
from implicit differentiation; the C projection runs Dykstra's alternating
scheme over three closed-form sub-projections.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numerics
from .errors import NegativeCycleError, NotConvergedError
from .game import AtomicRoutingGame
from .sensitivity import DesignObjective, implicit_gradients
from .smooth_eq import (
    EquilibriumSolution,
    HomotopySchedule,
    SmoothEqSettings,
    homotopy_solve,
    solve_equilibrium,
)

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
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        if self.delta < 0.0 or self.epsilon < 0.0 or self.rho < 0.0:
            raise ValueError("delta, epsilon, and rho must be nonnegative")
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
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    return np.clip(np.asarray(b, dtype=float), 0.0, delta)


def _project_diag_blocks(c: np.ndarray, block_size: int) -> np.ndarray:
    out = c.copy()
    for i in range(c.shape[0] // block_size):
        sl = slice(i * block_size, (i + 1) * block_size)
        out[sl, sl] = 0.5 * (c[sl, sl] + c[sl, sl].T)
    return out


def _project_monotone(c: np.ndarray) -> np.ndarray:
    # Constraint touches only the symmetric part; the skew part rides along.
    sym = 0.5 * (c + c.T)
    skew = c - sym
    eigvals, q = numerics.eig_sym(sym)
    clipped = (q * np.maximum(eigvals, 0.0)) @ q.T
    return 0.5 * (clipped + clipped.T) + skew


def _project_ball(c: np.ndarray, rho: float) -> np.ndarray:
    norm = np.linalg.norm(c)
    if norm <= rho or norm == 0.0:
        return c.copy()
    return c * (rho / norm)


def project_D(
    C: np.ndarray,
    rho: float,
    block_size: int,
    tol: float = 1e-10,
    max_sweeps: int = 100,
) -> np.ndarray:
    """Project onto the admissible interaction set in Frobenius norm.

    Dykstra's algorithm alternates three exact projections: symmetrize the
    per-player diagonal blocks, clip the symmetric part to the positive
    semidefinite cone (keeping the skew part), and scale into the Frobenius
    ball of radius rho.  Sweeps stop when successive iterates differ by at
    most tol; hitting the sweep cap leaves the best iterate and warns.
    """
    c = np.asarray(C, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("C must be square")
    if block_size < 1 or c.shape[0] % block_size != 0:
        raise ValueError("matrix size must be a multiple of block_size")
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")

    y = c.copy()
    corr_blocks = np.zeros_like(y)
    corr_psd = np.zeros_like(y)
    corr_ball = np.zeros_like(y)
    prev = y.copy()
    converged = False
    for _ in range(max_sweeps):
        z = _project_diag_blocks(y + corr_blocks, block_size)
        corr_blocks = y + corr_blocks - z
        y = z
        z = _project_monotone(y + corr_psd)
        corr_psd = y + corr_psd - z
        y = z
        z = _project_ball(y + corr_ball, rho)
        corr_ball = y + corr_ball - z
        y = z
        if np.linalg.norm(y - prev) <= tol:
            converged = True
            break
        prev = y.copy()
    if not converged:
        warnings.warn("projection sweeps hit the cap before converging", RuntimeWarning)
    return y


def _certified_reference(
    game: AtomicRoutingGame,
    start: EquilibriumSolution | None,
) -> tuple[EquilibriumSolution, float]:
    """Reference equilibrium at the certification weight plus its gap.

    Runs continuation from max(start.lam, REFERENCE_LAMBDA) down to
    REFERENCE_LAMBDA, warm-started from start, a solution of the same game;
    without a start, from the cold start at weight 1.  Stages may stall: the
    endpoint is accepted only when its optimality gap certifies it, not by
    per-stage convergence.

    When the marginal costs admit a negative-cost cycle the first-order gap
    is unbounded (the flow polytope has circulation rays); the gap is then
    reported as inf and the equilibrium is accepted on its residual alone.

    Raises:
        NotConvergedError: neither certificate held.
        InfeasibleFlowError: the reference iterate is not even feasible.
    """
    top = 1.0 if start is None else max(start.lam, REFERENCE_LAMBDA)
    warm = None if start is None else (start.x, start.v)
    schedule = HomotopySchedule(lambda_start=top, lambda_min=REFERENCE_LAMBDA)
    settings = SmoothEqSettings(lam=REFERENCE_LAMBDA, residual_tol=REFERENCE_RESIDUAL_TOL)
    sol = homotopy_solve(game, schedule, settings, warm, strict=False)[-1]
    try:
        gap = game.nash_gap(sol.x, feas_tol=1e-5)
    except NegativeCycleError:
        gap = float("inf")
        if sol.converged:
            return sol, gap
        raise NotConvergedError(
            "reference equilibrium reached neither its residual tolerance nor "
            "a finite optimality gap"
        ) from None
    if gap > REFERENCE_GAP_TOL:
        raise NotConvergedError(
            f"reference equilibrium gap {gap:.3e} exceeds {REFERENCE_GAP_TOL:g}"
        )
    return sol, gap


def design_loop(
    game: AtomicRoutingGame,
    objective: DesignObjective,
    config: DesignConfig,
) -> tuple[np.ndarray, np.ndarray, DesignTrace]:
    """Approximate projected gradient descent on the cost parameters.

    Starts from b = delta * 1 and C = 0 and repeats: solve the smoothed game
    at config.lam (continuation on the first pass, warm starts afterwards),
    take implicit gradients, and project the stepped parameters back onto
    their sets.  Stops when the combined parameter change drops below
    config.epsilon or the iteration cap is reached.  Every iteration logs the
    objective both at the inner solution and at a certified small-entropy
    reference equilibrium, reached by continuation down from that inner
    solution, alongside that reference's optimality gap.

    Raises:
        NotConvergedError: an inner solve failed; the message names the
            outer iteration.
    """
    pm = game.pm
    b = np.full(pm, config.delta)
    c_mat = np.zeros((pm, pm))
    settings = SmoothEqSettings(lam=config.lam)
    trace = DesignTrace()
    inner_warm: tuple[np.ndarray, np.ndarray] | None = None

    for outer in range(1, config.max_outer_iters + 1):
        current = game.with_costs(b, c_mat, rho=config.rho)
        try:
            sol = solve_equilibrium(current, settings, inner_warm)
            reference, gap = _certified_reference(current, sol)
        except NotConvergedError as exc:
            raise NotConvergedError(f"design iteration {outer}: {exc}") from exc
        inner_warm = (sol.x, sol.v)

        grads = implicit_gradients(current, sol, objective)
        b_next = project_B(b - config.alpha * grads.grad_b, config.delta)
        c_next = project_D(c_mat - config.alpha * grads.grad_C, config.rho, game.m)
        db_norm = float(np.linalg.norm(b_next - b))
        dc_norm = float(np.linalg.norm(c_next - c_mat))
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
        b, c_mat = b_next, c_next
        if max(db_norm, dc_norm) < config.epsilon:
            break

    return b, c_mat, trace


def verify_design(game: AtomicRoutingGame, objective: DesignObjective) -> DesignVerification:
    """Certify a designed game against its target flow.

    Solves a small-entropy reference equilibrium, reports the tracking
    objective and optimality gap there, and checks that every player's
    cheapest path under its marginal costs uses exactly the links of the
    target flow.  Negative-cost cycles under the designed costs mean no
    cheapest path exists at all; that is reported as path_match False with
    an infinite gap rather than an error.
    """
    result, gap = _certified_reference(game, None)
    psi = objective.evaluate(result.x)
    target = np.asarray(objective.target, dtype=float)
    if target.shape != (game.pm,):
        raise ValueError("objective target must have length p*m")
    path_match = True
    for i in range(game.p):
        try:
            _, best = game.best_response_path(result.x, i)
        except NegativeCycleError:
            path_match = False
            break
        want = target[game.player_slice(i)] > 0.5
        if not np.array_equal(best > 0.5, want):
            path_match = False
            break
    return DesignVerification(psi=psi, gap=gap, path_match=path_match)
