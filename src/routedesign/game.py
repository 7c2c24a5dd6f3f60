"""Atomic routing games: players, quadratic link costs, and equilibrium tests.

Each of p players ships one unit of flow between an origin-destination pair on
a shared directed graph, paying link costs that are affine in the joint flow.
The stacked flow x lives in R^(p*m) with player i occupying the i-th block of
m entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import BrokenPathError, InfeasibleFlowError, UnreachableError
from .graph import DirectedGraph, od_vectors, reduced_incidence, shortest_path_cost, stranded_links


@dataclass(frozen=True)
class Player:
    """One unit-demand commodity, identified by its origin and destination."""

    origin: int
    destination: int


@dataclass(frozen=True)
class CostParams:
    """Affine link-cost parameters: offset vector b and interaction matrix C.

    Player i faces link costs b_i + C_ii x_i + sum_j C_ij x_j, so b stacks the
    per-player offsets (length p*m) and C couples the player blocks
    (p*m by p*m).
    """

    b: np.ndarray
    C: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.b, dtype=float)
        c = np.array(self.C, dtype=float)
        if b.ndim != 1 or c.ndim != 2 or c.shape != (b.size, b.size):
            raise ValueError("cost shapes must be b: (pm,), C: (pm, pm)")
        b.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "C", c)


def _require_positive_flow(
    graph: DirectedGraph, players: list[Player] | tuple[Player, ...], base: int = 0
) -> None:
    """Raise UnreachableError unless every player has a strictly positive feasible flow.

    The message names nodes and links with base added to their indices.
    """
    for i, player in enumerate(players):
        try:
            stranded = stranded_links(graph, player.origin, player.destination)
        except UnreachableError:
            raise UnreachableError(
                f"player {i}: no path from node {player.origin + base} "
                f"to node {player.destination + base}"
            ) from None
        if stranded:
            links = [(tail + base, head + base) for tail, head in stranded]
            raise UnreachableError(f"player {i}: no feasible flow can use links {links}") from None


# Above this share of pm, the rank of C makes a factor of it no cheaper to
# apply than C, and the smoothed system's Jacobian is factored densely.
LOW_RANK_SHARE = 0.5


class AtomicRoutingGame:
    """A p-player atomic routing game on a shared directed graph.

    Precomputes the per-player reduced incidence matrices, their block
    diagonal, and the stacked demand vector, which every residual and solver
    in the package reuses.

    Raises:
        UnreachableError: some player has no strictly positive feasible flow.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        players: list[Player] | tuple[Player, ...],
        costs: CostParams,
        rho: float = 0.5,
    ) -> None:
        if not players:
            raise ValueError("a game needs at least one player")
        for player in players:
            if not (0 <= player.origin < graph.n and 0 <= player.destination < graph.n):
                raise ValueError("player origin or destination out of range")
            if player.origin == player.destination:
                raise ValueError("origin equals destination")
        _require_positive_flow(graph, players)
        if rho < 0.0:
            raise ValueError("rho must be nonnegative")
        pm = len(players) * graph.m
        if costs.b.shape != (pm,):
            raise ValueError(f"b must have length {pm}")
        self.graph = graph
        self.players = tuple(players)
        self.costs = costs
        self.rho = float(rho)

        n_red = graph.n - 1
        self.reduced = [reduced_incidence(graph, p.destination) for p in self.players]
        s_parts = [od_vectors(graph, p.origin, p.destination)[1] for p in self.players]
        self.s = np.concatenate(s_parts)
        e_blk = np.zeros((len(players) * n_red, pm))
        for i, e_i in enumerate(self.reduced):
            e_blk[i * n_red : (i + 1) * n_red, i * graph.m : (i + 1) * graph.m] = e_i
        self.e_blk = e_blk
        self.s.setflags(write=False)
        self.e_blk.setflags(write=False)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def p(self) -> int:
        return len(self.players)

    @property
    def pm(self) -> int:
        return self.p * self.m

    @property
    def dim_v(self) -> int:
        """Length of the stacked multiplier vector: p * (n - 1)."""
        return self.p * (self.n - 1)

    def player_slice(self, i: int) -> slice:
        if not 0 <= i < self.p:
            raise ValueError("player index out of range")
        return slice(i * self.m, (i + 1) * self.m)

    def player_flow(self, x: np.ndarray, i: int) -> np.ndarray:
        return np.asarray(x, dtype=float)[self.player_slice(i)]

    def with_costs(self, b: np.ndarray, c: np.ndarray, rho: float | None = None) -> "AtomicRoutingGame":
        """Same structure, new cost parameters."""
        return AtomicRoutingGame(
            self.graph,
            self.players,
            CostParams(b, c),
            self.rho if rho is None else rho,
        )

    @cached_property
    def cost_factor(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Low-rank factor C = U W^T, computed on first use; None above pm / 2.

        Pivoted QR C P = Q R keeps the leading r rows of R with
        |R_kk| > pm * eps * |R_11|, which drops only what sits at C's own
        rounding level: U = Q[:, :r] and W^T = R[:r] P^T.  C = 0 gives r = 0.
        A factor of rank above pm * LOW_RANK_SHARE is not kept: it is no
        cheaper to apply than C itself.
        """
        q, r, perm = scipy.linalg.qr(self.costs.C, pivoting=True, mode="economic")
        diag = np.abs(np.diag(r))
        rank = int(np.count_nonzero(diag > self.pm * np.finfo(float).eps * diag[0]))
        if rank > LOW_RANK_SHARE * self.pm:
            return None
        w = np.empty((self.pm, rank))
        w[perm] = r[:rank].T
        return q[:, :rank].copy(), w

    # ------------------------------------------------------------------
    # costs and objectives
    # ------------------------------------------------------------------

    def marginal_cost(self, x: np.ndarray, i: int) -> np.ndarray:
        """Gradient of player i's objective in its own flow: b_i + (C x)_i."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.pm,):
            raise ValueError("flow length must be p*m")
        sl = self.player_slice(i)
        return self.costs.b[sl] + (self.costs.C @ x)[sl]

    def conservation_violation(self, x: np.ndarray) -> float:
        """Max-norm violation of the stacked unit-demand constraints."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.pm,):
            raise ValueError("flow length must be p*m")
        return float(np.max(np.abs(self.s - self.e_blk @ x)))

    # ------------------------------------------------------------------
    # equilibrium tests
    # ------------------------------------------------------------------

    def best_response_path(self, x: np.ndarray, i: int) -> tuple[float, np.ndarray]:
        """Cheapest single path for player i under its marginal costs at x."""
        player = self.players[i]
        weights = self.marginal_cost(x, i)
        return shortest_path_cost(self.graph, weights, player.origin, player.destination)

    def nash_gap(self, x: np.ndarray, feas_tol: float = 1e-6) -> float:
        """Sum of per-player regrets against their best single-path responses.

        Nonnegative for any feasible x and zero exactly at an equilibrium.

        Raises:
            InfeasibleFlowError: conservation violated beyond feas_tol.
            NegativeCycleError: some player's marginal costs admit unbounded
                descent, so the gap is unbounded.
        """
        x = np.asarray(x, dtype=float)
        violation = self.conservation_violation(x)
        if violation > feas_tol:
            raise InfeasibleFlowError(f"conservation violated by {violation:.3e}")
        gap = 0.0
        for i in range(self.p):
            weights = self.marginal_cost(x, i)
            cost, _ = shortest_path_cost(
                self.graph, weights, self.players[i].origin, self.players[i].destination
            )
            # each regret is nonnegative in exact arithmetic; clamp roundoff
            gap += max(0.0, float(weights @ self.player_flow(x, i)) - cost)
        return gap


def membership_D(C: np.ndarray, block_size: int, rho: float, tol: float = 1e-8) -> bool:
    """Test membership in the admissible interaction set.

    The set requires C + C^T positive semidefinite, Frobenius norm at most
    rho, and symmetric per-player diagonal blocks, each checked within tol.
    """
    c = np.asarray(C, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("C must be square")
    if block_size < 1 or c.shape[0] % block_size != 0:
        raise ValueError("matrix size must be a multiple of block_size")
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    if np.linalg.norm(c) > rho + tol:
        return False
    p = c.shape[0] // block_size
    for i in range(p):
        sl = slice(i * block_size, (i + 1) * block_size)
        if np.linalg.norm(c[sl, sl] - c[sl, sl].T) > tol:
            return False
    eigvals, _ = np.linalg.eigh(c + c.T)
    return bool(eigvals[0] >= -tol)


# ----------------------------------------------------------------------
# JSON wire format (1-based node indices)
# ----------------------------------------------------------------------


def game_to_dict(game: AtomicRoutingGame) -> dict:
    """Serialize a game to the JSON wire schema."""
    return {
        "graph": {
            "n": game.n,
            "links": [[t + 1, h + 1] for t, h in game.graph.links],
        },
        "players": [
            {"origin": p.origin + 1, "destination": p.destination + 1}
            for p in game.players
        ],
        "b": [float(v) for v in game.costs.b],
        "C": [[float(v) for v in row] for row in game.costs.C],
        "rho": game.rho,
    }


def game_from_dict(data: dict) -> AtomicRoutingGame:
    """Build a game from the JSON wire schema.

    Unknown keys are ignored so files may carry extra metadata such as
    desired paths.

    Raises:
        ValueError: missing keys, malformed shapes, or invalid indices.
        UnreachableError: some player has no strictly positive feasible flow;
            the message names nodes and links 1-based, as the document does.
    """
    if not isinstance(data, dict):
        raise ValueError("game document must be a JSON object")
    try:
        graph_block = data["graph"]
        n = int(graph_block["n"])
        links = tuple(sorted((int(t) - 1, int(h) - 1) for t, h in graph_block["links"]))
        players = [
            Player(int(p["origin"]) - 1, int(p["destination"]) - 1) for p in data["players"]
        ]
        b = np.asarray(data["b"], dtype=float)
        c = np.asarray(data["C"], dtype=float)
        rho = float(data["rho"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed game document: {exc}") from exc
    graph = DirectedGraph(n, links)
    try:
        return AtomicRoutingGame(graph, players, CostParams(b, c), rho)
    except UnreachableError:
        # the constructor's message is 0-based; name the document's indices
        _require_positive_flow(graph, players, base=1)
        raise


def load_game_file(path: str | Path) -> tuple[AtomicRoutingGame, list[list[int]] | None]:
    """Load a game JSON file; also return optional desired node paths (0-based).

    Raises:
        ValueError: see game_from_dict; also malformed desired_paths or an
            entry count other than one per player.
        UnreachableError: see game_from_dict.
        BrokenPathError: a desired path has fewer than two nodes or steps
            along a missing link; the message names nodes 1-based.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    game = game_from_dict(data)
    desired = data.get("desired_paths") if isinstance(data, dict) else None
    if desired is None:
        return game, None
    try:
        paths = [[int(node) for node in nodes] for nodes in desired]
    except TypeError as exc:
        raise ValueError(f"malformed desired_paths: {exc}") from exc
    if len(paths) != game.p:
        raise ValueError("desired_paths must list one node path per player")
    for i, nodes in enumerate(paths):
        if len(nodes) < 2:
            raise BrokenPathError(f"player {i}: a desired path needs at least two nodes")
        for tail, head in zip(nodes, nodes[1:]):
            if (tail - 1, head - 1) not in game.graph.link_index:
                raise BrokenPathError(
                    f"player {i}: desired path {nodes} has no link from node {tail} to node {head}"
                )
    return game, [[node - 1 for node in nodes] for nodes in paths]
