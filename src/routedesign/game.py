"""Atomic routing games: players, quadratic link costs, and equilibrium tests.

Each of p players ships one unit of flow between an origin-destination pair on
a shared directed graph, paying link costs that are affine in the joint flow.
The stacked flow x lives in R^(p*m) with player i occupying the i-th block of
m entries.

orjson is imported by write_game_file and load_game_file, the two functions
that use it, so a game built in memory never loads it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BrokenPathError, InfeasibleFlowError, UnreachableError
from .graph import (
    DirectedGraph,
    _integer,
    od_vectors,
    reduced_incidence,
    shortest_path_cost,
    stranded_links,
)


@dataclass(frozen=True)
class Player:
    """One unit-demand commodity, identified by its origin and destination."""

    origin: int
    destination: int


class CostParams:
    """Affine link-cost parameters: offset vector b and interaction matrix C.

    Player i faces link costs b_i + C_ii x_i + sum_j C_ij x_j, so b stacks the
    per-player offsets (length p*m) and C couples the player blocks
    (p*m by p*m).

    Built from b and exactly one of C, dense, and C's factor (Q, M), Q pm x k
    and M k x k, whose shapes and entries are checked when it is handed.
    factor holds that (Q, M); for a dense C, the empty pm x 0 factor where
    C is 0 and None otherwise.  Costs that hold a factor form the dense C,
    as c_from_factor(Q, M), on the first read of C, which only the dense
    route of smooth_eq.Linearization, its least-squares solve, a caller of
    membership_D and a design step that recompresses Q make; products C x
    go through the factor wherever there is one (c_times).  Messages call the factor C_factor, as game files do.
    b, C and the factor's arrays are read-only.
    """

    def __init__(
        self,
        b: np.ndarray,
        C: np.ndarray | None = None,
        factor: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if (C is None) == (factor is None):
            raise ValueError("costs need exactly one of C and factor")
        b, c = np.array(b, dtype=float), None
        if C is not None:
            c = np.array(C, dtype=float)
        else:
            q, mid = (np.array(a, dtype=float) for a in factor)
            if q.ndim != 2 or q.shape[0] != b.size:
                raise ValueError(f"C_factor.Q must be {b.size} x k, got shape {q.shape}")
            k = q.shape[1]
            if mid.shape != (k, k):
                raise ValueError(f"C_factor.M must be {k} x {k}, got shape {mid.shape}")
            # before any product: Q M Q^T of a non-finite entry warns
            if not (np.all(np.isfinite(q)) and np.all(np.isfinite(mid))):
                raise ValueError("C_factor entries must be finite")
            factor = (q, mid)
            # C's entries are at most k^2 max|Q|^2 max|M| in size, so only a
            # factor past this bound is formed here, to check that C is finite
            top = float(np.abs(q).max(initial=0.0))
            if not k * k * top * top * float(np.abs(mid).max(initial=0.0)) < 1e300:
                with np.errstate(over="ignore", invalid="ignore"):
                    c = c_from_factor(q, mid)
        if b.ndim != 1 or (c is not None and c.shape != (b.size, b.size)):
            raise ValueError("cost shapes must be b: (pm,), C: (pm, pm)")
        if not (np.all(np.isfinite(b)) and (c is None or np.all(np.isfinite(c)))):
            raise ValueError("cost entries must be finite")
        if factor is None and not np.any(c):
            factor = (np.zeros((b.size, 0)), np.zeros((0, 0)))
        for array in (b, c, *(factor or ())):
            if array is not None:
                array.setflags(write=False)
        self._b, self._factor, self._c = b, factor, c

    @property
    def b(self) -> np.ndarray:
        return self._b

    @property
    def factor(self) -> tuple[np.ndarray, np.ndarray] | None:
        return self._factor

    @property
    def C(self) -> np.ndarray:
        """The dense C, formed from the factor on the first read where the
        costs were built from one."""
        if self._c is None:
            self._c = c_from_factor(*self._factor)
            self._c.setflags(write=False)
        return self._c

    @cached_property
    def qw(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(Q, W) with W = Q M^T, so C = Q W^T, formed once; None without a factor."""
        if self.factor is None:
            return None
        q, mid = self.factor
        return q, q @ mid.T

    def c_times(self, x: np.ndarray) -> np.ndarray:
        """C x; Q (W^T x) where the costs hold a factor, so C is not formed."""
        if self.factor is None:
            return self.C @ x
        q, w = self.qw
        return q @ (w.T @ x)


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


class AtomicRoutingGame:
    """A p-player atomic routing game on a shared directed graph.

    Precomputes the per-player reduced incidence matrices, stacked as one
    (p, n - 1, m) array, their block diagonal, and the stacked demand
    vector, which every residual and solver in the package reuses.

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
        # as plain ints, which the JSON writer serializes
        players = tuple(
            Player(_integer(p.origin, "origin"), _integer(p.destination, "destination"))
            for p in players
        )
        for player in players:
            if not (0 <= player.origin < graph.n and 0 <= player.destination < graph.n):
                raise ValueError("player origin or destination out of range")
            if player.origin == player.destination:
                raise ValueError("origin equals destination")
        _require_positive_flow(graph, players)
        self.graph = graph
        self.players = players
        self._set_costs(costs, rho)

        pm, n_red = self.pm, graph.n - 1
        self.reduced = np.stack([reduced_incidence(graph, p.destination) for p in self.players])
        s_parts = [od_vectors(graph, p.origin, p.destination)[1] for p in self.players]
        self.s = np.concatenate(s_parts)
        e_blk = np.zeros((len(players) * n_red, pm))
        for i, e_i in enumerate(self.reduced):
            e_blk[i * n_red : (i + 1) * n_red, i * graph.m : (i + 1) * graph.m] = e_i
        self.e_blk = e_blk
        for array in (self.reduced, self.s, self.e_blk):
            array.setflags(write=False)

    def _set_costs(self, costs: CostParams, rho: float) -> None:
        if not 0.0 <= rho < np.inf:
            raise ValueError("rho must be finite and nonnegative")
        if costs.b.shape != (self.pm,):
            raise ValueError(f"b must have length {self.pm}")
        self.costs = costs
        self.rho = float(rho)

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

    def with_costs(
        self,
        b: np.ndarray,
        c: np.ndarray | None = None,
        rho: float | None = None,
        factor: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "AtomicRoutingGame":
        """Same structure, new cost parameters: b and exactly one of C, dense,
        and its factor (Q, M) (see CostParams).

        The new game shares this one's graph, players and incidence arrays,
        which are read-only, and checks only the new costs and rho.
        """
        game = copy.copy(self)
        game._set_costs(CostParams(b, c, factor), self.rho if rho is None else rho)
        return game

    # ------------------------------------------------------------------
    # costs and objectives
    # ------------------------------------------------------------------

    def marginal_cost(self, x: np.ndarray, i: int) -> np.ndarray:
        """Gradient of player i's objective in its own flow: b_i + (C x)_i."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.pm,):
            raise ValueError("flow length must be p*m")
        sl = self.player_slice(i)
        return self.costs.b[sl] + self.costs.c_times(x)[sl]

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

    def nash_gap(self, x: np.ndarray) -> float:
        """Sum of per-player regrets against their best single-path responses.

        Nonnegative for any feasible x and zero exactly at an equilibrium.

        Raises:
            InfeasibleFlowError: conservation violated by more than 1e-6.
            NegativeCycleError: some player's marginal costs admit unbounded
                descent, so the gap is unbounded.
        """
        x = np.asarray(x, dtype=float)
        violation = self.conservation_violation(x)
        if violation > 1e-6:
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


def path_to_target(
    game: AtomicRoutingGame, paths: Sequence[Sequence[int]], base: int = 0
) -> np.ndarray:
    """Joint 0/1 flow putting each player on its desired node path.

    The one check of desired paths: one per player, each of at least two
    nodes with a link at every hop, from its player's origin to its
    destination, using no link twice.  Messages name nodes with base added
    to their indices, so load_game_file's are 1-based, as its files are.

    Raises:
        BrokenPathError: a path fails one of these checks, in that order.
    """
    if len(paths) != game.p:
        raise BrokenPathError(f"need one desired path per player, got {len(paths)} for {game.p}")
    index = game.graph.link_index
    target = np.zeros(game.pm)
    for i, (nodes, player) in enumerate(zip(paths, game.players)):
        shown = [node + base for node in nodes]
        if len(nodes) < 2:
            raise BrokenPathError(f"player {i}: a desired path needs at least two nodes")
        hops = list(zip(nodes, nodes[1:]))
        for tail, head in hops:
            if (tail, head) not in index:
                raise BrokenPathError(
                    f"player {i}: desired path {shown} has no link from node {tail + base} to node {head + base}"
                )
        ends = (player.origin + base, player.destination + base)
        if (shown[0], shown[-1]) != ends:
            raise BrokenPathError(
                f"player {i}: desired path {shown} runs from node {shown[0]} to node {shown[-1]}, not {ends[0]} to {ends[1]}"
            )
        if len(set(hops)) < len(hops):
            raise BrokenPathError(f"player {i}: desired path {shown} uses a link twice")
        target[[i * game.m + index[hop] for hop in hops]] = 1.0
    return target


def c_from_factor(q: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """C = Q M Q^T from its factor (Q, M), Q pm x k and M k x k.

    The one expression for C from a factor, which CostParams alone calls,
    so on one machine a reloaded C is bit-identical to the C the design
    ended with.
    """
    return q @ mid @ q.T


def membership_D(C: np.ndarray, block_size: int, rho: float) -> bool:
    """Test membership in the admissible interaction set.

    The set requires C + C^T positive semidefinite, Frobenius norm at most
    rho, and symmetric per-player diagonal blocks, each checked within 1e-8.
    """
    c = np.asarray(C, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("C must be square")
    if block_size < 1 or c.shape[0] % block_size != 0:
        raise ValueError("matrix size must be a multiple of block_size")
    if not 0.0 <= rho < np.inf:
        raise ValueError("rho must be finite and nonnegative")
    tol = 1e-8
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
    """Serialize a game to the JSON wire schema, the mirror of game_from_dict.

    A game whose costs hold a factor (Q, M) holds "C_factor": {"Q": Q,
    "M": M}, pm * k + k^2 numbers for a factor of width k, from which
    game_from_dict rebuilds the same costs; any other holds C dense, as
    "C".  A C with no nonzero entry goes out as the factor of width 0.
    """
    doc: dict = {
        "graph": {
            "n": game.n,
            "links": [[t + 1, h + 1] for t, h in game.graph.links],
        },
        "players": [
            {"origin": p.origin + 1, "destination": p.destination + 1}
            for p in game.players
        ],
        "b": game.costs.b.tolist(),
    }
    if game.costs.factor is None:
        doc["C"] = game.costs.C.tolist()
    else:
        q, mid = game.costs.factor
        doc["C_factor"] = {"Q": q.tolist(), "M": mid.tolist()}
    doc["rho"] = game.rho
    return doc


def write_game_file(
    path: str | Path,
    game: AtomicRoutingGame,
    desired_paths: Sequence[Sequence[int]] | None = None,
) -> None:
    """Write game_to_dict(game), plus desired_paths (0-based node paths) as
    1-based ones when given, for load_game_file to read back.

    orjson writes it, indented by two spaces with a final newline, each
    float in its shortest form that reads back to the same double.  Every
    number is finite (CostParams checks), so none becomes orjson's null.
    """
    import orjson

    doc = game_to_dict(game)
    if desired_paths is not None:
        doc["desired_paths"] = [[node + 1 for node in nodes] for nodes in desired_paths]
    Path(path).write_bytes(orjson.dumps(doc, option=orjson.OPT_INDENT_2) + b"\n")


def game_from_dict(data: dict) -> AtomicRoutingGame:
    """Build a game from the JSON wire schema.

    C comes either dense, as "C", or as "C_factor": {"Q": Q, "M": M}, Q
    pm x k and M k x k, which CostParams takes as C's factor.  Unknown keys
    are ignored so files may carry extra metadata such as desired paths.

    Raises:
        ValueError: missing keys, both or neither of "C" and "C_factor",
            malformed shapes or link entries, values of b, C, Q, M or rho
            that are not numbers (strings, and booleans in rho or filling
            an array), costs CostParams rejects (an entry that is not
            finite, among others), node indices that are not integers or
            lie out of range, or links out of sorted order or repeated.
        UnreachableError: some player has no strictly positive feasible flow;
            the message names nodes and links 1-based, as the document does.
    """
    if not isinstance(data, dict):
        raise ValueError("game document must be a JSON object")
    try:
        graph_block = data["graph"]
        n = _integer(graph_block["n"], "n")
        file_links = [_link_entry(entry) for entry in graph_block["links"]]
        players = [
            Player(_integer(p["origin"], "origin") - 1, _integer(p["destination"], "destination") - 1)
            for p in data["players"]
        ]
        b = _numbers(data["b"], "b")
        c_or_factor = _c_or_factor(data)
        rho = _numbers(data["rho"], "rho", scalar=True)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed game document: {exc}") from exc
    for tail, head in file_links:
        if not (1 <= tail <= n and 1 <= head <= n):
            raise ValueError(f"link [{tail}, {head}] out of node range 1..{n}")
    graph = DirectedGraph(n, tuple((t - 1, h - 1) for t, h in file_links))
    try:
        costs = CostParams(b, **c_or_factor)
    except ValueError as exc:
        raise ValueError(f"malformed game document: {exc}") from exc
    try:
        return AtomicRoutingGame(graph, players, costs, rho)
    except UnreachableError:
        # the constructor's message is 0-based; name the document's indices
        _require_positive_flow(graph, players, base=1)
        raise


def _c_or_factor(data: dict) -> dict:
    """CostParams' C or factor keyword from a document's dense "C" or its
    "C_factor" {"Q", "M"}."""
    keys = [key for key in ("C", "C_factor") if key in data]
    if len(keys) != 1:
        raise ValueError(
            f"malformed game document: needs exactly one of 'C' and 'C_factor', got {keys or 'neither'}"
        )
    if "C" in data:
        return {"C": _numbers(data["C"], "C")}
    doc = data["C_factor"]
    if not isinstance(doc, dict) or sorted(doc) != ["M", "Q"]:
        raise ValueError("malformed game document: C_factor must be an object with keys 'Q' and 'M'")
    q = _numbers(doc["Q"], "C_factor.Q")
    mid = _numbers(doc["M"], "C_factor.M")
    if mid.shape == (0,):
        mid = mid.reshape(0, 0)  # json's [] for an M of width 0
    return {"factor": (q, mid)}


def _link_entry(entry) -> tuple[int, int]:
    """A document's link entry [tail, head] as a pair of integers."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise ValueError(f"malformed game document: link entry {entry!r} is not a [tail, head] pair")
    return _integer(entry[0], "links"), _integer(entry[1], "links")


def _numbers(value, key: str, scalar: bool = False):
    """A document's value under key as a float array, or as a float with
    scalar; a failure names the key.

    float() takes strings and booleans; the dtype numpy infers finds them
    without a Python pass over the entries: kind U where any entry is a
    string, kind b where all are booleans.
    """
    try:
        array = np.asarray(value)
        if array.dtype.kind == "U":
            # float's message for a string that reads as no number
            np.asarray(array.tolist(), dtype=float)
            raise ValueError("strings are not numbers")
        if array.dtype.kind == "b":
            raise ValueError("booleans are not numbers")
        return float(value) if scalar else np.asarray(array, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed game document: {key}: {exc}") from exc


def load_game_file(path: str | Path) -> tuple[AtomicRoutingGame, list[list[int]] | None]:
    """Load a game JSON file; also return optional desired node paths (0-based).

    The file must be UTF-8 JSON as RFC 8259 defines it, with no byte-order
    mark and no number too large for a double: the NaN, Infinity and
    -Infinity tokens json.dump writes for non-finite floats are not JSON.
    orjson parses it, to the same floats as json.loads, bit for bit.

    Raises:
        ValueError: the file is not JSON in that dialect; see game_from_dict;
            also malformed desired_paths.
        UnreachableError: see game_from_dict.
        BrokenPathError: see path_to_target, which also checks that there is
            one path per player; the message names nodes 1-based.
    """
    import orjson

    try:
        data = orjson.loads(Path(path).read_bytes())
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"game file is not JSON: {exc}") from exc
    game = game_from_dict(data)
    desired = data.get("desired_paths")
    if desired is None:
        return game, None
    try:
        paths = [[_integer(node, "desired_paths") - 1 for node in nodes] for nodes in desired]
    except TypeError as exc:
        raise ValueError(f"malformed desired_paths: {exc}") from exc
    path_to_target(game, paths, base=1)
    return game, paths
