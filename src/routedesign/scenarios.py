"""Built-in grid-world scenarios with baked-in desired detour paths.

Both scenarios start from uniform link offsets (b = DELTA) and no interaction
(C = 0), so the undesigned equilibrium sends every player down its shortest
corridor.  The desired paths route the players around each other instead; the
design loop's job is to make those detours the equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import AtomicRoutingGame, CostParams, Player
from .graph import grid_graph

DELTA = 0.1
RHO = 0.5


@dataclass(frozen=True)
class Scenario:
    """A ready-to-run game plus its desired and undesigned node paths."""

    name: str
    game: AtomicRoutingGame
    desired_node_paths: tuple[tuple[int, ...], ...]
    original_node_paths: tuple[tuple[int, ...], ...]

    def desired_link_paths(self) -> list[list[int]]:
        """Each desired path as the indices of its links, in path order."""
        index = self.game.graph.link_index
        return [[index[hop] for hop in zip(p, p[1:])] for p in self.desired_node_paths]


def _build(name, graph, players, desired, original) -> Scenario:
    pm = len(players) * graph.m
    costs = CostParams(np.full(pm, DELTA), np.zeros((pm, pm)))
    game = AtomicRoutingGame(graph, players, costs, rho=RHO)
    return Scenario(
        name=name,
        game=game,
        desired_node_paths=tuple(tuple(p) for p in desired),
        original_node_paths=tuple(tuple(p) for p in original),
    )


def two_player_3x3() -> Scenario:
    """Two opposing players on a 3x3 grid.

    Player 0 goes middle-left to middle-right, player 1 the reverse.  Both
    would share the middle row; the desired paths send player 0 around the
    top edge and player 1 around the bottom edge.
    """
    graph = grid_graph(3, 3)
    players = [Player(3, 5), Player(5, 3)]
    desired = [
        (3, 0, 1, 2, 5),
        (5, 8, 7, 6, 3),
    ]
    original = [
        (3, 4, 5),
        (5, 4, 3),
    ]
    return _build("two_player_3x3", graph, players, desired, original)


def four_player_5x5() -> Scenario:
    """Four players crossing a 5x5 grid through its center.

    Two horizontal players traverse the middle row in opposite directions and
    two vertical players cross the middle column, all colliding at the center
    node.  The desired paths loop each player around the center: the
    horizontal pair along the top and bottom edges, the vertical pair around
    the adjacent columns.
    """
    graph = grid_graph(5, 5)
    players = [Player(10, 14), Player(14, 10), Player(7, 17), Player(17, 7)]
    desired = [
        (10, 5, 0, 1, 2, 3, 4, 9, 14),
        (14, 19, 24, 23, 22, 21, 20, 15, 10),
        (7, 8, 13, 18, 17),
        (17, 16, 11, 6, 7),
    ]
    original = [
        (10, 11, 12, 13, 14),
        (14, 13, 12, 11, 10),
        (7, 12, 17),
        (17, 12, 7),
    ]
    return _build("four_player_5x5", graph, players, desired, original)


SCENARIOS = {
    "two_player_3x3": two_player_3x3,
    "four_player_5x5": four_player_5x5,
}


def build_scenario(name: str) -> Scenario:
    """Look up a scenario builder by name.

    Raises:
        ValueError: unknown scenario name.
    """
    try:
        builder = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})") from None
    return builder()
