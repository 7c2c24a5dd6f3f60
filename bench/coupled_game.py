"""Seeded generator of the coupled random game for the solve_coupled_rand workload.

The game is a random bidirected graph that is not a grid (a random spanning
tree plus random chords), a few random origin-destination pairs, offsets
b ~ U[0, B_HIGH], and a dense interaction matrix C inside the admissible set
at radius RHO: a positive semidefinite symmetric part plus a skew part that
lives only in the off-diagonal player blocks, scaled to Frobenius norm RHO.

The program under test receives only the JSON file this module writes.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import numpy as np

NODES = 30
UNDIRECTED_EDGES = 54
PLAYERS = 5
B_HIGH = 0.1
RHO = 0.5


def _random_edges(rng: np.random.Generator) -> list[tuple[int, int]]:
    order = rng.permutation(NODES)
    edges = set()
    for k in range(1, NODES):
        parent = order[int(rng.integers(k))]
        edges.add(tuple(sorted((int(order[k]), int(parent)))))
    while len(edges) < UNDIRECTED_EDGES:
        a, b = (int(v) for v in rng.choice(NODES, size=2, replace=False))
        edges.add(tuple(sorted((a, b))))
    return sorted(edges)


def _reachable(n: int, links: list[tuple[int, int]], reverse: bool) -> set[int]:
    succ: dict[int, list[int]] = {}
    for tail, head in links:
        a, b = (head, tail) if reverse else (tail, head)
        succ.setdefault(a, []).append(b)
    seen = {0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for nxt in succ.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _interaction(rng: np.random.Generator, m: int) -> np.ndarray:
    pm = PLAYERS * m
    g = rng.standard_normal((pm, pm))
    sym = g @ g.T
    a = rng.standard_normal((pm, pm))
    skew = 0.5 * (a - a.T)
    for i in range(PLAYERS):
        sl = slice(i * m, (i + 1) * m)
        skew[sl, sl] = 0.0
    c = sym / np.linalg.norm(sym) + skew / np.linalg.norm(skew)
    return c * (RHO / np.linalg.norm(c))


def generate(seed: int) -> dict:
    """The game document (JSON wire schema, 1-based nodes) for one seed."""
    from routedesign import membership_D

    rng = np.random.default_rng(seed)
    edges = _random_edges(rng)
    links = sorted(edges + [(h, t) for t, h in edges])
    link_set = set(links)
    if any((h, t) not in link_set for t, h in links):
        raise RuntimeError("generated graph is not bidirected")
    everyone = set(range(NODES))
    if _reachable(NODES, links, False) != everyone or _reachable(NODES, links, True) != everyone:
        raise RuntimeError("generated graph is not strongly connected")

    pairs: list[tuple[int, int]] = []
    while len(pairs) < PLAYERS:
        origin, destination = (int(v) for v in rng.choice(NODES, size=2, replace=False))
        if (origin, destination) not in pairs:
            pairs.append((origin, destination))

    m = len(links)
    b = rng.uniform(0.0, B_HIGH, size=PLAYERS * m)
    c = _interaction(rng, m)
    if not membership_D(c, m, RHO):
        raise RuntimeError("generated interaction matrix is not admissible")
    return {
        "graph": {"n": NODES, "links": [[t + 1, h + 1] for t, h in links]},
        "players": [{"origin": o + 1, "destination": d + 1} for o, d in pairs],
        "b": [float(v) for v in b],
        "C": [[float(v) for v in row] for row in c],
        "rho": RHO,
    }


def write_game(seed: int, path: Path) -> Path:
    """Write the seed's game to path and return it."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(generate(seed), fh)
        fh.write("\n")
    return path
