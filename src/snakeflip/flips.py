"""Bistellar flips, flip-graph search, GKZ vectors, dual graphs, Cayley check."""
from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from math import factorial
from time import monotonic
from typing import Dict, FrozenSet, List, Optional, Tuple

from .circuits import Circuit, all_circuits, word_context
from .polytope import Triangulation, is_triangulation, is_unimodular, simplex_volume, walls
from .posets import digraphs_isomorphic, maximal_chains
from .words import SnakeWord


class FlipError(ValueError):
    """Raised when a flip application breaks a triangulation invariant."""


@dataclass(frozen=True)
class FlipMove:
    """A circuit, the side whose cells the triangulation contains, and their link."""

    circuit: Circuit
    direction: str
    link: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class FlipGraph:
    """Breadth-first closure of a triangulation under circuit flips."""

    nodes: Tuple[Triangulation, ...]
    edges: Tuple[Tuple[int, int, Circuit], ...]
    depths: Tuple[int, ...]
    partial: bool

    def degree(self, i: int) -> int:
        """Number of flip edges incident to node i."""
        return sum(1 for a, b, _ in self.edges if i == a or i == b)


def canonical_of(w: SnakeWord) -> Triangulation:
    """Canonical triangulation of O(Q_w): maximal chains of the bounded lattice."""
    ctx = word_context(w)
    return Triangulation.make(ctx.config, maximal_chains(ctx.lattice))


def triangulation_hash(tri: Triangulation) -> str:
    """Stable 128-bit hex digest of the canonical simplex tuple."""
    return hashlib.blake2b(repr(tri.simplices).encode(), digest_size=16).hexdigest()


def find_flips(tri: Triangulation, circuits) -> List[FlipMove]:
    """Flip moves supported by the triangulation, in circuit order."""
    incidence: Dict[int, set] = {}
    sets = []
    for pos, simplex in enumerate(tri.simplices):
        sets.append(frozenset(simplex))
        for v in simplex:
            incidence.setdefault(v, set()).add(pos)
    moves = []
    for z in circuits:
        support = set(z.support())
        for direction, side in (('plus', z.plus), ('minus', z.minus)):
            links: Optional[List[FrozenSet[Tuple[int, ...]]]] = []
            for j in side:
                cell = support - {j}
                hosts = set.intersection(*(incidence.get(v, set()) for v in cell))
                if not hosts:
                    links = None
                    break
                links.append(frozenset(tuple(sorted(sets[h] - cell)) for h in hosts))
            if links and all(link == links[0] for link in links):
                moves.append(FlipMove(z, direction, tuple(sorted(links[0]))))
    return moves


def apply_flip(tri: Triangulation, move: FlipMove, validate: bool = True) -> Triangulation:
    """Replace the contained side of the circuit, joined with its link, by the other."""
    z = move.circuit
    side, other = (z.plus, z.minus) if move.direction == 'plus' else (z.minus, z.plus)
    support = set(z.support())
    current = set(tri.simplices)
    old = {tuple(sorted((support - {j}) | set(face))) for j in side for face in move.link}
    new = {tuple(sorted((support - {j}) | set(face))) for j in other for face in move.link}
    if not old <= current:
        raise FlipError('flip move does not match the triangulation')
    result = Triangulation.make(tri.config, (current - old) | new)
    if len(result.simplices) != len(tri.simplices):
        raise FlipError('flip changed the simplex count')
    if validate and not is_triangulation(tri.config, result.simplices):
        raise FlipError('flip produced a non-triangulation')
    return result


def _neighbors(tri: Triangulation, circuits) -> List[Tuple[Circuit, Triangulation]]:
    # validation is skipped on the search path; count and unimodularity are
    # checked per node and full validation is exercised by the tests
    return [(m.circuit, apply_flip(tri, m, validate=False)) for m in find_flips(tri, circuits)]


def explore_flip_graph(seed: Triangulation, circuits, budget: int = 100000,
                       workers: int = 1, max_depth: Optional[int] = None,
                       deadline: Optional[float] = None) -> FlipGraph:
    """Deterministic breadth-first closure of the seed under circuit flips."""
    circuits = tuple(circuits)
    if not is_unimodular(seed):
        raise FlipError('seed triangulation is not unimodular')
    index = {seed.simplices: 0}
    nodes = [seed]
    depths = [0]
    edges = set()
    frontier = [seed]
    partial = False
    depth = 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            partial = True
            break
        # time cap is only consulted between levels so output stays level-complete
        if deadline is not None and monotonic() >= deadline:
            partial = True
            break
        tasks = sorted(frontier, key=lambda t: t.simplices)
        if workers > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                expansions = list(pool.map(lambda t: _neighbors(t, circuits), tasks))
        else:
            expansions = [_neighbors(t, circuits) for t in tasks]
        frontier = []
        truncated = False
        for tri, found in zip(tasks, expansions):
            a = index[tri.simplices]
            for z, image in found:
                b = index.get(image.simplices)
                if b is None:
                    if len(nodes) >= budget:
                        truncated = True
                        continue
                    if not is_unimodular(image):
                        raise FlipError('flip produced a non-unimodular triangulation')
                    b = len(nodes)
                    index[image.simplices] = b
                    nodes.append(image)
                    depths.append(depth + 1)
                    frontier.append(image)
                edges.add((min(a, b), max(a, b), z))
        depth += 1
        if truncated:
            partial = True
            break
    ordered = sorted(edges, key=lambda e: (e[0], e[1], e[2].plus, e[2].minus))
    return FlipGraph(tuple(nodes), tuple(ordered), tuple(depths), partial)


def gkz_vector(tri: Triangulation) -> Tuple[int, ...]:
    """Per-column sum of normalized volumes of the incident simplices."""
    totals = [0] * len(tri.config.columns)
    for s in tri.simplices:
        vol = simplex_volume(tri.config, s)
        for j in s:
            totals[j] += vol
    return tuple(totals)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: FrozenSet[Tuple[int, int]]


def dual_graph(tri: Triangulation) -> Graph:
    """Simplices as nodes, an edge whenever two simplices share a wall.

    A facet in more than two simplices raises FlipError: no triangulation has one.
    """
    edges = set()
    for f, cofaces in walls(tri.simplices).items():
        if len(cofaces) > 2:
            raise FlipError('facet %r has %d cofaces' % (f, len(cofaces)))
        if len(cofaces) == 2:
            edges.add((cofaces[0][0], cofaces[1][0]))
    return Graph(len(tri.simplices), frozenset(edges))


def graphs_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism decision: posets.digraphs_isomorphic, each edge as two arcs."""
    return g1.vertex_count == g2.vertex_count and digraphs_isomorphic(
        g1.vertex_count, g1.edges | {(b, a) for a, b in g1.edges},
        g2.edges | {(b, a) for a, b in g2.edges})


def cayley_check(n: int) -> bool:
    """Whether the ladder flip graph matches adjacent-transposition multiplication."""
    if not 1 <= n <= 6:
        raise ValueError('ladder check supports 1 <= n <= 6')
    w = SnakeWord(('L',) * (n - 1))
    ctx = word_context(w)
    rungs = ctx.labeling.ladders.rungs[0]
    if len(rungs) != n + 1:
        return False
    uppers = [col for col, _ in rungs]
    lowers = [col for _, col in rungs]
    col = ctx.column_of
    top_col = 0
    bottom_col = len(ctx.config.columns) - 1
    expected = {}
    for sigma in permutations(range(n + 1)):
        simplices = []
        for j in range(n + 1):
            chain = [top_col, bottom_col]
            chain += [col[uppers[sigma[r]]] for r in range(j + 1)]
            chain += [col[lowers[sigma[r]]] for r in range(j, n + 1)]
            simplices.append(tuple(sorted(chain)))
        expected[Triangulation.make(ctx.config, simplices).simplices] = sigma
    seed = canonical_of(w)
    identity = tuple(range(n + 1))
    if expected.get(seed.simplices) != identity:
        return False
    graph = explore_flip_graph(seed, all_circuits(w), budget=factorial(n + 1) + 1)
    if graph.partial or len(graph.nodes) != factorial(n + 1):
        return False
    if set(t.simplices for t in graph.nodes) != set(expected):
        return False
    if len(graph.edges) != factorial(n + 1) * n // 2:
        return False
    label_of = {}
    for r in range(n + 1):
        label_of[col[uppers[r]]] = r
        label_of[col[lowers[r]]] = r
    for a, b, z in graph.edges:
        pair = {label_of[c] for c in z.support()}
        if len(pair) != 2:
            return False
        i, j = sorted(pair)
        sigma = expected[graph.nodes[a].simplices]
        tau = expected[graph.nodes[b].simplices]
        pi, pj = sigma.index(i), sigma.index(j)
        if abs(pi - pj) != 1:
            return False
        swapped = list(sigma)
        swapped[pi], swapped[pj] = swapped[pj], swapped[pi]
        if tuple(swapped) != tau:
            return False
    return all(graph.degree(i) == n for i in range(len(graph.nodes)))
