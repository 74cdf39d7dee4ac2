"""Bistellar flips, flip-graph search, GKZ vectors, dual graphs, Cayley check."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import permutations
from math import factorial
from operator import itemgetter
from time import monotonic
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from .circuits import Circuit, all_circuits, is_unit_dependence, word_context
from .polytope import Triangulation, is_triangulation, simplex_volume, walls
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

    def degrees(self) -> Tuple[int, ...]:
        """Number of flip edges incident to each node, in node order."""
        out = [0] * len(self.nodes)
        for a, b, _ in self.edges:
            out[a] += 1
            out[b] += 1
        return tuple(out)


def canonical_of(w: SnakeWord) -> Triangulation:
    """Canonical triangulation of O(Q_w): maximal chains of the bounded lattice."""
    ctx = word_context(w)
    return Triangulation.make(ctx.config, maximal_chains(ctx.lattice))


def triangulation_hash(tri: Triangulation) -> str:
    """Stable 128-bit hex digest of the canonical simplex tuple."""
    return hashlib.blake2b(repr(tri.simplices).encode(), digest_size=16).hexdigest()


# Mask kernel.  Column c of an N-column configuration is bit 1 << (N - 1 - c)
# and a simplex is the OR of its column bits.  Masks of equal popcount sort in
# descending order exactly as their sorted column tuples sort in ascending
# order, so a node is its masks sorted in reverse, and sorting nodes in reverse
# orders them as their simplex tuples.

def _encode(n: int, columns) -> int:
    mask = 0
    for c in columns:
        mask |= 1 << (n - 1 - c)
    return mask


def _decode(n: int, mask: int) -> Tuple[int, ...]:
    columns = []
    while mask:
        top = mask.bit_length() - 1
        columns.append(n - 1 - top)
        mask ^= 1 << top
    return tuple(columns)


class _Side(NamedTuple):
    """One side of a circuit, its cells as masks (the support without one column)."""

    circuit: Circuit
    direction: str
    other: Tuple[int, ...]
    rests: Tuple[Tuple[int, Tuple[int, ...]], ...]
    other_cells: Tuple[int, ...]


def _plan(n: int, circuits) -> List[_Side]:
    """Both sides of every circuit, in circuit order, plus before minus.

    rests pairs the cell of each side column j with the side's other columns.
    """
    plan = []
    for z in circuits:
        support = _encode(n, z.plus + z.minus)
        cells = {j: support ^ (1 << (n - 1 - j)) for j in z.plus + z.minus}
        for direction, side, other in (('plus', z.plus, z.minus), ('minus', z.minus, z.plus)):
            rests = tuple((cells[j], tuple(c for c in side if c != j)) for j in side)
            plan.append(_Side(z, direction, other, rests, tuple(cells[j] for j in other)))
    return plan


def _moves(n: int, node: Tuple[int, ...], columns_of: Dict[int, Tuple[int, ...]],
           plan) -> List[Tuple[_Side, FrozenSet[int]]]:
    """(side, link face masks) of every move the node supports.

    A side is contained when every one of its cells lies in some simplex and
    all its cells share one link: the faces host ^ cell of their hosts.
    """
    hosts_of = [0] * n
    for pos, mask in enumerate(node):
        for c in columns_of[mask]:
            hosts_of[c] |= 1 << pos
    everyone = (1 << len(node)) - 1
    moves = []
    for side in plan:
        # every cell of the side holds the whole other side
        common = everyone
        for c in side.other:
            common &= hosts_of[c]
        if not common:
            continue
        link = None
        for cell, rest in side.rests:
            hosts = common
            for c in rest:
                hosts &= hosts_of[c]
            if not hosts:
                link = None
                break
            faces = set()
            while hosts:
                low = hosts & -hosts
                faces.add(node[low.bit_length() - 1] ^ cell)
                hosts ^= low
            if link is None:
                link = frozenset(faces)
            elif faces != link:
                link = None
                break
        if link:
            moves.append((side, link))
    return moves


def _flip(node: Tuple[int, ...], present: FrozenSet[int], side: _Side,
          link) -> Tuple[Tuple[int, ...], FrozenSet[int]]:
    """The node after the move, and the simplices the move created."""
    old = {cell | face for cell, _ in side.rests for face in link}
    new = frozenset(cell | face for cell in side.other_cells for face in link)
    if not old <= present:
        raise FlipError('flip move does not match the triangulation')
    result = (present - old) | new
    if len(result) != len(node):
        raise FlipError('flip changed the simplex count')
    return tuple(sorted(result, reverse=True)), new


def _node(tri: Triangulation) -> Tuple[int, Tuple[int, ...]]:
    n = len(tri.config.columns)
    return n, tuple(_encode(n, s) for s in tri.simplices)


def find_flips(tri: Triangulation, circuits) -> List[FlipMove]:
    """Flip moves supported by the triangulation, in circuit order."""
    n, node = _node(tri)
    columns_of = dict(zip(node, tri.simplices))
    return [FlipMove(side.circuit, side.direction,
                     tuple(_decode(n, face) for face in sorted(link, reverse=True)))
            for side, link in _moves(n, node, columns_of, _plan(n, circuits))]


def apply_flip(tri: Triangulation, move: FlipMove, validate: bool = True) -> Triangulation:
    """Replace the contained side of the circuit, joined with its link, by the other."""
    n, node = _node(tri)
    plus, minus = _plan(n, (move.circuit,))
    side = plus if move.direction == 'plus' else minus
    link = {_encode(n, face) for face in move.link}
    image, _ = _flip(node, frozenset(node), side, link)
    result = Triangulation(tri.config, tuple(_decode(n, mask) for mask in image))
    if validate and not is_triangulation(tri.config, result.simplices):
        raise FlipError('flip produced a non-triangulation')
    return result


_LEAST = itemgetter(0)


class _Group:
    """Column permutations closed under composition, acting on nodes as masks.

    images maps each simplex mask met so far to its least image followed by
    its images under the elements, the identity's (the mask itself) first.
    A node's invariant, the sorted least images of its simplices, is the
    same for every node of its orbit.  Whether an element maps one node
    onto another is one pass over the node's simplices that stops at the
    first image outside the other's simplex set.
    """

    def __init__(self, n: int, perms):
        identity = tuple(range(n))
        elements = {identity}
        for perm in perms:
            perm = tuple(perm)
            if sorted(perm) != list(identity):
                raise FlipError('%r is not a permutation of the %d columns' % (perm, n))
            elements.add(perm)
        for p in elements:
            for q in elements:
                if tuple(p[c] for c in q) not in elements:
                    raise FlipError('the permutations and the identity are not closed '
                                    'under composition')
        self.n = n
        self.order = len(elements)
        # bits[k][c] is the mask bit of column c's image under the k-th
        # element other than the identity
        self.bits = [[1 << (n - 1 - c) for c in perm] for perm in sorted(elements - {identity})]
        self.elements = [itemgetter(k) for k in range(1, self.order + 1)]
        self.images: Dict[int, Tuple[int, ...]] = {}

    def invariant(self, node: Tuple[int, ...]) -> Tuple[int, ...]:
        """The sorted least images of the node's simplices."""
        images = self.images
        for mask in node:
            if mask not in images:
                columns = _decode(self.n, mask)
                row = [mask] + [sum(map(bits.__getitem__, columns)) for bits in self.bits]
                images[mask] = (min(row), *row)
        return tuple(sorted(map(_LEAST, map(images.__getitem__, node))))

    def onto(self, node: Tuple[int, ...], target: Set[int]):
        """Per element, whether it maps the node onto the simplex set target.

        The node's invariant must have been taken, and target must have as
        many simplices as the node.
        """
        rows = list(map(self.images.__getitem__, node))
        return (target.issuperset(map(element, rows)) for element in self.elements)

    def orbit_size(self, node: Tuple[int, ...]) -> int:
        """|G| over the number of elements that fix the node, once located."""
        if self.order == 1:
            return 1
        return self.order // sum(self.onto(node, set(node)))

    def locate(self, index: Dict, nodes: List[Tuple[int, ...]],
               node: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Optional[int]]:
        """The node's key in index and the stored node of its orbit, or None.

        With the trivial group the key is the node itself and index maps it
        to its position; otherwise the key is the invariant and index maps
        it to the positions of the stored nodes that have it.
        """
        if self.order == 1:
            return node, index.get(node)
        key = self.invariant(node)
        for b in index.get(key, ()):
            if any(self.onto(node, set(nodes[b]))):
                return key, b
        return key, None

    def store(self, index: Dict, key: Tuple[int, ...], b: int) -> None:
        """File the stored node b in index under its key from locate."""
        if self.order == 1:
            index[key] = b
        else:
            index.setdefault(key, []).append(b)


class _Search(NamedTuple):
    """A breadth-first search on masks: nodes in discovery order, as masks.

    Node i stands for its orbit under group, the first member the search
    reached; index holds the nodes under their keys (group.locate), and
    sizes[i] is the orbit's size.  With the trivial group every node is its
    own orbit.  parents[b] is (a, circuit) for the node a whose move
    first reached b and the circuit it flipped, so nodes[b] is the flip of
    nodes[a] on it; the seed's entry is (-1, None).  columns_of maps each
    simplex mask of the nodes to its sorted column tuple.
    """

    n: int
    nodes: List[Tuple[int, ...]]
    index: Dict
    depths: List[int]
    parents: List[Tuple[int, Optional[Circuit]]]
    sizes: List[int]
    group: _Group
    columns_of: Dict[int, Tuple[int, ...]]
    partial: bool

    def find(self, node: Tuple[int, ...]) -> Optional[int]:
        """Position of the stored node whose orbit holds node, or None.

        node is simplex masks in reverse order, as the stored nodes are.
        """
        return self.group.locate(self.index, self.nodes, node)[1]


def _search(seed: Triangulation, circuits, budget: int, max_depth: Optional[int] = None,
            deadline: Optional[float] = None, edges: Optional[set] = None,
            perms=()) -> _Search:
    """Breadth-first closure of the seed under circuit flips, on simplex masks.

    perms are column permutations that, with the identity, form a group G
    (FlipError otherwise).  The search then stores one node per G-orbit it
    meets: a flipped node is looked up among the stored nodes with its
    invariant and joins the first one some element maps it onto.  A new
    orbit's size is |G| over the number of elements that fix the node
    (orbit-stabiliser); budget bounds the sum of the sizes, which is the
    number of triangulations found.  The union of the orbits is the
    component only when G maps the component to itself, as affine
    symmetries of a component closed under a G-invariant property do; the
    caller must ensure that.  Each level expands its nodes in reverse mask
    order, which is the order of their simplex tuples.  When edges is a set,
    every move adds (min(a, b), max(a, b), circuit) to it; that needs the
    trivial group.

    The seed's simplices must be unimodular.  A flip on Z trades the cells
    Z - i for the cells Z - j, each joined with the same link faces, and by
    Cramer's rule, with one face, vol(Z - j) / vol(Z - i) = |lambda_j /
    lambda_i|.  So when Z's +-1 vector is a dependence of the columns, every
    created simplex is unimodular; a flip to a new node on a circuit that is
    not one raises FlipError.
    """
    cfg = seed.config
    n, root = _node(seed)
    plan = _plan(n, circuits)
    group = _Group(n, perms)
    trivial = group.order == 1
    if edges is not None and not trivial:
        raise FlipError('flip edges need the trivial group')
    # mask -> sorted column tuple of every simplex of the nodes; the decoded
    # nodes share these tuples
    columns_of = {mask: _decode(n, mask) for mask in root}
    if any(simplex_volume(cfg, columns) != 1 for columns in columns_of.values()):
        raise FlipError('seed triangulation is not unimodular')
    dependence: Dict[Circuit, bool] = {}
    index: Dict = {}
    key, _ = group.locate(index, [], root)
    group.store(index, key, 0)
    nodes = [root]
    depths = [0]
    parents: List[Tuple[int, Optional[Circuit]]] = [(-1, None)]
    sizes = [group.orbit_size(root)]
    total = sizes[0]
    frontier = [0]
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
        tasks = sorted(frontier, key=nodes.__getitem__, reverse=True)
        frontier = []
        truncated = False
        for a in tasks:
            node = nodes[a]
            present = frozenset(node)
            for side, link in _moves(n, node, columns_of, plan):
                image, created = _flip(node, present, side, link)
                key, b = group.locate(index, nodes, image)
                if b is None:
                    size = group.orbit_size(image)
                    if total + size > budget:
                        truncated = True
                        continue
                    z = side.circuit
                    if z not in dependence:
                        dependence[z] = is_unit_dependence(cfg, z)
                    if not dependence[z]:
                        raise FlipError('flip produced a non-unimodular triangulation')
                    for mask in created:
                        if mask not in columns_of:
                            columns_of[mask] = _decode(n, mask)
                    b = len(nodes)
                    group.store(index, key, b)
                    nodes.append(image)
                    depths.append(depth + 1)
                    parents.append((a, z))
                    sizes.append(size)
                    total += size
                    frontier.append(b)
                if edges is not None:
                    edges.add((min(a, b), max(a, b), side.circuit))
        depth += 1
        if truncated:
            partial = True
            break
    return _Search(n, nodes, index, depths, parents, sizes, group, columns_of, partial)


def explore_flip_graph(seed: Triangulation, circuits, budget: int = 100000,
                       workers: int = 1, max_depth: Optional[int] = None,
                       deadline: Optional[float] = None) -> FlipGraph:
    """Deterministic breadth-first closure of the seed under circuit flips.

    The search runs in one thread on simplex masks; workers is accepted and
    ignored.  The seed's simplices are checked unimodular; a later simplex is
    unimodular because the circuit whose flip created it is a +-1 dependence
    of the columns, which is checked once per circuit (_search).  Validation
    is skipped on the search path; full validation is apply_flip's and is
    exercised by the tests.
    """
    edges: set = set()
    search = _search(seed, circuits, budget, max_depth, deadline, edges)
    ordered = sorted(edges, key=lambda e: (e[0], e[1], e[2].plus, e[2].minus))
    columns_of = search.columns_of
    triangulations = tuple(Triangulation(seed.config, tuple(columns_of[mask] for mask in node))
                           for node in search.nodes)
    return FlipGraph(triangulations, tuple(ordered), tuple(search.depths), search.partial)


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
    return all(d == n for d in graph.degrees())
