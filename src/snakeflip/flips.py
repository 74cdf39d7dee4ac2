"""Bistellar flips, flip-graph search, dual graphs, Cayley check."""
from __future__ import annotations

import hashlib
from collections import Counter
from itertools import chain, compress, permutations
from math import factorial
from operator import itemgetter
from time import monotonic
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from .circuits import Circuit, all_circuits, is_unit_dependence, word_context
from .polytope import Triangulation, is_triangulation, simplex_volume, walls
from .posets import digraph_isomorphism, maximal_chains
from .words import SnakeWord


class FlipError(ValueError):
    """Raised when a flip application breaks a triangulation invariant."""


class FlipMove(NamedTuple):
    """A circuit, the side whose cells the triangulation contains, and their link."""

    circuit: Circuit
    direction: str
    link: Tuple[Tuple[int, ...], ...]


class FlipGraph(NamedTuple):
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
    """One side of a circuit, its cells and the other side's as masks.

    A cell is the support without one column of the side.
    """

    circuit: Circuit
    direction: str
    cells: Tuple[int, ...]
    other_cells: Tuple[int, ...]


def _plan(n: int, circuits) -> List[_Side]:
    """Both sides of every circuit, in circuit order, plus before minus."""
    plan = []
    for z in circuits:
        support = _encode(n, z.plus + z.minus)
        cells = {j: support ^ (1 << (n - 1 - j)) for j in z.plus + z.minus}
        for direction, side, other in (('plus', z.plus, z.minus), ('minus', z.minus, z.plus)):
            plan.append(_Side(z, direction, tuple(cells[j] for j in side),
                              tuple(cells[j] for j in other)))
    return plan


class _Cells:
    """Per-search table of the circuit cells each simplex holds, and the scan over it.

    circuits are the listed circuits on the configuration's columns (one on
    a column past the last is left out) and sides their _plan, so side s is
    a side of circuits[s >> 1], the plus side for even s.  A simplex holds
    the cell Z - j when j is the only support column of Z outside it; the
    cell's link face is the simplex without Z's support.  entries[mask]
    lists one key per cell the simplex holds, which packs j's side s and
    the face as (s << n) | face.  columns[s] and supports[s] are side s's
    columns and its circuit's support as masks, and side_bits[s] the
    column bits of side s, lowest last.  unit[k] caches whether
    circuit k's +-1 vector is a dependence of the columns
    (circuits.is_unit_dependence), and rows[s] side s's wall row (row).
    """

    def __init__(self, cfg, circuits):
        n = len(cfg.columns)
        self.cfg = cfg
        self.n = n
        self.circuits = tuple(z for z in circuits if max(z.support()) < n)
        self.sides = _plan(n, self.circuits)
        self.face_bits = (1 << n) - 1
        self.columns: List[int] = []
        self.supports: List[int] = []
        for z in self.circuits:
            self.columns += (_encode(n, z.plus), _encode(n, z.minus))
            self.supports += (_encode(n, z.support()),) * 2
        self.side_bits = [[1 << (n - 1 - c) for c in _decode(n, side)] for side in self.columns]
        self.sizes = list(map(len, self.side_bits))
        self.lowest = [sum(bits[-2:]) for bits in self.side_bits]
        self.entries: Dict[int, Tuple[int, ...]] = {}
        self.unit: Dict[int, bool] = {}
        self.rows: Dict[int, Optional[Dict[int, int]]] = {}

    def is_unit(self, k: int) -> bool:
        """Whether circuit k's +-1 vector is a dependence of the columns, tested once."""
        if k not in self.unit:
            self.unit[k] = is_unit_dependence(self.cfg, self.circuits[k])
        return self.unit[k]

    def row(self, s: int) -> Optional[Dict[int, int]]:
        """Side s's wall row: its circuit's +-1 vector, positive on side s.

        Two simplices that meet in a wall have both apexes on one side of
        their circuit, and the row is positive on them.  A Circuit carries
        its support and signs only, so the row takes every coefficient to be
        +-1, as on order polytopes; it is None when that vector is not a
        dependence of the columns (is_unit), as for a circuit listed for
        another configuration.  The row is the table's own dict and must not
        be changed.
        """
        if s not in self.rows:
            k = s >> 1
            z = self.circuits[k]
            positive = z.minus if s & 1 else z.plus
            self.rows[s] = ({c: 1 if c in positive else -1 for c in z.support()}
                            if self.is_unit(k) else None)
        return self.rows[s]

    def _entries(self, mask: int) -> Tuple[int, ...]:
        n = self.n
        columns = self.columns
        keys = []
        for s in range(0, len(columns), 2):
            support = self.supports[s]
            outside = support & ~mask
            if outside and not outside & (outside - 1):
                side = s if outside & columns[s] else s + 1
                keys.append((side << n) | (mask & ~support))
        entries = self.entries[mask] = tuple(keys)
        return entries

    def scan(self, node: Tuple[int, ...]):
        """(moves, matched walls, wall sides) of a node, from one count of its cells.

        The node's simplices are distinct, so a (side, face) key counted m
        times is m distinct cells, the face joined with the support less
        each of m columns of the side.  A side is a move when every face it
        meets carries all the side's columns; the move is (s, link faces),
        in plan order.  A face carrying m >= 2 columns of one side is C(m,
        2) walls: the simplices (Z - j) + face and (Z - j') + face share the
        facet (Z - j - j') + face, and Z is the circuit of their union, with
        both apexes on side s.  matched counts these walls, and the wall
        sides are the distinct sides that match one, by their greatest
        facet mask in reverse, which is the order of the first wall each
        matches when the walls are taken in the order of their column
        tuples.  That facet drops the two lowest column bits the face
        carries, which are read off the node's simplices only for a face
        that carries some but not all of the side's columns.  The count is
        rebuilt for every node rather than carried along the flip that found
        it, since a flip changes the count of most sides: 18.5 against a
        node's 26.5 at n=3, 26 against 41 at n=4.
        """
        entries = self.entries
        counts = Counter(chain.from_iterable([entries.get(mask) or self._entries(mask)
                                              for mask in node]))
        n = self.n
        face_bits = self.face_bits
        sizes = self.sizes
        supports = self.supports
        lowest = self.lowest
        links: Dict[int, List[int]] = {}
        broken = set()
        top: Dict[int, int] = {}
        present = None
        matched = 0
        for key, m in counts.items():
            s = key >> n
            if m == sizes[s]:
                if s in links:
                    links[s].append(key)
                else:
                    links[s] = [key]
                if m == 1:
                    continue
                drop = lowest[s]
            else:
                broken.add(s)
                if m == 1:
                    continue
                if present is None:
                    present = set(node)
                # the face with the whole support; a cell's simplex lacks one side column
                whole = (key | supports[s]) & face_bits
                got = sum(bit for bit in self.side_bits[s] if whole ^ bit in present)
                low = got & -got
                rest = got ^ low
                drop = low | (rest & -rest)
            matched += m * (m - 1) // 2
            # the greatest facet keeps the key's side tag, which orders one
            # side's facets
            facet = (key | supports[s]) ^ drop
            if facet > top.get(s, 0):
                top[s] = facet
        moves = [(s, frozenset(key & face_bits for key in links[s]))
                 for s in sorted(links) if s not in broken]
        return moves, matched, tuple(sorted(top, key=lambda s: top[s] & face_bits, reverse=True))


def _flip(node: Tuple[int, ...], present: FrozenSet[int], side: _Side,
          link) -> Tuple[Tuple[int, ...], Set[int], FrozenSet[int]]:
    """The node after the move, the simplices the move removed, and those it created."""
    old = {cell | face for cell in side.cells for face in link}
    new = frozenset(cell | face for cell in side.other_cells for face in link)
    if not old <= present:
        raise FlipError('flip move does not match the triangulation')
    result = (present - old) | new
    if len(result) != len(node):
        raise FlipError('flip changed the simplex count')
    return tuple(sorted(result, reverse=True)), old, new


def _node(tri: Triangulation) -> Tuple[int, Tuple[int, ...]]:
    n = len(tri.config.columns)
    return n, tuple(_encode(n, s) for s in tri.simplices)


def find_flips(tri: Triangulation, circuits) -> List[FlipMove]:
    """Flip moves supported by the triangulation, in circuit order.

    A side of a circuit is a move when every cell of the side lies in some
    simplex and all its cells share one link, the faces simplex - cell of
    their simplices (_Cells.scan).  A circuit on a column past the last
    supports no move.
    """
    n, node = _node(tri)
    cells = _Cells(tri.config, circuits)
    moves, _, _ = cells.scan(node)
    return [FlipMove(cells.sides[s].circuit, cells.sides[s].direction,
                     tuple(_decode(n, face) for face in sorted(link, reverse=True)))
            for s, link in moves]


def apply_flip(tri: Triangulation, move: FlipMove, circuits=None) -> Triangulation:
    """Replace the contained side of the circuit, joined with its link, by the other.

    A direction other than plus or minus, or a circuit or link column
    outside the configuration, raises FlipError.  Given the configuration's
    circuit list, the result is validated with is_triangulation, and
    FlipError is raised when it fails.
    """
    n, node = _node(tri)
    if move.direction not in ('plus', 'minus'):
        raise FlipError('flip direction must be plus or minus, got %r' % (move.direction,))
    if not all(0 <= c < n for face in (move.circuit.support(), *move.link) for c in face):
        raise FlipError('flip move names a column outside 0..%d' % (n - 1))
    plus, minus = _plan(n, (move.circuit,))
    side = plus if move.direction == 'plus' else minus
    link = {_encode(n, face) for face in move.link}
    image, _, _ = _flip(node, frozenset(node), side, link)
    result = Triangulation(tri.config, tuple(_decode(n, mask) for mask in image))
    if circuits is not None and not is_triangulation(tri.config, result.simplices, circuits):
        raise FlipError('flip produced a non-triangulation')
    return result


_WORD = (1 << 64) - 1


def _mix(least: int) -> int:
    """A simplex's weight: the 64-bit SplitMix64 finalizer of its least image.

    Equal least images give equal weights, so a node's weight sum is the
    same for every node of its orbit.  The mix is not linear: with weights
    k * least mod 2**64 the sum would be k times the sum of the least
    images, up to wraps, so nodes whose least images sum alike would share
    a key.
    """
    z = (least + 0x9E3779B97F4A7C15) & _WORD
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _WORD
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _WORD
    return z ^ (z >> 31)


class _Group:
    """Column permutations closed under composition, acting on nodes as masks.

    perms lists the elements, the identity first, and images maps each
    simplex mask met so far, and every image of it, to its weight (_mix of
    its least image) followed by its images under the elements in that
    order; one row per orbit of simplices is computed, and the others are
    reorderings of it through the composition table, which also checks
    closure (FlipError when a product falls outside the elements).
    A node's invariant, the sum of its simplices' weights, is the same for
    every node of its orbit, and a flip changes it by the weights of the
    simplices it removes and creates (shift).  Nodes of different orbits
    may share an invariant, so the lookup tests membership: the elements
    that map the node's first simplex into the other's simplex set are the
    candidates, and each is checked by one pass over the node's simplices
    that stops at the first image outside that set.
    """

    def __init__(self, n: int, perms):
        identity = tuple(range(n))
        elements = {identity}
        for perm in perms:
            perm = tuple(perm)
            if sorted(perm) != list(identity):
                raise FlipError('%r is not a permutation of the %d columns' % (perm, n))
            elements.add(perm)
        self.n = n
        self.order = len(elements)
        self.perms = [identity] + sorted(elements - {identity})
        position = {perm: e for e, perm in enumerate(self.perms)}
        # movers[g] reorders a row into the row of its simplex's image under
        # perms[g + 1]: that image's image under perms[e] is the simplex's
        # image under perms[e] after perms[g + 1], at row position 1 + the
        # product's position; the weight, at 0, keeps any group's getter a tuple
        self.movers = []
        for g in self.perms[1:]:
            after_g = itemgetter(*g)
            at = [0]
            for p in self.perms:
                pg = position.get(after_g(p))
                if pg is None:
                    raise FlipError('the permutations and the identity are not closed '
                                    'under composition')
                at.append(1 + pg)
            self.movers.append(itemgetter(*at))
        # bits[c][k] is the mask bit of column c's image under perms[k + 1]
        self.bits = [tuple(1 << (n - 1 - perm[c]) for perm in self.perms[1:])
                     for c in range(n)]
        self.elements = [itemgetter(k) for k in range(1, self.order + 1)]
        self.images: Dict[int, Tuple[int, ...]] = {}

    def image(self, e: int, mask: int) -> int:
        """The image of a column mask under perms[e]."""
        if e == 0:
            return mask
        return sum(self.bits[c][e - 1] for c in _decode(self.n, mask))

    def invariant(self, masks) -> int:
        """The sum of the weights of the simplex masks, each orbit's rows filled once.

        A mask without a row gets its row computed, and every image of the
        mask gets its row by reordering that one (movers), sharing its ints.
        """
        images = self.images
        bits = self.bits
        total = 0
        for mask in masks:
            row = images.get(mask)
            if row is None:
                moved = map(sum, zip(*map(bits.__getitem__, _decode(self.n, mask))))
                row = (mask, *moved)
                row = images[mask] = (_mix(min(row)), *row)
                for mover in self.movers:
                    image = mover(row)
                    images[image[1]] = image
            total += row[0]
        return total

    def shift(self, key, removed, created) -> Optional[int]:
        """The invariant of a flip's image, from the flipped node's invariant.

        removed and created are the simplices the flip removed and created.
        None for the trivial group, whose key is the node itself.
        """
        if self.order == 1:
            return None
        return key - self.invariant(removed) + self.invariant(created)

    def onto(self, node: Tuple[int, ...], target: Set[int]):
        """The positions in perms of the elements that map the node onto target, in order.

        Only the elements that map the node's first simplex into target are
        candidates (compress over its image row), and only they are checked
        on every simplex.  Each simplex of the node must have its row in
        images, as it has once the node's invariant is taken or carried
        (shift), and target must have as many simplices as the node.
        """
        rows = list(map(self.images.__getitem__, node))
        elements = self.elements
        for e in compress(range(self.order), map(target.__contains__, rows[0][1:])):
            if target.issuperset(map(elements[e], rows)):
                yield e

    def orbit_size(self, node: Tuple[int, ...]) -> int:
        """|G| over the number of elements that fix the node, once located."""
        if self.order == 1:
            return 1
        return self.order // sum(1 for _ in self.onto(node, set(node)))

    def locate(self, index: Dict, nodes: List[Tuple[int, ...]], node: Tuple[int, ...],
               key: Optional[int] = None) -> Tuple[object, Optional[int], int]:
        """The node's key in index, the stored node b of its orbit or None, and an element.

        The element is the position in perms of the first element that maps
        the node onto nodes[b], 0 when b is None.  With the trivial group the
        key is the node itself and index maps it to its position; otherwise
        the key is the invariant, taken here unless given (shift), and index
        maps it to the positions of the stored nodes that have it.
        """
        if self.order == 1:
            return node, index.get(node), 0
        if key is None:
            key = self.invariant(node)
        for b in index.get(key, ()):
            e = next(self.onto(node, set(nodes[b])), None)
            if e is not None:
                return key, b, e
        return key, None, 0

    def store(self, index: Dict, key, b: int) -> None:
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
    own orbit.  arrivals[b] packs every move of a node a < b that landed in
    b's orbit as one int, which arrived(b) unpacks.  The first is the move
    that found b, with element 0, so nodes[b] is that flip of nodes[a]; the
    seed has none.  A move from b into the orbit of a < b is the image of
    one of a's moves, so it is not kept.  scans[a] is (matched walls, wall
    sides) of cells.scan(nodes[a]) once a is expanded, None before.  It
    holds search state only: consumers decode the masks (_decode) and
    derive edges from arrived themselves.
    """

    n: int
    nodes: List[Tuple[int, ...]]
    index: Dict
    depths: List[int]
    sizes: List[int]
    group: _Group
    partial: bool
    cells: _Cells
    scans: List[Optional[Tuple[int, Tuple[int, ...]]]]
    arrivals: List[List[int]]

    def find(self, node: Tuple[int, ...]) -> Optional[int]:
        """Position of the stored node whose orbit holds node, or None.

        node is simplex masks in reverse order, as the stored nodes are.
        """
        return self.group.locate(self.index, self.nodes, node)[1]

    def arrived(self, b: int):
        """(a, s, e) for each arrival at b, in the order of the moves.

        Node a's move on cells.sides[s] gave a node that group.perms[e] maps
        onto nodes[b].
        """
        order = self.group.order
        sides = len(self.cells.sides)
        for packed in self.arrivals[b]:
            rest, e = divmod(packed, order)
            a, s = divmod(rest, sides)
            yield a, s, e


def _search(seed: Triangulation, circuits, budget: int, max_depth: Optional[int] = None,
            deadline: Optional[float] = None, perms=()) -> _Search:
    """Breadth-first closure of the seed under circuit flips, on simplex masks.

    perms are column permutations that, with the identity, form a group G
    (FlipError otherwise).  The search then stores one node per G-orbit it
    meets: a flipped node is looked up among the stored nodes with its
    invariant, a weight sum carried along each flip (_Group.shift), and
    joins the first one some element maps it onto.  A new
    orbit's size is |G| over the number of elements that fix the node
    (orbit-stabiliser); budget bounds the sum of the sizes, which is the
    number of triangulations found.  The union of the orbits is the
    component only when G maps the component to itself, as affine
    symmetries of a component closed under a G-invariant property do; the
    caller must ensure that.  Each level expands its nodes in reverse mask
    order, which is the order of their simplex tuples.  Expanding a node is
    one scan of its cells in a per-search _Cells table, which gives its
    moves and its walls; a move to a later stored orbit is kept as an
    arrival, and so is the move that finds a new one.  Nodes are discovered
    level by level, so every node left unexpanded comes after every expanded
    one, and an edge between an expanded node and another is a move from
    the earlier of the two: with the trivial group, the edges are the
    arrivals (explore_flip_graph).

    Every flip is an edge, met from both of its ends, so expanding b skips
    the moves known to lead back into the orbit of an earlier node: the
    reverse of each arrival (a, s, e) so far, on the image under perms[e]
    of the other side of sides[s].  A side's image is looked up by
    its column and support masks and kept per (element, side); an image
    that is not a listed side skips nothing.

    The seed's simplices must be unimodular.  A flip on Z trades the cells
    Z - i for the cells Z - j, each joined with the same link faces, and by
    Cramer's rule, with one face, vol(Z - j) / vol(Z - i) = |lambda_j /
    lambda_i|.  So when Z's +-1 vector is a dependence of the columns, every
    created simplex is unimodular; a flip to a new node on a circuit that is
    not one raises FlipError.
    """
    cfg = seed.config
    n, root = _node(seed)
    cells = _Cells(cfg, circuits)
    sides = cells.sides
    group = _Group(n, perms)
    if any(simplex_volume(cfg, _decode(n, mask)) != 1 for mask in root):
        raise FlipError('seed triangulation is not unimodular')
    index: Dict = {}
    key, _, _ = group.locate(index, [], root)
    group.store(index, key, 0)
    search = _Search(n, [root], index, [0], [group.orbit_size(root)], group,
                     False, cells, [None], [[]])
    nodes, depths, sizes = search.nodes, search.depths, search.sizes
    scans, arrivals = search.scans, search.arrivals
    # keys[b] is nodes[b]'s key in index, which shift carries to its flips
    keys = [key]
    side_of = {(cells.columns[t], cells.supports[t]): t for t in range(len(sides))}
    side_images: Dict[Tuple[int, int], Optional[int]] = {}

    def side_image(e: int, t: int) -> Optional[int]:
        if e == 0:
            return t
        if (e, t) not in side_images:
            side_images[e, t] = side_of.get((group.image(e, cells.columns[t]),
                                             group.image(e, cells.supports[t])))
        return side_images[e, t]

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
            moves, matched, walls = cells.scan(node)
            scans[a] = (matched, walls)
            back = {side_image(e, s ^ 1) for _, s, e in search.arrived(a)}
            for s, link in moves:
                if s in back:
                    continue
                image, removed, created = _flip(node, present, sides[s], link)
                key, b, e = group.locate(index, nodes, image,
                                         group.shift(keys[a], removed, created))
                if b is None:
                    size = group.orbit_size(image)
                    if total + size > budget:
                        truncated = True
                        continue
                    if not cells.is_unit(s >> 1):
                        raise FlipError('flip produced a non-unimodular triangulation')
                    b = len(nodes)
                    group.store(index, key, b)
                    nodes.append(image)
                    keys.append(key)
                    depths.append(depth + 1)
                    sizes.append(size)
                    scans.append(None)
                    arrivals.append([])
                    total += size
                    frontier.append(b)
                if a < b:
                    arrivals[b].append((a * len(sides) + s) * group.order + e)
        depth += 1
        if truncated:
            partial = True
            break
    return search._replace(partial=partial)


def explore_flip_graph(seed: Triangulation, circuits, budget: int = 100000,
                       workers: int = 1, max_depth: Optional[int] = None,
                       deadline: Optional[float] = None) -> FlipGraph:
    """Deterministic breadth-first closure of the seed under circuit flips.

    The search runs in one thread on simplex masks; workers is ignored, kept
    only because perfbench/workloads.py passes it (ROADMAP item 3 deletes
    it).  The seed's simplices are checked unimodular; a later simplex is
    unimodular because the circuit whose flip created it is a +-1 dependence
    of the columns, which is checked once per circuit (_search).  Nothing
    on the search path calls is_triangulation; apply_flip validates when it
    is given the circuits, and commuting_square_check validates every node.

    The edges are read off the search after it ends: each node's arrivals,
    every edge from its earlier end.  Each distinct simplex mask is decoded
    once, so the nodes share one column tuple per simplex.
    """
    search = _search(seed, circuits, budget, max_depth, deadline)
    sides = search.cells.sides
    edges = {(a, b, sides[s].circuit)
             for b in range(len(search.nodes)) for a, s, _ in search.arrived(b)}
    ordered = sorted(edges, key=lambda e: (e[0], e[1], e[2].plus, e[2].minus))
    columns_of = {mask: _decode(search.n, mask) for mask in set().union(*search.nodes)}
    triangulations = tuple(Triangulation(seed.config, tuple(map(columns_of.__getitem__, node)))
                           for node in search.nodes)
    return FlipGraph(triangulations, tuple(ordered), tuple(search.depths), search.partial)


class Graph(NamedTuple):
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
    """Exact isomorphism decision: posets.digraph_isomorphism, each edge as two arcs."""
    return g1.vertex_count == g2.vertex_count and digraph_isomorphism(
        g1.vertex_count, g1.edges | {(b, a) for a, b in g1.edges},
        g2.edges | {(b, a) for a, b in g2.edges}) is not None


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
