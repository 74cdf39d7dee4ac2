"""Finite posets, snake posets, filter lattices, meet-irreducibles, squares, ladders."""
from __future__ import annotations

from dataclasses import dataclass

from .words import WordError, is_in_V


class PosetError(ValueError):
    pass


class Poset:
    """Immutable finite poset on elements 0..size-1 given by cover pairs."""

    __slots__ = ('size', 'covers', 'labels', '_up', '_down')

    def __init__(self, size, covers, labels=None):
        self.size = size
        adj = [0] * size
        for lo, hi in covers:
            if not (0 <= lo < size and 0 <= hi < size) or lo == hi:
                raise PosetError('bad cover pair (%d, %d)' % (lo, hi))
            adj[lo] |= 1 << hi
        up = [0] * size
        state = [0] * size  # 0 unseen, 1 in progress, 2 done
        for start in range(size):
            if state[start]:
                continue
            stack = [(start, 0)]
            while stack:
                v, stage = stack.pop()
                if stage == 0:
                    if state[v] == 2:
                        continue
                    if state[v] == 1:
                        raise PosetError('cover relation contains a cycle')
                    state[v] = 1
                    stack.append((v, 1))
                    m = adj[v]
                    while m:
                        u = (m & -m).bit_length() - 1
                        m &= m - 1
                        if state[u] == 1:
                            raise PosetError('cover relation contains a cycle')
                        if state[u] == 0:
                            stack.append((u, 0))
                else:
                    acc = 1 << v
                    m = adj[v]
                    while m:
                        u = (m & -m).bit_length() - 1
                        m &= m - 1
                        acc |= up[u]
                    up[v] = acc
                    state[v] = 2
        down = [0] * size
        for v in range(size):
            m = up[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                down[u] |= 1 << v
        hasse = []
        for lo in range(size):
            m = up[lo] & ~(1 << lo)
            while m:
                hi = (m & -m).bit_length() - 1
                m &= m - 1
                between = up[lo] & down[hi] & ~(1 << lo) & ~(1 << hi)
                if not between:
                    hasse.append((lo, hi))
        self.covers = tuple(sorted(hasse))
        self.labels = tuple(labels) if labels is not None else None
        self._up = tuple(up)
        self._down = tuple(down)

    def leq(self, a, b):
        return bool(self._up[a] >> b & 1)

    def up_mask(self, e):
        return self._up[e]

    def down_mask(self, e):
        return self._down[e]

    def upper_covers(self, e):
        return [hi for lo, hi in self.covers if lo == e]

    def lower_covers(self, e):
        return [lo for lo, hi in self.covers if hi == e]

    def minima(self):
        lowers = {hi for _, hi in self.covers}
        return [e for e in range(self.size) if e not in lowers]

    def maxima(self):
        uppers = {lo for lo, _ in self.covers}
        return [e for e in range(self.size) if e not in uppers]

    def induced(self, elements):
        """Subposet on the given elements, relabeled 0..k-1 in the given order."""
        elements = list(elements)
        pos = {e: i for i, e in enumerate(elements)}
        pairs = [(pos[a], pos[b]) for a in elements for b in elements
                 if a != b and self.leq(a, b)]
        labels = tuple(self.labels[e] for e in elements) if self.labels else tuple(elements)
        return Poset(len(elements), pairs, labels)

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.size == other.size
                and self.covers == other.covers and self.labels == other.labels)

    def __hash__(self):
        return hash((self.size, self.covers, self.labels))

    def __repr__(self):
        return 'Poset(size=%d, covers=%s)' % (self.size, list(self.covers))

    def isomorphic(self, other):
        """Order-isomorphism test: isomorphism of the cover digraphs."""
        return self.size == other.size and digraphs_isomorphic(
            self.size, self.covers, other.covers)


def digraphs_isomorphic(n, arcs_a, arcs_b):
    """Whether two digraphs on vertices 0..n-1, given as (tail, head) arcs, are isomorphic.

    Colour refinement runs on both digraphs at once, by (colour, sorted
    out-colours, sorted in-colours), until the partition is stable; an
    isomorphism maps each vertex to one of the same colour.  Backtracking
    then maps the vertices of the first digraph, rarest colour first, and
    checks the arcs in both directions between each new pair and every pair
    already mapped.
    """
    out = [set() for _ in range(2 * n)]
    into = [set() for _ in range(2 * n)]
    for shift, arcs in ((0, arcs_a), (n, arcs_b)):
        for tail, head in arcs:
            out[tail + shift].add(head + shift)
            into[head + shift].add(tail + shift)
    colours = [0] * (2 * n)
    while True:
        signatures = [(colours[v], tuple(sorted(colours[u] for u in out[v])),
                       tuple(sorted(colours[u] for u in into[v])))
                      for v in range(2 * n)]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        refined = [palette[sig] for sig in signatures]
        if refined == colours:
            break
        colours = refined
    if sorted(colours[:n]) != sorted(colours[n:]):
        return False
    images = {}
    for v in range(n, 2 * n):
        images.setdefault(colours[v], []).append(v)
    order = sorted(range(n), key=lambda v: (len(images[colours[v]]), colours[v], v))
    # one iterator of untried images per mapped vertex; a loop, not recursion,
    # so digraphs with more vertices than the recursion limit work
    mapping = {}
    used = set()
    tries = [iter(images[colours[order[0]]])] if n else []
    while tries:
        k = len(tries) - 1
        a = order[k]
        used.discard(mapping.get(a))
        for b in tries[k]:
            mapping[a] = b
            if b not in used and all(
                    (x in out[a]) == (mapping[x] in out[b])
                    and (a in out[x]) == (b in out[mapping[x]]) for x in order[:k + 1]):
                break
        else:
            mapping.pop(a, None)
            tries.pop()
            continue
        if k + 1 == n:
            return True
        used.add(b)
        tries.append(iter(images[colours[order[k + 1]]]))
    return n == 0


def build_snake_poset(w):
    """P(w) on elements 0..2n+3: a ribbon of diamonds growing by the word."""
    covers = [(1, 0), (2, 0), (3, 1), (3, 2)]
    for n in range(1, len(w) + 1):
        covers.append((2 * n + 3, 2 * n + 1))
        covers.append((2 * n + 3, 2 * n + 2))
        if n == 1:
            c = 1 if w.letter(1) == 'L' else 2
        elif w.letter(n) != w.letter(n - 1):
            c = 2 * n - 1
        else:
            c = 2 * n
        covers.append((2 * n + 2, c))
    return Poset(2 * len(w) + 4, covers)


def adjoin_bounds(p):
    """Add a new global minimum (index size) and maximum (index size+1)."""
    covers = list(p.covers)
    zero, one = p.size, p.size + 1
    for e in p.minima():
        covers.append((zero, e))
    for e in p.maxima():
        covers.append((e, one))
    if not covers:
        covers = [(zero, 0), (0, one)] if p.size else [(zero, one)]
    labels = None
    if p.labels is not None:
        labels = p.labels + ('0^', '1^')
    return Poset(p.size + 2, covers, labels)


@dataclass(frozen=True)
class FilterLattice:
    """All filters of a poset, as bit masks in ascending order."""

    poset: Poset
    filters: tuple
    hasse: tuple  # (superset index, subset index) pairs, lattice covers
    generator_sets: tuple  # minimal elements of each filter

    def index(self, mask):
        from bisect import bisect_left
        i = bisect_left(self.filters, mask)
        if i == len(self.filters) or self.filters[i] != mask:
            raise PosetError('mask %d is not a filter' % mask)
        return i

    def bottom(self):
        return len(self.filters) - 1

    def top(self):
        return 0

    def to_poset(self):
        labels = tuple(self.generator_sets)
        return Poset(len(self.filters), self.hasse, labels)


def filter_lattice(p):
    """Lattice of filters of p ordered by reverse inclusion."""
    seen = {0}
    stack = [0]
    while stack:
        f = stack.pop()
        for x in range(p.size):
            if f >> x & 1:
                continue
            if p.up_mask(x) & ~(1 << x) & ~f:
                continue
            g = f | 1 << x
            if g not in seen:
                seen.add(g)
                stack.append(g)
    filters = tuple(sorted(seen))
    index = {f: i for i, f in enumerate(filters)}
    hasse = []
    gens = []
    for i, f in enumerate(filters):
        mins = []
        for x in range(p.size):
            if f >> x & 1 and not (p.down_mask(x) & ~(1 << x) & f):
                mins.append(x)
        gens.append(tuple(mins))
        for x in range(p.size):
            if f >> x & 1:
                continue
            if p.up_mask(x) & ~(1 << x) & ~f:
                continue
            hasse.append((index[f | 1 << x], i))
    return FilterLattice(p, filters, tuple(sorted(hasse)), tuple(gens))


def meet_irreducibles(obj):
    """Subposet of lattice elements with exactly one upper cover, top excluded."""
    p = obj.to_poset() if isinstance(obj, FilterLattice) else obj
    tops = p.maxima()
    if len(tops) != 1:
        raise PosetError('meet-irreducibles need a lattice with a top element')
    top = tops[0]
    up_count = [0] * p.size
    for lo, _ in p.covers:
        up_count[lo] += 1
    keep = [e for e in range(p.size) if e != top and up_count[e] == 1]
    return p.induced(keep)


def linear_extensions(p):
    """Yield every linear extension, lexicographic among available minima."""
    indeg = [len(p.lower_covers(e)) for e in range(p.size)]
    uppers = [p.upper_covers(e) for e in range(p.size)]
    seq = []

    def rec():
        if len(seq) == p.size:
            yield tuple(seq)
            return
        for e in range(p.size):
            if indeg[e] == 0:
                indeg[e] = -1
                for u in uppers[e]:
                    indeg[u] -= 1
                seq.append(e)
                yield from rec()
                seq.pop()
                for u in uppers[e]:
                    indeg[u] += 1
                indeg[e] = 0

    yield from rec()


def maximal_chains(lat):
    """Yield saturated bottom-to-top chains of a filter lattice, by index."""
    p = lat.poset
    full = lat.filters[lat.bottom()]
    chain = [lat.bottom()]

    def rec(mask):
        if mask == 0:
            yield tuple(chain)
            return
        nxt = []
        for x in range(p.size):
            if mask >> x & 1 and not (p.down_mask(x) & ~(1 << x) & mask):
                nxt.append(mask & ~(1 << x))
        for g in sorted(nxt):
            chain.append(lat.index(g))
            yield from rec(g)
            chain.pop()

    yield from rec(full)


@dataclass(frozen=True)
class Square:
    """One bounded 4-cycle of the lattice: bottom < left, right < top."""

    top: int
    left: int
    right: int
    bottom: int
    letter_index: int

    def elements(self):
        return (self.top, self.left, self.right, self.bottom)

    def edges(self):
        return ((self.bottom, self.left), (self.bottom, self.right),
                (self.left, self.top), (self.right, self.top))


def squares_of(phat, w):
    """The n+1 squares of the bounded lattice, found as Hasse 4-cycles."""
    found = []
    for u in range(phat.size):
        ups = phat.upper_covers(u)
        for i in range(len(ups)):
            for j in range(i + 1, len(ups)):
                a, b = ups[i], ups[j]
                common = set(phat.upper_covers(a)) & set(phat.upper_covers(b))
                for v in common:
                    found.append((u, a, b, v))
    n = len(w)
    if len(found) != n + 1:
        raise PosetError('expected %d squares, found %d' % (n + 1, len(found)))
    squares = []
    for u, a, b, v in sorted(found):
        if u % 2 != 1 or u < 3:
            raise PosetError('square bottom %d is not of the expected form' % u)
        i = (u - 3) // 2
        left, right = (a, b) if a % 2 == 1 else (b, a)
        if {left, right} != {2 * i + 1, 2 * i + 2}:
            raise PosetError('square %d has unexpected sides %s' % (i, {a, b}))
        if i >= 1:
            expected_top = _square_top(w, i)
            if v != expected_top:
                raise PosetError('square %d has top %d, expected %d' % (i, v, expected_top))
        elif v != 0:
            raise PosetError('base square has top %d' % v)
        squares.append(Square(v, left, right, u, i))
    return squares


def _square_top(w, i):
    if i == 1:
        return 1 if w.letter(1) == 'L' else 2
    if w.letter(i) != w.letter(i - 1):
        return 2 * i - 1
    return 2 * i


def strip_embedding(w):
    """Plane embedding of P(w) in which every cover is a unit east or north step."""
    pos = {3: (0, 0), 2: (1, 0), 1: (0, 1), 0: (1, 1)}
    ox, oy = 0, 0
    east, north = 2, 1  # side elements of the current square
    for i in range(1, len(w) + 1):
        top = _square_top(w, i)
        bottom, left, right = 2 * i + 3, 2 * i + 1, 2 * i + 2
        if top == east:
            ox, oy = ox, oy - 1
            pos[right] = (ox + 1, oy)
            east, north = right, left
        elif top == north:
            ox, oy = ox - 1, oy
            pos[right] = (ox, oy + 1)
            east, north = left, right
        else:
            raise PosetError('square %d does not attach to square %d' % (i, i - 1))
        pos[bottom] = (ox, oy)
    if len(set(pos.values())) != len(pos):
        raise PosetError('strip embedding is not injective')
    return pos


@dataclass(frozen=True)
class LadderDecomposition:
    """Ladders of the lattice with ordered rungs per ladder."""

    ladders: tuple  # frozensets of lattice elements
    square_spans: tuple  # inclusive (first, last) square index per ladder
    rungs: tuple  # per ladder: tuple of (upper, lower) cover pairs, top first
    squares: tuple


def ladder_decomposition(phat, w):
    """Split the lattice along its corner squares into ladders with rungs."""
    if not is_in_V(w):
        raise WordError('ladders are defined for words avoiding LRL/RLR')
    squares = tuple(squares_of(phat, w))
    n = len(w)
    chords = [i for i in range(n - 1) if w.letter(i + 1) != w.letter(i + 2)]
    for i in chords:
        shared = set(squares[i].elements()) & set(squares[i + 2].elements())
        if len(shared) != 1:
            raise PosetError('squares %d and %d do not share a corner' % (i, i + 2))
    starts = [0] + [i + 1 for i in chords]
    ends = [i + 1 for i in chords] + [n]
    ladders = []
    spans = []
    rung_lists = []
    for a, b in zip(starts, ends):
        elems = frozenset(x for i in range(a, b + 1) for x in squares[i].elements())
        ladders.append(elems)
        spans.append((a, b))
        rung_lists.append(tuple(_ladder_rungs(phat, w, squares, a, b)))
    return LadderDecomposition(tuple(ladders), tuple(spans), tuple(rung_lists), squares)


def _ladder_rungs(phat, w, squares, a, b):
    def oriented(edge):
        x, y = edge
        if phat.leq(x, y):
            return (y, x)
        if phat.leq(y, x):
            return (x, y)
        raise PosetError('rung %s is not a cover edge' % (edge,))

    if a == b:
        # one-square ladder (the empty word): take the rung pair through the top
        sq = squares[a]
        return [oriented((sq.top, sq.left)), oriented((sq.right, sq.bottom))]
    shares = []
    for i in range(a, b):
        shared = tuple(sorted(set(squares[i].elements()) & set(squares[i + 1].elements())))
        if len(shared) != 2:
            raise PosetError('squares %d and %d do not share an edge' % (i, i + 1))
        shares.append(shared)
    rungs = [_opposite_edge(squares[a], shares[0])]
    rungs.extend(shares)
    rungs.append(_opposite_edge(squares[b], shares[-1]))
    return [oriented(e) for e in rungs]


def _opposite_edge(square, edge):
    for cand in square.edges():
        if not set(cand) & set(edge):
            return cand
    raise PosetError('square %s has no edge opposite %s' % (square, edge))


@dataclass(frozen=True)
class RegularityLabeling:
    """Relabeled meet-irreducible poset and the rung labeling of the lattice."""

    q: Poset  # element index k carries the name k+1
    new_name: dict  # lattice element -> name in 1..n+4
    x_of: tuple  # x_of[j] = lattice element labeled x_j
    x_index: dict  # lattice element -> j
    phi_mask: dict  # lattice element -> filter of q as bit mask over name-1 bits
    ladders: LadderDecomposition


def regularity_labeling(phat, w):
    """Name Q's elements 1..n+4 and label the whole lattice x_0..x_{2n+5}."""
    n = len(w)
    ld = ladder_decomposition(phat, w)
    one_hat = 2 * n + 5
    zero_hat = 2 * n + 4
    x_index = {one_hat: 0}
    nxt = 1
    for rung_list in ld.rungs:
        for upper, lower in rung_list:
            if upper in x_index and lower in x_index:
                continue
            if upper in x_index or lower in x_index:
                raise PosetError('rung (%d, %d) is half labeled' % (upper, lower))
            x_index[upper] = nxt
            x_index[lower] = nxt + 1
            nxt += 2
    if nxt != phat.size - 1 or zero_hat in x_index:
        raise PosetError('rung labeling did not cover the lattice')
    x_index[zero_hat] = nxt
    x_of = [None] * phat.size
    for e, j in x_index.items():
        x_of[j] = e
    if x_of[1] not in phat.lower_covers(one_hat):
        raise PosetError('x_1 must be covered by the top')
    new_name = {0: 1, 1: 2, 2: 3, zero_hat: 4}
    for i in range(1, n + 1):
        new_name[2 * i + 2] = i + 4
    q_elements = sorted(new_name)
    covers = []
    for x in q_elements:
        for y in q_elements:
            if x != y and phat.leq(x, y):
                covers.append((new_name[x] - 1, new_name[y] - 1))
    q = Poset(n + 4, covers, labels=tuple(range(1, n + 5)))
    phi = {}
    for p in range(phat.size):
        mask = 0
        for e in q_elements:
            if phat.leq(p, e):
                mask |= 1 << (new_name[e] - 1)
        phi[p] = mask
    if len(set(phi.values())) != phat.size:
        raise PosetError('principal filter map is not injective')
    return RegularityLabeling(q, new_name, tuple(x_of), x_index, phi, ld)
