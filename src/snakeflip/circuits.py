"""Circuits of the order polytope vertex configuration of Q_w."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Dict, FrozenSet, NamedTuple, Tuple

from .exact import BudgetError, _pivot, integer_kernel
from .polytope import PointConfiguration, _lattice_vertices
from .posets import (FilterLattice, Poset, RegularityLabeling, adjoin_bounds,
                     build_snake_poset, filter_lattice, regularity_labeling)
from .words import (SnakeWord, WordError, connected_induced_subgraphs, is_in_V,
                    word_graph)


class CircuitError(ValueError):
    """Raised for invalid circuit constructions."""


class Circuit(NamedTuple):
    """Oriented partition of a minimal affinely dependent column set."""

    plus: Tuple[int, ...]
    minus: Tuple[int, ...]

    @staticmethod
    def make(plus, minus) -> 'Circuit':
        plus = tuple(sorted(plus))
        minus = tuple(sorted(minus))
        if not plus or not minus:
            raise CircuitError('both sides of a circuit must be nonempty')
        if set(plus) & set(minus):
            raise CircuitError('circuit sides must be disjoint')
        if min(minus) < min(plus):
            plus, minus = minus, plus
        return Circuit(plus, minus)

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.plus + self.minus))


@dataclass(frozen=True)
class WordContext:
    """Lattice, labeling, vertex configuration and circuits of one word.

    The circuits are computed on first use and kept with the context.
    """

    word: SnakeWord
    phat: Poset
    labeling: RegularityLabeling
    lattice: FilterLattice
    config: PointConfiguration
    column_of: Dict[int, int]
    element_of: Tuple[int, ...]

    @cached_property
    def circuits(self) -> Tuple[Circuit, ...]:
        """Circuits of all connected induced subgraphs, in canonical order."""
        out = [_gamma(self, _vertex_indices(mask))
               for mask in connected_induced_subgraphs(word_graph(self.word))]
        if len(set(out)) != len(out):
            raise CircuitError('subgraphs map to duplicate circuits')
        return tuple(sorted(out, key=lambda z: (z.plus, z.minus)))

    @cached_property
    def circuit_set(self) -> FrozenSet[Circuit]:
        """The circuits as a set, for membership tests."""
        return frozenset(self.circuits)


@lru_cache(maxsize=None)
def word_context(w: SnakeWord) -> WordContext:
    """Build the bounded lattice of w and the column order of O(Q_w)."""
    if not is_in_V(w):
        raise WordError('circuits are defined only for words avoiding LRL/RLR')
    phat = adjoin_bounds(build_snake_poset(w))
    labeling = regularity_labeling(phat, w)
    lattice = filter_lattice(labeling.q)
    config = _lattice_vertices(labeling.q, lattice)
    column_of = {e: lattice.index(mask) for e, mask in labeling.phi_mask.items()}
    element_of = [0] * phat.size
    for e, j in column_of.items():
        element_of[j] = e
    return WordContext(w, phat, labeling, lattice, config, column_of, tuple(element_of))


def circuit_from_subgraph(w: SnakeWord, subgraph) -> Circuit:
    """Circuit carried by a connected induced subgraph of the companion graph."""
    ctx = word_context(w)
    return _gamma(ctx, _vertex_indices(subgraph))


def all_circuits(w: SnakeWord) -> Tuple[Circuit, ...]:
    """Circuits of all connected induced subgraphs, in canonical order."""
    return word_context(w).circuits


def circuits_brute(cfg: PointConfiguration, budget: int = 2_000_000) -> Tuple[Circuit, ...]:
    """Every minimal affinely dependent column set, oriented by its dependence.

    The search runs on the Gale dual.  exact.integer_kernel gives the m - r
    kernel vectors of the homogenized columns, of rank r, and column j's
    dual vector g_j lists its entry in each.  The circuits of the columns
    are exactly the complements of the hyperplanes (flats of rank m - r - 1)
    of the dual vectors, so the search visits flats of a rank-(m - r)
    matroid instead of every independent set of the columns.

    A depth-first search grows index-increasing sets S of dual vectors and
    keeps the residual of every g_i modulo span(S); it adds j > max(S) only
    if the residual of g_j is nonzero.  It prunes j if adding it zeroes the
    residual of some i < j not in S, because then S + {j} is not the greedy
    (lex-first) basis of its span and no extension of it is.  Every flat has
    exactly one greedy basis, and every prefix of a greedy basis is the
    greedy basis of its own span, so each hyperplane is reached once, at
    |S| = m - r - 1, where the columns with a nonzero residual form its
    circuit.  One budget step is one attempted addition of a column j to a
    node S; BudgetError is raised past ``budget`` steps, the only bound on
    the search: the entries may be any integers.

    The residuals are exact integers, reduced fraction-free along the path
    (Bareiss 1968): adding j pivots a copy of the residuals with
    exact._pivot on the first nonzero coordinate of g_j's residual, made
    positive by negating it.  Every other residual takes _pivot's update,
    divided by the previous pivot on the path (1 at the root), and g_j's
    residual is then set to zero.  At the last level each live residual
    has one nonzero coordinate, the same one for all, and these values are
    one common multiple of the circuit's dependence, so their signs orient
    it without solving the support again.
    """
    m = len(cfg.columns)
    if not m:
        return ()
    kernel = integer_kernel(list(zip(*map(cfg.homogeneous, range(m)))))
    d = len(kernel)
    if not d:
        return ()
    dual = list(zip(*kernel))
    zero = (0,) * d
    bits = [1 << i for i in range(m)]
    steps = 0
    found = []

    def extend(residual, live, last, prev, depth):
        # live: bit i set when the residual of g_i is nonzero
        nonlocal steps
        if depth == d - 1:
            signs = [(i, next(a for a in residual[i] if a)) for i in range(m) if live >> i & 1]
            found.append(Circuit.make([i for i, a in signs if a > 0],
                                      [i for i, a in signs if a < 0]))
            return
        for j in range(last + 1, m):
            steps += 1
            if steps > budget:
                raise BudgetError('brute circuit search exceeded %d steps' % budget)
            if not live >> j & 1:
                continue
            v = residual[j]
            piv = next(t for t, a in enumerate(v) if a)
            nxt = list(residual)
            if v[piv] < 0:
                nxt[j] = [-a for a in v]
            p = _pivot(nxt, j, piv, prev)
            nxt[j] = zero
            nlive = sum(compress(bits, map(any, nxt)))
            if (live & ~nlive) & ((1 << j) - 1):
                continue
            extend(nxt, nlive, j, p, depth + 1)

    extend(dual, sum(compress(bits, map(any, dual))), -1, 1, 0)
    return tuple(sorted(found, key=lambda z: (z.plus, z.minus)))


def is_unit_dependence(cfg: PointConfiguration, z: Circuit) -> bool:
    """Whether the circuit's +-1 vector is a dependence of the homogenized columns.

    That is, whether its plus columns sum to its minus columns, as every
    circuit of an order polytope's vertices does.
    """
    hom = cfg.homogeneous
    return list(map(sum, zip(*map(hom, z.plus)))) == list(map(sum, zip(*map(hom, z.minus))))


def circuit_json(circuit: Circuit, cfg: PointConfiguration) -> dict:
    """JSON-ready view of a circuit, columns named by their filter generators."""
    return {'plus': [list(cfg.column_labels[j]) for j in circuit.plus],
            'minus': [list(cfg.column_labels[j]) for j in circuit.minus]}


def _vertex_indices(subgraph):
    if isinstance(subgraph, int):
        return [i for i in range(subgraph.bit_length()) if subgraph >> i & 1]
    return sorted(set(int(i) for i in subgraph))


def _gamma(ctx: WordContext, idxs) -> Circuit:
    """Signed sum of square relations over the selected subgraph vertices."""
    g = word_graph(ctx.word)
    if not idxs:
        raise CircuitError('subgraph is empty')
    if idxs[0] < 0 or idxs[-1] >= g.vertex_count:
        raise CircuitError('subgraph vertex out of range 0..%d' % (g.vertex_count - 1))
    coeff = {}
    odd = set()
    sign = 1
    prev = None
    for i in idxs:
        if prev is not None:
            if i - prev == 2 and (prev, i) in g.edges:
                sign = -sign
            elif i - prev != 1:
                raise CircuitError('subgraph is not connected')
        sq = ctx.labeling.ladders.squares[i]
        for e, s in ((sq.top, sign), (sq.bottom, sign),
                     (sq.left, -sign), (sq.right, -sign)):
            c = ctx.column_of[e]
            coeff[c] = coeff.get(c, 0) + s
        odd ^= set(ctx.column_of[e] for e in sq.elements())
        prev = i
    support = {c: v for c, v in sorted(coeff.items()) if v}
    if set(support) != odd:
        raise CircuitError('signed support differs from the odd-square support')
    if any(v not in (-1, 1) for v in support.values()):
        raise CircuitError('circuit coefficients must be +1 or -1')
    if 0 in support or len(ctx.config.columns) - 1 in support:
        raise CircuitError('circuit touches the empty or the full filter')
    z = Circuit.make([c for c, v in support.items() if v > 0],
                     [c for c, v in support.items() if v < 0])
    if not is_unit_dependence(ctx.config, z):
        raise CircuitError('signed columns are not an exact dependence')
    cols = [ctx.config.homogeneous(c) for c in support]
    if len(integer_kernel(list(zip(*cols)))) != 1:
        raise CircuitError('circuit support is not minimally dependent')
    return z

