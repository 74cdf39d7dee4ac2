"""Circuits of the order polytope vertex configuration of Q_w."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from .exact import BudgetError, integer_normal
from .polytope import PointConfiguration, order_polytope_vertices
from .posets import (FilterLattice, Poset, RegularityLabeling, adjoin_bounds,
                     build_snake_poset, filter_lattice, regularity_labeling,
                     squares_of)
from .words import (SnakeWord, WordError, connected_induced_subgraphs, is_in_V,
                    word_graph)

_BRUTE_PRIME = (1 << 61) - 1


class CircuitError(ValueError):
    """Raised for invalid circuit constructions."""


@dataclass(frozen=True)
class Circuit:
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
    """Lattice, labeling, and vertex configuration shared by circuit work."""

    word: SnakeWord
    phat: Poset
    labeling: RegularityLabeling
    lattice: FilterLattice
    config: PointConfiguration
    column_of: Dict[int, int]
    element_of: Tuple[int, ...]
    squares: tuple


@lru_cache(maxsize=None)
def word_context(w: SnakeWord) -> WordContext:
    """Build the bounded lattice of w and the column order of O(Q_w)."""
    if not is_in_V(w):
        raise WordError('circuits are defined only for words avoiding LRL/RLR')
    phat = adjoin_bounds(build_snake_poset(w))
    labeling = regularity_labeling(phat, w)
    lattice = filter_lattice(labeling.q)
    config = order_polytope_vertices(labeling.q)
    column_of = {e: lattice.index(mask) for e, mask in labeling.phi_mask.items()}
    element_of = [0] * phat.size
    for e, j in column_of.items():
        element_of[j] = e
    squares = tuple(squares_of(phat, w))
    return WordContext(w, phat, labeling, lattice, config, column_of,
                       tuple(element_of), squares)


def circuit_from_subgraph(w: SnakeWord, subgraph) -> Circuit:
    """Circuit carried by a connected induced subgraph of the companion graph."""
    ctx = word_context(w)
    return _gamma(ctx, _vertex_indices(subgraph))


def all_circuits(w: SnakeWord) -> Tuple[Circuit, ...]:
    """Circuits of all connected induced subgraphs, in canonical order."""
    ctx = word_context(w)
    g = word_graph(w)
    out = []
    for mask in connected_induced_subgraphs(g):
        out.append(_gamma(ctx, _vertex_indices(mask)))
    if len(set(out)) != len(out):
        raise CircuitError('subgraphs map to duplicate circuits')
    return tuple(sorted(out, key=lambda z: (z.plus, z.minus)))


def circuits_brute(cfg: PointConfiguration, budget: int = 2_000_000) -> Tuple[Circuit, ...]:
    """Every minimal affinely dependent column set, oriented by its dependence.

    Rank decisions run modulo a 61-bit prime; a Hadamard bound on the
    column entries guarantees they agree with the rationals, and each
    discovered support is re-solved exactly for its signs by
    exact.integer_normal on the support's columns.
    """
    m = len(cfg.columns)
    if m > 24:
        raise CircuitError('brute circuit search is limited to 24 columns, got %d' % m)
    cols = [tuple(int(v) for v in cfg.homogeneous(j)) for j in range(m)]
    height = len(cols[0]) if cols else 0
    largest = max((abs(v) for col in cols for v in col), default=0)
    s = min(height, m)
    p = _BRUTE_PRIME
    if s and (s * max(largest, 1) ** 2) ** s >= p * p:
        raise CircuitError('column entries too large for exact modular rank decisions')
    steps = 0
    found = []

    def extend(stack, basis):
        nonlocal steps
        start = stack[-1] + 1 if stack else 0
        for j in range(start, m):
            steps += 1
            if steps > budget:
                raise BudgetError('brute circuit search exceeded %d steps' % budget)
            vec = [v % p for v in cols[j]]
            combo = {j: 1}
            for piv, bvec, bcombo in basis:
                f = vec[piv]
                if f:
                    vec = [(a - f * b) % p for a, b in zip(vec, bvec)]
                    for k, v in bcombo.items():
                        combo[k] = (combo.get(k, 0) - f * v) % p
            piv = next((r for r, a in enumerate(vec) if a), None)
            if piv is None:
                support = sorted(k for k, v in combo.items() if v)
                if support == stack + [j]:
                    found.append(_orient(cols, support))
            else:
                inv = pow(vec[piv], p - 2, p)
                nvec = [a * inv % p for a in vec]
                ncombo = {k: v * inv % p for k, v in combo.items() if v}
                extend(stack + [j], basis + [(piv, nvec, ncombo)])

    extend([], [])
    return tuple(sorted(found, key=lambda z: (z.plus, z.minus)))


def circuit_size_bounds(w: SnakeWord) -> Tuple[int, int]:
    """Smallest and largest circuit size: 4 and 4 plus twice the turn count."""
    return 4, 4 + 2 * len(w.turns())


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
        sq = ctx.squares[i]
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
    cols = [ctx.config.homogeneous(c) for c in support]
    height = len(cols[0])
    signs = list(support.values())
    for r in range(height):
        if sum(s * col[r] for s, col in zip(signs, cols)) != 0:
            raise CircuitError('signed columns are not an exact dependence')
    if integer_normal(list(zip(*cols))) is None:
        raise CircuitError('circuit support is not minimally dependent')
    return Circuit.make([c for c, v in support.items() if v > 0],
                        [c for c, v in support.items() if v < 0])


def _orient(cols, support) -> Circuit:
    coeffs = integer_normal(list(zip(*(cols[k] for k in support))))
    if coeffs is None or any(c == 0 for c in coeffs):
        raise CircuitError('modular dependence not confirmed over the rationals')
    return Circuit.make([k for k, c in zip(support, coeffs) if c > 0],
                        [k for k, c in zip(support, coeffs) if c < 0])
