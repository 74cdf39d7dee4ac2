"""Order polytopes as point configurations, canonical triangulations, volumes."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Tuple

from .exact import determinant
from .posets import Poset, filter_lattice, maximal_chains


class PolytopeError(ValueError):
    """Raised for invalid point configurations or simplices."""


@dataclass(frozen=True)
class PointConfiguration:
    """Integer points as columns, one per vertex of the polytope."""

    dim: int
    columns: Tuple[Tuple[int, ...], ...]
    column_labels: Tuple[Tuple[int, ...], ...]

    def homogeneous(self, j: int) -> Tuple[int, ...]:
        """Column j with the all-ones row appended."""
        return self.columns[j] + (1,)


class Triangulation(NamedTuple):
    """A set of full-dimensional simplices in canonical sorted form."""

    config: PointConfiguration
    simplices: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def make(config: PointConfiguration, simplices) -> 'Triangulation':
        canon = tuple(sorted(tuple(sorted(s)) for s in simplices))
        if len(set(canon)) != len(canon):
            raise PolytopeError('duplicate simplices')
        return Triangulation(config, canon)


def order_polytope_vertices(q: Poset) -> PointConfiguration:
    """Vertices of O(q): characteristic vectors of filters, in canonical order."""
    return _lattice_vertices(q, filter_lattice(q))


def _lattice_vertices(q: Poset, lat) -> PointConfiguration:
    """order_polytope_vertices read off lat, the filter lattice of q."""
    columns = tuple(tuple(mask >> e & 1 for e in range(q.size)) for mask in lat.filters)
    names = q.labels if q.labels else tuple(range(q.size))
    labels = tuple(tuple(sorted(names[x] for x in gens)) for gens in lat.generator_sets)
    if len(set(columns)) != len(columns):
        raise PolytopeError('duplicate vertex columns')
    return PointConfiguration(dim=q.size, columns=columns, column_labels=labels)


def canonical_triangulation(q: Poset) -> Triangulation:
    """Stanley's triangulation: one simplex per maximal chain of the filter lattice."""
    lat = filter_lattice(q)
    return Triangulation.make(_lattice_vertices(q, lat), maximal_chains(lat))


def simplex_volume(cfg: PointConfiguration, simplex) -> int:
    """Normalized volume: |det| of the homogenized columns of the simplex."""
    idx = tuple(simplex)
    if len(idx) != cfg.dim + 1:
        raise PolytopeError('simplex needs %d vertices, got %d' % (cfg.dim + 1, len(idx)))
    return abs(_simplex_volume_cached(cfg, idx))


@lru_cache(maxsize=None)
def _simplex_volume_cached(cfg: PointConfiguration, idx: Tuple[int, ...]) -> int:
    """Signed determinant of the homogenized columns idx, in the order given."""
    # the columns as rows: the transpose has the same determinant
    return determinant([cfg.homogeneous(j) for j in idx])


@lru_cache(maxsize=None)
def expected_normalized_volume(cfg: PointConfiguration) -> int:
    """Volume of an order polytope: maximal chains of the column containment order.

    Only 0/1 columns closed under componentwise min and max form a lattice of
    filters (Birkhoff) whose chain count is the volume (Stanley); any other
    configuration raises PolytopeError.  Chains step up one coordinate at a
    time, so a configuration that is not full-dimensional counts 0.
    """
    present = set(cfg.columns)
    if any(x not in (0, 1) for col in present for x in col) or any(
            tuple(map(f, a, b)) not in present
            for f in (min, max) for a in present for b in present):
        raise PolytopeError('volume by chain count needs 0/1 columns closed under min and max')
    # a cover of a filter lattice adds one element, so a column's chains from
    # the bottom are the sum over the columns one coordinate below it
    order = sorted(present, key=sum)
    chains = {order[0]: 1}
    for col in order[1:]:
        chains[col] = sum(chains.get(col[:i] + (0,) + col[i + 1:], 0)
                          for i, x in enumerate(col) if x)
    return chains[order[-1]]


def walls(simplices) -> Dict[Tuple[int, ...], List[Tuple[int, int]]]:
    """Facet -> [(simplex position, apex), ...] of sorted simplex tuples.

    Cofaces are listed by position; in a triangulation an interior wall has
    two and a boundary wall one.
    """
    out: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
    for pos, s in enumerate(simplices):
        for drop in range(len(s)):
            out.setdefault(s[:drop] + s[drop + 1:], []).append((pos, s[drop]))
    return out


def _circuit_cells(ncols: int, simplices, circuits):
    """Per simplex, its clash bitset, circuit cells and crossed walls, from one circuit pass.

    Returns (clash, cells, crossed).  Bit p of clash[pos] is set when
    simplices pos and p do not meet properly: some circuit has Z+ in one
    and Z- in the other (De Loera, Rambau and Santos 2010, ch. 4); a
    simplex holding a whole support clashes with itself.  cells[pos] lists,
    flat and in circuit order, the triple j, support, side for each circuit
    Z whose only column outside the simplex is j, with Z's support and j's
    side of Z as column masks.  j's barycentric coordinate on a column a of
    Z - j is -lambda_a / lambda_j, so j lies beyond the wall opposite each
    a on j's side; conversely a column beyond that wall forms such a
    circuit.  With every circuit listed once, each column outside a full
    simplex has exactly one cell; a missing or repeated circuit leaves it
    none or two.  crossed[pos] is the OR of the simplex's cells' sides: for
    a column a of the simplex, bit a is set when some column lies beyond
    the wall opposite a.
    flips._Cells fills the same cells lazily, one simplex mask at a time
    inside the flip search, where its scan is the hot layer; it is not
    folded into this pass.
    """
    holding = [0] * ncols
    for pos, s in enumerate(simplices):
        for c in s:
            holding[c] |= 1 << pos

    def held(cols):
        got = -1
        for c in cols:
            got &= holding[c]
        return got

    clash = [0] * len(simplices)
    crossed = [0] * len(simplices)
    cells: List[List[int]] = [[] for _ in simplices]
    for z in circuits:
        plus, minus = held(z.plus), held(z.minus)
        for side, mine, other in ((z.plus, plus, minus), (z.minus, minus, plus)):
            if not other:
                continue
            found = mine
            while found:
                low = found & -found
                clash[low.bit_length() - 1] |= other
                found ^= low
            columns = sum(1 << c for c in side)
            support = sum(1 << c for c in z.plus + z.minus)
            for j in side:
                found = other & held(c for c in side if c != j) & ~holding[j]
                while found:
                    low = found & -found
                    pos = low.bit_length() - 1
                    cells[pos] += (j, support, columns)
                    crossed[pos] |= columns
                    found ^= low
    return clash, cells, crossed


def is_triangulation(cfg: PointConfiguration, simplices, circuits) -> bool:
    """Whether the simplices triangulate the configuration, read off its circuits alone.

    circuits is the complete circuit list of cfg (as from all_circuits or
    circuits_brute), and the verdict is only as complete as that list; no
    determinant is taken.  The list must be non-empty, of distinct
    simplices of dim + 1 distinct columns, and:

    - no simplex holds a circuit's support, so each is full-dimensional;
    - no circuit has Z+ in one simplex and Z- in another, so any two meet
      properly (no clash in _circuit_cells);
    - no facet has more than two cofaces, and no column lies beyond the
      wall of a facet with one (the crossed masks of _circuit_cells), so
      that wall lies on the boundary.

    Full simplices that meet properly and leave no interior wall unmatched
    cover the convex hull, since a point where their union ends inside it
    lies on such a wall (De Loera, Rambau and Santos 2010, ch. 4).
    """
    ncols = len(cfg.columns)
    canon = [tuple(sorted(s)) for s in simplices]
    if not canon or len(set(canon)) != len(canon) or any(
            len(s) != cfg.dim + 1 or len(set(s)) != len(s) or s[0] < 0 or s[-1] >= ncols
            for s in canon):
        return False
    clash, _, crossed = _circuit_cells(ncols, canon, circuits)
    if any(clash):
        return False
    for cofaces in walls(canon).values():
        if len(cofaces) > 2:
            return False
        if len(cofaces) == 1:
            pos, apex = cofaces[0]
            if crossed[pos] >> apex & 1:
                return False
    return True


def is_unimodular(tri: Triangulation) -> bool:
    """Whether every simplex of the triangulation has normalized volume one."""
    return all(simplex_volume(tri.config, s) == 1 for s in tri.simplices)
