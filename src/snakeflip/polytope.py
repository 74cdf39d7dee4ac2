"""Order polytopes as point configurations, canonical triangulations, volumes."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, NamedTuple, Tuple

from .exact import adjugate, det_int
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

    @cached_property
    def facet_masks(self) -> Tuple[int, ...]:
        """Per column, a bitmask of the facet inequalities of the configuration tight on it.

        The inequalities are x_i >= 0, x_i <= 1, and x_i <= x_j wherever
        every column with x_i = 1 has x_j = 1; an inequality tight on every
        column is dropped.  The configuration must pass
        expected_normalized_volume.  Computed on first use and kept with the
        configuration.
        """
        expected_normalized_volume(self)
        n = self.dim
        cols = self.columns
        tight = [[col[i] == 0 for col in cols] for i in range(n)]
        tight += [[col[i] == 1 for col in cols] for i in range(n)]
        tight += [[col[i] == col[j] for col in cols]
                  for i in range(n) for j in range(n)
                  if i != j and all(col[j] for col in cols if col[i])]
        masks = [0] * len(cols)
        for bit, row in enumerate(r for r in tight if not all(r)):
            for c, on in enumerate(row):
                if on:
                    masks[c] |= 1 << bit
        return tuple(masks)


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
    lat = filter_lattice(q)
    columns = tuple(tuple(mask >> e & 1 for e in range(q.size)) for mask in lat.filters)
    names = q.labels if q.labels else tuple(range(q.size))
    labels = tuple(tuple(sorted(names[x] for x in gens)) for gens in lat.generator_sets)
    if len(set(columns)) != len(columns):
        raise PolytopeError('duplicate vertex columns')
    return PointConfiguration(dim=q.size, columns=columns, column_labels=labels)


def canonical_triangulation(q: Poset) -> Triangulation:
    """Stanley's triangulation: one simplex per maximal chain of the filter lattice."""
    lat = filter_lattice(q)
    config = order_polytope_vertices(q)
    return Triangulation.make(config, maximal_chains(lat))


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
    return det_int(map(cfg.homogeneous, idx))


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


def simplex_normals(cfg: PointConfiguration, simplex):
    """Normalized volume and apex-signed wall normals of a simplex, by one adjugate.

    Row k of the adjugate of the simplex's homogenized columns vanishes on
    every column but simplex[k], where it equals the determinant.  Signed by
    the determinant, it is the normal of the wall opposite simplex[k],
    positive on that apex, with normals[k] . simplex[k] the volume.  Returns
    (0, None) for a degenerate simplex.
    """
    det, adj = adjugate(list(zip(*map(cfg.homogeneous, simplex))))
    if det < 0:
        adj = [[-x for x in row] for row in adj]
    return abs(det), adj


def is_boundary_wall(cfg: PointConfiguration, wall) -> bool:
    """Whether the columns of a wall lie on a common facet of the configuration.

    The wall is a set of column indices.  On the 0/1 columns closed under
    componentwise min and max that expected_normalized_volume accepts, the
    convex hull is an order polytope, whose facets are x_i >= 0, x_i <= 1 and
    x_i <= x_j for a cover i < j (Stanley 1986).  The wall of a full
    simplex spans a hyperplane, and it lies on the boundary exactly when
    that hyperplane is a facet's, so exactly when one of these inequalities
    not tight on every column is tight on each of its columns: when the AND
    of their PointConfiguration.facet_masks is nonzero.
    """
    masks = cfg.facet_masks
    common = -1
    for c in wall:
        common &= masks[c]
    return common != 0


def is_triangulation(cfg: PointConfiguration, simplices) -> bool:
    """Union property plus the wall certificate, from one signed determinant per simplex.

    The determinant of each sorted simplex comes from the cache that
    simplex_volume reads too.  The union property compares the summed
    simplex volumes |det| with expected_normalized_volume, so the
    configuration must be the 0/1 vertex set of an order polytope; any other
    configuration raises PolytopeError.
    An empty list covers nothing and is rejected.  A wall opposite position k
    of a sorted simplex s has the apex on the side sgn(det s) * (-1)^k, since
    moving the apex column to the front takes k transpositions.  An interior
    wall is certified when its two cofaces put their apexes on opposite
    sides, a boundary wall when is_boundary_wall finds a facet of the
    polytope holding it; each wall of a full simplex spans a hyperplane, and
    the facets of an order polytope are among the inequalities that
    predicate tests.
    """
    canon = [tuple(sorted(s)) for s in simplices]
    if len(set(canon)) != len(canon):
        return False
    signs = []
    total = 0
    for s in canon:
        if len(s) != cfg.dim + 1 or len(set(s)) != len(s):
            return False
        det = _simplex_volume_cached(cfg, s)
        if det == 0:
            return False
        signs.append(1 if det > 0 else -1)
        total += abs(det)
    if total == 0 or total != expected_normalized_volume(cfg):
        return False
    for wall, cofaces in walls(canon).items():
        if len(cofaces) > 2:
            return False
        if len(cofaces) == 2:
            (p1, a1), (p2, a2) = cofaces
            k1, k2 = canon[p1].index(a1), canon[p2].index(a2)
            if signs[p1] * (-1) ** k1 == signs[p2] * (-1) ** k2:
                return False
        elif not is_boundary_wall(cfg, wall):
            return False
    return True


def is_unimodular(tri: Triangulation) -> bool:
    """Whether every simplex of the triangulation has normalized volume one."""
    return all(simplex_volume(tri.config, s) == 1 for s in tri.simplices)
