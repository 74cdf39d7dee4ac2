"""Order polytopes as point configurations, canonical triangulations, volumes."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

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


@dataclass(frozen=True)
class Triangulation:
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
    return _simplex_volume_cached(cfg, idx)


@lru_cache(maxsize=None)
def _simplex_volume_cached(cfg: PointConfiguration, idx: Tuple[int, ...]) -> int:
    cols = [cfg.homogeneous(j) for j in idx]
    matrix = [[cols[k][i] for k in range(len(cols))] for i in range(cfg.dim + 1)]
    return abs(det_int(matrix))


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
    det, adj = adjugate([[cfg.homogeneous(j)[i] for j in simplex] for i in range(cfg.dim + 1)])
    if det < 0:
        adj = [[-x for x in row] for row in adj]
    return abs(det), adj


def _side(normal, column) -> int:
    """normal . (column, 1): the homogenized column against a wall normal."""
    return normal[-1] + sum(a * b for a, b in zip(normal, column))


def is_boundary_wall(cfg: PointConfiguration, normal) -> bool:
    """Whether no column lies strictly on the negative side of an apex-positive normal."""
    return all(_side(normal, col) >= 0 for col in cfg.columns)


def is_triangulation(cfg: PointConfiguration, simplices) -> bool:
    """Union property plus the wall certificate.

    The union property compares the summed simplex volumes with
    expected_normalized_volume, so the configuration must be the 0/1 vertex
    set of an order polytope; any other configuration raises PolytopeError.
    Each simplex's volume and wall normals come from simplex_normals, one
    adjugate per simplex and call.  An interior wall is certified when its
    second apex lies strictly on the negative side of the first coface's
    normal, a boundary wall by is_boundary_wall.
    """
    canon = [tuple(sorted(s)) for s in simplices]
    if len(set(canon)) != len(canon):
        return False
    normals = []
    total = 0
    for s in canon:
        if len(s) != cfg.dim + 1 or len(set(s)) != len(s):
            return False
        vol, rows = simplex_normals(cfg, s)
        if vol == 0:
            return False
        normals.append(dict(zip(s, rows)))
        total += vol
    if total != expected_normalized_volume(cfg):
        return False
    for cofaces in walls(canon).values():
        if len(cofaces) > 2:
            return False
        pos, apex = cofaces[0]
        nu = normals[pos][apex]
        if len(cofaces) == 2:
            if _side(nu, cfg.columns[cofaces[1][1]]) >= 0:
                return False
        elif not is_boundary_wall(cfg, nu):
            return False
    return True


def is_unimodular(tri: Triangulation) -> bool:
    """Whether every simplex of the triangulation has normalized volume one."""
    return all(simplex_volume(tri.config, s) == 1 for s in tri.simplices)
