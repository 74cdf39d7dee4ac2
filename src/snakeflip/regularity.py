"""Canonical orders, exact height functions, folding forms, and regularity."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import itemgetter, mul
from typing import Dict, List, NamedTuple, Optional, Tuple

from .circuits import all_circuits, word_context
from .exact import adjugate, lp_feasible
from .flips import (_Cells, _decode, _encode, _node, _search, _Search, canonical_of,
                    dual_graph, explore_flip_graph, graphs_isomorphic, triangulation_hash)
from .polytope import PointConfiguration, Triangulation, _circuit_cells, walls
from .posets import build_snake_poset, digraph_isomorphism
from .twists import Twist, all_twists, elementary_twist
from .volumes import catalan
from .words import SnakeWord


class RegularityError(ValueError):
    """Raised for invalid regularity inputs or broken internal certificates."""


class CanonicalOrder(NamedTuple):
    """Interleaved height order of the rung labels and its position table."""

    word: SnakeWord
    sequence: Tuple[int, ...]
    rho: Tuple[int, ...]


def canonical_order(w: SnakeWord) -> CanonicalOrder:
    """Order x_0, x_2, x_1, x_4, x_3, ... with the top label first."""
    word_context(w)
    n = len(w)
    seq = [0]
    for j in range(1, n + 3):
        seq.extend((2 * j, 2 * j - 1))
    seq.append(2 * n + 5)
    rho = [0] * len(seq)
    for pos, label in enumerate(seq):
        rho[label] = pos
    return CanonicalOrder(w, tuple(seq), tuple(rho))


@dataclass(frozen=True)
class HeightFunction:
    """Exact lifting heights, one per configuration column."""

    heights: Tuple

    def __getitem__(self, column: int):
        return self.heights[column]


def height_function(w: SnakeWord, tau: Optional[Twist] = None) -> HeightFunction:
    """Powers of two along the canonical order, pulled back through a twist."""
    ctx = word_context(w)
    if tau is not None and tau.word != w:
        raise RegularityError('twist belongs to a different word')
    order = canonical_order(w)
    perm = tau.permutation if tau is not None else tuple(range(ctx.phat.size))
    x_index = ctx.labeling.x_index
    heights = []
    for c in range(len(ctx.config.columns)):
        e = ctx.element_of[c]
        heights.append(2 ** order.rho[x_index[perm[e]]])
    return HeightFunction(tuple(heights))


def _folding_base(cfg: PointConfiguration, idx, heights):
    """|det M| and lift = sgn(det M) * sum_k h_k adj(M)_k for the base columns M.

    Row k of adj(M) vanishes on every column of M but the k-th, where it is
    det M, so lift . x = |det M| * l(x) for the affine function l that
    equals the heights on M.
    """
    det, adj = adjugate(list(zip(*map(cfg.homogeneous, idx))))
    if det == 0:
        raise RegularityError('folding base is degenerate')
    sign = 1 if det > 0 else -1
    hs = [sign * heights[j] for j in idx]
    return abs(det), [sum(map(mul, hs, column)) for column in zip(*adj)]


def _fold(cfg: PointConfiguration, base, p: int, heights):
    """|det M| * h_p - lift . x_p, for base = (|det M|, lift) from _folding_base.

    That is |det M| times the height of x_p above the affine function l of
    the base's heights, an int when it is integral and a Fraction otherwise.
    """
    vol, lift = base
    value = vol * heights[p] - sum(map(mul, lift, cfg.homogeneous(p)))
    return int(value) if value.denominator == 1 else value


def _exact(values) -> List:
    return [h if isinstance(h, int) else Fraction(h) for h in values]


def folding_form(cfg: PointConfiguration, simplex, p: int, omega: HeightFunction):
    """Signed cofactor of the lifted column against an affinely independent base.

    This is det([[M, x_p], [h_M, h_p]]) times the sign of det M, for the base
    columns M, the column x_p and their heights: |det M| times how far the
    lifted x_p lies above the hyperplane through the lifted base, read off
    one lifting vector from M's adjugate (_folding_base).
    """
    idx = tuple(sorted(simplex))
    if len(idx) != cfg.dim + 1:
        raise RegularityError('folding base needs %d columns, got %d' % (cfg.dim + 1, len(idx)))
    heights = _exact(omega.heights)
    return _fold(cfg, _folding_base(cfg, idx, heights), p, heights)


def _walls(tri: Triangulation):
    out = []
    for f, incident in sorted(walls(tri.simplices).items()):
        if len(incident) > 2:
            raise RegularityError('facet %r has %d cofaces' % (f, len(incident)))
        if len(incident) == 2:
            (i1, v1), (i2, v2) = incident
            out.append((f, i1, v1, i2, v2))
    return out


class WallCheck(NamedTuple):
    """Folding forms across one interior wall."""

    facet: Tuple[int, ...]
    simplices: Tuple[int, int]
    opposite: Tuple[int, int]
    forms: Tuple


class FoldingReport(NamedTuple):
    """All wall checks for one height function."""

    walls: Tuple[WallCheck, ...]
    verdict: bool
    first_violation: Optional[int]

    def __bool__(self) -> bool:
        return self.verdict


def verify_local_folding(tri: Triangulation, omega: HeightFunction) -> FoldingReport:
    """Certify that the heights select this triangulation across every wall.

    Each simplex's adjugate is taken at most once per call, for the lifting
    vector of its heights that every folding form across its walls reads.
    """
    cfg = tri.config
    heights = _exact(omega.heights)
    bases: Dict[int, Tuple] = {}

    def form(i, p):
        if i not in bases:
            bases[i] = _folding_base(cfg, tri.simplices[i], heights)
        return _fold(cfg, bases[i], p, heights)

    checks = []
    verdict = True
    first = None
    for f, i1, v1, i2, v2 in _walls(tri):
        psi1 = form(i2, v1)
        psi2 = form(i1, v2)
        checks.append(WallCheck(f, (i1, i2), (v1, v2), (psi1, psi2)))
        if verdict and (psi1 <= 0 or psi2 <= 0):
            verdict = False
            first = len(checks) - 1
    return FoldingReport(tuple(checks), verdict, first)


def _wall_rows(cells: _Cells, sides) -> List[Tuple]:
    """The +-1 wall rows of the sides, in their order (flips._Cells.row).

    A side whose circuit's +-1 vector is not a dependence of the columns
    raises RegularityError instead of giving a wrong row.
    """
    rows = []
    for s in sides:
        row = cells.row(s)
        if row is None:
            raise RegularityError('circuit %r is not a dependence of the columns'
                                  % (cells.circuits[s >> 1],))
        rows.append(row)
    return rows


def _checked_rows(tri: Triangulation, circuits) -> List[Tuple]:
    """Deduplicated +-1 inequalities, one per wall: the wall pair's one circuit.

    One facet pass counts the interior walls I and raises on a facet with
    more than two cofaces.  The scan of the cells (flips._Cells.scan)
    matches each wall to the listed circuits that hold both its simplices'
    cells with both apexes on one side; when the matches are not I, some
    wall matched no circuit or several (a short or duplicated list, or two
    simplices on one side of their wall) and RegularityError is raised.
    The rows come in the order of the first wall each matches, the walls
    taken in the order of their column tuples.
    """
    interior = len(_walls(tri))
    cells = _Cells(tri.config, circuits)
    _, matched, sides = cells.scan(_node(tri)[1])
    if matched != interior:
        raise RegularityError('%d interior walls match circuits %d times' % (interior, matched))
    return _wall_rows(cells, sides)


class RegularityResult(NamedTuple):
    """Feasibility verdict with witness heights when regular, a Gordan certificate when not.

    certificate holds one nonnegative primitive integer multiplier per wall
    row, in the order of the deduplicated wall rows (walls in the order of
    their column tuples), whose combination of the rows is the zero vector;
    it is None when regular.
    """

    regular: bool
    heights: Optional[HeightFunction]
    slack: Optional[Fraction]
    constraints: int
    certificate: Optional[Tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.regular


def is_regular(tri: Triangulation, circuits, verify: bool = False) -> RegularityResult:
    """Decide by exact feasibility whether some heights select this triangulation.

    circuits must be the complete circuit list of tri.config, as from
    all_circuits or circuits_brute; each interior wall reads its inequality
    from the one circuit in its two simplices (_checked_rows).  Walls that
    do not match exactly one circuit each, counted against one facet pass,
    or a matched circuit that is not a dependence of the columns, raise
    RegularityError.  The rows take every circuit coefficient to be
    +-1, as on order polytopes; a configuration with other circuit
    coefficients raises RegularityError ('not a dependence') rather than
    return a verdict.  _decide turns the rows into the verdict: witness
    heights with tri.simplices[0] at height 0 and slack, their least
    wall-row value, exactly 1; or a Gordan certificate and slack 0.
    """
    cfg = tri.config
    rows = _checked_rows(tri, circuits)
    result = _decide(rows, tri.simplices[0], len(cfg.columns))
    if verify and result and not verify_local_folding(tri, result.heights).verdict:
        raise RegularityError('witness heights fail the folding certificate')
    return result


def _decide(rows: List[Tuple], pinned, ncols: int) -> RegularityResult:
    """Phase-1 feasibility of heights h >= 0, zero on pinned, with every <row, h> >= 1.

    Some heights select the triangulation exactly when every wall row is
    positive on them.  The rows are dependences of the columns, so adding an
    affine function changes no row value; subtracting the one that agrees
    with h on the pinned simplex, a cell of the lower hull, leaves h zero
    there and positive elsewhere (De Loera, Rambau and Santos 2010, ch. 5),
    and scaling makes every row at least 1.  So the program is [R | -I] x =
    1, x >= 0 over the free heights and one surplus per row, with no
    objective.  Its solution is a vertex, where some row is tight: the least
    row value, slack, is exactly 1.  When it is infeasible, Gordan's
    alternative gives y >= 0, y != 0 with sum y_i row_i = 0; the second
    program is sum y_i row_i = 0 on every column and sum y_i = 1, and its y,
    as primitive integers, is checked against the rows before it is
    returned.  Both programs go to lp_feasible.  If neither is feasible,
    RegularityError is raised.  The rows are flips._Cells.row tuples, and
    each program reads a row's coefficients off its two column masks.
    """
    pinned = set(pinned)
    free = [c for c in range(ncols) if c not in pinned]
    m = len(free)
    nrows = len(rows)
    # dense[r][c] is row r's coefficient on column c, bit 1 << (ncols - 1 - c)
    bits = [1 << (ncols - 1 - c) for c in range(ncols)]
    dense = [[bool(plus & bit) - bool(minus & bit) for bit in bits] for plus, minus, _, _ in rows]
    A = []
    for r, coeffs in enumerate(dense):
        row = [coeffs[c] for c in free] + [0] * nrows
        row[m + r] = -1
        A.append(row)
    x = lp_feasible(A, [1] * nrows, m + nrows)
    if x is not None:
        heights = [Fraction(0)] * ncols
        for c, h in zip(free, x):
            heights[c] = h
        # <row_r, h> = 1 + surplus_r
        slack = 1 + min(x[m:], default=Fraction(0))
        return RegularityResult(True, HeightFunction(tuple(heights)), slack, nrows)
    columns = list(zip(*dense))
    y = lp_feasible(columns + [[1] * nrows], [0] * ncols + [1], nrows)
    if y is None:
        raise RegularityError('neither heights nor a Gordan certificate exist')
    certificate = tuple(_primitive(y))
    if any(sum(map(mul, certificate, column)) for column in columns):
        raise RegularityError('Gordan certificate does not sum the wall rows to zero')
    return RegularityResult(False, None, Fraction(0), nrows, certificate)


def _snake_poset(n: int):
    letters = tuple('L' if i % 2 == 0 else 'R' for i in range(n))
    return build_snake_poset(SnakeWord(letters))


@lru_cache(maxsize=None)
def snake_polytope_word(n: int) -> SnakeWord:
    """Word whose meet-irreducible poset is the length-n alternating snake."""
    if n < 1:
        raise RegularityError('snake index must be at least 1')
    letters = ['L']
    j = 1
    while len(letters) < 2 * n:
        letters.extend(('R' if j % 2 == 1 else 'L',) * 2)
        j += 1
    w = SnakeWord(tuple(letters[:2 * n]))
    if not word_context(w).labeling.q.isomorphic(_snake_poset(n)):
        raise RegularityError('constructed word does not realize the snake poset')
    return w


def _keeps_circuits(circuits, perms) -> bool:
    """Whether every column permutation maps the listed circuits onto themselves.

    Each circuit's two sides are mapped and the unordered pair looked up
    among the listed ones, so a map may swap a circuit's sides, as every
    twist of LR does on 3 to 6 of its 7.  On a complete list of +-1
    circuits, as of an order polytope, this holds exactly when the
    permutation is an affine map of the ambient space: the circuits span
    the affine dependences, so a permutation that keeps them keeps the
    kernel of the homogenized column matrix, hence its row space, all-ones
    row included, and is induced by an affine map of the full-dimensional
    configuration; conversely an affine map keeps every minimal dependence.
    """
    def pair(z, perm):
        return frozenset((frozenset(map(perm.__getitem__, z.plus)),
                          frozenset(map(perm.__getitem__, z.minus))))

    listed = {frozenset((frozenset(z.plus), frozenset(z.minus))) for z in circuits}
    return all(pair(z, perm) in listed for perm in perms for z in circuits)


def _reversal(w: SnakeWord) -> Optional[Tuple[int, ...]]:
    """The columns permuted by an order-reversing automorphism of the bounded lattice.

    The map carries the cover digraph of ctx.phat onto its reverse, so it
    maps each element x to some x' with x <= y exactly when y' <= x'; None
    when no such map exists.
    """
    ctx = word_context(w)
    phat = ctx.phat
    flip = digraph_isomorphism(phat.size, phat.covers, [(hi, lo) for lo, hi in phat.covers])
    if flip is None:
        return None
    return tuple(ctx.column_of[flip[e]] for e in ctx.element_of)


def _is_root(simplex, cells, ncols: int) -> bool:
    """Whether a full simplex holds q = v_{N-1} + e v_{N-2} + ... + e^{N-1} v_0, e > 0 small.

    cells are the simplex's flat j, support, side cells from
    polytope._circuit_cells over the complete circuit list.  For each
    column c outside the simplex S, the one circuit Z_c inside S + c holds
    c, and it gives the signs of c's barycentric coordinates on S: + on
    Z_c's other side, - on c's own, 0 off its support.  Column a's
    coordinate of q takes the sign of its first nonzero term for c = N-1
    down to 0, where the term c = a counts +, so S holds q when no Z_c puts
    on c's own side a column a < c that no larger c' outside S decided.
    This uses signs only, and q lies on no wall of any full simplex
    (Edelsbrunner and Mücke 1990, "Simulation of Simplicity").  A column
    with no Z_c, or two, raises RegularityError: S is flat, or the list
    misses or repeats a circuit.
    """
    mask = sum(1 << c for c in simplex)
    fundamental = {}
    triples = iter(cells)
    for j, support, own in zip(triples, triples, triples):
        if j in fundamental:
            raise RegularityError('simplex %r is flat, or the circuit list repeats the '
                                  'circuit of column %d with it' % (simplex, j))
        fundamental[j] = (support, own)
    if len(fundamental) != ncols - len(simplex):
        raise RegularityError('simplex %r holds no listed circuit but is flat, or the '
                              'circuit list is incomplete' % (simplex,))
    decided = 0
    for j in sorted(fundamental, reverse=True):
        support, own = fundamental[j]
        if own & mask & ~decided & ((1 << j) - 1):
            return False
        decided |= support
    return True


def _root_orbits(ncols: int, roots: List[Tuple[int, ...]], perms,
                 circuits) -> Tuple[List[Tuple[int, ...]], int]:
    """Representatives of the roots' orbits under perms and the identity, and the orbit size.

    roots are sorted column tuples, and a root's orbit is its images under
    the listed elements G, the identity and perms, which need not be closed
    under composition.  The representatives, the first root of each orbit,
    stand for every root when each element maps the circuits onto the
    circuits, a sign flip allowed (_keeps_circuits), and so triangulations
    onto triangulations; every image of a root is a root; and the orbits
    split the roots into blocks of |G| distinct members.  Then an element g
    maps the root r of a triangulation T to a root of gT, its only one, so g
    is a bijection from the triangulations holding r to those holding g(r).
    When any of this fails, every root is its own representative and the
    orbit size is 1.  A perm that is not a permutation of the columns
    raises RegularityError.
    """
    identity = tuple(range(ncols))
    elements = {identity}
    for perm in perms:
        perm = tuple(perm)
        if sorted(perm) != list(identity):
            raise RegularityError('%r is not a permutation of the %d columns' % (perm, ncols))
        elements.add(perm)
    if len(elements) == 1 or not _keeps_circuits(circuits, elements):
        return roots, 1
    known = set(roots)
    reps = []
    seen = set()
    for r in roots:
        if r in seen:
            continue
        orbit = {tuple(sorted(map(perm.__getitem__, r))) for perm in elements}
        if not orbit <= known or len(orbit) < len(elements) or orbit & seen:
            return roots, 1
        seen |= orbit
        reps.append(r)
    return reps, len(elements)


_CHUNK = 4096  # candidates per _circuit_cells call in count_triangulations' root pass


def count_triangulations(cfg: PointConfiguration, circuits, perms,
                         budget_steps: int = 2_000_000):
    """The triangulations under one root per orbit of perms: (leaves, orbit_size, complete).

    circuits is the complete circuit list of cfg (as from all_circuits or
    circuits_brute), and everything comes from it.  One walk over
    index-increasing column sets lists the (d+1)-sets that hold no mask of
    a forbidden list, testing a new column j only against the masks whose
    largest column is j; one step is one attempted column.  With the
    circuits' supports forbidden it lists the candidates.

    Each triangulation holds exactly one root, a candidate holding a
    symbolic generic point q.  The roots are read off the circuits' signs
    (_is_root) in slices of _CHUNK candidates, so no determinant is taken
    and no table spans every candidate; a candidate that is flat, or lacks
    the one circuit it forms with some column, raises RegularityError: the
    list is incomplete or repeats a circuit.  The roots fall into orbits of
    perms and the identity (_root_orbits), all of orbit_size members, and
    the leaves are the triangulations that hold the first root of an orbit.
    The triangulations number orbit_size times the leaves, and every one is
    the image of a leaf under one element.  With no perms, or when the
    orbits fail their check, orbit_size is 1 and the leaves are every
    triangulation.

    Two candidates intersect properly exactly when no circuit Z has Z+ in
    one and Z- in the other (De Loera, Rambau and Santos 2010, ch. 4), so
    the walk under a representative r that also forbids each side of a
    circuit whose other side lies in r lists the candidates compatible with
    r, r included; polytope._circuit_cells on that list gives their clash
    bitsets and cells.  A facet is interior exactly when some column lies
    beyond it, which any one coface's cells show, and not the list's walls:
    a facet whose other coface clashes with r would look like boundary.

    The search under r keeps the candidates compatible with every chosen
    one and the open interior facets, those with one chosen coface:
    compatibility caps a facet at two, so a placed candidate toggles its
    facets.  It branches over the allowed cofaces of the open facet with the
    fewest, and records a triangulation when none is open.  A triangulation
    holding the chosen candidates has exactly one simplex across that facet,
    so the branches are disjoint.  budget_steps bounds the root walk's
    steps, then each representative's walk and search calls, together;
    past it, the leaves found so far are returned, sorted, with complete
    False, and none when the root walk itself ran out.
    """
    d = cfg.dim
    ncols = len(cfg.columns)
    supports = [sum(1 << c for c in z.support()) for z in circuits]
    sides = [(sum(1 << c for c in a), sum(1 << c for c in b))
             for z in circuits for a, b in ((z.plus, z.minus), (z.minus, z.plus))]
    steps = 0

    def walk(forbidden):
        closing: List[List[int]] = [[] for _ in range(ncols)]
        for mask in forbidden:
            closing[mask.bit_length() - 1].append(mask)
        found: List[Tuple[int, ...]] = []

        def grow(chosen, mask, first):
            nonlocal steps
            for j in range(first, ncols - d + len(chosen)):
                steps += 1
                if steps > budget_steps:
                    return False
                grown = mask | 1 << j
                for sup in closing[j]:
                    if sup & grown == sup:
                        break
                else:
                    if len(chosen) == d:
                        found.append(chosen + (j,))
                    elif not grow(chosen + (j,), grown, j + 1):
                        return False
            return True

        return found if grow((), 0, 0) else None

    candidates = walk(supports)
    if candidates is None:
        return (), 1, False
    roots = []
    for at in range(0, len(candidates), _CHUNK):
        chunk = candidates[at:at + _CHUNK]
        _, cells, _ = _circuit_cells(ncols, chunk, circuits)
        roots += [s for s, mine in zip(chunk, cells) if _is_root(s, mine, ncols)]
    reps, orbit_size = _root_orbits(ncols, roots, perms, circuits)

    complete = True
    results: List[Tuple[Tuple[int, ...], ...]] = []

    def search(allowed, open_facets):
        nonlocal steps, complete
        steps += 1
        if steps > budget_steps:
            complete = False
            return
        if not open_facets:
            results.append(tuple(candidates[ci] for ci in sorted(chosen)))
            return
        f = min(open_facets, key=lambda f: ((cofaces[f] & allowed).bit_count(), f))
        branch = cofaces[f] & allowed
        while branch and complete:
            low = branch & -branch
            ci = low.bit_length() - 1
            branch ^= low
            chosen.append(ci)
            search(allowed & ~(clash[ci] | low), open_facets ^ facets_of[ci])
            chosen.pop()

    for r in reps:
        held = sum(1 << c for c in r)
        candidates = walk(supports + [a for a, b in sides if b & held == b])
        if candidates is None:
            complete = False
            break
        clash, _, crossed = _circuit_cells(ncols, candidates, circuits)
        cofaces: Dict[Tuple[int, ...], int] = {}
        interior: List[List[Tuple[int, ...]]] = [[] for _ in candidates]
        for f, incident in walls(candidates).items():
            pos, apex = incident[0]
            if crossed[pos] >> apex & 1:
                cofaces[f] = sum(1 << ci for ci, _ in incident)
                for ci, _ in incident:
                    interior[ci].append(f)
        facets_of = list(map(frozenset, interior))
        at = candidates.index(r)
        chosen = [at]
        search((1 << len(candidates)) - 1 ^ 1 << at, facets_of[at])
    return tuple(sorted(results)), orbit_size, complete


def enumerate_triangulations(cfg: PointConfiguration, circuits, budget_steps: int = 2_000_000):
    """All triangulations, sorted, and whether the list is complete.

    This is count_triangulations without perms: the search runs under every
    root, and each triangulation holds exactly one.  budget_steps bounds the
    walk's steps and the searches' calls together; past it, the
    triangulations found so far are returned with complete False, and none
    when the walk itself ran out.
    """
    found, _, complete = count_triangulations(cfg, circuits, (), budget_steps)
    return found, complete


class DegreeReport(NamedTuple):
    """Flip-graph degrees against the expected constant."""

    word: str
    nodes: int
    secondary_dimension: int
    degrees: Tuple[Tuple[int, int], ...]
    k_regular: bool
    partial: bool


class DualGraphReport(NamedTuple):
    """Search for a regular triangulation with a new dual graph shape."""

    word: str
    searched: int
    expected_found: bool
    found: bool
    witness: Optional[str]
    witness_regular: Optional[bool]
    partial: bool


class CanonicalDualCountReport(NamedTuple):
    """Count of triangulations sharing the canonical dual graph shape."""

    n: int
    word: str
    nodes: int
    count: int
    expected: int
    matches: bool
    partial: bool


class ExhaustiveReport(NamedTuple):
    """Cross-check of flip search against full enumeration."""

    total: int
    flip_reachable: int
    regular: int
    complete: bool


class RegularCountReport(NamedTuple):
    """Count of regular triangulations against the conjectured formula.

    twist_orbits counts the twist orbits among the triangulations found,
    whichever group the search stored orbits of; affine_twists says whether
    the twists alone are affine.
    """

    n: int
    word: str
    nodes: int
    regular_nodes: int
    expected: int
    matches: bool
    partial: bool
    twist_orbits: int
    affine_twists: bool
    exhaustive: Optional[ExhaustiveReport]


def check_flip_degrees(w: SnakeWord, budget_nodes: int = 100000,
                       deadline: Optional[float] = None) -> DegreeReport:
    """Explore the flip graph and compare all degrees to the secondary dimension."""
    ctx = word_context(w)
    graph = explore_flip_graph(canonical_of(w), all_circuits(w),
                               budget=budget_nodes, deadline=deadline)
    k = len(ctx.config.columns) - ctx.config.dim - 1
    hist = Counter(graph.degrees())
    degrees = tuple(sorted(hist.items()))
    k_regular = not graph.partial and set(hist) == {k}
    return DegreeReport(str(w), len(graph.nodes), k, degrees, k_regular, graph.partial)


def find_new_dual_graph(w: SnakeWord, budget_nodes: int = 100000,
                        deadline: Optional[float] = None) -> DualGraphReport:
    """Look for a regular triangulation whose dual graph differs from canonical."""
    circuits = all_circuits(w)
    graph = explore_flip_graph(canonical_of(w), circuits,
                               budget=budget_nodes, deadline=deadline)
    base = dual_graph(graph.nodes[0])
    expected_found = any(w.letter(i) != w.letter(i + 1) for i in range(1, len(w)))
    for node in graph.nodes[1:]:
        if not graphs_isomorphic(dual_graph(node), base):
            regular = bool(is_regular(node, circuits))
            return DualGraphReport(str(w), len(graph.nodes), expected_found, True,
                                   triangulation_hash(node), regular, graph.partial)
    return DualGraphReport(str(w), len(graph.nodes), expected_found, False,
                           None, None, graph.partial)


def count_canonical_dual_graphs(n: int, budget_nodes: int = 100000,
                                deadline: Optional[float] = None) -> CanonicalDualCountReport:
    """Count explored triangulations whose dual graph matches the canonical one."""
    if n < 3:
        raise RegularityError('the single-turn family needs n >= 3')
    w = SnakeWord(('L',) + ('R',) * (n - 2))
    graph = explore_flip_graph(canonical_of(w), all_circuits(w),
                               budget=budget_nodes, deadline=deadline)
    base = dual_graph(graph.nodes[0])
    count = sum(1 for node in graph.nodes
                if graphs_isomorphic(dual_graph(node), base))
    expected = 4 * n * factorial(n - 2)
    matches = not graph.partial and count == expected
    return CanonicalDualCountReport(n, str(w), len(graph.nodes), count, expected,
                                    matches, graph.partial)


def _primitive(values) -> List[int]:
    """Heights on a common denominator, divided by their content."""
    exact = _exact(values)
    scale = lcm(*(h.denominator for h in exact))
    ints = [int(h * scale) for h in exact]
    g = gcd(*ints) or 1
    return [h // g for h in ints]


def _carry(omega, lam, rows) -> Optional[List[int]]:
    """Heights omega carried across the circuit lam on which every row is positive, or None.

    lam is the (plus, minus) column masks of a +-1 vector and every row a
    wall row (flips._Cells.row); the carried heights are omega - t lam for one
    rational t, as primitive integers.  <row, lam> is four popcounts of the
    masks.  The rows are positive exactly on an open interval of t, the one
    bounded by <row, omega> / <row, lam> over the rows with <row, lam>
    nonzero, so any t that works lies in it.  When it is not empty, its
    midpoint, a point one past its one finite end, or 0 when it has none,
    is the step; the heights it gives are accepted only once every row is
    positive on them.
    """
    plus, minus = lam
    values = [sum(p(omega)) - sum(m(omega)) for _, _, p, m in rows]
    shifts = [(rp & plus).bit_count() + (rm & minus).bit_count()
              - (rp & minus).bit_count() - (rm & plus).bit_count() for rp, rm, _, _ in rows]
    low = high = None
    for v, t in zip(values, shifts):
        if t > 0:
            if high is None or v * high[1] < high[0] * t:
                high = v, t
        elif t < 0:
            if low is None or v * low[1] > low[0] * t:
                low = v, t
        elif v <= 0:
            return None
    if low is None and high is None:
        step, scale = 0, 1
    elif high is None:
        step, scale = low[0] + low[1], low[1]
    elif low is None:
        step, scale = high[0] - high[1], high[1]
    elif low[0] * high[1] > high[0] * low[1]:
        # low[0] / low[1] < high[0] / high[1], with low[1] < 0 < high[1]
        step, scale = low[0] * high[1] + high[0] * low[1], 2 * low[1] * high[1]
    else:
        return None
    if scale < 0:
        step, scale = -step, -scale
    if not all(scale * v > step * t for v, t in zip(values, shifts)):
        return None
    heights = [scale * h for h in omega]
    for c in _decode(len(heights), plus):
        heights[c] -= step
    for c in _decode(len(heights), minus):
        heights[c] += step
    g = gcd(*heights) or 1
    return [h // g for h in heights]


class _Fold(NamedTuple):
    """Regularity of every node of a breadth-first flip search.

    witnesses[i] holds primitive integer heights that select node i, or None
    when the LP found none.  carried maps each node certified by heights
    carried from a neighbour to the node of the arrival they came from.  The
    others were decided by the LP.
    """

    search: _Search
    witnesses: List[Optional[List[int]]]
    carried: Dict[int, int]


def _regularity_fold(seed: Triangulation, circuits, perms, budget: int,
                     deadline: Optional[float] = None) -> _Fold:
    """Search the seed's flip component and decide every stored node's regularity.

    perms are column permutations that must act on the configuration as
    affine symmetries and, with the identity, form a group; the search then
    stores one node per orbit (flips._search).  That counts the regular
    triangulations: the seed is regular, affine maps keep triangulations
    regular, and the regular ones are connected by flips, the edges of the
    secondary polytope.  So with perms a seed that is not regular raises
    RegularityError.  The seed is decided in the fold like every other node,
    so that check runs after the search, which the budget bounds, but
    before any other node is decided; the snake seeds are regular.

    A node's wall rows come from the search's scan of it.  One facet pass
    over the seed counts its interior walls.  Every node has the seed's
    simplex count and only unimodular simplices, so each facet of the
    polytope holds as many boundary facets of the node as its own
    normalized volume, and the node has as many interior walls as the seed.
    A node whose scan matches another number of walls, the seed included,
    raises RegularityError, as is_regular does.

    A node tries its arrivals in order, starting with the move that found
    it: for each arrival from an earlier node a with heights w on a circuit
    Z, w and Z are moved by the element that maps a's flip onto the node,
    and w is carried along Z's +-1 vector, given by its two column masks, by
    _carry's exact step.  A candidate is accepted only when every wall row
    of the node is strictly positive on it.  Otherwise is_regular's exact
    decision, _decide, runs on the same wall rows, pinned on the node's
    first simplex, so "not regular" comes only from the LP.  The seed,
    which has no neighbour before it, always goes to the LP.
    """
    ncols = len(seed.config.columns)
    interior = len(_walls(seed))
    search = _search(seed, circuits, budget, deadline=deadline, perms=perms)
    cells = search.cells
    group = search.group
    fold = _Fold(search, [None] * len(search.nodes), {})
    # pulls[e] reads heights w into the heights that perms[e] moves them to
    pulls: Dict[int, itemgetter] = {}
    for i, node in enumerate(search.nodes):
        matched, sides = search.scans[i] or cells.scan(node)[1:]
        if matched != interior:
            raise RegularityError('triangulation %d matches %d walls to circuits, the seed %d'
                                  % (i, matched, interior))
        rows = _wall_rows(cells, sides)
        for a, s, e in search.arrived(i):
            omega = fold.witnesses[a]
            if omega is None:
                continue
            if e not in pulls:
                perm = group.perms[e]
                pulls[e] = itemgetter(*sorted(range(ncols), key=perm.__getitem__))
            lam = group.image(e, cells.columns[s]), group.image(e, cells.columns[s ^ 1])
            witness = _carry(pulls[e](omega), lam, rows)
            if witness is not None:
                fold.witnesses[i] = witness
                fold.carried[i] = a
                break
        if i in fold.carried:
            continue
        result = _decide(rows, _decode(search.n, node[0]), ncols)
        if perms and not i and not result:
            raise RegularityError('an orbit search needs a regular seed')
        fold.witnesses[i] = _primitive(result.heights.heights) if result else None
    return fold


def _orbit_group(w: SnakeWord, twists) -> List[Tuple[int, ...]]:
    """The twists Tw and their products Tw·α with the reversal α, when those
    form a group of affine maps; the twists alone otherwise.

    α is affine when it keeps the circuits (_keeps_circuits).  Tw is a
    group, so Tw ∪ Tw·α is closed under composition when α·t lies in it for
    every twist t, and α·α does too.
    """
    alpha = _reversal(w)
    if alpha is None or not _keeps_circuits(all_circuits(w), (alpha,)):
        return list(twists)
    group = set(twists) | {tuple(t[c] for c in alpha) for t in twists}
    if any(tuple(alpha[c] for c in t) not in group for t in (*twists, alpha)):
        return list(twists)
    return sorted(group)


def _twist_orbits(search: _Search, twists) -> int:
    """The twist orbits among the search's triangulations, when its group G holds the twists Tw.

    A stored node T stands for |G·T| / |Tw·T| twist orbits, where |Tw·T| is
    |Tw| over the number of twists that fix T (group.onto at the twists'
    positions); when G is Tw, that is one per stored node.  A node whose
    orbit has |G| members is fixed by the identity alone, so by one twist.
    """
    group = search.group
    twists = set(twists)
    at = {e for e, perm in enumerate(group.perms) if perm in twists}
    if len(at) == group.order:
        return len(search.nodes)
    total = 0
    for node, size in zip(search.nodes, search.sizes):
        fixed = 1
        if size < group.order:
            fixed = sum(1 for e in group.onto(node, set(node)) if e in at)
        total += size * fixed // len(at)
    return total


def count_regular_triangulations(n: int, budget_nodes: int = 100000, workers: int = 1,
                                 exhaustive: Optional[bool] = None,
                                 budget_steps: int = 2_000_000,
                                 deadline: Optional[float] = None) -> RegularCountReport:
    """Count regular triangulations in the explored component of the snake polytope.

    One fold over the flip search (_regularity_fold) runs over the orbits of
    a group of affine symmetries when the twists are affine: the twists and,
    when it is affine and closes a group with them, their products with the
    order reversal of the bounded lattice (_orbit_group), which about halves
    the orbits.  It stores and decides one triangulation per orbit, and
    nodes and regular_nodes sum the orbit sizes (orbit-stabiliser), so
    budget_nodes bounds triangulations, not orbits; the search counts whole
    orbits only, so where a truncated count stops depends on the group, and
    it always keeps the seed's orbit, even one larger than budget_nodes.
    twist_orbits counts the twist orbits all the same
    (_twist_orbits), and affine_twists reports the twists alone; workers is
    ignored, kept only because perfbench/workloads.py passes it (ROADMAP
    item 3 deletes it).  Integer heights carried across the flipped
    circuit from each earlier stored neighbour whose flip lands in the
    node's orbit, starting with the one that found it, prove "regular" when
    every wall row is strictly positive on them (_carry steps along the
    circuit to a point inside the exact interval where every row is
    positive); otherwise is_regular's exact LP decides, so only the LP ever
    says "not regular".  With exhaustive (by default when n <= 2),
    count_triangulations lists the
    leaves within budget_steps: the triangulations under one root per twist
    orbit of the roots when the twists are affine, every triangulation
    otherwise.  Each triangulation is the image of one leaf under one of
    orbit_size elements, affine maps keep regularity, and the search's
    component is closed under the twists, so each leaf adds orbit_size to
    total, to flip_reachable when the search holds it, and to regular when
    its stored orbit's verdict, or is_regular once for a leaf outside the
    search, says regular; each distinct simplex of the leaves is encoded
    once, and the search's group already holds the rows of every simplex in
    an orbit it met.  A deadline
    (time.monotonic) stops the search between levels and marks the report
    partial.
    """
    w = snake_polytope_word(n)
    circuits = all_circuits(w)
    twists = [tau.column_permutation for tau in all_twists(w)]
    # every twist is a product of elementary twists, and affine maps compose
    ladders = len(word_context(w).labeling.ladders.rungs)
    affine = _keeps_circuits(circuits, [elementary_twist(w, i).column_permutation
                                        for i in range(1, ladders + 1)])
    perms = _orbit_group(w, twists) if affine else []
    fold = _regularity_fold(canonical_of(w), circuits, perms, budget_nodes, deadline)
    search = fold.search
    nodes = sum(search.sizes)
    regular_nodes = sum(size for size, omega in zip(search.sizes, fold.witnesses)
                        if omega is not None)
    expected = 2 ** (n + 1) * catalan(2 * n + 1)
    matches = not search.partial and regular_nodes == expected
    if exhaustive is None:
        exhaustive = n <= 2
    exhaustive_report = None
    if exhaustive:
        cfg = word_context(w).config
        leaves, size, complete = count_triangulations(cfg, circuits, twists if affine else (),
                                                      budget_steps)
        mask_of = {s: _encode(search.n, s) for s in set().union(*leaves)}
        reachable = 0
        regular = 0
        for simplices in leaves:
            i = search.find(tuple(map(mask_of.__getitem__, simplices)))
            if i is not None:
                reachable += size
                regular += size if fold.witnesses[i] is not None else 0
            else:
                tri = Triangulation.make(cfg, simplices)
                regular += size if is_regular(tri, circuits) else 0
        exhaustive_report = ExhaustiveReport(size * len(leaves), reachable, regular, complete)
    return RegularCountReport(n, str(w), nodes, regular_nodes, expected,
                              matches, search.partial, _twist_orbits(search, twists), affine,
                              exhaustive_report)


def conjecture_suite(conjecture: str, word: Optional[SnakeWord] = None,
                     n: Optional[int] = None, budget_nodes: int = 100000,
                     exhaustive: Optional[bool] = None,
                     budget_steps: int = 2_000_000, deadline: Optional[float] = None):
    """Run one numbered experiment: 6.1, 6.2, 6.3, or 6.4.

    deadline, a time.monotonic value, stops each experiment's flip search
    between levels; the report is then marked partial.
    """
    if conjecture == '6.1':
        if word is None:
            raise RegularityError('experiment 6.1 needs a word')
        return check_flip_degrees(word, budget_nodes, deadline)
    if conjecture == '6.2':
        if word is None:
            raise RegularityError('experiment 6.2 needs a word')
        return find_new_dual_graph(word, budget_nodes, deadline)
    if conjecture == '6.3':
        if n is None:
            raise RegularityError('experiment 6.3 needs n')
        return count_canonical_dual_graphs(n, budget_nodes, deadline)
    if conjecture == '6.4':
        if n is None:
            raise RegularityError('experiment 6.4 needs n')
        return count_regular_triangulations(n, budget_nodes, exhaustive=exhaustive,
                                            budget_steps=budget_steps, deadline=deadline)
    raise RegularityError('unknown experiment %r' % (conjecture,))
