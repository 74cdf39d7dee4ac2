"""Tests for order polytope vertices, canonical triangulations, and validity."""
import itertools
import random
from functools import reduce
from operator import or_

import pytest
from test_exact import fraction_lp_maximize, integer_normal
from test_posets import linear_extensions

from snakeflip.circuits import all_circuits, circuits_brute, word_context
from snakeflip.exact import adjugate
from snakeflip.flips import apply_flip, canonical_of, find_flips
from snakeflip.polytope import (
    PointConfiguration,
    PolytopeError,
    Triangulation,
    _circuit_cells,
    _simplex_volume_cached,
    canonical_triangulation,
    expected_normalized_volume,
    is_triangulation,
    is_unimodular,
    order_polytope_vertices,
    simplex_volume,
    walls,
)
from snakeflip.posets import Poset, adjoin_bounds, build_snake_poset, regularity_labeling
from snakeflip.twists import all_twists, twist_triangulation
from snakeflip.volumes import maximal_chain_count
from snakeflip.words import parse_word, v_words


def q_of(word):
    phat = adjoin_bounds(build_snake_poset(word))
    return regularity_labeling(phat, word).q


def _sign(x):
    return (x > 0) - (x < 0)


def meet_in_common_faces(cfg, simplices):
    # reference: an exact LP per pair, independent of the wall certificate.
    # Two simplices meet in a common face iff every point of both uses only
    # their shared vertices.
    for s1, s2 in itertools.combinations(simplices, 2):
        shared = set(s1) & set(s2)
        rows = [[cfg.columns[j][i] for j in s1] + [-cfg.columns[j][i] for j in s2]
                for i in range(cfg.dim)]
        rows += [[1] * len(s1) + [0] * len(s2), [0] * len(s1) + [1] * len(s2)]
        objective = [0 if j in shared else 1 for j in s1 + s2]
        status, value, _ = fraction_lp_maximize(rows, [0] * cfg.dim + [1, 1], objective)
        if not (status == 'infeasible' or status == 'optimal' and value == 0):
            return False
    return True


def normal_is_triangulation(cfg, simplices):
    # reference: the wall certificate with one primitive integer normal per
    # wall, solved from the wall's columns alone, and the volume of each
    # simplex from its own determinant
    canon = [tuple(sorted(s)) for s in simplices]
    if len(set(canon)) != len(canon):
        return False
    total = 0
    for s in canon:
        if len(s) != cfg.dim + 1 or len(set(s)) != len(s):
            return False
        vol = simplex_volume(cfg, s)
        if vol == 0:
            return False
        total += vol
    if total != expected_normalized_volume(cfg):
        return False
    hom = [cfg.homogeneous(j) for j in range(len(cfg.columns))]

    def side(nu, j):
        return _sign(sum(a * b for a, b in zip(nu, hom[j])))

    for wall, cofaces in walls(canon).items():
        if len(cofaces) > 2:
            return False
        nu = integer_normal([hom[j] for j in wall])
        signs = [side(nu, a) for _, a in cofaces]
        if len(cofaces) == 2:
            if signs[0] * signs[1] != -1:
                return False
        elif any(side(nu, j) == -signs[0] for j in range(len(hom)) if j not in wall):
            return False
    return True


def test_vertices_of_diamond():
    cfg = order_polytope_vertices(q_of(parse_word('')))
    assert cfg.dim == 4
    assert cfg.columns == (
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (1, 1, 1, 0),
        (1, 1, 1, 1),
    )
    assert cfg.column_labels == ((), (1,), (2,), (3,), (2, 3), (4,))


def test_vertices_of_chain():
    cfg = order_polytope_vertices(Poset(1, []))
    assert cfg.columns == ((0,), (1,))


def test_canonical_triangulation_diamond():
    tri = canonical_triangulation(q_of(parse_word('')))
    assert tri.simplices == ((0, 1, 2, 4, 5), (0, 1, 3, 4, 5))
    zero = tri.config.columns.index((0, 0, 0, 0))
    ones = tri.config.columns.index((1, 1, 1, 1))
    for s in tri.simplices:
        assert zero in s and ones in s


def test_canonical_triangulation_chain():
    tri = canonical_triangulation(Poset(2, [(0, 1)]))
    assert len(tri.simplices) == 1


def test_canonical_simplex_count_is_maximal_chain_count():
    for w in v_words(5):
        tri = canonical_triangulation(q_of(w))
        assert len(tri.simplices) == maximal_chain_count(w)
    assert len(canonical_triangulation(q_of(parse_word('L'))).simplices) == 3


def test_simplex_volume_values():
    tri = canonical_triangulation(q_of(parse_word('')))
    for s in tri.simplices:
        assert simplex_volume(tri.config, s) == 1
    degenerate = (0, 1, 2, 3, 4)
    assert simplex_volume(tri.config, degenerate) == 0
    with pytest.raises(PolytopeError):
        simplex_volume(tri.config, (0, 1))


def test_simplex_volume_unit_columns():
    cfg = PointConfiguration(
        dim=3,
        columns=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
        column_labels=((), (1,), (2,), (3,)),
    )
    assert simplex_volume(cfg, (0, 1, 2, 3)) == 1


def test_is_triangulation_canonical_and_deficit():
    for w in v_words(4):
        tri = canonical_triangulation(q_of(w))
        assert is_triangulation(tri.config, tri.simplices, all_circuits(w))
    w = parse_word('')
    tri = canonical_triangulation(q_of(w))
    assert not is_triangulation(tri.config, tri.simplices[:1], all_circuits(w))


def test_is_triangulation_lp_cross_check():
    tri = canonical_triangulation(q_of(parse_word('')))
    assert is_triangulation(tri.config, tri.simplices, all_circuits(parse_word('')))
    assert meet_in_common_faces(tri.config, tri.simplices)
    tri_l = canonical_triangulation(q_of(parse_word('L')))
    assert is_triangulation(tri_l.config, tri_l.simplices, all_circuits(parse_word('L')))
    assert meet_in_common_faces(tri_l.config, tri_l.simplices)


def test_is_triangulation_rejects_overlap():
    cfg = PointConfiguration(
        dim=2,
        columns=((0, 0), (1, 0), (0, 1), (1, 1)),
        column_labels=((), (1,), (2,), (1, 2)),
    )
    circuits = circuits_brute(cfg)
    assert is_triangulation(cfg, [(0, 1, 3), (0, 2, 3)], circuits)
    assert not is_triangulation(cfg, [(0, 1, 2), (0, 1, 3)], circuits)
    assert not meet_in_common_faces(cfg, [(0, 1, 2), (0, 1, 3)])


def test_is_triangulation_rejects_column_beyond_boundary_wall():
    # right volume and every interior wall paired across its hyperplane, but a
    # column lies beyond a boundary wall; only the boundary-wall test sees it
    cfg = canonical_triangulation(q_of(parse_word('L'))).config
    simplices = [(0, 1, 2, 3, 5, 7), (0, 1, 2, 4, 6, 7), (0, 1, 3, 4, 6, 7)]
    assert sum(simplex_volume(cfg, s) for s in simplices) == expected_normalized_volume(cfg) == 3
    interior = [(wall, cofaces) for wall, cofaces in walls(simplices).items() if len(cofaces) == 2]
    assert interior
    for wall, cofaces in interior:
        nu = integer_normal([cfg.homogeneous(j) for j in wall])
        a, b = (sum(x * y for x, y in zip(nu, cfg.homogeneous(j))) for _, j in cofaces)
        assert a * b < 0
    assert not is_triangulation(cfg, simplices, all_circuits(parse_word('L')))


def test_is_triangulation_matches_the_normal_reference_on_flips_and_twists():
    cases = 0
    for w in v_words(5):
        tri = canonical_of(w)
        cfg = tri.config
        images = [apply_flip(tri, m) for m in find_flips(tri, all_circuits(w))]
        images += [twist_triangulation(tau, tri).triangulation for tau in all_twists(w)]
        for image in [tri] + images:
            assert is_triangulation(cfg, image.simplices, all_circuits(w)), str(w)
            assert normal_is_triangulation(cfg, image.simplices), str(w)
            cases += 1
    assert cases == 392


def test_is_triangulation_matches_the_normal_reference_on_broken_inputs():
    verdicts = set()

    def check(cfg, simplices, circuits):
        verdict = is_triangulation(cfg, simplices, circuits)
        assert verdict == normal_is_triangulation(cfg, simplices), simplices
        verdicts.add(verdict)
        return verdict

    for w in v_words(3):
        tri = canonical_of(w)
        cfg = tri.config
        ncols = len(cfg.columns)
        gamma = all_circuits(w)
        tris = [tri] + [apply_flip(tri, m, gamma) for m in find_flips(tri, gamma)]
        for t in tris:
            simplices = list(t.simplices)
            for k, s in enumerate(simplices):
                # one simplex dropped
                assert not check(cfg, simplices[:k] + simplices[k + 1:], gamma)
                # one column replaced, in every position and by every other column
                for drop in range(len(s)):
                    for c in range(ncols):
                        if c not in s:
                            broken = tuple(sorted(s[:drop] + s[drop + 1:] + (c,)))
                            check(cfg, simplices[:k] + [broken] + simplices[k + 1:], gamma)
        # an overlapping pair: one canonical simplex swapped for a flip
        # image's, the volume sum unchanged, so only the walls reject it
        simplices = list(tri.simplices)
        for extra in {s for t in tris for s in t.simplices} - set(simplices):
            for k in range(len(simplices)):
                assert not check(cfg, simplices[:k] + [extra] + simplices[k + 1:], gamma)
    square = PointConfiguration(dim=2, columns=((0, 0), (1, 0), (0, 1), (1, 1)),
                                column_labels=((), (1,), (2,), (1, 2)))
    assert check(square, [(0, 1, 3), (0, 2, 3)], circuits_brute(square))
    assert not check(square, [(0, 1, 2), (0, 1, 3)], circuits_brute(square))
    cfg = canonical_triangulation(q_of(parse_word('L'))).config
    assert not check(cfg, [(0, 1, 2, 3, 5, 7), (0, 1, 2, 4, 6, 7), (0, 1, 3, 4, 6, 7)],
                     all_circuits(parse_word('L')))
    assert verdicts == {True, False}


def test_is_triangulation_alternating_between_configurations():
    # is_triangulation keeps no state between calls, so calls that alternate
    # between two configurations give the verdicts each gives alone
    cases = []
    for word in ('L', 'LR'):
        tri = canonical_of(parse_word(word))
        cfg = tri.config
        gamma = all_circuits(parse_word(word))
        tris = [tri] + [apply_flip(tri, m) for m in find_flips(tri, gamma)]
        cases.append([(cfg, t.simplices, gamma) for t in tris]
                     + [(cfg, tri.simplices[1:], gamma)])
    # a column beyond a boundary wall: only the boundary test rejects it
    cfg, _, gamma = cases[0][0]
    cases[0].append((cfg, [(0, 1, 2, 3, 5, 7), (0, 1, 2, 4, 6, 7), (0, 1, 3, 4, 6, 7)], gamma))
    alternating = [case for pair in zip(*cases) for case in pair]
    expected = [normal_is_triangulation(cfg, simplices) for cfg, simplices, _ in alternating]
    assert set(expected) == {True, False}
    for _ in range(2):
        assert [is_triangulation(*case) for case in alternating] == expected


def test_is_triangulation_after_volumes_of_unsorted_columns():
    # simplex_volume caches one signed determinant per column order, and
    # is_triangulation reads none, so volumes asked about first, of odd
    # permutations of every other simplex's columns, leave its verdict as
    # the reference gives it
    _simplex_volume_cached.cache_clear()
    verdicts = set()
    for w in v_words(3):
        tri = canonical_of(w)
        cfg = tri.config
        tris = [tri] + [apply_flip(tri, m) for m in find_flips(tri, all_circuits(w))]
        simplices = list(tri.simplices)
        cases = [t.simplices for t in tris] + [simplices[1:]]
        cases += [simplices[:k] + [extra] + simplices[k + 1:]
                  for extra in sorted({s for t in tris for s in t.simplices} - set(simplices))
                  for k in range(len(simplices))]
        for simplices in cases:
            for s in simplices:
                swapped = (s[1], s[0]) + s[2:]
                assert simplex_volume(cfg, swapped) == simplex_volume(cfg, s)
                assert _simplex_volume_cached(cfg, swapped) == -_simplex_volume_cached(cfg, s)
        for simplices in cases:
            _simplex_volume_cached.cache_clear()
            for s in simplices[::2]:
                simplex_volume(cfg, (s[1], s[0]) + s[2:])
            verdict = is_triangulation(cfg, simplices, all_circuits(w))
            assert verdict == normal_is_triangulation(cfg, simplices), (str(w), simplices)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_integer_normal_agrees_with_wall_determinants():
    # the side test of the normal reference against the determinant it replaced
    for w in v_words(4):
        tri = canonical_of(w)
        cfg = tri.config
        hom = [cfg.homogeneous(j) for j in range(len(cfg.columns))]
        gamma = all_circuits(w)
        tris = [tri] + [apply_flip(tri, m, gamma) for m in find_flips(tri, gamma)]
        walls = {tuple(j for j in s if j != apex) for t in tris for s in t.simplices for apex in s}
        for wall in walls:
            nu = integer_normal([hom[j] for j in wall])
            assert any(nu)
            dots = [sum(a * b for a, b in zip(nu, col)) for col in hom]
            assert all(dots[j] == 0 for j in wall)
            dets = [adjugate([hom[j] for j in wall] + [col])[0] for col in hom]
            signs = [(_sign(x), _sign(d)) for x, d in zip(dots, dets)]
            fixed = next(s * t for s, t in signs if t)
            assert fixed != 0
            assert all(s == t * fixed for s, t in signs)
        # each adjugate row, signed by the determinant, is a positive multiple
        # of the integer normal of its wall oriented toward the apex
        for s in {s for t in tris for s in t.simplices}:
            det, adj = adjugate([[hom[j][i] for j in s] for i in range(cfg.dim + 1)])
            assert det != 0
            for k, apex in enumerate(s):
                nu = integer_normal([hom[j] for j in s if j != apex])
                if sum(a * b for a, b in zip(nu, hom[apex])) < 0:
                    nu = [-x for x in nu]
                row = [_sign(det) * x for x in adj[k]]
                lead = next(i for i, x in enumerate(nu) if x)
                scale, rest = divmod(row[lead], nu[lead])
                assert rest == 0 and scale > 0
                assert row == [scale * x for x in nu]


def test_walls_lists_cofaces_by_position():
    # two triangles of the unit square share the diagonal (0, 3)
    assert walls([(0, 1, 3), (0, 2, 3)]) == {
        (1, 3): [(0, 0)], (0, 3): [(0, 1), (1, 2)], (0, 1): [(0, 3)],
        (2, 3): [(1, 0)], (0, 2): [(1, 3)],
    }
    for w in v_words(3):
        tri = canonical_of(w)
        by_facet = walls(tri.simplices)
        assert sum(len(c) for c in by_facet.values()) == len(tri.simplices) * (tri.config.dim + 1)
        for facet, cofaces in by_facet.items():
            assert 1 <= len(cofaces) <= 2
            assert [pos for pos, _ in cofaces] == sorted(pos for pos, _ in cofaces)
            for pos, apex in cofaces:
                assert tuple(sorted(facet + (apex,))) == tri.simplices[pos]


def test_chain_count_volume_rejects_other_configurations():
    # a valid fan of a non-0/1 square: 3 maximal chains, but volume 8; the
    # circuits alone validate the fan and reject a fan missing a triangle
    square = PointConfiguration(
        dim=2,
        columns=((0, 0), (2, 0), (2, 2), (0, 2), (1, 1)),
        column_labels=((), (1,), (2,), (3,), (4,)),
    )
    fan = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]
    assert sum(simplex_volume(square, s) for s in fan) == 8
    with pytest.raises(PolytopeError):
        expected_normalized_volume(square)
    assert is_triangulation(square, fan, circuits_brute(square))
    assert not is_triangulation(square, fan[1:], circuits_brute(square))
    # 0/1 columns that are not closed under componentwise max
    corner = PointConfiguration(
        dim=2,
        columns=((0, 0), (1, 0), (0, 1)),
        column_labels=((), (1,), (2,)),
    )
    with pytest.raises(PolytopeError):
        expected_normalized_volume(corner)


def cover_walk_volume(cfg):
    """Chains from the bottom to the top column through covers of the containment order.

    A cover is a containment with no third column between; this is the search
    expected_normalized_volume made before it stepped one coordinate at a time.
    """
    order = {}
    for j, col in enumerate(cfg.columns):
        order[j] = [k for k, other in enumerate(cfg.columns)
                    if k != j and all(a <= b for a, b in zip(col, other))]
    bottom = min(range(len(cfg.columns)), key=lambda j: sum(cfg.columns[j]))
    top = max(range(len(cfg.columns)), key=lambda j: sum(cfg.columns[j]))
    memo = {}

    def paths(j):
        if j == top:
            return 1
        if j not in memo:
            above = set(order[j])
            covers = [k for k in above
                      if not any(m in above and k in order[m] for m in above if m != k)]
            memo[j] = sum(paths(k) for k in covers)
        return memo[j]

    return paths(bottom)


def test_chain_count_matches_the_cover_walk_on_v_words():
    words = list(v_words(7))
    assert len(words) == 107
    for w in words:
        cfg = word_context(w).config
        assert expected_normalized_volume(cfg) == cover_walk_volume(cfg) == maximal_chain_count(w)


def test_chain_count_is_the_number_of_linear_extensions():
    rng = random.Random(20261018)
    posets = [Poset(7, []), Poset(7, [(i, i + 1) for i in range(6)])]
    for _ in range(60):
        n = rng.randint(0, 7)
        density = rng.choice((0.1, 0.3, 0.6))
        posets.append(Poset(n, [(i, j) for i, j in itertools.combinations(range(n), 2)
                                if rng.random() < density]))
    seen = set()
    for q in posets:
        cfg = order_polytope_vertices(q)
        extensions = len(list(linear_extensions(q)))
        assert expected_normalized_volume(cfg) == cover_walk_volume(cfg) == extensions
        seen.add(extensions)
    assert len(seen) > 20 and {1, 5040} <= seen


def test_chain_count_of_a_lower_dimensional_segment_is_zero():
    # closed under min and max, but no chain steps one coordinate at a time
    segment = PointConfiguration(dim=2, columns=((0, 0), (1, 1)), column_labels=((), (1,)))
    assert expected_normalized_volume(segment) == 0
    assert cover_walk_volume(segment) == 1


def crossed(cfg, simplex, circuits, apex):
    # whether a column lies beyond the wall of simplex opposite apex, by the
    # circuit cell rule of is_triangulation: apex lies on some cell's side
    _, _, (mask,) = _circuit_cells(len(cfg.columns), [simplex], circuits)
    return bool(mask >> apex & 1)


def reference_cells(simplex, circuits):
    # the per-simplex loop over (support, plus) shapes that the enumeration's
    # root test ran: j, support and j's side, flat, for each circuit whose
    # only column outside the simplex is j, in circuit order
    mask = sum(1 << c for c in simplex)
    out = []
    for z in circuits:
        support = sum(1 << c for c in z.support())
        plus = sum(1 << c for c in z.plus)
        outside = support & ~mask
        if outside and not outside & (outside - 1):
            out += (outside.bit_length() - 1, support, plus if outside & plus else support ^ plus)
    return out


def reference_clash(simplices, circuits):
    # pairwise: a and b clash when some circuit has Z+ in one and Z- in the other
    held = []
    for s in simplices:
        cols = set(s)
        held.append((sum(1 << k for k, z in enumerate(circuits) if cols.issuperset(z.plus)),
                     sum(1 << k for k, z in enumerate(circuits) if cols.issuperset(z.minus))))
    return [sum(1 << b for b, (pb, mb) in enumerate(held) if pa & mb or ma & pb)
            for pa, ma in held]


def test_circuit_cells_match_the_per_simplex_reference():
    # every full simplex of the V words to length 4, and every (d+1)-set of
    # the hexagon and of Delta2 x Delta2, under the complete circuit list,
    # the list one circuit short and the list with one circuit repeated
    hexagon = PointConfiguration(dim=2, columns=((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)),
                                 column_labels=tuple((i,) for i in range(6)))
    cases = [(word_context(w).config, all_circuits(w), True) for w in v_words(4)]
    cases += [(cfg, circuits_brute(cfg), False)
              for cfg in (hexagon, order_polytope_vertices(Poset(4, [(0, 1), (2, 3)])))]
    rng = random.Random(41)
    seen = {'self clash': 0, 'no cell': 0, 'two cells': 0, 'simplices': 0}
    for cfg, circuits, full_only in cases:
        ncols = len(cfg.columns)
        simplices = [s for s in itertools.combinations(range(ncols), cfg.dim + 1)
                     if not full_only or simplex_volume(cfg, s)]
        i = rng.randrange(len(circuits))
        for listed in (circuits, circuits[:i] + circuits[i + 1:], circuits[:i + 1] + circuits[i:]):
            clash, cells, masks = _circuit_cells(ncols, simplices, listed)
            expected = [reference_cells(s, listed) for s in simplices]
            assert cells == expected, cfg.columns
            assert masks == [reduce(or_, mine[2::3], 0) for mine in expected], cfg.columns
            assert clash == reference_clash(simplices, listed), cfg.columns
            for pos, mine in enumerate(cells):
                columns = mine[::3]
                seen['self clash'] += clash[pos] >> pos & 1
                seen['no cell'] += len(set(columns)) < ncols - cfg.dim - 1
                seen['two cells'] += len(set(columns)) < len(columns)
            seen['simplices'] += len(simplices)
            if listed is circuits and full_only:
                assert all(sorted(mine[::3]) == [j for j in range(ncols) if j not in s]
                           for s, mine in zip(simplices, cells))
    assert all(seen.values()), seen


def test_boundary_walls_are_the_walls_with_one_coface():
    for w in v_words(3):
        tri = canonical_of(w)
        cfg = tri.config
        for cofaces in walls(tri.simplices).values():
            for pos, apex in cofaces:
                assert crossed(cfg, tri.simplices[pos], all_circuits(w), apex) == (
                    len(cofaces) == 2)


def scan_is_boundary_wall(cfg, normal):
    # reference: the column scan of boundary walls, no column strictly on
    # the negative side of an apex-positive normal
    return all(normal[-1] + sum(a * b for a, b in zip(normal, col)) >= 0 for col in cfg.columns)


def cube_configuration(order):
    # the order polytope of a 3-antichain, its columns in the given order
    cfg = order_polytope_vertices(Poset(3, []))
    labels = dict(zip(cfg.columns, cfg.column_labels))
    return PointConfiguration(dim=3, columns=tuple(order),
                              column_labels=tuple(labels[c] for c in order))


CUBE_ORDER = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
              (1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_boundary_walls_match_the_column_scan_on_every_full_simplex():
    configs = [(word_context(w).config, all_circuits(w))
               for w in list(v_words(3)) + [parse_word('LRRL')]]
    cube = cube_configuration(CUBE_ORDER)
    configs.append((cube, circuits_brute(cube)))
    verdicts = []
    for cfg, circuits in configs:
        seen = {}
        for s in itertools.combinations(range(len(cfg.columns)), cfg.dim + 1):
            # row k of the adjugate, signed by the determinant, is the normal
            # of the wall opposite s[k], positive on s[k]
            det, adj = adjugate(list(zip(*map(cfg.homogeneous, s))))
            if det == 0:
                continue
            for k in range(len(s)):
                wall = s[:k] + s[k + 1:]
                verdict = scan_is_boundary_wall(cfg, [x if det > 0 else -x for x in adj[k]])
                assert seen.setdefault(wall, verdict) == verdict
                assert crossed(cfg, s, circuits, s[k]) != verdict, (cfg.columns, wall)
                verdicts.append(verdict)
    assert len(verdicts) == 8292
    assert set(verdicts) == {True, False}


def test_a_segment_that_is_not_full_dimensional():
    # closed under min and max, but no full simplex: nothing triangulates it
    segment = PointConfiguration(dim=2, columns=((0, 0), (1, 1)), column_labels=((), (1,)))
    circuits = circuits_brute(segment)
    assert not is_triangulation(segment, [], circuits)
    assert not is_triangulation(segment, [(0, 1)], circuits)
    assert not is_triangulation(segment, [(0, 1, 1)], circuits)


def test_volume_union_matches_poset_volume():
    for w in v_words(4):
        tri = canonical_triangulation(q_of(w))
        total = sum(simplex_volume(tri.config, s) for s in tri.simplices)
        assert total == expected_normalized_volume(tri.config)
        assert total == maximal_chain_count(w)


def test_is_unimodular():
    for w in v_words(4):
        assert is_unimodular(canonical_triangulation(q_of(w)))
    dilated = PointConfiguration(dim=1, columns=((0,), (2,)), column_labels=((), (1,)))
    assert not is_unimodular(Triangulation.make(dilated, [(0, 1)]))


def test_triangulation_make_canonicalizes():
    tri = canonical_triangulation(q_of(parse_word('')))
    again = Triangulation.make(tri.config, reversed(tri.simplices))
    assert again == tri
    with pytest.raises(PolytopeError):
        Triangulation.make(tri.config, [(0, 1, 2, 4, 5), (5, 4, 2, 1, 0)])


def test_triangulation_determinism():
    first = canonical_triangulation(q_of(parse_word('RL')))
    second = canonical_triangulation(q_of(parse_word('RL')))
    assert first == second
