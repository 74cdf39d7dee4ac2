"""Tests for orders, heights, folding forms, regularity, and the experiments."""
import hashlib
import itertools
import random
import sys
from fractions import Fraction
from math import gcd, lcm
from time import monotonic

import pytest
from test_exact import fraction_kernel, fraction_lp_maximize, integer_normal
from test_polytope import CUBE_ORDER, cube_configuration, meet_in_common_faces

import snakeflip.regularity as regularity
from snakeflip.circuits import (Circuit, all_circuits, circuits_brute, is_unit_dependence,
                                word_context)
from snakeflip.exact import adjugate
from snakeflip.flips import (_decode, _search, apply_flip, canonical_of, explore_flip_graph,
                            find_flips)
from snakeflip.polytope import (PointConfiguration, Triangulation, _circuit_cells,
                                canonical_triangulation, expected_normalized_volume,
                                is_triangulation, order_polytope_vertices, simplex_volume,
                                walls)
from snakeflip.posets import Poset
from snakeflip.regularity import (
    HeightFunction,
    RegularityError,
    canonical_order,
    check_flip_degrees,
    conjecture_suite,
    count_canonical_dual_graphs,
    count_regular_triangulations,
    count_triangulations,
    enumerate_triangulations,
    folding_form,
    height_function,
    is_regular,
    snake_polytope_word,
    verify_local_folding,
)
from snakeflip.regularity import (_checked_rows, _orbit_group, _perms_are_affine, _primitive,
                                  _regularity_fold, _reversal)
from snakeflip.twists import Twist, all_twists, elementary_twist, twist_triangulation
from snakeflip.volumes import catalan
from snakeflip.words import WordError, parse_word, v_words


def test_canonical_order_of_the_diamond():
    order = canonical_order(parse_word(''))
    assert order.sequence == (0, 2, 1, 4, 3, 5)
    assert order.rho[0] == 0


def test_canonical_order_interleaves_pairs():
    order = canonical_order(parse_word('RRLLR'))
    assert order.sequence == (0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 15)
    assert order.rho[9] == 10


def test_canonical_order_rejects_forbidden_words():
    with pytest.raises(WordError):
        canonical_order(parse_word('LRL'))


def test_height_function_frozen_values():
    w = parse_word('')
    assert height_function(w).heights == (1, 4, 2, 16, 8, 32)
    assert height_function(w, elementary_twist(w, 1)).heights == (1, 2, 4, 8, 16, 32)
    assert height_function(w)[0] == 1


def test_height_function_twisted_label_values():
    w = parse_word('RRLLR')
    ctx = word_context(w)
    col9 = ctx.column_of[ctx.labeling.x_of[9]]
    col10 = ctx.column_of[ctx.labeling.x_of[10]]
    assert height_function(w)[col9] == 2 ** 10
    assert height_function(w, elementary_twist(w, 2))[col10] == 2 ** 10
    with pytest.raises(RegularityError):
        height_function(w, elementary_twist(parse_word(''), 1))


def test_folding_form_base_values():
    w = parse_word('')
    t = canonical_of(w)
    omega = height_function(w)
    s1, s2 = t.simplices
    assert folding_form(t.config, s1, 3, omega) == 6
    assert folding_form(t.config, s2, 2, omega) == 6
    assert folding_form(t.config, s1, 1, omega) == 0


def test_folding_form_rejects_bad_bases():
    w = parse_word('')
    t = canonical_of(w)
    omega = height_function(w)
    with pytest.raises(RegularityError):
        folding_form(t.config, (0, 1, 2), 3, omega)
    with pytest.raises(RegularityError, match='degenerate'):
        folding_form(t.config, (0, 1, 2, 3, 4), 5, omega)


def determinant_folding_form(cfg, simplex, p, omega):
    # reference: sgn(det M) * det([[M, x_p], [h_M, h_p]]) by two determinants,
    # the heights scaled to integers by the lcm of their denominators
    idx = tuple(sorted(simplex))
    base_det = adjugate([[cfg.homogeneous(j)[i] for j in idx] for i in range(cfg.dim + 1)])[0]
    ext = idx + (p,)
    matrix = [[cfg.homogeneous(j)[i] for j in ext] for i in range(cfg.dim + 1)]
    hrow = [Fraction(omega.heights[j]) for j in ext]
    scale = lcm(*(h.denominator for h in hrow))
    matrix.append([int(h * scale) for h in hrow])
    value = Fraction((1 if base_det > 0 else -1) * adjugate(matrix)[0], scale)
    return int(value) if value.denominator == 1 else value


def _assert_forms_match_the_determinants(tri, omega):
    report = verify_local_folding(tri, omega)
    assert report.walls
    for check in report.walls:
        (i1, i2), (v1, v2) = check.simplices, check.opposite
        expected = (determinant_folding_form(tri.config, tri.simplices[i2], v1, omega),
                    determinant_folding_form(tri.config, tri.simplices[i1], v2, omega))
        assert [(type(x), x) for x in check.forms] == [(type(x), x) for x in expected]
    return report


def test_folding_forms_match_the_determinants_on_twisted_canonical_triangulations():
    verdicts = set()
    for w in v_words(4):
        t = canonical_of(w)
        for tau in all_twists(w):
            image = twist_triangulation(tau, t).triangulation
            assert _assert_forms_match_the_determinants(image, height_function(w, tau))
            # the untwisted heights give negative forms on the twisted images
            verdicts.add(_assert_forms_match_the_determinants(image, height_function(w)).verdict)
        for s in t.simplices:
            for p in range(len(t.config.columns)):
                assert (folding_form(t.config, s, p, height_function(w))
                        == determinant_folding_form(t.config, s, p, height_function(w)))
    assert verdicts == {True, False}


def test_folding_forms_match_the_determinants_on_witness_heights():
    # the LP witnesses are Fractions with denominator 1 at n=2, so they are
    # also compared divided by 3, where most forms are not integers
    w = snake_polytope_word(2)
    circuits = all_circuits(w)
    fractional = 0
    for node in explore_flip_graph(canonical_of(w), circuits).nodes:
        heights = is_regular(node, circuits).heights
        assert _assert_forms_match_the_determinants(node, heights).verdict
        thirds = HeightFunction(tuple(h / 3 for h in heights.heights))
        report = _assert_forms_match_the_determinants(node, thirds)
        assert report.verdict
        fractional += any(isinstance(x, Fraction) for c in report.walls for x in c.forms)
    assert fractional


def test_folding_forms_match_the_determinants_beyond_unimodular_configurations():
    # every simplex of an order polytope has |det M| = 1; the hexagon's and
    # the line's simplices do not, and the heights c^3 / 3 are not integers
    hexagon = plane_configuration([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    line = PointConfiguration(dim=1, columns=((0,), (1,), (3,), (6,)),
                              column_labels=((0,), (1,), (2,), (3,)))
    reports = fractional = 0
    volumes = set()
    for cfg in (hexagon, line):
        found, complete = enumerate_triangulations(cfg, circuits_brute(cfg))
        assert complete
        ncols = len(cfg.columns)
        for heights in ([c * c for c in range(ncols)], [Fraction(c ** 3, 3) for c in range(ncols)],
                        [7 * c % 5 for c in range(ncols)]):
            omega = HeightFunction(tuple(heights))
            for simplices in found:
                tri = Triangulation.make(cfg, simplices)
                report = verify_local_folding(tri, omega)
                for check in report.walls:
                    (i1, i2), (v1, v2) = check.simplices, check.opposite
                    expected = (determinant_folding_form(cfg, tri.simplices[i2], v1, omega),
                                determinant_folding_form(cfg, tri.simplices[i1], v2, omega))
                    assert [(type(x), x) for x in check.forms] == [(type(x), x) for x in expected]
                for s in tri.simplices:
                    volumes.add(simplex_volume(cfg, s))
                    for p in range(ncols):
                        form = folding_form(cfg, s, p, omega)
                        expected = determinant_folding_form(cfg, s, p, omega)
                        assert (type(form), form) == (type(expected), expected)
                reports += 1
                fractional += any(isinstance(x, Fraction) for c in report.walls for x in c.forms)
    assert (reports, fractional) == (54, 13)
    assert volumes > {1}


def test_canonical_heights_certify_canonical_triangulations():
    for w in v_words(4):
        report = verify_local_folding(canonical_of(w), height_function(w))
        assert report.verdict, str(w)


def test_twisted_heights_certify_twisted_triangulations():
    for w in v_words(3):
        t = canonical_of(w)
        for tau in all_twists(w):
            image = twist_triangulation(tau, t)
            assert image.valid
            report = verify_local_folding(image.triangulation, height_function(w, tau))
            assert report.verdict, (str(w), tuple(sorted(tau.ladder_mask)))


def test_mismatched_heights_fail_somewhere():
    w = parse_word('')
    twisted = height_function(w, elementary_twist(w, 1))
    report = verify_local_folding(canonical_of(w), twisted)
    assert not report.verdict
    assert report.first_violation == 0
    assert any(psi < 0 for psi in report.walls[0].forms)


def test_is_regular_certifies_the_canonical_diamond():
    w = parse_word('')
    t = canonical_of(w)
    result = is_regular(t, all_circuits(w), verify=True)
    assert result
    assert result.slack == 1
    assert result.constraints == 1
    for c in t.simplices[0]:
        assert result.heights[c] == 0
    assert verify_local_folding(t, result.heights).verdict


def test_is_regular_on_explored_components(monkeypatch):
    # the wall rows come from the circuit list, so no kernel is eliminated
    components = []
    for word in ('L', 'LR', 'LRRL'):
        w = parse_word(word)
        circuits = all_circuits(w)
        components.append((circuits, explore_flip_graph(canonical_of(w), circuits).nodes))

    def no_kernel(rows):
        raise AssertionError('is_regular eliminated a kernel')

    bindings = [module for name, module in sorted(sys.modules.items())
                if name.startswith('snakeflip') and hasattr(module, 'integer_kernel')]
    assert {m.__name__ for m in bindings} >= {'snakeflip.exact', 'snakeflip.circuits'}
    for module in bindings:
        monkeypatch.setattr(module, 'integer_kernel', no_kernel)
    for circuits, nodes in components:
        for node in nodes:
            assert is_regular(node, circuits, verify=True)


def wall_rows(tri, circuits):
    # each (plus, minus, plus getter, minus getter) wall row as {column: +-1};
    # a getter reads its mask's columns, in order
    n = len(tri.config.columns)
    rows = []
    for plus, minus, get_plus, get_minus in _checked_rows(tri, circuits):
        assert plus and minus and not plus & minus
        assert (get_plus(range(n)), get_minus(range(n))) == (_decode(n, plus), _decode(n, minus))
        rows.append({**dict.fromkeys(_decode(n, plus), 1), **dict.fromkeys(_decode(n, minus), -1)})
    return rows


def test_is_regular_raises_on_a_short_circuit_list():
    w = snake_polytope_word(1)
    circuits = all_circuits(w)
    t = canonical_of(w)
    needed = {tuple(sorted(r)) for r in wall_rows(t, circuits)}
    dropped = [z for z in circuits if z.support() in needed]
    assert dropped
    for z in dropped:
        with pytest.raises(RegularityError):
            is_regular(t, tuple(y for y in circuits if y != z))


def test_is_regular_raises_on_another_words_circuits():
    w = snake_polytope_word(1)
    own = all_circuits(w)
    nodes = explore_flip_graph(canonical_of(w), own).nodes
    circuits = all_circuits(parse_word('LL'))
    for node in nodes:
        with pytest.raises(RegularityError):
            is_regular(node, circuits)
    # LRR's circuits that fit LR's walls are LR's own: a verdict never changes
    circuits = all_circuits(parse_word('LRR'))
    for node in nodes:
        try:
            result = is_regular(node, circuits)
        except RegularityError:
            continue
        assert result == is_regular(node, own)


def test_is_regular_raises_on_a_listed_non_dependence():
    w = parse_word('')
    t = canonical_of(w)
    # the apexes 2 and 3 share a side, as in the true circuit 1 + 4 = 2 + 3
    fake = Circuit.make((2, 3), (0, 5))
    with pytest.raises(RegularityError):
        is_regular(t, (fake,))


def test_is_regular_raises_on_an_overlapping_pair():
    w = parse_word('')
    cfg = word_context(w).config
    (z,) = all_circuits(w)
    assert (z.plus, z.minus) == ((1, 4), (2, 3))
    # apexes 1 and 2 lie on opposite sides of the circuit, so on one side of the wall
    overlap = Triangulation.make(cfg, [(0, 2, 3, 4, 5), (0, 1, 3, 4, 5)])
    with pytest.raises(RegularityError):
        is_regular(overlap, all_circuits(w))


def test_is_regular_fails_safe_on_circuits_with_other_coefficients():
    # the planar "mother of all examples": its circuits have coefficients
    # other than +-1, so no +-1 wall row may be read from them
    cfg = PointConfiguration(
        dim=2,
        columns=((0, 0), (12, 0), (0, 12), (3, 3), (6, 3), (3, 6)),
        column_labels=((0,), (1,), (2,), (3,), (4,), (5,)),
    )
    tri = Triangulation.make(cfg, [(3, 4, 5), (0, 1, 3), (1, 3, 4), (1, 2, 4),
                                   (2, 4, 5), (0, 2, 5), (0, 3, 5)])
    with pytest.raises(RegularityError, match='not a dependence'):
        is_regular(tri, circuits_brute(cfg))


def _rational_wall_rows(tri, kernels):
    # reference: a rational kernel vector per interior wall, cleared of
    # denominators and content, with the first coface's apex made positive;
    # the walls in the order of their column tuples, each row kept at its
    # first wall; kernels memoizes the kernel of each union across calls
    cfg = tri.config
    rows = []
    for f, cofaces in sorted(walls(tri.simplices).items()):
        if len(cofaces) != 2:
            continue
        (_, apex), (_, other) = cofaces
        union = tuple(sorted(f + (apex, other)))
        if union not in kernels:
            kernels[union] = fraction_kernel(list(zip(*(cfg.homogeneous(j) for j in union))))
        (lam,) = kernels[union]
        scale = lcm(*(Fraction(x).denominator for x in lam))
        coeffs = {c: int(Fraction(x) * scale) for c, x in zip(union, lam) if x != 0}
        g = 0
        for x in coeffs.values():
            g = gcd(g, x)
        sign = 1 if coeffs[apex] > 0 else -1
        row = tuple(sorted((c, sign * x // g) for c, x in coeffs.items()))
        if row not in rows:
            rows.append(row)
    return rows


def test_wall_rows_equal_rational_kernel_rows():
    # the same rows in the same order, so the LP sees the same program
    for n, step in ((1, 1), (2, 1), (3, 60)):
        w = snake_polytope_word(n)
        circuits = all_circuits(w)
        graph = explore_flip_graph(canonical_of(w), circuits)
        kernels = {}
        for node in graph.nodes[::step]:
            rows = [tuple(sorted(r.items())) for r in wall_rows(node, circuits)]
            assert rows == _rational_wall_rows(node, kernels)


def test_scan_matches_every_interior_wall_once():
    # the scan's matched walls are the facets with two cofaces, at every
    # node of the plain searches of the snakes n <= 3 and the V-words to
    # length 4
    words = list(v_words(4)) + [snake_polytope_word(3)]
    for w in words:
        search = _search(canonical_of(w), all_circuits(w), budget=100000)
        assert not search.partial
        for i in range(len(search.nodes)):
            cofaces = walls(search_node(search, i)).values()
            assert max(map(len, cofaces)) <= 2
            matched, _ = search.scans[i]
            assert matched == sum(len(c) == 2 for c in cofaces)


def test_is_regular_rejects_a_duplicated_wall_circuit():
    w = snake_polytope_word(2)
    circuits = all_circuits(w)
    t = canonical_of(w)
    used = {tuple(sorted(r)) for r in wall_rows(t, circuits)}
    z = next(z for z in circuits if z.support() in used)
    for extra in (z, Circuit(z.minus, z.plus)):
        with pytest.raises(RegularityError, match='interior walls match'):
            is_regular(t, circuits + (extra,))


def test_is_regular_matches_the_fraction_simplex(monkeypatch):
    def results(components):
        return [(r.regular, r.heights, r.slack, r.constraints)
                for circuits, nodes in components
                for r in (is_regular(node, circuits, verify=True) for node in nodes)]

    components = []
    for n in (1, 2):
        w = snake_polytope_word(n)
        circuits = all_circuits(w)
        components.append((circuits, explore_flip_graph(canonical_of(w), circuits).nodes))
    integer = results(components)

    def fraction_lp_feasible(A, b, n):
        status, _, x = fraction_lp_maximize(A, b, [0] * n)
        return x if status == 'optimal' else None

    monkeypatch.setattr(regularity, 'lp_feasible', fraction_lp_feasible)
    assert results(components) == integer


def test_is_regular_witnesses_reach_exactly_1():
    # the phase-1 program returns a vertex of {h >= 0, <row, h> >= 1}, so the
    # least wall-row value is exactly 1, on heights zero on the first simplex
    for n in (1, 2):
        w = snake_polytope_word(n)
        circuits = all_circuits(w)
        for node in explore_flip_graph(canonical_of(w), circuits).nodes:
            r = is_regular(node, circuits)
            assert r.certificate is None
            heights = r.heights.heights
            assert min(sum(heights[c] * x for c, x in row.items())
                       for row in wall_rows(node, circuits)) == r.slack == 1
            assert min(heights) == 0
            assert all(heights[c] == 0 for c in node.simplices[0])


def test_is_regular_results_pinned_at_n3():
    # digest of every 16th node's (regular, heights, slack, constraints),
    # recorded when the heights came from the phase-1 feasibility program
    w = snake_polytope_word(3)
    circuits = all_circuits(w)
    nodes = explore_flip_graph(canonical_of(w), circuits).nodes[::16]
    h = hashlib.blake2b(digest_size=16)
    for node in nodes:
        r = is_regular(node, circuits)
        h.update(repr((r.regular, r.heights, r.slack, r.constraints)).encode())
    assert len(nodes) == 429
    assert h.hexdigest() == '6b99fa7bda36dd569fe4dcd1011bf692'


def search_node(search, i):
    return tuple(_decode(search.n, mask) for mask in search.nodes[i])


def test_fold_verdicts_match_is_regular():
    # every node at n <= 2, from a fold without symmetries that stores every
    # node, and every stored orbit member at n = 3; the carried heights must
    # select their node, and both the carried and the LP path must decide
    # some orbits
    decided = {}
    for n in (1, 2, 3):
        w = snake_polytope_word(n)
        cfg = word_context(w).config
        circuits = all_circuits(w)
        perms = [tau.column_permutation for tau in all_twists(w)[1:]]
        fold = _regularity_fold(canonical_of(w), circuits, perms, budget=100000)
        assert not fold.search.partial
        decided[n] = (len(fold.witnesses), len(fold.carried))
        if n <= 2:
            fold = _regularity_fold(canonical_of(w), circuits, (), budget=100000)
            assert len(fold.search.nodes) == sum(fold.search.sizes)
        for i in range(len(fold.search.nodes)):
            tri = Triangulation(cfg, search_node(fold.search, i))
            heights = fold.witnesses[i]
            assert (heights is not None) == is_regular(tri, circuits).regular
            if n <= 2 and heights is not None:
                assert all(isinstance(h, int) for h in heights)
                assert verify_local_folding(tri, HeightFunction(tuple(heights))).verdict
    # (orbits, orbits certified by carried heights); the rest ran the LP,
    # which still decides some orbits besides the seed at n = 3
    assert decided == {1: (5, 4), 2: (42, 41), 3: (429, 422)}


def read(n, row, heights):
    """<row, heights> for a +-1 wall row, from its column masks alone."""
    plus, minus = row[:2]
    return (sum(heights[c] for c in _decode(n, plus))
            - sum(heights[c] for c in _decode(n, minus)))


def row_of(n, plus, minus):
    """A +-1 row in the wall-row form of flips._Cells.row, from its column masks."""
    getters = [lambda heights, columns=_decode(n, mask): tuple(heights[c] for c in columns)
               for mask in (plus, minus)]
    return (plus, minus, *getters)


def carry_interval(n, omega, lam, rows):
    """(low, high, nonempty) of the open interval of t on which every row is
    positive on omega - t lam, by Fractions; an end is None when it is infinite."""
    unit = [read(n, lam, [int(c == k) for k in range(n)]) for c in range(n)]
    low, high, nonempty = None, None, True
    for row in rows:
        v = read(n, row, omega)
        t = read(n, row, unit)
        if t > 0:
            high = Fraction(v, t) if high is None else min(high, Fraction(v, t))
        elif t < 0:
            low = Fraction(v, t) if low is None else max(low, Fraction(v, t))
        elif v <= 0:
            nonempty = False
    if low is not None and high is not None and low >= high:
        nonempty = False
    return low, high, nonempty


def test_every_carry_of_the_orbit_fold_gives_primitive_positive_heights(monkeypatch):
    # at n = 3 over the twists and the reversal, every heights _carry returns
    # are primitive integers, positive on every row, and select their node;
    # it returns None only where no step along the circuit works
    w = snake_polytope_word(3)
    cfg = word_context(w).config
    n = len(cfg.columns)
    twists = [tau.column_permutation for tau in all_twists(w)]
    calls = []
    carry = regularity._carry

    def recording(omega, lam, rows):
        heights = carry(omega, lam, rows)
        calls.append((omega, lam, rows, heights))
        return heights

    monkeypatch.setattr(regularity, '_carry', recording)
    fold = _regularity_fold(canonical_of(w), all_circuits(w), _orbit_group(w, twists),
                            budget=100000)
    returned = []
    for omega, lam, rows, heights in calls:
        assert len(lam) == 2 and all(isinstance(mask, int) for mask in lam)
        assert (heights is not None) == carry_interval(n, omega, lam, rows)[2]
        if heights is None:
            continue
        assert all(isinstance(h, int) for h in heights) and gcd(*heights) == 1
        assert all(read(n, row, heights) > 0 for row in rows)
        returned.append(heights)
    assert (len(fold.carried), len(returned)) == (225, 225)
    for i in fold.carried:
        assert any(fold.witnesses[i] is h for h in returned)
        tri = Triangulation(cfg, search_node(fold.search, i))
        assert verify_local_folding(tri, HeightFunction(tuple(fold.witnesses[i]))).verdict


def test_carry_finds_a_step_exactly_when_one_exists():
    # random +-1 rows and circuits on six columns: the carried heights are
    # positive on every row, and None comes exactly when the rows bound no
    # open interval of t where omega - t lam is, found here by Fractions; the
    # step is met with no finite end (every row ignores t), with one and
    # with two
    rng = random.Random(20261021)
    n = 6
    outcomes = set()
    for _ in range(3000):
        def masks():
            signs = [rng.choice((-1, 0, 0, 1)) for _ in range(n)]
            plus = sum(1 << (n - 1 - c) for c in range(n) if signs[c] > 0)
            minus = sum(1 << (n - 1 - c) for c in range(n) if signs[c] < 0)
            return (plus, minus) if plus and minus else None
        lam = masks()
        rows = [row_of(n, *r) for r in (masks() for _ in range(rng.randint(1, 5))) if r]
        if lam is None or not rows:
            continue
        omega = [rng.randint(-4, 6) for _ in range(n)]
        low, high, nonempty = carry_interval(n, omega, lam, rows)
        heights = regularity._carry(omega, lam, rows)
        assert (heights is not None) == nonempty, (omega, lam, rows)
        if heights is None:
            outcomes.add('none')
            continue
        assert all(read(n, row, heights) > 0 for row in rows)
        outcomes.add('exact %d' % ((low is not None) + (high is not None)))
    assert outcomes == {'none', 'exact 0', 'exact 1', 'exact 2'}


def test_fold_carries_heights_from_arrivals():
    # at n = 3 some orbit is certified by heights carried from an earlier
    # neighbour other than the one that found it, and some still need the LP
    w = snake_polytope_word(3)
    cfg = word_context(w).config
    circuits = all_circuits(w)
    perms = [tau.column_permutation for tau in all_twists(w)[1:]]
    fold = _regularity_fold(canonical_of(w), circuits, perms, budget=100000)
    search = fold.search
    later = {i: a for i, a in fold.carried.items() if a != next(search.arrived(i))[0]}
    assert later
    assert len(fold.carried) < len(search.nodes) - 1
    for i, a in fold.carried.items():
        assert a < i and a in {x for x, _, _ in search.arrived(i)}
        tri = Triangulation(cfg, search_node(search, i))
        assert verify_local_folding(tri, HeightFunction(tuple(fold.witnesses[i]))).verdict


def test_fold_raises_when_a_later_node_matches_fewer_walls():
    # a circuit the seed's walls do not use but a wall of a node one flip
    # away does: without it that node matches too few walls
    w = snake_polytope_word(2)
    circuits = all_circuits(w)
    seed = canonical_of(w)
    search = _search(seed, circuits, budget=100000)
    sides = search.cells.sides
    seed_circuits = {sides[s].circuit for s in search.scans[0][1]}
    missing = None
    for b in range(1, len(search.nodes)):
        a, s, _ = next(search.arrived(b))
        y = sides[s].circuit
        if a == 0:
            later = [sides[s].circuit for s in search.scans[b][1]]
            missing = next((z for z in later if z not in seed_circuits and z != y), None)
            if missing is not None:
                break
    assert missing is not None
    short = tuple(z for z in circuits if z != missing)
    assert is_regular(seed, short)
    with pytest.raises(RegularityError, match='matches'):
        _regularity_fold(seed, short, (), budget=100000)


def test_orbit_search_covers_the_plain_search():
    # every node of the plain search lies in a stored orbit, the orbit sizes
    # sum to the component, and the twists leave 5, 42 and 429 orbits
    for n, total, orbits in ((1, 20, 5), (2, 336, 42), (3, 6864, 429)):
        w = snake_polytope_word(n)
        circuits = all_circuits(w)
        perms = [tau.column_permutation for tau in all_twists(w)[1:]]
        plain = _search(canonical_of(w), circuits, budget=100000)
        orbit = _search(canonical_of(w), circuits, budget=100000, perms=perms)
        assert not plain.partial and not orbit.partial
        assert len(plain.nodes) == total
        assert (sum(orbit.sizes), len(orbit.nodes)) == (total, orbits)
        assert all(orbit.find(node) is not None for node in plain.nodes)
        # each stored node is the flip, on the recorded circuit, of the stored
        # node whose move found it, its first arrival
        cfg = word_context(w).config
        for b in range(1, len(orbit.nodes)):
            a, s, _ = next(orbit.arrived(b))
            z = orbit.cells.sides[s].circuit
            parent = Triangulation(cfg, search_node(orbit, a))
            (move,) = find_flips(parent, [z])
            assert apply_flip(parent, move).simplices == search_node(orbit, b)
        assert orbit.group.order == len(all_twists(w))


def test_orbit_lookup_maps_every_node_onto_its_representative():
    # invariants do not separate the orbits at n = 3, so find must test
    # membership: some twist, applied to the columns, maps each node of the
    # plain search onto the stored node that find returns
    w = snake_polytope_word(3)
    circuits = all_circuits(w)
    perms = [tau.column_permutation for tau in all_twists(w)]
    plain = _search(canonical_of(w), circuits, budget=100000)
    orbit = _search(canonical_of(w), circuits, budget=100000, perms=perms[1:])
    assert max(map(len, orbit.index.values())) >= 2
    for i in range(len(plain.nodes)):
        b = orbit.find(plain.nodes[i])
        assert b is not None
        stored = set(search_node(orbit, b))
        assert any({tuple(sorted(perm[c] for c in s)) for s in search_node(plain, i)} == stored
                   for perm in perms)


def delta3_times_delta3():
    seed = canonical_triangulation(Poset(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))
    return seed, circuits_brute(seed.config)


def test_orbit_fold_rejects_a_seed_that_is_not_regular():
    # node 2159 of the Delta3 x Delta3 search is not regular; swapping the
    # two chains is an affine symmetry, but an orbit search from a
    # non-regular seed may not cover its component
    seed, circuits = delta3_times_delta3()
    cfg = seed.config
    bad = Triangulation(cfg, search_node(_search(seed, circuits, budget=3252), 2159))
    assert not is_regular(bad, circuits)
    where = {tuple(col): c for c, col in enumerate(cfg.columns)}
    swap = [where[tuple(col[3:]) + tuple(col[:3])] for col in cfg.columns]
    assert swap != list(range(len(swap)))
    with pytest.raises(RegularityError, match='regular seed'):
        _regularity_fold(bad, circuits, [swap], budget=100)
    assert _regularity_fold(bad, circuits, (), budget=1).witnesses == [None]


def test_fold_finds_the_non_regular_triangulations_of_delta3_times_delta3():
    # Delta3 x Delta3 is the order polytope of two disjoint 3-chains and has
    # non-regular triangulations (De Loera 1996); the first two the search
    # meets lie at depth 5, and the 3252 nodes to depth 5 come before any at
    # depth 6.  No symmetry is used, so every node is decided.
    seed, circuits = delta3_times_delta3()
    cfg = seed.config
    fold = _regularity_fold(seed, circuits, (), budget=3252)
    nodes = fold.search.nodes
    assert (len(nodes), max(fold.search.depths), fold.search.partial) == (3252, 5, True)
    assert len(fold.witnesses) == len(nodes)
    assert [i for i in range(len(nodes)) if fold.witnesses[i] is None] == [2159, 2454]
    assert 0 < len(fold.carried) < len(nodes) - 2
    for i in (2159, 2454):
        assert is_triangulation(cfg, search_node(fold.search, i), circuits)
    # the LP's heights are checked by is_regular(..., verify=True) elsewhere;
    # the carried ones are this fold's own, and every second one in search
    # order is checked here to keep the test near 10 s
    for i in sorted(fold.carried)[::2]:
        tri = Triangulation(cfg, search_node(fold.search, i))
        assert verify_local_folding(tri, HeightFunction(tuple(fold.witnesses[i]))).verdict


def test_fold_decides_its_seed_as_is_regular_does():
    # the seed goes through the same rows and LP as every node the carried
    # heights miss, pinned on its first simplex as is_regular pins it
    cases = []
    for n in (1, 2, 3):
        w = snake_polytope_word(n)
        perms = [tau.column_permutation for tau in all_twists(w)[1:]]
        cases.append((canonical_of(w), all_circuits(w), perms))
    cases.append(delta3_times_delta3() + ((),))
    for seed, circuits, perms in cases:
        fold = _regularity_fold(seed, circuits, perms, budget=1)
        assert fold.witnesses[0] == _primitive(is_regular(seed, circuits).heights.heights)


def test_fold_raises_at_the_seed_without_a_circuit_its_walls_use():
    w = snake_polytope_word(2)
    circuits = all_circuits(w)
    seed = canonical_of(w)
    search = _search(seed, circuits, budget=1)
    used = search.cells.sides[search.scans[0][1][0]].circuit
    short = tuple(z for z in circuits if z != used)
    with pytest.raises(RegularityError, match='interior walls match'):
        is_regular(seed, short)
    with pytest.raises(RegularityError, match='triangulation 0 matches'):
        _regularity_fold(seed, short, (), budget=100000)


def test_gordan_certificates_of_the_non_regular_delta3_times_delta3_nodes():
    # integers only: nonnegative multipliers, not all zero, one per wall row,
    # whose combination of the rows is the zero vector
    seed, circuits = delta3_times_delta3()
    cfg = seed.config
    search = _search(seed, circuits, budget=3252)
    for i in (2159, 2454):
        tri = Triangulation(cfg, search_node(search, i))
        result = is_regular(tri, circuits)
        assert not result and result.heights is None
        y = result.certificate
        rows = wall_rows(tri, circuits)
        assert len(y) == len(rows) == result.constraints
        assert all(isinstance(k, int) and k >= 0 for k in y) and any(y)
        total = [0] * len(cfg.columns)
        for k, row in zip(y, rows):
            for c, x in row.items():
                total[c] += k * x
        assert total == [0] * len(cfg.columns)
    assert is_regular(seed, circuits).certificate is None


def test_is_regular_without_interior_walls():
    # one simplex: no wall row, so the program has no rows to give its width
    cfg = PointConfiguration(1, ((0,), (1,)), ((0,), (1,)))
    r = is_regular(Triangulation.make(cfg, [(0, 1)]), (), verify=True)
    assert r == (True, HeightFunction((Fraction(0), Fraction(0))), 1, 0, None)


def test_is_regular_raises_without_heights_or_certificate(monkeypatch):
    w = parse_word('')
    monkeypatch.setattr(regularity, 'lp_feasible', lambda A, b, n: None)
    with pytest.raises(RegularityError, match='Gordan'):
        is_regular(canonical_of(w), all_circuits(w))


def kernel_twist_is_affine(w, tau):
    """One kernel per column: sum_k lam_k base_k + lam_last x_c = 0 fixes x_c's image."""
    cfg = word_context(w).config
    base = canonical_of(w).simplices[0]
    bcols = [cfg.homogeneous(c) for c in base]
    images = [cfg.homogeneous(tau.column_permutation[c]) for c in base]
    for c in range(len(cfg.columns)):
        lam = integer_normal(list(zip(*bcols, cfg.homogeneous(c))))
        target = cfg.homogeneous(tau.column_permutation[c])
        for i in range(cfg.dim + 1):
            if -sum(lam[k] * images[k][i] for k in range(len(bcols))) != lam[-1] * target[i]:
                return False
    return True


def twist_is_affine(w, tau):
    return _perms_are_affine(w, (tau.column_permutation,))


def test_twist_is_affine_matches_the_per_column_kernels():
    rng = random.Random(12)
    rejected = 0
    reversals = []
    for w in list(v_words(5)) + [snake_polytope_word(n) for n in range(1, 5)]:
        for tau in all_twists(w):
            assert twist_is_affine(w, tau) and kernel_twist_is_affine(w, tau)
        alpha = _reversal(w)
        if alpha is not None:
            tau = Twist(w, frozenset(), (), alpha)
            verdict = kernel_twist_is_affine(w, tau)
            assert twist_is_affine(w, tau) == verdict
            reversals.append(verdict)
        columns = list(range(len(word_context(w).config.columns)))
        for _ in range(4):
            rng.shuffle(columns)
            tau = Twist(w, frozenset(), (), tuple(columns))
            verdict = kernel_twist_is_affine(w, tau)
            assert twist_is_affine(w, tau) == verdict
            rejected += not verdict
    assert rejected > 100
    assert reversals and all(reversals)


def test_twists_are_affine_takes_every_twist_of_the_word():
    w = parse_word('LRRL')
    perms = [tau.column_permutation for tau in all_twists(w)]
    assert _perms_are_affine(w, perms)
    columns = list(range(len(word_context(w).config.columns)))
    random.Random(3).shuffle(columns)
    shuffled = Twist(w, frozenset(), (), tuple(columns))
    assert not twist_is_affine(w, shuffled)
    assert not _perms_are_affine(w, perms + [shuffled.column_permutation])


def test_elementary_twists_decide_the_affinity_of_every_twist():
    # every twist is a product of elementary twists and affine maps compose,
    # so count_regular_triangulations tests the elementary twists alone
    for n in range(1, 5):
        w = snake_polytope_word(n)
        ctx = word_context(w)
        ladders = len(ctx.labeling.ladders.rungs)
        gens = [elementary_twist(w, i).column_permutation for i in range(1, ladders + 1)]
        perms = [tau.column_permutation for tau in all_twists(w)]
        assert set(gens) < set(perms) and len(perms) == 2 ** ladders
        assert _perms_are_affine(w, gens) is _perms_are_affine(w, perms[1:]) is True
        swap = list(range(len(ctx.config.columns)))
        swap[0], swap[1] = swap[1], swap[0]
        assert not _perms_are_affine(w, gens + [tuple(swap)])


def every_circuit_is_affine(w, perms):
    """The affinity check on every circuit of the word, kept as a reference."""
    cfg = word_context(w).config
    return all(is_unit_dependence(cfg, Circuit(tuple(perm[c] for c in z.plus),
                                               tuple(perm[c] for c in z.minus)))
               for perm in perms for z in all_circuits(w))


def test_affinity_on_the_fundamental_circuits_matches_every_circuit():
    # the fundamental circuits of one basis span the dependences, so checking
    # them alone gives the verdict of all circuits: every twist and reversal
    # of the words to length 4, and the transposition of columns 0 and 1
    verdicts = []
    for w in v_words(4):
        ncols = len(word_context(w).config.columns)
        swap = list(range(ncols))
        swap[0], swap[1] = swap[1], swap[0]
        cases = [(tau.column_permutation,) for tau in all_twists(w)] + [(tuple(swap),)]
        alpha = _reversal(w)
        if alpha is not None:
            cases.append((alpha,))
        for perms in cases:
            verdict = _perms_are_affine(w, perms)
            assert verdict == every_circuit_is_affine(w, perms), (w, perms)
            verdicts.append(verdict)
        assert not _perms_are_affine(w, (tuple(swap),))
    assert verdicts.count(False) == 23 and verdicts.count(True) > 60


def kernel_enumerate_triangulations(cfg, budget_steps=2_000_000):
    """The enumeration with one integer_normal kernel per wall, kept as a reference."""
    def sign(x):
        return (x > 0) - (x < 0)

    d = cfg.dim
    ncols = len(cfg.columns)
    expected = expected_normalized_volume(cfg)
    candidates = tuple(s for s in itertools.combinations(range(ncols), d + 1)
                       if simplex_volume(cfg, s) > 0)
    volumes = [simplex_volume(cfg, s) for s in candidates]
    normals = {}

    def side(f, hom):
        if f not in normals:
            normals[f] = integer_normal([cfg.homogeneous(c) for c in f])
        return sum(a * b for a, b in zip(normals[f], hom))

    facet_index = {}
    cand_facets = [[] for _ in candidates]
    for f, cofaces in walls(candidates).items():
        for ci, apex in cofaces:
            sgn = sign(side(f, cfg.homogeneous(apex)))
            assert sgn != 0
            facet_index.setdefault(f, []).append((ci, sgn))
            cand_facets[ci].append((f, sgn))
    boundary = {}
    for f in facet_index:
        signs = {sign(side(f, cfg.homogeneous(c))) for c in range(ncols)}
        boundary[f] = not (1 in signs and -1 in signs)
    for t in (2, 3, 5, 7, 11, 13, 17):
        q = tuple(sum(t ** c * cfg.homogeneous(c)[i] for c in range(ncols))
                  for i in range(d + 1))
        qside = {f: sign(side(f, q)) for f in facet_index}
        if all(qside.values()):
            break
    else:
        raise RegularityError('no generic interior reference point found')
    contains_q = [all(qside[f] == sgn for f, sgn in cand_facets[ci])
                  for ci in range(len(candidates))]

    counts = {}
    open_facets = set()
    chosen = []
    state = {'vol': 0, 'steps': 0, 'complete': True}
    results = []

    def can_place(ci):
        if state['vol'] + volumes[ci] > expected:
            return False
        return not any(counts.get(f) and (counts[f][0] >= 2 or counts[f][1] == sgn)
                       for f, sgn in cand_facets[ci])

    def place(ci):
        chosen.append(ci)
        state['vol'] += volumes[ci]
        for f, sgn in cand_facets[ci]:
            st = counts.setdefault(f, [0, sgn])
            st[0] += 1
            if st[0] == 1:
                st[1] = sgn
                if not boundary[f]:
                    open_facets.add(f)
            else:
                open_facets.discard(f)

    def unplace(ci):
        chosen.pop()
        state['vol'] -= volumes[ci]
        for f, sgn in cand_facets[ci]:
            counts[f][0] -= 1
            if counts[f][0] == 0:
                del counts[f]
                open_facets.discard(f)
            elif not boundary[f]:
                open_facets.add(f)

    def rec():
        state['steps'] += 1
        if state['steps'] > budget_steps:
            state['complete'] = False
            return
        if not open_facets:
            if state['vol'] == expected:
                results.append(tuple(sorted(candidates[ci] for ci in chosen)))
            return
        f = min(open_facets)
        want = -counts[f][1]
        for ci, sgn in facet_index[f]:
            if sgn == want and not contains_q[ci] and can_place(ci):
                place(ci)
                rec()
                unplace(ci)

    for ci in range(len(candidates)):
        if contains_q[ci] and state['complete']:
            place(ci)
            rec()
            unplace(ci)
    return tuple(sorted(results)), state['complete']


def set_up_steps(cfg, circuits=(), root=()):
    """Attempts of count_triangulations' walk, counted with rational ranks.

    From every independent index-increasing column set S that can still
    grow to d + 1 columns, the walk tries each later column that leaves room.
    With no root this is the walk that lists every candidate; under a root
    r, the walk that lists the candidates compatible with r also cuts every
    S that holds one side of a circuit whose other side lies in r.
    """
    size = cfg.dim + 1
    ncols = len(cfg.columns)
    clashing = [set(a) for z in circuits for a, b in ((z.plus, z.minus), (z.minus, z.plus))
                if set(b) <= set(root)]

    def count(s):
        tries = range(s[-1] + 1 if s else 0, ncols - size + len(s) + 1)
        if len(s) + 1 == size:
            return len(tries)
        return len(tries) + sum(count(s + (j,)) for j in tries
                                if not fraction_kernel(list(zip(*map(cfg.homogeneous, s + (j,)))))
                                and not any(a <= {*s, j} for a in clashing))
    return count(())


def test_enumeration_matches_the_kernel_reference():
    # budget_steps counts the set-up walk's steps (counted with rational
    # ranks by set_up_steps) before the search's; the cuts at 1, 50 and 1000
    # search steps land in the search, not only before it, and keep part of
    # the full set, which is complete only when whole
    words = list(v_words(3)) + [parse_word(word) for word in ('LLLL', 'LLLR', 'LLRR', 'LRRL')]
    truncated = 0
    totals = {}
    for w in words:
        cfg = word_context(w).config
        circuits = all_circuits(w)
        full = enumerate_triangulations(cfg, circuits)
        assert full == kernel_enumerate_triangulations(cfg), w
        totals[str(w)] = len(full[0])
        setup = set_up_steps(cfg)
        for budget in (1, 50, 1000):
            found, complete = enumerate_triangulations(cfg, circuits, setup + budget)
            assert set(found) <= set(full[0]), (w, budget)
            assert not complete or found == full[0], (w, budget)
            truncated += not complete
    assert truncated > len(words)
    assert [totals[w] for w in ('LLLL', 'LLLR', 'LLRR', 'LRRL')] == [720, 480, 424, 336]


def test_enumeration_matches_flip_search_on_small_configs():
    for word in ('', 'L', 'LL', 'LR'):
        w = parse_word(word)
        cfg = word_context(w).config
        found, complete = enumerate_triangulations(cfg, all_circuits(w))
        assert complete
        graph = explore_flip_graph(canonical_of(w), all_circuits(w))
        assert set(found) == {t.simplices for t in graph.nodes}
        for simplices in found:
            assert is_triangulation(cfg, simplices, all_circuits(w))


def test_enumeration_respects_budget():
    w = parse_word('')
    found, complete = enumerate_triangulations(word_context(w).config, all_circuits(w), 1)
    assert not complete


def counted(monkeypatch, name, at):
    """The argument at position at of every call of regularity's name, as a tuple, in call order."""
    calls = []
    real = getattr(regularity, name)

    def wrapper(*args):
        calls.append(tuple(args[at]))
        return real(*args)

    monkeypatch.setattr(regularity, name, wrapper)
    return calls


def test_enumeration_budget_bounds_the_set_up(monkeypatch):
    # no root is tested until the walk has finished within the budget, and
    # no adjugate is taken at all
    w = parse_word('LRRL')
    cfg = word_context(w).config
    circuits = all_circuits(w)
    calls = counted(monkeypatch, '_is_root', 0)
    adjugates = counted(monkeypatch, 'adjugate', 0)
    setup = set_up_steps(cfg)
    for budget in (1, setup - 1):
        assert enumerate_triangulations(cfg, circuits, budget) == ((), False)
        assert calls == []
    assert enumerate_triangulations(cfg, circuits, setup) == ((), False)
    assert len(calls) == 288
    assert adjugates == []


def test_enumeration_candidates_are_the_full_simplices(monkeypatch):
    # only the (d+1)-sets of nonzero volume get a root test, in
    # lexicographic order, and none an adjugate
    configs = [word_context(parse_word(word)).config for word in ('LR', 'LRRL')]
    configs.append(order_polytope_vertices(Poset(4, [(0, 1), (2, 3)])))
    calls = counted(monkeypatch, '_is_root', 0)
    adjugates = counted(monkeypatch, 'adjugate', 0)
    sizes = []
    for cfg in configs:
        circuits = circuits_brute(cfg)
        calls.clear()
        found, complete = enumerate_triangulations(cfg, circuits)
        assert complete and found
        subsets = list(itertools.combinations(range(len(cfg.columns)), cfg.dim + 1))
        assert calls == [s for s in subsets if simplex_volume(cfg, s)]
        sizes.append((len(calls), len(subsets)))
    assert sizes[1] == (288, 2002)
    assert adjugates == []


def root_verdicts(monkeypatch, cfg, circuits):
    """Candidate -> whether _is_root holds, from an enumeration cut short after the root tests."""
    verdicts = {}
    real = regularity._is_root

    def recorded(simplex, *args):
        verdicts[tuple(simplex)] = real(simplex, *args)
        return False

    monkeypatch.setattr(regularity, '_is_root', recorded)
    assert enumerate_triangulations(cfg, circuits) == ((), True)
    monkeypatch.setattr(regularity, '_is_root', real)
    return verdicts


def holds_point_at_t_2(cfg, simplex):
    """Oracle: whether the simplex holds sum 2^c (v_c, 1), by its adjugate; None on a wall."""
    homs = [cfg.homogeneous(c) for c in range(len(cfg.columns))]
    q = [sum(2 ** c * hom[i] for c, hom in enumerate(homs)) for i in range(cfg.dim + 1)]
    det, adj = adjugate(list(zip(*map(cfg.homogeneous, simplex))))
    assert det
    coords = [det * sum(a * b for a, b in zip(row, q)) for row in adj]
    return None if 0 in coords else all(x > 0 for x in coords)


def test_roots_match_the_reference_point_at_t_2(monkeypatch):
    # where sum 2^c (v_c, 1) lies on no wall, the circuits' signs pick the
    # same roots as its barycentric coordinates from the adjugates
    words = list(v_words(4)) + [snake_polytope_word(3)]
    counts = {}
    for w in words:
        cfg = word_context(w).config
        verdicts = root_verdicts(monkeypatch, cfg, all_circuits(w))
        assert verdicts == {s: holds_point_at_t_2(cfg, s) for s in verdicts}, w
        counts[str(w)] = sum(verdicts.values())
    assert [counts[str(snake_polytope_word(n))] for n in (1, 2, 3)] == [8, 32, 128]


def test_every_triangulation_holds_exactly_one_root(monkeypatch):
    hexagon = plane_configuration([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    centred = plane_configuration([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    cases = [(cfg, circuits_brute(cfg))
             for cfg in (hexagon, centred, order_polytope_vertices(Poset(4, [(0, 1), (2, 3)])),
                         order_polytope_vertices(Poset(3, [])), cube_configuration(CUBE_ORDER))]
    cases += [(word_context(w).config, all_circuits(w)) for w in map(snake_polytope_word, (1, 2))]
    sizes = []
    for cfg, circuits in cases:
        found, complete = enumerate_triangulations(cfg, circuits)
        roots = {s for s, root in root_verdicts(monkeypatch, cfg, circuits).items() if root}
        assert complete
        assert all(len(roots.intersection(t)) == 1 for t in found)
        sizes.append(len(found))
    assert sizes == [14, 3, 108, 74, 74, 20, 336]


def closed_form_root(n, code):
    """ROADMAP's representative of the root orbit of binary code b_1..b_n."""
    top = 4 * n + 6
    columns = {0, 1, 2, top - 3, top - 2, top - 1}
    columns |= {4 * k + 2 * b for k, b in enumerate(code, 1)}
    columns |= {4 * k + 3 for k in range(1, n)}
    return tuple(sorted(columns))


def test_twists_act_freely_on_the_roots(monkeypatch):
    # 2^(2n+1) roots in 2^n free twist orbits, one closed-form representative each
    for n in (1, 2, 3):
        w = snake_polytope_word(n)
        verdicts = root_verdicts(monkeypatch, word_context(w).config, all_circuits(w))
        roots = {s for s, root in verdicts.items() if root}
        twists = [tau.column_permutation for tau in all_twists(w)]
        orbits = set()
        for r in roots:
            images = frozenset(tuple(sorted(perm[c] for c in r)) for perm in twists)
            assert images <= roots and len(images) == len(twists)
            orbits.add(images)
        codes = list(itertools.product((0, 1), repeat=n))
        assert len(roots) == 2 ** (2 * n + 1) and len(orbits) == len(codes) == 2 ** n
        assert {orbit for orbit in orbits for code in codes
                if closed_form_root(n, code) in orbit} == orbits


def twist_perms(w):
    return [tau.column_permutation for tau in all_twists(w)]


def test_twist_orbits_of_roots_count_every_triangulation():
    # the leaves, one root per twist orbit, times the orbit size are every
    # triangulation: on the snakes to n = 3 and on every word to length 4
    words = {str(w): w for w in [*v_words(4), *map(snake_polytope_word, (1, 2, 3))]}
    sizes = {}
    for name, w in words.items():
        cfg = word_context(w).config
        circuits = all_circuits(w)
        found, complete = enumerate_triangulations(cfg, circuits)
        leaves, size, counted_all = count_triangulations(cfg, circuits, twist_perms(w))
        assert complete and counted_all
        assert size * len(leaves) == len(found), name
        assert size == len(twist_perms(w)), name
        sizes[name] = (size, len(leaves))
    assert [sizes[str(snake_polytope_word(n))] for n in (1, 2, 3)] == [(4, 5), (8, 42), (16, 429)]


N_BY_CODE = {
    1: '0:3 1:2',
    2: '00:13 01:10 10:9 11:10',
    3: '000:64 001:51 010:52 011:64 100:42 101:33 110:53 111:70',
}


def test_triangulations_holding_each_closed_form_root_are_pinned():
    # N(b), the number of triangulations that hold closed_form_root(n, b),
    # read off the leaves: each leaf holds one root, the first of its twist
    # orbit, and a twist maps the triangulations holding a root onto those
    # holding its image; at n <= 2 also counted over every triangulation
    for n, table in N_BY_CODE.items():
        w = snake_polytope_word(n)
        cfg = word_context(w).config
        circuits = all_circuits(w)
        twists = twist_perms(w)
        leaves, _, complete = count_triangulations(cfg, circuits, twists)
        assert complete
        counts = {}
        for code in itertools.product((0, 1), repeat=n):
            root = closed_form_root(n, code)
            orbit = {tuple(sorted(perm[c] for c in root)) for perm in twists}
            counts[code] = sum(1 for leaf in leaves if orbit.intersection(leaf))
        assert ' '.join('%s:%d' % (''.join(map(str, code)), count)
                        for code, count in sorted(counts.items())) == table
        assert sum(counts.values()) == len(leaves) == catalan(2 * n + 1)
        if n <= 2:
            found, complete = enumerate_triangulations(cfg, circuits)
            assert complete
            assert {code: sum(1 for t in found if closed_form_root(n, code) in t)
                    for code in counts} == counts


def test_leaves_hold_the_first_root_of_each_twist_orbit(monkeypatch):
    # the leaves are exactly the triangulations that hold a representative,
    # the least root of its orbit in the candidates' lexicographic order
    for w in [*v_words(3), snake_polytope_word(3)]:
        cfg = word_context(w).config
        circuits = all_circuits(w)
        twists = twist_perms(w)
        roots = {s for s, root in root_verdicts(monkeypatch, cfg, circuits).items() if root}
        orbits = {frozenset(tuple(sorted(perm[c] for c in r)) for perm in twists) for r in roots}
        representatives = {min(orbit) for orbit in orbits}
        assert len(representatives) * len(twists) == len(roots)
        found, _ = enumerate_triangulations(cfg, circuits)
        leaves, size, complete = count_triangulations(cfg, circuits, twists)
        assert complete and size == len(twists)
        assert leaves == tuple(t for t in found if representatives.intersection(t)), w


def test_root_orbits_fall_back_to_single_roots():
    # every root is its own orbit, and the leaves are every triangulation,
    # when the reversal maps no root of the n=2 snake onto a root, alone or
    # in its group with the twists; when a transposition maps a circuit off
    # the circuits; and when two elementary twists without their product
    # give overlapping orbits
    w = snake_polytope_word(2)
    cfg = word_context(w).config
    circuits = all_circuits(w)
    found, _ = enumerate_triangulations(cfg, circuits)
    group = _orbit_group(w, twist_perms(w))
    swap = list(range(len(cfg.columns)))
    swap[0], swap[1] = swap[1], swap[0]
    pair = [elementary_twist(w, i).column_permutation for i in (1, 2)]
    assert len(group) == 16
    for perms in ([_reversal(w)], group, [tuple(swap)], pair, ()):
        assert count_triangulations(cfg, circuits, perms) == (found, 1, True)
    assert len(found) == 336
    with pytest.raises(RegularityError, match='not a permutation'):
        count_triangulations(cfg, circuits, [tuple(range(len(cfg.columns) - 1))])


def test_root_orbits_need_a_map_of_the_circuits_and_a_free_action():
    # this involution of the hexagon's columns maps its 4 roots onto roots
    # without a fixed one, but maps a circuit off the circuits, so it is no
    # symmetry of the triangulations; this one of the L word's columns keeps
    # the circuits and the roots but fixes two roots, whose orbits are short:
    # neither groups any roots
    hexagon = plane_configuration([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    w = parse_word('L')
    cases = [(hexagon, circuits_brute(hexagon), (1, 0, 3, 2, 4, 5)),
             (word_context(w).config, all_circuits(w), (0, 2, 1, 4, 3, 5, 6, 7))]
    kept = []
    for cfg, circuits, perm in cases:
        found, _ = enumerate_triangulations(cfg, circuits)
        kept.append({Circuit.make([perm[c] for c in z.plus], [perm[c] for c in z.minus])
                     for z in circuits} == set(circuits))
        assert count_triangulations(cfg, circuits, [perm]) == (found, 1, True)
    assert kept == [False, True]


def test_root_orbit_count_respects_the_step_budget(monkeypatch):
    # the budget counts the set-up walk and then, under each representative,
    # its own walk and its search; the first representative is the least
    # root, and a spent budget keeps part of the leaves, complete False
    w = snake_polytope_word(2)
    cfg = word_context(w).config
    circuits = all_circuits(w)
    twists = twist_perms(w)
    first = min(s for s, root in root_verdicts(monkeypatch, cfg, circuits).items() if root)
    leaves, size, complete = count_triangulations(cfg, circuits, twists)
    assert complete and len(leaves) == 42
    setup = set_up_steps(cfg)
    local = set_up_steps(cfg, circuits, first)
    assert count_triangulations(cfg, circuits, twists, 1) == ((), 1, False)
    assert count_triangulations(cfg, circuits, twists, setup) == ((), size, False)
    assert count_triangulations(cfg, circuits, twists, setup + local) == ((), size, False)
    part, part_size, part_complete = count_triangulations(cfg, circuits, twists,
                                                          setup + local + 200)
    assert not part_complete and part_size == size
    assert part and set(part) < set(leaves)


def test_root_pass_slices_leave_the_results_unchanged(monkeypatch):
    # the roots are read off _CHUNK candidates at a time, so a slice of 1 or
    # 7 changes no result; with slices of 7, no _circuit_cells call of the
    # n=3 count receives the whole candidate list
    cases = []
    for w in (snake_polytope_word(2), parse_word('LRRL')):
        cfg = word_context(w).config
        circuits = all_circuits(w)
        cases.append((cfg, circuits, twist_perms(w)))
    expected = [(count_triangulations(cfg, circuits, twists),
                 enumerate_triangulations(cfg, circuits)) for cfg, circuits, twists in cases]
    for chunk in (1, 7):
        monkeypatch.setattr(regularity, '_CHUNK', chunk)
        assert [(count_triangulations(cfg, circuits, twists),
                 enumerate_triangulations(cfg, circuits))
                for cfg, circuits, twists in cases] == expected
    w = snake_polytope_word(3)
    cfg = word_context(w).config
    circuits = all_circuits(w)
    candidates = tuple(root_verdicts(monkeypatch, cfg, circuits))
    calls = counted(monkeypatch, '_circuit_cells', 1)
    leaves, size, complete = count_triangulations(cfg, circuits, twist_perms(w))
    assert complete and len(leaves) == 429 and size == 16
    assert candidates not in calls
    assert max(map(len, calls)) < len(candidates) == 2304


def test_each_search_lists_the_candidates_compatible_with_its_root(monkeypatch):
    # at n=2 the walk under each root lists the candidates that do not clash
    # with it by _circuit_cells on every candidate, the root included
    w = snake_polytope_word(2)
    cfg = word_context(w).config
    circuits = all_circuits(w)
    ncols = len(cfg.columns)
    verdicts = root_verdicts(monkeypatch, cfg, circuits)
    candidates = list(verdicts)
    roots = [s for s in candidates if verdicts[s]]
    clash, _, _ = _circuit_cells(ncols, candidates, circuits)
    calls = counted(monkeypatch, '_circuit_cells', 1)
    found, complete = enumerate_triangulations(cfg, circuits)
    assert complete and len(found) == 336
    assert calls[0] == tuple(candidates) and len(calls) == 1 + len(roots) == 33
    for r, local in zip(roots, calls[1:]):
        bad = clash[candidates.index(r)]
        assert local == tuple(s for p, s in enumerate(candidates) if not bad >> p & 1)
        assert r in local and len(local) < len(candidates)


def test_enumeration_is_generic_where_the_t_2_point_lies_on_a_wall():
    # with these columns the point sum 2^c (x_c, 1) lies on the hyperplane of a
    # wall of a full simplex, which the symbolic reference point never does
    cube = cube_configuration(CUBE_ORDER)
    homs = [cube.homogeneous(c) for c in range(len(cube.columns))]
    q = [sum(2 ** c * hom[i] for c, hom in enumerate(homs)) for i in range(cube.dim + 1)]
    assert any(adjugate([homs[j] for j in s if j != apex] + [q])[0] == 0
               for s in itertools.combinations(range(len(homs)), cube.dim + 1)
               if adjugate([homs[j] for j in s])[0]
               for apex in s)
    found, complete = enumerate_triangulations(cube, circuits_brute(cube))
    assert complete and len(found) == 74
    natural = order_polytope_vertices(Poset(3, []))
    relabel = [natural.columns.index(col) for col in cube.columns]
    moved = {tuple(sorted(tuple(sorted(relabel[c] for c in s)) for s in t)) for t in found}
    assert moved == set(enumerate_triangulations(natural, circuits_brute(natural))[0])


def test_budgeted_enumeration_of_delta3_times_delta3(monkeypatch):
    # 4096 candidates and 204 circuits: far too many triangulations to list,
    # so about 2000 search steps after the set-up walk and the least root's
    # walk find some, each valid
    seed, circuits = delta3_times_delta3()
    cfg = seed.config
    first = min(s for s, root in root_verdicts(monkeypatch, cfg, circuits).items() if root)
    setup = set_up_steps(cfg) + set_up_steps(cfg, circuits, first)
    found, complete = enumerate_triangulations(cfg, circuits, setup + 2000)
    assert not complete and found
    assert all(is_triangulation(cfg, simplices, circuits) for simplices in found)


def test_enumeration_raises_on_an_incomplete_circuit_list():
    # without a 4-element circuit, a full-size column set through its support
    # holds no listed circuit, so it becomes a candidate, and it is flat
    w = parse_word('LR')
    cfg = word_context(w).config
    circuits = all_circuits(w)
    dropped = [i for i, z in enumerate(circuits) if len(z.support()) == 4]
    assert len(dropped) == 5
    for i in dropped:
        with pytest.raises(RegularityError, match='flat'):
            enumerate_triangulations(cfg, circuits[:i] + circuits[i + 1:])


def test_enumeration_raises_on_a_short_or_repeated_circuit_list():
    # each circuit Z is the one circuit that a column j of Z forms with a
    # candidate through Z - j, so no circuit can go unmissed, nor be listed twice
    hexagon = plane_configuration([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    cases = [(word_context(parse_word(word)).config, all_circuits(parse_word(word)))
             for word in ('LR', 'LL', 'LRRL')]
    cases.append((hexagon, circuits_brute(hexagon)))
    for cfg, circuits in cases:
        assert enumerate_triangulations(cfg, circuits)[1]
        for i in range(len(circuits)):
            with pytest.raises(RegularityError, match='flat'):
                enumerate_triangulations(cfg, circuits[:i] + circuits[i + 1:])
        with pytest.raises(RegularityError, match='repeats'):
            enumerate_triangulations(cfg, circuits + circuits[-1:])
    assert [len(circuits) for _, circuits in cases] == [7, 6, 22, 15]


def plane_configuration(points):
    return PointConfiguration(dim=2, columns=tuple(points),
                              column_labels=tuple((i,) for i in range(len(points))))


def test_enumeration_beyond_order_polytopes():
    # the enumeration needs only the circuit list: a convex hexagon has
    # Catalan(4) triangulations, and a square with its centre has the star
    # and the two diagonal splits that leave the centre unused
    hexagon = plane_configuration([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    found, complete = enumerate_triangulations(hexagon, circuits_brute(hexagon))
    assert complete and len(found) == catalan(4) == 14
    assert {sum(simplex_volume(hexagon, s) for s in t) for t in found} == {6}
    centred = plane_configuration([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    assert enumerate_triangulations(centred, circuits_brute(centred)) == ((
        ((0, 1, 2), (1, 2, 3)),
        ((0, 1, 3), (0, 2, 3)),
        ((0, 1, 4), (0, 2, 4), (1, 3, 4), (2, 3, 4)),
    ), True)


def test_is_triangulation_beyond_order_polytopes():
    # the circuits alone validate what the enumeration lists: every one of
    # the hexagon's 14 triangulations, but none after a swap of one simplex
    # for another candidate, some of which overlap a kept simplex by the LP
    # reference; and every triangulation of Delta2 x Delta2 and of the cube
    # with its columns reordered
    hexagon = plane_configuration([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    circuits = circuits_brute(hexagon)
    found, complete = enumerate_triangulations(hexagon, circuits)
    assert complete and len(found) == 14
    candidates = list(itertools.combinations(range(6), 3))
    for t in found:
        assert is_triangulation(hexagon, t, circuits)
        swaps = [t[:k] + (c,) + t[k + 1:] for k in range(len(t)) for c in candidates if c not in t]
        assert not any(is_triangulation(hexagon, s, circuits) for s in swaps)
        assert any(not meet_in_common_faces(hexagon, s) for s in swaps)
    sizes = []
    for cfg in (order_polytope_vertices(Poset(4, [(0, 1), (2, 3)])),
                cube_configuration(CUBE_ORDER)):
        circuits = circuits_brute(cfg)
        found, complete = enumerate_triangulations(cfg, circuits)
        assert complete
        assert all(is_triangulation(cfg, t, circuits) for t in found)
        sizes.append(len(found))
    assert sizes == [108, 74]


def test_snake_polytope_words():
    assert str(snake_polytope_word(1)) == 'LR'
    assert str(snake_polytope_word(2)) == 'LRRL'
    assert str(snake_polytope_word(3)) == 'LRRLLR'
    with pytest.raises(RegularityError):
        snake_polytope_word(0)


def test_flip_degree_experiment():
    ladder = check_flip_degrees(parse_word('LL'))
    assert ladder.secondary_dimension == 3
    assert ladder.degrees == ((3, 24),)
    assert ladder.k_regular
    snake = check_flip_degrees(parse_word('LR'))
    assert snake.degrees == ((3, 20),)
    assert snake.k_regular
    truncated = check_flip_degrees(parse_word('LR'), budget_nodes=2)
    assert truncated.partial
    assert not truncated.k_regular


def test_new_dual_graph_experiment():
    turned = conjecture_suite('6.2', word=parse_word('LR'))
    assert turned.expected_found and turned.found
    assert turned.witness_regular
    ladder = conjecture_suite('6.2', word=parse_word('LL'))
    assert not ladder.expected_found and not ladder.found


def test_canonical_dual_count_experiment():
    r3 = count_canonical_dual_graphs(3)
    assert (r3.count, r3.expected, r3.matches) == (12, 12, True)
    r4 = count_canonical_dual_graphs(4)
    assert (r4.count, r4.expected, r4.matches) == (32, 32, True)
    with pytest.raises(RegularityError):
        count_canonical_dual_graphs(2)


def test_regular_count_experiment_smallest():
    r = count_regular_triangulations(1)
    assert r.word == 'LR'
    assert (r.nodes, r.regular_nodes, r.expected, r.matches) == (20, 20, 20, True)
    assert r.affine_twists
    assert r.twist_orbits == 5
    assert r.exhaustive.total == 20
    assert r.exhaustive.flip_reachable == 20
    assert r.exhaustive.regular == 20
    assert r.exhaustive.complete


def test_regular_count_experiment_second():
    r = count_regular_triangulations(2)
    assert (r.nodes, r.regular_nodes, r.expected, r.matches) == (336, 336, 336, True)
    assert r.exhaustive.total == 336
    assert r.exhaustive.flip_reachable == 336


def test_regular_count_exhaustive_at_n3():
    # every triangulation at n=3 is flip-reachable and regular
    r = count_regular_triangulations(3, exhaustive=True)
    assert r.matches
    assert r.exhaustive.total == r.exhaustive.flip_reachable == r.exhaustive.regular == 6864
    assert r.exhaustive.complete


def test_conjecture_suite_dispatch():
    report = conjecture_suite('6.1', word=parse_word('LL'))
    assert report.k_regular
    assert conjecture_suite('6.4', n=1).matches
    with pytest.raises(RegularityError):
        conjecture_suite('6.1')
    with pytest.raises(RegularityError):
        conjecture_suite('6.4')
    with pytest.raises(RegularityError):
        conjecture_suite('7.1', n=1)


def test_experiments_stop_their_flip_search_at_a_passed_deadline():
    # the deadline is checked before each level, so only the seed is stored
    past = monotonic() - 1
    w = snake_polytope_word(2)
    r = conjecture_suite('6.4', n=2, deadline=past)
    assert (r.partial, r.matches, r.twist_orbits, r.nodes) == (True, False, 1, 8)
    assert (r.exhaustive.total, r.exhaustive.flip_reachable) == (336, 8)
    r = conjecture_suite('6.1', word=w, deadline=past)
    assert (r.partial, r.k_regular, r.nodes) == (True, False, 1)
    r = conjecture_suite('6.2', word=w, deadline=past)
    assert (r.partial, r.found, r.searched) == (True, False, 1)
    r = conjecture_suite('6.3', n=3, deadline=past)
    assert (r.partial, r.matches, r.nodes) == (True, False, 1)
    assert conjecture_suite('6.4', n=2, deadline=monotonic() + 600) == conjecture_suite('6.4', n=2)


def test_regular_count_is_deterministic():
    first = count_regular_triangulations(1)
    second = count_regular_triangulations(1)
    assert first == second


def test_reversal_is_an_affine_anti_automorphism_that_closes_the_twists():
    for n in range(1, 5):
        w = snake_polytope_word(n)
        ctx = word_context(w)
        alpha = _reversal(w)
        flip = {e: ctx.element_of[alpha[ctx.column_of[e]]] for e in range(ctx.phat.size)}
        assert {(flip[hi], flip[lo]) for lo, hi in ctx.phat.covers} == set(ctx.phat.covers)
        assert _perms_are_affine(w, (alpha,))
        seed = canonical_of(w).simplices
        assert tuple(sorted(tuple(sorted(alpha[c] for c in s)) for s in seed)) == seed
        twists = [tau.column_permutation for tau in all_twists(w)]
        group = set(_orbit_group(w, twists))
        assert len(group) == 2 * len(twists) and set(twists) < group
        assert all(tuple(p[c] for c in q) in group for p in group for q in group)


def test_regular_count_stores_the_orbits_of_the_twists_and_the_reversal(monkeypatch):
    stored = []

    def fold(*args, **kwargs):
        result = _regularity_fold(*args, **kwargs)
        stored.append(len(result.search.nodes))
        return result

    monkeypatch.setattr(regularity, '_regularity_fold', fold)
    reports = [count_regular_triangulations(n) for n in (1, 2, 3)]
    assert stored == [4, 25, 229]
    assert [(r.nodes, r.regular_nodes, r.twist_orbits) for r in reports] == [
        (20, 20, 5), (336, 336, 42), (6864, 6864, 429)]
    monkeypatch.setattr(regularity, '_reversal', lambda w: None)
    assert [count_regular_triangulations(n) for n in (1, 2, 3)] == reports
    assert stored[3:] == [5, 42, 429]


def test_truncated_regular_count_stays_within_its_node_budget():
    # whole orbits of the twists and the reversal: at n=2 a budget of 120
    # stops at 112 triangulations, where whole twist orbits reach 120
    reports = {(n, budget): count_regular_triangulations(n, budget_nodes=budget, exhaustive=False)
               for n, budget in ((2, 120), (2, 290), (3, 1000), (3, 5000))}
    for (n, budget), r in reports.items():
        assert r.partial and not r.matches
        assert r.regular_nodes == r.nodes <= budget
        assert r.twist_orbits * len(all_twists(snake_polytope_word(n))) >= r.nodes
    assert reports[2, 120].nodes == 112
