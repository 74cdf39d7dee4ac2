"""Tests for flips, flip-graph exploration, GKZ vectors, and dual graphs."""
import hashlib
import itertools
import random
from math import factorial

import pytest
from test_posets import brute_isomorphic, relabel_and_reroute

from snakeflip.circuits import Circuit, all_circuits, circuits_brute
from snakeflip.flips import (
    FlipError,
    FlipMove,
    Graph,
    apply_flip,
    canonical_of,
    cayley_check,
    dual_graph,
    explore_flip_graph,
    find_flips,
    graphs_isomorphic,
    triangulation_hash,
)
from snakeflip import flips
from snakeflip.flips import _Cells, _decode, _encode, _flip, _Group, _mix, _search
from snakeflip.polytope import (PointConfiguration, Triangulation, is_triangulation, is_unimodular,
                                simplex_volume)
from snakeflip.regularity import _orbit_group, enumerate_triangulations, snake_polytope_word
from snakeflip.twists import all_twists
from snakeflip.words import parse_word, v_words


def reference_find_flips(tri, circuits):
    # reference: the set-based search that flips.find_flips ran before the
    # mask kernel, on per-vertex incidence sets and sorted simplex tuples
    incidence = {}
    sets = []
    for pos, simplex in enumerate(tri.simplices):
        sets.append(frozenset(simplex))
        for v in simplex:
            incidence.setdefault(v, set()).add(pos)
    moves = []
    for z in circuits:
        support = set(z.support())
        for direction, side in (('plus', z.plus), ('minus', z.minus)):
            links = []
            for j in side:
                cell = support - {j}
                hosts = set.intersection(*(incidence.get(v, set()) for v in cell))
                if not hosts:
                    links = None
                    break
                links.append(frozenset(tuple(sorted(sets[h] - cell)) for h in hosts))
            if links and all(link == links[0] for link in links):
                moves.append(FlipMove(z, direction, tuple(sorted(links[0]))))
    return moves


def reference_apply_flip(tri, move):
    # reference: the set-based flip of apply_flip before the mask kernel
    z = move.circuit
    side, other = (z.plus, z.minus) if move.direction == 'plus' else (z.minus, z.plus)
    support = set(z.support())
    current = set(tri.simplices)
    old = {tuple(sorted((support - {j}) | set(face))) for j in side for face in move.link}
    new = {tuple(sorted((support - {j}) | set(face))) for j in other for face in move.link}
    assert old <= current
    return Triangulation.make(tri.config, (current - old) | new)


def test_find_flips_matches_the_set_based_reference():
    cases = [(canonical_of(w), all_circuits(w)) for w in v_words(5)]
    for word in ('L', 'LL', 'LR', 'LRRL'):
        w = parse_word(word)
        zs = all_circuits(w)
        cases += [(t, zs) for t in explore_flip_graph(canonical_of(w), zs).nodes]
    assert len(cases) == 39 + 6 + 24 + 20 + 336
    for tri, zs in cases:
        moves = find_flips(tri, zs)
        assert moves == reference_find_flips(tri, zs)
        for m in moves:
            assert apply_flip(tri, m) == reference_apply_flip(tri, m)


def test_snake_search_at_n2_is_pinned():
    w = snake_polytope_word(2)
    g = explore_flip_graph(canonical_of(w), all_circuits(w))
    assert (len(g.nodes), len(g.edges)) == (336, 840)
    text = repr((tuple(t.simplices for t in g.nodes), g.depths,
                 tuple((a, b, z.plus, z.minus) for a, b, z in g.edges), g.partial))
    digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
    assert digest == '85993d0f1ef2f25004fb15f6b050aaee'


def test_search_records_the_first_move_to_each_node():
    # a level is expanded in the order of its nodes' simplex tuples, so the
    # move that found a node, its first arrival, comes from its first
    # neighbour one level up in that order
    w = snake_polytope_word(2)
    circuits = all_circuits(w)
    g = explore_flip_graph(canonical_of(w), circuits)
    search = _search(canonical_of(w), circuits, budget=100000)
    assert [tuple(_decode(search.n, mask) for mask in node) for node in search.nodes] == [
        t.simplices for t in g.nodes]
    assert (search.depths, search.partial) == (list(g.depths), g.partial)
    up = {b: [] for b in range(len(g.nodes))}
    for a, b, z in g.edges:
        if g.depths[a] + 1 == g.depths[b]:
            up[b].append((g.nodes[a].simplices, a, z))
    assert list(search.arrived(0)) == []
    for b in range(1, len(g.nodes)):
        _, a, z = min(up[b])
        first, s, e = next(search.arrived(b))
        assert (first, search.cells.sides[s].circuit, e) == (a, z, 0)


def test_first_arrival_is_the_flip_that_found_each_node():
    # the seed has no arrival; every other node's first arrival (a, s, 0)
    # flips nodes[a] on side s into nodes[b] exactly, one level down, and
    # with the trivial group the flip graph's edges are the arrivals
    for n in (1, 2, 3):
        w = snake_polytope_word(n)
        seed, circuits = canonical_of(w), all_circuits(w)
        perms = [tau.column_permutation for tau in all_twists(w)[1:]]
        for symmetries in ((), perms):
            search = _search(seed, circuits, budget=100000, perms=symmetries)
            cells = search.cells
            assert list(search.arrived(0)) == []
            for b in range(1, len(search.nodes)):
                a, s, e = next(search.arrived(b))
                assert e == 0 and search.depths[b] == search.depths[a] + 1
                node = search.nodes[a]
                link = dict(cells.scan(node)[0])[s]
                assert _flip(node, frozenset(node), cells.sides[s], link)[0] == search.nodes[b]
            if not symmetries and n <= 2:
                arrivals = [(a, b, cells.sides[s].circuit)
                            for b in range(len(search.nodes)) for a, s, _ in search.arrived(b)]
                edges = explore_flip_graph(seed, circuits).edges
                assert sorted(edges, key=repr) == sorted(arrivals, key=repr)


def test_search_rejects_perms_that_are_not_a_group():
    w = snake_polytope_word(2)
    circuits = all_circuits(w)
    seed = canonical_of(w)
    n = len(seed.config.columns)
    cycle = tuple(range(1, n)) + (0,)
    with pytest.raises(FlipError, match='not closed under composition'):
        _search(seed, circuits, budget=100, perms=[cycle])
    with pytest.raises(FlipError, match='not a permutation'):
        _search(seed, circuits, budget=100, perms=[(0,) * n])
    # a cycle together with all its powers is a group
    powers = [tuple((c + k) % n for c in range(n)) for k in range(1, n)]
    assert _search(seed, circuits, budget=1, perms=powers).group.order == n


def test_search_rejects_commuting_involutions_without_their_product():
    w = snake_polytope_word(2)
    circuits = all_circuits(w)
    seed = canonical_of(w)
    rest = tuple(range(4, len(seed.config.columns)))
    a = (1, 0, 2, 3) + rest
    b = (0, 1, 3, 2) + rest
    with pytest.raises(FlipError, match='not closed under composition'):
        _search(seed, circuits, budget=100, perms=[a, b])
    group = _search(seed, circuits, budget=1, perms=[b, a, (1, 0, 3, 2) + rest]).group
    assert group.perms == [tuple(range(len(seed.config.columns))), b, a, (1, 0, 3, 2) + rest]


def test_group_fills_each_orbit_of_rows_from_one(monkeypatch):
    # one row per orbit of simplices is computed, the rest are reordered
    # from it, and every row is the weight and the images taken directly
    mixed = []
    monkeypatch.setattr(flips, '_mix', lambda least: mixed.append(least) or _mix(least))
    for n in (1, 2, 3):
        w = snake_polytope_word(n)
        twists = [tau.column_permutation for tau in all_twists(w)]
        for perms in (twists, _orbit_group(w, twists)):
            mixed.clear()
            group = _search(canonical_of(w), all_circuits(w), budget=100000, perms=perms).group
            assert group.order == len(set(perms))
            for mask, row in group.images.items():
                assert row[1:] == tuple(group.image(e, mask) for e in range(group.order))
                assert row[0] == _mix(min(row[1:]))
            assert sorted(mixed) == sorted({min(row[1:]) for row in group.images.values()})
    # a group that does not commute: S4 on four columns
    full = _Group(4, itertools.permutations(range(4)))
    mixed.clear()
    full.invariant([0b0011, 0b0111])
    assert len(full.images) == 10 and len(mixed) == 2
    for mask, row in full.images.items():
        assert row[1:] == tuple(full.image(e, mask) for e in range(24))
    # the one-element group's rows are tuples too
    trivial = _Group(3, [])
    assert trivial.invariant([0b101]) == _mix(0b101)
    assert trivial.images == {0b101: (_mix(0b101), 0b101)}


def _two_triangles_at_the_origin():
    # (-1, -1), (1, 0) and (0, 1) span a triangle of normalized volume 3
    cfg = PointConfiguration(2, ((0, 0), (1, 0), (0, 1), (-1, -1)), ((0,), (1,), (2,), (3,)))
    return Triangulation.make(cfg, [(0, 1, 3), (0, 2, 3)])


def test_search_rejects_a_flip_to_a_non_unimodular_simplex():
    # not a real circuit of the four points: real circuits keep unit volumes
    seed = _two_triangles_at_the_origin()
    assert is_unimodular(seed)
    z = Circuit.make([1, 2], [0, 3])
    assert find_flips(seed, [z]) == [FlipMove(z, 'minus', ((),))]
    with pytest.raises(FlipError, match='non-unimodular'):
        explore_flip_graph(seed, [z])


def test_orbit_search_is_pinned():
    # nodes, the move that found each node, orbit sizes and depths of the
    # twist-orbit search; the seed's entry is (-1, None)
    pinned = {2: '5747f6837ad2a253b06fda2d43d8405b', 3: '14d3da5f84b947d910ce0cac9133772c'}
    for n, digest in pinned.items():
        w = snake_polytope_word(n)
        perms = [tau.column_permutation for tau in all_twists(w)[1:]]
        search = _search(canonical_of(w), all_circuits(w), budget=100000, perms=perms)
        parents = [(-1, None)]
        for b in range(1, len(search.nodes)):
            a, s, _ = next(search.arrived(b))
            z = search.cells.sides[s].circuit
            parents.append((a, (z.plus, z.minus)))
        text = repr((search.nodes, parents, search.sizes, search.depths))
        assert hashlib.blake2b(text.encode(), digest_size=16).hexdigest() == digest


def reference_locate(group, index, nodes, node):
    # reference: every element tried on every simplex, in perms order
    rows = [group.images[mask] for mask in node]
    for b in index.get(group.invariant(node), ()):
        target = set(nodes[b])
        for e, element in enumerate(group.elements):
            if target.issuperset(map(element, rows)):
                return b, e
    return None, 0


def test_candidate_lookup_matches_every_element_tried():
    # the lookup tries only the elements that map the first simplex into the
    # target; on every flip of every stored node of the plain and the orbit
    # searches to n = 3, it finds the stored node and element that trying all
    # of them finds, and the orbit sizes those give; the one-element group
    # keys its nodes by their invariants like every other group
    flips_seen = 0
    for n in (1, 2, 3):
        w = snake_polytope_word(n)
        twists = [tau.column_permutation for tau in all_twists(w)]
        for perms in ((), twists, _orbit_group(w, twists)):
            search = _search(canonical_of(w), all_circuits(w), budget=100000, perms=perms)
            group, cells = search.group, search.cells
            for node, size in zip(search.nodes, search.sizes):
                assert group.orbit_size(node) == size
                assert size * sum(all(map(set(node).__contains__, (group.image(e, mask)
                                                                   for mask in node)))
                                  for e in range(group.order)) == group.order
                for s, link in cells.scan(node)[0]:
                    image, _, _ = _flip(node, frozenset(node), cells.sides[s], link)
                    _, b, e = group.locate(search.index, search.nodes, image)
                    assert b is not None
                    assert (b, e) == reference_locate(group, search.index, search.nodes, image)
                    flips_seen += 1
    assert flips_seen > 2000


def reference_scan(cells, node):
    # reference: the scan that ORs every cell's column bit into its
    # (side, face) key, before the cells were counted
    n = cells.n
    acc = {}
    for mask in node:
        for key in cells.entries.get(mask) or cells._entries(mask):
            # the cell's column is the one support column outside the simplex
            acc[key] = acc.get(key, 0) | cells.supports[key >> n] & ~mask
    links, broken, top, matched = {}, set(), {}, 0
    for key, got in acc.items():
        s = key >> n
        if got == cells.columns[s]:
            links.setdefault(s, []).append(key)
        else:
            broken.add(s)
        if got & (got - 1):
            m = got.bit_count()
            matched += m * (m - 1) // 2
            low = got & -got
            rest = got ^ low
            facet = (key | cells.supports[s]) ^ low ^ (rest & -rest)
            top[s] = max(top.get(s, 0), facet)
    moves = [(s, frozenset(key & cells.face_bits for key in links[s]))
             for s in sorted(links) if s not in broken]
    return moves, matched, tuple(sorted(top, key=lambda s: top[s] & cells.face_bits,
                                        reverse=True))


def test_scan_by_counts_matches_the_bit_scan():
    # moves, matched walls and wall sides of every node of the n <= 3 orbit
    # searches, and of the triangulations of the hexagon and of the square
    # with its centre, whose circuits include sides of one column
    cases = []
    for n in (1, 2, 3):
        w = snake_polytope_word(n)
        twists = [tau.column_permutation for tau in all_twists(w)]
        search = _search(canonical_of(w), all_circuits(w), budget=100000,
                         perms=_orbit_group(w, twists))
        cases.append((search.cells, search.nodes))
    for points in (((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)),
                   ((0, 0), (2, 0), (0, 2), (2, 2), (1, 1))):
        cfg = PointConfiguration(2, points, tuple((i,) for i in range(len(points))))
        circuits = circuits_brute(cfg)
        found, _ = enumerate_triangulations(cfg, circuits)
        cases.append((_Cells(cfg, circuits),
                      [tuple(sorted((_encode(len(points), s) for s in t), reverse=True))
                       for t in found]))
    assert min(cases[-1][0].sizes) == 1
    scanned = 0
    for cells, nodes in cases:
        for node in nodes:
            assert cells.scan(node) == reference_scan(cells, node)
            scanned += 1
    assert scanned == 4 + 25 + 229 + 14 + 3


def reference_search(seed, circuits, budget, max_depth=None, perms=()):
    # reference: the breadth-first loop before back-moves were skipped; it
    # flips every move of every expanded node and finds a flip's orbit by its
    # least sorted image under the elements, in _Group's element order.  The
    # move that creates a node is its first arrival, (a, s, 0).
    n = len(seed.config.columns)
    cells = _Cells(seed.config, circuits)
    identity = tuple(range(n))
    elements = [identity] + sorted(set(map(tuple, perms)) - {identity})
    row_of = {}

    def rows(node):
        for mask in node:
            if mask not in row_of:
                columns = _decode(n, mask)
                row_of[mask] = tuple(sum(1 << (n - 1 - perm[c]) for c in columns)
                                     for perm in elements)
        return [row_of[mask] for mask in node]

    def images(node):
        return [frozenset(row[e] for row in rows(node)) for e in range(len(elements))]

    def canon(node):
        return min(tuple(sorted(image)) for image in images(node))

    root = tuple(_encode(n, s) for s in seed.simplices)
    index = {canon(root): 0}
    nodes, depths = [root], [0]
    sizes = [len(elements) // images(root).count(frozenset(root))]
    scans, arrivals, moves_seen = [None], [[]], set()
    total, frontier, partial, depth = sizes[0], [0], False, 0
    while frontier:
        if max_depth is not None and depth >= max_depth:
            partial = True
            break
        tasks = sorted(frontier, key=nodes.__getitem__, reverse=True)
        frontier, truncated = [], False
        for a in tasks:
            node = nodes[a]
            moves, matched, walls = cells.scan(node)
            scans[a] = (matched, walls)
            for s, link in moves:
                image, _, _ = _flip(node, frozenset(node), cells.sides[s], link)
                b = index.get(canon(image))
                if b is None:
                    size = len(elements) // images(image).count(frozenset(image))
                    if total + size > budget:
                        truncated = True
                        continue
                    b = index[canon(image)] = len(nodes)
                    nodes.append(image)
                    depths.append(depth + 1)
                    sizes.append(size)
                    scans.append(None)
                    arrivals.append([(a, s, 0)])
                    total += size
                    frontier.append(b)
                elif a < b:
                    e = images(image).index(frozenset(nodes[b]))
                    arrivals[b].append((a, s, e))
                moves_seen.add((min(a, b), max(a, b), cells.sides[s].circuit))
        depth += 1
        if truncated:
            partial = True
            break
    return nodes, depths, sizes, arrivals, scans, partial, moves_seen


def assert_search_matches_reference(seed, circuits, budget, max_depth=None, perms=()):
    search = _search(seed, circuits, budget, max_depth, perms=perms)
    *expected, moves = reference_search(seed, circuits, budget, max_depth, perms)
    got = (search.nodes, search.depths, search.sizes,
           [list(search.arrived(b)) for b in range(len(search.nodes))],
           search.scans, search.partial)
    assert got == tuple(expected)
    if not perms:
        # every move between two stored nodes, tried from both ends
        edges = explore_flip_graph(seed, circuits, budget, max_depth=max_depth).edges
        assert set(edges) == {(a, b, z) for a, b, z in moves if a != b}
    return search


def test_search_skipping_back_moves_matches_the_search_that_tries_every_move():
    for n in (1, 2, 3):
        w = snake_polytope_word(n)
        seed, circuits = canonical_of(w), all_circuits(w)
        perms = [tau.column_permutation for tau in all_twists(w)[1:]]
        full = assert_search_matches_reference(seed, circuits, 100000, perms=perms)
        assert not full.partial
        total = sum(full.sizes)
        assert assert_search_matches_reference(seed, circuits, total // 2, perms=perms).partial
        assert assert_search_matches_reference(seed, circuits, 100000, 2, perms=perms).partial
    for w in v_words(4):
        seed, circuits = canonical_of(w), all_circuits(w)
        full = assert_search_matches_reference(seed, circuits, 100000)
        assert not full.partial
        assert_search_matches_reference(seed, circuits, len(full.nodes) // 3 + 1)
        assert_search_matches_reference(seed, circuits, 100000, 3)


def test_search_tries_a_back_move_whose_side_image_is_not_listed():
    # with one circuit left out, a twist can map a move's reverse side onto
    # a side that is not listed; that move is then flipped and located like
    # any other
    unlisted = 0
    for n in (1, 2):
        w = snake_polytope_word(n)
        seed, circuits = canonical_of(w), all_circuits(w)
        perms = [tau.column_permutation for tau in all_twists(w)[1:]]
        for k in range(len(circuits)):
            search = assert_search_matches_reference(
                seed, circuits[:k] + circuits[k + 1:], 100000, perms=perms)
            cells, group = search.cells, search.group
            listed = set(zip(cells.columns, cells.supports))
            unlisted += sum((group.image(e, cells.columns[s ^ 1]),
                             group.image(e, cells.supports[s ^ 1])) not in listed
                            for b in range(len(search.nodes)) for a, s, e in search.arrived(b))
    assert unlisted


def test_search_flips_each_edge_from_one_end_where_it_can(monkeypatch):
    flipped = []
    monkeypatch.setattr(flips, '_flip', lambda *args: flipped.append(1) or _flip(*args))
    w = snake_polytope_word(3)
    perms = [tau.column_permutation for tau in all_twists(w)[1:]]
    assert len(_search(canonical_of(w), all_circuits(w), 100000, perms=perms).nodes) == 429
    assert len(flipped) == 1567
    flipped.clear()
    w = snake_polytope_word(2)
    assert len(explore_flip_graph(canonical_of(w), all_circuits(w)).nodes) == 336
    assert len(flipped) == 903


def test_search_rejects_a_circuit_whose_coefficients_are_not_unit():
    # x0 + x2 = 2 x1 is a genuine circuit; its flip would trade the unimodular
    # {0, 1}, {1, 2} for {0, 2} of volume 2, one simplex for two
    cfg = PointConfiguration(1, ((0,), (1,), (2,)), ((0,), (1,), (2,)))
    seed = Triangulation.make(cfg, [(0, 1), (1, 2)])
    assert is_unimodular(seed)
    z = Circuit.make([0, 2], [1])
    with pytest.raises(FlipError, match='simplex count'):
        explore_flip_graph(seed, [z])
    with pytest.raises(FlipError, match='simplex count'):
        _search(seed, [z], budget=100, perms=[(2, 1, 0)])
    # with unimodular cells and sides of one size a genuine circuit has +-1
    # coefficients, so what the +-1 dependence test rejects is a set that is
    # not a dependence, here under the symmetry that swaps the axes
    seed = _two_triangles_at_the_origin()
    z = Circuit.make([1, 2], [0, 3])
    with pytest.raises(FlipError, match='non-unimodular'):
        _search(seed, [z], budget=100, perms=[(0, 2, 1, 3)])


def test_flip_rejects_a_move_that_changes_the_simplex_count():
    seed = _two_triangles_at_the_origin()
    move = FlipMove(Circuit.make([1], [2]), 'minus', ((0, 3),))
    with pytest.raises(FlipError, match='simplex count'):
        apply_flip(seed, move)


def test_single_move_of_the_diamond():
    w = parse_word('')
    moves = find_flips(canonical_of(w), all_circuits(w))
    assert len(moves) == 1
    m = moves[0]
    assert m.circuit == Circuit(plus=(1, 4), minus=(2, 3))
    assert m.direction == 'minus'
    assert m.link == ((0, 5),)


def test_flip_of_the_diamond_and_involution():
    w = parse_word('')
    t = canonical_of(w)
    zs = all_circuits(w)
    t2 = apply_flip(t, find_flips(t, zs)[0], zs)
    assert t2.simplices == ((0, 1, 2, 3, 5), (0, 2, 3, 4, 5))
    assert is_triangulation(t.config, t2.simplices, zs)
    assert is_unimodular(t2)
    back = apply_flip(t2, find_flips(t2, zs)[0], zs)
    assert back.simplices == t.simplices


def test_apply_flip_validates_only_when_given_the_circuits(monkeypatch):
    w = parse_word('')
    t = canonical_of(w)
    zs = all_circuits(w)
    move = find_flips(t, zs)[0]
    monkeypatch.setattr(flips, 'is_triangulation', lambda cfg, simplices, circuits: False)
    assert apply_flip(t, move) == apply_flip(t, move, None)
    with pytest.raises(FlipError, match='non-triangulation'):
        apply_flip(t, move, zs)


def test_flip_rejects_foreign_move():
    w = parse_word('')
    t = canonical_of(w)
    zs = all_circuits(w)
    partner = apply_flip(t, find_flips(t, zs)[0], zs)
    with pytest.raises(FlipError):
        apply_flip(t, find_flips(partner, zs)[0], zs)


def lr_move():
    w = parse_word('LR')
    t = canonical_of(w)
    return t, find_flips(t, all_circuits(w))[0]


def test_apply_flip_rejects_an_unknown_direction():
    # 'up' was read as 'minus' and flipped that side
    t, move = lr_move()
    assert move.direction == 'minus'
    for direction in ('up', 'Plus', ''):
        with pytest.raises(FlipError, match='direction'):
            apply_flip(t, move._replace(direction=direction))


def test_apply_flip_rejects_a_circuit_column_outside_the_configuration():
    # column N + 3 raised a bare ValueError from the shift in _encode
    t, move = lr_move()
    n = len(t.config.columns)
    for extra in (n + 3, n, -1):
        z = Circuit.make(move.circuit.plus, move.circuit.minus + (extra,))
        with pytest.raises(FlipError, match='outside'):
            apply_flip(t, move._replace(circuit=z))


def test_apply_flip_rejects_a_link_column_outside_the_configuration():
    t, move = lr_move()
    n = len(t.config.columns)
    for face in ((0, 6, 8, n), (-1, 6, 8, 9), (0, 7, 8, n + 3)):
        with pytest.raises(FlipError, match='outside'):
            apply_flip(t, move._replace(link=move.link[:1] + (face,)))


def test_canonical_admits_length_plus_one_moves():
    for w in v_words(5):
        moves = find_flips(canonical_of(w), all_circuits(w))
        assert len(moves) == len(w.letters) + 1


def test_applied_flips_stay_unimodular_triangulations():
    w = parse_word('LL')
    t = canonical_of(w)
    zs = all_circuits(w)
    for m in find_flips(t, zs):
        image = apply_flip(t, m, zs)
        assert is_triangulation(t.config, image.simplices, zs)
        assert is_unimodular(image)


def test_explore_diamond_graph():
    w = parse_word('')
    g = explore_flip_graph(canonical_of(w), all_circuits(w))
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert g.depths == (0, 1)
    assert not g.partial


def test_explore_ladder_hexagon():
    w = parse_word('L')
    g = explore_flip_graph(canonical_of(w), all_circuits(w))
    assert len(g.nodes) == 6
    assert len(g.edges) == 6
    assert g.degrees() == (2,) * 6


def test_explore_respects_budget_and_depth():
    w = parse_word('L')
    g = explore_flip_graph(canonical_of(w), all_circuits(w), budget=3)
    assert g.partial
    assert len(g.nodes) == 3
    g2 = explore_flip_graph(canonical_of(w), all_circuits(w), max_depth=1)
    assert g2.partial
    assert set(g2.depths) == {0, 1}


def test_explore_component_size_divisible_by_twist_group():
    w = parse_word('LR')
    g = explore_flip_graph(canonical_of(w), all_circuits(w))
    assert not g.partial
    assert len(g.nodes) % 4 == 0


def test_explore_deterministic_and_worker_independent():
    w = parse_word('LR')
    zs = all_circuits(w)
    first = explore_flip_graph(canonical_of(w), zs)
    second = explore_flip_graph(canonical_of(w), zs)
    assert first == second
    assert explore_flip_graph(canonical_of(w), zs, workers=4) == first


def gkz_vector(tri):
    """Per-column sum of normalized volumes of the incident simplices."""
    totals = [0] * len(tri.config.columns)
    for s in tri.simplices:
        vol = simplex_volume(tri.config, s)
        for j in s:
            totals[j] += vol
    return tuple(totals)


def test_gkz_vector_of_the_diamond():
    w = parse_word('')
    t = canonical_of(w)
    assert gkz_vector(t) == (2, 2, 1, 1, 2, 2)


def test_gkz_extremes_count_simplices_and_separate_nodes():
    for word in ('', 'L', 'LR'):
        w = parse_word(word)
        g = explore_flip_graph(canonical_of(w), all_circuits(w))
        vecs = set()
        for t in g.nodes:
            v = gkz_vector(t)
            assert v[0] == len(t.simplices)
            assert v[-1] == len(t.simplices)
            vecs.add(v)
        assert len(vecs) == len(g.nodes)


def test_gkz_vectors_step_along_the_flipped_circuit():
    # a flip on Z moves the GKZ vector by a nonzero multiple of Z's +-1
    # vector (De Loera, Rambau and Santos 2010, ch. 5)
    edges = 0
    for n in (1, 2):
        w = snake_polytope_word(n)
        g = explore_flip_graph(canonical_of(w), all_circuits(w))
        gkz = [gkz_vector(t) for t in g.nodes]
        for a, b, z in g.edges:
            lam = [0] * len(gkz[a])
            for c in z.plus:
                lam[c] = 1
            for c in z.minus:
                lam[c] = -1
            k = gkz[b][z.plus[0]] - gkz[a][z.plus[0]]
            assert k != 0
            assert [y - x for x, y in zip(gkz[a], gkz[b])] == [k * x for x in lam]
        edges += len(g.edges)
    assert edges == 870


def test_dual_graph_of_the_diamond_is_an_edge():
    w = parse_word('')
    g = dual_graph(canonical_of(w))
    assert g.vertex_count == 2
    assert g.edges == frozenset({(0, 1)})


def test_dual_graph_is_the_pairwise_shared_wall_graph():
    for w in v_words(3):
        graph = explore_flip_graph(canonical_of(w), all_circuits(w))
        for t in graph.nodes:
            sets = [set(s) for s in t.simplices]
            pairwise = {(a, b) for a, b in itertools.combinations(range(len(sets)), 2)
                        if len(sets[a] & sets[b]) == t.config.dim}
            assert dual_graph(t) == Graph(len(sets), frozenset(pairwise))


def test_dual_graph_rejects_a_facet_in_three_simplices():
    cfg = canonical_of(parse_word('L')).config
    fan = Triangulation.make(cfg, [(0, 1, 2, apex, 6, 7) for apex in (3, 4, 5)])
    with pytest.raises(FlipError, match='3 cofaces'):
        dual_graph(fan)


def test_ladder_dual_graphs_pairwise_isomorphic():
    w = parse_word('LL')
    g = explore_flip_graph(canonical_of(w), all_circuits(w))
    duals = [dual_graph(t) for t in g.nodes]
    assert all(graphs_isomorphic(duals[0], d) for d in duals[1:])


def test_graph_isomorphism_small_cases():
    k2 = Graph(2, frozenset({(0, 1)}))
    assert graphs_isomorphic(k2, Graph(2, frozenset({(0, 1)})))
    path3 = Graph(3, frozenset({(0, 1), (1, 2)}))
    triangle = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    assert not graphs_isomorphic(path3, triangle)
    relabeled = Graph(3, frozenset({(0, 2), (1, 2)}))
    assert graphs_isomorphic(path3, relabeled)
    # both 3-regular, so one colour class; sending one side of K3,3 to prism
    # vertex 0 and the other to its non-adjacent neighbours 1 and 3 keeps
    # every edge and non-edge, so only the one-to-one condition tells them apart
    k33 = Graph(6, frozenset((a, b) for a in range(3) for b in range(3, 6)))
    prism = Graph(6, frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)}))
    assert not graphs_isomorphic(k33, prism)


def test_graph_isomorphism_matches_brute_force():
    def both_ways(edges):
        return edges | {(b, a) for a, b in edges}

    rng = random.Random(61018)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        pairs = list(itertools.combinations(range(n), 2))
        density = rng.choice((0.2, 0.4, 0.6))
        edges = {e for e in pairs if rng.random() < density}
        copy, moved = relabel_and_reroute(rng, n, edges, pairs)
        g = Graph(n, frozenset(edges))
        assert graphs_isomorphic(g, Graph(n, frozenset(copy)))
        if moved is not None:
            expected = brute_isomorphic(n, both_ways(edges), both_ways(moved))
            assert graphs_isomorphic(g, Graph(n, frozenset(moved))) == expected, (n, edges, moved)
            outcomes.add(expected)
    assert outcomes == {False, True}


def test_cayley_check_small_ladders():
    assert cayley_check(2)
    assert cayley_check(3)
    w = parse_word('LL')
    g = explore_flip_graph(canonical_of(w), all_circuits(w))
    assert len(g.nodes) == factorial(4)
    assert g.degrees() == (3,) * factorial(4)
    with pytest.raises(ValueError):
        cayley_check(0)


def test_triangulation_hash_is_stable_and_injective_here():
    w = parse_word('L')
    g = explore_flip_graph(canonical_of(w), all_circuits(w))
    digests = {triangulation_hash(t) for t in g.nodes}
    assert len(digests) == len(g.nodes)
    assert triangulation_hash(g.nodes[0]) == triangulation_hash(g.nodes[0])
