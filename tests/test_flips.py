"""Tests for flips, flip-graph exploration, GKZ vectors, and dual graphs."""
import itertools
import random
from math import factorial

import pytest
from test_posets import brute_isomorphic, relabel_and_reroute

from snakeflip.circuits import Circuit, all_circuits
from snakeflip.flips import (
    FlipError,
    Graph,
    apply_flip,
    canonical_of,
    cayley_check,
    dual_graph,
    explore_flip_graph,
    find_flips,
    gkz_vector,
    graphs_isomorphic,
    triangulation_hash,
)
from snakeflip.polytope import Triangulation, is_triangulation, is_unimodular
from snakeflip.words import SnakeWord, is_in_V, parse_word


def v_words(max_len):
    for n in range(max_len + 1):
        for letters in itertools.product('LR', repeat=n):
            w = SnakeWord(letters)
            if is_in_V(w):
                yield w


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
    t2 = apply_flip(t, find_flips(t, zs)[0])
    assert t2.simplices == ((0, 1, 2, 3, 5), (0, 2, 3, 4, 5))
    assert is_triangulation(t.config, t2.simplices)
    assert is_unimodular(t2)
    back = apply_flip(t2, find_flips(t2, zs)[0])
    assert back.simplices == t.simplices


def test_flip_rejects_foreign_move():
    w = parse_word('')
    t = canonical_of(w)
    zs = all_circuits(w)
    partner = apply_flip(t, find_flips(t, zs)[0])
    with pytest.raises(FlipError):
        apply_flip(t, find_flips(partner, zs)[0])


def test_canonical_admits_length_plus_one_moves():
    for w in v_words(5):
        moves = find_flips(canonical_of(w), all_circuits(w))
        assert len(moves) == len(w.letters) + 1


def test_applied_flips_stay_unimodular_triangulations():
    w = parse_word('LL')
    t = canonical_of(w)
    for m in find_flips(t, all_circuits(w)):
        image = apply_flip(t, m)
        assert is_triangulation(t.config, image.simplices)
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
    assert all(g.degree(i) == 2 for i in range(6))


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
    assert all(g.degree(i) == 3 for i in range(len(g.nodes)))
    with pytest.raises(ValueError):
        cayley_check(0)


def test_triangulation_hash_is_stable_and_injective_here():
    w = parse_word('L')
    g = explore_flip_graph(canonical_of(w), all_circuits(w))
    digests = {triangulation_hash(t) for t in g.nodes}
    assert len(digests) == len(g.nodes)
    assert triangulation_hash(g.nodes[0]) == triangulation_hash(g.nodes[0])
