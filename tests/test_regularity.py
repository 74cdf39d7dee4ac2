"""Tests for orders, heights, folding forms, regularity, and the experiments."""
import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from test_exact import fraction_kernel, fraction_lp_maximize

import snakeflip.regularity as regularity
from snakeflip.circuits import all_circuits, word_context
from snakeflip.flips import canonical_of, explore_flip_graph
from snakeflip.polytope import Triangulation, is_triangulation
from snakeflip.regularity import (
    RegularityError,
    canonical_order,
    check_flip_degrees,
    conjecture_suite,
    count_canonical_dual_graphs,
    count_regular_triangulations,
    enumerate_triangulations,
    folding_form,
    height_function,
    is_regular,
    snake_polytope_word,
    verify_local_folding,
)
from snakeflip.regularity import _wall_rows
from snakeflip.twists import all_twists, elementary_twist, twist_triangulation
from snakeflip.words import SnakeWord, WordError, is_in_V, parse_word


def v_words(max_len):
    for n in range(max_len + 1):
        for letters in itertools.product('LR', repeat=n):
            w = SnakeWord(letters)
            if is_in_V(w):
                yield w


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
    with pytest.raises(RegularityError):
        folding_form(t.config, (0, 1, 2, 3, 4), 5, omega)


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
    result = is_regular(t, verify=True)
    assert result
    assert result.slack == 1
    assert result.constraints == 1
    for c in t.simplices[0]:
        assert result.heights[c] == 0
    assert verify_local_folding(t, result.heights).verdict


def test_is_regular_on_explored_components():
    for word in ('L', 'LR'):
        w = parse_word(word)
        graph = explore_flip_graph(canonical_of(w), all_circuits(w))
        for node in graph.nodes:
            assert is_regular(node, verify=True)


def _rational_wall_rows(tri):
    # reference: a rational kernel vector per wall pair, cleared of
    # denominators and content, with the first apex made positive
    cfg = tri.config
    rows = []
    for s1, s2 in itertools.combinations(tri.simplices, 2):
        if len(set(s1) & set(s2)) != cfg.dim:
            continue
        union = tuple(sorted(set(s1) | set(s2)))
        (lam,) = fraction_kernel(list(zip(*(cfg.homogeneous(j) for j in union))))
        scale = lcm(*(Fraction(x).denominator for x in lam))
        coeffs = {c: int(Fraction(x) * scale) for c, x in zip(union, lam) if x != 0}
        g = 0
        for x in coeffs.values():
            g = gcd(g, x)
        (apex,) = set(s1) - set(s2)
        sign = 1 if coeffs[apex] > 0 else -1
        rows.append(tuple(sorted((c, sign * x // g) for c, x in coeffs.items())))
    return rows


def test_wall_rows_equal_rational_kernel_rows():
    for n in (1, 2):
        w = snake_polytope_word(n)
        graph = explore_flip_graph(canonical_of(w), all_circuits(w))
        for node in graph.nodes:
            rows = [tuple(sorted(r.items())) for r in _wall_rows(node)]
            assert len(rows) == len(set(rows))
            assert set(rows) == set(_rational_wall_rows(node))


def test_is_regular_matches_the_fraction_simplex(monkeypatch):
    def results(nodes):
        return [(r.regular, r.heights, r.slack, r.constraints)
                for r in (is_regular(node, verify=True) for node in nodes)]

    nodes = []
    for n in (1, 2):
        w = snake_polytope_word(n)
        nodes += explore_flip_graph(canonical_of(w), all_circuits(w)).nodes
    integer = results(nodes)
    monkeypatch.setattr(regularity, 'lp_maximize', fraction_lp_maximize)
    assert results(nodes) == integer


def test_enumeration_matches_flip_search_on_small_configs():
    for word in ('', 'L'):
        w = parse_word(word)
        cfg = word_context(w).config
        found, complete = enumerate_triangulations(cfg)
        assert complete
        graph = explore_flip_graph(canonical_of(w), all_circuits(w))
        assert set(found) == {t.simplices for t in graph.nodes}
        for simplices in found:
            assert is_triangulation(cfg, simplices)


def test_enumeration_respects_budget():
    cfg = word_context(parse_word('')).config
    found, complete = enumerate_triangulations(cfg, budget_steps=1)
    assert not complete


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


def test_regular_count_is_deterministic():
    first = count_regular_triangulations(1)
    second = count_regular_triangulations(1)
    assert first == second
