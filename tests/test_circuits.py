"""Tests for circuits of order polytope vertex configurations."""
import itertools
from math import comb

import pytest
from test_exact import fraction_kernel

from snakeflip.circuits import (
    Circuit,
    CircuitError,
    all_circuits,
    circuit_from_subgraph,
    circuit_json,
    circuit_size_bounds,
    circuits_brute,
    word_context,
)
from snakeflip.exact import BudgetError
from snakeflip.polytope import PointConfiguration, order_polytope_vertices
from snakeflip.posets import adjoin_bounds, build_snake_poset, meet_irreducibles
from snakeflip.words import (
    SnakeWord,
    WordError,
    connected_induced_subgraphs,
    count_subgraphs_recursive,
    is_in_V,
    parse_word,
    word_graph,
)


def v_words(max_len):
    for n in range(max_len + 1):
        for letters in itertools.product('LR', repeat=n):
            w = SnakeWord(letters)
            if is_in_V(w):
                yield w


def test_single_square_circuit_of_the_diamond():
    w = parse_word('')
    c = circuit_from_subgraph(w, [0])
    assert c == Circuit(plus=(1, 4), minus=(2, 3))
    assert circuit_from_subgraph(w, 1) == c
    assert c.support() == (1, 2, 3, 4)


def test_circuit_make_normalizes_orientation():
    c = Circuit.make([5, 2], [7, 1])
    assert c == Circuit(plus=(1, 7), minus=(2, 5))
    with pytest.raises(CircuitError):
        Circuit.make([1, 2], [2, 3])
    with pytest.raises(CircuitError):
        Circuit.make([], [1])


def test_all_circuits_of_smallest_words():
    assert all_circuits(parse_word('')) == (Circuit(plus=(1, 4), minus=(2, 3)),)
    assert all_circuits(parse_word('L')) == (
        Circuit(plus=(1, 4), minus=(2, 3)),
        Circuit(plus=(1, 6), minus=(3, 5)),
        Circuit(plus=(2, 6), minus=(4, 5)),
    )


def test_ladder_circuit_counts():
    for letter in 'LR':
        for k in range(1, 5):
            w = SnakeWord((letter,) * k)
            circuits = all_circuits(w)
            assert len(circuits) == comb(k + 2, 2)
            assert all(len(z.support()) == 4 for z in circuits)


def test_circuit_count_matches_subgraph_count():
    for w in v_words(5):
        circuits = all_circuits(w)
        g = word_graph(w)
        assert len(circuits) == count_subgraphs_recursive(w)
        assert len(circuits) == len(connected_induced_subgraphs(g))


def test_brute_oracle_equals_subgraph_construction():
    for w in v_words(4):
        ctx = word_context(w)
        assert circuits_brute(ctx.config) == all_circuits(w)


def test_brute_oracle_on_plain_configurations():
    simplex = PointConfiguration(
        dim=2, columns=((0, 0), (1, 0), (0, 1)),
        column_labels=((0,), (1,), (2,)))
    assert circuits_brute(simplex) == ()
    square = PointConfiguration(
        dim=2, columns=((0, 0), (1, 0), (0, 1), (1, 1)),
        column_labels=((0,), (1,), (2,), (3,)))
    assert circuits_brute(square) == (Circuit(plus=(0, 3), minus=(1, 2)),)


def test_brute_oracle_guards():
    wide = PointConfiguration(
        dim=1, columns=tuple((i,) for i in range(25)),
        column_labels=tuple((i,) for i in range(25)))
    with pytest.raises(CircuitError):
        circuits_brute(wide)
    with pytest.raises(BudgetError):
        circuits_brute(word_context(parse_word('LL')).config, budget=3)


def test_eight_element_circuit_with_sign_flips():
    w = parse_word('LLLRRLLLLRRRRRLL')
    ctx = word_context(w)
    c = circuit_from_subgraph(w, {1, 2, 3, 4, 6, 7, 8})
    assert len(c.support()) == 8
    assert tuple(ctx.element_of[j] for j in c.plus) == (1, 7, 13, 18)
    assert tuple(ctx.element_of[j] for j in c.minus) == (3, 8, 10, 19)


def test_chord_subgraph_drops_the_shared_corner():
    w = parse_word('LR')
    c = circuit_from_subgraph(w, {0, 2})
    assert len(c.support()) == 6


def test_size_bounds():
    assert circuit_size_bounds(parse_word('')) == (4, 4)
    assert circuit_size_bounds(parse_word('LLR')) == (4, 6)
    sizes = [len(z.support()) for z in all_circuits(parse_word('LLR'))]
    assert min(sizes) == 4 and max(sizes) == 6
    w = parse_word('LLLRRLLLLRRRRRLL')
    assert circuit_size_bounds(w) == (4, 12)
    assert max(len(z.support()) for z in all_circuits(w)) == 12


def test_sides_balance_and_avoid_bound_columns():
    for w in v_words(4):
        last = len(word_context(w).config.columns) - 1
        for z in all_circuits(w):
            assert len(z.plus) == len(z.minus)
            assert min(z.support()) in z.plus
            assert 0 not in z.support() and last not in z.support()


def test_removing_any_element_leaves_an_independent_set():
    ctx = word_context(parse_word('LR'))
    for z in all_circuits(parse_word('LR')):
        support = z.support()
        for drop in range(len(support)):
            kept = [ctx.config.homogeneous(c)
                    for i, c in enumerate(support) if i != drop]
            assert fraction_kernel(list(zip(*kept))) == []


def test_rejects_bad_subgraphs():
    w = parse_word('LL')
    with pytest.raises(CircuitError):
        circuit_from_subgraph(w, [])
    with pytest.raises(CircuitError):
        circuit_from_subgraph(w, 0)
    with pytest.raises(CircuitError):
        circuit_from_subgraph(w, {0, 2})
    with pytest.raises(CircuitError):
        circuit_from_subgraph(w, {0, 9})
    with pytest.raises(WordError):
        circuit_from_subgraph(parse_word('LRL'), [0])
    with pytest.raises(WordError):
        all_circuits(parse_word('RLR'))


def test_words_outside_v_have_at_most_as_many_circuits():
    for text in ('LRL', 'RLRL'):
        w = parse_word(text)
        q = meet_irreducibles(adjoin_bounds(build_snake_poset(w)))
        cfg = order_polytope_vertices(q)
        bound = len(connected_induced_subgraphs(word_graph(w)))
        assert len(circuits_brute(cfg)) <= bound


def test_json_labels_use_filter_generators():
    w = parse_word('')
    c = circuit_from_subgraph(w, [0])
    assert circuit_json(c, word_context(w).config) == {
        'plus': [[1], [2, 3]], 'minus': [[2], [3]]}


def test_determinism():
    w = parse_word('LLR')
    assert all_circuits(w) == all_circuits(w)
    cfg = word_context(w).config
    assert circuits_brute(cfg) == circuits_brute(cfg)
