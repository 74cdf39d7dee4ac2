"""Tests for circuits of order polytope vertex configurations."""
import random
from fractions import Fraction
from math import comb

import pytest
from test_exact import fraction_kernel

from snakeflip.circuits import (
    Circuit,
    CircuitError,
    all_circuits,
    circuit_from_subgraph,
    circuit_json,
    circuits_brute,
    is_unit_dependence,
    word_context,
)
from snakeflip.exact import BudgetError
from snakeflip.polytope import PointConfiguration, order_polytope_vertices
from snakeflip.posets import Poset, adjoin_bounds, build_snake_poset, meet_irreducibles
from snakeflip.words import (
    SnakeWord,
    WordError,
    connected_induced_subgraphs,
    count_subgraphs_recursive,
    parse_word,
    v_words,
    word_graph,
)


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


def reference_circuits_brute(cfg, budget=2_000_000):
    """Independent-set DFS over the columns: the oracle before the Gale dual.

    Every index-increasing independent set is extended by each later column,
    reduced over the rationals; a column that reduces to zero closes a
    circuit when its dependence uses the whole set, and that dependence
    orients it.  Kept as the reference that circuits_brute must match.
    """
    m = len(cfg.columns)
    cols = [tuple(Fraction(v) for v in cfg.homogeneous(j)) for j in range(m)]
    steps = 0
    found = []

    def extend(stack, basis):
        nonlocal steps
        start = stack[-1] + 1 if stack else 0
        for j in range(start, m):
            steps += 1
            if steps > budget:
                raise BudgetError('brute circuit search exceeded %d steps' % budget)
            vec = list(cols[j])
            combo = {j: Fraction(1)}
            for piv, bvec, bcombo in basis:
                f = vec[piv]
                if f:
                    vec = [a - f * b for a, b in zip(vec, bvec)]
                    for k, v in bcombo.items():
                        combo[k] = combo.get(k, 0) - f * v
            piv = next((r for r, a in enumerate(vec) if a), None)
            if piv is None:
                support = sorted(k for k, v in combo.items() if v)
                if support == stack + [j]:
                    found.append(Circuit.make([k for k in support if combo[k] > 0],
                                              [k for k in support if combo[k] < 0]))
            else:
                inv = 1 / vec[piv]
                nvec = [a * inv for a in vec]
                ncombo = {k: v * inv for k, v in combo.items() if v}
                extend(stack + [j], basis + [(piv, nvec, ncombo)])

    extend([], [])
    return tuple(sorted(found, key=lambda z: (z.plus, z.minus)))


def _outcome(oracle, cfg):
    try:
        return oracle(cfg)
    except (CircuitError, BudgetError) as exc:
        return type(exc)


def _plain(columns):
    return PointConfiguration(
        dim=len(columns[0]), columns=tuple(tuple(c) for c in columns),
        column_labels=tuple((i,) for i in range(len(columns))))


def test_brute_oracle_matches_independent_set_reference():
    rng = random.Random(20211)
    configs = []
    for _ in range(400):
        dim = rng.randint(1, 4)
        configs.append(_plain([[rng.randint(-2, 2) for _ in range(dim)]
                               for _ in range(rng.randint(1, 9))]))
    large = []
    for _ in range(20):
        dim = rng.randint(1, 4)
        large.append(_plain([[rng.randint(-10 ** 9, 10 ** 9) for _ in range(dim)]
                             for _ in range(rng.randint(2, 6))]))
    configs += large
    for text in ('LRL', 'RLRL', 'LRLR', 'RLR'):
        q = meet_irreducibles(adjoin_bounds(build_snake_poset(parse_word(text))))
        configs.append(order_polytope_vertices(q))
    outcomes = []
    for cfg in configs:
        expected = _outcome(reference_circuits_brute, cfg)
        assert _outcome(circuits_brute, cfg) == expected, cfg
        outcomes.append(expected)
    # entries up to 10^9 bound nothing: each of those configurations has its circuits
    for cfg in large:
        assert circuits_brute(cfg) == reference_circuits_brute(cfg), cfg
    assert sum(isinstance(o, tuple) and len(o) > 1 for o in outcomes) >= 100


def test_brute_oracle_on_a_scaled_and_shifted_hexagon():
    # an affine image has the same circuits; its entries grow past any
    # fixed word size
    hexagon = ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1))
    circuits = circuits_brute(_plain(hexagon))
    assert len(circuits) == 15
    for scale in (10 ** 6, 10 ** 30, 3 ** 200):
        image = _plain([(scale * x + 7, scale * y - 5) for x, y in hexagon])
        assert circuits_brute(image) == circuits, scale


def test_brute_oracle_equals_subgraph_construction():
    for w in v_words(5):
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
    # one dual dimension: the circuit is emitted at the root, before any step
    assert circuits_brute(square, budget=0) == (Circuit(plus=(0, 3), minus=(1, 2)),)
    independent = _plain([(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, -2)])
    assert circuits_brute(independent) == ()
    repeated = _plain([(0, 0), (1, -2), (2, 1), (1, -2)])
    assert circuits_brute(repeated) == (Circuit(plus=(1,), minus=(3,)),)


def test_brute_oracle_guards():
    # no column cap: the step budget alone bounds the search, and 25 points
    # on a line have comb(25, 3) circuits
    wide = PointConfiguration(
        dim=1, columns=tuple((i,) for i in range(25)),
        column_labels=tuple((i,) for i in range(25)))
    with pytest.raises(BudgetError):
        circuits_brute(wide, budget=10_000)
    with pytest.raises(BudgetError):
        circuits_brute(word_context(parse_word('LL')).config, budget=3)


def test_brute_oracle_past_24_columns():
    # a 24-element chain gives the 24-simplex, 25 independent columns;
    # Delta1 x Delta12, the order polytope of a point beside a 12-chain, has
    # 26 columns and one 4-element circuit per pair of columns of Delta12
    chain = order_polytope_vertices(Poset(24, [(i, i + 1) for i in range(23)]))
    assert len(chain.columns) == 25 and circuits_brute(chain) == ()
    prism = order_polytope_vertices(Poset(13, [(i, i + 1) for i in range(1, 12)]))
    circuits = circuits_brute(prism)
    assert len(prism.columns) == 26 and len(circuits) == comb(13, 2) == 78
    assert all(len(z.support()) == 4 and is_unit_dependence(prism, z) for z in circuits)


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


def circuit_size_bounds(w):
    """Smallest and largest circuit size: 4 and 4 plus twice the turn count."""
    return 4, 4 + 2 * len(w.turns())


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
    # the word's context builds its circuit list once; all_circuits hands it out
    ctx = word_context(w)
    assert all_circuits(w) is all_circuits(w) is ctx.circuits
    assert ctx.circuit_set == frozenset(ctx.circuits)
    cfg = ctx.config
    assert circuits_brute(cfg) == circuits_brute(cfg) == all_circuits(w)


def test_unit_dependence_holds_for_order_polytope_circuits_only():
    for w in v_words(4):
        cfg = word_context(w).config
        assert all(is_unit_dependence(cfg, z) for z in all_circuits(w))
    # on four points of a line, x0 + x3 = x1 + x2, but the circuit x0 + x2 = 2 x1
    # has a coefficient 2
    line = PointConfiguration(1, ((0,), (1,), (2,), (3,)), ((0,), (1,), (2,), (3,)))
    assert is_unit_dependence(line, Circuit.make([0, 3], [1, 2]))
    assert not is_unit_dependence(line, Circuit.make([0, 2], [1]))
