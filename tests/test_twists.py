"""Tests for the twist group and its action on circuits and triangulations."""

import pytest

from snakeflip import twists
from snakeflip.circuits import all_circuits, circuit_from_subgraph, word_context
from snakeflip.flips import canonical_of, dual_graph, find_flips, graphs_isomorphic
from snakeflip.twists import (
    TwistError,
    all_twists,
    commuting_square_check,
    compose_twists,
    elementary_twist,
    identity_twist,
    twist_circuit,
    twist_triangulation,
)
from snakeflip.words import parse_word


def circuit_key(z):
    return (z.plus, z.minus)


def test_diamond_twist_swaps_the_two_rung_pairs():
    w = parse_word('')
    tau = elementary_twist(w, 1)
    assert tau.column_permutation == (0, 2, 1, 4, 3, 5)
    assert tau.ladder_mask == frozenset({1})


def test_diamond_twist_sends_canonical_to_flip_partner():
    w = parse_word('')
    tau = elementary_twist(w, 1)
    image = twist_triangulation(tau, canonical_of(w))
    assert image.valid
    assert image.triangulation.simplices == ((0, 1, 2, 3, 5), (0, 2, 3, 4, 5))


def test_identity_and_involution_on_triangulations():
    w = parse_word('LR')
    t = canonical_of(w)
    ident = identity_twist(w)
    assert twist_triangulation(ident, t).triangulation == t
    tau = elementary_twist(w, 2)
    back = twist_triangulation(tau, twist_triangulation(tau, t).triangulation)
    assert back.valid
    assert back.triangulation == t


def test_compose_masks_and_involution():
    w = parse_word('LR')
    a = elementary_twist(w, 1)
    b = elementary_twist(w, 2)
    assert compose_twists(a, a) == identity_twist(w)
    assert compose_twists(a, b).ladder_mask == frozenset({1, 2})
    assert compose_twists(a, b) == compose_twists(b, a)


def test_generators_commute_on_the_shared_corner_square():
    w = parse_word('LR')
    a = elementary_twist(w, 1)
    b = elementary_twist(w, 2)
    moved_a = {e for e, img in enumerate(a.permutation) if img != e}
    moved_b = {e for e, img in enumerate(b.permutation) if img != e}
    shared = moved_a & moved_b
    assert len(shared) == 4
    both = compose_twists(a, b)
    for e in shared:
        assert both.permutation[e] not in (e, a.permutation[e], b.permutation[e])
        assert both.permutation[both.permutation[e]] == e


def test_twist_errors():
    w = parse_word('LR')
    with pytest.raises(TwistError):
        elementary_twist(w, 3)
    with pytest.raises(TwistError):
        compose_twists(elementary_twist(w, 1), elementary_twist(parse_word(''), 1))


def test_twist_group_order_and_distinctness():
    for word, t in (('', 1), ('L', 1), ('LR', 2), ('RRLLR', 3)):
        taus = all_twists(parse_word(word))
        assert len(taus) == 2 ** t
        assert len({tau.permutation for tau in taus}) == len(taus)


def test_ladder_local_pair_swap():
    w = parse_word('RRLLR')
    ctx = word_context(w)
    tau = elementary_twist(w, 2)
    x_of = ctx.labeling.x_of
    assert tau.permutation[x_of[10]] == x_of[9]


def test_twist_circuit_is_a_bijection():
    for word in ('', 'L', 'LR'):
        w = parse_word(word)
        zs = all_circuits(w)
        for tau in all_twists(w):
            images = sorted((twist_circuit(tau, z) for z in zs), key=circuit_key)
            assert images == sorted(zs, key=circuit_key)


def test_twist_circuit_fixed_cases():
    w = parse_word('')
    z = all_circuits(w)[0]
    assert twist_circuit(elementary_twist(w, 1), z) == z
    w = parse_word('RRLLR')
    z = circuit_from_subgraph(w, [0])
    tau = elementary_twist(w, 3)
    moved = {c for c, img in enumerate(tau.column_permutation) if img != c}
    assert not moved & set(z.support())
    assert twist_circuit(tau, z) == z


def test_flip_move_count_is_twist_invariant():
    w = parse_word('LR')
    zs = all_circuits(w)
    t = canonical_of(w)
    for tau in all_twists(w):
        image = twist_triangulation(tau, t)
        assert image.valid
        assert len(find_flips(image.triangulation, zs)) == len(find_flips(t, zs))


def test_twisted_dual_graph_is_isomorphic():
    w = parse_word('LR')
    t = canonical_of(w)
    tau = compose_twists(elementary_twist(w, 1), elementary_twist(w, 2))
    image = twist_triangulation(tau, t)
    assert graphs_isomorphic(dual_graph(t), dual_graph(image.triangulation))


def test_commuting_square_small_words():
    r = commuting_square_check(parse_word(''))
    assert bool(r)
    assert r.counterexamples == ()
    assert (r.triangulations, r.twists, r.moves_checked) == (2, 2, 4)
    assert bool(commuting_square_check(parse_word('LL')))
    r2 = commuting_square_check(parse_word('LR'))
    assert bool(r2)
    assert (r2.triangulations, r2.twists, r2.moves_checked) == (20, 4, 240)


def test_commuting_square_is_deterministic():
    w = parse_word('LR')
    first = commuting_square_check(w)
    second = commuting_square_check(w)
    assert first == second


def test_commuting_square_counts_on_ll_and_lrrl():
    for word, counts in (('LL', (24, 2, 144)), ('LRRL', (336, 8, 13440))):
        r = commuting_square_check(parse_word(word))
        assert r.counterexamples == ()
        assert (r.triangulations, r.twists, r.moves_checked) == counts


def test_commuting_square_fails_on_a_truncated_component(monkeypatch):
    explore = twists.explore_flip_graph

    def truncated(seed, circuits):
        return explore(seed, circuits, budget=5)

    monkeypatch.setattr(twists, 'explore_flip_graph', truncated)
    r = commuting_square_check(parse_word('LR'))
    assert not r
    assert r.triangulations == 5
    assert r.counterexamples[0][2] == 'flip component is partial'
    # the same nodes claimed complete still fail: some twist image lies outside
    monkeypatch.setattr(twists, 'explore_flip_graph',
                        lambda seed, circuits: truncated(seed, circuits)._replace(partial=False))
    r = commuting_square_check(parse_word('LR'))
    reasons = {reason for _, _, reason in r.counterexamples}
    assert 'flip component is partial' not in reasons
    assert 'twist image is outside the component' in reasons


def test_commuting_square_validates_every_node(monkeypatch):
    monkeypatch.setattr(twists, 'is_triangulation', lambda cfg, simplices, circuits: False)
    r = commuting_square_check(parse_word(''))
    assert [reason for _, _, reason in r.counterexamples] == ['node is not a triangulation'] * 2
