"""Tests for poset construction, lattices, squares, ladders, and labelings."""
import itertools
import random

import pytest

from snakeflip.posets import (
    Poset,
    PosetError,
    adjoin_bounds,
    build_snake_poset,
    digraph_isomorphism,
    filter_lattice,
    ladder_decomposition,
    maximal_chains,
    meet_irreducibles,
    regularity_labeling,
    squares_of,
    strip_embedding,
)
from snakeflip.words import SnakeWord, WordError, parse_word, v_words, word_graph


def linear_extensions(p):
    """Yield every linear extension, lexicographic among available minima."""
    indeg = [len(p.lower_covers(e)) for e in range(p.size)]
    uppers = [p.upper_covers(e) for e in range(p.size)]
    seq = []

    def rec():
        if len(seq) == p.size:
            yield tuple(seq)
            return
        for e in range(p.size):
            if indeg[e] == 0:
                indeg[e] = -1
                for u in uppers[e]:
                    indeg[u] -= 1
                seq.append(e)
                yield from rec()
                seq.pop()
                for u in uppers[e]:
                    indeg[u] += 1
                indeg[e] = 0

    yield from rec()


def phat_of(w):
    return adjoin_bounds(build_snake_poset(w))


def test_poset_reduces_to_hasse():
    p = Poset(3, [(0, 1), (1, 2), (0, 2)])
    assert p.covers == ((0, 1), (1, 2))
    assert p.leq(0, 2)


def test_poset_rejects_cycle():
    with pytest.raises(PosetError):
        Poset(2, [(0, 1), (1, 0)])


def test_poset_and_filter_lattice_have_no_size_cap():
    assert Poset(65, []).size == 65
    chain = Poset(70, [(i, i + 1) for i in range(69)])
    assert len(chain.covers) == 69 and chain.leq(0, 69)
    assert len(filter_lattice(chain).filters) == 71
    # past the recursion limit too: a chain is isomorphic to its reversal
    long_chain = [(i, i + 1) for i in range(1023)]
    assert Poset(1024, long_chain).isomorphic(Poset(1024, [(b, a) for a, b in long_chain]))


def test_build_snake_poset_base():
    p = build_snake_poset(parse_word(''))
    assert p.size == 4
    assert p.covers == ((1, 0), (2, 0), (3, 1), (3, 2))


def test_build_snake_poset_single_letter():
    p = build_snake_poset(parse_word('L'))
    assert p.size == 6
    assert (5, 3) in p.covers and (5, 4) in p.covers and (4, 1) in p.covers
    p = build_snake_poset(parse_word('R'))
    assert (4, 2) in p.covers


def test_build_snake_poset_snake5():
    p = build_snake_poset(parse_word('LRLRL'))
    assert p.size == 14
    assert p.minima() == [13]
    assert p.maxima() == [0]


def test_adjoin_bounds():
    p = adjoin_bounds(build_snake_poset(parse_word('')))
    assert p.size == 6
    assert p.minima() == [4]
    assert p.maxima() == [5]
    chain = adjoin_bounds(Poset(2, [(0, 1)]))
    assert chain.covers == ((0, 1), (1, 3), (2, 0))


def test_filter_lattice_diamond():
    p = build_snake_poset(parse_word(''))
    lat = filter_lattice(p)
    assert len(lat.filters) == 6
    gens = set(lat.generator_sets)
    assert gens == {(), (0,), (1,), (2,), (1, 2), (3,)}


def test_filter_lattice_antichain():
    lat = filter_lattice(Poset(2, []))
    assert len(lat.filters) == 4


def test_filter_lattice_snake_step():
    lat = filter_lattice(build_snake_poset(parse_word('L')))
    assert len(lat.filters) == 10


def test_filter_lattice_canonical_order():
    p = build_snake_poset(parse_word('LL'))
    lat = filter_lattice(p)
    assert list(lat.filters) == sorted(lat.filters)
    again = filter_lattice(p)
    assert lat.filters == again.filters and lat.hasse == again.hasse


def test_meet_irreducibles_diamond():
    q = meet_irreducibles(phat_of(parse_word('')))
    assert q.size == 4
    assert q.labels == (0, 1, 2, 4)
    assert len(q.minima()) == 1 and len(q.maxima()) == 1


def test_meet_irreducibles_boolean():
    b2 = Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    q = meet_irreducibles(b2)
    assert q.size == 2
    assert q.covers == ()


def test_meet_irreducibles_size():
    for w in v_words(8):
        assert meet_irreducibles(phat_of(w)).size == len(w) + 4


def test_linear_extensions_diamond():
    p = build_snake_poset(parse_word(''))
    exts = list(linear_extensions(p))
    assert exts == [(3, 1, 2, 0), (3, 2, 1, 0)]


def test_linear_extensions_chain_and_antichain():
    assert len(list(linear_extensions(Poset(3, [(0, 1), (1, 2)])))) == 1
    assert len(list(linear_extensions(Poset(3, [])))) == 6


def test_maximal_chains_counts():
    assert len(list(maximal_chains(filter_lattice(build_snake_poset(parse_word('')))))) == 2
    assert len(list(maximal_chains(filter_lattice(Poset(3, [(0, 1), (1, 2)]))))) == 1
    assert len(list(maximal_chains(filter_lattice(build_snake_poset(parse_word('L')))))) == 5


def test_maximal_chains_match_linear_extensions():
    for w in v_words(5):
        p = build_snake_poset(w)
        chains = list(maximal_chains(filter_lattice(p)))
        exts = list(linear_extensions(p))
        assert len(chains) == len(exts)
        assert chains == sorted(chains)


def test_squares_base():
    sq = squares_of(phat_of(parse_word('')), parse_word(''))
    assert len(sq) == 1
    assert (sq[0].top, sq[0].left, sq[0].right, sq[0].bottom) == (0, 1, 2, 3)


def test_squares_shapes():
    w = parse_word('LR')
    sq = squares_of(phat_of(w), w)
    assert len(sq) == 3
    # chord pair shares one corner, straight pair is disjoint
    assert len(set(sq[0].elements()) & set(sq[2].elements())) == 1
    w2 = parse_word('LL')
    sq2 = squares_of(phat_of(w2), w2)
    assert not set(sq2[0].elements()) & set(sq2[2].elements())


def test_squares_count_and_cover_structure():
    for w in v_words(6):
        phat = phat_of(w)
        sqs = squares_of(phat, w)
        assert len(sqs) == len(w) + 1
        for s in sqs:
            assert phat.leq(s.bottom, s.left) and phat.leq(s.bottom, s.right)
            assert phat.leq(s.left, s.top) and phat.leq(s.right, s.top)
            assert not phat.leq(s.left, s.right) and not phat.leq(s.right, s.left)


def test_chord_rule_matches_square_corners():
    # the word-graph chord rule is validated against corner-sharing squares
    for w in v_words(8):
        sqs = squares_of(phat_of(w), w)
        chords = {e for e in word_graph(w).edges if abs(e[0] - e[1]) == 2}
        geometric = set()
        for i in range(len(sqs)):
            for j in range(i + 2, len(sqs), 2):
                if set(sqs[i].elements()) & set(sqs[j].elements()):
                    geometric.add((i, j))
        assert chords == geometric


def test_ladders_base():
    w = parse_word('')
    ld = ladder_decomposition(phat_of(w), w)
    assert len(ld.ladders) == 1
    assert ld.rungs[0] == ((0, 1), (2, 3))


def test_ladders_straight():
    w = parse_word('LL')
    ld = ladder_decomposition(phat_of(w), w)
    assert len(ld.ladders) == 1
    assert ld.square_spans == ((0, 2),)
    assert len(ld.rungs[0]) == 4


def test_ladders_figure_word():
    w = parse_word('L' * 3 + 'R' * 2 + 'L' * 4 + 'R' * 5 + 'L' * 2)
    ld = ladder_decomposition(phat_of(w), w)
    boxes = [b - a + 1 for a, b in ld.square_spans]
    assert boxes == [4, 3, 5, 6, 3]
    for k in range(len(ld.ladders) - 1):
        shared_squares = set(range(ld.square_spans[k][0], ld.square_spans[k][1] + 1)) & \
            set(range(ld.square_spans[k + 1][0], ld.square_spans[k + 1][1] + 1))
        assert len(shared_squares) == 1


def test_ladders_reject_outside_V():
    w = parse_word('LRL')
    with pytest.raises(WordError):
        ladder_decomposition(phat_of(w), w)


def test_ladder_rung_count():
    for w in v_words(6):
        ld = ladder_decomposition(phat_of(w), w)
        assert len(ld.ladders) == len(w.turns()) + 1
        for (a, b), rungs in zip(ld.square_spans, ld.rungs):
            assert len(rungs) == ((b - a) + 2 if a != b else 2)


def test_regularity_labeling_base():
    w = parse_word('')
    reg = regularity_labeling(phat_of(w), w)
    assert reg.x_of == (5, 0, 1, 2, 3, 4)
    assert reg.new_name == {0: 1, 1: 2, 2: 3, 4: 4}
    gens = filter_lattice(reg.q).generator_sets
    assert set(gens) == {(), (0,), (1,), (2,), (1, 2), (3,)}


def test_regularity_labeling_rrllr():
    w = parse_word('RRLLR')
    reg = regularity_labeling(phat_of(w), w)
    assert reg.x_of == (15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14)


def test_regularity_labeling_drop_last():
    w = parse_word('LR')
    reg = regularity_labeling(phat_of(w), w)
    w2 = parse_word('L')
    reg2 = regularity_labeling(phat_of(w2), w2)
    highest = max(reg.new_name.values())
    kept = [e for e, name in sorted(reg.new_name.items()) if name != highest]
    sub = phat_of(w).induced(kept)
    names = {reg.new_name[e] for e in kept}
    assert names == set(reg2.new_name.values())
    q2 = reg2.q
    assert sub.isomorphic(q2)


def test_fundamental_isomorphism():
    # the filter lattice of the meet-irreducible poset rebuilds the lattice
    for w in v_words(6):
        phat = phat_of(w)
        q = meet_irreducibles(phat)
        lat = filter_lattice(q)
        assert len(lat.filters) == phat.size
        assert lat.to_poset().isomorphic(phat)


def test_phi_mask_is_lattice_isomorphism():
    for w in v_words(5):
        phat = phat_of(w)
        reg = regularity_labeling(phat, w)
        masks = set(reg.phi_mask.values())
        lat = filter_lattice(reg.q)
        assert masks == set(lat.filters)
        for a in range(phat.size):
            for b in range(phat.size):
                assert phat.leq(a, b) == (reg.phi_mask[a] | reg.phi_mask[b] == reg.phi_mask[a])


def test_isomorphic_positive_and_negative():
    p1 = build_snake_poset(parse_word('LL'))
    p2 = build_snake_poset(parse_word('RR'))
    assert p1.isomorphic(p2)
    p3 = build_snake_poset(parse_word('LR'))
    assert not p1.isomorphic(p3)


def test_strip_embedding_turns_covers_into_unit_steps():
    for letters in itertools.chain.from_iterable(
            itertools.product('LR', repeat=n) for n in range(7)):
        w = SnakeWord(letters)
        poset = build_snake_poset(w)
        pos = strip_embedding(w)
        assert len(pos) == poset.size
        for lo, hi in poset.covers:
            dx = pos[hi][0] - pos[lo][0]
            dy = pos[hi][1] - pos[lo][1]
            assert (dx, dy) in ((1, 0), (0, 1))


def brute_isomorphic(n, arcs_a, arcs_b):
    # reference: try every bijection of 0..n-1
    arcs_a, arcs_b = set(arcs_a), set(arcs_b)
    return any({(p[t], p[h]) for t, h in arcs_a} == arcs_b
               for p in itertools.permutations(range(n)))


def relabel_and_reroute(rng, n, arcs, allowed):
    """A relabelled copy of arcs, and that copy with one arc moved to a free place."""
    perm = list(range(n))
    rng.shuffle(perm)
    copy = {(perm[t], perm[h]) for t, h in arcs}
    free = sorted({(perm[t], perm[h]) for t, h in allowed} - copy)
    if not copy or not free:
        return copy, None
    moved = (copy - {rng.choice(sorted(copy))}) | {rng.choice(free)}
    return copy, moved


def _random_digraph(rng, n, regular):
    if not regular:
        density = rng.choice((0.15, 0.3, 0.5))
        return {(t, h) for t in range(n) for h in range(n) if t != h and rng.random() < density}
    arcs = set()  # unions of permutations: refinement leaves few colours to split
    for _ in range(rng.randint(1, 2)):
        image = rng.sample(range(n), n)
        arcs |= {(v, image[v]) for v in range(n) if image[v] != v}
    return arcs


def isomorphic(n, arcs_a, arcs_b):
    """digraph_isomorphism's verdict, with a returned map checked arc by arc both ways."""
    found = digraph_isomorphism(n, arcs_a, arcs_b)
    if found is not None:
        assert sorted(found) == sorted(found.values()) == list(range(n))
        a, b = set(arcs_a), set(arcs_b)
        assert {(found[t], found[h]) for t, h in a} == b
        assert {(t, h) for t in range(n) for h in range(n) if (found[t], found[h]) in b} == a
    return found is not None


def test_digraphs_isomorphic_matches_brute_force():
    rng = random.Random(20261018)
    outcomes = {'moved': set(), 'other': set()}
    assert digraph_isomorphism(0, [], []) == {}
    for trial in range(400):
        n = rng.randint(1, 6)
        pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
        arcs = _random_digraph(rng, n, trial % 2)
        copy, moved = relabel_and_reroute(rng, n, arcs, pairs)
        assert isomorphic(n, arcs, copy)
        if pairs:
            toggled = copy ^ {rng.choice(pairs)}
            assert not isomorphic(n, arcs, toggled)
        other = _random_digraph(rng, n, trial % 2)
        for key, arcs_b in (('moved', moved), ('other', other)):
            if arcs_b is not None and len(arcs_b) == len(arcs):
                expected = brute_isomorphic(n, arcs, arcs_b)
                assert isomorphic(n, arcs, arcs_b) == expected, (n, arcs, arcs_b)
                outcomes[key].add(expected)
    assert outcomes == {'moved': {False, True}, 'other': {False, True}}


def test_digraphs_isomorphic_needs_arcs_in_both_directions():
    six_cycle = [(v, (v + 1) % 6) for v in range(6)]
    two_triangles = [(v, v // 3 * 3 + (v + 1) % 3) for v in range(6)]
    assert not isomorphic(6, six_cycle, two_triangles)
    assert isomorphic(6, six_cycle, [(h, t) for t, h in six_cycle])
    assert not isomorphic(2, [(0, 1)], [(0, 1), (1, 0)])
    # one colour class after refinement, and a bijection keeps every arc
    # towards an earlier mapped vertex; only the arcs the other way differ
    two_and_three = [(0, 3), (3, 0), (1, 2), (2, 4), (4, 1)]
    five_cycle = [(0, 1), (1, 3), (3, 2), (2, 4), (4, 0)]
    assert not isomorphic(5, two_and_three, five_cycle)


def test_poset_isomorphic_matches_brute_force_on_random_dags():
    def strict_order(p):
        return {(a, b) for a in range(p.size) for b in range(p.size) if a != b and p.leq(a, b)}

    rng = random.Random(181018)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        upward = [(t, h) for t in range(n) for h in range(t + 1, n)]
        p = Poset(n, [a for a in upward if rng.random() < rng.choice((0.2, 0.4))])
        # relabel, then move one cover to a pair upward in the original labels: still acyclic
        copy, moved = relabel_and_reroute(rng, n, p.covers, upward)
        assert p.isomorphic(Poset(n, copy))
        if moved is not None:
            q = Poset(n, moved)
            expected = brute_isomorphic(n, strict_order(p), strict_order(q))
            assert p.isomorphic(q) == expected, (p, q)
            outcomes.add(expected)
    assert outcomes == {False, True}
