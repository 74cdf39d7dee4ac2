"""Tests for snake words and the companion graph."""
import itertools

import pytest

from snakeflip.words import (
    SnakeWord,
    WordError,
    connected_induced_subgraphs,
    count_subgraphs_recursive,
    is_in_V,
    parse_word,
    swap,
    v_words,
    word_graph,
)


def all_words(max_len):
    for n in range(max_len + 1):
        for letters in itertools.product('LR', repeat=n):
            yield SnakeWord(letters)


def test_parse_word_basic():
    assert len(parse_word('LRLRL')) == 5
    assert len(parse_word('')) == 0
    assert str(parse_word('epsLLR')) == 'LLR'
    assert str(parse_word('εRL')) == 'RL'


def test_parse_word_rejects_bad_letter():
    with pytest.raises(WordError, match='position 2'):
        parse_word('LX')
    with pytest.raises(WordError, match='position 1'):
        parse_word('xLR')


def test_is_in_V():
    assert is_in_V(parse_word('LLRRL'))
    assert not is_in_V(parse_word('LRL'))
    assert not is_in_V(parse_word('RRLRLL'))
    assert is_in_V(parse_word(''))
    assert is_in_V(parse_word('LR'))


def test_v_words_counts():
    # from length 3 on, each count is the sum of the two before it
    counts = [sum(1 for w in v_words(6) if len(w) == n) for n in range(7)]
    assert counts == [1, 2, 4, 6, 10, 16, 26]
    assert all(is_in_V(w) for w in v_words(6))
    assert [str(w) for w in v_words(2)] == ['', 'L', 'R', 'LL', 'LR', 'RL', 'RR']


def test_swap():
    assert str(swap(parse_word('LLL'), 2)) == 'LRR'
    assert str(swap(parse_word('LRLR'), 1)) == 'RLRL'
    with pytest.raises(WordError):
        swap(parse_word('LL'), 3)
    with pytest.raises(WordError):
        swap(parse_word('LL'), 0)


def test_swap_involution():
    for w in all_words(5):
        for i in range(1, len(w) + 1):
            assert swap(swap(w, i), i) == w


def test_swaps_normalize_to_alternating():
    # composing swaps at every mismatch index reaches LRLR... or RLRL...
    for w in all_words(6):
        if len(w) == 0:
            continue
        cur = w
        for i in range(2, len(w) + 1):
            if cur.letter(i) == cur.letter(i - 1):
                cur = swap(cur, i)
        s = str(cur)
        assert all(s[j] != s[j + 1] for j in range(len(s) - 1))


def test_turns():
    assert parse_word('LLRRL').turns() == [3, 5]
    assert parse_word('L').turns() == []
    assert parse_word('LRLR').turns() == [2, 3, 4]


def test_word_graph_empty():
    g = word_graph(parse_word(''))
    assert g.vertex_count == 1
    assert g.edges == frozenset()


def test_word_graph_path_and_chords():
    g = word_graph(parse_word('LLR'))
    assert g.vertex_count == 4
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (1, 3)})


def test_word_graph_first_letter_turn():
    # a turn right after the first letter chords vertex 0 to vertex 2
    g = word_graph(parse_word('LR'))
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})
    g = word_graph(parse_word('RL'))
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})
    g = word_graph(parse_word('LL'))
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_word_graph_long_example():
    w = parse_word('L' * 3 + 'R' * 2 + 'L' * 4 + 'R' * 5 + 'L' * 2)
    g = word_graph(w)
    assert g.vertex_count == 17
    chords = {e for e in g.edges if abs(e[0] - e[1]) == 2}
    assert chords == {(2, 4), (4, 6), (8, 10), (13, 15)}


def test_word_graph_chords_match_turns():
    for w in all_words(7):
        g = word_graph(w)
        chords = {e for e in g.edges if abs(e[0] - e[1]) == 2}
        turn_like = {(i - 2, i) for i in range(2, len(w) + 1)
                     if w.letter(i) != w.letter(i - 1)}
        assert chords == turn_like
        assert all(len(g.neighbors(v)) <= 4 for v in range(g.vertex_count))


def test_connected_induced_subgraphs_small():
    assert len(connected_induced_subgraphs(word_graph(parse_word('')))) == 1
    assert len(connected_induced_subgraphs(word_graph(parse_word('L')))) == 3
    masks = connected_induced_subgraphs(word_graph(parse_word('LL')))
    assert masks == [1, 2, 3, 4, 6, 7]


def test_connected_induced_subgraphs_deterministic():
    g = word_graph(parse_word('LLRRL'))
    first = connected_induced_subgraphs(g)
    second = connected_induced_subgraphs(g)
    assert first == second
    assert first == sorted(first)


def test_count_subgraphs_recursive_small():
    assert count_subgraphs_recursive(parse_word('')) == 1
    assert count_subgraphs_recursive(parse_word('L')) == 3
    assert count_subgraphs_recursive(parse_word('LL')) == 6
    assert count_subgraphs_recursive(parse_word('LR')) == 7


def test_count_subgraphs_recursive_rejects_outside_V():
    with pytest.raises(WordError):
        count_subgraphs_recursive(parse_word('LRL'))


def test_recursion_matches_enumeration():
    for w in v_words(8):
        expected = len(connected_induced_subgraphs(word_graph(w)))
        assert count_subgraphs_recursive(w) == expected
