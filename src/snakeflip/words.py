"""Snake words over {L, R}, the class V, swaps, and the companion graph."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple


class WordError(ValueError):
    pass


@dataclass(frozen=True)
class SnakeWord:
    """A word w = w1 ... wn over {L, R}; the leading empty letter is implicit.

    Letters are 1-indexed to match the recursive poset construction; index 0
    refers to the implicit first letter.
    """

    letters: tuple[str, ...]

    def __post_init__(self):
        for c in self.letters:
            if c not in ('L', 'R'):
                raise WordError('letters must be L or R, got %r' % (c,))

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return ''.join(self.letters)

    def letter(self, i):
        """Letter at index i, 1-based."""
        if not 1 <= i <= len(self.letters):
            raise WordError('letter index %d out of range' % (i,))
        return self.letters[i - 1]

    def turns(self):
        """Indices i >= 2 where the letter changes: w_i != w_{i-1}."""
        return [i for i in range(2, len(self.letters) + 1)
                if self.letters[i - 1] != self.letters[i - 2]]

    def runs(self):
        """Maximal constant-letter runs as (letter, start, end), 1-based inclusive."""
        out = []
        for i, c in enumerate(self.letters, start=1):
            if out and out[-1][0] == c:
                out[-1][2] = i
            else:
                out.append([c, i, i])
        return [tuple(r) for r in out]


def parse_word(text):
    """Parse 'LRLRL' (optionally prefixed by 'eps' or 'ε') into a SnakeWord."""
    s = text.strip()
    for prefix in ('eps', 'ε'):
        if s.startswith(prefix):
            s = s[len(prefix):]
            break
    for pos, c in enumerate(s, start=1):
        if c not in ('L', 'R'):
            raise WordError('invalid letter %r at position %d' % (c, pos))
    return SnakeWord(tuple(s))


def is_in_V(w):
    """True iff w avoids the substrings LRL and RLR."""
    s = str(w)
    return 'LRL' not in s and 'RLR' not in s


def v_words(max_len):
    """Every word of V of length at most max_len, shortest first, L before R."""
    for n in range(max_len + 1):
        for letters in product('LR', repeat=n):
            w = SnakeWord(letters)
            if is_in_V(w):
                yield w


def swap(w, i):
    """Flip L<->R at every index >= i (1-based)."""
    n = len(w)
    if not 1 <= i <= n:
        raise WordError('swap index %d out of range 1..%d' % (i, n))
    flip = {'L': 'R', 'R': 'L'}
    return SnakeWord(w.letters[:i - 1] + tuple(flip[c] for c in w.letters[i - 1:]))


class WordGraph(NamedTuple):
    """Path 0-1-...-n plus a chord (i, i+2) at every turn of the word."""

    vertex_count: int
    edges: frozenset

    def neighbors(self, v):
        return sorted(u for e in self.edges for u in e if v in e and u != v)


def word_graph(w):
    """Companion graph of w: vertices 0..n, path edges, and chords.

    Chord (i, i+2) is present iff w_{i+1} != w_{i+2}, for every i >= 0.
    This matches the squares of the associated lattice that share a corner;
    the lattice-side check is the ground truth and is asserted in tests.
    """
    n = len(w)
    edges = {(i, i + 1) for i in range(n)}
    for i in range(n - 1):
        if w.letter(i + 1) != w.letter(i + 2):
            edges.add((i, i + 2))
    return WordGraph(n + 1, frozenset(edges))


def connected_induced_subgraphs(g):
    """All nonempty vertex masks inducing a connected subgraph, ascending."""
    n = g.vertex_count
    adj = [0] * n
    for a, b in g.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    out = []
    for mask in range(1, 1 << n):
        if _mask_connected(mask, adj):
            out.append(mask)
    return out


def _mask_connected(mask, adj):
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        grow = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            grow |= adj[v] & mask
        frontier = grow & ~seen
        seen |= frontier
    return seen == mask


def count_subgraphs_recursive(w):
    """|G(w)| by the step recursion over word prefixes.

    A_k counts connected induced subgraphs of the prefix graph containing
    its last vertex k.  Appending a letter gives A_n = A_{n-1} + 1, plus
    A_{n-2} when the letter turns: the chord (n-2, n) lets the new vertex
    attach to subgraphs through the skipped one.  Deleting the last vertex
    of a prefix graph yields exactly the previous prefix graph, which is
    what makes the recursion close; it is stated only for words avoiding
    LRL and RLR.
    """
    if not is_in_V(w):
        raise WordError('recursion defined only for words avoiding LRL/RLR')
    a_prev2, a_prev = 0, 1  # A_{-1} (unused), A_0
    total = 1
    for n in range(1, len(w) + 1):
        a_n = a_prev + 1
        if n >= 2 and w.letter(n) != w.letter(n - 1):
            a_n += a_prev2
        total += a_n
        a_prev2, a_prev = a_prev, a_n
    return total
