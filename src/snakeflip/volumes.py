"""Normalized volumes of the order polytopes O(P(w))."""
from __future__ import annotations

import math
from itertools import product
from typing import Dict, NamedTuple, Tuple

from .exact import BudgetError, determinant
from .posets import Poset, build_snake_poset, strip_embedding
from .words import SnakeWord


class VolumeError(ValueError):
    """Raised for invalid volume computations."""


def catalan(m: int) -> int:
    """The m-th Catalan number."""
    if m < 0:
        raise VolumeError('catalan index must be nonnegative')
    return math.comb(2 * m, m) // (m + 1)


def volume_recursive(w: SnakeWord) -> int:
    """Volume of O(P(w)) by the last-turn recursion."""
    vols: Dict[int, int] = {-1: 1, 0: 2}
    for n in range(1, len(w) + 1):
        k = 0
        for idx in range(n - 1, 0, -1):
            if w.letter(idx) != w.letter(n):
                k = idx
                break
        m = n - k + 1
        vols[n] = catalan(m) * vols[k] + (catalan(m + 1) - 2 * catalan(m)) * vols[k - 1]
    return vols[len(w)]


def volume_brute(w: SnakeWord, budget: int = 1_000_000) -> int:
    """Volume of O(P(w)) as the number of linear extensions, counted directly."""
    poset = build_snake_poset(w)
    full = (1 << poset.size) - 1
    memo: Dict[int, int] = {0: 1}

    def count(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        if len(memo) > budget:
            raise BudgetError('linear extension count exceeded %d states' % budget)
        total = 0
        for x in range(poset.size):
            bit = 1 << x
            if mask & bit and poset.down_mask(x) & mask == bit:
                total += count(mask & ~bit)
        memo[mask] = total
        return total

    return count(full)


def _two_chain_cover(poset: Poset, w: SnakeWord) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Partition P(w) into its two boundary rails, east-most rail first."""
    pos = strip_embedding(w)
    (bottom,) = poset.minima()
    (top,) = poset.maxima()
    first = [bottom]
    while first[-1] != top:
        x = first[-1]
        px, py = pos[x]
        ups = poset.upper_covers(x)
        east = [u for u in ups if pos[u] == (px + 1, py)]
        first.append(east[0] if east else ups[0])
    rest = sorted(set(range(poset.size)) - set(first),
                  key=lambda e: (pos[e][0] + pos[e][1], pos[e]))
    for a, b in zip(rest, rest[1:]):
        if not poset.leq(a, b):
            raise VolumeError('boundary rails do not cover the poset by two chains')
    return tuple(first), tuple(rest)


def skew_shape(w: SnakeWord) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Skew shape (lam, mu) whose lattice paths are the maximal chains of J(P(w))."""
    poset = build_snake_poset(w)
    first, second = _two_chain_cover(poset, w)
    s, t = len(first), len(second)
    # need[i] = second-chain prefix forced once the first i of the first chain are taken
    need_j = [0] * (s + 1)
    for i in range(1, s + 1):
        forced = [j for j in range(1, t + 1) if poset.leq(second[j - 1], first[i - 1])]
        need_j[i] = max(need_j[i - 1], max(forced, default=0))
    need_i = [0] * (t + 1)
    for j in range(1, t + 1):
        forced = [i for i in range(1, s + 1) if poset.leq(first[i - 1], second[j - 1])]
        need_i[j] = max(need_i[j - 1], max(forced, default=0))
    lam = tuple(max(i for i in range(s + 1) if need_j[i] <= t - r) for r in range(1, t + 1))
    mu = tuple(need_i[t - r + 1] for r in range(1, t + 1))
    for part in (lam, mu):
        if any(part[r] < part[r + 1] for r in range(len(part) - 1)):
            raise VolumeError('extracted shape is not a partition')
    if any(m > l for l, m in zip(lam, mu)):
        raise VolumeError('extracted inner shape exceeds outer shape')
    while mu and mu[-1] == 0:
        mu = mu[:-1]
    return lam, mu


def skew_chain_count(lam: Tuple[int, ...], mu: Tuple[int, ...] = ()) -> int:
    """Number of partitions sandwiched between mu and lam, by determinant."""
    for part in (lam, mu):
        if any(x < 0 for x in part):
            raise VolumeError('partition parts must be nonnegative')
        if any(part[r] < part[r + 1] for r in range(len(part) - 1)):
            raise VolumeError('partition parts must be weakly decreasing')
    if len(mu) > len(lam) and any(x > 0 for x in mu[len(lam):]):
        raise VolumeError('inner shape is not contained in outer shape')
    k = len(lam)
    padded = tuple(mu) + (0,) * (k - len(mu))
    if any(m > l for l, m in zip(lam, padded)):
        raise VolumeError('inner shape is not contained in outer shape')

    def binom(a: int, b: int) -> int:
        if b < 0 or a < 0 or b > a:
            return 0
        return math.comb(a, b)

    matrix = [[binom(lam[j] - padded[i] + 1, j - i + 1) for j in range(k)]
              for i in range(k)]
    return determinant(matrix)


def volume_skew(w: SnakeWord) -> int:
    """Volume of O(P(w)) via the skew shape determinant."""
    lam, mu = skew_shape(w)
    return skew_chain_count(lam, mu)


def ribbon_shape(w: SnakeWord) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The Hasse diagram of P(w) as a skew diagram with one cell per square."""
    row = col = 0
    cells = [(0, 0)]
    for i in range(1, len(w) + 1):
        if w.letter(i) == 'L':
            col -= 1
        else:
            row += 1
        cells.append((row, col))
    shift = min(c for _, c in cells) - 1
    spans: Dict[int, Tuple[int, int]] = {}
    for r, c in cells:
        lo, hi = spans.get(r, (c, c))
        spans[r] = (min(lo, c), max(hi, c))
    lam = tuple(spans[r][1] - shift for r in sorted(spans))
    mu = tuple(spans[r][0] - shift - 1 for r in sorted(spans))
    while mu and mu[-1] == 0:
        mu = mu[:-1]
    return lam, mu


def maximal_chain_count(w: SnakeWord) -> int:
    """Number of maximal chains of P(w), equal to skew_chain_count(*ribbon_shape(w))."""
    poset = build_snake_poset(w)
    memo: Dict[int, int] = {}

    def paths_up(x: int) -> int:
        cached = memo.get(x)
        if cached is not None:
            return cached
        ups = poset.upper_covers(x)
        total = sum(paths_up(u) for u in ups) if ups else 1
        memo[x] = total
        return total

    (bottom,) = poset.minima()
    return paths_up(bottom)


class MinmaxReport(NamedTuple):
    """Volume extremes over all words of a fixed length."""
    length: int
    min_volume: int
    max_volume: int
    argmin: Tuple[str, ...]
    argmax: Tuple[str, ...]
    words_checked: int


def all_words_of_length(n: int):
    """All 2^n words of length n, lexicographically."""
    for letters in product('LR', repeat=n):
        yield SnakeWord(letters)


def verify_minmax(n: int) -> MinmaxReport:
    """Sweep all words of length n and report the volume extremes."""
    if n < 0:
        raise VolumeError('length must be nonnegative')
    volumes = {}
    for word in all_words_of_length(n):
        volumes[str(word)] = volume_recursive(word)
    lo = min(volumes.values())
    hi = max(volumes.values())
    return MinmaxReport(
        length=n,
        min_volume=lo,
        max_volume=hi,
        argmin=tuple(sorted(s for s, v in volumes.items() if v == lo)),
        argmax=tuple(sorted(s for s, v in volumes.items() if v == hi)),
        words_checked=len(volumes),
    )

