"""The paper's theorem checks, shared by ``verify-all`` and the acceptance tests.

Each check takes its scope explicitly and returns a CheckResult that names
every failing case, so the command line reports one row per check and a test
asserts that no case failed.  Primitives are called through their modules, so
that a test or a tracer that rebinds a module attribute sees every call.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Tuple

from . import circuits, flips, polytope, regularity, twists, volumes, words
from .words import SnakeWord


class CheckResult(NamedTuple):
    """One check over its scope: the cases it ran and the ones that failed."""

    name: str
    scope: str
    cases: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _case(w: SnakeWord, tau: Optional[twists.Twist] = None) -> str:
    """A failing case: the word, eps when empty, and the twist's ladder mask."""
    text = str(w) or 'eps'
    return text if tau is None else '%s mask %s' % (text, sorted(tau.ladder_mask))


def volume_agreement(max_len: int) -> CheckResult:
    """Three volume oracles agree; snakes give Pell and ladders Catalan numbers."""
    failures = []
    cases = 0
    pell = [2, 5]
    while len(pell) <= max_len:
        pell.append(2 * pell[-1] + pell[-2])
    for n in range(max_len + 1):
        for w in volumes.all_words_of_length(n):
            cases += 1
            if not (volumes.volume_recursive(w) == volumes.volume_brute(w)
                    == volumes.volume_skew(w)):
                failures.append(_case(w))
        for first, second in ('LR', 'RL'):
            snake = SnakeWord(tuple(first if i % 2 == 0 else second for i in range(n)))
            if volumes.volume_recursive(snake) != pell[n]:
                failures.append(_case(snake) + ' Pell')
            ladder = SnakeWord((first,) * n)
            if volumes.volume_recursive(ladder) != volumes.catalan(n + 2):
                failures.append(_case(ladder) + ' Catalan')
    return CheckResult('volume-agreement', 'all words len <= %d' % max_len,
                       cases, tuple(failures))


def circuit_bijection(max_len: int) -> CheckResult:
    """Circuits equal the brute-force ones and biject with connected subgraphs."""
    failures = []
    ws = list(words.v_words(max_len))
    for w in ws:
        gamma = circuits.all_circuits(w)
        brute = circuits.circuits_brute(circuits.word_context(w).config)
        subgraphs = words.connected_induced_subgraphs(words.word_graph(w))
        if gamma != brute or not (
                len(gamma) == len(subgraphs) == words.count_subgraphs_recursive(w)):
            failures.append(_case(w))
    return CheckResult('circuit-bijection', 'V words len <= %d' % max_len,
                       len(ws), tuple(failures))


def flip_counts(max_len: int) -> CheckResult:
    """The canonical triangulation has len(w)+1 flips, each to a unimodular one."""
    failures = []
    ws = list(words.v_words(max_len))
    for w in ws:
        tri = flips.canonical_of(w)
        gamma = circuits.all_circuits(w)
        moves = flips.find_flips(tri, gamma)
        images = [flips.apply_flip(tri, move, gamma) for move in moves]
        if len(moves) != len(w) + 1 or not all(map(polytope.is_unimodular, images)):
            failures.append(_case(w))
    return CheckResult('flip-count', 'V words len <= %d' % max_len,
                       len(ws), tuple(failures))


def cayley_graphs(ns: Iterable[int]) -> CheckResult:
    """The ladder flip graph of each n is the Cayley graph of S_{n+1}."""
    ns = list(ns)
    failures = tuple(_case(SnakeWord(('L',) * (n - 1)))
                     for n in ns if not flips.cayley_check(n))
    scope = 'ladders n in {%s}' % ','.join(map(str, ns)) if ns else 'skipped'
    return CheckResult('cayley-graph', scope, len(ns), failures)


def twist_laws(max_len: int) -> CheckResult:
    """2^t distinct twists, involutive and commuting, each permuting the circuits."""
    failures = []
    ws = list(words.v_words(max_len))
    for w in ws:
        taus = twists.all_twists(w)
        if (len(taus) != 2 ** max(1, len(w.runs()))
                or len({t.column_permutation for t in taus}) != len(taus)):
            failures.append(_case(w))
        identity = twists.identity_twist(w)
        gamma = circuits.all_circuits(w)
        gamma_set = set(gamma)
        for tau in taus:
            if (twists.compose_twists(tau, tau) != identity
                    or {twists.twist_circuit(tau, z) for z in gamma} != gamma_set
                    or any(twists.compose_twists(tau, b) != twists.compose_twists(b, tau)
                           for b in taus)):
                failures.append(_case(w, tau))
    return CheckResult('twist-laws', 'V words len <= %d' % max_len,
                       len(ws), tuple(failures))


def commuting_squares(ws: Iterable[SnakeWord]) -> CheckResult:
    """Flipping then twisting equals twisting then flipping on each whole flip graph."""
    ws = list(ws)
    failures = tuple(_case(w) for w in ws if not twists.commuting_square_check(w))
    return CheckResult('commuting-square', ', '.join(map(_case, ws)), len(ws), failures)


def folding_certificates(max_len: int) -> CheckResult:
    """Every twisted canonical triangulation is valid and folding-certified."""
    failures = []
    ws = list(words.v_words(max_len))
    for w in ws:
        tri = flips.canonical_of(w)
        for tau in twists.all_twists(w):
            image = twists.twist_triangulation(tau, tri)
            if not image.valid or not regularity.verify_local_folding(
                    image.triangulation, regularity.height_function(w, tau)).verdict:
                failures.append(_case(w, tau))
    # pinned folding forms of the two simplices of the diamond (the empty word)
    base = SnakeWord(())
    tri = flips.canonical_of(base)
    omega = regularity.height_function(base)
    s1, s2 = tri.simplices
    if (regularity.folding_form(tri.config, s1, 3, omega) != 6
            or regularity.folding_form(tri.config, s2, 2, omega) != 6):
        failures.append(_case(base) + ' folding forms')
    return CheckResult('folding-certificates', 'V words len <= %d' % max_len,
                       len(ws), tuple(failures))
