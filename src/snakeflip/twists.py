"""The twist group of a snake word acting on circuits and triangulations."""
from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from .circuits import Circuit, all_circuits, word_context
from .flips import canonical_of, explore_flip_graph, triangulation_hash
from .polytope import Triangulation, is_triangulation
from .words import SnakeWord


class TwistError(ValueError):
    """Raised when twist inputs are inconsistent or a twist law fails."""


class Twist(NamedTuple):
    """An involution of the bounded lattice built from ladder reflections."""

    word: SnakeWord
    ladder_mask: FrozenSet[int]
    permutation: Tuple[int, ...]
    column_permutation: Tuple[int, ...]


def _twist_from_permutation(w: SnakeWord, mask: FrozenSet[int], perm) -> Twist:
    ctx = word_context(w)
    cols = tuple(ctx.column_of[perm[ctx.element_of[c]]]
                 for c in range(len(ctx.config.columns)))
    return Twist(w, mask, tuple(perm), cols)


def identity_twist(w: SnakeWord) -> Twist:
    """The twist with empty ladder mask."""
    size = word_context(w).phat.size
    return _twist_from_permutation(w, frozenset(), range(size))


def elementary_twist(w: SnakeWord, i: int) -> Twist:
    """Reflect ladder i (1-based), swapping the two ends of each of its rungs."""
    ctx = word_context(w)
    rung_lists = ctx.labeling.ladders.rungs
    if not 1 <= i <= len(rung_lists):
        raise TwistError('ladder index %d out of range 1..%d' % (i, len(rung_lists)))
    perm = list(range(ctx.phat.size))
    for upper, lower in rung_lists[i - 1]:
        perm[upper] = lower
        perm[lower] = upper
    return _twist_from_permutation(w, frozenset({i}), perm)


def compose_twists(a: Twist, b: Twist) -> Twist:
    """Product of two twists of the same word; masks combine symmetrically."""
    if a.word != b.word:
        raise TwistError('twists belong to different words')
    perm = tuple(a.permutation[b.permutation[e]] for e in range(len(a.permutation)))
    return _twist_from_permutation(a.word, a.ladder_mask ^ b.ladder_mask, perm)


def all_twists(w: SnakeWord) -> Tuple[Twist, ...]:
    """All 2^t twists, ordered by binary counting over the ladder indices."""
    out = [identity_twist(w)]
    for i in range(1, len(word_context(w).labeling.ladders.rungs) + 1):
        tau = elementary_twist(w, i)
        out.extend([compose_twists(prev, tau) for prev in list(out)])
    return tuple(out)


def twist_circuit(tau: Twist, z: Circuit) -> Circuit:
    """Image circuit under the twist; the image must again be a circuit."""
    cols = tau.column_permutation
    image = Circuit.make([cols[c] for c in z.plus], [cols[c] for c in z.minus])
    if image not in word_context(tau.word).circuit_set:
        raise TwistError('twist image %r is not a circuit' % (image,))
    return image


def twist_simplices(tau: Twist, simplices) -> Tuple[Tuple[int, ...], ...]:
    """The twist's image of a simplex list, in canonical sorted form."""
    cols = tau.column_permutation
    return tuple(sorted(tuple(sorted(cols[c] for c in s)) for s in simplices))


class TwistImage(NamedTuple):
    """Twisted simplex set together with its validation verdict."""

    triangulation: Triangulation
    valid: bool


def twist_triangulation(tau: Twist, tri: Triangulation) -> TwistImage:
    """Apply the twist to every simplex and validate the result on the word's circuits."""
    image = Triangulation.make(tri.config, twist_simplices(tau, tri.simplices))
    return TwistImage(image, is_triangulation(tri.config, image.simplices, all_circuits(tau.word)))


class CommutingSquareReport(NamedTuple):
    """Outcome of checking flip-then-twist against twist-then-flip."""

    word: SnakeWord
    triangulations: int
    twists: int
    moves_checked: int
    counterexamples: Tuple[Tuple[str, Tuple[int, ...], str], ...]

    def __bool__(self) -> bool:
        return not self.counterexamples


def commuting_square_check(w: SnakeWord) -> CommutingSquareReport:
    """Check that every twist is an automorphism of the canonical's flip component.

    Each node is validated once; a twist must send every node to a node and
    each flip a -Z-> b to the flip τa -τZ-> τb, so every twist image is a
    validated node.  A partial component fails the check.
    """
    circuits = all_circuits(w)
    graph = explore_flip_graph(canonical_of(w), circuits)
    nodes = graph.nodes
    index = {t.simplices: i for i, t in enumerate(nodes)}
    flips: List[Dict[Circuit, int]] = [{} for _ in nodes]
    for a, b, z in graph.edges:
        flips[a][z] = b
        flips[b][z] = a
    bad = []
    if graph.partial:
        bad.append((triangulation_hash(nodes[0]), (), 'flip component is partial'))
    bad += [(triangulation_hash(t), (), 'node is not a triangulation')
            for t in nodes if not is_triangulation(t.config, t.simplices, circuits)]
    twists = all_twists(w)
    moves_checked = 0
    for tau in twists:
        mask = tuple(sorted(tau.ladder_mask))
        image = [index.get(twist_simplices(tau, t.simplices)) for t in nodes]
        circuit_image = {z: twist_circuit(tau, z) for z in circuits}
        for a, moves in enumerate(flips):
            if image[a] is None:
                bad.append((triangulation_hash(nodes[a]), mask,
                            'twist image is outside the component'))
                continue
            for z, b in moves.items():
                moves_checked += 1
                if flips[image[a]].get(circuit_image[z]) != image[b]:
                    bad.append((triangulation_hash(nodes[a]), mask, 'square does not commute'))
    return CommutingSquareReport(w, len(nodes), len(twists), moves_checked, tuple(bad))
