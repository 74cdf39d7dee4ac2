"""Benchmark workloads: the paper's instances and toy versions of them.

Every workload calls the public API through module attributes (``m.flips``,
``m.regularity``, ...), so the traced run sees each call.  ``setup`` builds the
inputs, ``run`` computes the result, and ``checks`` compares the result with
pinned values, one named check per value.

Why these three: ``flipgraph`` is the search layer alone (flips, unimodularity,
hashing) and the only user of the thread pool; ``regular-count`` is the LP and
``Fraction`` layer on top of the search without the pool, plus the only call of
the exhaustive enumeration; ``verify-all`` runs many small configurations with
validation on (``is_triangulation``, ``circuits_brute``) and no LP.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

PACKAGE = 'snakeflip'
MODULES = ('words', 'posets', 'polytope', 'exact', 'circuits', 'flips',
           'twists', 'volumes', 'regularity', 'cli')


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One set of fixed inputs with its pinned outputs."""

    setup: Callable
    run: Callable
    checks: Callable[..., List[Tuple[str, bool]]]


def _against(pinned: Dict):
    """Checks of a result against pinned values; a missing value fails."""
    def checks(result):
        return [(key, result.get(key) == value) for key, value in pinned.items()]
    return checks


def _flipgraph(n: int, workers: int, pinned: Dict) -> Workload:
    def setup(m):
        w = m.regularity.snake_polytope_word(n)
        return m.flips.canonical_of(w), m.circuits.all_circuits(w)

    def run(m, inputs):
        seed, circuits = inputs
        graph = m.flips.explore_flip_graph(seed, circuits, workers=workers)
        hashes = '\n'.join(m.flips.triangulation_hash(t) for t in graph.nodes)
        return {'nodes': len(graph.nodes), 'edges': len(graph.edges),
                'partial': graph.partial, 'hash_digest': digest(hashes)}

    return Workload(setup, run, _against(pinned))


def _regular_count(ns: Tuple[int, ...], pinned: Dict) -> Workload:
    def setup(m):
        for n in ns:
            w = m.regularity.snake_polytope_word(n)
            m.circuits.word_context(w)
            m.circuits.all_circuits(w)
            m.flips.canonical_of(w)
        return ns

    def run(m, inputs):
        out = {}
        for n in inputs:
            report = m.regularity.count_regular_triangulations(n, workers=1)
            out['n%d.nodes' % n] = report.nodes
            out['n%d.regular_nodes' % n] = report.regular_nodes
            out['n%d.matches' % n] = report.matches
            out['n%d.partial' % n] = report.partial
            out['n%d.twist_orbits' % n] = report.twist_orbits
            out['n%d.affine_twists' % n] = report.affine_twists
            if report.exhaustive is not None:
                out['n%d.exhaustive.total' % n] = report.exhaustive.total
                out['n%d.exhaustive.complete' % n] = report.exhaustive.complete
                out['n%d.exhaustive.regular' % n] = report.exhaustive.regular
        return out

    return Workload(setup, run, _against(pinned))


def _verify_all(max_len: int, pinned: Dict) -> Workload:
    def setup(m):
        return ['verify-all', '--max-len', str(max_len), '--threads', '1']

    def run(m, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = m.cli.main(argv)
        return {'exit_code': code, 'stdout_digest': digest(out.getvalue())}

    return Workload(setup, run, _against(pinned))


def _regular_pins(n, nodes, orbits, exhaustive):
    pins = {'n%d.nodes' % n: nodes, 'n%d.regular_nodes' % n: nodes,
            'n%d.matches' % n: True, 'n%d.partial' % n: False,
            'n%d.twist_orbits' % n: orbits, 'n%d.affine_twists' % n: True}
    if exhaustive:
        pins.update({'n%d.exhaustive.total' % n: nodes,
                     'n%d.exhaustive.complete' % n: True,
                     'n%d.exhaustive.regular' % n: nodes})
    return pins


# The paper's instances.  snake_polytope_word(3) is LRRLLR; its flip graph has
# 6864 = 2^4 * Catalan(7) nodes, all regular, in 429 twist orbits.
PAPER = {
    'flipgraph': _flipgraph(3, 2, {
        'nodes': 6864, 'edges': 24024, 'partial': False,
        'hash_digest': 'a913db8b9802b789d11aa1a2c8ea7cf2'}),
    'regular-count': _regular_count((2, 3), {
        **_regular_pins(2, 336, 42, exhaustive=True),
        **_regular_pins(3, 6864, 429, exhaustive=False)}),
    'verify-all': _verify_all(5, {
        'exit_code': 0, 'stdout_digest': 'bb2e724c3885d59dd80799922174edd2'}),
}

# Toy sizes for the harness self-test: each runs in well under a second.
TOY = {
    'flipgraph': _flipgraph(1, 2, {
        'nodes': 20, 'edges': 30, 'partial': False,
        'hash_digest': '4dca01310e134e23adaeef6bc336a172'}),
    'regular-count': _regular_count((1,), _regular_pins(1, 20, 5, exhaustive=True)),
    'verify-all': _verify_all(2, {'exit_code': 0, 'stdout_digest': '77c98c9f472cb60e779673b7e689f8c0'}),
}

SCALES = {'paper': PAPER, 'toy': TOY}
