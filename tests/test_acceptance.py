"""End-to-end acceptance checks: every theorem at desk scale, with time budgets."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from time import monotonic

import pytest

import snakeflip
from snakeflip import checks
from snakeflip.circuits import all_circuits
from snakeflip.cli import main
from snakeflip.flips import FlipError, canonical_of, explore_flip_graph
from snakeflip.polytope import PointConfiguration, Triangulation, is_unimodular
from snakeflip.regularity import count_canonical_dual_graphs, count_regular_triangulations
from snakeflip.volumes import catalan, verify_minmax
from snakeflip.words import SnakeWord, parse_word

PELL = (2, 5, 12, 29, 70, 169, 408, 985, 2378)


def alternating(n, first):
    second = 'R' if first == 'L' else 'L'
    return SnakeWord(tuple(first if i % 2 == 0 else second for i in range(n)))


def test_volume_oracles_agree_to_length_8():
    # budget: 30 s
    start = monotonic()
    result = checks.volume_agreement(8)
    assert not result.failures, result.failures
    assert monotonic() - start < 30


def test_extremes_are_snake_and_ladder_to_length_8():
    # budget: 1 min
    start = monotonic()
    for n in range(9):
        report = verify_minmax(n)
        assert report.words_checked == 2 ** n
        assert report.min_volume == PELL[n]
        assert report.max_volume == catalan(n + 2)
        snakes = sorted({str(alternating(n, f)) for f in 'LR'})
        ladders = sorted({f * n for f in 'LR'})
        assert list(report.argmin) == snakes
        assert list(report.argmax) == ladders
    assert monotonic() - start < 60


def test_circuit_bijection_to_length_6():
    # budget: 5 min
    start = monotonic()
    result = checks.circuit_bijection(6)
    assert not result.failures, result.failures
    assert monotonic() - start < 300


def test_flip_counts_to_length_7():
    # budget: 2 min
    start = monotonic()
    result = checks.flip_counts(7)
    assert not result.failures, result.failures
    assert monotonic() - start < 120


def test_ladder_flip_graphs_are_permutation_graphs():
    # budget: 1 min for the 120-node case
    start = monotonic()
    result = checks.cayley_graphs((2, 3, 4))
    assert not result.failures, result.failures
    assert monotonic() - start < 60


def test_twist_laws_and_commuting_squares():
    # budget: 10 min
    start = monotonic()
    result = checks.twist_laws(6)
    assert not result.failures, result.failures
    result = checks.commuting_squares(map(parse_word, ('', 'LL', 'LR', 'LRRL')))
    assert not result.failures, result.failures
    assert monotonic() - start < 600


def test_folding_certificates_to_length_6():
    # budget: 5 min
    start = monotonic()
    result = checks.folding_certificates(6)
    assert not result.failures, result.failures
    assert monotonic() - start < 300


def test_regular_count_evidence():
    # reported, not asserted; budget: 30 min for n = 3
    start = monotonic()
    for n in (1, 2, 3):
        report = count_regular_triangulations(n)
        assert not report.partial
        assert report.affine_twists
        if report.exhaustive is not None:
            assert report.exhaustive.complete
        print('regular count n=%d word=%s: %d of %d nodes regular, expected %d, '
              'matches=%s' % (n, report.word, report.regular_nodes, report.nodes,
                              report.expected, report.matches))
    assert monotonic() - start < 1800


def test_dual_graph_count_evidence():
    # reported, not asserted
    for n in (3, 4):
        report = count_canonical_dual_graphs(n)
        assert not report.partial
        print('canonical dual graphs n=%d word=%s: %d of %d nodes, expected %d, '
              'matches=%s' % (n, report.word, report.count, report.nodes,
                              report.expected, report.matches))


def test_unimodularity_is_enforced_during_search():
    w = parse_word('LR')
    graph = explore_flip_graph(canonical_of(w), all_circuits(w))
    assert all(is_unimodular(node) for node in graph.nodes)
    stretched = PointConfiguration(1, ((0,), (2,)), ((0,), (1,)))
    seed = Triangulation.make(stretched, [(0, 1)])
    with pytest.raises(FlipError):
        explore_flip_graph(seed, ())


def test_unimodularity_is_enforced_under_optimization():
    # python -O strips assert statements; the check must not rely on one
    script = '\n'.join([
        'from snakeflip.flips import FlipError, explore_flip_graph',
        'from snakeflip.polytope import PointConfiguration, Triangulation',
        'cfg = PointConfiguration(1, ((0,), (2,)), ((0,), (1,)))',
        'try:',
        '    explore_flip_graph(Triangulation.make(cfg, [(0, 1)]), ())',
        'except FlipError:',
        '    print("rejected")',
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(snakeflip.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, '-O', '-c', script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == 'rejected\n'


def test_summary_output_is_worker_independent(capsys):
    runs = []
    for threads in ('1', '4', '8'):
        code = main(['verify-all', '--max-len', '5', '--threads', threads])
        captured = capsys.readouterr()
        assert code == 0
        runs.append((captured.out, captured.err))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0].strip().endswith('all checks passed')
    # pins the report byte for byte, so a faster check cannot change what it prints
    digest = hashlib.blake2b(runs[0][0].encode(), digest_size=16).hexdigest()
    assert digest == 'bb2e724c3885d59dd80799922174edd2'
