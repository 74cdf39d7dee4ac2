"""The shared theorem checks report a broken primitive, and so does verify-all."""

import pytest

from snakeflip import checks, circuits, flips, regularity, twists, volumes, words
from snakeflip.cli import EXIT_VERIFICATION, main
from snakeflip.words import parse_word


def plus_one(fn):
    return lambda *args: fn(*args) + 1


def drop_last(fn):
    return lambda *args: fn(*args)[:-1]


def drop_last_edge(fn):
    def explore(*args, **kwargs):
        graph = fn(*args, **kwargs)
        return graph._replace(edges=graph.edges[:-1])
    return explore


# row of verify-all: (check, its scope, module, primitive, how to break it)
BREAKS = {
    'volume-agreement': (checks.volume_agreement, 2, volumes, 'volume_skew', plus_one),
    'circuit-bijection': (checks.circuit_bijection, 2, words, 'count_subgraphs_recursive',
                          plus_one),
    'flip-count': (checks.flip_counts, 2, flips, 'find_flips', drop_last),
    'cayley-graph': (checks.cayley_graphs, (2, 3), flips.FlipGraph, 'degrees',
                     lambda fn: lambda graph: fn(graph) + (0,)),
    'twist-laws': (checks.twist_laws, 2, twists, 'all_twists', drop_last),
    # the name commuting_square_check binds, not flips.explore_flip_graph
    'commuting-square': (checks.commuting_squares, [parse_word('LR')], twists,
                         'explore_flip_graph', drop_last_edge),
    'folding-certificates': (checks.folding_certificates, 2, regularity,
                             'verify_local_folding',
                             lambda fn: lambda *args: fn(*args)._replace(verdict=False)),
}


@pytest.mark.parametrize('row', sorted(BREAKS))
def test_a_broken_primitive_fails_its_check(monkeypatch, capsys, row):
    check, scope, module, name, broken = BREAKS[row]
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    result = check(scope)
    assert result.name == row
    assert result.failures and not result.ok
    assert main(['verify-all', '--max-len', '2']) == EXIT_VERIFICATION
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if line.endswith('FAIL')] == [row]
    assert lines[-1] == 'FAILED'


def test_a_repeated_brute_circuit_fails_the_bijection(monkeypatch, capsys):
    # the same set of circuits, one of them listed twice
    brute = circuits.circuits_brute
    monkeypatch.setattr(circuits, 'circuits_brute', lambda cfg: brute(cfg) + brute(cfg)[:1])
    result = checks.circuit_bijection(2)
    assert result.failures and not result.ok
    assert main(['verify-all', '--max-len', '2']) == EXIT_VERIFICATION
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if line.endswith('FAIL')] == ['circuit-bijection']
