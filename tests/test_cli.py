"""Tests for the command-line interface."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import snakeflip
import snakeflip.cli as cli
from snakeflip.circuits import CircuitError
from snakeflip.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main, parse
from snakeflip.exact import BudgetError
from snakeflip.flips import FlipError
from snakeflip.polytope import PolytopeError
from snakeflip.posets import PosetError
from snakeflip.volumes import VolumeError


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_volume_prints_the_number(capsys):
    code, out, _ = run_cli(capsys, ['volume', '--word', 'LRLRL'])
    assert code == EXIT_OK
    assert out == '169\n'


@pytest.mark.parametrize('module', ['snakeflip', 'snakeflip.cli'])
def test_python_m_entry_points(module):
    env = dict(os.environ, PYTHONPATH=str(Path(snakeflip.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, '-m', module, 'volume', '--word', 'LRLRL'],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == '169\n'


def test_verify_all_is_the_same_without_asserts():
    # python -O strips assert statements, so no check may rest on one
    env = dict(os.environ, PYTHONPATH=str(Path(snakeflip.__file__).resolve().parents[1]))
    runs = [subprocess.run([sys.executable, *flags, '-m', 'snakeflip', 'verify-all',
                            '--max-len', '3'],
                           env=env, capture_output=True, text=True, timeout=300)
            for flags in ([], ['-O'])]
    plain, optimized = runs
    assert plain.returncode == EXIT_OK, plain.stderr
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


def test_poset_summary_past_64_elements(capsys):
    code, out, err = run_cli(capsys, ['poset', '--word', 'L' * 40])
    assert code == EXIT_OK
    assert err == ''
    assert out == ('word %s\nphat size 86\nmeet-irreducible size 44\nladders 1\n'
                   'vertices 86\n' % ('L' * 40))


@pytest.mark.parametrize('error, code', [
    (BudgetError, EXIT_BUDGET),
    (PolytopeError, EXIT_USAGE),
    (FlipError, EXIT_USAGE),
    (CircuitError, EXIT_USAGE),
    (PosetError, EXIT_USAGE),
    (VolumeError, EXIT_USAGE),
])
def test_library_errors_map_to_exit_codes(capsys, monkeypatch, error, code):
    def handler(config):
        raise error('stopped here')

    monkeypatch.setitem(cli._COMMANDS, 'volume', handler)
    assert run_cli(capsys, ['volume', '--word', 'LR']) == (code, '', 'snakeflip: stopped here\n')


def test_running_out_of_memory_exits_3_with_one_line(capsys, monkeypatch):
    def suite(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, 'conjecture_suite', suite)
    code, out, err = run_cli(capsys, ['conjectures', '--id', '6.4', '--n', '2'])
    assert (code, out) == (EXIT_BUDGET, '')
    assert err.splitlines() == ['snakeflip: out of memory']


def test_volume_json_payload(capsys):
    code, out, _ = run_cli(capsys, ['volume', '--word', 'eps', '--format', 'json'])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {'schema_version': 1, 'word': '', 'volume': 2}


def test_poset_summary(capsys):
    code, out, _ = run_cli(capsys, ['poset', '--word', 'LR'])
    assert code == EXIT_OK
    assert 'phat size 10' in out
    assert 'meet-irreducible size 6' in out
    assert 'ladders 2' in out


def test_circuits_listing(capsys):
    code, out, _ = run_cli(capsys, ['circuits', '--word', 'eps'])
    assert code == EXIT_OK
    assert out.splitlines() == ['1 circuits', '+1,4 -2,3']


def test_triangulate_reports_hash_and_simplices(capsys):
    code, out, _ = run_cli(capsys, ['triangulate', '--word', 'eps'])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[1] == 'simplices 2'
    assert lines[2] == 'unimodular yes'
    assert lines[3:] == ['0 1 2 4 5', '0 1 3 4 5']


def test_flipgraph_dot_is_a_hexagon(capsys):
    code, out, _ = run_cli(capsys, ['flipgraph', '--word', 'L', '--format', 'dot'])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == 'graph flipgraph {'
    assert lines[-1] == '}'
    nodes = [l for l in lines if l.endswith('";') and ' -- ' not in l]
    edges = [l for l in lines if ' -- ' in l]
    assert len(nodes) == 6 and len(edges) == 6
    degree = {}
    for line in edges:
        for name in line.strip().rstrip(';').split(' -- '):
            degree[name] = degree.get(name, 0) + 1
    assert set(degree.values()) == {2}


def test_flipgraph_json_counts(capsys):
    code, out, _ = run_cli(capsys, ['flipgraph', '--word', 'LR', '--format', 'json'])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload['node_count'] == 20
    assert payload['edge_count'] == 30
    assert not payload['partial']
    assert len(payload['nodes']) == 20
    assert len(payload['depths']) == 20


def test_flipgraph_budget_exhaustion(capsys):
    code, out, _ = run_cli(capsys, ['flipgraph', '--word', 'LR', '--budget-nodes', '3'])
    assert code == EXIT_BUDGET
    assert 'partial yes' in out


def test_budget_below_the_seed_keeps_the_seed(capsys):
    # the seed's orbit is always kept, even when it alone is over the budget:
    # one triangulation with no nodes allowed, and the n=2 seed's eight
    # twist images with one allowed; both runs are partial
    code, out, _ = run_cli(capsys, ['flipgraph', '--word', 'LR', '--budget-nodes', '0',
                                    '--format', 'json'])
    assert code == EXIT_BUDGET
    payload = json.loads(out)
    assert (payload['node_count'], payload['edge_count'], payload['partial']) == (1, 0, True)
    code, out, _ = run_cli(capsys, ['conjectures', '--id', '6.4', '--n', '2', '--budget-nodes', '1',
                                    '--no-exhaustive', '--format', 'json'])
    assert code == EXIT_BUDGET
    payload = json.loads(out)
    assert (payload['nodes'], payload['regular_nodes'], payload['twist_orbits']) == (8, 8, 1)
    assert (payload['partial'], payload['matches'], payload['exhaustive']) == (True, False, None)


def test_twist_group_listing(capsys):
    code, out, _ = run_cli(capsys, ['twist', '--word', 'LR'])
    assert code == EXIT_OK
    assert out.splitlines()[0] == '4 twists'


def test_twist_application(capsys):
    code, out, _ = run_cli(capsys, ['twist', '--word', 'eps', '--twist', '1'])
    assert code == EXIT_OK
    assert 'valid yes' in out
    assert '0 1 2 3 5' in out and '0 2 3 4 5' in out


def test_regularity_canonical(capsys):
    code, out, _ = run_cli(capsys, ['regularity', '--word', 'eps'])
    assert code == EXIT_OK
    assert 'regular yes' in out
    assert 'slack 1' in out
    assert 'certificate yes' in out


def test_regularity_twisted_json(capsys):
    code, out, _ = run_cli(capsys,
                           ['regularity', '--word', 'LR', '--twist', '2',
                            '--format', 'json'])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload['regular'] and payload['certificate']['verdict']
    assert payload['mask'] == [2]


def test_regularity_by_node_prefix(capsys):
    code, out, _ = run_cli(capsys, ['flipgraph', '--word', 'L', '--format', 'json'])
    assert code == EXIT_OK
    target = json.loads(out)['nodes'][3]
    code, out, _ = run_cli(capsys, ['regularity', '--word', 'L', '--node', target[:8]])
    assert code == EXIT_OK
    assert 'node %s' % target in out
    assert 'regular yes' in out


def test_conjecture_experiment_run(capsys):
    code, out, _ = run_cli(capsys, ['conjectures', '--id', '6.3', '--n', '3'])
    assert code == EXIT_OK
    assert 'matches True' in out
    assert 'count 12' in out


@pytest.mark.parametrize('n, digest', [('2', 'aa08b4d946e68ea7b8df56a80259fa3d'),
                                       ('3', '44fe45489545ca6c774465492f0a8e4e')])
def test_regular_count_json_is_pinned(capsys, n, digest):
    # recorded when the LP decided every twist orbit; the carried heights
    # may change how a verdict is reached but not the report
    code, out, _ = run_cli(capsys, ['conjectures', '--id', '6.4', '--n', n, '--format', 'json'])
    assert code == EXIT_OK
    assert hashlib.blake2b(out.encode(), digest_size=16).hexdigest() == digest


@pytest.mark.parametrize('argv, digest', [
    (['--id', '6.4', '--n', '2', '--format', 'text'], '6cb833c59a3151c98eb5cf8f7940ee45'),
    (['--id', '6.2', '--word', 'LRRL', '--format', 'text'], 'bdf2b719fcd1e6b36867095215ff65c5'),
    (['--id', '6.3', '--n', '4', '--format', 'text'], '722956d992b54d15bb5207e526b9792f'),
    (['--id', '6.1', '--word', 'LRRL', '--format', 'json'], '5adbd0601e15df3b4ac922bf13a059c3'),
])
def test_conjecture_reports_are_pinned(capsys, argv, digest):
    # each report type becomes a payload dict, its nested records included,
    # before the JSON or the sorted key-value text is written
    code, out, _ = run_cli(capsys, ['conjectures', *argv])
    assert code == EXIT_OK
    assert hashlib.blake2b(out.encode(), digest_size=16).hexdigest() == digest


def test_conjecture_budget_exhaustion(capsys):
    code, out, _ = run_cli(capsys,
                           ['conjectures', '--id', '6.1', '--word', 'LR',
                            '--budget-nodes', '2'])
    assert code == EXIT_BUDGET
    assert 'partial True' in out


def test_conjecture_time_budget_marks_the_search_partial(capsys, tmp_path):
    # a nanosecond has passed before the first level, so the search stores
    # the seed's orbit alone; the enumeration still lists all 336
    code, out, _ = run_cli(capsys, ['conjectures', '--id', '6.4', '--n', '2',
                                    '--time-budget', '1e-9', '--format', 'json'])
    assert code == EXIT_BUDGET
    payload = json.loads(out)
    assert (payload['partial'], payload['matches'], payload['twist_orbits']) == (True, False, 1)
    assert payload['exhaustive']['total'] == 336 and payload['exhaustive']['complete']
    cfg = tmp_path / 'run.cfg'
    cfg.write_text('id=6.1\nword=LRRL\ntime_budget=1e-9\n')
    code, out, _ = run_cli(capsys, ['conjectures', '--config', str(cfg)])
    assert code == EXIT_BUDGET
    assert 'nodes 1' in out.splitlines() and 'partial True' in out
    code, out, _ = run_cli(capsys, ['conjectures', '--id', '6.4', '--n', '2',
                                    '--time-budget', '600'])
    assert code == EXIT_OK
    assert 'partial False' in out


def test_truncated_exhaustive_check_exits_with_budget(capsys):
    # the flip search completes; only the enumeration's step budget runs out
    code, out, _ = run_cli(capsys, ['conjectures', '--id', '6.4', '--n', '1',
                                    '--budget-steps', '5'])
    assert code == EXIT_BUDGET
    assert 'partial False' in out
    assert 'exhaustive.complete False' in out
    code, out, _ = run_cli(capsys, ['conjectures', '--id', '6.4', '--n', '1'])
    assert code == EXIT_OK
    assert 'exhaustive.complete True' in out


def test_usage_errors(capsys):
    for argv in ([],
                 ['volume'],
                 ['volume', '--word', 'LX'],
                 ['circuits', '--word', 'LRL'],
                 ['volume', '--word', 'L', '--format', 'dot'],
                 ['conjectures'],
                 ['conjectures', '--id', '9.9', '--n', '1'],
                 ['twist', '--word', 'LR', '--twist', '5'],
                 ['regularity', '--word', 'L', '--node', 'zzzz']):
        code, _, err = run_cli(capsys, argv)
        assert code == EXIT_USAGE, argv
        assert err.startswith('snakeflip:')


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / 'run.cfg'
    cfg.write_text('# defaults\nword=LR\nformat=json\n')
    code, out, _ = run_cli(capsys, ['volume', '--config', str(cfg)])
    assert code == EXIT_OK
    assert json.loads(out)['volume'] == 12
    code, out, _ = run_cli(capsys,
                           ['volume', '--config', str(cfg), '--word', 'L',
                            '--format', 'text'])
    assert code == EXIT_OK
    assert out == '5\n'
    bad = tmp_path / 'bad.cfg'
    bad.write_text('wordz=LR\n')
    code, _, err = run_cli(capsys, ['volume', '--config', str(bad)])
    assert code == EXIT_USAGE
    assert 'unknown key' in err


def test_config_file_id_key_selects_the_experiment(capsys, tmp_path):
    cfg = tmp_path / 'run.cfg'
    cfg.write_text('id=6.4\nn=1\nexhaustive=false\n')
    code, out, _ = run_cli(capsys, ['conjectures', '--config', str(cfg), '--format', 'json'])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload['id'], payload['n'], payload['exhaustive']) == ('6.4', 1, None)


def test_config_file_takes_only_the_subcommands_flags(capsys, tmp_path):
    cfg = tmp_path / 'run.cfg'
    for command, text, key in (
            ('conjectures', 'id=6.4\nn=1\nmax_depth=2\n', 'max_depth'),
            ('conjectures', 'conjecture=6.4\nn=1\n', 'conjecture'),
            ('conjectures', 'id=6.4\nconfig=other.cfg\n', 'config'),
            ('volume', 'word=L\nthreads=2\n', 'threads'),
            ('flipgraph', 'word=L\nthreads=2\n', 'threads'),
            ('regularity', 'word=L\nthreads=2\n', 'threads'),
            ('conjectures', 'id=6.4\nn=1\nthreads=2\n', 'threads'),
            ('flipgraph', 'word=L\nbudget=5\n', 'budget')):
        cfg.write_text(text)
        code, out, err = run_cli(capsys, [command, '--config', str(cfg)])
        assert code == EXIT_USAGE, text
        assert out == '' and 'unknown key %r' % key in err, text
    code, _, err = run_cli(capsys, ['conjectures', '--id', '6.4', '--n', '1',
                                    '--max-depth', '2'])
    assert code == EXIT_USAGE


def test_config_file_values_are_parsed_by_the_flags(capsys, tmp_path):
    cfg = tmp_path / 'run.cfg'
    for text, message in (('id=6.4\nn=one\n', "bad value 'one' for n"),
                          ('id=6.4\nn=1\nexhaustive=maybe\n', "bad value 'maybe'"),
                          ('id=6.4\nn=1\nformat=dot\n', "bad value 'dot'")):
        cfg.write_text(text)
        code, _, err = run_cli(capsys, ['conjectures', '--config', str(cfg)])
        assert code == EXIT_USAGE and message in err, text
    cfg.write_text('word=LR\nbudget-nodes=4\nmax_depth=1\n')
    config = parse(['flipgraph', '--config', str(cfg), '--max-depth', '2'])
    assert (str(config.word), config.budget_nodes, config.max_depth) == ('LR', 4, 2)


def test_the_environment_sets_no_threads(capsys, monkeypatch):
    argv = ['verify-all', '--max-len', '1']
    plain = run_cli(capsys, argv)
    assert plain[0] == EXIT_OK
    for value in ('4', 'x', '0'):
        monkeypatch.setenv('SNAKEFLIP_THREADS', value)
        assert run_cli(capsys, argv) == plain, value
    assert run_cli(capsys, argv + ['--threads', '0'])[0] == EXIT_USAGE


def test_only_verify_all_takes_threads(capsys):
    for argv in (['flipgraph', '--word', 'L'], ['regularity', '--word', 'L'],
                 ['conjectures', '--id', '6.4', '--n', '1']):
        code, out, err = run_cli(capsys, argv + ['--threads', '2'])
        assert code == EXIT_USAGE and out == '' and '--threads' in err, argv
    config = parse(['verify-all', '--threads', '2'])
    assert 'threads' not in config._fields


def test_output_goes_to_file(capsys, tmp_path):
    path = tmp_path / 'out.json'
    code, out, _ = run_cli(capsys,
                           ['volume', '--word', 'LL', '--format', 'json',
                            '--output', str(path)])
    assert code == EXIT_OK
    assert out == ''
    assert json.loads(path.read_text())['volume'] == 14


def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / 'missing' / 'out.txt'
    code, out, err = run_cli(capsys, ['volume', '--word', 'LR', '--output', str(path)])
    assert code == EXIT_USAGE
    assert out == ''
    assert err.startswith('snakeflip: cannot write output file: ')
    assert err.count('\n') == 1 and 'Traceback' not in err
    assert not path.parent.exists()


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, ['verify-all', '--max-len', '2'])
    assert code == EXIT_OK
    assert out == '\n'.join([
        'check                  scope                   cases  status',
        'volume-agreement       all words len <= 2          7  ok',
        'circuit-bijection      V words len <= 2            7  ok',
        'flip-count             V words len <= 2            7  ok',
        'cayley-graph           ladders n in {2,3}          2  ok',
        'twist-laws             V words len <= 2            7  ok',
        'commuting-square       eps, LL, LR                 3  ok',
        'folding-certificates   V words len <= 2            7  ok',
        'all checks passed',
        '',
    ])


def test_outputs_do_not_depend_on_thread_count(capsys):
    one = run_cli(capsys, ['verify-all', '--max-len', '3'])
    four = run_cli(capsys, ['verify-all', '--max-len', '3', '--threads', '4'])
    assert one == four


def test_repeated_runs_are_identical(capsys):
    first = run_cli(capsys, ['conjectures', '--id', '6.4', '--n', '1',
                             '--format', 'json'])
    second = run_cli(capsys, ['conjectures', '--id', '6.4', '--n', '1',
                              '--format', 'json'])
    assert first == second
    assert json.loads(first[1])['matches'] is True
