"""Tests for the command-line interface."""
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


def test_conjecture_budget_exhaustion(capsys):
    code, out, _ = run_cli(capsys,
                           ['conjectures', '--id', '6.1', '--word', 'LR',
                            '--budget-nodes', '2'])
    assert code == EXIT_BUDGET
    assert 'partial True' in out


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


def test_threads_from_environment(capsys, monkeypatch):
    monkeypatch.setenv('SNAKEFLIP_THREADS', '4')
    assert parse(['flipgraph', '--word', 'L']).threads == 4
    monkeypatch.setenv('SNAKEFLIP_THREADS', 'x')
    code, _, err = run_cli(capsys, ['volume', '--word', 'L'])
    assert code == EXIT_USAGE
    assert 'SNAKEFLIP_THREADS' in err


def test_output_goes_to_file(capsys, tmp_path):
    path = tmp_path / 'out.json'
    code, out, _ = run_cli(capsys,
                           ['volume', '--word', 'LL', '--format', 'json',
                            '--output', str(path)])
    assert code == EXIT_OK
    assert out == ''
    assert json.loads(path.read_text())['volume'] == 14


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, ['verify-all', '--max-len', '2'])
    assert code == EXIT_OK
    assert out.strip().endswith('all checks passed')
    assert 'FAIL' not in out


def test_outputs_do_not_depend_on_thread_count(capsys):
    first = run_cli(capsys, ['flipgraph', '--word', 'LR', '--format', 'json'])
    second = run_cli(capsys, ['flipgraph', '--word', 'LR', '--format', 'json',
                              '--threads', '4'])
    assert first == second
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
