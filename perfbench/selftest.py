"""Self-test of the benchmark harness at toy sizes; runs in seconds.

Run from the repository root:  python3 perfbench/selftest.py

Covers the self-time arithmetic, span nesting across threads, the pinned-value
gate, and the predicted zero counts of the traced run on toy workloads
(flipgraph on LR, regular-count at n=1, verify-all --max-len 2).
"""
from __future__ import annotations

import json
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

from run import ROOT, spawn, tally
from spans import Recorder, covered
from workloads import TOY

TOY_REGULAR_ORBITS = 5


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_covered() -> None:
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert abs(covered([(-1.0, 0.5), (0.25, 0.75), (0.9, 2.0)], 0.0, 1.0) - 0.85) < 1e-12
    assert covered([(0.0, 1.0), (0.0, 1.0)], 0.0, 1.0) == 1.0


def _fake_module():
    mod = types.ModuleType('fake.mod')

    def inner(seconds):
        _busy(seconds)
        return seconds

    def outer(k):
        _busy(0.01)
        return [mod.inner(0.005) for _ in range(k)]

    def pooled(k):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda _: mod.inner(0.005), range(k)))

    for fn in (inner, outer, pooled):
        fn.__module__ = 'fake.mod'
        setattr(mod, fn.__name__, fn)
    return mod


def test_nesting() -> None:
    mod = _fake_module()
    original = mod.outer
    recorder = Recorder({'mod.inner': 'mod.pooled'},
                        {'mod.outer': lambda result: ('outer_items', len(result))})
    recorder.install([mod], 'fake')
    assert mod.outer is not original
    started = time.perf_counter()
    mod.outer(4)
    elapsed = time.perf_counter() - started
    mod.pooled(6)
    recorder.uninstall()
    assert mod.outer is original
    summary = recorder.summary()
    fns, counters = summary['functions'], summary['counters']
    assert fns['mod.inner']['calls'] == 10
    assert fns['mod.outer']['calls'] == 1 and fns['mod.pooled']['calls'] == 1
    # outer's self time is its own 10 ms, not its children's 20 ms
    outer_self = fns['mod.outer']['self_s']
    assert 0.009 < outer_self < 0.02, outer_self
    # single-threaded self times add up to the outer span
    assert fns['mod.outer']['self_s'] + 4 * 0.005 <= elapsed + 1e-3
    # pool threads are adopted by the submitting span, so it keeps little self time
    assert fns['mod.pooled']['self_s'] < 0.01, fns['mod.pooled']
    assert counters['mod.inner@mod.pooled'] == 6
    assert counters['outer_items'] == 4


def test_gate() -> None:
    for name, workload in TOY.items():
        failing = [key for key, ok in workload.checks({}) if not ok]
        assert failing, '%s gate passes an empty result' % name
    good = {'checks': {'a': True, 'b': True}}
    bad = {'checks': {'a': True, 'b': False}}
    assert tally([good, bad]) == (4, 1)


def test_toy_workloads() -> None:
    deadline = time.monotonic() + 120
    derived = set()
    for name in TOY:
        plain = spawn(name, 'run', deadline, scale='toy')
        traced = spawn(name, 'trace', deadline, scale='toy')
        for sample in (plain, traced):
            assert sample['error'] is None, sample['error']
            assert all(sample['checks'].values()), (name, sample['checks'])
            assert sample['wall_s'] > 0 and sample['setup_s'] > 0
        layers = traced['layers']
        derived.update(layers)
        calls = lambda fn: layers.get(fn + '.calls', 0)
        assert calls('circuits.word_context') > 0
        if name != 'verify-all':
            assert calls('polytope.is_triangulation') == 0, name
            assert calls('circuits.circuits_brute') == 0, name
        if name != 'regular-count':
            assert calls('exact.lp_maximize') == 0, name
        if name == 'regular-count':
            assert calls('regularity.is_regular') == TOY_REGULAR_ORBITS
            assert 0 < layers['regularity.orbit_ratio'] < 1
            assert layers['regularity.is_regular.rows_per_kernel'] > 0
        if name == 'flipgraph':
            assert calls('flips.explore_flip_graph') == 1
            assert 0 < layers['flips.apply_flip.new_node_ratio'] <= 1
            assert 0 < layers['polytope.simplex_volume.cache_hit_ratio'] < 1
        if name == 'verify-all':
            assert calls('cli.main') == 1
    # every per-layer metric that is not a plain count or time is produced
    bench = json.loads((ROOT / 'BENCHMARK.json').read_text())
    names = {entry['name'] for entry in bench['per_layer']}
    missing = {n for n in names if not n.endswith(('.calls', '.self_s'))} - derived
    assert not missing, missing


def main() -> int:
    tests = [test_covered, test_nesting, test_gate, test_toy_workloads]
    for test in tests:
        started = time.perf_counter()
        test()
        print('ok  %-20s %.2f s' % (test.__name__, time.perf_counter() - started))
    return 0


if __name__ == '__main__':
    sys.exit(main())
