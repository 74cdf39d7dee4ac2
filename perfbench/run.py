"""End-to-end benchmark of snakeflip on the paper's instances.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in perfbench/workloads.py; BENCHMARK.json names the
metrics.  Every sample is a fresh process (perfbench/sample.py), so caches
start cold as they do for a command-line user.  A run takes whole samples
until ``--seconds`` have been spent, at least one, and never starts a sample
that the previous one says would overrun.  It reports medians over its
samples:

- wall_s: inputs built to verified verdict; cpu_s: process user+sys time over
  the same interval; peak_rss_mb: ru_maxrss of the sample's process;
- setup_s: import of the package plus building the inputs, the median over
  the samples and SETUP_PROBES set-up-only processes.

The inputs are fixed paper instances.  The seed only fixes the order in which
the run interleaves set-up probes with samples, and the order of the
workloads under ``--workload all``.

BENCHMARK.json lists verify-all and regular-count, whose layers together
cover every module.  flipgraph, the only workload through the thread pool,
runs under ``--workload flipgraph`` or ``all``; it is left out of
BENCHMARK.json so that repeated runs of the listed workloads (one sample
each, 24-34 s and 57-81 s on a 2-core 2.1 GHz host) fit in an hour.

With ``--trace 1`` the run takes one traced sample and prints the per-layer
metrics (perfbench/layers.py).

Each run writes a record to perfbench/runs/: Python version, CPU count, git
revision, a digest of the package source, load average at start and end, the
seed, the process order and every sample.  perfbench/baseline/ holds the
records of ``--seed 0`` runs of all workloads, untraced and traced, at the
commit that added the benchmark.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / 'perfbench'
RUNS = HERE / 'runs'
PACKAGE_DIR = ROOT / 'src' / 'snakeflip'
WORKLOADS = ('flipgraph', 'regular-count', 'verify-all')
SETUP_PROBES = 11
# whole run, children included, stays inside the 180 s a run may take
DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """A sample could not be taken; the run prints no result."""


def spawn(workload: str, mode: str, deadline: float, scale: str = 'paper') -> dict:
    """Take one sample in a fresh process and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError('no time left for a %s sample of %s' % (mode, workload))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / 'sample.py'), workload, scale, mode],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError('%s sample of %s passed the deadline' % (mode, workload))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError('%s sample of %s exited with %d' % (mode, workload, proc.returncode))
    return json.loads(lines[-1])


def tally(samples) -> tuple:
    """Checks attempted and failed over the samples."""
    checks = [ok for s in samples for ok in s['checks'].values()]
    return len(checks), sum(1 for ok in checks if not ok)


def measure(workload: str, seconds: float, rng: random.Random, deadline: float):
    """Untraced samples for `seconds`, with set-up probes placed by the seed."""
    samples, probes, order = [], [], []
    spent = last = 0.0
    while not samples or spent + last <= seconds:
        for _ in range(rng.randint(0, SETUP_PROBES - len(probes))):
            probes.append(spawn(workload, 'setup', deadline))
            order.append('setup')
        started = time.perf_counter()
        samples.append(spawn(workload, 'run', deadline))
        order.append('run')
        last = time.perf_counter() - started
        spent += last
    while len(probes) < SETUP_PROBES:
        probes.append(spawn(workload, 'setup', deadline))
        order.append('setup')
    setups = [s['setup_s'] for s in probes + samples]
    metrics = {key: statistics.median(s[key] for s in samples)
               for key in ('wall_s', 'cpu_s', 'peak_rss_mb')}
    metrics['setup_s'] = statistics.median(setups)
    return metrics, samples, probes, order


def _loadavg():
    try:
        return os.getloadavg()
    except OSError:
        return None


def _git_revision():
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / '.git').exists():
        return None
    try:
        proc = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(PACKAGE_DIR.glob('*.py')):
        h.update(path.name.encode() + b'\0' + path.read_bytes())
    return h.hexdigest()


def _select(spec, values: dict) -> dict:
    """The metrics BENCHMARK.json names; a count or time never taken reads 0."""
    out = {}
    for entry in spec:
        name = entry['name']
        value = values.get(name)
        if value is None and name.endswith(('.calls', '.self_s')):
            value = 0
        if value is not None:
            out[name] = {'value': value, 'unit': entry['unit']}
    return out


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 bench: dict, rng: random.Random):
    """Measure one workload, write its run record, return result and process order."""
    deadline = time.monotonic() + DEADLINE_S
    record = {
        'workload': workload, 'seed': seed, 'seconds': seconds, 'trace': int(traced),
        'started_utc': time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime()),
        'python': platform.python_version(), 'nproc': os.cpu_count(),
        'affinity': len(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') else None,
        'git_revision': _git_revision(), 'source_digest': _source_digest(),
        'loadavg_start': _loadavg(),
    }
    if traced:
        samples, probes, order = [spawn(workload, 'trace', deadline)], [], ['trace']
        metrics = _select(bench['per_layer'], samples[0]['layers'])
    else:
        values, samples, probes, order = measure(workload, seconds, rng, deadline)
        metrics = _select(bench['end_to_end'], values)
    attempted, failed = tally(samples)
    result = {'correct': failed == 0, 'attempted': attempted, 'failed': failed,
              'metrics': metrics}
    record.update({'loadavg_end': _loadavg(), 'order': order, 'samples': samples,
                   'setup_probes': probes, 'result': result})
    RUNS.mkdir(exist_ok=True)
    name = '%s-t%d-s%d-%s-%d.json' % (workload, int(traced), seed,
                                      time.strftime('%Y%m%dT%H%M%S'), os.getpid())
    (RUNS / name).write_text(json.dumps(record, indent=1, sort_keys=True) + '\n')
    return result, order


def report(workload: str, result: dict, order) -> None:
    """Print the metrics, the process counts behind the medians and failed_frac."""
    processes = ', '.join('%d %s' % (order.count(kind), kind)
                          for kind in ('run', 'trace', 'setup') if kind in order)
    print('%s (%s): %d of %d checks failed, failed_frac %g'
          % (workload, processes, result['failed'], result['attempted'],
             result['failed'] / result['attempted']))
    for name, metric in result['metrics'].items():
        print('  %-44s %14.6g %s' % (name, metric['value'], metric['unit']))


def main(argv=None) -> int:
    bench = json.loads((ROOT / 'BENCHMARK.json').read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', choices=WORKLOADS + ('all',), default='all')
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=bench['run_seconds'])
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / '__init__.py').is_file():
        print('run.py: no package source at %s' % PACKAGE_DIR, file=sys.stderr)
        return 2
    # compiled once here, so that no sample's set-up pays for the bytecode
    if not compileall.compile_dir(str(PACKAGE_DIR), quiet=1):
        print('run.py: the package does not compile', file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    workloads = [args.workload] if args.workload != 'all' else rng.sample(WORKLOADS, len(WORKLOADS))
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), bench, rng)
    except HarnessError as exc:
        print('run.py: %s' % exc, file=sys.stderr)
        return 3
    for workload in WORKLOADS:
        if workload in results:
            report(workload, *results[workload])
    if len(results) == 1:
        final = results[args.workload][0]
    else:
        parts = {w: result for w, (result, _) in results.items()}
        final = {
            'correct': all(r['correct'] for r in parts.values()),
            'attempted': sum(r['attempted'] for r in parts.values()),
            'failed': sum(r['failed'] for r in parts.values()),
            'metrics': {'%s.%s' % (w, name): metric for w, r in parts.items()
                        for name, metric in r['metrics'].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == '__main__':
    sys.exit(main())
