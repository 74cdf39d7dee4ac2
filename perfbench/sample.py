"""One benchmark sample in a fresh process: import, set up, run, check.

Usage: python3 perfbench/sample.py WORKLOAD {paper,toy} {run,trace,setup}

``setup`` stops after building the inputs; ``trace`` also records spans.
The last line of stdout is one JSON object.  The package is imported from the
``src`` directory next to this benchmark, never from an installed copy.
"""
from __future__ import annotations

import importlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

from layers import COUNT_UNDER, RESULT_COUNTERS, cache_gauges, derive
from spans import Recorder
from workloads import MODULES, PACKAGE, SCALES

SRC = Path(__file__).resolve().parent.parent / 'src'


def sample(name: str, scale: str, mode: str) -> dict:
    workload = SCALES[scale][name]
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    modules = {short: importlib.import_module('%s.%s' % (PACKAGE, short))
               for short in MODULES}
    origin = Path(modules['words'].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit('%s was imported from %s, not from %s' % (PACKAGE, origin, SRC))
    recorder = None
    if mode == 'trace':
        recorder = Recorder(COUNT_UNDER, RESULT_COUNTERS)
        recorder.install(modules.values(), PACKAGE)
    m = SimpleNamespace(**modules)
    inputs = workload.setup(m)
    ready, ready_cpu = perf_counter(), process_time()
    out = {'mode': mode, 'setup_s': ready - start}
    if mode == 'setup':
        return out
    error = None
    try:
        checks = workload.checks(workload.run(m, inputs))
    except Exception:  # a raised exception fails every check of the sample
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        checks = workload.checks({})
    done, done_cpu = perf_counter(), process_time()
    out.update({
        'wall_s': done - ready,
        'cpu_s': done_cpu - ready_cpu,
        'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        'checks': dict(checks),
        'error': error,
    })
    if recorder is not None:
        out['layers'] = derive(recorder.summary(), cache_gauges(modules), done - start)
    return out


if __name__ == '__main__':
    print(json.dumps(sample(*sys.argv[1:])))
