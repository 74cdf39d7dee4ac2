"""In-memory span recorder for the traced benchmark run.

The recorder wraps functions from outside the program: ``install`` rebinds
every public function of the given modules, at every module that binds it,
to a wrapper that records one span per call.  A span's self time is its
duration minus the part of its interval that its child spans cover.

Parents are tracked per thread.  A span that opens on a thread with no open
span of its own (a pool worker) is adopted by the innermost open span of the
thread that installed the recorder, because that span submitted the work.

Spans are folded into per-function totals as they close, so nothing is
written until ``summary`` is read at the end of the run.  Each wrapper also
times its own bookkeeping, which gives the tracing overhead of the run it is
in without a second, untraced run.
"""
from __future__ import annotations

import functools
import threading
import types
from time import perf_counter

# frame layout: [name, start, parent frame, child intervals]
_NAME, _START, _PARENT, _CHILDREN = range(4)
# counter of the time spent in the wrappers themselves, outside the calls
TRACER_S = 'tracer_s'
_MISSING = object()


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        elif e > run_end:
            run_end = e
    if run_end is not None:
        total += run_end - run_start
    return total


def _is_public_function(name: str, value, package: str) -> bool:
    if name.startswith('_'):
        return False
    if not isinstance(value, (types.FunctionType, functools._lru_cache_wrapper)):
        return False
    return getattr(value, '__module__', '').startswith(package + '.')


class Recorder:
    """Records spans of wrapped functions and keeps per-function totals.

    ``count_under`` maps a span name to an ancestor name; calls of the first
    made inside the second are counted as ``'<name>@<ancestor>'``.
    ``result_counters`` maps a span name to a function of the call's return
    value giving ``(counter, amount)``.
    """

    def __init__(self, count_under=None, result_counters=None):
        self._count_under = dict(count_under or {})
        self._result_counters = dict(result_counters or {})
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._saved = []
        self._owner = self._state()

    def _state(self):
        local = self._local
        try:
            return local.state
        except AttributeError:
            # per thread: open frames, {name: [calls, self_s]}, counters
            local.state = ([], {}, {})
            with self._lock:
                self._threads.append(local.state)
            return local.state

    def wrap(self, fn, name: str):
        """A wrapper of fn that records a span named name per call."""
        under = self._count_under.get(name)
        result_counter = self._result_counters.get(name)
        owner_stack = self._owner[0]
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            stack, table, counters = self._state()
            if stack:
                parent, adopted = stack[-1], False
            else:
                parent = owner_stack[-1] if owner_stack else None
                adopted = parent is not None
            if under is not None:
                frame = parent
                while frame is not None and frame[_NAME] != under:
                    frame = frame[_PARENT]
                if frame is not None:
                    key = name + '@' + under
                    counters[key] = counters.get(key, 0) + 1
            frame = [name, perf_counter(), parent, []]
            stack.append(frame)
            result = _MISSING
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                start = frame[_START]
                children = frame[_CHILDREN]
                own = end - start - (covered(children, start, end) if children else 0.0)
                entry = table.get(name)
                if entry is None:
                    table[name] = [1, own]
                else:
                    entry[0] += 1
                    entry[1] += own
                if parent is not None:
                    if adopted:
                        with lock:
                            parent[_CHILDREN].append((start, end))
                    else:
                        parent[_CHILDREN].append((start, end))
                if result_counter is not None and result is not _MISSING:
                    key, amount = result_counter(result)
                    counters[key] = counters.get(key, 0) + amount
                counters[TRACER_S] = (counters.get(TRACER_S, 0.0) + (start - entered)
                                      + (perf_counter() - end))
            return result

        return traced

    def install(self, modules, package: str) -> None:
        """Rebind the public functions of package found in modules to spans."""
        wrappers = {}
        for module in modules:
            for name, value in list(vars(module).items()):
                if not _is_public_function(name, value, package):
                    continue
                if value not in wrappers:
                    short = value.__module__[len(package) + 1:]
                    wrappers[value] = self.wrap(value, '%s.%s' % (short, value.__name__))
                self._saved.append((module, name, value))
                setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        """Restore every binding that install replaced."""
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    def summary(self):
        """Per-function calls and self time, and the counters, over all threads."""
        table = {}
        counters = {}
        with self._lock:
            states = list(self._threads)
        for _, thread_table, thread_counters in states:
            for name, (calls, own) in thread_table.items():
                entry = table.setdefault(name, {'calls': 0, 'self_s': 0.0})
                entry['calls'] += calls
                entry['self_s'] += own
            for key, amount in thread_counters.items():
                counters[key] = counters.get(key, 0) + amount
        return {'functions': table, 'counters': counters}
