"""Per-layer metrics of the traced run, derived from spans and cache gauges.

A layer is a module of the package.  Every public function yields
``<module>.<function>.calls`` and ``<module>.<function>.self_s``; the metrics
below add the ratios of useful work to attempts and the cache gauges.  A ratio
whose base is zero reads 0.
"""
from __future__ import annotations

from spans import TRACER_S

SEARCH = 'flips.explore_flip_graph'
REGULAR = 'regularity.is_regular'

# calls of the key made inside the value are counted as '<key>@<value>'
COUNT_UNDER = {
    'flips.apply_flip': SEARCH,
    'exact.kernel_vector': REGULAR,
}

RESULT_COUNTERS = {
    SEARCH: lambda graph: ('explored_nodes', len(graph.nodes)),
    REGULAR: lambda result: ('regularity_constraints', result.constraints),
}

# metric prefix -> (module, attribute) of an lru_cache'd function; a gauge
# whose function is gone is left out, so moving a cache breaks nothing
GAUGES = {
    'circuits.word_context': ('circuits', 'word_context'),
    'polytope.simplex_volume': ('polytope', '_simplex_volume_cached'),
    'polytope.expected_normalized_volume': ('polytope', 'expected_normalized_volume'),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def cache_gauges(modules) -> dict:
    """Hit ratio and entry count of each cache, read through cache_info()."""
    out = {}
    for prefix, (module, attribute) in GAUGES.items():
        fn = getattr(modules[module], attribute, None)
        info = getattr(fn, 'cache_info', None) or getattr(
            getattr(fn, '__wrapped__', None), 'cache_info', None)
        if info is None:
            continue
        stats = info()
        out[prefix + '.cache_hit_ratio'] = _ratio(stats.hits, stats.hits + stats.misses)
        out[prefix + '.cache_entries'] = stats.currsize
    return out


def derive(summary: dict, gauges: dict, elapsed: float) -> dict:
    """All per-layer metric values of one traced sample that took elapsed s.

    trace.overhead_frac is the wrappers' own time over the rest of the sample,
    that is traced time over the untraced time it estimates, minus one.
    """
    functions = summary['functions']
    counters = summary['counters']
    out = {}
    for name, entry in sorted(functions.items()):
        out[name + '.calls'] = entry['calls']
        out[name + '.self_s'] = entry['self_s']

    def calls(name):
        return functions.get(name, {}).get('calls', 0)

    explored = counters.get('explored_nodes', 0)
    new_nodes = explored - calls(SEARCH)
    out['flips.apply_flip.new_node_ratio'] = _ratio(
        new_nodes, counters.get('flips.apply_flip@' + SEARCH, 0))
    out['regularity.is_regular.rows_per_kernel'] = _ratio(
        counters.get('regularity_constraints', 0),
        counters.get('exact.kernel_vector@' + REGULAR, 0))
    out['regularity.orbit_ratio'] = _ratio(calls(REGULAR), explored)
    out['trace.spans'] = sum(entry['calls'] for entry in functions.values())
    tracer = counters.get(TRACER_S, 0.0)
    out['trace.overhead_frac'] = _ratio(tracer, elapsed - tracer)
    out.update(gauges)
    return out
