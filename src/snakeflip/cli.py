"""Command-line surface: construction, enumeration, verification, export."""
from __future__ import annotations

import argparse
import json
import sys
from time import monotonic
from typing import NamedTuple, Optional, Tuple

from . import checks
from .circuits import CircuitError, all_circuits
from .exact import BudgetError
from .flips import (FlipError, canonical_of, explore_flip_graph,
                    triangulation_hash)
from .polytope import PolytopeError, is_unimodular
from .regularity import (RegularityError, conjecture_suite, height_function,
                         is_regular, verify_local_folding)
from .posets import (PosetError, adjoin_bounds, build_snake_poset, filter_lattice,
                     meet_irreducibles)
from .twists import (TwistError, all_twists, compose_twists, elementary_twist,
                     identity_twist, twist_triangulation)
from .volumes import VolumeError, volume_recursive
from .words import SnakeWord, WordError, parse_word

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    """Raised for bad flags, config-file keys, or argument values."""


class RunConfig(NamedTuple):
    """One resolved invocation: command, inputs, budgets, output."""

    command: str
    word: Optional[SnakeWord] = None
    conjecture: Optional[str] = None
    n: Optional[int] = None
    twist: Optional[Tuple[int, ...]] = None
    node: Optional[str] = None
    budget_nodes: int = 100000
    max_depth: Optional[int] = None
    time_budget: Optional[float] = None
    budget_steps: int = 2_000_000
    exhaustive: Optional[bool] = None
    max_len: int = 5
    format: str = 'text'
    output: Optional[str] = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_FORMATS = {
    'poset': ('text', 'json'),
    'volume': ('text', 'json'),
    'circuits': ('text', 'json'),
    'triangulate': ('text', 'json'),
    'flipgraph': ('text', 'json', 'dot'),
    'twist': ('text', 'json'),
    'regularity': ('text', 'json'),
    'conjectures': ('text', 'json'),
    'verify-all': ('text', 'json'),
}

def build_parser() -> _Parser:
    """Argument parser for the snakeflip command."""
    parser = _Parser(prog='snakeflip', description=__doc__)
    sub = parser.add_subparsers(dest='command', metavar='command')

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text, add_help=True)
        p.error = parser.error
        p.add_argument('--config', help='key=value file; flags override it')
        p.add_argument('--format', choices=_FORMATS[name], default=None)
        p.add_argument('--output', default=None, help='write the artifact here')
        return p

    def add_word(p, required=False):
        p.add_argument('--word', default=None, required=required,
                       help="letters L/R; 'eps' for the empty word")

    def add_budgets(p):
        p.add_argument('--budget-nodes', type=int, default=None)
        p.add_argument('--max-depth', type=int, default=None)
        p.add_argument('--time-budget', type=float, default=None,
                       help='seconds; checked between search levels')

    add_word(add('poset', 'poset, meet-irreducibles, ladder count'))
    add_word(add('volume', 'normalized volume of the order polytope'))
    add_word(add('circuits', 'oriented circuits of the vertex configuration'))
    add_word(add('triangulate', 'canonical triangulation'))
    p = add('flipgraph', 'breadth-first flip-graph exploration')
    add_word(p)
    add_budgets(p)
    p = add('twist', 'twist group, or one twist applied to the canonical')
    add_word(p)
    p.add_argument('--twist', default=None, help='ladder indices, e.g. 1,3')
    p = add('regularity', 'regularity certificate for a triangulation')
    add_word(p)
    p.add_argument('--twist', default=None, help='ladder indices, e.g. 1,3')
    p.add_argument('--node', default=None, help='hash prefix within the component')
    add_budgets(p)
    p = add('conjectures', 'experiment runner')
    add_word(p)
    p.add_argument('--id', dest='conjecture', default=None,
                   help='experiment id: 6.1, 6.2, 6.3, or 6.4')
    p.add_argument('--n', type=int, default=None)
    p.add_argument('--budget-nodes', type=int, default=None)
    p.add_argument('--budget-steps', type=int, default=None)
    p.add_argument('--time-budget', type=float, default=None,
                   help='seconds; checked between flip-search levels')
    p.add_argument('--exhaustive', action=argparse.BooleanOptionalAction, default=None)
    p = add('verify-all', 'run every theorem check and print a summary table')
    p.add_argument('--max-len', type=int, default=None)
    # ignored; kept only because perfbench/workloads.py passes it (ROADMAP item 3 deletes it)
    p.add_argument('--threads', type=int, default=None)
    return parser


def _parse_config_file(path: str, parser: _Parser, ns: argparse.Namespace) -> dict:
    """The file's key=value lines, each parsed by the subcommand's own flag.

    A key is a long flag name of the subcommand, with dashes or underscores
    (id for --id); --config and any flag the subcommand lacks are unknown
    keys.  Boolean flags take true or false.
    """
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError('cannot read config file: %s' % exc)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split('#', 1)[0].strip()
        if not line:
            continue
        if '=' not in line:
            raise UsageError('%s:%d: expected key=value' % (path, lineno))
        key, _, value = line.partition('=')
        key = key.strip().replace('-', '_')
        value = value.strip()
        dest = 'conjecture' if key == 'id' else key
        if key in ('command', 'config', 'conjecture') or not hasattr(ns, dest):
            raise UsageError('%s:%d: unknown key %r' % (path, lineno, key))
        flag = '--' + key.replace('_', '-')
        candidates = ['%s=%s' % (flag, value)]
        if value.lower() in ('true', 'false'):
            # a boolean flag takes no value: true is --flag, false is --no-flag
            candidates.append(flag if value.lower() == 'true' else '--no-' + flag[2:])
        for arg in candidates:
            try:
                values[dest] = getattr(parser.parse_args([ns.command, arg]), dest)
                break
            except UsageError:
                continue
        else:
            raise UsageError('%s:%d: bad value %r for %s' % (path, lineno, value, key))
    return values


def _parse_mask(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(','))
    except ValueError:
        raise UsageError('twist mask must be comma-separated integers, got %r' % text)


def parse(argv) -> RunConfig:
    """Resolve argv and an optional config file."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        raise UsageError('a command is required')
    file_values = _parse_config_file(ns.config, parser, ns) if ns.config else {}

    def pick(key, default=None):
        flag = getattr(ns, key, None)
        if flag is not None:
            return flag
        if key in file_values:
            return file_values[key]
        return default

    if pick('threads', 1) < 1:
        raise UsageError('threads must be positive')

    word_text = pick('word')
    try:
        word = parse_word(word_text) if word_text is not None else None
    except WordError as exc:
        raise UsageError(str(exc))
    mask_value = pick('twist')
    mask = _parse_mask(mask_value) if isinstance(mask_value, str) else mask_value
    config = RunConfig(
        command=ns.command,
        word=word,
        conjecture=pick('conjecture'),
        n=pick('n'),
        twist=mask,
        node=pick('node'),
        budget_nodes=pick('budget_nodes', 100000),
        max_depth=pick('max_depth'),
        time_budget=pick('time_budget'),
        budget_steps=pick('budget_steps', 2_000_000),
        exhaustive=pick('exhaustive'),
        max_len=pick('max_len', 5),
        format=pick('format', 'text'),
        output=pick('output'),
    )
    for name in ('budget_nodes', 'budget_steps', 'max_len'):
        if getattr(config, name) < 0:
            raise UsageError('%s must be nonnegative' % name)
    if config.max_depth is not None and config.max_depth < 0:
        raise UsageError('max_depth must be nonnegative')
    if config.time_budget is not None and config.time_budget <= 0:
        raise UsageError('time_budget must be positive')
    return config


def _emit(config: RunConfig, text: str) -> None:
    data = text if text.endswith('\n') else text + '\n'
    if config.output:
        try:
            with open(config.output, 'w') as fh:
                fh.write(data)
        except OSError as exc:
            raise UsageError('cannot write output file: %s' % exc)
    else:
        sys.stdout.write(data)


def _emit_json(config: RunConfig, payload: dict) -> None:
    payload = dict(payload)
    payload['schema_version'] = SCHEMA_VERSION
    _emit(config, json.dumps(payload, indent=2, sort_keys=True))


def _require_word(config: RunConfig) -> SnakeWord:
    if config.word is None:
        raise UsageError('%s requires --word' % config.command)
    return config.word


def _twist_of(w: SnakeWord, mask: Tuple[int, ...]):
    tau = identity_twist(w)
    try:
        for i in mask:
            tau = compose_twists(tau, elementary_twist(w, i))
    except TwistError as exc:
        raise UsageError(str(exc))
    return tau


def _deadline(config: RunConfig) -> Optional[float]:
    if config.time_budget is None:
        return None
    return monotonic() + config.time_budget


def _cmd_poset(config: RunConfig) -> int:
    w = _require_word(config)
    phat = adjoin_bounds(build_snake_poset(w))
    q = meet_irreducibles(phat)
    vertices = len(filter_lattice(q).filters)
    ladders = max(1, len(w.runs()))
    if config.format == 'json':
        _emit_json(config, {
            'word': str(w),
            'phat': {'size': phat.size, 'covers': [list(c) for c in phat.covers]},
            'meet_irreducible': {'size': q.size, 'covers': [list(c) for c in q.covers]},
            'ladders': ladders,
            'vertices': vertices,
        })
    else:
        lines = [
            'word %s' % (str(w) or 'eps'),
            'phat size %d' % phat.size,
            'meet-irreducible size %d' % q.size,
            'ladders %d' % ladders,
            'vertices %d' % vertices,
        ]
        _emit(config, '\n'.join(lines))
    return EXIT_OK


def _cmd_volume(config: RunConfig) -> int:
    w = _require_word(config)
    volume = volume_recursive(w)
    if config.format == 'json':
        _emit_json(config, {'word': str(w), 'volume': volume})
    else:
        _emit(config, str(volume))
    return EXIT_OK


def _cmd_circuits(config: RunConfig) -> int:
    w = _require_word(config)
    circuits = all_circuits(w)
    if config.format == 'json':
        _emit_json(config, {
            'word': str(w),
            'count': len(circuits),
            'circuits': [{'plus': list(z.plus), 'minus': list(z.minus)}
                         for z in circuits],
        })
    else:
        lines = ['%d circuits' % len(circuits)]
        lines += ['+%s -%s' % (','.join(map(str, z.plus)), ','.join(map(str, z.minus)))
                  for z in circuits]
        _emit(config, '\n'.join(lines))
    return EXIT_OK


def _cmd_triangulate(config: RunConfig) -> int:
    w = _require_word(config)
    tri = canonical_of(w)
    digest = triangulation_hash(tri)
    unimodular = is_unimodular(tri)
    if config.format == 'json':
        _emit_json(config, {
            'word': str(w),
            'hash': digest,
            'simplex_count': len(tri.simplices),
            'simplices': [list(s) for s in tri.simplices],
            'unimodular': unimodular,
        })
    else:
        lines = ['hash %s' % digest,
                 'simplices %d' % len(tri.simplices),
                 'unimodular %s' % ('yes' if unimodular else 'no')]
        lines += [' '.join(map(str, s)) for s in tri.simplices]
        _emit(config, '\n'.join(lines))
    return EXIT_VERIFICATION if not unimodular else EXIT_OK


def _node_names(hashes):
    # prefixes stay stable across runs because they come from content hashes
    k = 12
    while len({h[:k] for h in hashes}) < len(hashes):
        k += 4
    return [h[:k] for h in hashes]


def _cmd_flipgraph(config: RunConfig) -> int:
    w = _require_word(config)
    graph = explore_flip_graph(canonical_of(w), all_circuits(w),
                               budget=config.budget_nodes, max_depth=config.max_depth,
                               deadline=_deadline(config))
    hashes = [triangulation_hash(t) for t in graph.nodes]
    if config.format == 'json':
        _emit_json(config, {
            'word': str(w),
            'node_count': len(graph.nodes),
            'edge_count': len(graph.edges),
            'partial': graph.partial,
            'nodes': hashes,
            'edges': [[a, b] for a, b, _ in graph.edges],
            'depths': list(graph.depths),
        })
    elif config.format == 'dot':
        names = _node_names(hashes)
        lines = ['graph flipgraph {']
        lines += ['  "%s";' % name for name in names]
        lines += ['  "%s" -- "%s";' % (names[a], names[b]) for a, b, _ in graph.edges]
        lines.append('}')
        _emit(config, '\n'.join(lines))
    else:
        lines = ['nodes %d' % len(graph.nodes),
                 'edges %d' % len(graph.edges),
                 'partial %s' % ('yes' if graph.partial else 'no')]
        _emit(config, '\n'.join(lines))
    return EXIT_BUDGET if graph.partial else EXIT_OK


def _cmd_twist(config: RunConfig) -> int:
    w = _require_word(config)
    if config.twist is None:
        twists = all_twists(w)
        if config.format == 'json':
            _emit_json(config, {
                'word': str(w),
                'ladders': max(1, len(w.runs())),
                'order': len(twists),
                'twists': [{'mask': sorted(t.ladder_mask),
                            'column_permutation': list(t.column_permutation)}
                           for t in twists],
            })
        else:
            lines = ['%d twists' % len(twists)]
            lines += ['mask %s perm %s'
                      % (','.join(map(str, sorted(t.ladder_mask))) or '-',
                         ' '.join(map(str, t.column_permutation)))
                      for t in twists]
            _emit(config, '\n'.join(lines))
        return EXIT_OK
    tau = _twist_of(w, config.twist)
    image = twist_triangulation(tau, canonical_of(w))
    payload = {
        'word': str(w),
        'mask': sorted(tau.ladder_mask),
        'column_permutation': list(tau.column_permutation),
        'valid': image.valid,
        'hash': triangulation_hash(image.triangulation),
        'simplices': [list(s) for s in image.triangulation.simplices],
    }
    if config.format == 'json':
        _emit_json(config, payload)
    else:
        lines = ['mask %s' % (','.join(map(str, payload['mask'])) or '-'),
                 'valid %s' % ('yes' if image.valid else 'no'),
                 'hash %s' % payload['hash']]
        lines += [' '.join(map(str, s)) for s in image.triangulation.simplices]
        _emit(config, '\n'.join(lines))
    return EXIT_OK if image.valid else EXIT_VERIFICATION


def _cmd_regularity(config: RunConfig) -> int:
    w = _require_word(config)
    tau = _twist_of(w, config.twist) if config.twist is not None else None
    circuits = all_circuits(w)
    if config.node is not None:
        graph = explore_flip_graph(canonical_of(w), circuits,
                                   budget=config.budget_nodes, max_depth=config.max_depth,
                                   deadline=_deadline(config))
        matches = [t for t in graph.nodes
                   if triangulation_hash(t).startswith(config.node)]
        if not matches:
            raise UsageError('no explored node has hash prefix %r' % config.node)
        if len(matches) > 1:
            raise UsageError('hash prefix %r is ambiguous' % config.node)
        tri = matches[0]
        certificate = None
    else:
        tri = canonical_of(w)
        certificate = True
    if tau is not None:
        image = twist_triangulation(tau, tri)
        if not image.valid:
            _emit(config, 'twist image is not a triangulation')
            return EXIT_VERIFICATION
        tri = image.triangulation
    folding = None
    if certificate is not None:
        folding = verify_local_folding(tri, height_function(w, tau))
    result = is_regular(tri, circuits, verify=True)
    payload = {
        'word': str(w),
        'mask': sorted(tau.ladder_mask) if tau is not None else [],
        'node': triangulation_hash(tri),
        'regular': result.regular,
        'slack': str(result.slack) if result.slack is not None else None,
        'constraints': result.constraints,
        'heights': [str(h) for h in result.heights.heights] if result.regular else None,
        'certificate': None if folding is None else
        {'verdict': folding.verdict, 'walls': len(folding.walls)},
    }
    if config.format == 'json':
        _emit_json(config, payload)
    else:
        lines = ['node %s' % payload['node'],
                 'regular %s' % ('yes' if result.regular else 'no')]
        if result.regular:
            lines.append('slack %s' % payload['slack'])
        if folding is not None:
            lines.append('certificate %s (%d walls)'
                         % ('yes' if folding.verdict else 'NO', len(folding.walls)))
        _emit(config, '\n'.join(lines))
    if folding is not None and not folding.verdict:
        return EXIT_VERIFICATION
    return EXIT_OK


def _flatten(prefix: str, value, out):
    if isinstance(value, dict):
        for key, inner in value.items():
            _flatten('%s%s.' % (prefix, key) if prefix else key + '.', inner, out)
        return
    out.append('%s %s' % (prefix.rstrip('.'), value))


def _cmd_conjectures(config: RunConfig) -> int:
    if config.conjecture is None:
        raise UsageError('conjectures requires --id')
    report = conjecture_suite(config.conjecture, word=config.word, n=config.n,
                              budget_nodes=config.budget_nodes, exhaustive=config.exhaustive,
                              budget_steps=config.budget_steps, deadline=_deadline(config))
    payload = report._asdict()
    exhaustive = payload.get('exhaustive')
    if exhaustive is not None:
        payload['exhaustive'] = exhaustive._asdict()
    payload['id'] = config.conjecture
    if 'word' in payload:
        payload['word'] = str(payload['word'])
    if config.format == 'json':
        _emit_json(config, payload)
    else:
        lines = []
        _flatten('', payload, lines)
        _emit(config, '\n'.join(sorted(lines)))
    truncated = exhaustive is not None and not exhaustive.complete
    return EXIT_BUDGET if getattr(report, 'partial', False) or truncated else EXIT_OK


def _cmd_verify_all(config: RunConfig) -> int:
    max_len = config.max_len
    squares = [w for w in map(parse_word, ('', 'LL', 'LR')) if len(w) <= max_len]
    results = [
        checks.volume_agreement(min(max_len, 8)),
        checks.circuit_bijection(min(max_len, 6)),
        checks.flip_counts(max_len),
        checks.cayley_graphs([n for n in (2, 3, 4) if n - 1 <= max_len]),
        checks.twist_laws(max_len),
        checks.commuting_squares(squares),
        checks.folding_certificates(max_len),
    ]
    passed = all(r.ok for r in results)
    if config.format == 'json':
        _emit_json(config, {
            'max_len': max_len,
            'checks': [{'name': r.name, 'scope': r.scope, 'cases': r.cases, 'ok': r.ok}
                       for r in results],
            'passed': passed,
        })
    else:
        lines = ['%-22s %-22s %6s  %s' % ('check', 'scope', 'cases', 'status')]
        for r in results:
            lines.append('%-22s %-22s %6d  %s'
                         % (r.name, r.scope, r.cases, 'ok' if r.ok else 'FAIL'))
        lines.append('all checks passed' if passed else 'FAILED')
        _emit(config, '\n'.join(lines))
    return EXIT_OK if passed else EXIT_VERIFICATION


_COMMANDS = {
    'poset': _cmd_poset,
    'volume': _cmd_volume,
    'circuits': _cmd_circuits,
    'triangulate': _cmd_triangulate,
    'flipgraph': _cmd_flipgraph,
    'twist': _cmd_twist,
    'regularity': _cmd_regularity,
    'conjectures': _cmd_conjectures,
    'verify-all': _cmd_verify_all,
}


def run(config: RunConfig) -> int:
    """Execute one resolved invocation and return its exit code."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise UsageError('unknown command %r' % config.command)
    return handler(config)


def main(argv=None) -> int:
    """Console entry point."""
    try:
        config = parse(sys.argv[1:] if argv is None else argv)
        return run(config)
    except UsageError as exc:
        print('snakeflip: %s' % exc, file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print('snakeflip: %s' % exc, file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print('snakeflip: out of memory', file=sys.stderr)
        return EXIT_BUDGET
    except (WordError, TwistError, RegularityError, PolytopeError, FlipError,
            CircuitError, PosetError, VolumeError) as exc:
        print('snakeflip: %s' % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == '__main__':
    sys.exit(main())
