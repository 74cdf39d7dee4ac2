"""The package's record types: which are dataclasses, and what being a tuple means."""
import dataclasses
import importlib
import inspect
import pkgutil

import snakeflip
from snakeflip.circuits import Circuit
from snakeflip.regularity import (CanonicalDualCountReport, FoldingReport, RegularityResult,
                                  count_canonical_dual_graphs)
from snakeflip.twists import CommutingSquareReport, TwistImage

# each dataclass costs about 1 ms of import time; these four need what a
# NamedTuple lacks: validation and __len__ (SnakeWord), a column __getitem__
# (HeightFunction), and a __dict__ for cached_property (the other two)
DATACLASSES = {'SnakeWord', 'HeightFunction', 'PointConfiguration', 'WordContext'}


def _package_classes():
    for info in pkgutil.iter_modules(snakeflip.__path__):
        if info.name == '__main__':
            continue
        module = importlib.import_module('snakeflip.' + info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield name, cls


def test_only_four_classes_are_dataclasses():
    found = {name for name, cls in _package_classes() if dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES


def test_records_are_tuples_of_their_fields():
    records = [cls for _, cls in _package_classes()
               if issubclass(cls, tuple) and not cls.__name__.startswith('_')]
    assert len(records) == 25
    z = Circuit.make((2, 0), (1,))
    assert z == ((0, 2), (1,)) and hash(z) == hash(((0, 2), (1,)))
    assert z._replace(minus=(3,)) == Circuit((0, 2), (3,))
    assert z._asdict() == {'plus': (0, 2), 'minus': (1,)}


def test_bool_keeps_its_meaning_on_records():
    assert not RegularityResult(False, None, None, 0)
    assert RegularityResult(True, None, None, 0)
    assert not FoldingReport((), False, 0) and FoldingReport((), True, None)
    assert not CommutingSquareReport(None, 0, 0, 0, (('a', (), 'b'),))
    assert CommutingSquareReport(None, 0, 0, 0, ())
    # a TwistImage is true whatever its verdict, as it was as a dataclass
    assert TwistImage(None, False)


def test_count_field_shadows_tuple_count():
    report = count_canonical_dual_graphs(3)
    assert isinstance(report, CanonicalDualCountReport)
    assert report.count == 12 and report._asdict()['count'] == 12
