"""The package's value classes against frozen-dataclass twins.

Every value class derives from ``exact.Record``.  Each test builds, from the
class's own fields, the ``@dataclass(frozen=True)`` the class would be
declared as, and compares the two on sample instances: equality, hash,
repr, ordering, immutability and the constructor's signature.  Copying
and pickling rebuild a value through its constructor.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import itertools
import pickle
from fractions import Fraction as F

import algebra
import holonomic
import pytest
from algebra import OrdAtLeast, Poly

from rodpade import audit, criterion, determinant, exact, heights, logpow, mpl, transform
from rodpade.exact import Record


def _samples():
    """Per class: instances, with the first two equal but built separately."""
    config = mpl.MplConfig(1, 2, (1,))
    tables = [mpl.pade_table(config, 1), mpl.pade_table(config, 1), mpl.pade_table(config, 2)]
    idx = mpl.index_set(2, 2)
    row = audit.AuditRow("norm[0]", F(1, 2), F(3))
    return {
        OrdAtLeast: [OrdAtLeast(3), OrdAtLeast(3), OrdAtLeast(4)],
        transform.PadeCell: [tables[0].cells[1], tables[1].cells[1], tables[0].cells[0]],
        transform.PadeTable: tables,
        mpl.MplConfig: [config, mpl.MplConfig(m=1, r=2, alphas=[F(1)]), mpl.MplConfig(2, 1, (1, -2))],
        mpl.MplIndex: [idx[3], mpl.MplIndex(idx[3].s, idx[3].a), *idx],
        heights.Place: [heights.Place(), heights.Place(None), heights.Place(2), heights.Place(p=3)],
        criterion.VResult: [
            criterion._V(mpl.MplConfig(1, 1, (1,)), F(30), heights.Place())[0],
            criterion._V(mpl.MplConfig(1, 1, (1,)), F(30), heights.Place())[0],
            criterion.VResult(0.5, 1e-15, False),
        ],
        audit.AuditRow: [
            row, audit.AuditRow("norm[0]", F(2, 4), F(3)), audit.AuditRow("q", F(1), F(1))
        ],
        logpow.LogPowConfig: [
            logpow.LogPowConfig(2, 3), logpow.LogPowConfig(m=2, n=3), logpow.LogPowConfig(3, 2)
        ],
        algebra.PropertyP: [
            algebra.PropertyP(True, Poly((1, 1)), Poly((1,)), None),
            algebra.PropertyP(True, Poly((1, 1)), Poly((1,)), None),
            algebra.PropertyP(False, Poly((0, 1)), Poly((0, 1)), 0),
        ],
        holonomic.RecurrenceSystem: [
            holonomic.RecurrenceSystem(1, {0: Poly((1,)), 1: Poly((0, 1))}),
            holonomic.RecurrenceSystem(1, {0: Poly((1,)), 1: Poly((0, 1))}),
            holonomic.RecurrenceSystem(0, {0: Poly((2,))}),
        ],
    }


SAMPLES = _samples()

#: fields a value keeps but leaves out of equality, hash and repr
HIDDEN = {transform.PadeCell: {"heads"}, transform.PadeTable: {"seqs"}}

#: constructor defaults: a value, or a factory that makes a fresh one per instance
DEFAULTS = {heights.Place: {"p": None}, criterion.VResult: {"terms": dict}}


def _twin(cls):
    """The frozen dataclass with cls's fields, hidden ones marked as such."""
    specs = []
    for name in cls.__slots__:
        kwargs = {}
        if name in HIDDEN.get(cls, ()):
            kwargs.update(compare=False, repr=False)
        default = DEFAULTS.get(cls, {}).get(name, dataclasses.MISSING)
        if callable(default):
            kwargs["default_factory"] = default
        elif default is not dataclasses.MISSING:
            kwargs["default"] = default
        specs.append((name, object, dataclasses.field(**kwargs)))
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def _as_twin(twin, value):
    return twin(*(getattr(value, name) for name in value.__slots__))


def _hash(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def test_every_value_class_is_a_record():
    value_classes = {
        obj
        for module in (audit, criterion, determinant, exact, heights, logpow, mpl, transform, algebra, holonomic)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
    }
    assert value_classes == set(SAMPLES)
    assert len(SAMPLES) == 11


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_matches_its_dataclass_twin(cls):
    twin = _twin(cls)
    values = SAMPLES[cls]
    twins = [_as_twin(twin, v) for v in values]
    assert values[0] == values[1] and values[0] is not values[1]
    assert values[0] != values[-1]
    for (a, ta), (b, tb) in itertools.product(zip(values, twins), repeat=2):
        assert (a == b) is (ta == tb)
        assert (a != b) is (ta != tb)
    for value, tw in zip(values, twins):
        assert repr(value) == repr(tw)
        assert _hash(value) == _hash(tw)
        assert value != tw and value != object()
        with pytest.raises(TypeError):
            value < value  # noqa: B015
    # the constructor keeps the dataclass's positional order, keywords and defaults
    ours = inspect.signature(cls).parameters
    theirs = inspect.signature(twin).parameters
    assert [(p.name, p.kind) for p in ours.values()] == [(p.name, p.kind) for p in theirs.values()]
    for name, default in DEFAULTS.get(cls, {}).items():
        if callable(default):
            first, second = (cls(*(getattr(values[0], f) for f in cls.__slots__ if f != name)) for _ in range(2))
            assert getattr(first, name) == default() and getattr(first, name) is not getattr(second, name)
        else:
            assert ours[name].default == default


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_refuses_assignment_and_deletion(cls):
    value = SAMPLES[cls][0]
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_copies_and_pickles(cls):
    for value in SAMPLES[cls]:
        assert copy.copy(value) == value
        fields = tuple(getattr(value, name) for name in cls.__slots__)
        try:
            pickle.dumps(fields)
        except (AttributeError, TypeError, pickle.PicklingError):
            continue  # e.g. a table's moment sequences hold closures and a lock
        assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("cls", [transform.PadeCell, transform.PadeTable], ids=lambda c: c.__name__)
def test_hidden_fields_change_neither_equality_nor_repr(cls):
    value = SAMPLES[cls][0]
    fields = {name: getattr(value, name) for name in cls.__slots__}
    for hidden in HIDDEN[cls]:
        assert getattr(value, hidden)
        bare = cls(**fields | {hidden: type(fields[hidden])()})
        assert bare == value and repr(bare) == repr(value)
        assert f"{hidden}=" not in repr(value)
        assert repr(_as_twin(_twin(cls), bare)) == repr(value)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: mpl.MplConfig(0, 1, ()), "m must be positive, got 0"),
        (lambda: mpl.MplConfig(1, 0, (1,)), "r must be positive, got 0"),
        (lambda: mpl.MplConfig(2, 1, (1,)), "expected 2 alphas, got 1"),
        (lambda: mpl.MplConfig(2, 1, (1, 0)), "alphas must be nonzero"),
        (lambda: mpl.MplConfig(2, 1, (F(1, 2), F(2, 4))), "alphas must be pairwise distinct"),
        (lambda: mpl.MplIndex((), ()), "s and a must be nonempty of equal length"),
        (lambda: mpl.MplIndex((1, 1), (1,)), "s and a must be nonempty of equal length"),
        (lambda: mpl.MplIndex((0,), (1,)), "entries must be positive"),
        (lambda: mpl.MplIndex((1,), (0,)), "entries must be positive"),
        (lambda: heights.Place(4), "4 is not prime"),
        (lambda: heights.Place.parse("p1"), "1 is not prime"),
        pytest.param(lambda: logpow.LogPowConfig(0, 1), "m must be positive, got 0", id="logpow-m"),
        pytest.param(lambda: logpow.LogPowConfig(1, 0), "n must be positive, got 0", id="logpow-n"),
    ],
)
def test_record_validation_raises_value_error(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_mpl_config_normalizes_alphas_to_a_tuple_of_fractions():
    config = mpl.MplConfig(2, 1, [1, "-3/2"])
    assert config.alphas == (F(1), F(-3, 2)) and all(type(a) is F for a in config.alphas)
    assert config == mpl.MplConfig(2, 1, (F(1), F(-3, 2)))
