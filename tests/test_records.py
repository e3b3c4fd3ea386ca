"""The value records: immutable tuples whose constructor runs every guard.

Each validated record checks and normalizes its fields in __new__, so a
record built by position, by keyword, or again by pickle or copy has passed
the same checks; the pure records (GqftReport, TrotterReport) only hold
values.  repr keeps the ``Name(field=value, ...)`` form.
"""
import copy
import math
import pickle
import re

import numpy as np
import pytest

from cliffsim.circuits import GateCircuit, TwoLevelGate
from cliffsim.clifford import Blade, PauliString
from cliffsim.cqp import Activation, PerceptronConfig, TrainingSample
from cliffsim.gqft import GqftParams, GqftReport
from cliffsim.simulator import ShotTally
from cliffsim.trotter import HamiltonianTerm, TrotterReport

X = np.array([[0, 1], [1, 0]], dtype=complex)
_AXES = [[[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]]
_GATE = TwoLevelGate(2, 0, 1, X)

# type: (good arguments, equal arguments, in another spelling where the record
# normalizes one, bad arguments or None, the error the bad ones raise)
RECORDS = {
    PauliString: ((2, ("X", "Z")), (2, ("X", "Z")), (2, ("X", "Q")),
                  (ValueError, "invalid Pauli letters: ['Q']")),
    Blade: ((2, (0, 1)), (2, [0, 1]), (2, (1, 0)),
            (ValueError, "indices must be strictly ascending, got (1, 0)")),
    PerceptronConfig: ((1, 1, Activation.TANH, 0.1), (1, np.int64(1), Activation.TANH, 0.1),
                       (1, 2, Activation.TANH, 0.1),
                       (ValueError, "output_index 2 out of range 0..1")),
    TrainingSample: (([0.5, 0.25], 0.7), ((0.5, 0.25), 0.7), (["x"], 0.7),
                     (ValueError, "could not convert string to float: 'x'")),
    GqftParams: ((1, 0.5, np.array(_AXES)), (1, 0.5, _AXES), (2, 0.5, _AXES),
                 (ValueError, "axes must have shape (2, 2, 3), got (1, 2, 3)")),
    GqftReport: ((1, 0.5, 0.0, 1e-16, 0.25, 2.0), (1, 0.5, 0.0, 1e-16, 0.25, 2.0), None, None),
    ShotTally: ((10, 3, 7, False), (10, 3, 7, False), (10, 11, 7, False),
                (ValueError, "zero_count 11 out of range 0..10")),
    HamiltonianTerm: ((0.5, Blade(1, (0,))), (0.5, Blade(1, [0])), (math.nan, Blade(1, (0,))),
                      (ValueError, "coefficient must be finite, got nan")),
    TrotterReport: ((10, 1.0, 1e-3, 0.5, 0.25, 0.125, 1), (10, 1.0, 1e-3, 0.5, 0.25, 0.125, 1),
                    None, None),
    TwoLevelGate: ((2, 0, 1, X), (np.int64(2), np.uint8(0), 1, X.tolist()), (2, 1, 0, X),
                   (ValueError, "need 0 <= i < j < dim, got i=1, j=0, dim=2")),
    GateCircuit: ((1, (_GATE,)), (1, (_GATE,)), (2, (_GATE,)),
                  (ValueError, "gate dimension 2 is not 2^2")),
}
# these hold arrays, so == compares them elementwise and hash fails, as it did
# when the records were dataclasses
_HOLDS_AN_ARRAY = {TrainingSample, GqftParams, TwoLevelGate, GateCircuit}


def _dataclass_repr(record):
    """The repr dataclasses generate: Name(field=value!r, ...)."""
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record))
    return f"{type(record).__name__}({fields})"


def _same(a, b):
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_position_and_keyword_construction_run_the_same_guards(cls):
    good, other, bad, (error, message) = (*RECORDS[cls][:3], RECORDS[cls][3] or (None, None))
    by_position = cls(*good)
    assert _same(by_position, cls(**dict(zip(cls._fields, good))))
    assert _same(by_position, cls(*other))
    assert _same(by_position, cls(**dict(zip(cls._fields, other))))
    if bad is not None:
        for build in (lambda: cls(*bad), lambda: cls(**dict(zip(cls._fields, bad)))):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                build()


def test_two_level_gate_checks_its_integers_in_field_order():
    with pytest.raises(TypeError, match="^i must be an int, not a bool$"):
        TwoLevelGate(2, True, 1, X)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        TwoLevelGate(2.0, True, 1, X)  # dim, the first field, fails first


def test_normalized_fields():
    assert type(Blade(2, [0, 1]).indices) is tuple
    assert type(PerceptronConfig(1, np.int64(1)).output_index) is int
    assert PerceptronConfig(1) == PerceptronConfig(1, 0, Activation.TANH, 0.1)
    assert ShotTally(10, 3, 7) == ShotTally(10, 3, 7, False)
    sample = TrainingSample([1, 2], 0.7)
    assert sample.input_coeffs.dtype == float
    block = TwoLevelGate(2, 0, 1, X.tolist()).block
    assert isinstance(block, np.ndarray) and block.dtype == complex
    params = GqftParams(1, 0.5, _AXES)
    assert isinstance(params.axes, np.ndarray) and params.axes.dtype == float


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_and_slotted(cls):
    record = cls(*RECORDS[cls][0])
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", [c for c in RECORDS if c not in _HOLDS_AN_ARRAY],
                         ids=lambda cls: cls.__name__)
def test_equality_is_by_value(cls):
    good, other = RECORDS[cls][:2]
    assert cls(*good) == cls(*other)
    assert hash(cls(*good)) == hash(cls(*other))


def test_records_with_other_values_differ():
    assert Blade(2, [0, 1]) != Blade(2, (0, 2))
    assert PauliString(1, ("X",)) != PauliString(1, ("Y",))
    assert PerceptronConfig(1) != PerceptronConfig(1, eta=0.2)
    assert ShotTally(10, 3, 7) != ShotTally(10, 3, 7, True)
    assert HamiltonianTerm(0.5, Blade(1, (0,))) != HamiltonianTerm(0.5, Blade(1, (1,)))
    assert GateCircuit(1, (_GATE,)) != GateCircuit(1, ())


def test_repr_is_unchanged():
    assert repr(Blade(2, [0, 1])) == "Blade(n=2, indices=(0, 1))"
    assert repr(PauliString(2, ("X", "Z"))) == "PauliString(n=2, letters=('X', 'Z'))"
    assert repr(PerceptronConfig(1)) == (
        "PerceptronConfig(n=1, output_index=0, activation=<Activation.TANH: 'tanh'>, eta=0.1)")
    assert repr(ShotTally(10, 3, 7)) == "ShotTally(shots=10, zero_count=3, seed=7, clamped=False)"
    assert repr(HamiltonianTerm(0.5, Blade(1, (0,)))) == (
        "HamiltonianTerm(coeff=0.5, blade=Blade(n=1, indices=(0,)))")
    assert repr(TrainingSample([0.5], 0.7)) == (
        "TrainingSample(input_coeffs=array([0.5]), target_angle=0.7)")
    for cls, (good, *_) in RECORDS.items():
        record = cls(*good)
        assert repr(record) == _dataclass_repr(record)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("round_trip", [lambda r: pickle.loads(pickle.dumps(r)),
                                        copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_construct_again(cls, round_trip):
    good, _, bad, (error, message) = (*RECORDS[cls][:3], RECORDS[cls][3] or (None, None))
    record = cls(*good)
    assert _same(round_trip(record), record)
    if bad is not None:
        # _make skips __new__, so only a round trip through __new__ can reject this one
        unchecked = cls._make(bad)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            round_trip(unchecked)
