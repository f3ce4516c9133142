"""The plain value classes that replaced the package's dataclasses: the same
construction, equality, hashing, class patterns and immutability."""

import copy
import pickle

import numpy as np
import pytest

from rmfruled.cli import JobConfig
from rmfruled.curve import CurveDef
from rmfruled.expr import BinOp, Jet3, Num, Var, parse
from rmfruled.frame import AdaptedFrame, RotationMinimizing
from rmfruled.record import fields
from rmfruled.ruled import ClassificationReport


def test_positional_keyword_and_default_construction():
    assert Jet3(2.0) == Jet3(2.0, 0.0, 0.0, 0.0) == Jet3(value=2.0)
    assert RotationMinimizing().theta0 == 0.0
    rep = ClassificationReport("yes", 0.0, "general", {}, [], 0.0, 1e-7, 1e-5, n_s=5)
    assert (rep.base_curve, rep.n_s, rep.n_v, rep.skipped_samples) == (None, 5, 0, ())
    with pytest.raises(TypeError, match="missing field 'theta'"):
        AdaptedFrame(1, 2, 3)
    with pytest.raises(TypeError):
        Num(1.0, 2.0)
    with pytest.raises(TypeError):
        Num(1.0, value=2.0)
    with pytest.raises(TypeError):
        Num(val=1.0)


def test_validation_runs_on_construction():
    with pytest.raises(ValueError, match="t_min must be < t_max"):
        CurveDef(Var(), Var(), Var(), 1.0, 1.0)


def test_value_equality_hash_and_class_patterns():
    tree = parse("s + 2")
    assert tree == BinOp("+", Var(), Num(2.0)) and tree != BinOp("-", Var(), Num(2.0))
    assert Num(1.0) != Jet3(1.0)
    assert len({parse("s*s"), parse("s * s"), Var()}) == 2
    match tree:
        case BinOp(op, Var(), Num(v)):
            assert (op, v) == ("+", 2.0)
        case _:
            pytest.fail("positional class pattern did not match")
    assert repr(tree) == "BinOp(op='+', left=Var(), right=Num(value=2.0))"


def test_fields_in_order_and_none_for_other_objects():
    assert list(fields(Jet3(1.0, 2.0))) == ["value", "d1", "d2", "d3"]
    assert fields((1.0,)) is None and fields(None) is None


def test_records_are_immutable_except_job_config():
    with pytest.raises(AttributeError):
        Num(1.0).value = 2.0
    job = JobConfig(None, 11, 5, 1e-7, 1e-9, 1e-5, None, None, "csv", {})
    job.n_s = 21
    assert job.n_s == 21
    with pytest.raises(TypeError):
        hash(job)


def test_copy_and_pickle_round_trip():
    tree = parse("sin(s)^2 - 1/3")
    assert copy.deepcopy(tree) == tree == pickle.loads(pickle.dumps(tree))
    frame = pickle.loads(pickle.dumps(AdaptedFrame(np.eye(3), 1, 2, 0.5, 0.0)))
    assert np.array_equal(frame.T, np.eye(3)) and frame.theta == 0.5
