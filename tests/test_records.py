"""The package's record classes: equality, hashing, immutability and the
rules their constructors enforce."""

import pytest

from kitealg.axioms import PerfectSplit, StateTable
from kitealg.cli import RunConfig
from kitealg.ideals import IdealSet, OrbitReport
from kitealg.kite import LOWER, KiteElement, KiteShape
from kitealg.pogroup import Elem, Integers, PositiveCone, StrictCone2, Window
from kitealg.representations import IntervalPEA, MapSpec
from kitealg.riesz import RefinementTable
from kitealg.verdict import Status, Tally, Verdict, holds

Z = Integers()
SHAPE = KiteShape(1, (0,), (0,), Z)

# name: (build, build with one field changed, frozen)
RECORDS = {
    "Verdict": (lambda: Verdict(Status.FAILS, 3, 0, (("x", 1),), "r"),
                lambda: Verdict(Status.FAILS, 4, 0, (("x", 1),), "r"), True),
    "Tally": (lambda: Tally(2, 1, {"a": 1}), lambda: Tally(2, 1, {"b": 1}),
              False),
    "Window": (lambda: Window(2, 5), lambda: Window(2), True),
    "Elem": (lambda: Elem(Z, 3), lambda: Elem(Z, -3), True),
    "PositiveCone": (lambda: PositiveCone(Integers()),
                     lambda: PositiveCone(StrictCone2()), True),
    "IntervalPEA": (lambda: IntervalPEA(Z, Z.make(2)),
                    lambda: IntervalPEA(Z, Z.make(1)), True),
    "PerfectSplit": (lambda: PerfectSplit((1,), (2,)),
                     lambda: PerfectSplit((2,), (1,)), True),
    "StateTable": (lambda: StateTable({1: 0}), lambda: StateTable({1: 1}),
                   False),
    "IdealSet": (lambda: IdealSet((1, 2), (2,), {"sums": True}),
                 lambda: IdealSet((1, 2), (2,), {"sums": False}), False),
    "OrbitReport": (lambda: OrbitReport((1, 0), ((0, 1),), True),
                    lambda: OrbitReport((0, 1), ((0,), (1,)), False), True),
    "KiteShape": (lambda: KiteShape(1, [0], [0], Integers()),
                  lambda: KiteShape(0, (), (), Z), True),
    "KiteElement": (lambda: KiteElement(SHAPE, LOWER, (1,)),
                    lambda: KiteElement(SHAPE, LOWER, (2,)), True),
    "MapSpec": (lambda: MapSpec([1, 0], (0, 1)),
                lambda: MapSpec((1, 0), (0, 1), True), True),
    "RefinementTable": (lambda: RefinementTable(1, 2, 3, 4, note="n"),
                        lambda: RefinementTable(1, 2, 3, 4), False),
    "RunConfig": (lambda: RunConfig(), lambda: RunConfig(height=3), False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_equality_hash_and_immutability(name):
    build, build_changed, frozen = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != build_changed() and build_changed() != a
    if frozen:
        assert hash(a) == hash(b)
        for field in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, field, None)
            with pytest.raises(AttributeError):
                delattr(a, field)
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_unequal_to_every_other_record_class(name):
    a = RECORDS[name][0]()
    for other_name, (build, _, _) in RECORDS.items():
        if other_name != name:
            b = build()
            assert a.__eq__(b) is NotImplemented
            assert a != b and not a == b


def test_interval_pea_is_not_its_positive_cone():
    cone, interval = PositiveCone(Z), IntervalPEA(Z, Z.make(1))
    assert cone != interval and interval != cone
    assert (interval.zero, interval.is_lattice) == (cone.zero, cone.is_lattice)


def test_holds_with_skips_is_demoted_to_unknown():
    for v in (Verdict(Status.HOLDS, checked=3, skipped=1),
              holds(3, skipped=1)):
        assert (v.status, v.checked, v.skipped) == (Status.UNKNOWN, 3, 1)
    assert holds(3).status is Status.HOLDS
    assert Verdict(Status.FAILS, skipped=1).status is Status.FAILS


def test_constructors_normalise_index_tables_to_tuples():
    shape = KiteShape(2, [1, 0], [0, 1], Z)
    assert (shape.lam, shape.rho) == ((1, 0), (0, 1))
    assert hash(shape) == hash(KiteShape(2, (1, 0), (0, 1), Z))
    with pytest.raises(ValueError):
        KiteShape(2, (0, 0), (0, 1), Z)
    spec = MapSpec([1, 0], [0, 1])
    assert (spec.tau_lower, spec.tau_upper, spec.invert) == ((1, 0), (0, 1),
                                                              False)


def test_mutable_records_start_with_fresh_containers():
    assert Tally().notes is not Tally().notes
    assert StateTable().values is not StateTable().values
    assert IdealSet((), ()).closed_flags is not IdealSet((), ()).closed_flags
    a, b = RunConfig(), RunConfig()
    assert a.shape == b.shape and a.shape is not b.shape


def test_run_config_replace_changes_only_the_named_fields():
    cfg = RunConfig(height=3, checks=("axioms",))
    cell = cfg.replace(group="strictcone2", height=1)
    assert (cell.group, cell.height, cell.checks) == ("strictcone2", 1,
                                                      ("axioms",))
    assert (cfg.group, cfg.height) == ("z", 3)
    assert list(cfg.echo()) == [f for f in RunConfig._fields if f != "out"]
