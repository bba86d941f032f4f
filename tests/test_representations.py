"""Interval algebras, map specifications, and isomorphism verification."""

import json

import pytest

from kitealg import perms
from kitealg.kite import Kite, KiteShape
from kitealg.pogroup import (
    CapabilityError,
    Integers,
    StrictCone2,
    TwistedLexGroup,
    UsageError,
    Window,
    integer_product,
)
from kitealg.representations import (
    IntervalPEA,
    MapSpec,
    mapspec_family,
    perfect_representation,
    scrimger_fixture,
    stored_mapspec,
    twisted_lex_group,
    verify_iso,
)
from kitealg.verdict import Status

Z = Integers()


def mk(n, lam, rho, base=None):
    return Kite(KiteShape(n, tuple(lam), tuple(rho), base or Z))


# -- interval algebras -------------------------------------------------------------


def test_integer_chain_carrier():
    P = IntervalPEA(Z, Z.make(2))
    # the elements are raw values of the group
    assert P.elements(Window(3)) == [0, 1, 2]
    assert P.add(1, 1) == 2
    assert P.add(2, 1) is None
    assert P.complement_left(1) == 1


def test_unit_square_is_boolean():
    g = integer_product(2)
    P = IntervalPEA(g, g.make((1, 1)))
    els = P.elements(Window(2))
    assert set(els) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    a = (1, 0)
    assert P.complement_left(a) == (0, 1)
    assert P.add(a, a) is None


def test_unit_must_be_strictly_positive():
    with pytest.raises(UsageError):
        IntervalPEA(Z, Z.make(0))
    with pytest.raises(UsageError):
        IntervalPEA(Z, Z.make(-1))


def test_lex_interval_algebra_shape():
    g = TwistedLexGroup(1, (0,), (0,), Z)
    P = IntervalPEA(g, g.make((1, (0,))))
    els = P.elements(Window(2))
    levels = {x[0] for x in els}
    assert levels == {0, 1}
    assert P.complement_left((0, (2,))) == (1, (-2,))
    assert P.add((1, (-1,)), (1, (0,))) is None


def test_interval_mv_oplus_needs_a_lattice_group():
    g = TwistedLexGroup(1, (0,), (0,), StrictCone2())
    P = IntervalPEA(g, g.strong_unit())
    # the sum and the unit lie on different lex levels, where the group
    # could still order them; the capability is refused anyway
    with pytest.raises(CapabilityError):
        P.mv_oplus(P.zero, P.zero)


def test_interval_pea_wrapper_is_enumerable():
    P = IntervalPEA(Z, Z.make(2))
    assert P.zero == 0
    assert P.one == 2


# -- twisted lex witness groups ------------------------------------------------------


def test_twisted_lex_group_builder_validates():
    g = twisted_lex_group(2, (0, 1), (1, 0), Z)
    assert g.n == 2
    with pytest.raises(UsageError):
        twisted_lex_group(3, (1, 0, 2), (0, 2, 1), Z)


# -- map specifications ----------------------------------------------------------------


def test_mapspec_json_roundtrip():
    spec = MapSpec(tau_lower=(1, 0), tau_upper=(0, 1), invert=False)
    blob = json.dumps(spec.as_json())
    back = MapSpec.from_json(json.loads(blob))
    assert back.tau_lower == spec.tau_lower
    assert back.tau_upper == spec.tau_upper
    assert back.invert == spec.invert
    # a map is its JSON: equal JSON, equal maps
    assert back == spec
    for m in mapspec_family(KiteShape(3, (1, 2, 0), (0, 1, 2), Z)):
        assert MapSpec.from_json(m.as_json()) == m


def test_mapspec_validation():
    with pytest.raises(UsageError):
        MapSpec(tau_lower=(0, 0), tau_upper=(0, 1))


def test_mapspec_family_contains_standard_maps():
    shape = KiteShape(3, (1, 2, 0), (0, 1, 2), Z)
    fam = mapspec_family(shape)
    pairs = {(m.tau_lower, m.tau_upper) for m in fam}
    ident = tuple(perms.identity(3))
    assert (ident, ident) in pairs
    assert any(m.invert for m in fam)
    assert len(fam) == len({(m.tau_lower, m.tau_upper, m.invert) for m in fam})


def test_stored_mapspec_registry():
    spec = stored_mapspec("scrimger:2")
    assert spec is not None
    assert spec.as_json() == {"tauL": [1, 0], "tauU": [0, 1], "invert": False}
    assert stored_mapspec("missing:99") is None
    # the stored perfect map is the family's first candidate, the identity
    swap = KiteShape(2, (1, 0), (1, 0), Z)
    assert stored_mapspec("perfect:2:(0 1)") == mapspec_family(swap)[0]


# -- isomorphism verification -----------------------------------------------------------


def test_trivial_kite_is_the_two_chain():
    k = mk(0, (), ())
    target = IntervalPEA(Z, Z.make(1))
    spec = MapSpec(tau_lower=(), tau_upper=())
    v = verify_iso(k, target, spec, Window(2))
    assert v.ok, v.describe()
    assert v.skipped == 0


def test_one_coordinate_kite_matches_lex_interval():
    k = mk(1, (0,), (0,))
    g = twisted_lex_group(1, (0,), (0,), Z)
    target = IntervalPEA(g, g.strong_unit())
    spec = MapSpec(tau_lower=(0,), tau_upper=(0,))
    v = verify_iso(k, target, spec, Window(2))
    assert v.ok, v.describe()
    assert v.skipped == 0


def test_same_orientation_identity_map_verifies():
    shape = KiteShape(2, (0, 1), (1, 0), Z)
    k = Kite(shape)
    g = twisted_lex_group(2, (0, 1), (1, 0), Z)
    target = IntervalPEA(g, g.strong_unit())
    spec = MapSpec(tau_lower=(0, 1), tau_upper=(0, 1))
    v = verify_iso(k, target, spec, Window(1))
    assert v.ok, v.describe()


@pytest.mark.parametrize("n", [2, 3])
def test_cyclic_fixture_replays(n):
    shape, group, spec = scrimger_fixture(n)
    P = Kite(shape)
    Q = IntervalPEA(group, group.strong_unit())
    v = verify_iso(P, Q, spec, Window(1))
    assert v.ok, v.describe()
    assert v.skipped == 0


def test_cyclic_fixture_wrong_orientation_fails():
    # same carrier sizes, but reading the map through the unreflected
    # indexing breaks the mixed addition equations
    shape, group, _ = scrimger_fixture(2)
    P = Kite(shape)
    Q = IntervalPEA(group, group.strong_unit())
    bad = MapSpec(tau_lower=(0, 1), tau_upper=(0, 1))
    v = verify_iso(P, Q, bad, Window(1))
    assert v.status is Status.FAILS


def test_iso_into_an_interval_target_builds_no_elem(elems_built):
    k = mk(2, (1, 0), (1, 0))
    target, spec, v = perfect_representation(k, Window(1))
    assert v.ok and v.checked > 0
    elems_built.clear()
    # MapSpec.apply hands back the target group's raw values
    assert verify_iso(k, target, spec, Window(1)) == v
    assert elems_built == []


def test_shifted_image_fails():
    k = mk(0, (), ())
    target = IntervalPEA(Z, Z.make(1))

    def shifted(x):
        return 0

    v = verify_iso(k, target, shifted, Window(1))
    assert v.status is Status.FAILS


def test_relabel_map_and_inverse_verify():
    a = KiteShape(3, (1, 2, 0), (0, 1, 2), Z)
    from kitealg.ideals import canonical_form
    b, relabel = canonical_form(a)
    P, Q = Kite(a), Kite(b)
    assert verify_iso(P, Q, relabel, Window(1)).ok
    assert verify_iso(Q, P, relabel.inverse(), Window(1)).ok


# -- perfect representations ---------------------------------------------------------------


def test_perfect_representation_same_direction():
    k = mk(2, (1, 0), (1, 0))
    target, spec, v = perfect_representation(k, Window(1))
    assert v.ok, v.describe()
    assert target.group.lam == (1, 0)
    assert spec.as_json()["invert"] is False


def test_perfect_representation_requires_symmetry():
    with pytest.raises(UsageError):
        perfect_representation(mk(2, (0, 1), (1, 0)), Window(1))


def test_perfect_representation_requires_a_lattice_base():
    with pytest.raises(UsageError, match="lattice"):
        perfect_representation(mk(1, (0,), (0,), StrictCone2()), Window(1))
