"""Interval algebras, map specifications, and isomorphism verification."""

import itertools
import json

import pytest

from kitealg import perms, representations
from kitealg.kite import Kite, KiteShape
from kitealg.pogroup import (
    CapabilityError,
    Integers,
    StrictCone2,
    TwistedLexGroup,
    UsageError,
    Window,
    check_group_laws,
    integer_product,
)
from kitealg.representations import (
    IntervalPEA,
    MapSpec,
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
    P = IntervalPEA(Z, 2)
    # the elements are raw values of the group
    assert P.elements(Window(3)) == [0, 1, 2]
    assert P.add(1, 1) == 2
    assert P.add(2, 1) is None
    assert P.complement_left(1) == 1


def test_unit_square_is_boolean():
    g = integer_product(2)
    P = IntervalPEA(g, (1, 1))
    els = P.elements(Window(2))
    assert set(els) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    a = (1, 0)
    assert P.complement_left(a) == (0, 1)
    assert P.add(a, a) is None


def test_unit_must_be_strictly_positive():
    with pytest.raises(UsageError):
        IntervalPEA(Z, 0)
    with pytest.raises(UsageError):
        IntervalPEA(Z, -1)


def test_unit_is_a_checked_raw_value():
    with pytest.raises(UsageError, match="Integers value must be int"):
        IntervalPEA(Z, True)
    # the unit is kept in the group's own form
    assert IntervalPEA(integer_product(2), [1, 1]).unit == (1, 1)


def test_lex_interval_algebra_shape():
    g = TwistedLexGroup(1, (0,), (0,), Z)
    P = IntervalPEA(g, (1, (0,)))
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
    P = IntervalPEA(Z, 2)
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
    spec = MapSpec(tau_lower=(1, 0), tau_upper=(0, 1))
    blob = json.dumps(spec.as_json())
    assert json.loads(blob) == {"tauL": [1, 0], "tauU": [0, 1],
                                "invert": False}
    back = MapSpec.from_json(json.loads(blob))
    assert back.tau_lower == spec.tau_lower
    assert back.tau_upper == spec.tau_upper
    # a map is its two tables: equal JSON, equal maps
    assert back == spec
    three = list(itertools.permutations(range(3)))
    for m in itertools.starmap(MapSpec, itertools.product(three, three)):
        assert MapSpec.from_json(m.as_json()) == m
    # no map inverts its coordinates
    for invert in (True, 0, None):
        with pytest.raises(UsageError):
            MapSpec.from_json({"tauL": [1, 0], "tauU": [0, 1],
                               "invert": invert})


def test_mapspec_validation():
    with pytest.raises(UsageError):
        MapSpec(tau_lower=(0, 0), tau_upper=(0, 1))
    # a bool is an int to Python, but not an index
    with pytest.raises(UsageError):
        MapSpec(tau_lower=(True, False), tau_upper=(0, 1))
    # both tables index the same n coordinates
    with pytest.raises(UsageError):
        MapSpec(tau_lower=(0,), tau_upper=(0, 1))
    # an index table that is not a sequence at all
    with pytest.raises(UsageError):
        MapSpec(5, (0,))


def test_stored_mapspec_registry():
    spec = stored_mapspec("scrimger:2")
    assert spec is not None
    assert spec.as_json() == {"tauL": [1, 0], "tauU": [0, 1], "invert": False}
    assert stored_mapspec("missing:99") is None
    for n in (2, 3, 4):
        assert stored_mapspec(f"scrimger:{n}") == scrimger_fixture(n)[2]
    # the stored perfect map is the identity re-indexing
    assert stored_mapspec("perfect:2:(0 1)") == MapSpec((0, 1), (0, 1))


def test_stored_mapspec_reads_the_registry_once(monkeypatch):
    opened = []
    files = representations.resources.files

    def counting_files(package):
        opened.append(package)
        return files(package)

    monkeypatch.setattr(representations.resources, "files", counting_files)
    representations._registry.cache_clear()
    first = stored_mapspec("scrimger:2")
    assert stored_mapspec("scrimger:2") == first
    assert stored_mapspec("missing:99") is None
    assert opened == ["kitealg"]


# -- isomorphism verification -----------------------------------------------------------


def test_trivial_kite_is_the_two_chain():
    k = mk(0, (), ())
    target = IntervalPEA(Z, 1)
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


def test_iso_into_an_interval_target_maps_to_raw_values():
    k = mk(2, (1, 0), (1, 0))
    target, spec, v = perfect_representation(k, Window(1))
    assert v.ok and v.checked > 0
    assert verify_iso(k, target, spec, Window(1)) == v
    # MapSpec.apply hands back the target group's raw values
    for x in k.elements(Window(1)):
        image = spec.apply(x, target)
        assert target.group.check_value(image) == image


def test_shifted_image_fails():
    # 0 -> 1 and 1 -> 2 is injective, so the first failure is the zero
    k = mk(0, (), ())
    target = IntervalPEA(Z, 2)
    assert target.elements(Window(1)) == [0, 1, 2]
    shifted = {k.zero: 1, k.one: 2}.get
    v = verify_iso(k, target, shifted, Window(1))
    assert v.status is Status.FAILS
    assert v.checked == 2
    assert v.reason == "zero is not preserved"


def test_merged_images_fail():
    k = mk(0, (), ())
    target = IntervalPEA(Z, 1)

    def merged(x):
        return 0

    v = verify_iso(k, target, merged, Window(1))
    assert v.status is Status.FAILS
    assert v.reason == "two elements share an image"


def test_a_target_without_images_is_a_usage_error():
    # an interval of Z^2 is neither a TwistedLex interval nor Z at n = 0
    k = mk(1, (0,), (0,))
    g = integer_product(2)
    target = IntervalPEA(g, (1, 1))
    spec = MapSpec(tau_lower=(0,), tau_upper=(0,))
    with pytest.raises(UsageError, match="maps only into"):
        spec.apply(k.zero, target)
    with pytest.raises(UsageError, match="maps only into"):
        verify_iso(k, target, spec, Window(1))
    with pytest.raises(UsageError, match="no image"):
        verify_iso(k, target, lambda x: None, Window(1))
    # Z takes only the n = 0 kite
    with pytest.raises(UsageError, match="maps only into"):
        spec.apply(k.zero, IntervalPEA(Z, 1))


def test_a_map_spec_of_another_arity_is_a_usage_error():
    k2, k3 = mk(2, (0, 1), (0, 1)), mk(3, (0, 1, 2), (0, 1, 2))
    spec = MapSpec((0, 1), (0, 1))
    g = TwistedLexGroup(2, (0, 1), (0, 1), Z)
    for x, target in ((k3.lower(1, 2, 3), k3), (k2.lower(1, 2), k3),
                      (k3.lower(1, 2, 3), IntervalPEA(g, g.strong_unit()))):
        with pytest.raises(UsageError, match="map spec on 2 coordinates"):
            spec.apply(x, target)
    with pytest.raises(UsageError, match="map spec on 2 coordinates"):
        verify_iso(k3, k3, spec, Window(1))
    assert spec.apply(k2.lower(1, 2), k2) is k2.lower(1, 2)


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


LATTICE_BASES = {"z": Z, "z2": integer_product(2),
                 "lex": TwistedLexGroup(1, (0,), (0,), Z)}


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("base", LATTICE_BASES)
def test_perfect_representation_is_the_identity_map(base, n):
    # every symmetric shape at heights 1 and 2, uncapped; a capped window is
    # a prefix of the uncapped one on both sides, so a capped run checks a
    # subset of these instances and cannot fail. Z^2 and lex at n = 3,
    # height 2 (about 2.1 million pairs each) are left out.
    ident = tuple(range(n))
    for lam, h in itertools.product(itertools.permutations(range(n)), (1, 2)):
        if n == 3 and h == 2 and base != "z":
            continue
        _, spec, v = perfect_representation(
            mk(n, lam, lam, LATTICE_BASES[base]), Window(h))
        assert spec == MapSpec(ident, ident)
        assert v.ok and v.skipped == 0, (lam, h, v.describe())


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("base", LATTICE_BASES)
def test_perfect_representation_targets_satisfy_the_group_laws(base, n):
    # twisted_lex_group checks no law, so the groups it builds are checked
    # here, on a window of height 1 capped at 8
    for lam in itertools.permutations(range(n)):
        target, _, _ = perfect_representation(
            mk(n, lam, lam, LATTICE_BASES[base]), Window(1, 1))
        assert check_group_laws(target.group, Window(1, 8)).ok, lam


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cyclic_fixture_group_satisfies_the_group_laws(n):
    _, group, _ = scrimger_fixture(n)
    assert check_group_laws(group, Window(1, 8)).ok


def test_perfect_representation_requires_symmetry():
    with pytest.raises(UsageError):
        perfect_representation(mk(2, (0, 1), (1, 0)), Window(1))


def test_perfect_representation_requires_a_lattice_base():
    with pytest.raises(UsageError, match="lattice"):
        perfect_representation(mk(1, (0,), (0,), StrictCone2()), Window(1))
