"""Ideal closures, normality, least ideals, canonical shapes, orbit data."""

import itertools

import pytest

from kitealg import perms
from kitealg.axioms import perfect_split
from kitealg.ideals import (
    IdealSet,
    canonical_form,
    ideal_closure,
    is_normal,
    least_normal_ideal,
    least_o_ideal,
    normal_ideal_generated,
    orbits,
)
from kitealg.kite import Kite, KiteShape
from kitealg.pogroup import (
    Integers,
    StrictCone2,
    TwistedLexGroup,
    UsageError,
    Window,
    integer_product,
)
from kitealg.representations import verify_iso
from kitealg.verdict import Status, Tally

Z = Integers()


def mk(n, lam, rho, base=None):
    return Kite(KiteShape(n, tuple(lam), tuple(rho), base or Z))


def kel(kite, obj):
    vals = [kite.base.deserialize(c) for c in obj["coords"]]
    return kite.lower(*vals) if obj["tag"] == "L" else kite.upper(*vals)


# -- closure ---------------------------------------------------------------------


def test_closure_of_zero_is_trivial_and_exhaustive():
    k = mk(2, (0, 1), (0, 1))
    ideal = ideal_closure(k, [k.zero], Window(2))
    assert ideal.elements == (k.zero,)
    assert ideal.closed_flags["exhaustive"]


def test_closure_collects_downsets_and_sums():
    k = mk(2, (0, 1), (0, 1))
    ideal = ideal_closure(k, [k.lower(1, 0)], Window(3))
    assert set(ideal.elements) == {k.lower(i, 0) for i in range(4)}
    # the last sum pokes past the window, so closure is only window-complete
    assert not ideal.closed_flags["exhaustive"]
    assert k.lower(2, 0) in ideal
    assert k.lower(0, 1) not in ideal


def test_closure_rejects_foreign_generators():
    k = mk(1, (0,), (0,))
    with pytest.raises(UsageError):
        ideal_closure(k, [k.lower(9)], Window(2))


# -- normality -------------------------------------------------------------------


def test_plain_closure_is_not_normal_under_twist():
    k = mk(2, (0, 1), (1, 0))
    ideal = ideal_closure(k, [k.lower(1, 0)], Window(2))
    v = is_normal(k, ideal, Window(2))
    assert v.status is Status.FAILS
    w = v.witness_dict()
    missing = kel(k, w["missing"])
    assert missing not in ideal
    assert missing.tag == "L"


def test_generated_ideal_picks_up_twisted_coordinate():
    k = mk(2, (0, 1), (1, 0))
    ideal = normal_ideal_generated(k, k.lower(1, 0), Window(2))
    assert k.lower(0, 1) in ideal
    assert is_normal(k, ideal, Window(2)).ok


def test_generated_ideal_stays_on_axis_without_twist():
    k = mk(2, (0, 1), (0, 1))
    ideal = normal_ideal_generated(k, k.lower(1, 0), Window(2))
    assert k.lower(0, 1) not in ideal
    assert is_normal(k, ideal, Window(2)).ok


def naive_normal_ideal_generated(P, a, w, depth):
    """The generated normal ideal with every member solved in every round:
    the plain loop that the semi-naive rounds must reproduce."""
    sample = P.elements(w)
    universe = set(sample)
    current = ideal_closure(P, [a], w)
    fixpoint = False
    for _ in range(depth):
        members = set(current.elements)
        new = set(members)
        for m in current.elements:
            for t in sample:
                # z + t = t + m and t + z = m + t, each solved when defined
                s = P.add(t, m)
                if s is not None:
                    z = P.ldiff(s, t)
                    if z is not None and z in universe:
                        new.add(z)
                s = P.add(m, t)
                if s is not None:
                    z = P.rdiff(t, s)
                    if z is not None and z in universe:
                        new.add(z)
            for img in (P.complement_left(P.complement_left(m)),
                        P.complement_right(P.complement_right(m))):
                if img in universe:
                    new.add(img)
        if new == members:
            fixpoint = True
            break
        current = ideal_closure(P, sorted(new, key=sample.index), w)
    flags = dict(current.closed_flags, fixpoint=fixpoint)
    return current.elements, (a,), flags


# a base that is not abelian: lam != rho
TWISTED = TwistedLexGroup(2, (0, 1), (1, 0), Z)


def kites(base, n):
    """A kite of every shape over base at n."""
    for lam, rho in itertools.product(perms.all_perms(n), repeat=2):
        yield Kite(KiteShape(n, tuple(lam), tuple(rho), base))


def generator(k, w):
    """The ideals token's generator; zero on the two-element kite."""
    return next((x for x in k.elements(w)
                 if x.tag == "L" and k.dimension(x) == 1), k.zero)


def assert_semi_naive_matches(base, n, windows):
    for k in kites(base, n):
        for w in windows:
            a = generator(k, w)
            for depth in range(1, 5):
                got = normal_ideal_generated(k, a, w, depth=depth)
                want = naive_normal_ideal_generated(k, a, w, depth)
                assert (got.elements, got.generators, got.closed_flags) \
                    == want, (k.shape.label(), w, depth)


@pytest.mark.parametrize("base", [Z, StrictCone2()], ids=["z", "strictcone2"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_semi_naive_rounds_match_the_naive_reference(base, n):
    # with a cap, a member's double complements can fall outside the sample
    assert_semi_naive_matches(base, n, (Window(1), Window(2), Window(1, 5),
                                        Window(2, 10)))


@pytest.mark.parametrize("n", [1, 2])
def test_semi_naive_rounds_match_the_naive_reference_off_abelian_bases(n):
    # every member is solved against every t here: no closed form applies
    assert_semi_naive_matches(TWISTED, n, (Window(1, 10), Window(2, 30)))


def per_instance_is_normal(P, ideal, w):
    """is_normal with both companions of every (x, y) solved by ldiff and
    rdiff: the per-instance loop that the closed forms must reproduce."""
    sample = P.elements(w)
    universe = set(sample)
    index = set(ideal.elements)
    t = Tally()
    ser = P.serialize
    for x in sample:
        for y in ideal.elements:
            for side, s in (("left", P.add(x, y)), ("right", P.add(y, x))):
                if s is None:
                    continue
                z = P.ldiff(s, x) if side == "left" else P.rdiff(x, s)
                if z is None:
                    return t.fail({"x": ser(x), "y": ser(y), "sum": ser(s)},
                                  f"sum has no {side} companion at all")
                if z in index:
                    t.hit()
                elif z in universe:
                    return t.fail(
                        {"x": ser(x), "y": ser(y), "sum": ser(s),
                         "missing": ser(z)},
                        f"{side} companion lies in the window but not the ideal")
                else:
                    t.skip(f"{side} companion outside the window")
    return t.done("both translates agree on every sampled element")


def ideals_to_check(k, w):
    """The generated ideal of the ideals token, and the state kernel, which
    on a kite is the set of all lowers of the window."""
    lowers = tuple(x for x in k.elements(w) if x.tag == "L")
    split = perfect_split(k, w)
    assert split is not None and split.e0 == lowers
    yield "generated", normal_ideal_generated(k, generator(k, w), w)
    yield "kernel", IdealSet(lowers, ())


NORMALITY_WINDOWS = tuple(Window(h, cap) for h in (1, 2)
                          for cap in (None, 5, 10))


@pytest.mark.parametrize("base,n", [
    (base, n) for base in (Z, StrictCone2(), integer_product(2))
    for n in range(4)] + [(TWISTED, 1), (TWISTED, 2)],
    ids=lambda v: v if isinstance(v, int) else v.kind)
def test_closed_form_normality_matches_the_per_instance_solve(base, n):
    for k in kites(base, n):
        for w in NORMALITY_WINDOWS:
            if k.carrier_size(w) > 130:
                continue  # the capped windows cover these at h = 2
            for name, ideal in ideals_to_check(k, w):
                assert is_normal(k, ideal, w) \
                    == per_instance_is_normal(k, ideal, w), \
                    (k.shape.label(), w, name)


def test_companion_outside_the_window_is_a_skip():
    # off an abelian base the companion of a lower member against an upper
    # x conjugates it by x's coordinates and can leave the capped sample
    k = Kite(KiteShape(1, (0,), (0,), TWISTED))
    w = Window(1, 10)
    lowers = IdealSet(tuple(x for x in k.elements(w) if x.tag == "L"), ())
    v = is_normal(k, lowers, w)
    assert (v.status, v.checked, v.skipped, v.reason) == (
        Status.UNKNOWN, 128, 36, "left companion outside the window (18); "
        "right companion outside the window (18)")


def test_whole_lower_set_is_normal():
    k = mk(2, (0, 1), (1, 0))
    lowers = [x for x in k.elements(Window(1)) if x.tag == "L"]
    ideal = ideal_closure(k, lowers, Window(1))
    assert is_normal(k, ideal, Window(1)).ok


# -- orbit data ---------------------------------------------------------------------


def test_orbit_report_connected_cycle():
    rep = orbits(KiteShape(4, (0, 1, 2, 3), (1, 2, 3, 0), Z))
    assert rep.as_json() == {
        "sigma": [1, 2, 3, 0], "cycles": [[0, 1, 2, 3]], "connected": True}


def test_orbit_report_two_transpositions():
    rep = orbits(KiteShape(4, (0, 1, 2, 3), (1, 0, 3, 2), Z))
    assert not rep.connected
    assert rep.cycles == ((0, 1), (2, 3))


# -- least o-ideals -------------------------------------------------------------------


def test_least_o_ideal_table():
    v, least = least_o_ideal(Z)
    assert v.ok and least == "whole-group"
    v, least = least_o_ideal(StrictCone2())
    assert v.ok and least == "whole-group"
    v, least = least_o_ideal(integer_product(2))
    assert v.failed and least is None
    assert v.witness_dict() == {"axis_a": 0, "axis_b": 1}
    v, least = least_o_ideal(integer_product(1))
    assert v.ok and least == "whole-group"
    v, least = least_o_ideal(TwistedLexGroup(2, (0, 1), (1, 0), Z))
    assert v.ok and least == "coordinate-block"
    v, least = least_o_ideal(TwistedLexGroup(2, (0, 1), (0, 1), Z))
    assert v.failed and least is None
    assert v.witness_dict() == {"components": [[0], [1]]}


# -- least normal ideals ----------------------------------------------------------------


def test_least_normal_ideal_connected_cycle():
    k = mk(4, (0, 1, 2, 3), (1, 2, 3, 0))
    v, ideal = least_normal_ideal(k, Window(1))
    assert v.ok, v.describe()
    lowers = [x for x in k.elements(Window(1)) if x.tag == "L"]
    assert set(ideal.elements) == set(lowers)
    assert len(ideal.elements) == 16
    assert is_normal(k, ideal, Window(1)).ok


def test_least_normal_ideal_split_orbits():
    k = mk(4, (0, 1, 2, 3), (1, 0, 3, 2))
    v, witnesses = least_normal_ideal(k, Window(1))
    assert v.status is Status.FAILS
    assert len(witnesses) == 2
    a, b = witnesses
    overlap = set(a.elements) & set(b.elements)
    assert overlap == {k.zero}
    for ideal in witnesses:
        assert is_normal(k, ideal, Window(1)).ok
        assert len(ideal.elements) > 1


def test_least_normal_ideal_degenerate_and_gated():
    v, payload = least_normal_ideal(mk(0, (), ()), Window(1))
    assert v.failed and payload is None
    v, payload = least_normal_ideal(mk(1, (0,), (0,), StrictCone2()), Window(1))
    assert v.status is Status.UNKNOWN and payload is None


# -- canonical form -----------------------------------------------------------------------


def test_canonical_form_golden():
    shape = KiteShape(3, (1, 2, 0), (0, 1, 2), Z)
    new_shape, relabel = canonical_form(shape)
    assert new_shape.lam == (0, 1, 2)
    assert new_shape.rho == (2, 0, 1)
    assert relabel.as_json() == {"tauL": [0, 1, 2], "tauU": [1, 2, 0],
                                 "invert": False}


def test_canonical_form_roundtrips_through_iso():
    shape = KiteShape(3, (1, 2, 0), (0, 1, 2), Z)
    new_shape, relabel = canonical_form(shape)
    P = Kite(shape)
    Q = Kite(new_shape)
    v = verify_iso(P, Q, relabel, Window(1))
    assert v.ok, v.describe()
    assert v.skipped == 0


def test_canonical_form_identity_when_already_reduced():
    shape = KiteShape(2, (0, 1), (1, 0), Z)
    new_shape, relabel = canonical_form(shape)
    assert new_shape.lam == (0, 1)
    assert new_shape.rho == (1, 0)


def test_canonical_form_rejects_disconnected():
    with pytest.raises(UsageError):
        canonical_form(KiteShape(2, (1, 0), (1, 0), Z))


def test_canonical_forms_agree_iff_isomorphic_relabel():
    # same sigma-cycle structure up to relabeling: (0 1) twist at n=2
    a = KiteShape(2, (0, 1), (1, 0), Z)
    b = KiteShape(2, (1, 0), (0, 1), Z)
    ca, _ = canonical_form(a)
    cb, _ = canonical_form(b)
    assert ca.lam == cb.lam and ca.rho == cb.rho
