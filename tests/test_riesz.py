"""Splits, interpolants, refinement tables, and the level checkers."""

import itertools

import pytest

from kitealg.kite import Kite, KiteShape
from kitealg.pogroup import Integers, StrictCone2, UsageError, Window
from kitealg.representations import IntervalPEA
from kitealg.riesz import (
    RDP_ORDER,
    RdpLevel,
    _check_rip,
    check_rdp_level,
    find_interpolant,
    find_refinement,
    kite_rdp0_split_constructive,
    kite_refinement_constructive,
    rdp0_split,
)
from kitealg.verdict import Status, Tally

Z = Integers()
SC = StrictCone2()


def mk(n, lam, rho, base=None):
    return Kite(KiteShape(n, tuple(lam), tuple(rho), base or Z))


def kel(kite, obj):
    """Rebuild a kite element from its serialized form."""
    vals = [kite.base.deserialize(c).value for c in obj["coords"]]
    return kite.lower(*vals) if obj["tag"] == "L" else kite.upper(*vals)


def assert_table(kite, tab, a1, a2, b1, b2):
    c11, c12, c21, c22 = tab.cells()
    assert kite.add(c11, c12) == a1
    assert kite.add(c21, c22) == a2
    assert kite.add(c11, c21) == b1
    assert kite.add(c12, c22) == b2


# -- positive cone of the integers ------------------------------------------------


def test_rdp0_split_takes_largest_first_part():
    pair = rdp0_split(Z, Z.make(3), Z.make(2), Z.make(2), Window(3))
    assert pair == (Z.make(2), Z.make(1))


def test_rdp0_split_rejects_bad_instances():
    with pytest.raises(UsageError):
        rdp0_split(Z, Z.make(5), Z.make(2), Z.make(2), Window(3))


def test_find_interpolant_takes_smallest():
    c, exhaustive = find_interpolant(
        Z, Z.make(0), Z.make(1), Z.make(1), Z.make(2), Window(2))
    assert c == Z.make(1)
    assert exhaustive


def test_refinement_table_golden():
    tab = find_refinement(
        Z, Z.make(2), Z.make(1), Z.make(1), Z.make(2), RdpLevel.RDP, Window(3))
    assert [c.value for c in tab.cells()] == [1, 1, 0, 1]


def test_refinement_side_conditions():
    one = Z.make(1)
    tab = find_refinement(Z, one, one, one, one, RdpLevel.RDP2, Window(2))
    assert [c.value for c in tab.cells()] == [1, 0, 0, 1]
    assert tab.side is not None and tab.side.ok


def test_integer_levels_all_hold():
    for lv in RDP_ORDER:
        v = check_rdp_level(Z, lv, Window(2))
        assert v.ok, (lv, v.describe())


# -- the strict cone as the standard negative fixture ------------------------------


def test_strict_cone_interpolation_failure_instance():
    c, exhaustive = find_interpolant(
        SC, SC.make((0, 0)), SC.make((1, -1)), SC.make((2, 1)), SC.make((2, 2)),
        Window(2))
    assert c is None
    assert exhaustive


def test_strict_cone_split_failure_instance():
    pair = rdp0_split(
        SC, SC.make((2, 2)), SC.make((1, 2)), SC.make((2, 1)), Window(3))
    assert pair is None


def test_strict_cone_rdp0_fails_with_replayable_witness():
    v = check_rdp_level(SC, RdpLevel.RDP0, Window(2))
    assert v.status is Status.FAILS
    w = v.witness_dict()
    a, b, c = (SC.deserialize(w[k]) for k in ("a", "b", "c"))
    assert rdp0_split(SC, a, b, c, Window(2)) is None


def test_kite_over_strict_cone_fails_rdp0():
    k = mk(1, (0,), (0,), SC)
    v = check_rdp_level(k, RdpLevel.RDP0, Window(2))
    assert v.status is Status.FAILS
    w = v.witness_dict()
    a, b, c = (kel(k, w[key]) for key in ("a", "b", "c"))
    assert kite_rdp0_split_constructive(k, a, b, c) is None


# -- constructive kite builders ------------------------------------------------------


def test_constructive_table_all_lower():
    k = mk(2, (0, 1), (1, 0))
    a1, a2 = k.lower(2, 0), k.lower(0, 1)
    b1, b2 = k.lower(1, 0), k.lower(1, 1)
    tab = kite_refinement_constructive(k, a1, a2, b1, b2)
    assert tab is not None
    assert_table(k, tab, a1, a2, b1, b2)


def test_constructive_table_mixed_patterns():
    k = mk(2, (0, 1), (1, 0))
    pairs_to_one = [
        (k.upper(-1, 0), k.lower(0, 1)),
        (k.upper(0, -1), k.lower(1, 0)),
        (k.lower(1, 0), k.upper(-1, 0)),
        (k.lower(1, 1), k.upper(-1, -1)),
    ]
    for (x1, x2), (y1, y2) in itertools.product(pairs_to_one, repeat=2):
        assert k.add(x1, x2) == k.one
        tab = kite_refinement_constructive(k, x1, x2, y1, y2)
        assert tab is not None, (x1, x2, y1, y2)
        assert_table(k, tab, x1, x2, y1, y2)


def test_constructive_table_rejects_unequal_sums():
    k = mk(2, (0, 1), (1, 0))
    with pytest.raises(UsageError):
        kite_refinement_constructive(
            k, k.lower(1, 0), k.lower(0, 1), k.lower(2, 0), k.lower(0, 2))


def test_constructive_split_cases():
    k = mk(2, (0, 1), (1, 0))
    cases = [
        (k.lower(1, 1), k.lower(1, 0), k.lower(0, 1)),
        (k.lower(1, 0), k.upper(-1, 0), k.lower(0, 1)),
        (k.upper(-1, -1), k.upper(-1, 0), k.lower(0, 1)),
    ]
    for x, y, z in cases:
        pair = kite_rdp0_split_constructive(k, x, y, z)
        assert pair is not None, (x, y, z)
        y1, z1 = pair
        assert k.leq(y1, y) and k.leq(z1, z)
        assert k.add(y1, z1) == x


def test_constructive_split_covers_window():
    k = mk(2, (1, 0), (1, 0))
    sample = k.elements(Window(1))
    for y, z in itertools.product(sample, repeat=2):
        s = k.add(y, z)
        if s is None:
            continue
        for x in sample:
            if not k.leq(x, s):
                continue
            pair = kite_rdp0_split_constructive(k, x, y, z)
            assert pair is not None, (x, y, z)
            y1, z1 = pair
            assert k.leq(y1, y) and k.leq(z1, z) and k.add(y1, z1) == x


# -- level checks on kites -------------------------------------------------------------


@pytest.mark.parametrize("kite", [
    mk(1, (0,), (0,)),
    mk(2, (0, 1), (1, 0)),
])
def test_integer_kites_hold_all_levels_exactly(kite):
    for lv in RDP_ORDER:
        v = check_rdp_level(kite, lv, Window(1))
        assert v.ok, (lv, v.describe())
        assert v.skipped == 0


def test_levels_respect_strength_order():
    fixtures = [
        mk(1, (0,), (0,)),
        mk(1, (0,), (0,), SC),
        IntervalPEA(Z, Z.make(2)),
    ]
    for f in fixtures:
        ok = [check_rdp_level(f, lv, Window(1)).ok for lv in RDP_ORDER]
        # RDP_ORDER runs weakest to strongest, so ok must be monotone downward
        for weaker, stronger in zip(ok, ok[1:]):
            assert weaker or not stronger


def test_search_agrees_with_constructive_builder():
    k = mk(2, (0, 1), (1, 0))
    sample = k.elements(Window(1))
    sums = {}
    for p1, p2 in itertools.product(sample, repeat=2):
        s = k.add(p1, p2)
        if s is not None:
            sums.setdefault(s, []).append((p1, p2))
    seen = 0
    for pairs in sums.values():
        for (a1, a2), (b1, b2) in itertools.product(pairs, repeat=2):
            tab = kite_refinement_constructive(k, a1, a2, b1, b2)
            assert tab is not None
            assert_table(k, tab, a1, a2, b1, b2)
            found = find_refinement(k, a1, a2, b1, b2, RdpLevel.RDP, Window(1))
            if found is not None:
                assert_table(k, found, a1, a2, b1, b2)
                seen += 1
    assert seen > 0


# -- RIP loop against the plain four-deep search ---------------------------------------


def _rip_reference(ctx, w):
    """The RIP check as a plain loop: one interpolant search per instance."""
    pos = ctx.elements(w)
    t = Tally()
    for a1, a2 in itertools.product(pos, repeat=2):
        for b1 in pos:
            if not (ctx.leq(a1, b1) and ctx.leq(a2, b1)):
                continue
            for b2 in pos:
                if not (ctx.leq(a1, b2) and ctx.leq(a2, b2)):
                    continue
                c, exhaustive = find_interpolant(ctx, a1, a2, b1, b2, w)
                if c is not None:
                    t.hit()
                elif exhaustive:
                    return t.fail(
                        {"a1": ctx.serialize(a1), "a2": ctx.serialize(a2),
                         "b1": ctx.serialize(b1), "b2": ctx.serialize(b2)},
                        "no interpolant")
                else:
                    t.skip("interpolant search window-bounded")
    return t.done("interpolant found for every sampled instance")


class Bowtie:
    """0 below a, b below c, d (plus top): a, b have two minimal upper
    bounds, so RIP fails on an exhaustively enumerated carrier."""

    zero = "0"
    order = "0abcdt"
    below = {"0": set("0abcdt"), "a": set("acdt"), "b": set("bcdt"),
             "c": set("ct"), "d": set("dt"), "t": set("t")}

    def elements(self, w):
        return list(self.order)

    def leq(self, x, y):
        return y in self.below[x]

    def interval(self, x, y, w):
        return [z for z in self.order if self.leq(x, z) and self.leq(z, y)], True

    def serialize(self, x):
        return str(x)


@pytest.mark.parametrize("obj, w, expect", [
    (mk(2, (0, 1), (1, 0)), Window(2), (Status.HOLDS, None, 0)),
    (mk(1, (0,), (0,), SC), Window(2), (Status.UNKNOWN, 1061, 100)),
    (Bowtie(), Window(1), (Status.FAILS, None, 0)),
])
def test_rip_loop_matches_reference(obj, w, expect):
    got = _check_rip(obj, w)
    want = _rip_reference(obj, w)
    assert (got.status, got.checked, got.skipped, got.witness, got.reason) == (
        want.status, want.checked, want.skipped, want.witness, want.reason)
    status, checked, skipped = expect
    assert got.status is status
    assert checked is None or got.checked == checked
    assert got.skipped == skipped


def test_level_parse():
    assert RdpLevel.parse("RDP_1") is RdpLevel.RDP1
    assert RdpLevel.parse("rip") is RdpLevel.RIP
    with pytest.raises(UsageError):
        RdpLevel.parse("bogus")
