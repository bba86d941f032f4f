"""Splits, interpolants, refinement tables, and the level checkers."""

import contextlib
import io
import itertools

import pytest

from kitealg import riesz
from kitealg.cli import main as cli_main
from kitealg.kite import LOWER, UPPER, Kite, KiteElement, KiteShape
from kitealg.pogroup import (Integers, PoGroup, PositiveCone, StrictCone2,
                             TwistedLexGroup, UsageError, Window, cone_window,
                             integer_product, parse_group)
from kitealg.representations import IntervalPEA
from kitealg.riesz import (
    RDP_ORDER,
    RdpLevel,
    RefinementTable,
    _anti,
    _base_refinement,
    _base_split,
    _base_table,
    _check_rip,
    _meet_zero,
    _merge_sides,
    _upper_bound,
    _wide,
    check_com,
    check_rdp_level,
    find_interpolant,
    find_refinement,
    kite_rdp0_split_constructive,
    kite_refinement_constructive,
    rdp0_split,
)
from kitealg.verdict import Status, Tally, holds

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
    pair = rdp0_split(Z, 3, 2, 2, Window(3))
    assert pair == (2, 1)


def test_rdp0_split_rejects_bad_instances():
    with pytest.raises(UsageError):
        rdp0_split(Z, 5, 2, 2, Window(3))


def test_find_interpolant_takes_smallest():
    c, exhaustive = find_interpolant(Z, 0, 1, 1, 2, Window(2))
    assert c == 1
    assert exhaustive


def test_refinement_table_golden():
    args = (2, 1, 1, 2)
    tab, exhaustive = find_refinement(Z, *args, RdpLevel.RDP, Window(3))
    assert tab.cells() == (1, 1, 0, 1)
    # the coverage flag is that of the [0, a1] candidate interval
    assert exhaustive
    assert exhaustive == PositiveCone(Z).interval(0, args[0], Window(3))[1]
    # RIP and RDP0 search plain RDP tables
    for lv in (RdpLevel.RIP, RdpLevel.RDP0):
        assert find_refinement(Z, *args, lv, Window(3)) == (tab, exhaustive)
    # over the strict cone, [0, a1] for an upper a1 is not exhaustive
    k = mk(1, (0,), (0,), SC)
    tab, exhaustive = find_refinement(k, k.one, k.zero, k.zero, k.one,
                                      RdpLevel.RDP, Window(1))
    assert tab is not None
    assert_table(k, tab, k.one, k.zero, k.zero, k.one)
    assert not exhaustive
    assert exhaustive == k.interval(k.zero, k.one, Window(1))[1]


def test_refinement_side_conditions():
    tab, _ = find_refinement(Z, 1, 1, 1, 1, RdpLevel.RDP2, Window(2))
    assert tab.cells() == (1, 0, 0, 1)
    assert tab.side is not None and tab.side.ok


def test_com_is_unknown_when_either_interval_is_incomplete():
    # [0, L(1,0)] is exhaustive and [0, U(-1,0)] is not: every sampled pair
    # commutes, but only a skip keeps the verdict from claiming all of them
    k = Kite(KiteShape(2, (0, 1), (0, 1), Z))
    v = check_com(k, k.lower(1, 0), k.upper(-1, 0), Window(1))
    assert (v.status, v.checked, v.skipped) == (Status.UNKNOWN, 12, 1)
    assert v.reason == "interval coverage incomplete (1)"


def test_positive_cone_differences_stay_in_the_cone():
    cone = PositiveCone(Z)
    assert (cone.rdiff(1, 3), cone.ldiff(3, 1)) == (2, 2)
    assert cone.rdiff(3, 1) is None and cone.ldiff(1, 3) is None
    # so the strict cone has an instance with no refinement table
    v = check_rdp_level(SC, RdpLevel.RDP, Window(2))
    assert (v.status, v.checked) == (Status.FAILS, 31)
    assert v.witness_dict() == {"a1": [1, 1], "a2": [2, 2],
                                "b1": [1, 2], "b2": [2, 1]}


def test_base_cone_check_builds_no_elem(elems_built):
    v = check_rdp_level(SC, RdpLevel.RDP1, Window(2))
    assert v.checked > 0
    assert elems_built == []


@pytest.mark.parametrize("bad", ["1", 1.5, True, Z.make(1)],
                         ids=["str", "float", "bool", "elem"])
def test_bare_group_arguments_are_checked_raw_values(bad):
    # a bare group's arguments come from outside: its check_value refuses
    # anything but its own raw values, an Elem included
    with pytest.raises(UsageError, match="Integers value must be int"):
        find_refinement(Z, bad, 1, 1, 2, RdpLevel.RDP, Window(2))
    with pytest.raises(UsageError, match="Integers value must be int"):
        rdp0_split(Z, 1, bad, 1, Window(2))


def test_integer_levels_all_hold():
    for lv in RDP_ORDER:
        v = check_rdp_level(Z, lv, Window(2))
        assert v.ok, (lv, v.describe())


def test_positive_cone_sample_honours_the_cap():
    assert PositiveCone(Z).elements(Window(3, 2)) == [0, 1]
    capped = check_rdp_level(Z, RdpLevel.RDP, Window(3, 2))
    whole = check_rdp_level(Z, RdpLevel.RDP, Window(3))
    assert capped.ok and whole.ok
    assert (capped.checked, whole.checked) == (6, 44)


@pytest.mark.parametrize("base", [
    "z", "z2", "trivial", TwistedLexGroup(1, (0,), (0,), Integers())],
    ids=["z", "z2", "trivial", "twisted-lex"])
def test_lattice_bases_have_rdp2(base):
    # the ideal and representation checks take is_lattice to mean RDP2
    g = parse_group(base) if isinstance(base, str) else base
    assert g.is_lattice
    v = check_rdp_level(g, RdpLevel.RDP2, Window(1))
    assert v.ok, v.describe()


# -- the strict cone as the standard negative fixture ------------------------------


def test_strict_cone_interpolation_failure_instance():
    c, exhaustive = find_interpolant(
        SC, (0, 0), (1, -1), (2, 1), (2, 2), Window(2))
    assert c is None
    assert exhaustive


def test_strict_cone_split_failure_instance():
    pair = rdp0_split(SC, (2, 2), (1, 2), (2, 1), Window(3))
    assert pair is None


def test_strict_cone_rdp0_fails_with_replayable_witness():
    v = check_rdp_level(SC, RdpLevel.RDP0, Window(2))
    assert v.status is Status.FAILS
    w = v.witness_dict()
    a, b, c = (SC.deserialize(w[k]).value for k in ("a", "b", "c"))
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


@pytest.mark.parametrize("broken", [0, 1, 2, 3])
def test_constructive_table_is_validated_against_each_sum_equation(
        monkeypatch, broken):
    """A base table that meets three of an instance's four sum equations but
    not the one numbered broken is refused. The base is TwistedLex, where
    A = (1, (0, 0)) and B = (0, (1, 0)) do not commute, so the fourth
    equation does not follow from the other three and the equal sums."""
    k = mk(1, (0,), (0,), TwistedLexGroup(2, (0, 1), (1, 0), Z))
    e, a, b = (0, (0, 0)), (1, (0, 0)), (0, (1, 0))
    # (x1, x2, y1, y2) against the table (e, A, B, e); equation 3 is
    # c12 + c22 = y2 and equation 0 is c11 + c12 = x1
    inst = ((a, b, b, (1, (-1, 1))) if broken in (1, 3)
            else ((1, (1, -1)), b, b, a))
    cells = (e, a, b, e)
    if broken in (1, 2):  # the transposed instance and table
        inst = inst[2:] + inst[:2]
        cells = (e, b, a, e)
    x1, x2, y1, y2 = (k.lower(v) for v in inst)
    c11, c12, c21, c22 = (k.lower(v) for v in cells)
    holds_eq = [k.add(c11, c12) is x1, k.add(c21, c22) is x2,
                k.add(c11, c21) is y1, k.add(c12, c22) is y2]
    assert holds_eq == [i != broken for i in range(4)]
    monkeypatch.setattr(riesz, "_base_table", lambda *args: cells + (None,))
    assert kite_refinement_constructive(k, x1, x2, y1, y2) is None


def test_wide_window_covers_every_operand_norm():
    k = mk(2, (0, 1), (1, 0))
    small, big = k.lower(1, 0), k.upper(0, -3)
    assert _wide(k, (small, k.zero, small)) == Window(2)
    assert _wide(k, (small, big, k.zero)) == Window(3)
    assert _wide(k, (k.lower(5, 1), big, small, k.one)) == Window(5)
    # one Window object per height
    assert _wide(k, (big, small, k.one)) is _wide(k, (small, big, k.zero))


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
            found, _ = find_refinement(k, a1, a2, b1, b2, RdpLevel.RDP,
                                       Window(1))
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


# -- constructive witnesses against the written-out mirror cases -------------------


def _ref_base_table(base, r1, r2, s1, s2, level, w):
    lv = level if level in (RdpLevel.RDP1, RdpLevel.RDP2) else RdpLevel.RDP
    t, _ = find_refinement(base, r1, r2, s1, s2, lv, w)
    if t is None:
        return None
    return RefinementTable(*t.cells(), side=t.side, note=t.note)


def _refinement_reference(kite, x1, x2, y1, y2, level):
    """kite_refinement_constructive as it was before the mirror-image cases
    were merged, each case written out; the merged version must match it."""
    base = kite.base
    n = kite.n
    w = _wide(kite, (x1, x2, y1, y2))
    pattern = (x1.tag, x2.tag, y1.tag, y2.tag)
    inv, mul = base.inv_value, base.mul_values
    table = None
    if pattern == (LOWER, LOWER, LOWER, LOWER):
        per = []
        for j in range(n):
            bt = _ref_base_table(base, x1.coords[j], x2.coords[j],
                                 y1.coords[j], y2.coords[j], level, w)
            if bt is None:
                return None
            per.append(bt)
        cells = [KiteElement(kite.shape, LOWER,
                             tuple(getattr(per[j], name) for j in range(n)))
                 for name in ("c11", "c12", "c21", "c22")]
        table = RefinementTable(*cells,
                                side=_merge_sides(tuple(t.side for t in per)),
                                note="coordinatewise base tables")
    elif pattern == (UPPER, LOWER, UPPER, LOWER):
        rho, rho_inv = kite.rho, kite.rho_inv
        ds, per = [], []
        for i in range(n):
            d_i = _upper_bound(base, inv(x1.coords[i]), inv(y1.coords[i]))
            if d_i is None:
                return None
            bt = _ref_base_table(base, mul(d_i, x1.coords[i]),
                                 x2.coords[rho_inv[i]], mul(d_i, y1.coords[i]),
                                 y2.coords[rho_inv[i]], level, w)
            if bt is None:
                return None
            ds.append(d_i)
            per.append(bt)
        c11 = KiteElement(kite.shape, UPPER,
                          tuple(mul(inv(ds[i]), per[i].c11) for i in range(n)))
        low = lambda name: KiteElement(
            kite.shape, LOWER,
            tuple(getattr(per[rho[j]], name) for j in range(n)))
        table = RefinementTable(c11, low("c12"), low("c21"), low("c22"),
                                side=_merge_sides(tuple(t.side for t in per)),
                                note="directedness witnesses over the upper rows")
    elif pattern == (LOWER, UPPER, LOWER, UPPER):
        lam, lam_inv = kite.lam, kite.lam_inv
        ds, per = [], []
        for i in range(n):
            d_i = _upper_bound(base, inv(x2.coords[i]), inv(y2.coords[i]))
            if d_i is None:
                return None
            bt = _ref_base_table(base, x1.coords[lam_inv[i]],
                                 mul(x2.coords[i], d_i), y1.coords[lam_inv[i]],
                                 mul(y2.coords[i], d_i), level, w)
            if bt is None:
                return None
            ds.append(d_i)
            per.append(bt)
        low = lambda name: KiteElement(
            kite.shape, LOWER,
            tuple(getattr(per[lam[j]], name) for j in range(n)))
        c22 = KiteElement(kite.shape, UPPER,
                          tuple(mul(per[i].c22, inv(ds[i])) for i in range(n)))
        table = RefinementTable(low("c11"), low("c12"), low("c21"), c22,
                                side=_merge_sides(tuple(t.side for t in per)),
                                note="directedness witnesses over the upper rows")
    elif pattern == (UPPER, LOWER, LOWER, UPPER):
        c12 = KiteElement(
            kite.shape, UPPER,
            tuple(mul(inv(y1.coords[kite.lam_inv[i]]), x1.coords[i])
                  for i in range(n)))
        table = RefinementTable(y1, c12, kite.zero, x2,
                                note="crossed pattern, zero cell at c21")
    elif pattern == (LOWER, UPPER, UPPER, LOWER):
        c21 = KiteElement(
            kite.shape, UPPER,
            tuple(mul(inv(x1.coords[kite.lam_inv[i]]), y1.coords[i])
                  for i in range(n)))
        table = RefinementTable(x1, kite.zero, c21, y2,
                                note="crossed pattern, zero cell at c12")
    if table is None:
        return None
    if (kite.add(table.c11, table.c12) != x1
            or kite.add(table.c21, table.c22) != x2
            or kite.add(table.c11, table.c21) != y1
            or kite.add(table.c12, table.c22) != y2):
        return None
    if level in (RdpLevel.RDP1, RdpLevel.RDP2) and table.side is None:
        side_check = check_com if level is RdpLevel.RDP1 else _meet_zero
        table.side = side_check(kite, table.c12, table.c21, w)
        if table.side.failed:
            return None
    return table


def _split_reference(kite, x, y, z):
    """kite_rdp0_split_constructive with the U-L-U case written out."""
    base = kite.base
    n = kite.n
    inv, mul = base.inv_value, base.mul_values
    w = _wide(kite, (x, y, z))
    tags = (x.tag, y.tag, z.tag)
    if tags == (LOWER, LOWER, LOWER):
        g1, h1 = [], []
        for j in range(n):
            pair = rdp0_split(base, x.coords[j], y.coords[j],
                              z.coords[j], w)
            if pair is None:
                return None
            g1.append(pair[0])
            h1.append(pair[1])
        out = (KiteElement(kite.shape, LOWER, tuple(g1)),
               KiteElement(kite.shape, LOWER, tuple(h1)))
    elif tags == (LOWER, UPPER, LOWER):
        out = (x, kite.zero)
    elif tags == (LOWER, LOWER, UPPER):
        out = (kite.zero, x)
    elif tags == (UPPER, UPPER, LOWER):
        f1 = []
        for i in range(n):
            pair = rdp0_split(base, inv(y.coords[i]),
                              z.coords[kite.rho_inv[i]], inv(x.coords[i]), w)
            if pair is None:
                return None
            f1.append(pair[0])
        out = (KiteElement(kite.shape, UPPER, tuple(
                   mul(x.coords[i], inv(f1[i])) for i in range(n))),
               KiteElement(kite.shape, LOWER,
                           tuple(f1[kite.rho[j]] for j in range(n))))
    elif tags == (UPPER, LOWER, UPPER):
        f1 = []
        for i in range(n):
            pair = rdp0_split(base, inv(z.coords[i]), inv(x.coords[i]),
                              y.coords[kite.lam_inv[i]], w)
            if pair is None:
                return None
            f1.append(pair[1])
        out = (KiteElement(kite.shape, LOWER,
                           tuple(f1[kite.lam[j]] for j in range(n))),
               KiteElement(kite.shape, UPPER, tuple(
                   mul(inv(f1[i]), x.coords[i]) for i in range(n))))
    else:
        return None
    y1, z1 = out
    if not kite.leq(y1, y) or not kite.leq(z1, z) or kite.add(y1, z1) != x:
        return None
    return out


def _table_view(kite, tab):
    if tab is None:
        return None
    return ([kite.serialize(c) for c in tab.cells()], tab.note,
            None if tab.side is None else tab.side.describe())


@pytest.mark.parametrize("kite, h, levels", [
    (mk(1, (0,), (0,), TwistedLexGroup(2, (0, 1), (1, 0), Z)), 1,
     (RdpLevel.RDP, RdpLevel.RDP1, RdpLevel.RDP2)),
    (mk(1, (0,), (0,), SC), 2, (RdpLevel.RDP, RdpLevel.RDP1, RdpLevel.RDP2)),
    (mk(2, (0, 1), (1, 0), integer_product(2)), 1, (RdpLevel.RDP,)),
], ids=["twistedlex-n1", "strictcone2-n1", "z2-n2"])
def test_constructive_witnesses_match_mirror_reference(kite, h, levels):
    tables, splits = _match_reference(kite, kite.elements(Window(h)), levels)
    assert tables > 0 and splits > 0


def _match_reference(kite, pos, levels):
    """Compare both constructive builders with the written-out references on
    every instance over pos; return how many tables and splits were found."""
    sums = {}
    for p1, p2 in itertools.product(pos, repeat=2):
        s = kite.add(p1, p2)
        if s is not None:
            sums.setdefault(s, []).append((p1, p2))
    tables = 0
    for pairs in sums.values():
        for (a1, a2), (b1, b2) in itertools.product(pairs, repeat=2):
            for lv in levels:
                got = kite_refinement_constructive(kite, a1, a2, b1, b2, lv)
                want = _refinement_reference(kite, a1, a2, b1, b2, lv)
                assert _table_view(kite, got) == _table_view(kite, want), (
                    a1, a2, b1, b2, lv)
                tables += want is not None
    splits = 0
    for y, z in itertools.product(pos, repeat=2):
        s = kite.add(y, z)
        if s is None:
            continue
        for x in pos:
            if kite.leq(x, s):
                got = kite_rdp0_split_constructive(kite, x, y, z)
                assert got == _split_reference(kite, x, y, z), (x, y, z)
                splits += got is not None
    return tables, splits


# -- base-search memos -------------------------------------------------------------

TLEX = TwistedLexGroup(2, (0, 1), (1, 0), Z)
TABLE_LEVELS = (RdpLevel.RDP, RdpLevel.RDP1, RdpLevel.RDP2)


def _clear_base_memos():
    for memo in (_base_table, _base_refinement, _base_split, _upper_bound,
                 _merge_sides):
        memo.cache_clear()


@pytest.mark.parametrize("base, cap", [
    (Z, 14), (integer_product(2), 8), (SC, 14), (TLEX, 8),
], ids=["z", "z2", "strictcone2", "twistedlex"])
def test_base_memos_match_uncached_search(base, cap):
    """Two kites with different (lam, rho) share one base and so one set of
    memo entries; every instance must agree with the uncached
    _ref_base_table/rdp0_split path, from a cold and from a warm memo."""
    kites = [mk(2, (0, 1), (1, 0), base), mk(2, (1, 0), (0, 1), base)]
    _clear_base_memos()
    for _ in ("cold", "warm"):
        for kite in kites:
            tables, splits = _match_reference(
                kite, kite.elements(Window(1, cap=cap)), TABLE_LEVELS)
            assert tables > 0 and splits > 0
    assert _base_refinement.cache_info().hits > 0
    assert _base_split.cache_info().hits > 0


def _tlex_instances():
    """Table instances r1 + r2 = s1 + s2 over a few positive TwistedLex
    values; (1, (-1, -1)) has a wider table in a wider window."""
    pos = cone_window(TLEX, Window(1))[:5]
    mul, inv, e = TLEX.mul_values, TLEX.inv_value, TLEX.identity_value()
    out = []
    for r1, r2, s1 in itertools.product(pos, repeat=3):
        s2 = mul(inv(s1), mul(r1, r2))
        if TLEX.leq_values(e, s2):
            out.append((r1, r2, s1, s2))
    return out


def _raw(tab):
    """A reference table in the memo's shape: (c11, c12, c21, c22, side)."""
    return None if tab is None else tab.cells() + (tab.side,)


def test_base_table_memo_keys_on_flip_level_and_window():
    instances = _tlex_instances()
    _clear_base_memos()
    for _ in ("cold", "warm"):
        for args, flip, lv, h in itertools.product(
                instances, (False, True), TABLE_LEVELS, (2, 3)):
            r1, r2, s1, s2 = args
            want = _ref_base_table(TLEX, *args, lv, Window(h))
            if flip:
                # r2 + r1 = s2 + s1 in the opposite group is this instance
                got = _base_table(TLEX, True, r2, r1, s2, s1, lv, Window(h))
                want = _anti(want)
            else:
                got = _base_table(TLEX, False, *args, lv, Window(h))
            assert got == _raw(want), (args, flip, lv, h)
    u = (1, (-1, -1))
    narrow = _base_table(TLEX, False, u, u, u, u, RdpLevel.RDP, Window(2))
    wide = _base_table(TLEX, False, u, u, u, u, RdpLevel.RDP, Window(3))
    assert narrow[:4] != wide[:4]
    split2 = _base_split(TLEX, u, u, u, Window(2))
    assert split2 == rdp0_split(TLEX, u, u, u, Window(2))
    assert split2 != _base_split(TLEX, u, u, u, Window(3))


def test_base_table_memo_hands_out_one_immutable_tuple():
    """Every caller gets the same memo entry, so nothing in it may change:
    a tuple of raw values and a frozen side verdict. A kite table built from
    it is the caller's own."""
    _clear_base_memos()
    r1, r2, s1, s2 = 2, 1, 1, 2
    first = _base_table(Z, False, r1, r2, s1, s2, RdpLevel.RDP1, Window(2))
    assert first.__class__ is tuple
    assert first == _raw(_ref_base_table(Z, r1, r2, s1, s2, RdpLevel.RDP1,
                                         Window(2)))
    with pytest.raises(TypeError):
        first[0] = 7
    with pytest.raises(AttributeError):
        first[4].checked = 99
    assert _base_table(Z, False, r1, r2, s1, s2, RdpLevel.RDP1,
                       Window(2)) is first
    assert _base_table.cache_info().hits == 1
    # the flipped key is its own entry but reuses the search
    flipped = _base_table(Z, True, r2, r1, s2, s1, RdpLevel.RDP1, Window(2))
    assert flipped == first[3::-1] + first[4:]
    assert _base_refinement.cache_info().misses == 1
    assert _base_refinement.cache_info().hits == 1

    k = mk(1, (0,), (0,))
    args = (k.lower(r1), k.lower(r2), k.lower(s1), k.lower(s2), RdpLevel.RDP1)
    tab = kite_refinement_constructive(k, *args)
    want = _table_view(k, tab)
    tab.side = holds(99, reason="changed by the caller")
    tab.c11 = k.lower(7)
    again = kite_refinement_constructive(k, *args)
    assert again is not tab
    assert _table_view(k, again) == want


def test_base_searches_run_once_per_key(monkeypatch):
    """The riesz benchmark command (z, n = 2, h = 2, cap 14, --checks rdp)
    asks for 2,790 base tables on 84 distinct argument tuples, which fold to
    57 keys once the flip and the level are normalised, and for 1,266 base
    splits on 23 tuples. Each key is searched once, and a second run in the
    same process searches nothing."""
    runs = []
    base_table, base_split = riesz._base_table, riesz._base_split
    search = riesz.find_refinement

    def count(name, fn, only=lambda *args: True):
        def wrapper(*args):
            if only(*args):
                runs[-1][name].append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(riesz, "_base_table", count("tables", base_table))
    monkeypatch.setattr(riesz, "_base_split", count("splits", base_split))
    monkeypatch.setattr(riesz, "find_refinement", count(
        "searches", search, lambda ctx, *args: isinstance(ctx, PoGroup)))
    _clear_base_memos()
    for _ in ("cold", "warm"):
        runs.append({"tables": [], "splits": [], "searches": []})
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["check", "--group", "z", "--shape",
                             '{"n": 2, "lambda": "id", "rho": "swap"}',
                             "--height", "2", "--cap", "14",
                             "--checks", "rdp", "--format", "json"]) == 0
    cold, warm = runs
    assert len(cold["tables"]) == len(warm["tables"]) == 2790
    assert len(set(cold["tables"])) == 84
    assert len(cold["splits"]) == len(warm["splits"]) == 1266
    assert len(set(cold["splits"])) == 23
    assert len(cold["searches"]) == len(set(cold["searches"])) == 57
    # _base_split is rdp0_split memoised: each miss is one search, and the
    # warm run adds none
    assert base_split.cache_info().misses == 23
    assert warm["searches"] == []
    # each distinct argument tuple missed the table memo once, in the cold run
    assert base_table.cache_info().misses == 84


def test_tally_unknown_reason_counts_each_skip_note():
    t = Tally()
    t.hit()
    for note in ("split search window-bounded", "table search window-bounded",
                 "split search window-bounded"):
        t.skip(note)
    v = t.done("split found for every sampled instance")
    assert (v.status, v.checked, v.skipped) == (Status.UNKNOWN, 1, 3)
    assert v.reason == ("split search window-bounded (2); "
                        "table search window-bounded (1)")
    many = Tally()
    for i in range(9):
        many.skip(f"note {i}")
    assert many.done("unused").reason.endswith("note 8 (1)")
    ok = Tally()
    ok.hit()
    assert ok.done("all found") == holds(1, reason="all found")
