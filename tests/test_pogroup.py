"""Base group zoo: windows, orders, and bounded law checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kitealg.kite import Kite, KiteShape
from kitealg.pogroup import (
    CapabilityError,
    Integers,
    PositiveCone,
    Product,
    StrictCone2,
    TwistedLexGroup,
    UsageError,
    Window,
    check_group_laws,
    cone_window,
    enumerate_interval,
    enumerate_window,
    integer_product,
    parse_group,
)
from kitealg.riesz import check_com
from kitealg.verdict import Status, Tally

Z = Integers()
SC = StrictCone2()


def tl(n, lam, rho, base=None):
    return TwistedLexGroup(n, lam, rho, base or Integers())


# -- windows ------------------------------------------------------------------


def test_window_rejects_bad_bounds():
    with pytest.raises(UsageError):
        Window(-1)
    with pytest.raises(UsageError):
        Window(2, 0)
    assert Window(2, 5).uncapped() == Window(2)


@pytest.mark.parametrize("height, cap", [
    (1.5, None), (2, 1.5), (True, None), (2, True), ("2", None),
])
def test_window_bounds_must_be_ints(height, cap):
    with pytest.raises(UsageError, match="must be an integer"):
        Window(height, cap)


def test_integer_window_contents():
    # raw values, sorted by (|x|, x)
    assert enumerate_window(Z, Window(2)) == [0, -1, 1, -2, 2]
    assert enumerate_window(Z, Window(2, 3)) == [0, -1, 1]
    assert cone_window(Z, Window(2)) == [0, 1, 2]
    # the cone is filtered from the whole window, then cut to the cap
    assert cone_window(Z, Window(2, 2)) == [0, 1]


def test_product_window_is_full_grid():
    g = integer_product(2)
    vals = set(enumerate_window(g, Window(1)))
    assert vals == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    assert len(cone_window(g, Window(2))) == 9


def test_strict_cone_window_and_order():
    cone = set(cone_window(SC, Window(2)))
    assert cone == {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)}
    a = (1, 2)
    b = (2, 1)
    assert not SC.leq(a, b)
    assert not SC.leq(b, a)
    assert SC.leq((1, 1), (2, 2))


def test_strict_cone_interval_skips_incomparable_lattice_points():
    elems, exhaustive = enumerate_interval(SC, (0, 0), (2, 2), Window(2))
    assert set(elems) == {(0, 0), (1, 1), (2, 2)}
    assert exhaustive


def test_strict_cone_has_no_meet():
    with pytest.raises(CapabilityError):
        SC.meet((1, 1), (2, 2))


# -- checked raw values ---------------------------------------------------------


def test_ops_reject_elements_of_another_group_kind():
    # every argument is checked by the group's own check_value, so a value
    # in another group's form is refused
    z2, g = integer_product(2), tl(1, [0], [0])
    with pytest.raises(UsageError):
        z2.mul((1, 1), 1)
    with pytest.raises(UsageError):
        z2.leq(1, (1, 1))
    with pytest.raises(UsageError):
        z2.inv((1, 1, 1))
    with pytest.raises(UsageError):
        z2.join((1, 1), (1, True))
    with pytest.raises(UsageError):
        Z.meet(1, (1, 1))
    with pytest.raises(UsageError):
        SC.mul((1, 1), (1, (0,)))
    with pytest.raises(UsageError):
        g.meet(g.identity_value(), 0)
    # own hands back the value in the group's own form
    assert z2.own([1, 2]) == (1, 2)
    assert g.own([1, [0]]) == (1, (0,))
    assert g.mul([1, [0]], (0, [2])) == (1, (2,))


def test_separately_parsed_equal_groups_combine():
    g1, g2 = parse_group("z2"), parse_group("z2")
    assert g1 is not g2 and g1 == g2 and hash(g1) == hash(g2)
    a, b = (1, 2), (3, -1)
    assert g1.mul(a, b) == (4, 1)
    assert g2.leq(a, (1, 3))
    assert g1.meet(a, b) == (1, -1)
    assert g2.join(a, b) == (3, 2)


class RenamedIntegers(Integers):
    kind = "RenamedIntegers"


@pytest.mark.parametrize("build", [
    Integers,
    lambda: integer_product(2),
    StrictCone2,
    lambda: tl(2, (0, 1), (1, 0), StrictCone2()),
], ids=["z", "z2", "strictcone2", "twistedlex"])
def test_groups_from_equal_descriptors_are_equal(build):
    g1, g2 = build(), build()
    assert g1 is not g2 and g1 == g2 and hash(g1) == hash(g2)
    assert parse_group(g1.describe()) == g1


@pytest.mark.parametrize("g1, g2", [
    (tl(2, (0, 1), (1, 0)), tl(2, (0, 1), (0, 1))),
    (Product([Integers()]), Integers()),
    (Product(()), Product([Product(())])),
    (Integers(), RenamedIntegers()),
], ids=["twist", "product-of-one", "nested-trivial", "kind"])
def test_groups_differing_in_one_parameter_are_unequal(g1, g2):
    assert g1 != g2 and g2 != g1
    assert g1.describe() != g2.describe()


# -- twisted lex multiplication -----------------------------------------------


def test_twisted_lex_multiplication_oracle():
    g = tl(2, (0, 1), (1, 0))
    a = (1, (0, 0))
    b = (0, (1, 0))
    # coordinate i of a*b is a[lam^-0(i)] + b[rho^-1(i)], rho = swap
    assert g.mul(a, b) == (1, (0, 1))
    assert g.mul(b, a) == (1, (1, 0))


def test_twisted_lex_inverse_oracle():
    g = tl(2, (0, 1), (1, 0))
    a = (1, (1, 0))
    ai = g.inv(a)
    assert ai == (-1, (0, -1))
    assert g.mul(a, ai) == g.identity_value()
    assert g.mul(ai, a) == g.identity_value()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: KiteShape(True, (0,), (0,), Z), id="kite-shape-bool"),
    pytest.param(lambda: KiteShape(1.0, (0,), (0,), Z), id="kite-shape-float"),
    pytest.param(lambda: tl(True, (0,), (0,)), id="twisted-lex-bool"),
])
def test_twist_size_must_be_a_non_negative_int(build):
    with pytest.raises(UsageError, match="n must be a non-negative integer"):
        build()


def test_twisted_lex_requires_commuting_bijections():
    with pytest.raises(UsageError):
        tl(3, (1, 0, 2), (0, 2, 1))


def test_twisted_lex_order_is_lex():
    g = tl(2, (0, 1), (1, 0))
    assert g.leq((0, (5, -7)), (1, (0, 0)))
    assert g.leq((1, (0, 0)), (1, (0, 1)))
    assert not g.leq((1, (1, 0)), (1, (0, 1)))


def test_twisted_lex_noncommutative_witness():
    g = tl(2, (0, 1), (1, 0))
    u = (1, (0, 0))
    v = check_com(g, u, u, Window(2, None))
    assert v.status is Status.FAILS
    w = v.witness_dict()
    x = g.deserialize(w["x"])
    y = g.deserialize(w["y"])
    assert g.mul(x, y) != g.mul(y, x)
    # a bare group's arguments come from outside, so they are checked
    with pytest.raises(UsageError):
        check_com(g, g.inv_value(u), u, Window(2))
    with pytest.raises(UsageError):
        check_com(g, (1, (0,)), u, Window(2))
    # on a kite the check reads the kite's own partial sum
    k = Kite(KiteShape(2, (0, 1), (1, 0), Z))
    v = check_com(k, k.one, k.one, Window(1))
    assert v.status is Status.FAILS
    assert v.witness_dict() == {"x": k.lower(0, 1).serialized(),
                                "y": k.upper(-1, -1).serialized()}


def test_twisted_lex_same_direction_is_abelian():
    g = tl(2, (1, 0), (1, 0))
    assert g.is_abelian
    u = (1, (0, 0))
    # the interval [0, u] spans two lex levels, so the scan is honest about
    # truncation: no witness, but no exhaustiveness claim either
    v = check_com(g, u, u, Window(2))
    assert not v.failed
    assert v.skipped > 0
    # zero commutes with everything, whatever the window
    v = check_com(g, g.identity_value(), u, Window(2))
    assert v.ok and v.checked == 1


# -- bounded checks -------------------------------------------------------------


LAW_GROUPS = [
    Z,
    integer_product(2),
    SC,
    tl(2, (0, 1), (1, 0)),
    tl(2, (1, 0), (1, 0)),
    Product(()),
    # a lattice product off the Z^k path: its join and meet go component
    # by component
    Product([Z, tl(1, (0,), (0,))]),
]


@pytest.mark.parametrize("group", LAW_GROUPS)
def test_group_laws_hold(group):
    v = check_group_laws(group, Window(2, 10))
    assert v.ok, v.describe()


def _reference_group_laws(group, w, cap=12):
    """check_group_laws as it was written on the checked operations (mul,
    inv, leq, join, meet), kept as the reference for the version on the
    unchecked value operations."""
    full = enumerate_window(group, w)
    sample = full[:cap]
    e = group.identity_value()
    t = Tally()
    ser = group.serialize_value

    for a in full:
        t.hit()
        if group.mul(a, e) != a or group.mul(e, a) != a:
            return t.fail({"a": ser(a)}, reason="identity law broken")
        if group.mul(a, group.inv(a)) != e or group.mul(group.inv(a), a) != e:
            return t.fail({"a": ser(a)}, reason="inverse law broken")
        if group.leq(e, a) and group.leq(a, e) and a != e:
            return t.fail({"a": ser(a)},
                          reason="positive and negative cone share a non-identity element")
    for a in sample:
        for b in sample:
            for c in sample:
                t.hit()
                if group.mul(group.mul(a, b), c) != group.mul(a, group.mul(b, c)):
                    return t.fail(
                        {"a": ser(a), "b": ser(b), "c": ser(c)},
                        reason="associativity broken")
    pairs = [(a, b) for a in sample for b in sample if group.leq(a, b)]
    for a, b in pairs:
        for x in sample:
            for y in sample:
                t.hit()
                lhs = group.mul(group.mul(x, a), y)
                rhs = group.mul(group.mul(x, b), y)
                if not group.leq(lhs, rhs):
                    return t.fail(
                        {"a": ser(a), "b": ser(b),
                         "x": ser(x), "y": ser(y)},
                        reason="order not translation invariant")
    if group.is_lattice:
        for a in sample:
            for b in sample:
                t.hit()
                j = group.join(a, b)
                m = group.meet(a, b)
                if not (group.leq(a, j) and group.leq(b, j)):
                    return t.fail({"a": ser(a), "b": ser(b)},
                                  reason="join is not an upper bound")
                if not (group.leq(m, a) and group.leq(m, b)):
                    return t.fail({"a": ser(a), "b": ser(b)},
                                  reason="meet is not a lower bound")
                for c in sample:
                    if group.leq(a, c) and group.leq(b, c) and not group.leq(j, c):
                        return t.fail(
                            {"a": ser(a), "b": ser(b),
                             "c": ser(c)},
                            reason="join is not least among window bounds")
                    if group.leq(c, a) and group.leq(c, b) and not group.leq(c, m):
                        return t.fail(
                            {"a": ser(a), "b": ser(b),
                             "c": ser(c)},
                            reason="meet is not greatest among window bounds")
    return t.done()


class NonAssociative(Integers):
    """2 * 1 = 4; identity and inverses still hold."""

    kind = "NonAssociative"

    def mul_values(self, x, y):
        return x + y + (x == 2 and y == 1)


class NotTranslationInvariant(TwistedLexGroup):
    """A twisted lex group whose cone also holds p = (0, (1, -1)), ordered
    by x <= y iff y x^-1 is in the cone. That order is right invariant, but
    p's conjugate (0, (-1, 1)) is not in the cone, so left translation breaks
    it; p^-1 is not in the cone either, so the cones stay apart."""

    kind = "NotTranslationInvariant"

    def __init__(self):
        super().__init__(2, (0, 1), (1, 0), Integers())

    def leq_values(self, x, y):
        return (super().leq_values(x, y)
                or self.mul_values(y, self.inv_value(x)) == (0, (1, -1)))


class WrongJoin(Integers):
    """The join of two distinct elements overshoots by one."""

    kind = "WrongJoin"

    def join_values(self, x, y):
        return max(x, y) + (x != y)


@pytest.mark.parametrize("group", LAW_GROUPS)
def test_value_level_law_check_matches_elem_reference(group):
    # Verdict equality compares status, checked, skipped, witness and reason
    assert (check_group_laws(group, Window(2, 10))
            == _reference_group_laws(group, Window(2), cap=10))


@pytest.mark.parametrize("n, lam, rho", [
    (0, (), ()),
    (1, (0,), (0,)),
    (2, (0, 1), (1, 0)),
    (3, (1, 2, 0), (0, 1, 2)),
])
def test_value_level_law_check_matches_reference_on_twisted_lex(n, lam, rho):
    for base in (Z, SC):
        g = tl(n, lam, rho, base)
        # the window and cap on which the tests check every group the
        # library builds
        want = _reference_group_laws(g, Window(1), cap=8)
        assert want.ok
        assert check_group_laws(g, Window(1, 8)) == want


@pytest.mark.parametrize("broken, reason", [
    (NonAssociative(), "associativity broken"),
    (NotTranslationInvariant(), "order not translation invariant"),
    (WrongJoin(), "join is not least among window bounds"),
])
def test_value_level_law_check_fails_like_reference(broken, reason):
    want = _reference_group_laws(broken, Window(2), cap=10)
    assert want.failed and want.reason == reason and want.witness
    assert check_group_laws(broken, Window(2, 10)) == want


def test_integer_interval_is_exact():
    elems, exhaustive = enumerate_interval(Z, -1, 2, Window(1))
    assert elems == [0, -1, 1, 2]
    assert exhaustive


def test_twisted_lex_interval_across_levels_not_exhaustive():
    g = tl(1, (0,), (0,))
    _, exhaustive = enumerate_interval(g, (0, (0,)), (1, (0,)), Window(2))
    assert not exhaustive


def test_twisted_lex_interval_asks_its_base():
    # one leading integer, but the base's coordinate interval runs across
    # two lex levels: (0, ((0, (k,)),)) lies in it for every k >= 0
    g = tl(1, (0,), (0,), tl(1, (0,), (0,)))
    _, exhaustive = PositiveCone(g).interval(
        (0, ((0, (0,)),)), (0, ((1, (0,)),)), Window(1))
    assert not exhaustive
    _, exhaustive = PositiveCone(g).interval(
        (0, ((0, (0,)),)), (0, ((0, (1,)),)), Window(1))
    assert exhaustive


TWISTED_LEX_SC2 = {"kind": "TwistedLex", "params": {
    "n": 2, "lam": [0, 1], "rho": [1, 0], "base": {"kind": "StrictCone2"}}}
TWISTED_LEX_Z = {"kind": "TwistedLex", "params": {
    "n": 1, "lam": [0], "rho": [0], "base": "z"}}


def _product(*components):
    return {"kind": "Product", "params": {"components": list(components)}}


def _flatten(obj):
    """The integers of a nested serialization, in order."""
    if isinstance(obj, int):
        yield obj
    else:
        for part in obj:
            yield from _flatten(part)


@pytest.mark.parametrize("name", [
    "z", "strictcone2", "z2", "z3", "trivial",
    pytest.param(TWISTED_LEX_SC2, id="twistedlex"),
    # components wider than one integer
    pytest.param(_product("strictcone2"), id="product-strictcone2"),
    pytest.param(_product("z2", "z"), id="product-z2-z"),
    pytest.param(_product(TWISTED_LEX_Z, "strictcone2"),
                 id="product-twistedlex"),
])
def test_direct_sort_keys_and_norms_match_the_flattened_form(name):
    g = parse_group(name)
    for v in g.ball_values(3):
        ser = g.serialize_value(v)
        flat = tuple(_flatten(ser))
        assert g.value_key(v) == flat
        assert g.norm_value(v) == max((abs(c) for c in flat), default=0)
        assert g.deserialize(ser) == v
    if not isinstance(g, TwistedLexGroup):
        # a flat serialization reads back whole or not at all
        key = g.serialize_value(g.identity_value())
        with pytest.raises(UsageError):
            g.deserialize(key + [0])
        if key:
            with pytest.raises(UsageError):
                g.deserialize(key[:-1])


# -- coordinate kernels -----------------------------------------------------------


KERNEL_GROUPS = [
    pytest.param(Integers(), id="z"),
    pytest.param(StrictCone2(), id="strictcone2"),
    pytest.param(integer_product(2), id="z2"),
    pytest.param(integer_product(3), id="z3"),
    pytest.param(Product([Integers(), StrictCone2()]), id="z-x-strictcone2"),
    pytest.param(tl(2, (0, 1), (1, 0)), id="twistedlex"),
]


def _coordinate_pairs(g, k, count=300):
    """Pairs of k-tuples of window values: coordinatewise ordered pairs,
    the same with one coordinate swapped, and arbitrary pairs."""
    rng = random.Random(k)
    vals = enumerate_window(g, Window(1))
    ordered = [(a, b) for a in vals for b in vals if g.leq_values(a, b)]
    out = []
    for _ in range(count):
        pick = [rng.choice(ordered) for _ in range(k)]
        xs, ys = tuple(a for a, _ in pick), tuple(b for _, b in pick)
        out.append((xs, ys))
        if k:
            out.append((ys[:1] + xs[1:], xs[:1] + ys[1:]))
        out.append((tuple(rng.choice(vals) for _ in range(k)),
                    tuple(rng.choice(vals) for _ in range(k))))
    return out


@pytest.mark.parametrize("g", KERNEL_GROUPS)
def test_coordinate_kernels_match_the_per_coordinate_loop(g):
    for k in (0, 1, 2, 3):
        for xs, ys in _coordinate_pairs(g, k):
            assert g.leq_coords(xs, ys) == all(
                g.leq_values(a, b) for a, b in zip(xs, ys))
            assert g.mul_coords(xs, ys) == tuple(
                g.mul_values(a, b) for a, b in zip(xs, ys))


def _twist(p, k, i):
    """p^k(i), applying p (or its inverse, for k < 0) |k| times."""
    step = p if k >= 0 else [p.index(j) for j in range(len(p))]
    for _ in range(abs(k)):
        i = step[i]
    return i


@pytest.mark.parametrize("g", [
    pytest.param(tl(2, (0, 1), (1, 0)), id="z-id-swap"),
    pytest.param(tl(3, (1, 2, 0), (2, 0, 1)), id="z-shift-unshift"),
    pytest.param(tl(3, (1, 2, 0), (1, 2, 0)), id="z-shift-shift"),
    pytest.param(tl(2, (1, 0), (1, 0), SC), id="strictcone2-swap-swap"),
    pytest.param(tl(2, (1, 0), (1, 0), tl(2, (0, 1), (1, 0))),
                 id="twistedlex-swap-swap"),
])
def test_twisted_products_match_the_per_coordinate_formula(g):
    """(m1, x) * (m2, y) = (m1 + m2, < x[lam^-m2(i)] y[rho^-m1(i)] >), one
    base product per coordinate, for leading integers m1, m2 in -3..3."""
    rng = random.Random(g.n)
    vals = enumerate_window(g.base, Window(1))
    for _ in range(400):
        m1, m2 = rng.randint(-3, 3), rng.randint(-3, 3)
        xs = tuple(rng.choice(vals) for _ in range(g.n))
        ys = tuple(rng.choice(vals) for _ in range(g.n))
        want = (m1 + m2, tuple(
            g.base.mul_values(xs[_twist(g.lam, -m2, i)],
                              ys[_twist(g.rho, -m1, i)])
            for i in range(g.n)))
        assert g.mul_values((m1, xs), (m2, ys)) == want, (m1, xs, m2, ys)


@pytest.mark.parametrize("g", [
    pytest.param(integer_product(2), id="z2"),
    pytest.param(integer_product(3), id="z3"),
    pytest.param(Product(()), id="trivial"),
    pytest.param(Product([Integers(), StrictCone2()]), id="z-x-strictcone2"),
])
def test_product_value_operations_match_the_components(g):
    # a Z^k product runs C-level maps over whole tuples; every other
    # product keeps the component-wise methods
    zk = all(type(c) is Integers for c in g.components)
    assert ("mul_values" in vars(g)) == zk
    cs = g.components
    vals = enumerate_window(g, Window(1))
    for x in vals:
        assert g.inv_value(x) == tuple(c.inv_value(a) for c, a in zip(cs, x))
        for y in vals:
            assert g.mul_values(x, y) == tuple(
                c.mul_values(a, b) for c, a, b in zip(cs, x, y))
            assert g.leq_values(x, y) == all(
                c.leq_values(a, b) for c, a, b in zip(cs, x, y))
            if g.is_lattice:
                assert g.join_values(x, y) == tuple(
                    c.join_values(a, b) for c, a, b in zip(cs, x, y))
                assert g.meet_values(x, y) == tuple(
                    c.meet_values(a, b) for c, a, b in zip(cs, x, y))


# -- malformed values ---------------------------------------------------------------


TL1 = TwistedLexGroup(1, [0], [0], Integers())


@pytest.mark.parametrize("call", [
    pytest.param(lambda: StrictCone2().own(5), id="strictcone2-int"),
    pytest.param(lambda: StrictCone2().own((1, 2, 3)), id="strictcone2-triple"),
    pytest.param(lambda: integer_product(2).own(5), id="z2-int"),
    pytest.param(lambda: TL1.own(5), id="twistedlex-int"),
    pytest.param(lambda: TL1.own((0, 5)), id="twistedlex-int-coords"),
    pytest.param(lambda: TL1.deserialize(5), id="twistedlex-de-int"),
    pytest.param(lambda: TL1.deserialize([5]), id="twistedlex-de-short"),
    pytest.param(lambda: TL1.deserialize("x"), id="twistedlex-de-str"),
    pytest.param(lambda: TL1.deserialize([1, 2]), id="twistedlex-de-int-coords"),
    pytest.param(lambda: TL1.deserialize([1, [[0], [0]]]), id="twistedlex-de-long"),
])
def test_malformed_values_raise_usage_error(call):
    with pytest.raises(UsageError):
        call()


# -- descriptors ----------------------------------------------------------------


def test_parse_group_shortcuts():
    assert parse_group("z") == Integers()
    assert parse_group("Z2") == integer_product(2)
    assert parse_group("trivial").is_trivial
    assert parse_group("strictcone2") == StrictCone2()
    with pytest.raises(UsageError):
        parse_group("nope")


def test_parse_group_descriptor_roundtrip():
    g = tl(2, (0, 1), (1, 0))
    assert parse_group(g.describe()) == g
    with pytest.raises(UsageError):
        parse_group({"nokind": True})


# -- properties -----------------------------------------------------------------

pairs = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
tl_vals = st.tuples(st.integers(-2, 2), st.tuples(st.integers(-2, 2),
                                                  st.integers(-2, 2)))


@settings(max_examples=60, deadline=None)
@given(x=tl_vals, y=tl_vals, z=tl_vals)
def test_twisted_lex_associative(x, y, z):
    g = tl(2, (0, 1), (1, 0))
    assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))


@settings(max_examples=60, deadline=None)
@given(x=tl_vals, y=tl_vals, t=tl_vals)
def test_twisted_lex_order_translation_invariant(x, y, t):
    g = tl(2, (0, 1), (1, 0))
    if g.leq(x, y):
        assert g.leq(g.mul(t, x), g.mul(t, y))
        assert g.leq(g.mul(x, t), g.mul(y, t))


@settings(max_examples=60, deadline=None)
@given(x=pairs, y=pairs)
def test_strict_cone_order_is_partial_order(x, y):
    assert SC.leq(x, x)
    if SC.leq(x, y) and SC.leq(y, x):
        assert x == y
