"""Kite algebra operations: order, partial addition, complements, MV layer."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kitealg import perms
from kitealg.kite import Kite, KiteElement, KiteShape, LOWER, UPPER
from kitealg.pogroup import (CapabilityError, Integers, StrictCone2,
                             TwistedLexGroup, UsageError, Window, cone_window,
                             parse_group)

Z = Integers()


def mk(n, lam, rho, base=None):
    return Kite(KiteShape(n, tuple(lam), tuple(rho), base or Z))


ID2 = mk(2, (0, 1), (0, 1))
SWAP2 = mk(2, (0, 1), (1, 0))


# -- constructors and order -----------------------------------------------------


def test_constructor_validation():
    with pytest.raises(UsageError):
        ID2.lower(1)
    with pytest.raises(UsageError):
        ID2.lower(1, -1)
    with pytest.raises(UsageError):
        ID2.upper(0, 1)
    with pytest.raises(UsageError):
        ID2.own(SWAP2.lower(0, 0))
    # a malformed twist is a usage error, as every other malformed input is
    with pytest.raises(UsageError):
        KiteShape(n=2, lam=(0, 0), rho=(0, 1), base=Z)
    # the base is a po-group, not its name
    with pytest.raises(UsageError, match="base must be a PoGroup"):
        KiteShape(1, (0,), (0,), "z")


def test_strict_cone_constructors_reject_out_of_cone_coordinates():
    k = mk(1, (0,), (0,), StrictCone2())
    assert k.lower((1, 2)).tag == LOWER
    assert k.upper((-2, -1)).tag == UPPER
    with pytest.raises(UsageError):
        k.lower((1, 0))
    with pytest.raises(UsageError):
        k.upper((0, -1))


def test_ops_reject_elements_of_another_shape():
    x, y = ID2.lower(1, 0), SWAP2.lower(0, 1)
    over_z2 = mk(2, (0, 1), (0, 1), parse_group("z2"))
    z = over_z2.lower((1, 1), (0, 0))
    for op in (ID2.add, ID2.mv_oplus):
        for a, b in ((x, y), (y, x), (x, z), (z, x)):
            with pytest.raises(UsageError):
                op(a, b)


def test_kites_over_separately_parsed_equal_groups_combine():
    k1 = mk(2, (0, 1), (1, 0), parse_group("z2"))
    k2 = mk(2, (0, 1), (1, 0), parse_group("z2"))
    assert k1.base is not k2.base
    u, f = k1.upper((-2, -1), (-1, -3)), k2.lower((1, 0), (0, 1))
    assert k1.add(u, f) == k2.add(u, f) == k2.upper((-2, 0), (0, -3))
    assert k2.mv_oplus(u, f) == k1.add(u, f)
    assert k1.leq(f, u) and k2.leq(f, u)


def test_bounds_are_distinct_even_at_n_zero():
    k0 = mk(0, (), ())
    assert k0.zero != k0.one
    assert k0.leq(k0.zero, k0.one)
    assert not k0.leq(k0.one, k0.zero)
    assert len(k0.elements(Window(3))) == 2


def test_order_within_and_across_parts():
    k = ID2
    assert k.leq(k.lower(0, 1), k.lower(1, 1))
    assert not k.leq(k.lower(1, 0), k.lower(0, 1))
    # every lower sits below every upper
    assert k.leq(k.lower(5, 5), k.upper(-5, -5))
    assert not k.leq(k.upper(-5, -5), k.lower(5, 5))


# -- partial addition ------------------------------------------------------------


def test_add_lower_lower_is_total():
    assert ID2.add(ID2.lower(1, 2), ID2.lower(2, 0)) == ID2.lower(3, 2)


def test_add_upper_upper_is_undefined():
    assert ID2.add(ID2.one, ID2.one) is None
    assert SWAP2.add(SWAP2.upper(-1, 0), SWAP2.upper(0, -1)) is None


def test_add_upper_lower_reindexes_through_rho():
    k = SWAP2
    # coordinate i of U(u) + L(f) is u_i + f at the rho-preimage of i
    assert k.add(k.upper(-3, -1), k.lower(1, 2)) == k.upper(-1, 0)
    # a single coordinate above the identity kills definedness
    assert k.add(k.upper(-1, 0), k.lower(1, 1)) is None


def test_add_lower_upper_reindexes_through_lam():
    k = ID2
    assert k.add(k.lower(3, 1), k.upper(-3, -1)) == k.one
    assert k.add(k.lower(1, 2), k.upper(-3, -1)) is None


def test_add_zero_is_neutral():
    k = SWAP2
    for x in k.elements(Window(1)):
        assert k.add(x, k.zero) == x
        assert k.add(k.zero, x) == x


def test_add_associative_on_window():
    k = SWAP2
    sample = k.elements(Window(1))
    for x, y, z in itertools.product(sample, repeat=3):
        xy = k.add(x, y)
        yz = k.add(y, z)
        lhs = k.add(xy, z) if xy is not None else None
        rhs = k.add(x, yz) if yz is not None else None
        if lhs is not None or rhs is not None:
            assert lhs == rhs, (x, y, z)


# -- complements -----------------------------------------------------------------


def test_complement_oracle_on_swapped_upper():
    k = SWAP2
    x = k.upper(-2, -3)
    right, left = k.negations(x)
    assert right == k.lower(3, 2)
    assert left == k.lower(2, 3)


def test_complement_laws_on_window():
    for k in (ID2, SWAP2, mk(3, (1, 2, 0), (0, 1, 2))):
        for x in k.elements(Window(1, 40)):
            assert k.add(x, k.complement_right(x)) == k.one
            assert k.add(k.complement_left(x), x) == k.one


def test_double_complement_shifts_support():
    # lam = (0->1, 1->2, 2->0), rho = id; double left complement moves
    # support through lam^-1 rho, double right complement through its inverse
    k = mk(3, (1, 2, 0), (0, 1, 2))
    sigma = perms.compose(perms.inverse(k.lam), k.rho)
    x = k.lower(1, 0, 0)
    twice_left = k.complement_left(k.complement_left(x))
    assert k.support(twice_left) == (sigma[0],) == (2,)
    twice_right = k.complement_right(k.complement_right(x))
    assert k.support(twice_right) == (perms.inverse(sigma)[0],) == (1,)


# -- differences -----------------------------------------------------------------


def test_diff_oracles():
    k = SWAP2
    a = k.upper(-3, -1)
    b = k.upper(-1, 0)
    assert k.rdiff(a, b) == k.lower(1, 2)
    assert k.ldiff(b, k.lower(1, 2)) == a
    assert k.rdiff(b, a) is None


def test_diffs_recover_summands_on_window():
    k = SWAP2
    sample = k.elements(Window(1))
    for x, y in itertools.product(sample, repeat=2):
        s = k.add(x, y)
        if s is None:
            continue
        assert k.ldiff(s, y) == x
        assert k.rdiff(x, s) == y


# -- lattice and MV layer ---------------------------------------------------------


def test_meet_join_goldens():
    k = ID2
    cases = [
        ("join", k.lower(1, 0), k.lower(0, 2), k.lower(1, 2)),
        ("join", k.upper(-1, 0), k.upper(0, -2), k.one),
        ("join", k.lower(5, 5), k.upper(0, 0), k.one),
        ("join", k.lower(5, 5), k.upper(-1, -3), k.upper(-1, -3)),
        ("meet", k.upper(-1, 0), k.upper(0, -2), k.upper(-1, -2)),
        ("meet", k.lower(1, 0), k.lower(0, 2), k.zero),
        ("meet", k.lower(5, 5), k.upper(0, 0), k.lower(5, 5)),
        ("meet", k.lower(5, 5), k.upper(-1, -3), k.lower(5, 5)),
    ]
    # every case in both argument orders
    for op, x, y, want in cases:
        assert getattr(k, op)(x, y) == want, (op, x, y)
        assert getattr(k, op)(y, x) == want, (op, y, x)


def test_mv_odot_zero_set_matches_definedness():
    for k in (ID2, SWAP2):
        sample = k.elements(Window(1))
        for x, y in itertools.product(sample, repeat=2):
            assert (k.mv_odot(x, y) == k.zero) == (k.add(x, y) is not None)


def test_mv_odot_is_the_product_derived_from_oplus_and_negations():
    # over a non-abelian base too, where a closed form written per tag case
    # differs from the derived product on about half of the pairs
    base = TwistedLexGroup(2, (0, 1), (1, 0), Z)
    for k in (SWAP2, mk(2, (0, 1), (1, 0), base)):
        left = k.complement_left
        sample = k.elements(Window(1))
        for x, y in itertools.product(sample, repeat=2):
            assert k.mv_odot(x, y) == k.complement_right(
                k.mv_oplus(left(x), left(y)))


def test_mv_add_agrees_with_add():
    k = SWAP2
    sample = k.elements(Window(1))
    for x, y in itertools.product(sample, repeat=2):
        assert k.mv_add(x, y) == k.add(x, y)


def test_mv_oplus_is_truncated_sum():
    # x oplus y = x + (meet of x's right complement with y); the summand is
    # clipped so the sum is always defined
    k = SWAP2
    sample = k.elements(Window(1))
    for x, y in itertools.product(sample, repeat=2):
        clipped = k.meet(k.complement_right(x), y)
        assert k.mv_oplus(x, y) == k.add(x, clipped)


# -- misc -------------------------------------------------------------------------


def test_dimension_and_support():
    k = mk(3, (0, 1, 2), (0, 1, 2))
    x = k.lower(0, 2, 1)
    assert k.dimension(x) == 2
    assert k.support(x) == (1, 2)
    assert k.dimension(k.zero) == 0


def test_serialized_form():
    x = SWAP2.upper(-1, 0)
    assert x.serialized() == {"tag": "U", "coords": [[-1], [0]]}


def test_elements_cap_is_prefix():
    k = SWAP2
    full = k.elements(Window(2))
    assert k.elements(Window(2, 7)) == full[:7]
    assert full[0] == k.zero
    assert k.one in full


@pytest.mark.parametrize("w", [Window(0), Window(1), Window(2), Window(2, 7),
                               Window(1, 100)])
@pytest.mark.parametrize("base", ["z", "z2", "strictcone2"])
def test_carrier_size_is_the_sample_length(base, w):
    for n in range(3):
        k = mk(n, range(n), range(n), parse_group(base))
        assert k.carrier_size(w) == len(k.elements(w)), (n, w)


def test_interval_exhaustiveness():
    k = ID2
    box, exhaustive = k.interval(k.zero, k.lower(2, 2), Window(1))
    assert exhaustive
    assert len(box) == 9
    _, full_exhaustive = k.interval(k.zero, k.one, Window(2))
    assert not full_exhaustive
    k0 = mk(0, (), ())
    _, e0 = k0.interval(k0.zero, k0.one, Window(2))
    assert e0


def test_carrier_over_nonabelian_base():
    g = TwistedLexGroup(2, (0, 1), (1, 0), Z)
    k = Kite(KiteShape(1, (0,), (0,), g))
    sample = k.elements(Window(1, 26))
    assert k.zero in sample and k.one in sample
    for x in sample:
        assert k.add(x, k.complement_right(x)) == k.one


# -- memoised window samples ------------------------------------------------------


@pytest.mark.parametrize("w", [Window(2), Window(2, 7)])
def test_elements_returns_a_fresh_copy_of_the_memo(w):
    k = mk(2, (0, 1), (1, 0))
    first = k.elements(w)
    second = k.elements(w)
    assert first == second
    assert first is not second
    first.clear()
    second.reverse()
    third = k.elements(w)
    assert third == list(reversed(second))
    assert third[0] == k.zero


def _fresh_carrier(kite, height):
    """The window carrier built from scratch, sorted like Kite.elements."""
    pool = cone_window(kite.base, Window(height))
    out = []
    for make, vals in ((kite.lower, pool),
                       (kite.upper, [kite.base.inv_value(v) for v in pool])):
        out.extend(make(*coords)
                   for coords in itertools.product(vals, repeat=kite.n))
    return sorted(out, key=kite.sort_key)


@pytest.mark.parametrize("group", ["z", "z2", "strictcone2"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_interval_matches_brute_force_filter(group, n):
    perm = tuple(range(n))
    k = mk(n, perm, perm[::-1], parse_group(group))
    w = Window(1)
    # endpoints up to height 2, so some norms exceed w.height
    ends = k.elements(Window(2))
    ends = ends[::max(1, len(ends) // 25)] + [k.zero, k.one]
    carriers = {h: _fresh_carrier(k, h) for h in (1, 2)}
    for a, b in itertools.product(ends, repeat=2):
        got, _ = k.interval(a, b, w)
        height = max(w.height, k.norm(a), k.norm(b))
        want = [x for x in carriers[height] if k.leq(a, x) and k.leq(x, b)]
        assert got == want, (a, b)


# -- raw coordinates ----------------------------------------------------------------


RAW_BASES = {
    "z": lambda: Integers(),
    "z2": lambda: parse_group("z2"),
    "strictcone2": lambda: StrictCone2(),
    "twistedlex": lambda: TwistedLexGroup(2, (0, 1), (1, 0), Integers()),
}


@pytest.mark.parametrize("name", sorted(RAW_BASES))
def test_coordinates_are_raw_base_values(name):
    kite = mk(2, (0, 1), (1, 0), RAW_BASES[name]())
    base = kite.base
    w = Window(1, 16)
    sample = kite.elements(w)
    results = [kite.zero, kite.one]
    for x in sample:
        results += [x, kite.complement_left(x), kite.complement_right(x)]
        for y in sample:
            results += [kite.add(x, y), kite.ldiff(x, y), kite.rdiff(x, y)]
    found = [r for r in results if r is not None]
    assert len(found) > 3 * len(sample)
    for r in found:
        for c in r.coords:
            assert base.check_value(c) == c
    # a kite on an equal but distinct shape has equal, equally hashed elements
    twin = mk(2, (0, 1), (1, 0), RAW_BASES[name]())
    assert twin.shape is not kite.shape and twin.base is not base
    pairs = list(zip(sample, twin.elements(w)))
    pairs += [(kite.zero, twin.zero), (kite.one, twin.one)]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)


# -- memoised operations ------------------------------------------------------------


class RefKite:
    """Kite operations on plain (tag, coords) tuples, written from the
    addition rules in the kite module docstring. The complements solve
    d + x = 1 and x + d = 1 for d, the differences solve c + a = b and
    a + c = b for c, and oplus is x + (x~ and y) with x~ the right
    complement."""

    def __init__(self, n, lam, rho, base):
        self.n, self.base = n, base
        self.lam_inv = {j: i for i, j in enumerate(lam)}  # i -> lam^-1(i)
        self.rho_inv = {j: i for i, j in enumerate(rho)}
        self.e = base.identity_value()
        self.one = (UPPER, (self.e,) * n)

    def add(self, x, y):
        (xt, xs), (yt, ys) = x, y
        mul, idx = self.base.mul_values, range(self.n)
        if xt == LOWER and yt == LOWER:
            # lower(f) + lower(g) = lower(< f_j * g_j >)
            return LOWER, tuple(mul(xs[j], ys[j]) for j in idx)
        if xt == UPPER and yt == UPPER:
            return None
        if xt == UPPER:
            # upper(u) + lower(f) = upper(< u_i * f[rho^-1(i)] >)
            prods = tuple(mul(xs[i], ys[self.rho_inv[i]]) for i in idx)
        else:
            # lower(f) + upper(u) = upper(< f[lam^-1(i)] * u_i >)
            prods = tuple(mul(xs[self.lam_inv[i]], ys[i]) for i in idx)
        if all(self.base.leq_values(p, self.e) for p in prods):
            return UPPER, prods
        return None

    def complement_left(self, x):
        tag, xs = x
        inv, d = self.base.inv_value, [None] * self.n
        for i in range(self.n):
            if tag == LOWER:    # u_i * f[rho^-1(i)] = e
                d[i] = inv(xs[self.rho_inv[i]])
            else:               # f[lam^-1(i)] * u_i = e
                d[self.lam_inv[i]] = inv(xs[i])
        return (UPPER if tag == LOWER else LOWER), tuple(d)

    def complement_right(self, x):
        tag, xs = x
        inv, d = self.base.inv_value, [None] * self.n
        for i in range(self.n):
            if tag == LOWER:    # f[lam^-1(i)] * u_i = e
                d[i] = inv(xs[self.lam_inv[i]])
            else:               # u_i * f[rho^-1(i)] = e
                d[self.rho_inv[i]] = inv(xs[i])
        return (UPPER if tag == LOWER else LOWER), tuple(d)

    def ldiff(self, b, a):
        """The c with c + a = b, or None."""
        (bt, bs), (at, as_) = b, a
        mul, inv, d = self.base.mul_values, self.base.inv_value, [None] * self.n
        if bt == LOWER and at == UPPER:
            return None
        for i in range(self.n):
            if bt == LOWER:       # c_j * a_j = b_j
                d[i] = mul(bs[i], inv(as_[i]))
            elif at == LOWER:     # c_i * a[rho^-1(i)] = b_i
                d[i] = mul(bs[i], inv(as_[self.rho_inv[i]]))
            else:                 # c[lam^-1(i)] * a_i = b_i
                d[self.lam_inv[i]] = mul(bs[i], inv(as_[i]))
        c = (UPPER if bt == UPPER and at == LOWER else LOWER), tuple(d)
        return c if self._is_element(c) and self.add(c, a) == b else None

    def rdiff(self, a, b):
        """The c with a + c = b, or None."""
        (at, as_), (bt, bs) = a, b
        mul, inv, d = self.base.mul_values, self.base.inv_value, [None] * self.n
        if bt == LOWER and at == UPPER:
            return None
        for i in range(self.n):
            if bt == LOWER:       # a_j * c_j = b_j
                d[i] = mul(inv(as_[i]), bs[i])
            elif at == LOWER:     # a[lam^-1(i)] * c_i = b_i
                d[i] = mul(inv(as_[self.lam_inv[i]]), bs[i])
            else:                 # a_i * c[rho^-1(i)] = b_i
                d[self.rho_inv[i]] = mul(inv(as_[i]), bs[i])
        c = (UPPER if bt == UPPER and at == LOWER else LOWER), tuple(d)
        return c if self._is_element(c) and self.add(a, c) == b else None

    def _is_element(self, x):
        """Lower coordinates positive, upper coordinates negative."""
        leq = self.base.leq_values
        if x[0] == LOWER:
            return all(leq(self.e, c) for c in x[1])
        return all(leq(c, self.e) for c in x[1])

    def meet(self, x, y):
        if x[0] != y[0]:
            return x if x[0] == LOWER else y
        meet = self.base.meet_values
        return x[0], tuple(meet(a, b) for a, b in zip(x[1], y[1]))

    def oplus(self, x, y):
        return self.add(x, self.meet(self.complement_right(x), y))


@functools.cache
def _positive_pool(name):
    return cone_window(RAW_BASES[name](), Window(2))


@st.composite
def kite_cases(draw):
    """A base name, a random shape and up to four (tag, positive coords)."""
    name = draw(st.sampled_from(sorted(RAW_BASES)))
    n = draw(st.integers(0, 3))
    lam = tuple(draw(st.permutations(range(n))))
    rho = tuple(draw(st.permutations(range(n))))
    coords = st.lists(st.sampled_from(_positive_pool(name)),
                      min_size=n, max_size=n).map(tuple)
    operands = draw(st.lists(st.tuples(st.sampled_from((LOWER, UPPER)), coords),
                             min_size=1, max_size=4))
    return name, n, lam, rho, operands


def _plain(z):
    return None if z is None else (z.tag, z.coords)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=kite_cases())
def test_memoised_operations_match_plain_tuple_reference(case):
    name, n, lam, rho, drawn = case
    base = RAW_BASES[name]()
    kite, ref = mk(n, lam, rho, base), RefKite(n, lam, rho, base)
    elems = [(tag, cs if tag == LOWER else tuple(base.inv_value(c) for c in cs))
             for tag, cs in drawn]
    # complements make defined mixed sums common
    elems += [ref.complement_left(x) for x in elems]
    elems += [ref.complement_right(x) for x in elems]

    def build(x):
        # a fresh element on every call, so a hit is found by value
        return kite.lower(*x[1]) if x[0] == LOWER else kite.upper(*x[1])

    for x in elems:
        assert ref.add(ref.complement_left(x), x) == ref.one
        assert ref.add(x, ref.complement_right(x)) == ref.one
        for _ in range(2):  # the first call misses, the second hits
            assert _plain(kite.complement_left(build(x))) == ref.complement_left(x)
            assert _plain(kite.complement_right(build(x))) == ref.complement_right(x)
    for x, y in itertools.product(elems, repeat=2):
        for _ in range(2):
            assert _plain(kite.add(build(x), build(y))) == ref.add(x, y)
            assert _plain(kite.ldiff(build(x), build(y))) == ref.ldiff(x, y)
            assert _plain(kite.rdiff(build(x), build(y))) == ref.rdiff(x, y)
            if base.is_lattice:
                assert _plain(kite.mv_oplus(build(x), build(y))) == ref.oplus(x, y)
            else:
                with pytest.raises(CapabilityError):
                    kite.mv_oplus(build(x), build(y))


def test_memo_checks_ownership_before_lookup():
    k = mk(2, (0, 1), (1, 0))
    x, y = k.lower(1, 0), k.upper(-1, -2)
    calls = [(k.add, (x, y)), (k.add, (y, x)), (k.add, (y, y)),
             (k.mv_oplus, (x, y)), (k.mv_oplus, (y, x)),
             (k.complement_left, (x,)), (k.complement_right, (y,)),
             (k.ldiff, (y, x)), (k.ldiff, (x, y)),
             (k.rdiff, (x, y)), (k.rdiff, (y, x))]
    warm = [op(*args) for op, args in calls]
    assert warm[2] is None and None not in warm[:2]
    # each difference is defined in one argument order and stored as None
    # in the other
    assert warm[7] is not None and warm[8] is None
    assert warm[9] is not None and warm[10] is None
    other = mk(2, (0, 1), (0, 1))
    twin = mk(2, (0, 1), (1, 0), Integers())
    assert other.shape != k.shape
    assert twin.shape == k.shape and twin.shape is not k.shape
    for (op, args), want in zip(calls, warm):
        for i, a in enumerate(args):
            # same tag and coords as a warmed operand, different shape
            foreign = list(args)
            foreign[i] = KiteElement(other.shape, a.tag, a.coords)
            with pytest.raises(UsageError):
                op(*foreign)
        assert op(*(KiteElement(twin.shape, a.tag, a.coords) for a in args)) == want


# -- interned elements --------------------------------------------------------------


def test_equal_elements_are_one_object():
    k = mk(2, (0, 1), (1, 0))
    x, u = k.lower(1, 0), k.upper(-1, -2)
    assert k.lower(1, 0) is x and k.upper(-1, -2) is u
    assert k.lower(0, 0) is k.zero and k.upper(0, 0) is k.one
    s = k.add(u, x)
    assert s is k.upper(-1, -1)
    assert k.add(x, x) is k.lower(2, 0) is k.mv_oplus(x, x)
    assert k.mv_oplus(u, k.upper(-2, -2)) is k.one
    assert k.complement_left(k.complement_right(x)) is x
    assert k.complement_right(k.complement_left(u)) is u
    assert k.ldiff(s, x) is u and k.rdiff(u, s) is x
    sample = k.elements(Window(2))
    for y, z in zip(sample, k.elements(Window(2, 9))):
        assert y is z
    for y in sample:
        assert (k.lower if y.tag == LOWER else k.upper)(*y.coords) is y
        assert y.kite is k


def test_interning_makes_no_memo_rows():
    k = mk(2, (0, 1), (1, 0))
    sample = k.elements(Window(2))
    assert len(sample) == 18
    memos = (k._add_rows, k._oplus_rows, k._ldiff_rows, k._rdiff_rows,
             k._left, k._right)
    assert not any(memos)
    x, u = k.lower(1, 0), k.upper(-1, -2)
    k.add(u, x)
    k.ldiff(k.one, x)
    assert (list(k._add_rows), list(k._ldiff_rows)) == ([u.id], [k.one.id])
    assert not any((k._oplus_rows, k._rdiff_rows, k._left, k._right))


def _interned_in(kite, r) -> bool:
    """Every kite element in an operation's result belongs to kite."""
    if isinstance(r, KiteElement):
        return r.kite is kite
    if isinstance(r, tuple):  # interval: (elements, exhaustive)
        return all(_interned_in(kite, v) for v in r[0])
    return True


def test_kites_sharing_one_shape_keep_separate_tables():
    shape = KiteShape(2, (0, 1), (1, 0), Z)
    first, second = Kite(shape), Kite(shape)
    w = Window(1)
    # shift the second kite's ids, then warm every row it has
    second.lower(3, 3)
    second.upper(-4, 0)
    own = second.elements(w)[::-1]
    unary = ("complement_left", "complement_right", "norm", "dimension",
             "own")
    binary = ("add", "leq", "ldiff", "rdiff", "mv_oplus", "mv_odot",
              "mv_add", "join", "meet")
    for name in unary:
        for y in own:
            getattr(second, name)(y)
    for name in binary:
        for y, z in itertools.product(own, repeat=2):
            getattr(second, name)(y, z)
    ops = ([(name, 1) for name in unary] + [(name, 2) for name in binary]
           + [("interval", 2)])
    sample = first.elements(w)
    assert [x.id for x in sample] != [second.own(x).id for x in sample]
    for name, arity in ops:
        for args in itertools.product(sample, repeat=arity):
            extra = (w,) if name == "interval" else ()
            want = getattr(first, name)(*args, *extra)
            mine = tuple(second.lower(*a.coords) if a.tag == LOWER
                         else second.upper(*a.coords) for a in args)
            got = getattr(second, name)(*args, *extra)
            assert got == want == getattr(second, name)(*mine, *extra), (
                name, args)
            assert _interned_in(second, got), (name, args)


def test_owner_and_id_stay_out_of_equality_hash_repr_and_serialization():
    shape = KiteShape(2, (0, 1), (1, 0), Z)
    k1, k2 = Kite(shape), Kite(shape)
    k2.lower(3, 3)
    a, b = k1.lower(1, 2), k2.lower(1, 2)
    bare = KiteElement(shape, LOWER, (1, 2))
    assert (a.kite, b.kite, bare.kite) == (k1, k2, None)
    assert a.id != b.id
    for y in (b, bare):
        assert a == y and y == a and hash(a) == hash(y)
        assert repr(y) == repr(a) == "L([1],[2])"
        assert y.serialized() == a.serialized()
        assert len({a, y}) == 1
    assert a != k1.lower(2, 1) and a != k1.upper(-1, -2)
    # shape, tag and coords decide equality; kite and id do not
    assert bare != KiteElement(KiteShape(2, (1, 0), (0, 1), Z), LOWER, (1, 2))
    assert bare != KiteElement(shape, UPPER, (1, 2))
    assert bare != KiteElement(shape, LOWER, (2, 1))
    moved = KiteElement(shape, LOWER, (1, 2), k2, 99)
    assert moved == bare and hash(moved) == hash(bare)


def test_boolean_base_values_are_refused():
    sc = mk(1, (0,), (0,), StrictCone2())
    for bad in ((True, True), (True, 1), (1, False)):
        with pytest.raises(UsageError):
            sc.lower(bad)
    assert repr(sc.lower((1, 1))) == "L([1, 1])"
    tl = TwistedLexGroup(1, (0,), (0,), Z)
    k = mk(1, (0,), (0,), tl)
    with pytest.raises(UsageError):
        k.lower((True, (0,)))
    with pytest.raises(UsageError):
        tl.check_value((False, (0,)))
    assert repr(k.lower((1, (0,)))) == repr(k.lower((1, [0])))
    params = {"lam": [0], "rho": [0], "base": "z"}
    with pytest.raises(UsageError):
        parse_group({"kind": "TwistedLex", "params": {"n": True, **params}})
    assert parse_group({"kind": "TwistedLex",
                        "params": {"n": 1, **params}}) == tl
