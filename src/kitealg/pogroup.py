"""Partially ordered groups with bounded enumeration.

Groups are written multiplicatively in the API. Each backend stores whatever
value representation is convenient (plain ints for the integers backend) and
exposes the same value-level operations: mul_values, inv_value, leq_values,
norm_value, serialization, and finite "window" enumeration bounded by a
coordinate norm. Two coordinate kernels act on whole tuples of values, as a
kite's coordinates are: leq_coords (every coordinate below its partner) and
mul_coords (the coordinatewise product). Integers runs both, and a product
of Integers (Z^k) runs every value operation, in C-level maps.

The window norm is the maximum absolute value of the integers appearing in the
element's canonical serialization. Window enumeration is deterministic, sorted
ascending by (norm, serialized value), contains the identity, and is closed
under inversion; a cap keeps its lowest prefix. Every value is raw. own,
mul, inv, leq, join, meet and deserialize check the values that come in from
outside with the backend's check_value, and the *_values operations, which
the layers above call, do not; a malformed value raises UsageError in every
backend. A group is identified by its descriptor: groups built apart from
equal descriptors are equal.

Order queries never guess: incomparability is op_leq false in both directions.
"""

from __future__ import annotations

import itertools
import json
import operator
from typing import Iterable, Iterator

from . import perms
from .record import Frozen, setfield
from .verdict import Tally, Verdict


class UsageError(ValueError):
    """Invalid construction or misuse of the API (wrong group, bad shape)."""


class CapabilityError(UsageError):
    """Operation requires a capability the structure does not have."""


def check_perms(n: int, what: str, *tables) -> tuple:
    """The tables as tuples, each a permutation of range(n), or UsageError
    led by what; n must be a non-negative int, not a bool."""
    if type(n) is not int or n < 0:
        raise UsageError(f"{what}: n must be a non-negative integer, not {n!r}")
    try:
        return tuple(tuple(perms.check_perm(p, n)) for p in tables)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}")


class Window(Frozen):
    """Enumeration bound.

    height bounds the coordinate norm; cap, when set, truncates every carrier
    sample (enumerate_window, cone_window, each algebra's elements) to its
    lowest-norm prefix of that many elements; uncapped() is the whole window.
    Checks report how many elements they actually quantified over.
    """

    _fields = ("height", "cap")

    def __init__(self, height: int, cap: int | None = None) -> None:
        # a bool is an int to Python, but not a bound
        if type(height) is not int or height < 0:
            raise UsageError(f"window height must be an integer >= 0, "
                             f"not {height!r}")
        if cap is not None and (type(cap) is not int or cap < 1):
            raise UsageError(f"window cap must be an integer >= 1, not {cap!r}")
        setfield(self, "height", height)
        setfield(self, "cap", cap)
        # windows key many memos, so hash the fields once
        setfield(self, "_hash", hash((height, cap)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Window:
            return NotImplemented
        return self.height == other.height and self.cap == other.cap

    def __hash__(self) -> int:
        return self._hash

    def uncapped(self) -> "Window":
        return Window(self.height)


class PoGroup:
    """Base class for the pluggable po-group backends.

    Subclasses set their parameters before calling this constructor, which
    fixes the structural key: describe() as canonical JSON. Groups are
    immutable after construction.

    leq_coords and mul_coords are the coordinate kernels: one call answers
    for two equally long iterables of values, such as a kite's coordinates.
    Here they map leq_values and mul_values over the coordinates; Integers
    overrides them with C-level maps.
    """

    kind = "?"

    def __init__(self) -> None:
        self.key = json.dumps(self.describe(), sort_keys=True)
        self._hash = hash(self.key)

    # -- identity & structural equality ------------------------------------

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, PoGroup)
                                 and self.key == other.key)

    def __hash__(self) -> int:
        return self._hash

    # -- capability flags ---------------------------------------------------

    # every backend is directed; a lattice-ordered group also has RDP2.
    # Whether a window holds a whole interval is a question about the two
    # ends, so interval_exhaustive answers it
    is_lattice = False
    is_abelian = False
    is_trivial = False

    # -- core operations ----------------------------------------------------

    def identity_value(self):
        raise NotImplementedError

    def check_value(self, value):
        """value in this group's own form, or UsageError."""
        raise NotImplementedError

    def own(self, value):
        """The checked value of an argument from outside (check_value)."""
        return self.check_value(value)

    def mul_values(self, x, y):
        raise NotImplementedError

    def inv_value(self, x):
        raise NotImplementedError

    def leq_values(self, x, y) -> bool:
        raise NotImplementedError

    def leq_coords(self, xs, ys) -> bool:
        """True when xs[i] <= ys[i] for every i."""
        return all(map(self.leq_values, xs, ys))

    def mul_coords(self, xs, ys) -> tuple:
        """The coordinatewise product (xs[i] ys[i])."""
        return tuple(map(self.mul_values, xs, ys))

    def mul(self, a, b):
        return self.mul_values(self.own(a), self.own(b))

    def inv(self, a):
        return self.inv_value(self.own(a))

    def leq(self, a, b) -> bool:
        return self.leq_values(self.own(a), self.own(b))

    def join(self, a, b):
        return self._lattice_op(self.join_values, a, b)

    def meet(self, a, b):
        return self._lattice_op(self.meet_values, a, b)

    def _lattice_op(self, op, a, b):
        a, b = self.own(a), self.own(b)
        if not self.is_lattice:
            raise CapabilityError(f"{self.kind} is not a lattice group")
        return op(a, b)

    def join_values(self, x, y):
        raise CapabilityError(f"{self.kind} is not a lattice group")

    def meet_values(self, x, y):
        raise CapabilityError(f"{self.kind} is not a lattice group")

    # -- serialization / norms ----------------------------------------------

    def value_key(self, value) -> tuple:
        """The value as a flat integer tuple: its sort key and, as a list,
        its serialization."""
        raise NotImplementedError

    def serialize_value(self, value):
        """The JSON form of a value: its value_key as a list."""
        return list(self.value_key(value))

    def _read_key(self, ints: Iterator):
        """The raw value whose value_key comes next in ints."""
        raise NotImplementedError

    def norm_value(self, value) -> int:
        """The largest absolute integer in the serialization."""
        return max(map(abs, self.value_key(value)), default=0)

    def sort_key(self, value) -> tuple:
        """(norm, value_key) of a raw value: the window order."""
        return (self.norm_value(value),) + self.value_key(value)

    def deserialize(self, obj):
        """Read back a serialize_value list, exactly one value_key, as a
        checked raw value."""
        ints = iter(obj) if isinstance(obj, list) else iter(())
        try:
            x = self.check_value(self._read_key(ints))
        except StopIteration:
            raise UsageError(f"{self.kind}: {obj!r} is not one value_key list")
        if list(ints):
            raise UsageError(f"{self.kind}: {obj!r} has integers left over")
        return x

    def describe(self) -> dict:
        return {"kind": self.kind, "params": self._params()}

    def _params(self) -> dict:
        return {}

    # -- enumeration ----------------------------------------------------------

    def ball_values(self, height: int) -> Iterator:
        """All values with norm <= height, any order, no duplicates."""
        raise NotImplementedError

    def interval_exhaustive(self, lo, hi) -> bool:
        """True when the window of lo's and hi's larger norm holds all of
        [lo, hi]; the norms of Integers and StrictCone2 are order-convex."""
        return True


# ---------------------------------------------------------------------------
# backends


# the value operations of Z^k on whole value tuples
def _zk_leq(x, y):
    return all(map(operator.le, x, y))


def _zk_mul(x, y):
    return tuple(map(operator.add, x, y))


def _zk_inv(x):
    return tuple(map(operator.neg, x))


def _zk_join(x, y):
    return tuple(map(max, x, y))


def _zk_meet(x, y):
    return tuple(map(min, x, y))


def _fixed(value, k: int, kind: str) -> tuple:
    """value as a tuple of exactly k items; UsageError otherwise."""
    try:
        t = tuple(value)
    except TypeError:
        t = None
    if t is None or len(t) != k:
        raise UsageError(f"{kind} value must have {k} components, got {value!r}")
    return t


class Integers(PoGroup):
    """(Z, +) with the natural total order; norm is absolute value."""

    kind = "Integers"
    is_lattice = True
    is_abelian = True

    def identity_value(self):
        return 0

    def check_value(self, value):
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError(f"Integers value must be int, got {value!r}")
        return value

    def mul_values(self, x, y):
        return x + y

    def inv_value(self, x):
        return -x

    def leq_values(self, x, y):
        return x <= y

    # the coordinate kernels in C-level maps; a Z^k product runs the same
    # two functions as its leq_values and mul_values
    leq_coords = staticmethod(_zk_leq)
    mul_coords = staticmethod(_zk_mul)

    def join_values(self, x, y):
        return max(x, y)

    def meet_values(self, x, y):
        return min(x, y)

    # join and meet are restated on each lattice backend so that traces can
    # time every backend's lattice operations separately
    def join(self, a, b):
        return self._lattice_op(self.join_values, a, b)

    def meet(self, a, b):
        return self._lattice_op(self.meet_values, a, b)

    def value_key(self, value) -> tuple:
        return (value,)

    def _read_key(self, ints):
        return next(ints)

    def ball_values(self, height):
        return iter(range(-height, height + 1))


class Product(PoGroup):
    """Direct product with the coordinatewise order.

    The empty product is the trivial group. Norm is the max component norm.
    When every component is Integers (Z^k), mul, inv, leq, join and meet
    act on whole value tuples with C-level maps; that choice is made here,
    from the components, and any other product keeps the component-wise
    methods below.
    """

    kind = "Product"

    def __init__(self, components: Iterable[PoGroup]):
        cs = self.components = tuple(components)
        self.is_lattice = all(c.is_lattice for c in cs)
        self.is_abelian = all(c.is_abelian for c in cs)
        self.is_trivial = all(c.is_trivial for c in cs)
        if all(type(c) is Integers for c in cs):
            self.mul_values, self.inv_value = _zk_mul, _zk_inv
            self.leq_values = _zk_leq
            self.join_values, self.meet_values = _zk_join, _zk_meet
        super().__init__()

    def identity_value(self):
        return tuple(c.identity_value() for c in self.components)

    def check_value(self, value):
        value = _fixed(value, len(self.components), self.kind)
        return tuple(c.check_value(v) for c, v in zip(self.components, value))

    def mul_values(self, x, y):
        return tuple([c.mul_values(a, b) for c, a, b in zip(self.components, x, y)])

    def inv_value(self, x):
        return tuple([c.inv_value(a) for c, a in zip(self.components, x)])

    def leq_values(self, x, y):
        return all(c.leq_values(a, b) for c, a, b in zip(self.components, x, y))

    def join_values(self, x, y):
        return tuple([c.join_values(a, b) for c, a, b in zip(self.components, x, y)])

    def meet_values(self, x, y):
        return tuple([c.meet_values(a, b) for c, a, b in zip(self.components, x, y)])

    # join and meet are restated on each lattice backend so that traces can
    # time every backend's lattice operations separately
    def join(self, a, b):
        return self._lattice_op(self.join_values, a, b)

    def meet(self, a, b):
        return self._lattice_op(self.meet_values, a, b)

    def value_key(self, value) -> tuple:
        return tuple(itertools.chain.from_iterable(
            c.value_key(v) for c, v in zip(self.components, value)))

    def _read_key(self, ints):
        # a list, not a generator: StopIteration must reach deserialize
        return tuple([c._read_key(ints) for c in self.components])

    def ball_values(self, height):
        pools = [list(c.ball_values(height)) for c in self.components]
        return iter(itertools.product(*pools))

    def interval_exhaustive(self, lo, hi):
        # the interval is the product of its components' intervals
        return all(c.interval_exhaustive(a, b)
                   for c, a, b in zip(self.components, lo, hi))

    def _params(self):
        return {"components": [c.describe() for c in self.components]}


def integer_product(k: int) -> Product:
    return Product([Integers() for _ in range(k)])


class StrictCone2(PoGroup):
    """Z^2 ordered by the cone {(0,0)} plus {(x,y): x >= 1 and y >= 1}.

    Directed but not a lattice; the standard negative fixture for
    interpolation and refinement failures.
    """

    kind = "StrictCone2"
    is_abelian = True

    def identity_value(self):
        return (0, 0)

    def check_value(self, value):
        x, y = _fixed(value, 2, self.kind)
        if any(not isinstance(v, int) or isinstance(v, bool) for v in (x, y)):
            raise UsageError("StrictCone2 values are integer pairs")
        return (x, y)

    @staticmethod
    def in_cone(v) -> bool:
        return v == (0, 0) or (v[0] >= 1 and v[1] >= 1)

    def mul_values(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def inv_value(self, x):
        return (-x[0], -x[1])

    def leq_values(self, x, y):
        return self.in_cone((y[0] - x[0], y[1] - x[1]))

    def value_key(self, value) -> tuple:
        return value

    def _read_key(self, ints):
        return (next(ints), next(ints))

    def ball_values(self, height):
        rng = range(-height, height + 1)
        return iter((x, y) for x in rng for y in rng)


class TwistedLexGroup(PoGroup):
    """Z lex G^n with multiplication twisted by commuting bijections.

    (m1, x) * (m2, y) = (m1 + m2, < x[lam^-m2(i)] y[rho^-m1(i)] >), ordered
    lexicographically: strictly by the leading integer, coordinatewise at
    equal leading integer. Requires lam and rho to commute. The index pairs
    (lam^-m2(i), rho^-m1(i)) are built once per (m1, m2) and kept.
    """

    kind = "TwistedLex"

    def __init__(self, n: int, lam, rho, base: PoGroup):
        self.n = n
        self.lam, self.rho = check_perms(n, "TwistedLex twist", lam, rho)
        if perms.compose(self.lam, self.rho) != perms.compose(self.rho, self.lam):
            raise UsageError("TwistedLex requires commuting index bijections")
        self.rho_lam = tuple(perms.compose(self.rho, self.lam))
        self._pairs: dict[tuple, list] = {}
        self.base = base
        self.is_lattice = base.is_lattice
        self.is_abelian = base.is_abelian and self.lam == self.rho
        super().__init__()

    def identity_value(self):
        e = self.base.identity_value()
        return (0, tuple(e for _ in range(self.n)))

    def check_value(self, value):
        m, coords = _fixed(value, 2, self.kind)
        if not isinstance(m, int) or isinstance(m, bool):
            raise UsageError("leading component must be int")
        coords = _fixed(coords, self.n, self.kind)
        return (m, tuple(self.base.check_value(c) for c in coords))

    def mul_values(self, x, y):
        m1, xs = x
        m2, ys = y
        pairs = self._pairs.get((m1, m2))
        if pairs is None:
            pairs = self._pairs[m1, m2] = list(zip(perms.power(self.lam, -m2),
                                                   perms.power(self.rho, -m1)))
        mul = self.base.mul_values
        return (m1 + m2, tuple([mul(xs[i], ys[j]) for i, j in pairs]))

    def inv_value(self, x):
        m, xs = x
        inv = self.base.inv_value
        return (-m, tuple([inv(xs[i]) for i in perms.power(self.rho_lam, m)]))

    def leq_values(self, x, y):
        m1, xs = x
        m2, ys = y
        if m1 != m2:
            return m1 < m2
        return self.base.leq_coords(xs, ys)

    def join_values(self, x, y):
        if x[0] != y[0]:
            return x if x[0] > y[0] else y
        join = self.base.join_values
        return (x[0], tuple(join(a, b) for a, b in zip(x[1], y[1])))

    def meet_values(self, x, y):
        if x[0] != y[0]:
            return x if x[0] < y[0] else y
        meet = self.base.meet_values
        return (x[0], tuple(meet(a, b) for a, b in zip(x[1], y[1])))

    # join and meet are restated on each lattice backend so that traces can
    # time every backend's lattice operations separately
    def join(self, a, b):
        return self._lattice_op(self.join_values, a, b)

    def meet(self, a, b):
        return self._lattice_op(self.meet_values, a, b)

    def serialize_value(self, value):
        """Nested: [m, [base serialization per coordinate]]."""
        m, coords = value
        return [m, [self.base.serialize_value(c) for c in coords]]

    def value_key(self, value) -> tuple:
        m, coords = value
        return (m,) + tuple(itertools.chain.from_iterable(
            self.base.value_key(c) for c in coords))

    def _read_key(self, ints):
        m = next(ints)
        return (m, tuple([self.base._read_key(ints) for _ in range(self.n)]))

    def deserialize(self, obj):
        if not (isinstance(obj, list) and len(obj) == 2
                and isinstance(obj[1], list)):
            raise UsageError(f"{self.kind}: {obj!r} is not [m, [coordinates]]")
        m, coords = obj
        return self.check_value((m, tuple(self.base.deserialize(c) for c in coords)))

    def ball_values(self, height):
        base_ball = list(self.base.ball_values(height))
        def gen():
            for m in range(-height, height + 1):
                for coords in itertools.product(base_ball, repeat=self.n):
                    yield (m, coords)
        return gen()

    def interval_exhaustive(self, lo, hi):
        # lex intervals across different leading integers are infinite; at
        # one leading integer the interval is the product of the base's
        # coordinate intervals
        return lo[0] == hi[0] and all(
            map(self.base.interval_exhaustive, lo[1], hi[1]))

    def strong_unit(self):
        """(1, e...): the raw unit of the interval a kite maps onto."""
        e = self.base.identity_value()
        return (1, tuple(e for _ in range(self.n)))

    def _params(self):
        return {"n": self.n, "lam": list(self.lam), "rho": list(self.rho),
                "base": self.base.describe()}


# ---------------------------------------------------------------------------
# window enumeration and bounded order checks


_window_cache: dict[tuple, list] = {}


def enumerate_window(group: PoGroup, w: Window) -> list:
    """All raw values with norm <= height, sorted by group.sort_key, capped."""
    key = (group.key, w.height)
    cached = _window_cache.get(key)
    if cached is None:
        cached = _window_cache[key] = sorted(group.ball_values(w.height),
                                             key=group.sort_key)
    return cached[: w.cap]


def cone_window(group: PoGroup, w: Window) -> list:
    """Positive window values (identity <= x), sorted, capped."""
    e, leq = group.identity_value(), group.leq_values
    return [x for x in enumerate_window(group, w.uncapped())
            if leq(e, x)][: w.cap]


def enumerate_interval(group: PoGroup, lo, hi, w: Window) -> tuple[list, bool]:
    """Window values x with lo <= x <= hi, plus an exhaustiveness flag."""
    leq = group.leq_values
    wide = Window(max(w.height, group.norm_value(lo), group.norm_value(hi)))
    out = [x for x in enumerate_window(group, wide) if leq(lo, x) and leq(x, hi)]
    return out, group.interval_exhaustive(lo, hi)


class PositiveCone(Frozen):
    """The positive cone of a po-group as a partial algebra for the Riesz
    checkers, on raw values: the sum is the group product, differences are
    defined when they stay in the cone, and the window sample is
    cone_window."""

    _fields = ("group",)

    def __init__(self, group: PoGroup) -> None:
        setfield(self, "group", group)
        setfield(self, "zero", group.identity_value())
        setfield(self, "is_lattice", group.is_lattice)

    def elements(self, w: Window) -> list:
        return cone_window(self.group, w)

    def add(self, a, b):
        return self.group.mul_values(a, b)

    def leq(self, a, b) -> bool:
        return self.group.leq_values(a, b)

    def ldiff(self, b, a):
        """The positive c with c * a = b, or None."""
        g = self.group
        c = g.mul_values(b, g.inv_value(a))
        return c if g.leq_values(self.zero, c) else None

    def rdiff(self, a, b):
        """The positive c with a * c = b, or None."""
        g = self.group
        c = g.mul_values(g.inv_value(a), b)
        return c if g.leq_values(self.zero, c) else None

    def meet(self, a, b):
        if not self.is_lattice:
            raise CapabilityError(f"{self.group.kind} is not a lattice group")
        return self.group.meet_values(a, b)

    def interval(self, a, b, w: Window) -> tuple[list, bool]:
        return enumerate_interval(self.group, a, b, w)

    def serialize(self, x):
        return self.group.serialize_value(x)


def check_group_laws(group: PoGroup, w: Window) -> Verdict:
    """Associativity, identity, inverses, translation invariance, cone sanity.

    Quantifies over the capped window sample for the triple and quadruple
    laws and over the whole window, w.uncapped(), for the unary ones.

    Works on raw values with the backend's value operations; witnesses are
    serialised with serialize_value. One table left[i][j][k] = (s_i s_j) s_k
    of the capped sample s serves both the associativity left side and
    translation invariance, where (x a) y is left[x][a][y].
    """
    full = enumerate_window(group, w.uncapped())
    sample = full[: w.cap]
    mul, inv, leq = group.mul_values, group.inv_value, group.leq_values
    ser = group.serialize_value
    e = group.identity_value()
    t = Tally()
    for a in full:
        t.hit()
        if mul(a, e) != a or mul(e, a) != a:
            return t.fail({"a": ser(a)}, reason="identity law broken")
        a_inv = inv(a)
        if mul(a, a_inv) != e or mul(a_inv, a) != e:
            return t.fail({"a": ser(a)}, reason="inverse law broken")
        if leq(e, a) and leq(a, e) and a != e:
            return t.fail({"a": ser(a)},
                          reason="positive and negative cone share a non-identity element")
    idx = range(len(sample))
    prod = [[mul(a, b) for b in sample] for a in sample]
    left = [[[mul(ab, c) for c in sample] for ab in row] for row in prod]
    for i in idx:
        a = sample[i]
        for j in idx:
            for k in idx:
                t.hit()
                if left[i][j][k] != mul(a, prod[j][k]):
                    return t.fail({"a": ser(a), "b": ser(sample[j]),
                                   "c": ser(sample[k])},
                                  reason="associativity broken")
    ordered = [(i, j) for i in idx for j in idx if leq(sample[i], sample[j])]
    for i, j in ordered:
        for x in idx:
            lhs, rhs = left[x][i], left[x][j]
            for y in idx:
                t.hit()
                if not leq(lhs[y], rhs[y]):
                    return t.fail(
                        {"a": ser(sample[i]), "b": ser(sample[j]),
                         "x": ser(sample[x]), "y": ser(sample[y])},
                        reason="order not translation invariant")
    if group.is_lattice:
        join, meet = group.join_values, group.meet_values
        for a in sample:
            for b in sample:
                t.hit()
                j = join(a, b)
                m = meet(a, b)
                if not (leq(a, j) and leq(b, j)):
                    return t.fail({"a": ser(a), "b": ser(b)},
                                  reason="join is not an upper bound")
                if not (leq(m, a) and leq(m, b)):
                    return t.fail({"a": ser(a), "b": ser(b)},
                                  reason="meet is not a lower bound")
                for c in sample:
                    if leq(a, c) and leq(b, c) and not leq(j, c):
                        return t.fail({"a": ser(a), "b": ser(b), "c": ser(c)},
                                      reason="join is not least among window bounds")
                    if leq(c, a) and leq(c, b) and not leq(c, m):
                        return t.fail({"a": ser(a), "b": ser(b), "c": ser(c)},
                                      reason="meet is not greatest among window bounds")
    return t.done()


# ---------------------------------------------------------------------------
# descriptors


def parse_group(desc) -> PoGroup:
    """Build a group from a JSON-style descriptor or a shortcut name."""
    if isinstance(desc, str):
        name = desc.strip().lower()
        shortcuts = {
            "z": lambda: Integers(),
            "integers": lambda: Integers(),
            "z2": lambda: integer_product(2),
            "z3": lambda: integer_product(3),
            "trivial": lambda: Product(()),
            "strictcone2": lambda: StrictCone2(),
        }
        if name in shortcuts:
            return shortcuts[name]()
        raise UsageError(f"unknown group shortcut {desc!r}")
    if not isinstance(desc, dict) or "kind" not in desc:
        raise UsageError("group descriptor must be a name or a dict with 'kind'")
    kind = desc["kind"]
    params = desc.get("params", {})
    if not isinstance(params, dict):
        raise UsageError("group 'params' must be an object")
    if kind == "Integers":
        return Integers()
    if kind == "Product":
        components = params.get("components", [])
        if not isinstance(components, list):
            raise UsageError("Product 'components' must be a list")
        return Product([parse_group(c) for c in components])
    if kind == "StrictCone2":
        return StrictCone2()
    if kind == "TwistedLex":
        missing = [k for k in ("n", "lam", "rho", "base") if k not in params]
        if missing:
            raise UsageError(f"TwistedLex params lack {', '.join(missing)}")
        return TwistedLexGroup(params["n"], params["lam"], params["rho"],
                               parse_group(params["base"]))
    raise UsageError(f"unknown group kind {kind!r}")
