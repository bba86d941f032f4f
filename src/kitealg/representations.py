"""Interval algebras over a unit, twisted lexicographic witness groups, and
window isomorphism verification between kites and interval algebras.

The bridge objects here are finite piecewise maps (MapSpec): a lower element
maps to leading integer 0 and an upper element to leading integer 1, with the
coordinate tuple re-indexed through a stored permutation per tag. A symmetric
kite's perfect representation uses the construction's own map, the identity
re-indexing. The bundled registry, data/mapspecs.json, is a fixed file of
known maps that stored_mapspec reads for the acceptance fixtures; nothing
writes the file.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from typing import Any, Optional

from . import perms
from . import pogroup as pg
from .axioms import Algebra
from .kite import Kite, KiteElement, KiteShape, LOWER
from .pogroup import (Integers, PoGroup, PositiveCone, TwistedLexGroup,
                      UsageError, Window)
from .record import Frozen, setfield
from .verdict import Tally, Verdict


class IntervalPEA(PositiveCone):
    """The interval [0, u] of a po-group, with a + b defined iff a*b <= u:
    the positive cone cut at the unit, so order, differences, meet and
    intervals are the cone's, on raw values. The unit, a raw value checked
    by group.own, must be strictly positive. It has every member of
    axioms.Algebra, so the checkers take it directly.
    """

    _fields = ("group", "unit")

    def __init__(self, group: PoGroup, unit) -> None:
        super().__init__(group)
        u = group.own(unit)
        setfield(self, "unit", u)
        setfield(self, "one", u)
        if u == self.zero or not group.leq_values(self.zero, u):
            raise UsageError("unit must be strictly positive")

    def name(self) -> str:
        return f"Gamma({self.group.kind}, {self.group.serialize_value(self.unit)})"

    def elements(self, w: Window) -> list:
        lst, _ = self.interval(self.zero, self.unit, Window(w.height))
        return lst if w.cap is None else lst[: w.cap]

    def add(self, a, b):
        s = self.group.mul_values(a, b)
        return s if self.group.leq_values(s, self.unit) else None

    def complement_left(self, x):
        return self.group.mul_values(self.unit, self.group.inv_value(x))

    def complement_right(self, x):
        return self.group.mul_values(self.group.inv_value(x), self.unit)

    def mv_oplus(self, a, b):
        return self.meet(self.group.mul_values(a, b), self.unit)

    def multiples_defined(self, x, k: int) -> bool:
        """True when x, 2x, ..., kx are all below the unit."""
        g, u, s = self.group, self.unit, x
        for _ in range(k - 1):
            s = g.mul_values(s, x)
            if not g.leq_values(s, u):
                return False
        return True


def twisted_lex_group(n: int, lam, rho, base: PoGroup) -> TwistedLexGroup:
    """Integer-led lexicographic group with coordinate twisting. The two
    index bijections must commute; no group-law check runs at construction."""
    return TwistedLexGroup(n, lam, rho, base)


# -- piecewise window maps ----------------------------------------------------


class MapSpec(Frozen):
    """Tagged re-indexing map from a kite to an interval algebra or a kite.

    Lower(f) goes to leading 0, Upper(u) to leading 1 (or to the same tags
    when apply is given a Kite); new coordinate i reads old coordinate tau[i]
    for the tag's tuple. The two tables, permutations of one range(n), are
    the whole map; its JSON form adds "invert": false.
    """

    _fields = ("tau_lower", "tau_upper")

    def __init__(self, tau_lower, tau_upper) -> None:
        if not isinstance(tau_lower, (list, tuple)):
            raise UsageError(f"map spec index table: not a list: {tau_lower!r}")
        tau_lower, tau_upper = pg.check_perms(
            len(tau_lower), "map spec index table", tau_lower, tau_upper)
        setfield(self, "tau_lower", tau_lower)
        setfield(self, "tau_upper", tau_upper)

    def as_json(self) -> dict:
        return {"tauL": list(self.tau_lower),
                "tauU": list(self.tau_upper),
                "invert": False}

    @classmethod
    def from_json(cls, obj: dict) -> "MapSpec":
        if obj["invert"] is not False:
            raise UsageError("a map spec does not invert coordinates")
        return cls(obj["tauL"], obj["tauU"])

    def inverse(self) -> "MapSpec":
        """The inverse of a kite-to-kite re-indexing."""
        return MapSpec(perms.inverse(self.tau_lower),
                       perms.inverse(self.tau_upper))

    def apply(self, x: KiteElement, target) -> Any:
        """Image of a kite element in the target: a Kite, or an IntervalPEA
        of a TwistedLex group or (at n = 0) of Z, whose image is a raw value
        of its group, checked by it. Any other target raises UsageError, as
        do tables whose length is not x's arity or a Kite target's n."""
        n = len(self.tau_lower)
        if len(x.coords) != n or isinstance(target, Kite) and target.n != n:
            raise UsageError(f"a map spec on {n} coordinates does not fit "
                             f"{x!r} or its target kite")
        tau = self.tau_lower if x.tag == LOWER else self.tau_upper
        vals = tuple(x.coords[t] for t in tau)
        if isinstance(target, Kite):
            return target.intern(x.tag, vals)
        group = target.group if isinstance(target, IntervalPEA) else None
        lead = 0 if x.tag == LOWER else 1
        if isinstance(group, TwistedLexGroup):
            return group.check_value((lead, vals))
        if isinstance(group, Integers) and not vals:
            return group.check_value(lead)
        raise UsageError("a map spec maps only into a kite or an interval "
                         "of a TwistedLex group (of Z at n = 0)")


@functools.cache
def _registry() -> dict:
    """The bundled registry, read and parsed once per process. Only
    stored_mapspec reads it, and it hands out frozen MapSpecs, not entries."""
    data = resources.files("kitealg").joinpath("data/mapspecs.json")
    return json.loads(data.read_text())


def stored_mapspec(key: str) -> Optional[MapSpec]:
    """Golden map from the bundled registry, or None."""
    entry = _registry().get(key)
    return None if entry is None else MapSpec.from_json(entry)


# -- window isomorphism verification -------------------------------------------


def verify_iso(P: Algebra, Q: Algebra, m, w: Window) -> Verdict:
    """Window check that m is an isomorphism from P onto Q.

    m is a MapSpec (applied into Q) or a callable; a None image raises
    UsageError. Zero/one preservation, injectivity, order in both
    directions, and definedness plus value of + in both directions are
    exact, because images of off-window sums are still computable; only
    unreached target window elements count as skips.
    """
    ps, qs = P.serialize, Q.serialize
    if isinstance(m, MapSpec):
        fn = functools.partial(m.apply, target=Q)
    else:
        def fn(x):
            img = m(x)
            if img is None:
                raise UsageError(f"the map has no image for {ps(x)}")
            return img
    t = Tally()
    pw = P.elements(w)
    qw = Q.elements(w)
    images = {x: fn(x) for x in pw}
    rev: dict = {}
    for x, img in images.items():
        if img in rev:
            return t.fail({"a": ps(rev[img]), "b": ps(x),
                           "image": qs(img)}, "two elements share an image")
        rev[img] = x
        t.hit()
    if P.zero in images and images[P.zero] != Q.zero:
        return t.fail({"zero_image": qs(images[P.zero])},
                      "zero is not preserved")
    if P.one in images and images[P.one] != Q.one:
        return t.fail({"one_image": qs(images[P.one])},
                      "one is not preserved")
    pairs = [(x, y) for x in images for y in images]
    for x, y in pairs:
        ix, iy = images[x], images[y]
        if P.leq(x, y) != Q.leq(ix, iy):
            return t.fail({"x": ps(x), "y": ps(y)},
                          "order is not preserved both ways")
        s = P.add(x, y)
        s2 = Q.add(ix, iy)
        if (s is None) != (s2 is None):
            side = "source" if s is None else "target"
            return t.fail({"x": ps(x), "y": ps(y)},
                          f"sum defined only on the {side} side")
        if s is not None:
            imgs = fn(s)
            if imgs != s2:
                return t.fail({"x": ps(x), "y": ps(y),
                               "expected": qs(s2), "got": qs(imgs)},
                              "sum value is not preserved")
        t.hit()
    hit_set = set(images.values())
    for q in qw:
        if q in hit_set:
            t.hit()
        else:
            t.skip("target window element not reached")
    return t.done("window bijection preserving order and partial sums")


# -- representation fixtures ----------------------------------------------------


def perfect_representation(kite: Kite, w: Window):
    """(interval target, map, verdict) for a symmetric kite.

    The target is the interval [0, (1, e...)] of the twisted lexicographic
    group with both twists equal to the kite's. The map is the
    construction's own, lower(f) to (0, f) and upper(u) to (1, u): the
    kite's three sum cases are the group product at leading integers 0 and
    1. The verdict is verify_iso's on that map.
    """
    shape = kite.shape
    if shape.lam != shape.rho:
        raise UsageError("perfect representation needs a symmetric shape")
    if not kite.base.is_lattice:
        raise UsageError("perfect representation needs a lattice-ordered "
                         "base (for its RDP1)")
    wgroup = twisted_lex_group(shape.n, shape.lam, shape.lam, kite.base)
    target = IntervalPEA(wgroup, wgroup.strong_unit())
    ident = tuple(perms.identity(shape.n))
    spec = MapSpec(ident, ident)
    return target, spec, verify_iso(kite, target, spec, w)


def scrimger_fixture(n: int):
    """(kite shape, witness group, map) for the n-cycle fixture.

    The shape keeps lam = identity and rotates rho down by one; the witness
    group carries the mirrored orientation (lam rotated, rho identity), which
    is the orientation that verifies, so the map re-indexes through
    reflections: tauU(i) = -i mod n, tauL(i) = (1 - i) mod n. The registry
    stores it for n = 2, 3 and 4.
    """
    if n < 2:
        raise UsageError("the cyclic fixture needs n >= 2")
    base = Integers()
    dec = tuple((i - 1) % n for i in range(n))
    shape = KiteShape(n=n, lam=tuple(perms.identity(n)), rho=dec, base=base)
    group = twisted_lex_group(n, dec, tuple(perms.identity(n)), base)
    spec = MapSpec(tau_lower=tuple((1 - i) % n for i in range(n)),
                   tau_upper=tuple((-i) % n for i in range(n)))
    return shape, group, spec
