"""Interval algebras over a unit, twisted lexicographic witness groups, and
window isomorphism verification between kites and interval algebras.

The bridge objects here are finite piecewise maps (MapSpec): a lower element
maps to leading integer 0 and an upper element to leading integer 1, with the
coordinate tuple re-indexed through a stored permutation per tag and
optionally inverted. Candidate permutations come from a small closed family
(identity, the two twisting bijections and their inverses, powers of
sigma = rho o lam^-1, and index reflections). The bundled registry,
data/mapspecs.json, is a fixed file of known maps that stored_mapspec reads;
a stored map is replayed instead of searching, and nothing writes the file.
"""

from __future__ import annotations

import itertools
import json
from importlib import resources
from typing import Any, Callable, Optional

from . import perms
from . import pogroup as pg
from .axioms import Algebra
from .kite import Kite, KiteElement, KiteShape, LOWER
from .pogroup import (Elem, Integers, PoGroup, PositiveCone, TwistedLexGroup,
                      UsageError, Window)
from .record import Frozen, setfield
from .verdict import Tally, Verdict


class IntervalPEA(PositiveCone):
    """The interval [0, u] of a po-group, with a + b defined iff a*b <= u:
    the positive cone cut at the unit, so order, differences, meet and
    intervals are the cone's, on raw values. The unit, an Elem of the group,
    must be strictly positive. It has every member of axioms.Algebra, so the
    checkers take it directly.
    """

    _fields = ("group", "unit")

    def __init__(self, group: PoGroup, unit: Elem) -> None:
        super().__init__(group)
        group.own(unit)
        u = unit.value
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
    """Integer-led lexicographic group with coordinate twisting.

    The two index bijections must commute. Group laws are re-checked on a
    small window at construction as a guard against bad parameters.
    """
    g = TwistedLexGroup(n, lam, rho, base)
    laws = pg.check_group_laws(g, Window(1, 8))
    if laws.failed:
        raise UsageError(f"construction self-check failed: {laws.describe()}")
    return g


# -- piecewise window maps ----------------------------------------------------


class MapSpec(Frozen):
    """Tagged re-indexing map from a kite to an interval algebra or a kite.

    Lower(f) goes to leading 0, Upper(u) to leading 1 (or to the same tags
    when apply is given a Kite); new coordinate i reads old coordinate tau[i]
    for the tag's tuple, inverted elementwise when invert is set. The fields
    are exactly the JSON form, so equal JSON means equal maps.
    """

    _fields = ("tau_lower", "tau_upper", "invert")

    def __init__(self, tau_lower, tau_upper, invert: bool = False) -> None:
        tau_lower, tau_upper = tuple(tau_lower), tuple(tau_upper)
        for tau in (tau_lower, tau_upper):
            if sorted(tau) != list(range(len(tau))):
                raise UsageError("index tables must be permutations")
        setfield(self, "tau_lower", tau_lower)
        setfield(self, "tau_upper", tau_upper)
        setfield(self, "invert", invert)

    def as_json(self) -> dict:
        return {"tauL": list(self.tau_lower),
                "tauU": list(self.tau_upper),
                "invert": self.invert}

    @classmethod
    def from_json(cls, obj: dict) -> "MapSpec":
        return cls(obj["tauL"], obj["tauU"], bool(obj["invert"]))

    def inverse(self) -> "MapSpec":
        """The inverse of a kite-to-kite re-indexing."""
        if self.invert:
            raise UsageError("coordinate-inverting maps do not invert here")
        return MapSpec(perms.inverse(self.tau_lower),
                       perms.inverse(self.tau_upper))

    def apply(self, x: KiteElement, target) -> Optional[Any]:
        """Image of a kite element in the target, a Kite or an IntervalPEA
        (a raw value of its group, checked by it); None when not
        representable."""
        tau = self.tau_lower if x.tag == LOWER else self.tau_upper
        vals = tuple(x.coords[t] for t in tau)
        if self.invert:
            inv = x.shape.base.inv_value
            vals = tuple(inv(v) for v in vals)
        if isinstance(target, Kite):
            return target.intern(x.tag, vals)
        group = target.group
        lead = 0 if x.tag == LOWER else 1
        if isinstance(group, TwistedLexGroup):
            return group.check_value((lead, vals))
        if isinstance(group, Integers) and not vals:
            return group.check_value(lead)
        return None


def mapspec_family(shape: KiteShape) -> tuple:
    """Closed candidate family, deterministic order, identity maps first."""
    n = shape.n
    ident = tuple(perms.identity(n))
    sigma = tuple(perms.compose(shape.rho, perms.inverse(shape.lam)))
    cands = [ident, tuple(shape.lam), tuple(shape.rho),
             tuple(perms.inverse(shape.lam)), tuple(perms.inverse(shape.rho))]
    power = ident
    for _ in range(n):
        power = tuple(perms.compose(sigma, power))
        cands.append(power)
    for k in range(n):
        cands.append(tuple((k - i) % n for i in range(n)))
    distinct = list(dict.fromkeys(cands))
    return tuple(MapSpec(tau_l, tau_u, inv) for tau_l, tau_u, inv
                 in itertools.product(distinct, distinct, (False, True)))


def _registry() -> dict:
    data = resources.files("kitealg").joinpath("data/mapspecs.json")
    return json.loads(data.read_text())


def stored_mapspec(key: str) -> Optional[MapSpec]:
    """Golden map from the bundled registry, or None."""
    entry = _registry().get(key)
    if entry is None:
        return None
    return MapSpec.from_json(entry)


# -- window isomorphism verification -------------------------------------------


def verify_iso(P: Algebra, Q: Algebra, m, w: Window) -> Verdict:
    """Window check that m is an isomorphism from P onto Q.

    m is a MapSpec (applied into Q, a Kite or an IntervalPEA) or a plain
    callable. Zero/one preservation, injectivity, order in both directions,
    and definedness plus value of + in both directions are exact, because
    images of off-window sums are still computable; only unreached target
    window elements count as skips.
    """
    fn: Callable = (lambda x: m.apply(x, Q)) if isinstance(m, MapSpec) else m
    ps, qs = P.serialize, Q.serialize
    t = Tally()
    pw = P.elements(w)
    qw = Q.elements(w)
    images = {}
    for x in pw:
        img = fn(x)
        if img is None:
            t.skip("image not representable")
            continue
        images[x] = img
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
            if imgs is None:
                t.skip("image of a sum not representable")
                continue
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
    group with both twists equal to the kite's; the map is searched over the
    candidate family, preferring a stored golden entry.
    """
    shape = kite.shape
    if shape.lam != shape.rho:
        raise UsageError("perfect representation needs a symmetric shape")
    if not kite.base.is_lattice:
        raise UsageError("perfect representation needs a lattice-ordered "
                         "base (for its RDP1)")
    wgroup = twisted_lex_group(shape.n, shape.lam, shape.lam, kite.base)
    target = IntervalPEA(wgroup, wgroup.strong_unit())
    key = f"perfect:{shape.n}:{perms.perm_name(shape.lam)}"
    stored = stored_mapspec(key)
    candidates = (stored,) if stored is not None else mapspec_family(shape)
    best: Optional[Verdict] = None
    best_spec: Optional[MapSpec] = None
    for spec in candidates:
        v = verify_iso(kite, target, spec, w)
        if v.ok:
            return target, spec, v
        if best is None or (best.failed and not v.failed):
            best, best_spec = v, spec
    return target, best_spec, best


def scrimger_fixture(n: int):
    """(kite shape, witness group, stored map) for the n-cycle fixture.

    The shape keeps lam = identity and rotates rho down by one; the witness
    group carries the mirrored orientation (lam rotated, rho identity), which
    is the orientation that verifies, so the stored map re-indexes through
    reflections: tauU(i) = -i mod n, tauL(i) = (1 - i) mod n.
    """
    if n < 2:
        raise UsageError("the cyclic fixture needs n >= 2")
    base = Integers()
    dec = tuple((i - 1) % n for i in range(n))
    shape = KiteShape(n=n, lam=tuple(perms.identity(n)), rho=dec, base=base)
    group = twisted_lex_group(n, dec, tuple(perms.identity(n)), base)
    spec = stored_mapspec(f"scrimger:{n}")
    if spec is None:
        spec = MapSpec(tau_lower=tuple((1 - i) % n for i in range(n)),
                       tau_upper=tuple((-i) % n for i in range(n)))
    return shape, group, spec
