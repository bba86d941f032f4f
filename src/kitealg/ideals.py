"""Ideal machinery for kites: closures, normality, generated normal ideals,
orbit connectivity, least normal ideals, and the o-ideal correspondence.

An ideal here is always a window-truncated finite set: downward closed and
closed under defined sums that stay inside the window sample. Normality is
checked by solving, for every sampled x and ideal member y, the equations
z + x = x + y and x + z = y + x; the solution is unique in a pseudo effect
algebra, so a solution found inside the window but outside the ideal is a
definite failure, while a solution outside the window only counts as a skip.

Connectivity of the two twisting bijections drives everything in the second
half: sigma = rho o lam^-1 is reported per shape, while element-level orbit
component ideals are built along lam^-1 o rho, which is conjugate to sigma
and is the permutation that actually moves lower-element supports under
normality twists.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from . import perms
from . import pogroup as pg
from .axioms import Algebra
from .kite import Kite, KiteShape, LOWER
from .pogroup import (Integers, PoGroup, Product, StrictCone2, TwistedLexGroup,
                      UsageError, Window)
from .record import Frozen, Record, setfield
from .representations import MapSpec
from .riesz import RdpLevel, check_rdp_level
from .verdict import Tally, Verdict, fails, holds, unknown


class IdealSet(Record):
    """Window part of an ideal: the set, its generators, and closure flags."""

    _fields = ("elements", "generators", "closed_flags")

    def __init__(self, elements: tuple, generators: tuple,
                 closed_flags: dict | None = None) -> None:
        self.elements = elements
        self.generators = generators
        self.closed_flags = {} if closed_flags is None else closed_flags

    def __contains__(self, x) -> bool:
        return x in self._index

    @cached_property
    def _index(self) -> frozenset:
        return frozenset(self.elements)

    def as_json(self, ser) -> dict:
        return {"elements": [ser(x) for x in self.elements],
                "generators": [ser(x) for x in self.generators],
                "flags": dict(self.closed_flags)}


class OrbitReport(Frozen):
    """Cycle structure of sigma = rho o lam^-1 on the index set."""

    _fields = ("sigma", "cycles", "connected")

    def __init__(self, sigma: tuple, cycles: tuple, connected: bool) -> None:
        setfield(self, "sigma", sigma)
        setfield(self, "cycles", cycles)
        setfield(self, "connected", connected)

    def as_json(self) -> dict:
        return {"sigma": list(self.sigma),
                "cycles": [list(c) for c in self.cycles],
                "connected": self.connected}


def ideal_closure(P: Algebra, gens, w: Window) -> IdealSet:
    """Least window set containing gens, downward and sum closed.

    The exhaustive flag drops to False whenever a defined sum of two members
    lands outside the window sample; the true ideal continues past the
    window there.
    """
    sample = P.elements(w)
    universe = set(sample)
    gens = list(gens)
    for g in gens:
        if g not in universe:
            raise UsageError("generator outside the window sample")
    cur = {P.zero}
    cur.update(gens)
    boundary = False
    changed = True
    while changed:
        changed = False
        for s in sample:
            if s not in cur and any(P.leq(s, m) for m in cur):
                cur.add(s)
                changed = True
        for x, y in itertools.product(tuple(cur), repeat=2):
            z = P.add(x, y)
            if z is None:
                continue
            if z in universe:
                if z not in cur:
                    cur.add(z)
                    changed = True
            else:
                boundary = True
    ordered = tuple(s for s in sample if s in cur)
    return IdealSet(
        elements=ordered,
        generators=tuple(gens),
        closed_flags={"downward": True, "sums": True,
                      "exhaustive": not boundary})


def _companions(P: Algebra, x, y):
    """(side, s, z) for each defined s, left first: left s = x + y and
    z + x = s, right s = y + x and x + z = s; z is None if unsolvable."""
    s = P.add(x, y)
    if s is not None:
        yield "left", s, P.ldiff(s, x)
    s = P.add(y, x)
    if s is not None:
        yield "right", s, P.rdiff(x, s)


def is_normal(P: Algebra, ideal: IdealSet, w: Window) -> Verdict:
    """Window check of x + I = I + x via the unique-solution trichotomy.

    For a defined x + y with y in the ideal, the only candidate z with
    z + x = x + y is the left difference; if it exists inside the window but
    outside the ideal the equality genuinely fails, and if it lands outside
    the window the instance is skipped. The right half is the mirror image:
    x + z = y + x solved by the right difference. _companions runs both
    halves, left before right for each (x, y).
    """
    sample = P.elements(w)
    universe = set(sample)
    members = ideal.elements
    index = set(members)
    t = Tally()
    ser = P.serialize
    for x in sample:
        for y in members:
            for side, s, z in _companions(P, x, y):
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


def normal_ideal_generated(P: Algebra, a, w: Window,
                           depth: int = 4) -> IdealSet:
    """Window part of the least normal ideal containing a.

    Alternates two steps up to `depth` rounds or a fixpoint: adjoin all
    conjugate images solving z + t = t + m and t + z = m + t for members m
    and window elements t (plus both double complements), then take the
    plain ideal closure. The fixpoint flag records whether a round added
    nothing.
    """
    if depth < 1:
        raise UsageError("depth must be >= 1")
    sample = P.elements(w)
    universe = set(sample)
    if a not in universe:
        raise UsageError("generator outside the window sample")
    current = ideal_closure(P, [a], w)
    fixpoint = False
    for _ in range(depth):
        members = set(current.elements)
        new = set(members)
        for m in current.elements:
            for t_el in sample:
                for _, _, z in _companions(P, t_el, m):
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
    flags = dict(current.closed_flags)
    flags["fixpoint"] = fixpoint
    return IdealSet(elements=current.elements, generators=(a,),
                    closed_flags=flags)


def orbits(shape: KiteShape) -> OrbitReport:
    """Cycle decomposition of sigma = rho o lam^-1; connected = one cycle."""
    sigma = tuple(perms.compose(shape.rho, perms.inverse(shape.lam)))
    cyc = tuple(tuple(c) for c in perms.cycles(sigma))
    return OrbitReport(sigma=sigma, cycles=cyc, connected=len(cyc) == 1)


def _support_orbit_components(shape: KiteShape) -> tuple:
    """Orbits of lam^-1 o rho: the element-level support components."""
    pi = perms.compose(perms.inverse(shape.lam), shape.rho)
    return tuple(tuple(c) for c in perms.cycles(pi))


def least_o_ideal(group: PoGroup, w: Window):
    """(Verdict, descriptor) for existence of a least non-trivial o-ideal.

    Builtin groups are answered analytically, with the reasoning recorded in
    the descriptor; any other group stays Unknown.
    """
    if group.is_trivial:
        return (fails(reason="no non-trivial o-ideal exists"),
                {"kind": "trivial", "least": None})
    if isinstance(group, Integers):
        return (holds(checked=1,
                      reason="only subgroups are k-multiples; convexity"
                             " forces the whole group"),
                {"kind": "whole-group", "least": "whole-group"})
    if isinstance(group, StrictCone2):
        return (holds(checked=1,
                      reason="any non-trivial convex directed subgroup"
                             " grows to the whole group"),
                {"kind": "whole-group", "least": "whole-group"})
    if isinstance(group, Product):
        nontrivial = [i for i, c in enumerate(group.components)
                      if not c.is_trivial]
        if len(nontrivial) >= 2:
            i, j = nontrivial[0], nontrivial[1]
            return (fails(witness={"axis_a": i, "axis_b": j},
                          reason="two factor axes are o-ideals meeting"
                                 " only in the identity"),
                    {"kind": "product", "least": None,
                     "axes": [i, j]})
        sub, desc = least_o_ideal(group.components[nontrivial[0]], w)
        desc = dict(desc)
        desc["kind"] = "product-single-axis"
        desc["axis"] = nontrivial[0]
        return sub, desc
    if isinstance(group, TwistedLexGroup):
        base_v, base_desc = least_o_ideal(group.base, w)
        joint = _joint_orbits(group.lam, group.rho)
        if len(joint) > 1 and not group.base.is_trivial:
            return (fails(witness={"components": [list(c) for c in joint]},
                          reason="coordinate components are separated"
                                 " o-ideals"),
                    {"kind": "twisted-lex", "least": None,
                     "components": [list(c) for c in joint]})
        if base_v.failed:
            return (fails(witness=base_v.witness_dict() or None,
                          reason="base group has no least o-ideal"),
                    {"kind": "twisted-lex", "least": None,
                     "base": base_desc})
        if base_v.ok:
            return (holds(checked=1,
                          reason="coordinate block over the base least"
                                 " o-ideal"),
                    {"kind": "twisted-lex", "least": "coordinate-block",
                     "base": base_desc})
        return base_v, {"kind": "twisted-lex", "base": base_desc}
    return (unknown(skipped=1,
                    reason="o-ideal lattice not analytically known"),
            {"kind": group.kind, "least": None})


def _joint_orbits(lam, rho) -> tuple:
    """Orbits of the group generated by the two permutations, each sorted,
    in the order of their smallest index: walk along lam and rho from each
    index not yet seen."""
    out: list = []
    for i in range(len(lam)):
        if any(i in orbit for orbit in out):
            continue
        orbit, todo = {i}, [i]
        while todo:
            j = todo.pop()
            new = {lam[j], rho[j]} - orbit
            orbit |= new
            todo.extend(new)
        out.append(tuple(sorted(orbit)))
    return tuple(out)


def _lower_component_ideal(kite: Kite, indices, w: Window,
                           **flags) -> IdealSet:
    """Window lowers supported inside the indices; flags are added to the
    closure flags."""
    comp = set(indices)
    members = tuple(x for x in kite.elements(w) if x.tag == LOWER
                    and all(i in comp for i in kite.support(x)))
    return IdealSet(
        elements=members,
        generators=tuple(x for x in members if kite.dimension(x) == 1)[:1],
        closed_flags={"downward": True, "sums": True, "exhaustive": False,
                      **flags})


@lru_cache
def _base_has_rdp1(base: PoGroup) -> bool:
    """Does the bounded RDP1 check hold on the base? Cached per group: the
    verdict depends on the base alone, and groups hash and compare by their
    structural key, so equal groups built apart share one check."""
    return check_rdp_level(base, RdpLevel.RDP1, Window(2)).ok


def least_normal_ideal(kite: Kite, w: Window):
    """(Verdict, payload): does the kite have a least non-trivial normal ideal?

    Holds exactly when the base has a least non-trivial o-ideal and the
    twisting bijections are connected; the payload is then the window part
    of the lower-element ideal over the base o-ideal's cone. A disconnected
    shape yields Fails with two disjoint witness ideals, one per support
    component. The equivalence needs the base to have RDP1 (every base is
    directed): a lattice-ordered base has it, and any other base must pass
    the bounded RDP1 check, or the verdict stays Unknown.
    """
    base = kite.base
    if kite.n == 0:
        return (fails(reason="two-element algebra has no non-trivial ideal"),
                None)
    if not base.is_lattice and not _base_has_rdp1(base):
        return (unknown(skipped=1, reason="base RDP1 not established"), None)
    report = orbits(kite.shape)
    base_v, base_desc = least_o_ideal(base, w)
    if base_v.ok and report.connected:
        ideal = _lower_component_ideal(kite, range(kite.n), w,
                                       base_o_ideal=base_desc.get("least"))
        v = holds(checked=len(ideal.elements),
                  reason="connected shape over a base with least o-ideal")
        return v, ideal
    if not report.connected and base_v.ok:
        comps = _support_orbit_components(kite.shape)
        w1, w2 = (_lower_component_ideal(kite, c, w, component=tuple(c))
                  for c in comps[:2])
        v = fails(witness={"components": [list(c) for c in comps]},
                  checked=2,
                  reason="disconnected shape: two disjoint non-trivial"
                         " normal ideals")
        return v, [w1, w2]
    v = fails(witness=base_v.witness_dict() or None,
              checked=1,
              reason="base group has no least non-trivial o-ideal")
    return v, None


def canonical_form(shape: KiteShape):
    """Relabel a connected shape to lam = id, rho = (i -> i-1 mod n).

    Returns (new shape, relabeling) where the relabeling carries the lower
    and upper index maps: new lower coordinate i' reads old coordinate
    tau_lower[i'], and uppers read tau_upper. Raises on disconnected shapes.
    """
    report = orbits(shape)
    if not report.connected:
        raise UsageError("canonical form needs a connected shape")
    n = shape.n
    pi = perms.compose(perms.inverse(shape.lam), shape.rho)
    alpha = [0] * n
    idx = 0
    for m in range(n):
        alpha[idx] = (-m) % n
        idx = pi[idx]
    beta = perms.compose(alpha, perms.inverse(shape.lam))
    rho_new = perms.compose(alpha, perms.compose(pi, perms.inverse(alpha)))
    new_shape = KiteShape(n=n, lam=tuple(perms.identity(n)),
                          rho=tuple(rho_new), base=shape.base)
    relabel = MapSpec(perms.inverse(alpha), perms.inverse(beta))
    return new_shape, relabel


def phi_o_ideal(ipea, ideal: IdealSet, w: Window):
    """(window sample of the generated subgroup, Verdict) for Gamma ideals.

    The subgroup generated by an interval ideal is closed, inside the window
    ball, under products and inverses. The verdict bundles three window
    facts: the subgroup piece is convex, its intersection with the interval
    reproduces the ideal exactly when the ideal is normal, and conjugation
    by window elements stays inside when the ideal is normal.
    """
    group = ipea.group
    ball = pg.enumerate_window(group, Window(w.height))
    inside = set(ball)
    members = set()
    for x in ideal.elements:
        members.add(x)
        members.add(group.inv(x))
    members.add(group.e)
    members &= inside
    changed = True
    boundary = False
    while changed:
        changed = False
        for x, y in itertools.product(tuple(members), repeat=2):
            z = group.mul(x, y)
            if z in inside:
                if z not in members:
                    members.add(z)
                    changed = True
            else:
                boundary = True
    sample = [x for x in ball if x in members]
    t = Tally()
    for g in ball:
        for m in sample:
            if group.leq(group.e, g) and group.leq(g, m) and g not in members:
                return sample, t.fail(
                    {"inside": g.serialized(), "above": m.serialized()},
                    "subgroup piece is not convex")
            t.hit()
    unit = ipea.unit
    interval_part = {x for x in sample
                     if group.leq(group.e, x) and group.leq(x, unit)}
    if interval_part != set(ideal.elements):
        extra = interval_part.symmetric_difference(set(ideal.elements))
        wit = sorted(x.serialized() for x in extra)[0]
        return sample, t.fail({"element": wit},
                              "interval restriction differs from the ideal")
    for g in ball:
        gi = group.inv(g)
        for m in sample:
            z = group.mul(group.mul(g, m), gi)
            if z in inside and z not in members:
                return sample, t.fail(
                    {"conjugator": g.serialized(), "member": m.serialized()},
                    "conjugate escapes the subgroup piece")
            t.hit()
    if boundary:
        t.skip("subgroup closure touched the window boundary")
    return sample, t.done("convex, normal, and interval-consistent on the window")
