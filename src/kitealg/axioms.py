"""Window-bounded axiom and structure checkers for enumerable partial algebras.

The checkers take the algebra itself, a Kite or an IntervalPEA: any object
with the members of the Algebra protocol below. Its operations are closed
forms over the whole carrier, sampled through a window. A quantified law is
checked on every sampled instance; evaluation is exact, so undefinedness of
a partial sum is a definite fact, not a gap, and complements and shift
witnesses come from the closed-form complements and differences. Holds with
skips is demoted to Unknown by the verdict layer.

Checks provided:
  * the four partial-addition axioms of a pseudo effect algebra,
  * the eight axioms of a pseudo MV-algebra (with the derived product),
  * symmetry (the two complements coincide) and commutativity,
  * bounded infinitesimality, the perfect two-class split, and the induced
    two-valued state.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Protocol

from .pogroup import UsageError, Window
from .record import Frozen, Record, setfield
from .verdict import Tally, Verdict, holds, unknown


class Algebra(Protocol):
    """The operations the checkers use. Kite and IntervalPEA have them all.
    pogroup.PositiveCone, a po-group's cone for the Riesz checkers, has all
    except `one`, the two complements and mv_oplus; IntervalPEA is that cone
    cut at a unit, and adds those four and a bounded sum.

    add returns None where the sum is undefined. complement_left(x) solves
    d + x = 1 and complement_right(x) solves x + d = 1. ldiff(b, a) solves
    c + a = b and rdiff(a, b) solves a + c = b; both return None when there
    is no solution. interval(a, b, w) returns the window elements between a
    and b with an exhaustiveness flag. meet and mv_oplus, the total truncated
    sum, need is_lattice.
    """

    zero: Any
    one: Any
    is_lattice: bool

    def elements(self, w: Window) -> list: ...
    def add(self, x, y) -> Optional[Any]: ...
    def leq(self, x, y) -> bool: ...
    def complement_left(self, x) -> Any: ...
    def complement_right(self, x) -> Any: ...
    def ldiff(self, b, a) -> Optional[Any]: ...
    def rdiff(self, a, b) -> Optional[Any]: ...
    def interval(self, a, b, w: Window) -> tuple[list, bool]: ...
    def serialize(self, x) -> Any: ...
    def meet(self, x, y) -> Any: ...
    def mv_oplus(self, x, y) -> Any: ...


class PerfectSplit(Frozen):
    """Partition of a carrier sample into infinitesimals and their complements."""

    _fields = ("e0", "e1")

    def __init__(self, e0: tuple, e1: tuple) -> None:
        setfield(self, "e0", e0)
        setfield(self, "e1", e1)


class StateTable(Record):
    """Element-to-value table of a two-valued state: each value is the
    integer 0 or 1."""

    _fields = ("values",)

    def __init__(self, values: Optional[dict] = None) -> None:
        self.values = {} if values is None else values

    def value(self, x) -> Optional[int]:
        return self.values.get(x)

    def as_json(self, ser: Callable[[Any], Any]) -> list:
        rows = [{"element": ser(x), "value": str(v)}
                for x, v in self.values.items()]
        rows.sort(key=lambda r: str(r["element"]))
        return rows


def _ser(P: Algebra, x):
    return None if x is None else P.serialize(x)


# -- pseudo effect algebra axioms -------------------------------------------


def check_pea_axioms(P: Algebra, w: Window) -> dict:
    """Per-axiom verdicts keyed PEA.i .. PEA.iv."""
    sample = P.elements(w)
    return {
        "PEA.i": _pea_assoc(P, sample),
        "PEA.ii": _pea_complements(P, sample),
        "PEA.iii": _pea_mixed_shift(P, sample),
        "PEA.iv": _pea_top(P, sample),
    }


def _pea_assoc(P: Algebra, sample: list) -> Verdict:
    """(x+y)+z and x+(y+z): defined together and equal. Exact, no skips."""
    t = Tally()
    add = P.add
    for x in sample:
        for y in sample:
            xy = add(x, y)
            for z in sample:
                lhs = add(xy, z) if xy is not None else None
                yz = add(y, z)
                rhs = add(x, yz) if yz is not None else None
                if (lhs is None) != (rhs is None) or lhs != rhs:
                    return t.fail(
                        {"x": _ser(P, x), "y": _ser(P, y), "z": _ser(P, z),
                         "lhs": _ser(P, lhs), "rhs": _ser(P, rhs)},
                        "associativity instance broken")
                t.hit()
    return t.done("both association orders agree on all sampled triples")


def _pea_complements(P: Algebra, sample: list) -> Verdict:
    """Each x has exactly one d with d+x=1 and one e with x+e=1."""
    t = Tally()
    add, one = P.add, P.one
    for x in sample:
        d = P.complement_left(x)
        if add(d, x) != one:
            return t.fail({"x": _ser(P, x), "d": _ser(P, d)},
                          "left complement does not sum to 1")
        e = P.complement_right(x)
        if add(x, e) != one:
            return t.fail({"x": _ser(P, x), "e": _ser(P, e)},
                          "right complement does not sum to 1")
        for d2 in sample:
            if d2 != d and add(d2, x) == one:
                return t.fail(
                    {"x": _ser(P, x), "d": _ser(P, d), "d2": _ser(P, d2)},
                    "two distinct left complements")
            if d2 != e and add(x, d2) == one:
                return t.fail(
                    {"x": _ser(P, x), "e": _ser(P, e), "e2": _ser(P, d2)},
                    "two distinct right complements")
        t.hit()
    return t.done("complements exist and are unique on the sample")


def _pea_mixed_shift(P: Algebra, sample: list) -> Verdict:
    """For each defined x+y=z there are d, e with z = d+x = y+e."""
    t = Tally()
    add = P.add
    for x in sample:
        for y in sample:
            z = add(x, y)
            if z is None:
                continue
            d = P.ldiff(z, x)
            e = P.rdiff(y, z)
            if d is None or e is None:
                return t.fail(
                    {"x": _ser(P, x), "y": _ser(P, y), "z": _ser(P, z),
                     "d": _ser(P, d), "e": _ser(P, e)},
                    "no shift decomposition for a defined sum")
            t.hit()
    return t.done("every sampled sum admits both shift decompositions")


def _pea_top(P: Algebra, sample: list) -> Verdict:
    """1+x or x+1 defined forces x = 0."""
    t = Tally()
    add, one, zero = P.add, P.one, P.zero
    for x in sample:
        if (add(one, x) is not None or add(x, one) is not None) and x != zero:
            return t.fail({"x": _ser(P, x)}, "1 absorbs a nonzero element")
        t.hit()
    return t.done("only 0 adds with 1")


# -- pseudo MV axioms ---------------------------------------------------------


def derived_odot(M: Algebra) -> Callable[[Any, Any], Any]:
    """The product defined from oplus and the two negations."""

    def odot(a, b):
        return M.complement_right(
            M.mv_oplus(M.complement_left(b), M.complement_left(a)))

    return odot


def check_pmv_axioms(M: Algebra, w: Window) -> dict:
    """Per-axiom verdicts keyed PMV.A1 .. PMV.A8.

    Needs a lattice algebra: the first mv_oplus call raises CapabilityError
    otherwise.
    """
    sample = M.elements(w)
    op, nl, nr = M.mv_oplus, M.complement_left, M.complement_right
    odot = derived_odot(M)

    def pairs_law(fn, label) -> Verdict:
        t = Tally()
        for x in sample:
            for y in sample:
                wit = fn(x, y)
                if wit is not None:
                    return t.fail({"x": _ser(M, x), "y": _ser(M, y),
                                   "values": [_ser(M, v) for v in wit]}, label)
                t.hit()
        return t.done("holds on all sampled pairs")

    def singles_law(fn, label) -> Verdict:
        t = Tally()
        for x in sample:
            wit = fn(x)
            if wit is not None:
                return t.fail({"x": _ser(M, x),
                               "values": [_ser(M, v) for v in wit]}, label)
            t.hit()
        return t.done("holds on all sampled elements")

    def a1() -> Verdict:
        t = Tally()
        for x in sample:
            for y in sample:
                xy = op(x, y)
                for z in sample:
                    l = op(x, op(y, z))
                    r = op(xy, z)
                    if l != r:
                        return t.fail(
                            {"x": _ser(M, x), "y": _ser(M, y), "z": _ser(M, z),
                             "values": [_ser(M, l), _ser(M, r)]},
                            "oplus not associative")
                    t.hit()
        return t.done("oplus associative on sampled triples")

    out = {"PMV.A1": a1()}
    out["PMV.A2"] = singles_law(
        lambda x: None if op(x, M.zero) == x == op(M.zero, x)
        else (op(x, M.zero), op(M.zero, x)),
        "0 is not a two-sided oplus unit")
    out["PMV.A3"] = singles_law(
        lambda x: None if op(x, M.one) == M.one == op(M.one, x)
        else (op(x, M.one), op(M.one, x)),
        "1 does not absorb")

    t4 = Tally()
    if nr(M.one) != M.zero or nl(M.one) != M.zero:
        out["PMV.A4"] = t4.fail(
            {"values": [_ser(M, nr(M.one)), _ser(M, nl(M.one))]},
            "negations of 1 are not 0")
    else:
        t4.hit()
        out["PMV.A4"] = t4.done("both negations send 1 to 0")

    out["PMV.A5"] = pairs_law(
        lambda x, y: None
        if nr(op(nl(x), nl(y))) == nl(op(nr(x), nr(y)))
        else (nr(op(nl(x), nl(y))), nl(op(nr(x), nr(y)))),
        "the two de-Morgan products differ")

    def a6(x, y):
        t1 = op(x, odot(nr(x), y))
        t2 = op(y, odot(nr(y), x))
        t3 = op(odot(x, nl(y)), y)
        t4_ = op(odot(y, nl(x)), x)
        if t1 == t2 == t3 == t4_:
            return None
        return (t1, t2, t3, t4_)

    out["PMV.A6"] = pairs_law(a6, "join forms disagree")

    out["PMV.A7"] = pairs_law(
        lambda x, y: None
        if odot(x, op(nl(x), y)) == odot(op(x, nr(y)), y)
        else (odot(x, op(nl(x), y)), odot(op(x, nr(y)), y)),
        "meet forms disagree")

    out["PMV.A8"] = singles_law(
        lambda x: None if nr(nl(x)) == x else (nr(nl(x)),),
        "right negation does not undo left negation")

    return out


# -- structure checks ----------------------------------------------------------


def check_symmetric(P: Algebra, w: Window) -> Verdict:
    """Holds iff the two complements agree on every sampled element."""
    t = Tally()
    for x in P.elements(w):
        l, r = P.complement_left(x), P.complement_right(x)
        if l != r:
            return t.fail({"x": _ser(P, x), "left": _ser(P, l),
                           "right": _ser(P, r)}, "complements differ")
        t.hit()
    return t.done("both complements coincide on the sample")


def check_commutative(P: Algebra, w: Window) -> Verdict:
    """Holds iff x+y defined <=> y+x defined, with equal values."""
    t = Tally()
    sample = P.elements(w)
    for x, y in itertools.combinations(sample, 2):
        xy, yx = P.add(x, y), P.add(y, x)
        if (xy is None) != (yx is None) or xy != yx:
            return t.fail({"x": _ser(P, x), "y": _ser(P, y),
                           "xy": _ser(P, xy), "yx": _ser(P, yx)},
                          "addition order matters")
        t.hit()
    return t.done("addition commutes on all sampled pairs")


# -- infinitesimals, perfectness, state ---------------------------------------


def _bounded_infinitesimal(P: Algebra, x, nmax: int) -> bool:
    """True when x, 2x, ..., nmax*x are all defined."""
    acc = x
    for _ in range(nmax - 1):
        acc = P.add(acc, x)
        if acc is None:
            return False
    return True


def find_infinitesimals(P: Algebra, w: Window,
                        nmax: int = 8) -> tuple[list, Verdict]:
    """Elements whose n-fold sums are defined for all n <= nmax.

    The verdict grades the evidence: exclusions are exact, but a nonzero
    candidate is only bounded evidence, so the verdict is Unknown whenever
    any is reported.
    """
    if nmax < 1:
        raise UsageError("nmax must be >= 1")
    sample = P.elements(w)
    out = [x for x in sample if _bounded_infinitesimal(P, x, nmax)]
    nontrivial = sum(1 for x in out if x != P.zero)
    if nontrivial:
        v = unknown(checked=len(sample), skipped=nontrivial,
                    reason=f"candidates verified only up to n={nmax}")
    else:
        v = holds(checked=len(sample),
                  reason="no nonzero bounded-infinitesimal elements")
    return out, v


def perfect_split(P: Algebra, w: Window,
                  nmax: int = 8) -> Optional[PerfectSplit]:
    """Two-class split (infinitesimals, co-infinitesimals), or None.

    Verifies on the sample: negations swap the classes, defined sums land in
    the class of the index sum (which never exceeds 1), and the zero class is
    closed under addition. Class membership itself is the bounded
    infinitesimality test, so the split is evidence at level nmax.
    """
    sample = P.elements(w)
    cls: dict = {}

    def level(x) -> int:
        if x not in cls:
            cls[x] = 0 if _bounded_infinitesimal(P, x, nmax) else 1
        return cls[x]

    e0 = tuple(x for x in sample if level(x) == 0)
    e1 = tuple(x for x in sample if level(x) == 1)
    if not e0 or not e1:
        return None
    if level(P.zero) != 0 or level(P.one) != 1:
        return None
    for x in sample:
        if (level(P.complement_left(x)) == level(x)
                or level(P.complement_right(x)) == level(x)):
            return None
    for x in sample:
        for y in sample:
            z = P.add(x, y)
            i, j = level(x), level(y)
            if z is None:
                if i == 0 and j == 0:
                    return None
                continue
            if i + j > 1 or level(z) != i + j:
                return None
    return PerfectSplit(e0, e1)


def unique_state(P: Algebra, split: PerfectSplit, w: Window,
                 nmax: int = 8) -> tuple[StateTable, Verdict]:
    """The two-valued state of a perfect split, checked for additivity.

    s is 0 on the zero class and 1 on the one class. Additivity is verified
    on every defined window sum; sums landing outside the sample are
    classified by the same bounded infinitesimality test. The zero class is
    re-confirmed bounded-infinitesimal, which pins s there (any state assigns
    a value below 1/n to an element with n-fold sums).
    """
    e0set, e1set = set(split.e0), set(split.e1)
    if e0set & e1set:
        raise UsageError("split classes overlap")
    if P.zero not in e0set or P.one not in e1set:
        raise UsageError("split must place 0 in the zero class and 1 above")
    table = StateTable()
    for x in split.e0:
        table.values[x] = 0
    for x in split.e1:
        table.values[x] = 1
    t = Tally()

    def value(x) -> int:
        v = table.values.get(x)
        if v is None:
            v = 0 if _bounded_infinitesimal(P, x, nmax) else 1
            table.values[x] = v
        return v

    sample = list(table.values)
    for x in sample:
        if table.values[x] == 0 and not _bounded_infinitesimal(P, x, nmax):
            return table, t.fail({"x": _ser(P, x)},
                                 "zero-class element is not infinitesimal")
    for x in sample:
        for y in sample:
            z = P.add(x, y)
            if z is None:
                continue
            if value(x) + value(y) != value(z):
                return table, t.fail(
                    {"x": _ser(P, x), "y": _ser(P, y), "z": _ser(P, z)},
                    "state not additive on a defined sum")
            t.hit()
    return table, t.done(
        f"two-valued state additive on all sampled sums (classes at n={nmax})")
