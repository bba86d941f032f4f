"""Riesz decomposition checkers and constructive refinement witnesses.

Five properties, ordered by strength: interpolation (RIP), splitting a
element below a two-term sum (RDP0), full 2x2 refinement tables (RDP), the
same with a commutation side condition on the off-diagonal cells (RDP1), and
with off-diagonal meet zero (RDP2). On a whole directed structure RDP0 and
RIP coincide and RDP implies both, but window verdicts can differ: over
StrictCone2 at Window(2), RIP holds with 48 checked while RDP0 fails.

All searches take the algebra itself: a Kite, an IntervalPEA or the positive
cone of a po-group (pogroup.PositiveCone; the public entry points also take
a bare PoGroup and use its cone, with raw values of the group as arguments,
each checked by the group's check_value). They use its partial addition,
differences, interval enumeration with an exhaustiveness flag, and meet when
is_lattice is set. RDP1's side condition, check_com, is one check on any of
these: it asks the algebra's own sum whether everything below c12 commutes
with everything below c21. Searches iterate candidates in descending enumeration
order and take the first valid hit, so results are deterministic. Absence is
conclusive only when the searched interval was exhaustive; otherwise the
caller records a skip. find_interpolant and find_refinement return the flag
with what they found, as (witness or None, exhaustive).

The RIP check decides a block of instances at a time. Sets of sample
indices are int bitsets, and up[i] holds the elements above the i-th. For a
fixed (a1, a2, b1), the b2 reached by an in-sample interpolant are one OR of
up over the [a1, b1] candidates above a2, counted with int.bit_count; only
the b2 it misses try the candidates outside the sample, by leq. Its verdict,
counts, skip notes and witness are those of the serial loop over
(a1, a2, b1, b2), which calls find_interpolant once per instance.

For kites the refinement tables and splits are also built directly from base
group data (directedness witnesses plus base tables), one coordinate at a
time; every constructed table is validated against its four sum equations
before being returned. Kite coordinates are raw base values, and so are the
elements of the base's positive cone, so these builders compute with the
base's value operations and a base table or split search (_base_refinement,
_base_split) passes its raw arguments straight to find_refinement or
rdp0_split on the base.

The base searches are memoised with functools.cache, because a quantified
check asks the same few again and again: the cap-14 RDP battery over a Z
kite asks for 2,790 base tables on 84 keys (57 searches) and 1,266 base
splits on 23. A table's key is the base, whether it is read in the opposite
group, the raw arguments, the search level (RDP1 and RDP2 keep theirs, every
other level searches as RDP) and the window. Its entry is (c11, c12, c21,
c22, side), already read back anti-transposed for the opposite group; a
table and its opposite share one search. Splits, common upper bounds
(_upper_bound, a window scan on a non-lattice base), the merged sides of
lifted tables and the builders' windows, one per height, are memoised too.
Every caller of a key shares its entry, which is safe because an entry holds
only raw values and frozen Verdicts; the builders copy cells into
RefinementTables of their own. The memos live for the process; groups hash
and compare by their structural key, so equal groups built apart share them.

Each mirror-image case is written once. The opposite algebra of a kite
(x + y read as y + x) is again a kite: lam and rho trade places and the base
product is reversed. L-U-L-U tables and U-L-U splits are the U-L-U-L and
U-U-L cases of the opposite kite, read back anti-transposed or swapped. The
opposite base's tables and splits are the real base's, read back the same
way, so no opposite group is built and the witnesses are the same over a
non-abelian base. The crossed L-U-U-L table is the transpose of U-L-L-U's.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import Any, Optional

from . import pogroup as pg
from .axioms import Algebra
from .kite import Kite, LOWER, UPPER
from .pogroup import PoGroup, PositiveCone, UsageError, Window
from .record import Record
from .verdict import Status, Tally, Verdict, fails, holds, merge, unknown


class RdpLevel(Enum):
    # the members are singletons, so identity hashing is equality hashing;
    # Enum's own __hash__ rehashes the name in Python on every memo lookup
    __hash__ = object.__hash__

    RIP = "rip"
    RDP0 = "rdp0"
    RDP = "rdp"
    RDP1 = "rdp1"
    RDP2 = "rdp2"


# weakest to strongest; RIP and RDP0 are equivalent on a whole directed
# structure, though their window verdicts can differ
RDP_ORDER = (RdpLevel.RIP, RdpLevel.RDP0, RdpLevel.RDP,
             RdpLevel.RDP1, RdpLevel.RDP2)


class RefinementTable(Record):
    """2x2 refinement: a1 = c11+c12, a2 = c21+c22, b1 = c11+c21, b2 = c12+c22.

    side carries the off-diagonal side-condition evidence for RDP1/RDP2
    tables.
    """

    _fields = ("c11", "c12", "c21", "c22", "side", "note")

    def __init__(self, c11: Any, c12: Any, c21: Any, c22: Any,
                 side: Optional[Verdict] = None, note: str = "") -> None:
        self.c11, self.c12, self.c21, self.c22 = c11, c12, c21, c22
        self.side = side
        self.note = note

    def cells(self) -> tuple:
        return (self.c11, self.c12, self.c21, self.c22)


def _cone(obj, *values) -> tuple:
    """(algebra, values). A bare po-group stands for its positive cone, and
    the raw values passed with it come from outside, so the group checks
    each one (UsageError when malformed) and hands back its own form."""
    if isinstance(obj, PoGroup):
        return PositiveCone(obj), [obj.check_value(v) for v in values]
    return obj, values


def check_com(ctx: Algebra | PoGroup, a, b, w: Window) -> Verdict:
    """Everything below a commutes with everything below b (window-bounded).

    This is RDP1's side condition. ctx is any algebra or a bare po-group,
    which stands for its positive cone; only then are a and b checked for
    positivity, because they come from outside rather than from a search.
    """
    if isinstance(ctx, PoGroup):
        ctx, (a, b) = _cone(ctx, a, b)
        if not ctx.leq(ctx.zero, a) or not ctx.leq(ctx.zero, b):
            raise UsageError("com requires positive arguments")
    if a == ctx.zero or b == ctx.zero:
        return holds(checked=1, reason="zero commutes with everything")
    la, ea = ctx.interval(ctx.zero, a, w)
    lb, eb = ctx.interval(ctx.zero, b, w)
    t = Tally()
    for x in la:
        for y in lb:
            if ctx.add(x, y) != ctx.add(y, x):
                return t.fail({"x": ctx.serialize(x), "y": ctx.serialize(y)},
                              "pair below the cells does not commute")
            t.hit()
    if not (ea and eb):
        t.skip("interval coverage incomplete")
    return t.done("all sampled pairs below the cells commute")


# -- splits and interpolation ---------------------------------------------------


def _split_search(ctx: Algebra, a, b, c, w: Window):
    """Descending search for (b1, c1): b1 <= b, c1 <= c, a = b1 + c1."""
    cands, exhaustive = ctx.interval(ctx.zero, b, w)
    for b1 in reversed(cands):
        if not ctx.leq(b1, a):
            continue
        c1 = ctx.rdiff(b1, a)
        if c1 is None:
            continue
        if ctx.leq(c1, c):
            return (b1, c1), exhaustive
    return None, exhaustive


def rdp0_split(ctx: Algebra | PoGroup, a, b, c, w: Window):
    """First (descending) split of a below b + c, or None.

    Requires 0 <= a <= b + c with b + c defined. Absence is conclusive only
    if the [0, b] interval was exhaustively enumerable; check_rdp_level
    accounts for that.
    """
    ctx, (a, b, c) = _cone(ctx, a, b, c)
    s = ctx.add(b, c)
    if s is None or not ctx.leq(ctx.zero, a) or not ctx.leq(a, s):
        raise UsageError("rdp0_split needs 0 <= a <= b + c with b + c defined")
    pair, _ = _split_search(ctx, a, b, c, w)
    return pair


def find_interpolant(ctx: Algebra | PoGroup, a1, a2, b1, b2, w: Window):
    """Smallest window element c with a1, a2 <= c <= b1, b2; plus coverage."""
    ctx, (a1, a2, b1, b2) = _cone(ctx, a1, a2, b1, b2)
    cands, exhaustive = ctx.interval(a1, b1, w)
    leq = ctx.leq
    found = next((c for c in cands if leq(a2, c) and leq(c, b2)), None)
    return found, exhaustive


def _meet_zero(ctx: Algebra, x, y, w: Window) -> Verdict:
    """Is the only common lower bound of x and y the zero element?"""
    if ctx.is_lattice:
        m = ctx.meet(x, y)
        if m == ctx.zero:
            return holds(checked=1, reason="meet is zero")
        return fails({"meet": ctx.serialize(m)}, checked=1,
                     reason="nonzero meet")
    lows, exhaustive = ctx.interval(ctx.zero, x, w)
    for t in lows:
        if t != ctx.zero and ctx.leq(t, y):
            return fails({"common_lower": ctx.serialize(t)}, checked=len(lows),
                         reason="nonzero common lower bound")
    if exhaustive:
        return holds(checked=len(lows), reason="no nonzero common lower bound")
    return unknown(checked=len(lows), skipped=1,
                   reason="lower-bound search window-bounded")


def _side_condition(ctx: Algebra, level: RdpLevel, c12, c21,
                    w: Window) -> Optional[Verdict]:
    """The level's condition on the off-diagonal cells, or None below RDP1:
    com for RDP1, meet zero for RDP2."""
    if level is RdpLevel.RDP1:
        return check_com(ctx, c12, c21, w)
    if level is RdpLevel.RDP2:
        return _meet_zero(ctx, c12, c21, w)
    return None


def find_refinement(ctx: Algebra | PoGroup, a1, a2, b1, b2, level: RdpLevel,
                    w: Window) -> tuple[Optional[RefinementTable], bool]:
    """First valid table in descending c11 order, or None; plus coverage,
    the exhaustiveness of the [0, a1] candidate interval.

    RIP and RDP0 search RDP tables (find_interpolant is the RIP search). For
    RDP1 a candidate whose com side condition fails is discarded; one whose
    condition is window-bounded is kept only as a fallback if no candidate
    verifies exactly. RDP2 treats the meet condition the same way.
    """
    ctx, (a1, a2, b1, b2) = _cone(ctx, a1, a2, b1, b2)
    s1, s2 = ctx.add(a1, a2), ctx.add(b1, b2)
    if s1 is None or s2 is None or s1 != s2:
        raise UsageError("refinement needs a1 + a2 = b1 + b2, both defined")

    cands, exhaustive = ctx.interval(ctx.zero, a1, w)
    fallback = None
    for c11 in reversed(cands):
        if not ctx.leq(c11, b1):
            continue
        c12 = ctx.rdiff(c11, a1)
        c21 = ctx.rdiff(c11, b1)
        if c12 is None or c21 is None:
            continue
        c22 = ctx.rdiff(c21, a2)
        if c22 is None or ctx.add(c12, c22) != b2:
            continue
        side = _side_condition(ctx, level, c12, c21, w)
        if side is not None:
            if side.failed:
                continue
            if side.status is Status.UNKNOWN:
                if fallback is None:
                    fallback = RefinementTable(c11, c12, c21, c22, side=side,
                                               note="side condition bounded")
                continue
        return RefinementTable(c11, c12, c21, c22, side=side), exhaustive
    return fallback, exhaustive


# -- constructive kite witnesses ------------------------------------------------


# one Window per height: the builders ask for a handful of heights thousands
# of times, and a Window is immutable
_window = functools.cache(Window)


def _wide(kite: Kite, elems) -> Window:
    """The window of height max(2, every operand's norm)."""
    return _window(max(2, *map(kite.norm, elems)))


@functools.cache
def _upper_bound(base: PoGroup, a, b):
    """Smallest-norm common upper bound of two raw values, or None; exact
    via join on lattices, a window scan otherwise (memoised)."""
    if base.is_lattice:
        return base.join_values(a, b)
    leq = base.leq_values
    h = max(base.norm_value(a), base.norm_value(b)) + 2
    for x in pg.enumerate_window(base, Window(h)):
        if leq(a, x) and leq(b, x):
            return x
    return None


def _opposite(kite: Kite, flip: bool):
    """(mul, rho, rho_inv) of the kite, or of its opposite algebra when flip;
    mul acts on raw base values."""
    mul = kite.base.mul_values
    if flip:
        return (lambda a, b: mul(b, a)), kite.lam, kite.lam_inv
    return mul, kite.rho, kite.rho_inv


def _anti(t: RefinementTable) -> RefinementTable:
    """The table of r2 + r1 = s2 + s1 in the opposite algebra, given the table
    (c11, c12, c21, c22) of r1 + r2 = s1 + s2: (c22, c21, c12, c11)."""
    return RefinementTable(t.c22, t.c21, t.c12, t.c11, side=t.side, note=t.note)


@functools.cache
def _base_table(base: PoGroup, flip: bool, r1, r2, s1, s2, lv: RdpLevel,
                w: Window) -> Optional[tuple]:
    """Base table of r1 + r2 = s1 + s2 in raw values, in the opposite group
    when flip, searched at level lv (RDP, RDP1 or RDP2): the immutable tuple
    (c11, c12, c21, c22, side), or None (memoised)."""
    args = (r2, r1, s2, s1) if flip else (r1, r2, s1, s2)
    found = _base_refinement(base, args, lv, w)
    if found is None or not flip:
        return found
    # the opposite group's table is the real one read back anti-transposed
    c11, c12, c21, c22, side = found
    return c22, c21, c12, c11, side


# one object per distinct side verdict of a base table, so that the keys of
# the _merge_sides memo match by identity; a table's side never failed, so it
# has no witness and hashes
_shared_sides: dict = {}


@functools.cache
def _base_refinement(base: PoGroup, args: tuple, lv: RdpLevel, w: Window):
    """find_refinement on the base cone for raw args, as an immutable
    (c11, c12, c21, c22, side) tuple of raw values, or None (memoised)."""
    t, _ = find_refinement(base, *args, lv, w)
    if t is None:
        return None
    side = _shared_sides.setdefault(t.side, t.side)
    return t.cells() + (side,)


# rdp0_split of a below b + c in the base: (b1, c1) or None (memoised)
_base_split = functools.cache(rdp0_split)


@functools.cache
def _merge_sides(sides: tuple) -> Optional[Verdict]:
    """merge of the side verdicts that are not None, or None if none is
    (memoised; a Verdict is immutable)."""
    present = [v for v in sides if v is not None]
    return merge(*present) if present else None


def kite_refinement_constructive(kite: Kite, x1, x2, y1, y2,
                                 level: RdpLevel = RdpLevel.RDP,
                                 ) -> Optional[RefinementTable]:
    """Refinement table for x1 + x2 = y1 + y2 built from base group data.

    Case split on the tag pattern: all-lower instances lift base tables
    coordinatewise; U-L-U-L uses directedness witnesses above both upper
    rows; the crossed U-L-L-U has a closed-form table with a zero cell at
    c21. L-U-L-U is U-L-U-L in the opposite kite for (x2, x1, y2, y1), read
    back anti-transposed; L-U-U-L is U-L-L-U with the two decompositions
    swapped, read back transposed; two uppers have no sum, so no other
    pattern occurs. The result is validated against all four sum equations
    before returning; None means a base-level ingredient was not found.
    """
    own = kite.own
    x1, x2, y1, y2 = own(x1), own(x2), own(y1), own(y2)
    # the kite interns its elements, so equal elements are the same object
    s1, s2 = kite.add(x1, x2), kite.add(y1, y2)
    if s1 is None or s1 is not s2:
        raise UsageError("refinement needs x1 + x2 = y1 + y2, both defined")
    base = kite.base
    inv = base.inv_value
    n = kite.n
    # RDP1 and RDP2 search base tables at their own level, the rest as RDP
    lv = level if level in (RdpLevel.RDP1, RdpLevel.RDP2) else RdpLevel.RDP
    w = _wide(kite, (x1, x2, y1, y2))
    tags = (x1.tag, x2.tag, y1.tag, y2.tag)
    flip = tags == (LOWER, UPPER, LOWER, UPPER)
    swap = tags == (LOWER, UPPER, UPPER, LOWER)
    a1, a2, b1, b2 = ((x2, x1, y2, y1) if flip else (y1, y2, x1, x2) if swap
                      else (x1, x2, y1, y2))
    pattern = (a1.tag, a2.tag, b1.tag, b2.tag)

    if pattern == (LOWER, LOWER, LOWER, LOWER):
        per = []
        for r1, r2, t1, t2 in zip(a1.coords, a2.coords, b1.coords, b2.coords):
            bt = _base_table(base, False, r1, r2, t1, t2, lv, w)
            if bt is None:
                return None
            per.append(bt)
        # columns: the four cells' coordinates, then the sides
        cols = list(zip(*per)) or [()] * 5
        table = RefinementTable(*[kite.intern(LOWER, c) for c in cols[:4]],
                                side=_merge_sides(cols[4]),
                                note="coordinatewise base tables")

    elif pattern == (UPPER, LOWER, UPPER, LOWER):
        mul, rho, rho_inv = _opposite(kite, flip)
        ds, per = [], []
        for i in range(n):
            d_i = _upper_bound(base, inv(a1.coords[i]), inv(b1.coords[i]))
            if d_i is None:
                return None
            bt = _base_table(base, flip, mul(d_i, a1.coords[i]),
                             a2.coords[rho_inv[i]], mul(d_i, b1.coords[i]),
                             b2.coords[rho_inv[i]], lv, w)
            if bt is None:
                return None
            ds.append(d_i)
            per.append(bt)
        c11 = kite.intern(UPPER, [mul(inv(ds[i]), per[i][0]) for i in range(n)])
        low = lambda k: kite.intern(LOWER, [per[rho[j]][k] for j in range(n)])
        table = RefinementTable(c11, low(1), low(2), low(3),
                                side=_merge_sides(tuple([t[4] for t in per])),
                                note="directedness witnesses over the upper rows")
        if flip:
            table = _anti(table)

    else:  # the crossed U-L-L-U
        c = kite.intern(
            UPPER, [base.mul_values(inv(b1.coords[kite.lam_inv[i]]), a1.coords[i])
                    for i in range(n)])
        cells = (b1, kite.zero, c, a2) if swap else (b1, c, kite.zero, a2)
        table = RefinementTable(*cells, note="crossed pattern, zero cell at "
                                + ("c12" if swap else "c21"))

    add = kite.add
    if (add(table.c11, table.c12) is not x1
            or add(table.c21, table.c22) is not x2
            or add(table.c11, table.c21) is not y1
            or add(table.c12, table.c22) is not y2):
        return None
    if table.side is None:
        table.side = _side_condition(kite, level, table.c12, table.c21, w)
        if table.side is not None and table.side.failed:
            return None
    return table


def kite_rdp0_split_constructive(kite: Kite, x, y, z):
    """Split (y1, z1) with y1 <= y, z1 <= z, x = y1 + z1, from base splits.

    Case split on tags: all-lower works one coordinate at a time; a lower
    element below a mixed sum splits trivially against the upper summand;
    U-U-L reduces to base splits of the positive parts, and U-L-U is U-U-L
    in the opposite kite for (x, z, y), read back swapped; no other pattern
    has a defined y + z above x. None means a base split was not found.
    """
    own = kite.own
    x, y, z = own(x), own(y), own(z)
    s = kite.add(y, z)
    if s is None or not kite.leq(x, s):
        raise UsageError("split needs x <= y + z with y + z defined")
    base = kite.base
    n = kite.n
    inv = base.inv_value
    w = _wide(kite, (x, y, z))
    tags = (x.tag, y.tag, z.tag)

    if tags == (LOWER, LOWER, LOWER):
        pairs = []
        for a, b, c in zip(x.coords, y.coords, z.coords):
            pair = _base_split(base, a, b, c, w)
            if pair is None:
                return None
            pairs.append(pair)
        g1, h1 = zip(*pairs) if pairs else ((), ())
        out = kite.intern(LOWER, g1), kite.intern(LOWER, h1)
    elif x.tag == LOWER:  # L-U-L or L-L-U
        out = (x, kite.zero) if y.tag == UPPER else (kite.zero, x)
    else:  # U-U-L or U-L-U
        flip = y.tag == LOWER
        u, l = (z, y) if flip else (y, z)
        mul, rho, rho_inv = _opposite(kite, flip)
        f1 = []
        for i in range(n):
            b, c = l.coords[rho_inv[i]], inv(x.coords[i])
            # the opposite group's split below b + c is the real one below
            # c + b, swapped
            pair = _base_split(base, inv(u.coords[i]),
                               *((c, b) if flip else (b, c)), w)
            if pair is None:
                return None
            f1.append(pair[1] if flip else pair[0])
        u1 = kite.intern(UPPER, [mul(x.coords[i], inv(f1[i])) for i in range(n)])
        l1 = kite.intern(LOWER, [f1[rho[j]] for j in range(n)])
        out = (l1, u1) if flip else (u1, l1)

    y1, z1 = out
    if (not kite.leq(y1, y) or not kite.leq(z1, z)
            or kite.add(y1, z1) is not x):
        return None
    return out


# -- quantified checks -----------------------------------------------------------


def check_rdp_level(ctx: Algebra | PoGroup, level: RdpLevel,
                    w: Window) -> Verdict:
    """Quantify the level's witness search over all window instances.

    An instance with no witness is a failure only when the search region was
    exhaustive; otherwise it is a skip. For kites the constructive builders
    run first, so a found witness never depends on search coverage.
    """
    ctx, _ = _cone(ctx)
    if level is RdpLevel.RIP:
        return _check_rip(ctx, w)
    if level is RdpLevel.RDP0:
        return _check_rdp0(ctx, w)
    return _check_tables(ctx, level, w)


def _bits(x: int):
    """The indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _check_rip(ctx: Algebra, w: Window) -> Verdict:
    """find_interpolant over every instance, counted a block at a time.

    Sets of sample indices are int bitsets, and the order tests come from
    one pass of n^2 leq calls for a sample of n: bit j of up[i] is set when
    pos[i] <= pos[j]. For each (a1, a2) the instances are the b1, b2 in
    above = up[a1] & up[a2]. Each [a1, b1] interval is computed once per
    (a1, b1), as the bitset of its candidates in the sample plus the list of
    those outside it (past the cap or the height).

    A block is a fixed (a1, a2, b1). The b2 reached by some in-sample
    candidate above a2 are the OR of up[c] over those candidates, so the
    block's hits are counted with one bit_count. Only the misses try the
    outside candidates, by leq. In an exhaustive interval the lowest-index
    miss is the failure, counted after the hits at lower b2 indices, as the
    serial order over (a1, a2, b1, b2) counts them; otherwise each miss is a
    skip.
    """
    pos = ctx.elements(w)
    leq = ctx.leq
    up = [sum(1 << j for j, b in enumerate(pos) if leq(a, b)) for a in pos]
    index = {x: i for i, x in enumerate(pos)}
    t = Tally()
    for i, a1 in enumerate(pos):
        intervals: dict = {}  # [a1, b1] by b1's index in pos
        for k, a2 in enumerate(pos):
            above = up[i] & up[k]
            for j in _bits(above):
                if j not in intervals:
                    cands, exhaustive = ctx.interval(a1, pos[j], w)
                    inside, outside = 0, []
                    for c in cands:
                        ci = index.get(c)
                        if ci is None:
                            outside.append(c)
                        else:
                            inside |= 1 << ci
                    intervals[j] = inside, outside, exhaustive
                inside, outside, exhaustive = intervals[j]
                reach = 0
                for ci in _bits(inside & up[k]):
                    reach |= up[ci]
                misses = above & ~reach
                if outside:
                    for m in _bits(misses):
                        if any(leq(a2, c) and leq(c, pos[m]) for c in outside):
                            misses ^= 1 << m
                        elif exhaustive:
                            break
                if misses and exhaustive:
                    m = (misses & -misses).bit_length() - 1
                    t.checked += (above & ((1 << m) - 1)).bit_count()
                    return t.fail(
                        {"a1": ctx.serialize(a1), "a2": ctx.serialize(a2),
                         "b1": ctx.serialize(pos[j]),
                         "b2": ctx.serialize(pos[m])},
                        "no interpolant")
                skipped = misses.bit_count()
                t.checked += above.bit_count() - skipped
                if skipped:
                    t.skip("interpolant search window-bounded", skipped)
    return t.done("interpolant found for every sampled instance")


def _check_rdp0(ctx: Algebra, w: Window) -> Verdict:
    pos = ctx.elements(w)
    t = Tally()
    for b, c in itertools.product(pos, repeat=2):
        s = ctx.add(b, c)
        if s is None:
            continue
        for a in pos:
            if not ctx.leq(a, s):
                continue
            if isinstance(ctx, Kite):
                if kite_rdp0_split_constructive(ctx, a, b, c) is not None:
                    t.hit()
                    continue
            pair, exhaustive = _split_search(ctx, a, b, c, w)
            if pair is not None:
                t.hit()
            elif exhaustive:
                return t.fail(
                    {"a": ctx.serialize(a), "b": ctx.serialize(b),
                     "c": ctx.serialize(c)},
                    "no split below the sum")
            else:
                t.skip("split search window-bounded")
    return t.done("split found for every sampled instance")


def _check_tables(ctx: Algebra, level: RdpLevel, w: Window) -> Verdict:
    pos = ctx.elements(w)
    sums: dict = {}
    for p1, p2 in itertools.product(pos, repeat=2):
        s = ctx.add(p1, p2)
        if s is not None:
            sums.setdefault(s, []).append((p1, p2))
    t = Tally()
    for pairs in sums.values():
        for a1, a2 in pairs:
            for b1, b2 in pairs:
                if isinstance(ctx, Kite):
                    tab = kite_refinement_constructive(
                        ctx, a1, a2, b1, b2, level)
                    if tab is not None and (
                            tab.side is None or tab.side.ok):
                        t.hit()
                        continue
                tab, exhaustive = find_refinement(ctx, a1, a2, b1, b2, level, w)
                if tab is not None:
                    if tab.side is not None and not tab.side.ok:
                        t.skip("only side-condition-bounded table found")
                    else:
                        t.hit()
                    continue
                if exhaustive:
                    return t.fail(
                        {"a1": ctx.serialize(a1), "a2": ctx.serialize(a2),
                         "b1": ctx.serialize(b1), "b2": ctx.serialize(b2)},
                        "no refinement table")
                t.skip("table search window-bounded")
    return t.done("refinement table found for every sampled instance")
