"""The kite construction over a po-group.

Carrier: two stacked copies of coordinate tuples indexed by {0..n-1}; the
lower part holds positive-cone coordinates, the upper part negative-cone
coordinates. Every lower element sits below every upper element; within a
part the order is coordinatewise. The partial addition twists coordinates by
two bijections lam and rho:

    upper(u) + lower(f) = upper(< u_i * f[rho^-1(i)] >)   if each product <= e
    lower(f) + upper(u) = upper(< f[lam^-1(i)] * u_i >)   if each product <= e
    lower(f) + lower(g) = lower(< f_j * g_j >)            always
    upper + upper                                          never defined

lower(all e) is 0 and upper(all e) is 1; the two are distinct.

Complements are closed forms (solve the mixed cases for the all-e result):
0' and 1' swap, lower(f)'s complements re-index f through rho / lam, an
upper's complements re-index the inverted coordinates through lam / rho.
Differences invert the case equations coordinatewise and validate by re-adding.
One solver serves both: a + c = b is c + a = b in the opposite kite (x + y
read as y + x), where lam and rho trade places and the base product is
reversed.

With a lattice base the kite carries total MV operations; oplus truncates the
case products at e and extends the partial addition; odot, derived from oplus
and the two negations, gauges definedness: x + y is defined exactly when
odot(x, y) = 0.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import perms
from .pogroup import CapabilityError, PoGroup, UsageError, Window, cone_window
from .record import Frozen, setfield


class KiteShape(Frozen):
    """Index-set size, the two twisting bijections, and the base group."""

    _fields = ("n", "lam", "rho", "base")

    def __init__(self, n: int, lam, rho, base: PoGroup) -> None:
        lam = tuple(perms.check_perm(lam, n))
        rho = tuple(perms.check_perm(rho, n))
        setfield(self, "n", n)
        setfield(self, "lam", lam)
        setfield(self, "rho", rho)
        setfield(self, "base", base)
        # every KiteElement hash hashes its shape, so hash the fields once
        setfield(self, "_hash", hash((n, lam, rho, base)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not KiteShape:
            return NotImplemented
        return ((self.n, self.lam, self.rho, self.base)
                == (other.n, other.lam, other.rho, other.base))

    def describe(self) -> dict:
        return {"n": self.n, "lambda": list(self.lam), "rho": list(self.rho),
                "base": self.base.describe()}

    def label(self) -> str:
        return (f"kite(n={self.n}, lam={perms.perm_name(self.lam)}, "
                f"rho={perms.perm_name(self.rho)}, base={self.base.kind})")


LOWER = "L"
UPPER = "U"
_MISSING = object()  # a memo miss; None is a stored undefined result


class KiteElement(Frozen):
    """A tag (LOWER or UPPER) and n raw values of the shape's base group.

    The coordinates carry no group of their own: the shape names the base,
    and equality and hashing compare (shape, tag, coords) directly; the hash
    is computed once, at construction. An element that a Kite interned also
    carries that kite and its id there; neither takes part in equality,
    hashing, repr or serialization.
    """

    _fields = ("shape", "tag", "coords")

    def __init__(self, shape: KiteShape, tag: str, coords: tuple,
                 kite: Optional["Kite"] = None, id: int = -1) -> None:
        vars(self).update(shape=shape, tag=tag, coords=coords, kite=kite,
                          id=id, _hash=hash((shape, tag, coords)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not KiteElement:
            return NotImplemented
        return ((self.tag, self.coords, self.shape)
                == (other.tag, other.coords, other.shape))

    def serialized(self) -> dict:
        ser = self.shape.base.serialize_value
        return {"tag": self.tag, "coords": [ser(c) for c in self.coords]}

    def __repr__(self) -> str:
        ser = self.shape.base.serialize_value
        return f"{self.tag}({','.join(str(ser(c)) for c in self.coords)})"


class Kite:
    """Operations of the kite algebra for one shape.

    Elements hold raw base values. Coordinates are validated where elements
    are built: lower and upper check each value with the base group's
    check_value and then the cone.

    Each Kite interns its elements (hash-consing): one table maps
    (tag, coords) to the single KiteElement it built, which carries this
    kite and an id, 0, 1, 2, ... in order of interning. lower, upper, zero,
    one, the window samples and every operation result come from the table.
    An operand whose kite is this one is owned; any other operand has its
    shape checked (identity first, then equality), raises UsageError on a
    foreign shape and is re-interned otherwise. Two kites that share one
    KiteShape still have separate tables and ids.

    Operations are memoised in rows indexed by id, filled on demand and
    kept as long as the Kite: add, mv_oplus, ldiff and rdiff keep one dict
    per id (of x, or of b for both differences) keyed on the other
    operand's id, and the two complements and the norm keep one slot per id.
    Ownership is settled before any row is read. The add, ldiff and rdiff
    rows store None for an undefined result, so a miss is told from it by
    a sentinel default of dict.get, not by catching KeyError. Over an
    abelian base an add or mv_oplus of two elements in one part is stored
    under both orders. multiples_defined, the infinitesimality test, is a
    closed form on the tag (k < 2 or x lower) and sums nothing.

    Window samples are memoised per Window: elements(w) builds and sorts
    the carrier sample once and hands out a fresh list copy on every call,
    so interval queries never rebuild it.

    Order tests and sums work on whole coordinate tuples: a same-part order
    test is one call of the base's leq_coords kernel, and a lower-lower or
    mixed sum or oplus one call of mul_coords (after re-indexing through
    lam or rho), then, for a mixed sum, one leq_coords call against the
    all-e tuple. Over Integers these kernels are C-level maps; over Z^k
    each coordinate's product or order test is one.

    A Kite is what the checkers in axioms, riesz, ideals and
    representations take: it has every member of axioms.Algebra.
    """

    def __init__(self, shape: KiteShape):
        self.shape = shape
        self.base = shape.base
        self.is_lattice = self.base.is_lattice
        self.n = shape.n
        self.lam = list(shape.lam)
        self.rho = list(shape.rho)
        self.lam_inv = perms.inverse(self.lam)
        self.rho_inv = perms.inverse(self.rho)
        self._samples: dict[Window, list[KiteElement]] = {}
        self._table: dict[tuple, KiteElement] = {}
        # indexed by id: dict rows for the binary operations, slots for the
        # complements and the norm
        rows = self._rows = ([], [], [], [])
        self._add_rows, self._oplus_rows, self._ldiff_rows, self._rdiff_rows = rows
        self._slots = self._left, self._right, self._norms = [], [], []
        e = self._e = self.base.identity_value()
        es = self._es = (e,) * self.n
        self.zero = self.intern(LOWER, es)
        self.one = self.intern(UPPER, es)

    # -- constructors -------------------------------------------------------

    def lower(self, *values) -> KiteElement:
        """Lower element from base values; coordinates must be positive."""
        return self._element(LOWER, values)

    def upper(self, *values) -> KiteElement:
        """Upper element from base values; coordinates must be negative."""
        return self._element(UPPER, values)

    def _element(self, tag: str, values) -> KiteElement:
        coords = tuple(self.base.check_value(v) for v in values)
        if len(coords) != self.n:
            raise UsageError(f"expected {self.n} coordinates")
        leq, e = self.base.leq_values, self._e
        for c in coords:
            if tag == LOWER and not leq(e, c):
                raise UsageError(f"lower coordinate {c!r} is not positive")
            if tag == UPPER and not leq(c, e):
                raise UsageError(f"upper coordinate {c!r} is not negative")
        return self.intern(tag, coords)

    def intern(self, tag: str, coords) -> KiteElement:
        """The one element with tag and coords, which are not checked."""
        coords = tuple(coords)
        x = self._table.get((tag, coords))
        if x is None:
            x = self._table[tag, coords] = KiteElement(
                self.shape, tag, coords, self, len(self._table))
            for rows in self._rows:
                rows.append({})
            for slots in self._slots:
                slots.append(None)
        return x

    def own(self, x: KiteElement) -> KiteElement:
        """x itself if this kite interned it, else its equal interned here."""
        if x.kite is self:
            return x
        if x.shape is not self.shape and x.shape != self.shape:
            raise UsageError("element belongs to a different kite shape")
        return self.intern(x.tag, x.coords)

    # -- order ---------------------------------------------------------------

    def leq(self, x: KiteElement, y: KiteElement) -> bool:
        x = x if x.kite is self else self.own(x)
        y = y if y.kite is self else self.own(y)
        return self._leq(x, y)

    def _leq(self, x: KiteElement, y: KiteElement) -> bool:
        if x.tag == y.tag:
            return self.base.leq_coords(x.coords, y.coords)
        return x.tag == LOWER

    # -- partial addition ------------------------------------------------------

    def add(self, x: KiteElement, y: KiteElement) -> Optional[KiteElement]:
        x = x if x.kite is self else self.own(x)
        y = y if y.kite is self else self.own(y)
        row = self._add_rows[x.id]
        z = row.get(y.id, _MISSING)
        if z is _MISSING:
            s = self._sum(x.tag, x.coords, y.tag, y.coords)
            z = row[y.id] = None if s is None else self.intern(*s)
            if x.tag == y.tag and self.base.is_abelian:
                self._add_rows[y.id][x.id] = z  # same-part sums commute
        return z

    def multiples_defined(self, x: KiteElement, k: int) -> bool:
        """True when x, 2x, ..., kx are all defined: always for k < 2, else
        for a lower, as lower + lower is always defined, upper + upper never."""
        x = x if x.kite is self else self.own(x)
        return k < 2 or x.tag == LOWER

    def _twisted(self, xtag: str, xs, ys) -> tuple:
        """Coordinate products of a mixed pair: an upper x threads y through
        rho, a lower x threads itself through lam."""
        if xtag == UPPER:
            return self.base.mul_coords(xs, map(ys.__getitem__, self.rho_inv))
        return self.base.mul_coords(map(xs.__getitem__, self.lam_inv), ys)

    def _sum(self, xtag: str, xs, ytag: str, ys):
        """(tag, coords) of x + y, or None when undefined."""
        if xtag == LOWER and ytag == LOWER:
            return LOWER, self.base.mul_coords(xs, ys)
        if xtag == UPPER and ytag == UPPER:
            return None
        vals = self._twisted(xtag, xs, ys)
        return (UPPER, vals) if self.base.leq_coords(vals, self._es) else None

    # -- complements ------------------------------------------------------------

    def complement_left(self, x: KiteElement) -> KiteElement:
        """The unique d with d + x = 1."""
        return self._complement(x, self._left, self.rho_inv, self.lam)

    def complement_right(self, x: KiteElement) -> KiteElement:
        """The unique d with x + d = 1."""
        return self._complement(x, self._right, self.lam_inv, self.rho)

    def negations(self, x: KiteElement) -> tuple[KiteElement, KiteElement]:
        """(right complement, left complement): d with x+d=1, then d with d+x=1."""
        return (self.complement_right(x), self.complement_left(x))

    def _complement(self, x: KiteElement, slots: list, lower_perm,
                    upper_perm) -> KiteElement:
        """Inverted coordinates of x re-indexed through lower_perm (x lower,
        the result is upper) or upper_perm (x upper, the result is lower)."""
        x = x if x.kite is self else self.own(x)
        d = slots[x.id]
        if d is None:
            inv, xs = self.base.inv_value, x.coords
            tag, perm = ((UPPER, lower_perm) if x.tag == LOWER
                         else (LOWER, upper_perm))
            d = slots[x.id] = self.intern(tag, [inv(xs[j]) for j in perm])
        return d

    # -- differences -------------------------------------------------------------

    def ldiff(self, b: KiteElement, a: KiteElement) -> Optional[KiteElement]:
        """The c with c + a = b, when a <= b; None otherwise."""
        return self._diff(b, a, False)

    def rdiff(self, a: KiteElement, b: KiteElement) -> Optional[KiteElement]:
        """The c with a + c = b, when a <= b; None otherwise."""
        return self._diff(b, a, True)

    def _diff(self, b: KiteElement, a: KiteElement,
              flip: bool) -> Optional[KiteElement]:
        """Memo lookup for ldiff (flip false) and rdiff (flip true); the
        solver runs on a miss."""
        a = a if a.kite is self else self.own(a)
        b = b if b.kite is self else self.own(b)
        row = (self._rdiff_rows if flip else self._ldiff_rows)[b.id]
        c = row.get(a.id, _MISSING)
        if c is _MISSING:
            c = row[a.id] = self._solve(b, a, flip)
        return c

    def _solve(self, b: KiteElement, a: KiteElement,
               flip: bool) -> Optional[KiteElement]:
        """The c with c + a = b, or with a + c = b when flip: that is c + a = b
        in the opposite kite, where lam and rho trade places and the base
        product is reversed."""
        if not self._leq(a, b):
            return None
        mul, inv = self.base.mul_values, self.base.inv_value
        rho_inv, lam = self.rho_inv, self.lam
        if flip:
            rho_inv, lam = self.lam_inv, self.rho
            mul = lambda x, y, m=mul: m(y, x)  # the reversed base product
        av, bv = a.coords, b.coords
        if a.tag == LOWER and b.tag == LOWER:
            tag, vals = LOWER, [mul(q, inv(p)) for p, q in zip(av, bv)]
        elif a.tag == LOWER:
            tag, vals = UPPER, [mul(q, inv(av[j])) for q, j in zip(bv, rho_inv)]
        else:
            tag, vals = LOWER, [mul(bv[k], inv(av[k])) for k in lam]
        s = (self._sum(a.tag, av, tag, vals) if flip
             else self._sum(tag, vals, a.tag, av))
        return self.intern(tag, vals) if s == (b.tag, bv) else None

    # -- lattice and MV layer --------------------------------------------------

    def _need_lattice(self) -> None:
        if not self.base.is_lattice:
            raise CapabilityError("kite MV/lattice operations need a lattice base")

    def join(self, x: KiteElement, y: KiteElement) -> KiteElement:
        return self._bound(x, y, UPPER, self.base.join_values)

    def meet(self, x: KiteElement, y: KiteElement) -> KiteElement:
        return self._bound(x, y, LOWER, self.base.meet_values)

    def _bound(self, x: KiteElement, y: KiteElement, top: str,
               op) -> KiteElement:
        """join (top UPPER) or meet (top LOWER): across the two parts the
        element tagged top, within a part op coordinatewise."""
        x, y = self.own(x), self.own(y)
        self._need_lattice()
        if x.tag != y.tag:
            return x if x.tag == top else y
        return self.intern(x.tag, [op(a, b) for a, b in zip(x.coords, y.coords)])

    def mv_oplus(self, x: KiteElement, y: KiteElement) -> KiteElement:
        """Total truncated sum; equals x + (x~ and y) and extends add."""
        x = x if x.kite is self else self.own(x)
        y = y if y.kite is self else self.own(y)
        row = self._oplus_rows[x.id]
        z = row.get(y.id)
        if z is None:  # rows fill only over a lattice base
            self._need_lattice()
            z = row[y.id] = self._oplus(x.tag, x.coords, y.tag, y.coords)
            if x.tag == y.tag and self.base.is_abelian:
                self._oplus_rows[y.id][x.id] = z
        return z

    def _oplus(self, xtag: str, xs, ytag: str, ys) -> KiteElement:
        if xtag == UPPER and ytag == UPPER:
            return self.one
        if xtag == LOWER and ytag == LOWER:
            return self.intern(LOWER, self.base.mul_coords(xs, ys))
        return self.intern(UPPER, map(self.base.meet_values,
                                      self._twisted(xtag, xs, ys), self._es))

    def mv_odot(self, x: KiteElement, y: KiteElement) -> KiteElement:
        """axioms.derived_odot with its arguments swapped, so that
        odot(x, y) = 0 exactly when x + y is defined."""
        left = self.complement_left
        return self.complement_right(self.mv_oplus(left(x), left(y)))

    def mv_add(self, x: KiteElement, y: KiteElement) -> Optional[KiteElement]:
        """The partial addition induced by the MV layer (cross-check of add)."""
        if self.mv_odot(x, y) == self.zero:
            return self.mv_oplus(x, y)
        return None

    # -- misc ----------------------------------------------------------------------

    def dimension(self, x: KiteElement) -> int:
        self.own(x)
        return len(self.support(x))

    def support(self, x: KiteElement) -> tuple[int, ...]:
        e = self._e
        return tuple(i for i, c in enumerate(x.coords) if c != e)

    def norm(self, x: KiteElement) -> int:
        """Largest base norm of a coordinate, read once per id."""
        x = x if x.kite is self else self.own(x)
        h = self._norms[x.id]
        if h is None:
            norm = self.base.norm_value
            h = self._norms[x.id] = max((norm(c) for c in x.coords), default=0)
        return h

    def serialize(self, x: KiteElement) -> dict:
        return x.serialized()

    def sort_key(self, x: KiteElement) -> tuple:
        tag_rank = 0 if x.tag == LOWER else 1
        flat = tuple(itertools.chain.from_iterable(
            self.base.value_key(c) for c in x.coords))
        return (self.norm(x), tag_rank) + flat

    # -- enumeration -------------------------------------------------------------

    def carrier_size(self, w: Window) -> int:
        """len(self.elements(w)), building no element: 2 |cone|^n, capped."""
        size = 2 * len(cone_window(self.base, Window(w.height))) ** self.n
        return size if w.cap is None else min(size, w.cap)

    def elements(self, w: Window) -> list[KiteElement]:
        """Window carrier sample, sorted by (norm, tag, coords), capped if set.

        Built once per window; each call returns a fresh list.
        """
        sample = self._samples.get(w)
        if sample is None:
            sample = self._samples[w] = self._build_sample(w)
        return list(sample)

    def _build_sample(self, w: Window) -> list[KiteElement]:
        # Emit norm shells in order, each sorted, and stop at the cap, so a
        # small cap never forces the full product space to materialize.
        # Elements in one shell share norm and tag, so the concatenation is
        # in sort_key order.
        norm, inv = self.base.norm_value, self.base.inv_value
        pool = cone_window(self.base, Window(w.height))
        out = []
        for s in range(w.height + 1):
            allowed = [c for c in pool if norm(c) <= s]
            for tag in (LOWER, UPPER):
                vals = allowed if tag == LOWER else [inv(c) for c in allowed]
                # tuples of a smaller norm were interned, and their norms
                # read, by an earlier shell
                shell = [x for x in map(self.intern, itertools.repeat(tag),
                                        itertools.product(vals, repeat=self.n))
                         if self.norm(x) == s]
                shell.sort(key=self.sort_key)
                out.extend(shell)
                if w.cap is not None and len(out) >= w.cap:
                    return out[: w.cap]
        return out

    def interval(self, a: KiteElement, b: KiteElement,
                 w: Window) -> tuple[list[KiteElement], bool]:
        """Window elements between a and b, with an exhaustiveness flag."""
        a, b = self.own(a), self.own(b)
        if a.tag == UPPER and b.tag == LOWER:
            return [], True
        wide = Window(max(w.height, self.norm(a), self.norm(b)))
        out = [x for x in self.elements(wide)
               if self._leq(a, x) and self._leq(x, b)]
        if a.tag == LOWER and b.tag == UPPER:
            exhaustive = self.base.is_trivial or self.n == 0
        else:
            exhaustive = self.base.order_convex_norm
        return out, exhaustive
