"""Axiom batteries, classification checks, perfectness, and the unique state."""

import pytest

from kitealg.axioms import (
    PerfectSplit,
    check_commutative,
    check_pea_axioms,
    check_pmv_axioms,
    check_symmetric,
    perfect_split,
    unique_state,
)
from kitealg.kite import LOWER, UPPER, Kite, KiteElement, KiteShape
from kitealg.pogroup import (CapabilityError, Integers, StrictCone2,
                             TwistedLexGroup, Window, cone_window,
                             integer_product)
from kitealg.representations import IntervalPEA
from kitealg.verdict import Status, Tally
from kitealg import perms

Z = Integers()


def mk(n, lam, rho, base=None):
    return Kite(KiteShape(n, tuple(lam), tuple(rho), base or Z))


def all_hold(verdicts):
    return all(v.ok for v in verdicts.values())


# -- pseudo effect algebra axioms --------------------------------------------------


@pytest.mark.parametrize("kite", [
    mk(0, (), ()),
    mk(1, (0,), (0,)),
    mk(2, (0, 1), (1, 0)),
    mk(2, (1, 0), (1, 0)),
    mk(3, (1, 2, 0), (0, 2, 1)),
    mk(2, (0, 1), (1, 0), integer_product(2)),
    mk(1, (0,), (0,), TwistedLexGroup(2, (0, 1), (1, 0), Z)),
])
def test_pea_axioms_hold_on_kites(kite):
    out = check_pea_axioms(kite, Window(1, 24))
    assert set(out) == {"PEA.i", "PEA.ii", "PEA.iii", "PEA.iv"}
    for key, v in out.items():
        assert v.ok, (key, v.describe())


def test_pea_axioms_exact_on_small_integer_kite():
    out = check_pea_axioms(mk(2, (0, 1), (1, 0)), Window(2))
    for v in out.values():
        assert v.ok
        assert v.skipped == 0


def test_pea_axioms_hold_on_intervals():
    for P in (IntervalPEA(Z, 2),
              IntervalPEA(integer_product(2), (1, 1))):
        out = check_pea_axioms(P, Window(3))
        assert all_hold(out)


def test_pea_axioms_catch_broken_complement():
    class SwappedComplements(Kite):
        # complement computed through the wrong bijection
        def complement_left(self, x):
            return Kite.complement_right(self, x)

        def complement_right(self, x):
            return Kite.complement_left(self, x)

    bad = SwappedComplements(KiteShape(3, (1, 2, 0), (0, 1, 2), Z))
    out = check_pea_axioms(bad, Window(1, 32))
    assert out["PEA.ii"].status is Status.FAILS


def test_pea_axioms_catch_broken_addition():
    """The upper + lower sum re-indexed through rho instead of its inverse
    keeps associativity on this sample; the complement law catches it."""
    k = mk(3, (0, 1, 2), (1, 2, 0))

    def bad_add(x, y):
        if x.tag == UPPER and y.tag == LOWER:
            # reindex through rho instead of its inverse
            coords = tuple(k.base.mul_values(x.coords[i], y.coords[k.rho[i]])
                           for i in range(k.n))
            if all(k.base.leq_values(c, k.base.identity_value())
                   for c in coords):
                return KiteElement(k.shape, UPPER, coords)
            return None
        return k.add(x, y)

    class BrokenAdd(Kite):
        def add(self, x, y):
            return bad_add(x, y)

    out = check_pea_axioms(BrokenAdd(k.shape), Window(1, 48))
    assert [name for name, v in out.items() if v.failed] == ["PEA.ii"]
    v = out["PEA.ii"]
    assert (v.status, v.checked) == (Status.FAILS, 2)
    assert v.witness_dict() == {"d": k.upper(-1, 0, 0).serialized(),
                                "x": k.lower(0, 0, 1).serialized()}


def test_pea_axioms_catch_broken_associativity():
    """x + x = x for a nonzero lower x breaks (x + x) + y = x + (x + y) and
    no other law on this sample: PEA.i reports the plain triple loop's first
    broken triple and its count of agreeing triples before it."""

    class BrokenAssoc(Kite):
        def add(self, x, y):
            if x is y and x.tag == LOWER and x is not self.zero:
                return x
            return Kite.add(self, x, y)

    P = BrokenAssoc(KiteShape(3, (0, 1, 2), (1, 2, 0), Z))
    w = Window(1, 48)
    out = check_pea_axioms(P, w)
    assert [name for name, v in out.items() if v.failed] == ["PEA.i"]
    got, want = out["PEA.i"], reference_pea_assoc(P, P.elements(w))
    assert got.failed and want.failed
    assert (got.witness, got.checked) == (want.witness, want.checked)


# -- associativity: whole rows against the triple loop ------------------------------


def ser(P, v):
    return None if v is None else P.serialize(v)


def reference_pea_assoc(P, sample):
    """PEA.i as a plain loop over every triple."""
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
                    return t.fail({"x": ser(P, x), "y": ser(P, y),
                                   "z": ser(P, z), "lhs": ser(P, lhs),
                                   "rhs": ser(P, rhs)},
                                  "associativity instance broken")
                t.hit()
    return t.done("both association orders agree on all sampled triples")


def reference_pmv_a1(M, sample):
    """PMV.A1 as a plain loop over every triple."""
    t = Tally()
    op = M.mv_oplus
    for x in sample:
        for y in sample:
            xy = op(x, y)
            for z in sample:
                l = op(x, op(y, z))
                r = op(xy, z)
                if l != r:
                    return t.fail({"x": ser(M, x), "y": ser(M, y),
                                   "z": ser(M, z),
                                   "values": [ser(M, l), ser(M, r)]},
                                  "oplus not associative")
                t.hit()
    return t.done("oplus associative on sampled triples")


class TableAlgebra:
    """0..4 with the sum a + b, undefined (None) above 4, as both add and
    mv_oplus; edits override single (a, b) entries. An undefined operand
    gives an undefined result. Only associativity is meant to hold."""

    zero, one, is_lattice = 0, 4, True

    def __init__(self, edits=()):
        self.table = {(a, b): a + b if a + b <= 4 else None
                      for a in range(5) for b in range(5)}
        self.table.update(edits)
        self.complement_left = self.complement_right = {
            a: 4 - a for a in range(5)}.get

    def elements(self, w):
        return list(range(5))

    def add(self, x, y):
        return self.table.get((x, y))

    mv_oplus = add

    def ldiff(self, b, a):
        return None

    rdiff = ldiff

    def serialize(self, x):
        return x


@pytest.mark.parametrize("edits, first", [
    # 1 + 2 = 4 breaks (1 + 1) + 1 = 3 against 1 + (1 + 1) = 4
    pytest.param({(1, 2): 4}, (1, 1, 1), id="one-entry-wrong"),
    # 1 + 2 undefined: (1 + 1) + 1 is defined, 1 + (1 + 1) is not
    pytest.param({(1, 2): None}, (1, 1, 1), id="right-side-undefined"),
    pytest.param({}, None, id="associative"),
])
def test_row_comparison_matches_the_triple_loop(edits, first):
    P = TableAlgebra(edits)
    sample = P.elements(Window(1))
    want_pea = reference_pea_assoc(P, sample)
    want_a1 = reference_pmv_a1(P, sample)
    if first is None:
        assert want_pea.ok and want_pea.checked == 125
    else:
        assert want_pea.failed and want_a1.failed
        assert tuple(want_pea.witness_dict()[k] for k in "xyz") == first
        assert tuple(want_a1.witness_dict()[k] for k in "xyz") == first
    assert check_pea_axioms(P, Window(1))["PEA.i"] == want_pea
    assert check_pmv_axioms(P, Window(1))["PMV.A1"] == want_a1


def broken_add_kite():
    """A Z kite whose lower + lower sum adds 1 more in each coordinate where
    only the left summand is nonzero."""

    class BrokenAdd(Kite):
        def add(self, x, y):
            z = Kite.add(self, x, y)
            if x.tag == y.tag == "L":
                return self.intern("L", [c + (a > 0 and b == 0) for a, b, c
                                         in zip(x.coords, y.coords, z.coords)])
            return z

    return BrokenAdd(KiteShape(2, (0, 1), (1, 0), Z))


@pytest.mark.parametrize("kite, broken", [
    (mk(2, (0, 1), (1, 0)), False),
    (mk(1, (0,), (0,), integer_product(2)), False),
    (mk(1, (0,), (0,), TwistedLexGroup(2, (0, 1), (1, 0), Z)), False),
    pytest.param(broken_add_kite(), True, id="broken-add"),
])
def test_row_comparison_matches_the_triple_loop_on_kites(kite, broken):
    w = Window(1, 16)
    sample = kite.elements(w)
    want = reference_pea_assoc(kite, sample)
    assert want.failed == broken
    assert check_pea_axioms(kite, w)["PEA.i"] == want
    if kite.is_lattice:
        assert (check_pmv_axioms(kite, w)["PMV.A1"]
                == reference_pmv_a1(kite, sample))


# -- MV axioms ---------------------------------------------------------------------


@pytest.mark.parametrize("kite", [
    mk(1, (0,), (0,)),
    mk(2, (0, 1), (1, 0)),
    mk(2, (0, 1), (0, 1), integer_product(2)),
    # the CLI runs the MV checks on every lattice base, abelian or not
    mk(1, (0,), (0,), TwistedLexGroup(2, (0, 1), (1, 0), Z)),
    mk(2, (0, 1), (1, 0), TwistedLexGroup(2, (0, 1), (1, 0), Z)),
])
def test_pmv_axioms_hold_on_kites(kite):
    out = check_pmv_axioms(kite, Window(1, 30))
    assert set(out) == {f"PMV.A{i}" for i in range(1, 9)}
    for key, v in out.items():
        assert v.ok, (key, v.describe())


def test_pmv_axioms_hold_on_integer_chain():
    out = check_pmv_axioms(IntervalPEA(Z, 3), Window(3))
    assert all_hold(out)


def test_pmv_axioms_catch_broken_oplus():
    M = IntervalPEA(Z, 2)

    def bad_oplus(x, y):
        if x or y:
            # off-by-one truncation
            return min(x + y + 1, 2)
        return M.mv_oplus(x, y)

    class BrokenOplus(IntervalPEA):
        def mv_oplus(self, x, y):
            return bad_oplus(x, y)

    out = check_pmv_axioms(BrokenOplus(Z, 2), Window(2))
    assert any(v.status is Status.FAILS for v in out.values())


def reference_pmv_a2_to_a8(M, sample):
    """PMV.A2 .. A8, each law's terms written out in its own plain loop."""
    op, nl, nr = M.mv_oplus, M.complement_left, M.complement_right

    def odot(a, b):
        return nr(op(nl(b), nl(a)))

    def fail(t, witness, values, reason):
        return t.fail({**witness, "values": [ser(M, v) for v in values]},
                      reason)

    out = {}
    t = Tally()
    for x in sample:
        if not op(x, M.zero) == x == op(M.zero, x):
            out["PMV.A2"] = fail(t, {"x": ser(M, x)},
                                 [op(x, M.zero), op(M.zero, x)],
                                 "0 is not a two-sided oplus unit")
            break
        t.hit()
    else:
        out["PMV.A2"] = t.done("holds on all sampled elements")
    t = Tally()
    for x in sample:
        if not op(x, M.one) == M.one == op(M.one, x):
            out["PMV.A3"] = fail(t, {"x": ser(M, x)},
                                 [op(x, M.one), op(M.one, x)],
                                 "1 does not absorb")
            break
        t.hit()
    else:
        out["PMV.A3"] = t.done("holds on all sampled elements")
    t = Tally()
    if nr(M.one) != M.zero or nl(M.one) != M.zero:
        out["PMV.A4"] = t.fail({"values": [ser(M, nr(M.one)),
                                           ser(M, nl(M.one))]},
                               "negations of 1 are not 0")
    else:
        t.hit()
        out["PMV.A4"] = t.done("both negations send 1 to 0")
    pair_laws = {
        "PMV.A5": (lambda x, y: (nr(op(nl(x), nl(y))), nl(op(nr(x), nr(y)))),
                   "the two de-Morgan products differ"),
        "PMV.A6": (lambda x, y: (op(x, odot(nr(x), y)), op(y, odot(nr(y), x)),
                                 op(odot(x, nl(y)), y), op(odot(y, nl(x)), x)),
                   "join forms disagree"),
        "PMV.A7": (lambda x, y: (odot(x, op(nl(x), y)),
                                 odot(op(x, nr(y)), y)),
                   "meet forms disagree"),
    }
    for key, (terms, reason) in pair_laws.items():
        t = Tally()
        out[key] = None
        for x in sample:
            for y in sample:
                values = terms(x, y)
                if not all(a == b for a, b in zip(values, values[1:])):
                    out[key] = fail(t, {"x": ser(M, x), "y": ser(M, y)},
                                    values, reason)
                    break
                t.hit()
            if out[key] is not None:
                break
        else:
            out[key] = t.done("holds on all sampled pairs")
    t = Tally()
    for x in sample:
        if nr(nl(x)) != x:
            out["PMV.A8"] = fail(t, {"x": ser(M, x)}, [nr(nl(x))],
                                 "right negation does not undo left negation")
            break
        t.hit()
    else:
        out["PMV.A8"] = t.done("holds on all sampled elements")
    return out


class JoinTruncatedOplus(Kite):
    """mv_oplus truncates a mixed pair's coordinate products with join
    instead of meet, so 1 no longer absorbs a nonzero lower and 0 no longer
    fixes a nonzero upper."""

    def mv_oplus(self, x, y):
        if x.tag == y.tag:
            return Kite.mv_oplus(self, x, y)
        vals = self._twisted(x.tag, x.coords, y.coords)
        return self.intern(UPPER, map(self.base.join_values, vals, self._es))


class RightForLeftNegation(Kite):
    """The left complement of an upper is its right complement."""

    def complement_left(self, x):
        return (Kite.complement_right(self, x) if x.tag == UPPER
                else Kite.complement_left(self, x))


PMV_CORPUS = [
    pytest.param(cls(KiteShape(n, lam, rho, base)),
                 id=f"{name}-{bname}-n{n}-{perms.perm_name(lam)}-"
                    f"{perms.perm_name(rho)}")
    for name, cls in (("intact", Kite), ("oplus", JoinTruncatedOplus),
                      ("negation", RightForLeftNegation))
    for bname, base in (("z", Z), ("z2", integer_product(2)))
    for n in range(3)
    for lam in perms.all_perms(n)
    for rho in perms.all_perms(n)
]


@pytest.mark.parametrize("M", PMV_CORPUS)
def test_pmv_laws_match_the_plain_loops(M):
    w = Window(2, 24)
    sample = M.elements(w)
    got = check_pmv_axioms(M, w)
    want = {"PMV.A1": reference_pmv_a1(M, sample),
            **reference_pmv_a2_to_a8(M, sample)}
    assert got == want


def test_pmv_corpus_breaks_every_law_but_a4():
    broken = {key for p in PMV_CORPUS
              for key, v in check_pmv_axioms(p.values[0], Window(2, 24)).items()
              if v.failed}
    assert broken == {f"PMV.A{i}" for i in (1, 2, 3, 5, 6, 7, 8)}


def test_pmv_axioms_need_a_lattice_kite():
    # the capability is checked by the first mv_oplus call
    with pytest.raises(CapabilityError):
        check_pmv_axioms(mk(1, (0,), (0,), StrictCone2()), Window(1))


# -- symmetry and commutativity classifications -------------------------------------


def test_symmetry_iff_equal_bijections_over_integers():
    for n in range(4):
        for lam in perms.all_perms(n):
            for rho in perms.all_perms(n):
                k = mk(n, lam, rho)
                v = check_symmetric(k, Window(1, 16))
                assert v.ok == (lam == rho), (n, lam, rho, v.describe())


def test_commutativity_iff_abelian_and_equal_bijections():
    cases = []
    for lam in perms.all_perms(2):
        for rho in perms.all_perms(2):
            cases.append((mk(2, lam, rho), lam == rho))
            tlg = TwistedLexGroup(2, (0, 1), (1, 0), Z)
            cases.append((mk(1, (0,), (0,), tlg), False))
    for kite, expect in cases:
        v = check_commutative(kite, Window(1, 16))
        assert v.ok == expect, (kite.shape, v.describe())


# -- infinitesimals and perfectness ---------------------------------------------------


def reference_multiples_defined(P, x, k):
    """x, 2x, ..., kx all defined, each multiple summed as (j-1)x + x."""
    acc = x
    for _ in range(k - 1):
        acc = P.add(acc, x)
        if acc is None:
            return False
    return True


def far_elements(P):
    """For a kite with n > 0, a lower and an upper of norm 5 for each of
    the first two cone values of norm 5: outside every window sampled."""
    if not isinstance(P, Kite) or P.n == 0:
        return []
    g = P.base
    vals = [c for c in cone_window(g, Window(5)) if g.norm_value(c) == 5][:2]
    return [x for v in vals
            for x in (P.lower(*[v] * P.n), P.upper(*[g.inv_value(v)] * P.n))]


LEX = TwistedLexGroup(1, (0,), (0,), Z)


@pytest.mark.parametrize("P,w", [
    pytest.param(mk(0, (), ()), Window(1), id="z-n0"),
    pytest.param(mk(1, (0,), (0,)), Window(2), id="z-n1"),
    pytest.param(mk(2, (0, 1), (1, 0)), Window(1), id="z-n2"),
    pytest.param(mk(3, (1, 2, 0), (0, 2, 1)), Window(1, 40), id="z-n3"),
    pytest.param(mk(2, (0, 1), (1, 0), integer_product(2)), Window(1, 40),
                 id="z2-n2"),
    pytest.param(mk(2, (1, 0), (1, 0), StrictCone2()), Window(1, 40),
                 id="strictcone2-n2"),
    pytest.param(mk(1, (0,), (0,), TwistedLexGroup(2, (0, 1), (1, 0), Z)),
                 Window(1, 40), id="twistedlex-n1"),
    pytest.param(IntervalPEA(Z, 2), Window(2), id="interval-z-2"),
    pytest.param(IntervalPEA(Z, 7), Window(7), id="interval-z-7"),
    pytest.param(IntervalPEA(LEX, (1, (0,))), Window(2),
                 id="interval-lex"),
])
def test_multiples_defined_matches_the_add_chain(P, w):
    sample = P.elements(w) + far_elements(P)
    for x in sample:
        for k in range(0, 9):
            interned = len(P._table) if isinstance(P, Kite) else None
            got = P.multiples_defined(x, k)
            # no multiple is interned
            assert interned is None or len(P._table) == interned
            assert got == reference_multiples_defined(P, x, k), (x, k)


def test_kite_splits_into_lowers_and_uppers():
    k = mk(2, (0, 1), (1, 0))
    P = k
    split = perfect_split(P, Window(1))
    assert split is not None
    assert all(x.tag == "L" for x in split.e0)
    assert all(x.tag == "U" for x in split.e1)
    assert len(split.e0) == len(split.e1) == 4


def test_integer_chain_has_no_perfect_split():
    assert perfect_split(IntervalPEA(Z, 2), Window(2)) is None


def test_lex_interval_is_perfect():
    g = TwistedLexGroup(1, (0,), (0,), Z)
    P = IntervalPEA(g, (1, (0,)))
    split = perfect_split(P, Window(2))
    assert split is not None
    assert all(x[0] == 0 for x in split.e0)
    assert all(x[0] == 1 for x in split.e1)


def test_unique_state_is_two_valued_and_additive():
    k = mk(2, (0, 1), (1, 0))
    P = k
    split = perfect_split(P, Window(1))
    table, v = unique_state(P, split, Window(1))
    assert v.ok, v.describe()
    assert table.value(k.zero) == 0
    assert table.value(k.one) == 1
    assert set(table.values.values()) == {0, 1}
    assert {type(v) for v in table.values.values()} == {int}


def test_unique_state_rejects_malformed_split():
    k = mk(1, (0,), (0,))
    P = k
    split = perfect_split(P, Window(1))
    swapped = PerfectSplit(split.e1, split.e0)
    with pytest.raises(Exception):
        unique_state(P, swapped, Window(1))
