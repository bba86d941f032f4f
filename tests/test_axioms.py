"""Axiom batteries, classification checks, perfectness, and the unique state."""

import pytest

from kitealg.axioms import (
    PerfectSplit,
    check_commutative,
    check_pea_axioms,
    check_pmv_axioms,
    check_symmetric,
    find_infinitesimals,
    perfect_split,
    unique_state,
)
from kitealg.kite import Kite, KiteShape
from kitealg.pogroup import (CapabilityError, Integers, StrictCone2,
                             TwistedLexGroup, Window, integer_product)
from kitealg.representations import IntervalPEA
from kitealg.verdict import Status
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
    for P in (IntervalPEA(Z, Z.make(2)),
              IntervalPEA(integer_product(2), integer_product(2).make((1, 1)))):
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
    k = mk(3, (0, 1, 2), (1, 2, 0))

    def bad_add(x, y):
        if x.tag == "U" and y.tag == "L":
            # reindex through rho instead of its inverse
            coords = tuple(k.base.mul_values(x.coords[i], y.coords[k.rho[i]])
                           for i in range(k.n))
            if all(k.base.leq_values(c, k.base.e.value) for c in coords):
                from kitealg.kite import KiteElement, UPPER
                return KiteElement(k.shape, UPPER, coords)
            return None
        return k.add(x, y)

    class BrokenAdd(Kite):
        def add(self, x, y):
            return bad_add(x, y)

    out = check_pea_axioms(BrokenAdd(k.shape), Window(1, 48))
    assert any(v.status is Status.FAILS for v in out.values())


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
    out = check_pmv_axioms(IntervalPEA(Z, Z.make(3)), Window(3))
    assert all_hold(out)


def test_pmv_axioms_catch_broken_oplus():
    M = IntervalPEA(Z, Z.make(2))

    def bad_oplus(x, y):
        if x.value or y.value:
            # off-by-one truncation
            return Z.make(min(x.value + y.value + 1, 2))
        return M.mv_oplus(x, y)

    class BrokenOplus(IntervalPEA):
        def mv_oplus(self, x, y):
            return bad_oplus(x, y)

    out = check_pmv_axioms(BrokenOplus(Z, Z.make(2)), Window(2))
    assert any(v.status is Status.FAILS for v in out.values())


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


def test_integer_chain_has_no_infinitesimals():
    P = IntervalPEA(Z, Z.make(2))
    out, v = find_infinitesimals(P, Window(2))
    assert out == [P.zero]
    assert v.status is Status.HOLDS


def test_lex_interval_infinitesimals_are_bounded_evidence():
    g = TwistedLexGroup(1, (0,), (0,), Z)
    P = IntervalPEA(g, g.make((1, (0,))))
    out, v = find_infinitesimals(P, Window(2))
    assert g.make((0, (1,))) in out
    assert g.make((1, (0,))) not in out
    assert v.status is Status.UNKNOWN


def test_kite_splits_into_lowers_and_uppers():
    k = mk(2, (0, 1), (1, 0))
    P = k
    split = perfect_split(P, Window(1))
    assert split is not None
    assert all(x.tag == "L" for x in split.e0)
    assert all(x.tag == "U" for x in split.e1)
    assert len(split.e0) == len(split.e1) == 4


def test_integer_chain_has_no_perfect_split():
    assert perfect_split(IntervalPEA(Z, Z.make(2)), Window(2)) is None


def test_lex_interval_is_perfect():
    g = TwistedLexGroup(1, (0,), (0,), Z)
    P = IntervalPEA(g, g.make((1, (0,))))
    split = perfect_split(P, Window(2))
    assert split is not None
    assert all(x.value[0] == 0 for x in split.e0)
    assert all(x.value[0] == 1 for x in split.e1)


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
