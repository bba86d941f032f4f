"""End-to-end acceptance battery, one test per criterion.

Every check runs on a bounded enumeration window. Small carriers run
uncapped; the caps used on the large product carriers are written next to
the fixture that takes them. Capped runs quantify over fewer elements but
the axiom and decomposition checkers evaluate closed forms, so a cap never
introduces skips, it only lowers the checked count.
"""

import io
import itertools
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

from kitealg import perms
from kitealg.axioms import (
    check_commutative,
    check_pea_axioms,
    check_pmv_axioms,
    check_symmetric,
    perfect_split,
    unique_state,
)
from kitealg.cli import main as cli_main
from kitealg.ideals import (
    canonical_form,
    ideal_closure,
    is_normal,
    least_normal_ideal,
    normal_ideal_generated,
)
from kitealg.kite import LOWER, UPPER, Kite, KiteShape
from kitealg.pogroup import (
    Integers,
    StrictCone2,
    TwistedLexGroup,
    Window,
    integer_product,
)
from kitealg.representations import (
    IntervalPEA,
    perfect_representation,
    scrimger_fixture,
    stored_mapspec,
    twisted_lex_group,
    verify_iso,
)
from kitealg.riesz import (
    RdpLevel,
    check_rdp_level,
    find_refinement,
    kite_rdp0_split_constructive,
    kite_refinement_constructive,
    rdp0_split,
)
from kitealg.verdict import Status

Z = Integers()
Z2 = integer_product(2)
SC = StrictCone2()
TLEX = TwistedLexGroup(2, (0, 1), (1, 0), Z)

BASES = {"z": Z, "z2": Z2, "strictcone2": SC, "twistedlex": TLEX}


def mk(base, n, lam=None, rho=None) -> Kite:
    ident = tuple(range(n))
    return Kite(KiteShape(n=n, lam=tuple(lam or ident),
                          rho=tuple(rho or ident), base=base))


def all_pairs(n):
    ps = [tuple(p) for p in itertools.permutations(range(n))] or [()]
    return [(lam, rho) for lam in ps for rho in ps]


def grid_window(kite: Kite, height: int = 2) -> Window:
    """Uncapped up to 50 elements, else cap 32 (n <= 2) or 24 (n >= 3)."""
    if kite.carrier_size(Window(height)) <= 50:
        return Window(height)
    return Window(height, 32 if kite.n <= 2 else 24)


def rebuild(kite: Kite, obj):
    vals = [kite.base.deserialize(c) for c in obj["coords"]]
    return kite.lower(*vals) if obj["tag"] == LOWER else kite.upper(*vals)


def unit_lower(kite: Kite, j: int, g: int = 1):
    return kite.lower(*[g if i == j else 0 for i in range(kite.n)])


# -- criterion 1: axiom soundness across the base/shape grid ---------------------


def test_criterion_01_axiom_soundness():
    for base in BASES.values():
        for n in range(4):
            for lam, rho in all_pairs(n):
                kite = mk(base, n, lam, rho)
                w = grid_window(kite)
                out = check_pea_axioms(kite, w)
                for key, v in out.items():
                    ctx = (base.kind, n, lam, rho, key)
                    assert v.status is not Status.FAILS, (ctx, v.describe())
                    if n <= 2:
                        assert v.skipped == 0, ctx
                        assert v.status is Status.HOLDS, ctx


# -- criterion 2: MV layer over lattice-ordered abelian bases ---------------------


def test_criterion_02_mv_layer():
    for base in (Z, Z2):
        for n in range(4):
            for lam, rho in all_pairs(n):
                kite = mk(base, n, lam, rho)
                w = grid_window(kite)
                out = check_pmv_axioms(kite, w)
                for key, v in out.items():
                    assert v.status is Status.HOLDS, (base.kind, n, lam, rho,
                                                      key, v.describe())
                # the induced partial sum must agree with the kite sum
                # on every window pair, including undefined cases
                sample = kite.elements(w)
                for x, y in itertools.product(sample, repeat=2):
                    assert kite.mv_add(x, y) == kite.add(x, y), (
                        base.kind, n, lam, rho,
                        kite.serialize(x), kite.serialize(y))


# -- criterion 3: symmetry exactly on equal-bijection cells -----------------------


def test_criterion_03_symmetry_iff():
    for n in range(4):
        for lam, rho in all_pairs(n):
            kite = mk(Z, n, lam, rho)
            v = check_symmetric(kite, grid_window(kite))
            assert v.ok == (lam == rho), (n, lam, rho, v.describe())


# -- criterion 4: commutativity exactly on abelian same-bijection cells -----------


def test_criterion_04_commutativity_iff():
    for base in (Z, TLEX):
        for n in range(3):
            for lam, rho in all_pairs(n):
                kite = mk(base, n, lam, rho)
                v = check_commutative(kite, grid_window(kite))
                # the n = 0 cell is the two-element chain over any base,
                # which is commutative outright
                expected = lam == rho and (n == 0 or base.is_abelian)
                assert v.ok == expected, (base.kind, n, lam, rho, v.describe())


# -- criterion 5: decomposition transfer ------------------------------------------


def test_criterion_05_rdp_transfer():
    levels = (RdpLevel.RDP0, RdpLevel.RDP, RdpLevel.RDP1, RdpLevel.RDP2)

    # (a) integer kites keep every level
    shapes = [(0, (), ()), (1, (0,), (0,)), (2, (0, 1), (1, 0)),
              (3, (1, 2, 0), (0, 1, 2))]
    for n, lam, rho in shapes:
        kite = mk(Z, n, lam, rho)
        w = Window(2) if n <= 2 else Window(2, 24)  # n = 3 carrier is 54
        for level in levels:
            v = check_rdp_level(kite, level, w)
            assert v.ok, (n, lam, rho, level.name, v.describe())
            assert v.skipped == 0, (n, lam, rho, level.name)

    # (b) the strict cone loses the weakest level, with a replayable witness
    ksc = mk(SC, 1)
    v = check_rdp_level(ksc, RdpLevel.RDP0, Window(2))
    assert v.status is Status.FAILS, v.describe()
    wit = v.witness_dict()
    a = rebuild(ksc, wit["a"])
    b = rebuild(ksc, wit["b"])
    c = rebuild(ksc, wit["c"])
    s = ksc.add(b, c)
    assert s is not None and ksc.leq(a, s)
    assert kite_rdp0_split_constructive(ksc, a, b, c) is None
    assert rdp0_split(ksc, a, b, c, Window(3)) is None

    # (c) constructive tables validate exactly and agree with the search
    checked = 0
    for kite, w in ((mk(Z, 1), Window(2)),
                    (mk(Z, 2, (0, 1), (1, 0)), Window(1)),
                    (mk(Z, 3, (1, 2, 0), (0, 1, 2)), Window(1))):
        sample = kite.elements(w)
        by_sum: dict = {}
        for x1, x2 in itertools.product(sample, repeat=2):
            s = kite.add(x1, x2)
            if s is not None:
                by_sum.setdefault(s, []).append((x1, x2))
        for pairs in by_sum.values():
            for (x1, x2), (y1, y2) in itertools.product(pairs, repeat=2):
                if checked >= 240:
                    break
                table = kite_refinement_constructive(kite, x1, x2, y1, y2)
                found, _ = find_refinement(kite, x1, x2, y1, y2,
                                           RdpLevel.RDP, Window(2))
                assert (table is None) == (found is None)
                assert table is not None, (
                    kite.serialize(x1), kite.serialize(x2),
                    kite.serialize(y1), kite.serialize(y2))
                c11, c12, c21, c22 = table.cells()
                assert kite.add(c11, c12) == x1
                assert kite.add(c21, c22) == x2
                assert kite.add(c11, c21) == y1
                assert kite.add(c12, c22) == y2
                checked += 1
    assert checked >= 100


# -- criterion 6: perfectness and the two-valued state ----------------------------


def test_criterion_06_perfect_and_state():
    fixtures = [
        (mk(Z, 1), Window(2)),
        (mk(Z, 2), Window(2)),
        (mk(Z, 2, (0, 1), (1, 0)), Window(2)),
        (mk(Z, 3, (1, 2, 0), (0, 1, 2)), Window(1)),
        (mk(Z2, 2, (0, 1), (1, 0)), Window(1)),
        (mk(SC, 1), Window(2)),
    ]
    for kite, w in fixtures:
        name = (kite.base.kind, kite.n)
        split = perfect_split(kite, w)
        assert split is not None, name
        sample = kite.elements(w)
        assert set(split.e0) == {x for x in sample if x.tag == LOWER}, name
        assert set(split.e1) == {x for x in sample if x.tag == UPPER}, name
        table, v = unique_state(kite, split, w)
        assert v.ok, (name, v.describe())
        assert table.values[kite.zero] == 0 and table.values[kite.one] == 1
        kernel = ideal_closure(kite, list(split.e0), w)
        assert is_normal(kite, kernel, w).ok, name

    # over the non-abelian lexicographic base the split and state still
    # come out decisive; the window normality check stays open because
    # difference companions over that base can leave any finite norm ball
    ktl = mk(TLEX, 1)
    w = Window(1)
    split = perfect_split(ktl, w)
    assert split is not None
    assert set(split.e0) == {x for x in ktl.elements(w) if x.tag == LOWER}
    _, v = unique_state(ktl, split, w)
    assert v.ok, v.describe()
    kernel = ideal_closure(ktl, list(split.e0), w)
    assert not is_normal(ktl, kernel, w).failed

    # a bounded integer interval admits no such split
    assert perfect_split(IntervalPEA(Z, 2), Window(2)) is None


# -- criterion 7: stored interval representations ----------------------------------


def test_criterion_07_interval_representations():
    registry = json.loads(
        resources.files("kitealg").joinpath("data/mapspecs.json")
        .read_text(encoding="utf-8"))

    def replay(key, P, Q):
        spec = stored_mapspec(key)
        assert spec is not None, key
        stored = json.dumps(registry[key], sort_keys=True)
        assert json.dumps(spec.as_json(), sort_keys=True) == stored, key
        v = verify_iso(P, Q, spec, Window(2))
        assert v.ok and v.skipped == 0, (key, v.describe())

    # (a) the trivial kite is the two-element interval
    replay("boolean:0", mk(Z, 0), IntervalPEA(Z, 1))

    # (b) the one-coordinate integer kite is the unit interval of the
    # lexicographic plane
    w1 = twisted_lex_group(1, (0,), (0,), Z)
    replay("chang:1", mk(Z, 1), IntervalPEA(w1, w1.strong_unit()))

    # (c) shifted-cycle kites at n = 2 and 3
    for n in (2, 3):
        shape, group, spec = scrimger_fixture(n)
        stored = json.dumps(registry[f"scrimger:{n}"], sort_keys=True)
        assert json.dumps(spec.as_json(), sort_keys=True) == stored
        v = verify_iso(Kite(shape),
                       IntervalPEA(group, group.strong_unit()),
                       spec, Window(2))
        assert v.ok and v.skipped == 0, (n, v.describe())

    # (d) a symmetric kite represents onto its own twisted plane
    ksym = mk(Z, 2, (1, 0), (1, 0))
    target, spec, v = perfect_representation(ksym, Window(2))
    assert v.ok and v.skipped == 0, v.describe()
    stored = json.dumps(registry["perfect:2:(0 1)"], sort_keys=True)
    assert json.dumps(spec.as_json(), sort_keys=True) == stored
    assert target.group.lam == (1, 0)


# -- criterion 8: normal ideals and the orbit dichotomy ----------------------------


def test_criterion_08_normal_ideals():
    w = Window(1)

    # connected four-cycle: a least non-trivial normal ideal exists
    k4 = mk(Z, 4, None, (1, 2, 3, 0))
    v, least = least_normal_ideal(k4, w)
    assert v.ok, v.describe()
    lowers = {x for x in k4.elements(w) if x.tag == LOWER}
    assert set(least.elements) == lowers and len(lowers) == 16
    for j in range(4):
        gen = unit_lower(k4, j)
        grown = normal_ideal_generated(k4, gen, w)
        assert is_normal(k4, grown, w).ok, j
        assert set(least.elements) <= set(grown.elements), j

    # disconnected double-swap: two disjoint non-trivial normal ideals
    k4b = mk(Z, 4, None, (1, 0, 3, 2))
    v2, pair = least_normal_ideal(k4b, w)
    assert v2.status is Status.FAILS, v2.describe()
    first, second = pair
    for ideal in (first, second):
        assert len(ideal.elements) > 1
        assert is_normal(k4b, ideal, w).ok
    overlap = set(first.elements) & set(second.elements)
    assert overlap == {k4b.zero}

    # canonical relabeling round-trips through the isomorphism checker
    shape = KiteShape(n=3, lam=(1, 2, 0), rho=(0, 1, 2), base=Z)
    new_shape, relabel = canonical_form(shape)
    assert new_shape.lam == (0, 1, 2)
    v3 = verify_iso(Kite(shape), Kite(new_shape), relabel,
                    Window(1))
    assert v3.ok and v3.skipped == 0, v3.describe()


# -- criterion 9: double-complement support shift ----------------------------------


def test_criterion_09_double_complement_shift():
    id4 = (0, 1, 2, 3)
    for n in range(1, 5):
        if n <= 3:
            pairs = all_pairs(n)
        else:
            ps = [tuple(p) for p in itertools.permutations(range(4))]
            pairs = [(id4, rho) for rho in ps] + [(lam, id4) for lam in ps]
            pairs += [((1, 0, 2, 3), (0, 1, 3, 2)),
                      ((1, 2, 3, 0), (3, 2, 1, 0))]
        for lam, rho in pairs:
            kite = mk(Z, n, lam, rho)
            lam_inv = kite.lam_inv
            rho_inv = kite.rho_inv
            for j in range(n):
                for g in (1, 2):
                    xl = unit_lower(kite, j, g)
                    xu = kite.upper(*[-g if i == j else 0 for i in range(n)])

                    # lower sector shifts by lam^-1 then rho and back
                    ll = kite.complement_left(kite.complement_left(xl))
                    assert kite.support(ll) == (lam_inv[rho[j]],)
                    lr = kite.complement_right(kite.complement_right(xl))
                    assert kite.support(lr) == (rho_inv[lam[j]],)

                    # upper sector shifts by rho after lam^-1 and back
                    ul = kite.complement_left(kite.complement_left(xu))
                    assert kite.support(ul) == (rho[lam_inv[j]],)
                    ur = kite.complement_right(kite.complement_right(xu))
                    assert kite.support(ur) == (lam[rho_inv[j]],)

                    # meet-zero tests pick out exactly the moved indices
                    meets = kite.meet(xl, ll) == kite.zero
                    assert meets == (lam[j] != rho[j]), (n, lam, rho, j)
                    comp_meet = kite.meet(kite.complement_left(xu),
                                          kite.complement_right(xu))
                    assert (comp_meet == kite.zero) == (rho[lam_inv[j]] != j)


# -- criterion 10: determinism across repeated runs --------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    blob = re.sub(r'"wall_ms": [0-9.]+', '"wall_ms": 0', out.getvalue())
    return code, blob


def test_criterion_10_determinism():
    configs = [
        ["check", "--group", "z",
         "--shape", '{"n": 2, "lambda": "id", "rho": "swap"}',
         "--height", "2", "--checks", "axioms,rdp0,ideals,iso,state",
         "--format", "json"],
        ["check", "--group", "strictcone2",
         "--shape", '{"n": 1, "lambda": "id", "rho": "id"}',
         "--height", "2", "--checks", "rdp0", "--format", "json"],
        ["sweep", "--grid",
         json.dumps({"groups": ["z"], "n": [0, 1, 2], "heights": [1],
                     "perm_pairs": "all"}),
         "--format", "json"],
    ]
    for argv in configs:
        code1, blob1 = run_cli(argv)
        code2, blob2 = run_cli(argv)
        assert code1 == code2, argv
        assert blob1 == blob2, argv
        json.loads(blob1)
