"""Command line interface: exit codes, report schema, determinism, budgets."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import itertools

import pytest

from kitealg import cli, perms, riesz
from kitealg.cli import (RunConfig, _grid_cells, _sweep_row, cmd_check,
                         load_config, main)
from kitealg.ideals import canonical_form, orbits
from kitealg.kite import Kite, KiteShape
from kitealg.pogroup import Window, parse_group
from kitealg.representations import verify_iso
from test_golden import (CHECKS, FIXTURES, SWEEP_ARGV, SWEEP_GOLDEN,
                         fixture_argv, golden_path, masked_report)

SWAP_SHAPE = '{"n": 2, "lambda": "id", "rho": "swap"}'


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out), err


def strip_clock(report):
    blob = json.dumps(report, sort_keys=True)
    return re.sub(r'"wall_ms": [0-9.]+', '"wall_ms": 0', blob)


def child_env(**changes) -> dict:
    """The environment of a child interpreter that imports this checkout's
    kitealg, with stdout buffered as it is by default: PYTHONUNBUFFERED
    would hide output that is never flushed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **changes)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_program(argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """The kitealg program on argv, in a child interpreter."""
    return subprocess.run([sys.executable, "-m", "kitealg.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=child_env())


# -- check ------------------------------------------------------------------------


def test_check_axioms_passes_on_twisted_kite(capsys):
    code, report, _ = run_json(capsys, [
        "check", "--group", "z", "--shape", SWAP_SHAPE,
        "--height", "2", "--checks", "axioms"])
    assert code == 0
    verdicts = report["checks"]["axioms"]["verdicts"]
    assert all(v["status"] == "holds" for v in verdicts.values())
    assert {"PEA.i", "PEA.ii", "PEA.iii", "PEA.iv"} <= set(verdicts)
    assert any(key.startswith("PMV.") for key in verdicts)


def test_check_reports_classification_without_failing(capsys):
    code, report, _ = run_json(capsys, [
        "check", "--group", "z", "--shape", SWAP_SHAPE, "--checks", "axioms"])
    assert code == 0
    cls = report["checks"]["axioms"]["extras"]["classification"]
    assert cls["symmetry"]["status"] == "fails"
    assert cls["commutativity"]["status"] == "fails"


def test_check_rdp0_fails_on_strict_cone(capsys):
    code, report, _ = run_json(capsys, [
        "check", "--group", "strictcone2",
        "--shape", '{"n": 1, "lambda": "id", "rho": "id"}',
        "--height", "3", "--cap", "24", "--checks", "rdp0"])
    assert code == 1
    assert report["exit_code"] == 1
    v = report["checks"]["rdp0"]["verdicts"]["rdp0"]
    assert v["status"] == "fails"
    assert v["witness"]


def test_unknown_without_failures_exits_2(capsys):
    code, report, _ = run_json(capsys, [
        "check", "--group", "strictcone2",
        "--shape", '{"n": 1, "lambda": "id", "rho": "id"}',
        "--height", "1", "--checks", "ideals"])
    assert code == 2
    assert report["exit_code"] == 2
    statuses = {v["status"] for v in report["checks"]["ideals"]["verdicts"].values()}
    assert "unknown" in statuses and "fails" not in statuses


def test_check_full_battery_on_default_fixture(capsys):
    code, report, _ = run_json(capsys, ["check", "--height", "1"])
    assert code == 0
    assert set(report["checks"]) == {"axioms", "rdp0", "ideals", "iso", "state"}


def test_malformed_shape_is_a_usage_error(capsys):
    code, out, err = run(capsys, [
        "check", "--shape", '{"n": 2, "lambda": "nope", "rho": "id"}'])
    assert code == 64
    assert "config error" in err


def test_unknown_check_token_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["check", "--checks", "axioms,wat"])
    assert code == 64
    assert "config error" in err


def test_bad_inline_json_is_a_usage_error(capsys):
    for argv in (["check", "--shape", "{oops"],
                 # an unknown group kind
                 ["check", "--group", '{"kind":"ConeByGenerators","params":'
                  '{"rank":2,"generators":[[1,0],[1,1]],"membership_height":2}}',
                  "--shape", '{"n":1,"lambda":"id","rho":"id"}',
                  "--height", "2", "--checks", "axioms,rdp0"]):
        code, _, err = run(capsys, argv)
        assert code == 64
        assert "config error" in err


# 5,001 digits: past the length that int() converts from a string by default
HUGE_INT = "1" + "0" * 5000

MALFORMED_ARGV = {
    "shift-offset": ["check", "--shape",
                     '{"n":2,"lambda":"shift:x","rho":"id"}'],
    "reflect-offset": ["check", "--shape",
                       '{"n":2,"lambda":"reflect:","rho":"id"}'],
    "grid-n": ["sweep", "--grid", '{"n":["x"]}'],
    "grid-heights": ["sweep", "--grid", '{"heights":["a"]}'],
    "grid-perm-pairs": ["sweep", "--grid", '{"n":[1],"perm_pairs":[["id"]]}'],
    "twisted-lex-params": ["check", "--group",
                           '{"kind":"TwistedLex","params":{"n":1}}'],
    "product-components": ["check", "--group",
                           '{"kind":"Product","params":{"components":5}}'],
    "group-params": ["check", "--group", '{"kind":"Product","params":[]}'],
    "twisted-lex-n": ["check", "--group",
                      '{"kind":"TwistedLex","params":{"n":"x","lam":[0],'
                      '"rho":[0],"base":"z"}}'],
    "twisted-lex-twist": ["check", "--group",
                          '{"kind":"TwistedLex","params":{"n":1,"lam":["a"],'
                          '"rho":[0],"base":"z"}}'],
    "perm-entries": ["check", "--shape",
                     '{"n":2,"lambda":[0,"a"],"rho":"id"}'],
    "grid-unknown-key": ["sweep", "--grid", '{"group":["strictcone2"]}'],
    # a bool is an int to Python, but not a permutation entry
    "perm-entries-bool": ["check", "--shape",
                          '{"n":2,"lambda":[true,false],"rho":"id"}'],
    "grid-perm-pairs-bool": ["sweep", "--grid",
                             '{"n":[2],"perm_pairs":[[[1,0],[false,true]]]}'],
    "twisted-lex-twist-bool": ["check", "--group",
                               '{"kind":"TwistedLex","params":{"n":2,'
                               '"lam":[true,false],"rho":[0,1],"base":"z"}}'],
    "twisted-lex-n-bool": ["check", "--group",
                           '{"kind":"TwistedLex","params":{"n":true,"lam":[0],'
                           '"rho":[0],"base":"z"}}'],
    "out-unopenable": ["check", "--checks", "axioms",
                       "--out", os.path.join(os.devnull, "report.json")],
    "grid-over-long-int": ["sweep", "--grid", '{"n":[%s]}' % HUGE_INT],
    "shape-over-long-int": ["check", "--shape", '{"n":%s}' % HUGE_INT],
    "group-over-long-int": ["check", "--group",
                            '{"kind":"Integers","n":%s}' % HUGE_INT],
}


@pytest.mark.parametrize("argv", MALFORMED_ARGV.values(), ids=MALFORMED_ARGV)
def test_malformed_config_values_exit_64(capsys, argv):
    code, _, err = run(capsys, argv + ["--height", "1"])
    assert code == 64
    assert "config error" in err


# fields with no flag, set through a config file for a one-cell sweep
MALFORMED_CONFIG = {
    "sweep-budget-string": {"sweep_budget": "x"},
    "sweep-budget-null": {"sweep_budget": None},
    "show-budget-zero": {"show_budget": 0},
    "height-bool": {"height": True},
    "cap-bool": {"cap": True},
    # an int would be opened as a file descriptor
    "out-int": {"out": 987654},
    "grid-unknown-key": {"grid": {"group": ["strictcone2"], "n": [1]}},
    "twisted-lex-n-bool": {"group": {"kind": "TwistedLex", "params": {
        "n": True, "lam": [0], "rho": [0], "base": "z"}}},
}


@pytest.mark.parametrize("fields", MALFORMED_CONFIG.values(),
                         ids=MALFORMED_CONFIG)
def test_malformed_config_file_values_exit_64(capsys, tmp_path, fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"height": 1, "checks": "axioms", **fields}))
    code, _, err = run(capsys, ["sweep", "--config", str(path)])
    assert code == 64
    assert "config error" in err


def test_over_long_integer_in_a_config_file_exits_64(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"sweep_budget": %s}' % HUGE_INT)
    code, out, err = run(capsys, ["sweep", "--config", str(path)])
    assert code == 64 and out == ""
    assert err.startswith("config error: config file: ")
    assert err.count("\n") == 1
    assert err == ("config error: config file: an integer has more than "
                   "4300 digits\n")


@pytest.mark.parametrize("flag", ["grid", "shape", "group"])
def test_over_long_integer_message_names_the_flag(capsys, flag):
    code, out, err = run(capsys, MALFORMED_ARGV[f"{flag}-over-long-int"]
                         + ["--height", "1"])
    assert code == 64 and out == ""
    assert err == (f"config error: --{flag}: an integer has more than 4300 "
                   "digits\n")


def test_state_check_answers_on_kite(capsys):
    code, report, _ = run_json(capsys, [
        "check", "--group", "z", "--shape", SWAP_SHAPE,
        "--height", "1", "--checks", "state"])
    assert code == 0
    section = report["checks"]["state"]
    assert section["verdicts"]["unique_state"]["status"] == "holds"
    assert section["verdicts"]["state_kernel_normal"]["status"] == "holds"
    assert section["extras"]["split_sizes"]["e0"] >= 1


def test_report_is_deterministic(capsys):
    argv = ["check", "--group", "z", "--shape", SWAP_SHAPE,
            "--height", "1", "--checks", "axioms,ideals"]
    _, first, _ = run_json(capsys, argv)
    _, second, _ = run_json(capsys, argv)
    assert strip_clock(first) == strip_clock(second)


def test_warm_base_memos_leave_the_report_unchanged(capsys):
    """The riesz benchmark command twice in one process: the first run fills
    the module-level base-search memos from cold, the second reads them."""
    for memo in (riesz._base_table, riesz._base_refinement,
                 riesz._base_split, riesz._upper_bound):
        memo.cache_clear()
    argv = ["check", "--group", "z", "--shape", SWAP_SHAPE, "--height", "2",
            "--cap", "14", "--checks", "rdp"]
    cold_code, cold, _ = run_json(capsys, argv)
    filled = riesz._base_refinement.cache_info().misses
    warm_code, warm, _ = run_json(capsys, argv)
    assert cold_code == warm_code == 0
    assert strip_clock(cold) == strip_clock(warm)
    # the warm run searched nothing anew
    assert riesz._base_refinement.cache_info().misses == filled > 0


def test_report_is_identical_across_hash_seeds():
    argv = [sys.executable, "-m", "kitealg.cli", "check", "--group", "z",
            "--shape", SWAP_SHAPE, "--height", "1",
            "--checks", "axioms,rdp0,ideals,iso,state", "--format", "json"]
    reports = []
    for seed in ("0", "1"):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=child_env(PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        reports.append(re.sub(r'"wall_ms": [0-9]+', '"wall_ms": 0', proc.stdout))
    assert reports[0] == reports[1]


def test_out_flag_writes_the_json_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "check", "--height", "1", "--checks", "axioms", "--out", str(path)])
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert on_disk["schema"] == "kite-checks/1"
    # stdout stays human-readable while --out captures the full report
    assert "PEA.i" in out


def test_text_format_mentions_classification(capsys):
    code, out, _ = run(capsys, [
        "check", "--group", "z", "--shape", SWAP_SHAPE, "--height", "1",
        "--checks", "axioms"])
    assert code == 0
    assert "(classification)" in out


# -- sweep ------------------------------------------------------------------------


def test_sweep_symmetry_matrix(capsys):
    grid = json.dumps({"groups": ["z"], "n": [2], "heights": [1],
                       "perm_pairs": "all"})
    code, report, _ = run_json(capsys, ["sweep", "--grid", grid,
                                        "--checks", "axioms"])
    assert code == 0
    rows = report["cells"]
    assert len(rows) == 4
    for row in rows:
        sym = row["classification"]["symmetry"]
        assert (sym == "holds") == (row["lam"] == row["rho"])


def test_sweep_empty_grid_is_ok(capsys):
    grid = json.dumps({"groups": [], "n": [1], "heights": [1],
                       "perm_pairs": "all"})
    code, report, _ = run_json(capsys, ["sweep", "--grid", grid])
    assert code == 0
    assert report["cells"] == []


def test_sweep_budget_refusal(capsys):
    grid = json.dumps({"groups": ["z", "z2"], "n": [0, 1, 2, 3, 4],
                       "heights": [1, 2, 3], "perm_pairs": "all"})
    code, _, err = run(capsys, ["sweep", "--grid", grid])
    assert code == 64
    assert "budget" in err


def test_sweep_budget_refused_before_any_pair_is_built(capsys, monkeypatch):
    # n = 6 has (6!)^2 = 518,400 cells; the count alone must refuse it
    def no_perms(n):
        raise AssertionError("permutations built before the budget check")

    monkeypatch.setattr("kitealg.perms.all_perms", no_perms)
    grid = json.dumps({"groups": ["z"], "n": [6], "heights": [1]})
    code, _, err = run(capsys, ["sweep", "--grid", grid])
    assert code == 64
    assert "sweep grid has 518400 cells" in err


@pytest.mark.parametrize("n", [3000, 10 ** 6])
def test_huge_sweep_grid_is_refused_at_once(capsys, n):
    # (3000!)^2 has too many digits to print, and (10^6!)^2 takes seconds
    # to compute: the count stops at the bound and the message names it
    grid = json.dumps({"groups": ["z"], "n": [n], "heights": [1]})
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["sweep", "--grid", grid])
    assert time.perf_counter() - t0 < 1
    assert code == 64 and out == ""
    assert err == ("config error: sweep grid has more than 1000000000000 "
                   "cells, over the budget of 400; shrink the grid or raise "
                   "'sweep_budget'\n")


def test_count_stops_at_the_first_product_past_the_bound():
    def factors():
        yield from (10 ** 6, 10 ** 6, 10)
        raise AssertionError("factor read past the bound")

    assert cli._capped_product(factors(), 400) == 10 ** 13
    assert cli._capped_product((10 ** 6,) * 3, 10 ** 18) == 10 ** 18


SWEEP_OPTS = dict(zip(SWEEP_ARGV[1::2], SWEEP_ARGV[2::2]))
SWEEP_CFG = load_config(None, {"grid": json.loads(SWEEP_OPTS["--grid"]),
                               "checks": SWEEP_OPTS["--checks"]})
SWEEP_CELLS = _grid_cells(SWEEP_CFG)


@pytest.mark.parametrize("cell", SWEEP_CELLS,
                         ids=[f"{c[0]}-n{c[1]}-{c[2]}-{c[3]}"
                              for c in SWEEP_CELLS])
def test_sweep_row_matches_the_check_report_of_its_cell(cell):
    # a sweep row renders no payload but the classification, so compare
    # it with the full check report of the same cell
    group, n, lam, rho, height = cell
    row = _sweep_row(SWEEP_CFG, cell)
    report, _ = cmd_check(SWEEP_CFG.replace(
        group=group, height=height,
        shape={"n": n, "lambda": list(lam), "rho": list(rho)}))
    sections = report["checks"].items()
    assert row["statuses"] == {f"{token}.{label}": v["status"]
                               for token, section in sections
                               for label, v in section["verdicts"].items()}
    classification = report["checks"]["axioms"]["extras"]["classification"]
    assert row["classification"] == {k: v["status"]
                                     for k, v in classification.items()}


@pytest.mark.parametrize("group", ["z", "strictcone2"])
def test_iso_token_shares_one_canonical_kite_per_shape(group):
    # at the sweep's height 1, the roundtrip verdict against the memoised
    # canonical kite is the one against a fresh kite, and a second cell of
    # one canonical shape is a memo hit
    cli._canonical_kite.cache_clear()
    seen = set()
    base = parse_group(group)
    for n in range(4):
        for lam, rho in itertools.product(perms.all_perms(n), repeat=2):
            shape = KiteShape(n, tuple(lam), tuple(rho), base)
            if not orbits(shape).connected:
                continue
            cfg = RunConfig(group=group, height=1, shape={
                "n": n, "lambda": list(lam), "rho": list(rho)})
            kite = Kite(shape)
            before = cli._canonical_kite.cache_info()
            verdicts, _ = cli.run_check_token("iso", kite, cfg)
            after = cli._canonical_kite.cache_info()
            new_shape, relabel = canonical_form(shape)
            want = verify_iso(kite, Kite(new_shape), relabel, Window(1))
            assert (cli.vjson(verdicts["canonical_roundtrip"])
                    == cli.vjson(want)), shape.label()
            hit = new_shape in seen
            assert after.hits - before.hits == hit, shape.label()
            assert after.misses - before.misses == (not hit), shape.label()
            seen.add(new_shape)
    # n = 1, 2 and 3 each have one canonical shape
    assert len(seen) == 3
    assert cli._canonical_kite.cache_info().hits > 0


# -- sweep cells in forked processes -----------------------------------------------


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def refuse_fork():
    raise AssertionError("os.fork called")


def counting_forks(monkeypatch) -> list:
    """The pids of the children forked from here on, as os.fork returns them."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
def test_sweep_report_is_the_same_for_any_cpu_count(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    forks = counting_forks(monkeypatch)
    code, report = masked_report(SWEEP_ARGV)
    assert code == 1
    assert report == SWEEP_GOLDEN.read_text()
    # one process per CPU, at most one per cell (the golden sweep has 12);
    # a cell runs its axioms units serially and forks no more
    assert len(forks) == min(cpus, 12) - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_worker_usage_error_exits_64_like_the_serial_loop(
        capsys, monkeypatch):
    # with two processes the parent checks cells 0 and 2 and the worker
    # cell 1; both fail, and the lower cell's error is the serial one
    argv = ["sweep", "--grid", '{"groups":["z","bogus","nonsense"]}',
            "--height", "1", "--checks", "axioms"]
    errors = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        code, out, err = run(capsys, argv)
        assert code == 64 and out == ""
        errors.append(err)
    assert errors[0] == errors[1] == \
        "config error: unknown group shortcut 'bogus'\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a sweep of three cells whose second (z2) cell raises; argv[1] is the
# number of usable CPUs
FAILING_SWEEP = """
import os, sys
from kitealg import cli
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
def failing_row(cfg, cell):
    if cell[0] == "z2":
        raise ZeroDivisionError("cell broke")
    return {"statuses": {}}
cli._sweep_row = failing_row
cli.main(["sweep", "--grid", '{"groups":["z","z2","z3"],"n":[1]}',
          "--checks", "axioms"])
"""


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sweep_cell_error_is_the_serial_error_for_any_cpu_count(cpus):
    # the failing cell is a worker's with 2 or 3 CPUs; the parent computes
    # it again and raises the serial error, and no worker prints anything
    proc = subprocess.run([sys.executable, "-c", FAILING_SWEEP, str(cpus)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("Traceback") == 1
    assert proc.stderr.endswith("\nZeroDivisionError: cell broke\n")


@pytest.mark.parametrize("cpus", [2, 3])
def test_sweep_cells_of_a_worker_that_sends_nothing_are_computed_again(
        monkeypatch, cpus):
    use_cpus(monkeypatch, 1)
    expected = masked_report(SWEEP_ARGV)
    parent, calls = os.getpid(), []

    def dying_row(cfg, cell):
        calls.append(cell)
        if os.getpid() != parent and len(calls) > 1:
            os._exit(3)  # a worker dies at its second cell, unsent
        return _sweep_row(cfg, cell)

    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr("kitealg.cli._sweep_row", dying_row)
    assert masked_report(SWEEP_ARGV) == expected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus,checks", [(2, ""), (1, "axioms")])
def test_sweep_without_checks_or_with_one_cpu_never_forks(
        capsys, monkeypatch, cpus, checks):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", refuse_fork)
    grid = '{"groups":["z","strictcone2"],"n":[0,1],"heights":[1]}'
    _, report, _ = run_json(capsys, ["sweep", "--grid", grid,
                                     "--checks", checks])
    assert len(report["cells"]) == 4


# -- check units in forked processes -------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
def test_check_report_is_the_same_for_any_cpu_count(monkeypatch, cpus):
    # axioms has three units on a lattice base (PEA, PMV, classification)
    # and two on the strict cone, rdp one per level; the other tokens are
    # one unit each and never fork
    assert CHECKS.split(",")[:2] == ["axioms", "rdp"]
    use_cpus(monkeypatch, cpus)
    for group, n in FIXTURES:
        forks = counting_forks(monkeypatch)
        _, report = masked_report(fixture_argv(group, n))
        assert report == golden_path(group, n).read_text(), (group, n)
        axioms_units = 2 if group == "strictcone2" else 3
        assert len(forks) == (min(cpus, axioms_units) - 1
                              + min(cpus, 5) - 1), (group, n)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_check_on_one_cpu_never_forks(monkeypatch):
    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", refuse_fork)
    _, report = masked_report(fixture_argv("z", 2))
    assert report == golden_path("z", 2).read_text()


def test_check_unit_error_in_a_worker_exits_64_like_the_serial_loop(
        capsys, monkeypatch):
    # with two or three processes the PMV unit, the second of axioms, is a
    # worker's; the parent computes it again and raises the serial error
    def broken_pmv(kite, w):
        raise cli.UsageError("PMV unit broke")

    monkeypatch.setattr(cli, "check_pmv_axioms", broken_pmv)
    argv = ["check", "--group", "z", "--shape", SWAP_SHAPE, "--height", "1",
            "--checks", "axioms"]
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        forks = counting_forks(monkeypatch)
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (64, "", "config error: PMV unit broke\n")
        assert len(forks) == cpus - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# -- show -------------------------------------------------------------------------


def test_show_prints_tables(capsys):
    code, out, _ = run(capsys, [
        "show", "--group", "z", "--shape", SWAP_SHAPE, "--height", "1"])
    assert code == 0
    assert "carrier" in out
    assert "L(" in out and "U(" in out


def test_show_budget_refusal(capsys):
    code, _, err = run(capsys, [
        "show", "--group", "z",
        "--shape", '{"n": 3, "lambda": "id", "rho": "id"}', "--height", "3"])
    assert code == 64
    assert "budget" in err


def test_show_budget_refused_before_any_element_is_built(capsys, monkeypatch):
    def no_elements(self, w):
        raise AssertionError("carrier built before the budget check")

    monkeypatch.setattr(Kite, "elements", no_elements)
    code, out, err = run(capsys, [
        "show", "--group", "z2",
        "--shape", '{"n": 6, "lambda": "id", "rho": "id"}', "--height", "2"])
    assert code == 64 and out == ""
    assert err == ("config error: 1062882 elements is too many to tabulate; "
                   "lower the height, set a cap, or raise 'show_budget'\n")


def test_huge_show_shape_is_refused_before_the_kite_is_built(
        capsys, monkeypatch):
    # 2 * 9^(10^6) elements: the count stops at the bound, and neither
    # permutation of a million points is checked
    def no_kite(cfg):
        raise AssertionError("kite built before the budget check")

    monkeypatch.setattr(cli, "build_kite", no_kite)
    t0 = time.perf_counter()
    code, out, err = run(capsys, [
        "show", "--group", "z2",
        "--shape", '{"n":1000000,"lambda":"id","rho":"id"}', "--height", "2"])
    assert time.perf_counter() - t0 < 0.3
    assert code == 64 and out == ""
    assert err == ("config error: more than 1000000000000 elements is too "
                   "many to tabulate; lower the height, set a cap, or raise "
                   "'show_budget'\n")


def test_show_refuses_an_n_over_the_budget_before_the_kite_is_built(
        capsys, monkeypatch):
    # a trivial base has 2 elements at any n, but each prints n coordinates
    def no_kite(cfg):
        raise AssertionError("kite built before the budget check")

    monkeypatch.setattr(cli, "build_kite", no_kite)
    for n, shown in ((65, "65"), (10 ** 6, "1000000"),
                     (10 ** 20, "more than 1000000000000")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, [
            "show", "--group", "trivial", "--height", "2", "--shape",
            '{"n":%d,"lambda":"id","rho":"id"}' % n])
        assert time.perf_counter() - t0 < 1.0
        assert code == 64 and out == ""
        assert err == (f"config error: shape n is {shown}, over the budget of "
                       "64 coordinates; lower n or raise 'show_budget'\n")


def test_show_admits_n_at_the_budget(capsys):
    code, out, _ = run(capsys, [
        "show", "--group", "trivial", "--height", "2",
        "--shape", '{"n":64,"lambda":"id","rho":"id"}'])
    assert code == 0
    assert out.count("L(") > 0


def test_show_budget_counts_the_capped_carrier(capsys):
    shape = '{"n": 4, "lambda": "id", "rho": "id"}'
    code, _, _ = run(capsys, ["show", "--group", "z2", "--shape", shape,
                              "--height", "2", "--cap", "64"])
    assert code == 0
    code, _, err = run(capsys, ["show", "--group", "z2", "--shape", shape,
                                "--height", "2", "--cap", "65"])
    assert code == 64
    assert err.startswith("config error: 65 elements is too many")


# -- wiring -----------------------------------------------------------------------


STRICT_CONE_N1 = ["check", "--group", "strictcone2",
                  "--shape", '{"n": 1, "lambda": "id", "rho": "id"}']


@pytest.mark.parametrize("argv, code", [
    (["check", "--height", "1", "--checks", "axioms"], 0),
    (STRICT_CONE_N1 + ["--height", "3", "--cap", "24", "--checks", "rdp0"], 1),
    (STRICT_CONE_N1 + ["--height", "1", "--checks", "ideals"], 2),
    (["check", "--checks", "axioms,nope"], 64),
], ids=["0", "1", "2", "64"])
def test_module_entry_point_runs(argv, code):
    # the exit code is main's, through the program's os._exit
    proc = run_program(argv + ["--format", "json"])
    assert proc.returncode == code, proc.stderr
    if code == 64:
        assert proc.stdout == ""
        assert proc.stderr.startswith("config error: field 'checks'")
    else:
        assert json.loads(proc.stdout)["exit_code"] == code


def _masked(text: str) -> str:
    """text with the wall time of every check section set to 0, in the
    JSON report and in the text one."""
    text = re.sub(r'"wall_ms": [0-9]+', '"wall_ms": 0', text)
    return re.sub(r"^(\[\w+\]) \([0-9]+ ms\)$", r"\1 (0 ms)", text,
                  flags=re.M)


@pytest.mark.parametrize("argv", [
    ["check", "--height", "1", "--checks", "axioms,rdp0", "--format", "json"],
    ["check", "--height", "1", "--checks", "axioms,rdp0", "--format", "text"],
    SWEEP_ARGV,
    ["check", "--height", "1", "--checks", "axioms,state", "--out", "OUT"],
], ids=["check-json", "check-text", "sweep", "out-file"])
def test_program_prints_what_main_prints(capsys, tmp_path, argv):
    # the program leaves through os._exit, so whatever it does not flush
    # itself is lost; the sweep report is larger than the stdout buffer
    argv = [str(tmp_path / a) if a == "OUT" else a for a in argv]
    proc = run_program(argv)
    out_file = tmp_path / "OUT"
    child_file = out_file.read_text() if "--out" in argv else None
    code, out, _ = run(capsys, argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    assert _masked(proc.stdout) == _masked(out) != ""
    if argv[0] == "sweep":
        assert len(proc.stdout.encode()) > 8192
    if child_file is not None:
        assert _masked(child_file) == _masked(out_file.read_text()) != ""


@pytest.mark.parametrize("argv, code", [
    # the report fits the stdout buffer: the program's flush fails, and
    # the interpreter's own flush at exit reports it
    (["check", "--height", "1", "--checks", "axioms"], 120),
    # the report does not fit: print raises in main
    (SWEEP_ARGV, 1),
], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_an_error_exit(argv, code):
    # no process holds the read end, so every write to the pipe fails
    r, w = os.pipe()
    os.close(r)
    try:
        proc = run_program(argv, stdout=w)
    finally:
        os.close(w)
    assert proc.returncode == code
    assert "BrokenPipeError" in proc.stderr
