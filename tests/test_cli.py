"""Command line interface: exit codes, report schema, determinism, budgets."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kitealg import riesz
from kitealg.cli import main

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
}


@pytest.mark.parametrize("argv", MALFORMED_ARGV.values(), ids=MALFORMED_ARGV)
def test_malformed_config_values_exit_64(capsys, argv):
    code, _, err = run(capsys, argv + ["--height", "1"])
    assert code == 64
    assert "config error" in err


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
    for memo in (riesz._base_refinement, riesz._base_split,
                 riesz._upper_bound):
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
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-m", "kitealg.cli", "check", "--group", "z",
            "--shape", SWAP_SHAPE, "--height", "1",
            "--checks", "axioms,rdp0,ideals,iso,state", "--format", "json"]
    reports = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
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


# -- wiring -----------------------------------------------------------------------


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kitealg.cli", "check", "--height", "1",
         "--checks", "axioms", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    json.loads(proc.stdout)
