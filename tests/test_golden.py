"""Golden corpus: CLI JSON reports, byte-compared against stored copies.

Each fixture is one `kitealg check` run over Z, Z^2 or the strict cone with
n = 1..3 and the axioms, rdp, ideals, iso and state checks, plus one
`kitealg show` table (Z, n = 2 swap), which pins the element labels, and one
`kitealg sweep` over Z and the strict cone (n = 0..2, every permutation pair),
which pins the row order of a sweep whichever way its cells were split over
processes. The stored reports have every `wall_ms` set to 0; everything else must match byte for
byte, so a change that alters any verdict, witness, count or payload shows
up here. The default text rendering of three of these commands (one check,
the show table and the sweep) is stored too, with every `[token] (N ms)`
line at 0 ms.

Regenerate the corpus (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from kitealg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CHECKS = "axioms,rdp,ideals,iso,state"
SHAPES = {1: '{"n":1,"lambda":"id","rho":"id"}',
          2: '{"n":2,"lambda":"id","rho":"swap"}',
          3: '{"n":3,"lambda":"shift:1","rho":"id"}'}
FIXTURES = [(group, n) for group in ("z", "z2", "strictcone2") for n in SHAPES]
SHOW_ARGV = ["show", "--group", "z", "--shape", SHAPES[2], "--height", "1",
             "--format", "json"]
SHOW_GOLDEN = GOLDEN / "z_n2_show.json"
SWEEP_ARGV = ["sweep", "--grid", '{"groups":["z","strictcone2"],"n":[0,1,2],'
              '"heights":[1],"perm_pairs":"all"}',
              "--checks", "axioms,ideals,iso,state", "--format", "json"]
SWEEP_GOLDEN = GOLDEN / "sweep_n0-2.json"

_CLOCK = re.compile(r'"wall_ms": [0-9]+')
_TEXT_CLOCK = re.compile(r"^(\[[a-z]+\]) \([0-9]+ ms\)$", re.MULTILINE)


def fixture_argv(group: str, n: int) -> list:
    return ["check", "--group", group, "--shape", SHAPES[n], "--height", "1",
            "--cap", "10", "--checks", CHECKS, "--format", "json"]


def _run(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def masked_report(argv: list) -> tuple[int, str]:
    """(exit code, stdout JSON report with every wall_ms set to 0)."""
    code, out = _run(argv)
    return code, _CLOCK.sub('"wall_ms": 0', out)


def masked_text(argv: list) -> tuple[int, str]:
    """(exit code, stdout text report) of argv, which ends in
    `--format json`, run with `--format text`; every token's time is 0 ms."""
    code, out = _run([*argv[:-1], "text"])
    return code, _TEXT_CLOCK.sub(r"\1 (0 ms)", out)


def golden_path(group: str, n: int) -> Path:
    return GOLDEN / f"{group}_n{n}.json"


TEXT_GOLDENS = {"strictcone2_n2.txt": fixture_argv("strictcone2", 2),
                "z_n2_show.txt": SHOW_ARGV,
                "sweep_n0-2.txt": SWEEP_ARGV}


@pytest.mark.parametrize("group,n", FIXTURES,
                         ids=[f"{g}-n{n}" for g, n in FIXTURES])
def test_report_matches_golden(group, n):
    code, report = masked_report(fixture_argv(group, n))
    assert f'"exit_code": {code}' in report
    assert report == golden_path(group, n).read_text()


def test_show_report_matches_golden():
    code, report = masked_report(SHOW_ARGV)
    assert code == 0
    assert report == SHOW_GOLDEN.read_text()


def test_sweep_report_matches_golden():
    code, report = masked_report(SWEEP_ARGV)
    assert code == 1
    assert report == SWEEP_GOLDEN.read_text()


@pytest.mark.parametrize("name", TEXT_GOLDENS)
def test_text_report_matches_golden(name):
    code, report = masked_text(TEXT_GOLDENS[name])
    assert report.endswith(f"exit: {code}\n")
    assert report == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for group, n in FIXTURES:
        code, report = masked_report(fixture_argv(group, n))
        golden_path(group, n).write_text(report)
        print(f"{golden_path(group, n).name}: exit {code}", file=sys.stderr)
    for argv, path in ((SHOW_ARGV, SHOW_GOLDEN), (SWEEP_ARGV, SWEEP_GOLDEN)):
        code, report = masked_report(argv)
        path.write_text(report)
        print(f"{path.name}: exit {code}", file=sys.stderr)
    for name, argv in TEXT_GOLDENS.items():
        code, report = masked_text(argv)
        (GOLDEN / name).write_text(report)
        print(f"{name}: exit {code}", file=sys.stderr)
