"""Prints one PASS/FAIL line per acceptance criterion after the run."""

import re

CRITERIA = {
    1: "kite axioms hold across the base/shape grid",
    2: "MV layer holds and its induced addition matches the kite addition",
    3: "symmetry holds exactly when the two bijections coincide",
    4: "commutativity holds exactly on abelian same-bijection cells",
    5: "refinement levels transfer; strict cone fails with replayable witness",
    6: "kites split perfectly with a unique additive two-valued state",
    7: "stored interval representations replay bit-for-bit",
    8: "least normal ideal exists iff the shift orbit is connected",
    9: "double complements shift supports; meet-zero matches the index test",
    10: "reports are byte-identical across repeated runs",
}

_PATTERN = re.compile(r"test_criterion_(\d+)")
_results: dict = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _PATTERN.search(report.nodeid)
    if m:
        num = int(m.group(1))
        # once a criterion is marked failed it stays failed
        if _results.get(num) != "failed":
            _results[num] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for num in sorted(_results):
        outcome = "PASS" if _results[num] == "passed" else "FAIL"
        label = CRITERIA.get(num, "")
        terminalreporter.write_line(f"  criterion {num:2d}: {outcome}  {label}")
