"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run small CLI invocations (well under a second each), not the
workloads.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS, layer_metrics  # noqa: E402

SMALL = ["check", "--group", "z", "--shape",
         '{"n":1,"lambda":"id","rho":"id"}', "--height", "1",
         "--checks", "axioms,rdp,ideals,iso,state", "--format", "json"]
SMALL_SETUP = SMALL[:-4] + ["--checks", "", "--format", "json"]


@pytest.fixture
def child(tmp_path):
    return run.Child(tmp_path)


def test_metric_lists_match_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_every_seed_variant_is_pinned():
    expected = run.load_expected()
    assert set(expected["reference"]) == {"exit", "sha256"}
    for name in run.WORKLOADS:
        for seed in range(len(run.PAIRS)):
            variant, _, _ = run.workload(name, seed)
            assert set(expected[name][variant]) == {"run", "setup"}


def test_seed_changes_pair_but_not_carrier_size():
    sys.path.insert(0, str(run.SRC))
    from kitealg.cli import build_kite, load_config
    from kitealg.pogroup import Window

    for name, height in (("axioms", 2), ("riesz", 2)):
        shapes, sizes = set(), set()
        for seed in range(len(run.PAIRS)):
            _, argv, _ = run.workload(name, seed)
            opts = dict(zip(argv[1::2], argv[2::2]))
            cfg = load_config(None, {"group": opts["--group"],
                                     "shape": json.loads(opts["--shape"])})
            kite = build_kite(cfg)
            shapes.add((kite.shape.lam, kite.shape.rho))
            sizes.add(kite.carrier_size(Window(height)))
        assert len(shapes) == len(run.PAIRS)
        assert len(sizes) == 1
    variant, argv, _ = run.workload("axioms", 0)
    assert variant == "id,swap"
    assert '{"n":2,"lambda":"id","rho":"swap"}' in argv


def test_digest_ignores_wall_ms_only():
    report = {"checks": {"axioms": {"wall_ms": 12, "verdicts": {}}},
              "exit_code": 0}
    slower = json.loads(json.dumps(report))
    slower["checks"]["axioms"]["wall_ms"] = 900
    assert run.report_digest(json.dumps(report).encode()) == \
        run.report_digest(json.dumps(slower, indent=2).encode())
    changed = json.loads(json.dumps(report))
    changed["exit_code"] = 1
    assert run.report_digest(json.dumps(report).encode()) != \
        run.report_digest(json.dumps(changed).encode())
    assert run.report_digest(b"not json") == "unparsable"


def test_mutated_report_trips_the_pinned_digest(child):
    _, _, setup_argv = run.workload("sweep", 0)
    pinned = run.load_expected()["sweep"]["grid"]["setup"]
    sample = child.run(run.cli_cmd(setup_argv))
    assert run.matches(sample, pinned)

    report = json.loads((child.tmpdir / "stdout.json").read_bytes())
    report["cells"][0]["n"] += 1
    mutated = dict(sample, digest=run.report_digest(json.dumps(report).encode()))
    assert not run.matches(mutated, pinned)
    assert not run.matches(dict(sample, exit=1), pinned)


def _traced(argv, child, tag):
    trace_path = child.tmpdir / f"trace_{tag}.json"
    sample = child.run(run.cli_cmd(argv, trace_path))
    with open(trace_path) as fh:
        return sample, layer_metrics(json.load(fh))


def test_traced_counts_repeat_and_report_is_unchanged(child):
    plain = child.run(run.cli_cmd(SMALL))
    first, m1 = _traced(SMALL, child, "a")
    second, m2 = _traced(SMALL, child, "b")
    assert plain["exit"] == first["exit"] == second["exit"] == 0
    assert plain["digest"] == first["digest"] == second["digest"]
    counts1 = {k: m1[k] for k in COUNT_METRICS if k in m1}
    counts2 = {k: m2[k] for k in COUNT_METRICS if k in m2}
    assert counts1 == counts2
    # the small battery reaches every layer the tracer wraps
    for name in ("pogroup.own.calls", "kite.add.calls", "kite.interval.calls",
                 "riesz.find_refinement.calls", "ideals.is_normal.calls",
                 "representations.twisted_lex_group.calls", "verdict.checked"):
        assert m1[name] > 0, name
    assert set(m1) == {name for name, _ in LAYER_METRICS} - {"trace.overhead"}


def test_traced_setup_run_matches_pin(child):
    _, _, setup_argv = run.workload("sweep", 0)
    pinned = run.load_expected()["sweep"]["grid"]["setup"]
    sample, metrics = _traced(setup_argv, child, "setup")
    assert run.matches(sample, pinned)
    assert metrics["cli.build_kite.calls"] == 84


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _run_main(monkeypatch, capsys, pinned):
    monkeypatch.setattr(run, "workload", lambda name, seed: (
        "small", SMALL, SMALL_SETUP))
    reference = run.load_expected()["reference"]
    monkeypatch.setattr(run, "load_expected", lambda: {
        "sweep": {"small": pinned}, "reference": reference})
    code = run.main(["--workload", "sweep", "--seed", "3", "--seconds", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def test_run_reports_metrics_and_fails_on_a_wrong_pin(monkeypatch, capsys,
                                                      child):
    plain = child.run(run.cli_cmd(SMALL))
    setup = child.run(run.cli_cmd(SMALL_SETUP))
    pinned = {"run": {"exit": plain["exit"], "sha256": plain["digest"]},
              "setup": {"exit": setup["exit"], "sha256": setup["digest"]}}
    code, detail, result = _run_main(monkeypatch, capsys, pinned)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(
        run.END_TO_END)
    # both hash seeds ran, and each run was followed by a set-up run
    assert {r["hash_seed"] for r in detail["runs"]} == set(run.HASH_SEEDS)
    assert len(detail["setup"]) == len(detail["reference"]) == \
        len(detail["runs"]) >= 2
    assert result["attempted"] == 3 * len(detail["runs"])

    wrong = dict(pinned, run={"exit": 0, "sha256": "0" * 64})
    code, detail, result = _run_main(monkeypatch, capsys, wrong)
    assert code == 1 and not result["correct"]
    assert result["failed"] == len(detail["runs"])
    assert result["metrics"]["ok_share"]["value"] == 2 / 3


def test_machine_info_fields():
    info = run.machine_info()
    assert set(info) == {"cpu", "nproc", "python", "loadavg"}
    assert info["nproc"] >= 1
