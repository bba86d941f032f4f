"""kitealg benchmark: timed CLI invocations in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one `kitealg` command line, run as users run it: a new
Python process per invocation, one at a time (a closed loop with a single
client). The package is taken from `src/` next to this directory. `--seed`
picks the (lambda, rho) pair of the `axioms` and `riesz` fixtures; carrier
sizes do not depend on it.

With `--trace 0`, after one unmeasured warm-up invocation, the run repeats
three invocations until `--seconds` would be exceeded, at least twice: the
workload; reference.py, a fixed program that does not use kitealg; and a
set-up invocation (the workload's command with `--checks ""`: start the
interpreter, import, parse the config, build every kite, emit the report,
run no checks). Invocations alternate between PYTHONHASHSEED 0 and 1, so
every run also checks that reports do not depend on the hash seed. It prints:

- `wall_s`: wall time of a workload invocation, spawn to exit;
- `setup_s`: wall time of a set-up invocation;
- `peak_rss_mb`: median of the workload child's maximum RSS (wait4);
- `ok_share`: share of all checked invocations whose exit code and report
  digest equal the values pinned in expected.json.

Both times are the median, over the run, of the invocation's wall time
divided by that of the adjacent reference invocation, times REF_NOMINAL_S.
On a shared 2-core host the speed of the same code swings by up to 1.8x for
seconds to minutes with other tenants' load. In two sets of ten 40 s runs
per workload on a 2-vCPU Intel Xeon VM, the run medians of raw wall time
spread by 12-32% (IQR over median) and the scaled times by 4-11%. A change
to kitealg moves the workload and not the reference, so it shows in full.
The detail line keeps every raw sample and the raw medians.

With `--trace 1` it makes one untraced and one traced invocation
(traced_cli.py, tracer.py) and prints the per-layer metrics plus
`trace.overhead`, the traced wall time over the untraced one.

The report digest is the sha256 of the JSON report with every `wall_ms`
value set to 0, re-encoded with sorted keys. The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
before it records the machine and the raw samples. The exit code is 1 when
any invocation's exit code or digest differs from the pinned one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

# A run must end within 180 s; invocations still running this long after the
# run started are killed and count as failed.
RUN_DEADLINE_S = 170.0
HASH_SEEDS = ("0", "1")

# Times are reported in seconds of a host on which reference.py takes this
# long; on a 2-vCPU Intel Xeon VM (2.1 GHz, Python 3.11) it takes 0.2-0.3 s.
REF_NOMINAL_S = 0.2

# (lambda, rho) pairs for the n = 2 fixtures; --seed picks one by index
# modulo the length. Index 0 is the (id, swap) fixture.
PAIRS = (("id", "swap"), ("swap", "id"), ("id", "id"), ("swap", "swap"))

SWEEP_GRID = {"groups": ["z", "strictcone2"], "n": [0, 1, 2, 3],
              "heights": [1], "perm_pairs": "all"}

WORKLOADS = ("axioms", "riesz", "sweep")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_share", "share"))


def _shape(lam: str, rho: str) -> str:
    return json.dumps({"n": 2, "lambda": lam, "rho": rho},
                      separators=(",", ":"))


def workload(name: str, seed: int) -> tuple[str, list, list]:
    """(variant key, workload argv, set-up argv) for a workload and seed.

    The caps keep an `axioms` or `riesz` invocation near 2-3 s, so that a
    40 s run holds a dozen of them; with cap 40 and no cap they took 8-12 s
    and 5-6 s. The sweep takes 4-6 s.
    """
    if name == "axioms":
        lam, rho = PAIRS[seed % len(PAIRS)]
        head = ["check", "--group", "z2", "--shape", _shape(lam, rho),
                "--height", "2", "--cap", "24"]
        checks, variant = "axioms", f"{lam},{rho}"
    elif name == "riesz":
        lam, rho = PAIRS[seed % len(PAIRS)]
        head = ["check", "--group", "z", "--shape", _shape(lam, rho),
                "--height", "2", "--cap", "14"]
        checks, variant = "rdp", f"{lam},{rho}"
    elif name == "sweep":
        head = ["sweep", "--grid", json.dumps(SWEEP_GRID,
                                              separators=(",", ":"))]
        checks, variant = "ideals,iso,state", "grid"
    else:
        raise ValueError(f"unknown workload {name!r}")
    tail = ["--format", "json"]
    return (variant, head + ["--checks", checks] + tail,
            head + ["--checks", ""] + tail)


# -- one invocation ---------------------------------------------------------


def report_digest(stdout: bytes) -> str:
    """sha256 of the JSON report with wall_ms masked; 'unparsable' if not JSON."""
    def mask(obj):
        if isinstance(obj, dict):
            return {k: 0 if k == "wall_ms" else mask(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [mask(v) for v in obj]
        return obj

    try:
        report = json.loads(stdout)
    except ValueError:
        return "unparsable"
    canon = json.dumps(mask(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def child_env(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = hash_seed
    return env


def cli_cmd(argv: list, trace_out: Path | None = None) -> list:
    """Command line for one CLI invocation, traced when trace_out is set."""
    if trace_out is None:
        return [sys.executable, "-m", "kitealg.cli"] + argv
    return [sys.executable, str(HERE / "traced_cli.py"), str(trace_out),
            "--"] + argv


REFERENCE_CMD = [sys.executable, str(HERE / "reference.py")]


class Child:
    """Runs child processes one at a time, with their output in tmpdir.

    A child still running RUN_DEADLINE_S after the Child was made is killed,
    so that a whole run ends within its time limit.
    """

    def __init__(self, tmpdir: Path):
        self.tmpdir = tmpdir
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def run(self, cmd: list, hash_seed: str = HASH_SEEDS[0]) -> dict:
        """One process; wall time from spawn to exit, rusage via wait4."""
        out_path = self.tmpdir / "stdout.json"
        budget = max(1.0, self.deadline - time.perf_counter())
        with open(out_path, "wb") as out, \
                open(self.tmpdir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    env=child_env(hash_seed), cwd=ROOT)
            watchdog = threading.Timer(budget, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
                "hash_seed": hash_seed,
                "digest": report_digest(out_path.read_bytes())}


# -- pinned results ---------------------------------------------------------


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def matches(sample: dict, pinned: dict) -> bool:
    return (sample["exit"] == pinned["exit"]
            and sample["digest"] == pinned["sha256"])


# -- measurement ------------------------------------------------------------


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def measure(name: str, seed: int, seconds: float, child: Child) -> tuple:
    variant, argv, setup_argv = workload(name, seed)
    pinned = load_expected()
    want = pinned[name][variant]
    checks, runs, setup, refs = [], [], [], []

    def sample(cmd, expect, out):
        s = child.run(cmd, hash_seed=HASH_SEEDS[len(out) % 2])
        out.append(s)
        checks.append(matches(s, expect))

    child.run(cli_cmd(setup_argv))  # warm-up: bytecode cache and page cache
    start = time.perf_counter()
    while True:
        sample(cli_cmd(argv), want["run"], runs)
        sample(REFERENCE_CMD, pinned["reference"], refs)
        sample(cli_cmd(setup_argv), want["setup"], setup)
        elapsed = time.perf_counter() - start
        if len(runs) >= len(HASH_SEEDS) and elapsed * (len(runs) + 1) > \
                seconds * len(runs):
            break

    def scaled(samples):
        return REF_NOMINAL_S * statistics.median(
            s["wall_s"] / r["wall_s"] for s, r in zip(samples, refs))

    values = {
        "wall_s": scaled(runs),
        "setup_s": scaled(setup),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "ok_share": sum(checks) / len(checks),
    }
    metrics = {k: (values[k], unit) for k, unit in END_TO_END}
    raw = {key: statistics.median(s["wall_s"] for s in samples)
           for key, samples in (("run", runs), ("setup", setup),
                                ("reference", refs))}
    detail = {"variant": variant, "argv": argv, "samples": len(runs),
              "raw_median_s": raw, "runs": runs, "setup": setup,
              "reference": refs}
    return checks, metrics, detail


def measure_traced(name: str, seed: int, child: Child) -> tuple:
    from tracer import LAYER_METRICS, layer_metrics

    variant, argv, setup_argv = workload(name, seed)
    pinned = load_expected()[name][variant]
    child.run(cli_cmd(setup_argv))  # warm-up
    plain = child.run(cli_cmd(argv))
    trace_path = child.tmpdir / "trace.json"
    traced = child.run(cli_cmd(argv, trace_path))
    checks = [matches(plain, pinned["run"]), matches(traced, pinned["run"])]
    metrics = {}
    if trace_path.is_file():
        with open(trace_path) as fh:
            values = layer_metrics(json.load(fh))
        values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
        metrics = {k: (values[k], unit) for k, unit in LAYER_METRICS}
    return checks, metrics, {"variant": variant, "argv": argv,
                             "runs": [plain], "traced": traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kitealg" / "cli.py").is_file():
        print(f"kitealg sources not found under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    child = Child(tmpdir)
    try:
        if args.trace:
            checks, metrics, detail = measure_traced(args.workload, args.seed,
                                                     child)
        else:
            checks, metrics, detail = measure(args.workload, args.seed,
                                              args.seconds, child)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    detail.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "machine": machine_info()})
    print(json.dumps(detail, sort_keys=True))
    failed = checks.count(False)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
