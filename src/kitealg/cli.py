"""Command line front end: build a kite fixture, run check sweeps, print
window tables, and emit deterministic reports.

Exit codes (for a sweep, over all cells): 0 when every requested check
Holds, 1 when anything Fails, 2 when nothing Fails but some result is
Unknown, 64 for configuration errors and budget refusals. main(argv)
returns the code; the program (console_main) flushes stdout and stderr and
leaves through os._exit, skipping the interpreter's teardown, and exits 120
when its report cannot be written.

Reports are reproducible: given the same config the JSON is byte-identical
except for the wall_ms timing fields.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from typing import Any, Optional

from . import perms
from .axioms import (check_commutative, check_pea_axioms, check_pmv_axioms,
                     check_symmetric, perfect_split, unique_state)
from .ideals import (IdealSet, canonical_form, is_normal, least_normal_ideal,
                     normal_ideal_generated, orbits)
from .kite import Kite, KiteShape
from .pogroup import UsageError, Window, check_perms, cone_window, parse_group
from .record import Record
from .representations import perfect_representation, verify_iso
from .riesz import RdpLevel, check_rdp_level
from .verdict import Status, Verdict, fails, holds, unknown

SCHEMA = "kite-checks/1"
TOOL = "kitealg 0.1.0"

CHECK_TOKENS = ("axioms", "rdp", "rip", "rdp0", "rdp1", "rdp2",
                "ideals", "iso", "state")
DEFAULT_CHECKS = ("axioms", "rdp0", "ideals", "iso", "state")
DEFAULT_SHAPE = {"n": 1, "lambda": "id", "rho": "id"}


class RunConfig(Record):
    # the field order is also the order of echo() and so of the report header
    _fields = ("group", "shape", "height", "cap", "nmax", "depth", "checks",
               "out", "format", "seed", "grid", "sweep_budget", "show_budget")

    def __init__(self, group: Any = "z", shape: dict = DEFAULT_SHAPE,
                 height: int = 2, cap: Optional[int] = None, nmax: int = 8,
                 depth: int = 4, checks: tuple = DEFAULT_CHECKS,
                 out: Optional[str] = None, format: str = "text",
                 seed: Optional[int] = None, grid: Optional[dict] = None,
                 sweep_budget: int = 400, show_budget: int = 64) -> None:
        self.group = group
        # a fresh dict per config, so no config edits the default
        self.shape = dict(shape) if shape is DEFAULT_SHAPE else shape
        self.height = height
        self.cap = cap
        self.nmax = nmax
        self.depth = depth
        self.checks = checks
        self.out = out
        self.format = format
        self.seed = seed
        self.grid = grid
        self.sweep_budget = sweep_budget
        self.show_budget = show_budget

    def replace(self, **changes) -> "RunConfig":
        """A copy with the named fields changed."""
        return RunConfig(**dict(zip(self._fields, self._key()), **changes))

    def echo(self) -> dict:
        """Every field but out, for the report header."""
        out = {f: getattr(self, f) for f in self._fields if f != "out"}
        out["checks"] = list(self.checks)
        return out


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise UsageError(what)


# Counts are exact up to this bound, or up to the budget if that is larger.
# A count past it is neither finished nor printed: a refusal names the bound.
_COUNT_BOUND = 10 ** 12


def _capped_product(factors, budget: int) -> int:
    """The product of the factors, or the first partial one past the bound."""
    bound, out = max(budget, _COUNT_BOUND), 1
    for f in factors:
        out *= f
        if out > bound:
            break
    return out


def _refuse_over_budget(count: int, budget: int, text: str) -> None:
    """Raise UsageError with text when count passes budget. text's {count}
    reads "more than" the count bound when the count passes that too."""
    if count > budget:
        bound = max(budget, _COUNT_BOUND)
        shown = count if count <= bound else f"more than {bound}"
        raise UsageError(text.format(count=shown, budget=budget))


def _json_loads(text: str, where: str):
    """json.loads, refusing an integer longer than int() converts from a
    string (sys.get_int_max_str_digits) with a message that names where."""
    # 0 is no limit, as on Python before 3.10.7, which lacks the function
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    def parse_int(digits: str) -> int:
        if limit and len(digits.lstrip("-")) > limit:
            raise UsageError(f"{where}: an integer has more than {limit} "
                             "digits")
        return int(digits)

    return json.loads(text, parse_int=parse_int)


def load_config(path: Optional[str], overrides: dict) -> RunConfig:
    data: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8
            raise UsageError(f"config file: {exc}")
        try:
            data = _json_loads(text, "config file")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file line {exc.lineno}: {exc.msg}")
        _expect(isinstance(data, dict), "config file must hold an object")
    merged = dict(data)
    for k, v in overrides.items():
        if v is not None:
            merged[k] = v
    for k in merged:
        _expect(k in RunConfig._fields, f"field {k!r} is not recognized")
    if "checks" in merged and isinstance(merged["checks"], str):
        merged["checks"] = [c for c in merged["checks"].split(",") if c]
    cfg = RunConfig(**merged)
    _validate(cfg)
    return cfg


def _is_int(v) -> bool:
    """An int that is not a bool (JSON true would pass isinstance int)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _validate(cfg: RunConfig) -> None:
    for name, least in (("height", 0), ("nmax", 1), ("depth", 1),
                        ("sweep_budget", 1), ("show_budget", 1)):
        v = getattr(cfg, name)
        _expect(_is_int(v) and v >= least,
                f"field '{name}': must be an integer >= {least}")
    _expect(cfg.cap is None or (_is_int(cfg.cap) and cfg.cap >= 1),
            "field 'cap': must be a positive integer or null")
    _expect(cfg.format in ("json", "text"),
            "field 'format': must be 'json' or 'text'")
    _expect(cfg.seed is None or _is_int(cfg.seed),
            "field 'seed': must be an integer or null")
    _expect(cfg.out is None or isinstance(cfg.out, str),
            "field 'out': must be a file name or null")
    _expect(isinstance(cfg.checks, (list, tuple)),
            "field 'checks': must be a list of names or a comma string")
    checks = tuple(cfg.checks)
    for c in checks:
        _expect(c in CHECK_TOKENS,
                f"field 'checks': {c!r} is not one of {', '.join(CHECK_TOKENS)}")
    cfg.checks = checks
    _expect(isinstance(cfg.shape, dict), "field 'shape': must be an object")
    _expect(cfg.grid is None or isinstance(cfg.grid, dict),
            "field 'grid': must be an object or null")


def _parse_perm(spec, n: int, fieldname: str) -> tuple:
    if isinstance(spec, (list, tuple)):
        return check_perms(n, f"field '{fieldname}'", spec)[0]
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name in ("id", "identity"):
            return tuple(perms.identity(n))
        if name == "swap":
            _expect(n == 2, f"field '{fieldname}': 'swap' needs n=2")
            return (1, 0)
        if name.startswith("shift"):
            k = _perm_offset(name, 1, fieldname)
            return tuple(perms.cyclic_shift(n, k))
        if name.startswith("reflect"):
            k = _perm_offset(name, 0, fieldname)
            return tuple((k - i) % n for i in range(n)) if n else ()
    raise UsageError(f"field '{fieldname}': expected a permutation list or a "
                     "name like 'id', 'swap', 'shift:k', 'reflect:k'")


def _perm_offset(name: str, default: int, fieldname: str) -> int:
    """The k of a 'shift:k' or 'reflect:k' name, or default without ':'."""
    if ":" not in name:
        return default
    try:
        return int(name.split(":", 1)[1])
    except ValueError:
        raise UsageError(f"field '{fieldname}': {name!r} needs an integer "
                         "after ':'")


def build_kite(cfg: RunConfig) -> Kite:
    base = parse_group(cfg.group)
    shp = cfg.shape
    _expect("n" in shp and _is_int(shp["n"]) and shp["n"] >= 0,
            "field 'shape.n': must be a non-negative integer")
    n = shp["n"]
    lam = _parse_perm(shp.get("lambda", shp.get("lam", "id")), n, "shape.lambda")
    rho = _parse_perm(shp.get("rho", "id"), n, "shape.rho")
    extra = set(shp) - {"n", "lambda", "lam", "rho"}
    _expect(not extra, f"field 'shape': unrecognized keys {sorted(extra)}")
    return Kite(KiteShape(n=n, lam=lam, rho=rho, base=base))


# -- report plumbing -----------------------------------------------------------


def vjson(v: Verdict) -> dict:
    return {"status": v.status.value, "checked": v.checked,
            "skipped": v.skipped, "witness": v.witness_dict(),
            "reason": v.reason}


def _worst(statuses) -> int:
    vals = list(statuses)
    if any(s == Status.FAILS.value for s in vals):
        return 1
    if any(s == Status.UNKNOWN.value for s in vals):
        return 2
    return 0


def _all_statuses(sections: dict):
    for section in sections.values():
        for v in section["verdicts"].values():
            yield v["status"]


_RDP_TOKEN = {"rip": (RdpLevel.RIP,), "rdp0": (RdpLevel.RDP0,),
              "rdp1": (RdpLevel.RDP1,), "rdp2": (RdpLevel.RDP2,),
              "rdp": (RdpLevel.RIP, RdpLevel.RDP0, RdpLevel.RDP,
                      RdpLevel.RDP1, RdpLevel.RDP2)}


# the iso token's target kites, one per canonical shape: the connected cells
# of one base and n share their canonical shape, so they share its sample and
# memo rows; the bound caps what a long grid keeps alive
_canonical_kite = functools.lru_cache(maxsize=8)(Kite)


def _check_units(token: str, kite: Kite, cfg: RunConfig, w: Window) -> list:
    """The independent units of one check token, each a function of no
    arguments returning (verdicts by label, payload renderers by name). No
    unit reads another's result: axioms splits into the PEA axioms, the PMV
    axioms (lattice bases) and the classification, rdp into its levels."""
    if token == "axioms":
        units = [lambda: (check_pea_axioms(kite, w), {})]
        if kite.is_lattice:
            units.append(lambda: (check_pmv_axioms(kite, w), {}))

        def classification():
            # descriptive, not pass/fail: an asymmetric or noncommutative
            # kite is a valid kite
            sym, com = check_symmetric(kite, w), check_commutative(kite, w)
            return {}, {"classification": lambda: {
                "symmetry": vjson(sym), "commutativity": vjson(com)}}

        return units + [classification]
    if token in _RDP_TOKEN:
        return [lambda level=level: (
                    {level.value: check_rdp_level(kite, level, w)}, {})
                for level in _RDP_TOKEN[token]]
    return [functools.partial(_one_unit, token, kite, cfg, w)]


def _one_unit(token: str, kite: Kite, cfg: RunConfig, w: Window) -> tuple:
    """(verdicts, payload renderers) of a token that is a single unit."""
    ser = kite.serialize
    verdicts: dict = {}
    extras: dict = {}  # payload name -> function that renders it
    if token == "ideals":
        extras["orbit_report"] = lambda: orbits(kite.shape).as_json()
        v, payload = least_normal_ideal(kite, w)
        verdicts["least_normal_ideal"] = v
        if isinstance(payload, IdealSet):
            extras["least_ideal"] = lambda: payload.as_json(ser)
        elif isinstance(payload, list):
            extras["witness_ideals"] = lambda: [p.as_json(ser) for p in payload]
        gen = next((x for x in kite.elements(w)
                    if x.tag == "L" and kite.dimension(x) == 1), None)
        if gen is not None:
            ideal = normal_ideal_generated(kite, gen, w, depth=cfg.depth)
            extras["generated_ideal"] = lambda: ideal.as_json(ser)
            verdicts["generated_ideal_normal"] = is_normal(kite, ideal, w)
    elif token == "iso":
        try:
            new_shape, relabel = canonical_form(kite.shape)
        except UsageError as exc:
            verdicts["canonical_roundtrip"] = unknown(reason=str(exc))
        else:
            extras["canonical_shape"] = new_shape.describe
            extras["relabel"] = relabel.as_json
            verdicts["canonical_roundtrip"] = verify_iso(
                kite, _canonical_kite(new_shape), relabel, w)
        if kite.shape.lam == kite.shape.rho and kite.base.is_lattice:
            target, spec, v = perfect_representation(kite, w)
            verdicts["perfect_representation"] = v
            extras["representation_map"] = spec.as_json
            extras["representation_target"] = target.name
    elif token == "state":
        split = perfect_split(kite, w, nmax=cfg.nmax)
        if split is None:
            verdicts["perfect_split"] = fails(
                reason="no two-class split on this window")
        else:
            verdicts["perfect_split"] = holds(
                checked=len(split.e0) + len(split.e1))
            extras["split_sizes"] = lambda: {"e0": len(split.e0),
                                             "e1": len(split.e1)}
            table, sv = unique_state(kite, split, w, nmax=cfg.nmax)
            verdicts["unique_state"] = sv
            extras["state_table"] = lambda: table.as_json(ser)
            kernel = IdealSet(elements=split.e0, generators=(),
                              closed_flags={"downward": True, "sums": True,
                                            "exhaustive": False})
            verdicts["state_kernel_normal"] = is_normal(kite, kernel, w)
    return verdicts, extras


def _unvjson(d: dict) -> Verdict:
    """The Verdict whose vjson is d."""
    return Verdict(Status(d["status"]), d["checked"], d["skipped"],
                   tuple(d["witness"].items()), d["reason"])


def run_check_token(token: str, kite: Kite, cfg: RunConfig,
                    payloads: bool = True) -> tuple[dict, dict]:
    """(verdicts by label, extra JSON payloads) for one check token; with
    payloads false, only the classification, which a sweep row reads.

    With payloads, the token's units (_check_units) are computed in one
    forked process per usable CPU (_map_forked), after the window sample is
    built, so that every worker inherits it. A sweep cell, which renders no
    payloads, runs its units serially, so no forked cell forks again. Each
    unit hands back the vjson of its verdicts and its rendered payloads, and
    the verdicts are rebuilt from them in unit order: the result is the same
    however the units were run.
    """
    w = Window(cfg.height, cfg.cap)

    def run(unit) -> tuple[dict, dict]:
        verdicts, extras = unit()
        return ({k: vjson(v) for k, v in verdicts.items()},
                {k: render() for k, render in extras.items()
                 if payloads or k == "classification"})

    units = _check_units(token, kite, cfg, w)
    if payloads:
        results = _map_forked(run, units, before_fork=lambda: kite.elements(w))
    else:
        results = [run(unit) for unit in units]
    verdicts: dict = {}
    extras: dict = {}
    for unit_verdicts, unit_extras in results:
        verdicts.update((k, _unvjson(v)) for k, v in unit_verdicts.items())
        extras.update(unit_extras)
    return verdicts, extras


def cmd_check(cfg: RunConfig) -> tuple[dict, int]:
    kite = build_kite(cfg)
    sections: dict = {}
    for token in cfg.checks:
        t0 = time.perf_counter()
        verdicts, extras = run_check_token(token, kite, cfg)
        section = {"verdicts": {k: vjson(v) for k, v in verdicts.items()},
                   "wall_ms": int((time.perf_counter() - t0) * 1000)}
        if extras:
            section["extras"] = extras
        sections[token] = section
    code = _worst(_all_statuses(sections))
    report = {"schema": SCHEMA, "tool": TOOL, "command": "check",
              "config": cfg.echo(), "fixture": kite.shape.label(),
              "checks": sections, "exit_code": code}
    return report, code


def _grid_cells(cfg: RunConfig):
    """(group, n, lam, rho, height) per sweep cell. The cells are counted,
    and refused over sweep_budget, before any permutation pair is built."""
    grid = cfg.grid or {}
    extra = set(grid) - {"groups", "n", "heights", "perm_pairs"}
    _expect(not extra, f"field 'grid': unrecognized keys {sorted(extra)}")
    groups = grid.get("groups", [cfg.group])
    ns = grid.get("n", [cfg.shape.get("n", 1)])
    heights = grid.get("heights", [cfg.height])
    pair_spec = grid.get("perm_pairs", "all")
    _expect(isinstance(groups, list), "field 'grid.groups': must be a list")
    for name, values in (("n", ns), ("heights", heights)):
        _expect(isinstance(values, list) and all(
            _is_int(v) and v >= 0 for v in values),
            f"field 'grid.{name}': must be a list of non-negative integers")
    _expect(pair_spec == "all" or (isinstance(pair_spec, list) and all(
        isinstance(p, list) and len(p) == 2 for p in pair_spec)),
        "field 'grid.perm_pairs': must be 'all' or a list of [lambda, rho] "
        "pairs")
    # (n!)^2 pairs per n for "all"; a capped n! squared is still past the
    # bound, and so is the count
    per_n = sum(_capped_product(range(2, n + 1), cfg.sweep_budget) ** 2
                if pair_spec == "all" else len(pair_spec) for n in ns)
    _refuse_over_budget(
        len(groups) * len(heights) * per_n, cfg.sweep_budget,
        "sweep grid has {count} cells, over the budget of {budget}; shrink "
        "the grid or raise 'sweep_budget'")
    cells = []
    for gdesc, n, h in itertools.product(groups, ns, heights):
        if pair_spec == "all":
            pairs = [(tuple(l), tuple(r))
                     for l in perms.all_perms(n) for r in perms.all_perms(n)]
        else:
            pairs = [(tuple(_parse_perm(l, n, "grid.perm_pairs")),
                      tuple(_parse_perm(r, n, "grid.perm_pairs")))
                     for l, r in pair_spec]
        for lam, rho in pairs:
            cells.append((gdesc, n, lam, rho, h))
    return cells


def _sweep_row(cfg: RunConfig, cell: tuple) -> dict:
    """The report row of one sweep cell: the status of every check."""
    gdesc, n, lam, rho, h = cell
    cell_cfg = cfg.replace(group=gdesc, height=h,
                           shape={"n": n, "lambda": list(lam), "rho": list(rho)})
    kite = build_kite(cell_cfg)
    statuses: dict = {}
    classification: dict = {}
    for token in cfg.checks:
        verdicts, extras = run_check_token(token, kite, cell_cfg, payloads=False)
        for k, v in verdicts.items():
            statuses[f"{token}.{k}"] = v.status.value
        for k, v in extras.get("classification", {}).items():
            classification[k] = v["status"]
    row = {"group": gdesc, "n": n, "lam": list(lam), "rho": list(rho),
           "height": h, "statuses": statuses}
    if classification:
        row["classification"] = classification
    return row


def _share(fn, items: list, start: int, step: int) -> list:
    """fn over items[start::step], up to the first item that raises."""
    out = []
    for x in items[start::step]:
        try:
            out.append(fn(x))
        except Exception:
            break
    return out


def _map_forked(fn, items: list, before_fork=None) -> list:
    """[fn(x) for x in items], in one forked process per usable CPU.

    It maps the cells of a sweep and the units of a check token. fn must
    return JSON values, which come back through a pipe, and change no state
    but pure memos. With k processes, child i computes items i::k and the
    parent items 0::k, so neighbouring (similar) items spread over all of
    them. Every process stops at its first failing item. The parent then
    computes, in item order, each item that did not come back: a failing
    item raises here what a serial loop raises, and the items of a child
    that died or sent nothing are computed again. Without os.fork or
    os.sched_getaffinity, or with one CPU or item, the loop runs serially;
    otherwise before_fork, when given, runs once in the parent before the
    first fork, to build state that every child inherits.
    """
    k = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        k = min(len(os.sched_getaffinity(0)), len(items))
    if k < 2:
        return [fn(x) for x in items]
    if before_fork is not None:
        before_fork()
    pids, fds = [], []
    try:
        for start in range(1, k):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child sends its share and exits at once
                try:
                    os.close(r)
                    with open(w, "w") as fh:
                        fh.write(json.dumps(_share(fn, items, start, k)))
                finally:
                    os._exit(0)
            os.close(w)
            pids.append(pid)
            fds.append(r)
        shares = [_share(fn, items, 0, k)]
        for fd in fds:
            with open(fd, "rb", closefd=False) as fh:
                try:
                    shares.append(json.loads(fh.read()))
                except ValueError:  # nothing sent, or cut off
                    shares.append([])
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    missing = object()
    out: list = [missing] * len(items)
    for start, share in enumerate(shares):
        out[start:start + k * len(share):k] = share
    return [fn(x) if r is missing else r for x, r in zip(items, out)]


def cmd_sweep(cfg: RunConfig) -> tuple[dict, int]:
    """Run cfg.checks on every cell of cfg.grid: one row of statuses per cell.

    Cells share no state but pure memos, so when there are checks to run
    they are computed in one forked process per usable CPU (_map_forked).
    The report is the same as from one process; a set-up run without checks
    never forks.
    """
    cells = _grid_cells(cfg)
    if cfg.checks:
        rows = _map_forked(lambda cell: _sweep_row(cfg, cell), cells)
    else:
        rows = [_sweep_row(cfg, cell) for cell in cells]
    code = _worst(s for row in rows for s in row["statuses"].values())
    report = {"schema": SCHEMA, "tool": TOOL, "command": "sweep",
              "config": cfg.echo(), "cells": rows, "exit_code": code}
    return report, code


def cmd_show(cfg: RunConfig) -> tuple[dict, int]:
    # refused by its size, 2 |cone|^n capped, and then by n, the length of
    # every printed element, before the kite is built; an n that is not a
    # count is build_kite's to refuse
    n = cfg.shape.get("n")
    if _is_int(n) and n >= 0:
        cone = len(cone_window(parse_group(cfg.group), Window(cfg.height)))
        # a cone of one value (a trivial base, or height 0) has 2 elements
        size = 2 * _capped_product(itertools.repeat(cone, n if cone > 1 else 0),
                                   cfg.show_budget)
        _refuse_over_budget(
            min(size, cfg.cap or size), cfg.show_budget,
            "{count} elements is too many to tabulate; lower the height, set "
            "a cap, or raise 'show_budget'")
        _refuse_over_budget(
            n, cfg.show_budget,
            "shape n is {count}, over the budget of {budget} coordinates; "
            "lower n or raise 'show_budget'")
    kite = build_kite(cfg)
    w = Window(cfg.height, cfg.cap)
    carrier = kite.elements(w)
    labels = [repr(x) for x in carrier]
    add_rows = []
    for x in carrier:
        for y in carrier:
            s = kite.add(x, y)
            if s is not None:
                add_rows.append({"x": repr(x), "y": repr(y), "sum": repr(s)})
    negs = [{"x": repr(x),
             "left": repr(kite.complement_left(x)),
             "right": repr(kite.complement_right(x))} for x in carrier]
    report = {"schema": SCHEMA, "tool": TOOL, "command": "show",
              "config": cfg.echo(), "fixture": kite.shape.label(),
              "carrier": labels, "addition": add_rows, "negations": negs,
              "orbits": orbits(kite.shape).as_json(), "exit_code": 0}
    return report, 0


# -- rendering -------------------------------------------------------------------


def _render_text(report: dict) -> str:
    lines = [f"{report['tool']} :: {report['command']}"]
    if "fixture" in report:
        lines.append(f"fixture: {report['fixture']}")
    if report["command"] in ("check",):
        for token, section in report["checks"].items():
            lines.append(f"[{token}] ({section['wall_ms']} ms)")
            for label, v in section["verdicts"].items():
                tail = f" ({v['reason']})" if v["reason"] else ""
                lines.append(
                    f"  {label}: {v['status']} checked={v['checked']}"
                    + (f" skipped={v['skipped']}" if v["skipped"] else "")
                    + tail)
                if v["witness"]:
                    lines.append(f"    witness: {json.dumps(v['witness'], sort_keys=True)}")
            cls = section.get("extras", {}).get("classification", {})
            for label, v in cls.items():
                lines.append(f"  {label} (classification): {v['status']}")
    elif report["command"] == "sweep":
        for row in report["cells"]:
            head = (f"group={row['group']} n={row['n']} lam={row['lam']} "
                    f"rho={row['rho']} h={row['height']}")
            worst = _worst(row["statuses"].values())
            tag = {0: "holds", 1: "FAILS", 2: "unknown"}[worst]
            cls = row.get("classification", {})
            cls_txt = "".join(f" {k}={v}" for k, v in cls.items())
            lines.append(f"{head}: {tag}{cls_txt}")
            for label, status in row["statuses"].items():
                if status != "holds":
                    lines.append(f"  {label}: {status}")
        lines.append(f"cells: {len(report['cells'])}")
    elif report["command"] == "show":
        lines.append("carrier:")
        for lab in report["carrier"]:
            lines.append(f"  {lab}")
        lines.append("addition (defined cells):")
        for row in report["addition"]:
            lines.append(f"  {row['x']} + {row['y']} = {row['sum']}")
        lines.append("negations (element, left, right):")
        for row in report["negations"]:
            lines.append(f"  {row['x']}: {row['left']}, {row['right']}")
        orb = report["orbits"]
        lines.append(f"orbits: sigma={orb['sigma']} cycles={orb['cycles']} "
                     f"connected={orb['connected']}")
    lines.append(f"exit: {report['exit_code']}")
    return "\n".join(lines)


def _emit(report: dict, cfg: RunConfig) -> None:
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if cfg.out:
        try:
            fh = open(cfg.out, "w")
        except OSError as exc:
            raise UsageError(f"field 'out': {exc}")
        with fh:
            fh.write(rendered + "\n")
    if cfg.format == "json":
        print(rendered)
    else:
        print(_render_text(report))


# -- entry point -------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags override it")
    sp.add_argument("--group", help="group shortcut (z, z2, z3, strictcone2) "
                                    "or inline JSON descriptor")
    sp.add_argument("--shape", help="inline JSON, e.g. "
                                    '\'{"n":2,"lambda":"id","rho":"swap"}\'')
    sp.add_argument("--height", type=int, help="window height (default 2)")
    sp.add_argument("--checks", help="comma list: " + ",".join(CHECK_TOKENS))
    sp.add_argument("--out", help="also write the JSON report here")
    sp.add_argument("--format", choices=("json", "text"),
                    help="stdout format (default text)")
    sp.add_argument("--seed", type=int,
                    help="echoed for bookkeeping; all searches are deterministic")
    sp.add_argument("--cap", type=int, help="carrier sample cap")
    sp.add_argument("--grid", help="inline JSON sweep grid")


def _overrides(args: argparse.Namespace) -> dict:
    out = {"group": args.group, "height": args.height, "checks": args.checks,
           "out": args.out, "format": args.format, "seed": args.seed,
           "cap": args.cap}
    # --group is JSON only when it is an object; otherwise it is a shortcut
    group_json = args.group is not None and args.group.strip().startswith("{")
    for name, text in (("shape", args.shape), ("grid", args.grid),
                       ("group", args.group if group_json else None)):
        if text is not None:
            try:
                out[name] = _json_loads(text, f"--{name}")
            except json.JSONDecodeError as exc:
                raise UsageError(f"--{name}: {exc.msg}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kitealg",
        description="Construct kite algebras over po-groups and machine-check "
                    "their laws on bounded windows.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("check", "run the selected checkers"),
                            ("sweep", "cross-product of fixtures, one "
                                      "verdict summary per cell"),
                            ("show", "print carrier and operation tables")):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        runner = {"check": cmd_check, "sweep": cmd_sweep,
                  "show": cmd_show}[args.command]
        report, code = runner(cfg)
        _emit(report, cfg)
        return code
    except UsageError as exc:  # CapabilityError included
        print(f"config error: {exc}", file=sys.stderr)
        return 64


def console_main() -> int:
    """The kitealg program: main() on sys.argv, then os._exit with its code
    once stdout and stderr are flushed, which skips the interpreter's
    teardown (a last garbage collection and freeing every object). An
    OSError from main or from the flush (a closed stdout pipe, whatever the
    report's size) means that no whole report was written: it is named on
    stderr and the program exits 120, as Python does when its own flush at
    exit fails. Any other exception from main propagates (exit 1)."""
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        print(f"kitealg: report not written: {exc!r}", file=sys.stderr)
        code = 120
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(console_main())
