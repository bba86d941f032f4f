"""Outside-in call tracer for one kitealg process.

`Tracer.install()` wraps public functions and methods of the kitealg
modules before the CLI runs. Every wrapper records calls, inclusive time and
self time; the parent of each call is the innermost wrapped call around it,
and (parent, name) edges are kept in memory and written out by `dump()`.

Wrapping has to catch every binding a call goes through:

- functions are rebound in every kitealg module whose globals hold them, so
  `from .riesz import check_rdp_level` style imports and module-global calls
  both reach the wrapper;
- methods are replaced on the class that defines them, so bound methods taken
  later (the adapter records built by `Kite.pea()`) capture the wrapper, as
  long as the tracer is installed before any kite is built;
- `join`/`meet` are wrapped on each backend that overrides them.

`layer_metrics(dump)` turns a dump into the per-layer metrics named in
`LAYER_METRICS`; `trace.overhead` is added by the runner, which also sees the
untraced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

CHECK_TOKENS = ("axioms", "rdp", "rip", "rdp0", "rdp1", "rdp2",
                "ideals", "iso", "state")
RDP_LEVELS = ("rip", "rdp0", "rdp", "rdp1", "rdp2")
LATTICE_BACKENDS = ("Integers", "Product", "TwistedLexGroup")


def _layer_metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []

    def calls_self(prefix):
        out.extend([(prefix + ".calls", "count"), (prefix + ".self_s", "s")])

    for op in ("mul", "leq", "inv"):
        calls_self("pogroup." + op)
    for backend in LATTICE_BACKENDS:
        for op in ("meet", "join"):
            calls_self(f"pogroup.{op}.{backend}")
    out += [("pogroup.own.calls", "count"),
            ("pogroup.enumerate_window.calls", "count"),
            ("pogroup.window_cache.misses", "count")]
    calls_self("pogroup.enumerate_interval")
    calls_self("pogroup.cone_window")
    for op in ("add", "leq", "complement", "diff", "mv_oplus", "mv_odot"):
        calls_self("kite." + op)
    calls_self("kite.elements")
    out.append(("kite.elements.items", "count"))
    calls_self("kite.interval")
    out.append(("kite.interval.yield", "ratio"))
    for fn in ("check_pea_axioms", "check_pmv_axioms"):
        out += [(f"axioms.{fn}.s", "s"), (f"axioms.{fn}.checked_per_s", "1/s")]
    out += [("axioms.perfect_split.s", "s"), ("axioms.unique_state.s", "s")]
    for level in RDP_LEVELS:
        out.append((f"riesz.check_rdp_level.{level}.checked_per_s", "1/s"))
    calls_self("riesz.find_interpolant")
    calls_self("riesz.find_refinement")
    out.append(("riesz.constructive.hit_ratio", "ratio"))
    out += [("ideals.is_normal.calls", "count"), ("ideals.is_normal.s", "s"),
            ("ideals.is_normal.checked_per_s", "1/s"),
            ("ideals.normal_ideal_generated.s", "s"),
            ("ideals.ideal_closure.s", "s"),
            ("ideals.least_normal_ideal.s", "s"),
            ("representations.verify_iso.s", "s"),
            ("representations.twisted_lex_group.calls", "count"),
            ("representations.twisted_lex_group.s", "s"),
            ("representations.perfect_representation.s", "s"),
            ("cli.build_kite.calls", "count"), ("cli.build_kite.s", "s")]
    for token in CHECK_TOKENS:
        out.append((f"cli.run_check_token.{token}.s", "s"))
    out += [("cli.report.s", "s"),
            ("verdict.checked", "count"), ("verdict.skipped", "count"),
            ("trace.overhead", "ratio")]
    return out


LAYER_METRICS = _layer_metric_names()

# Metrics that are exact counts (or ratios of counts) and must repeat run to run.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS
                      if unit == "count" or name in (
                          "kite.interval.yield", "riesz.constructive.hit_ratio"))


class Tracer:
    """Aggregated spans: per name and per (parent, name) edge."""

    def __init__(self):
        # frames are [name, seconds spent in wrapped children]
        self._stack = [["<root>", 0.0]]
        self._depth: dict = {}
        self.stats: dict = {}   # name -> [calls, inclusive s, self s]
        self.edges: dict = {}   # (parent, name) -> [calls, inclusive s]
        self.counts: dict = {}  # name -> int
        self.sums: dict = {}    # name -> number, filled by observers
        self._installed: list = []

    # -- wrappers ---------------------------------------------------------

    def parent_name(self) -> str:
        return self._stack[-1][0]

    def add(self, name: str, amount) -> None:
        self.sums[name] = self.sums.get(name, 0) + amount

    def timed(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(args, kwargs, result, seconds) runs
        after a successful call, with the parent frame back on top."""
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] = level
                parent[1] += dt
                stat[0] += 1
                stat[2] += dt - frame[1]
                if level == 0:
                    stat[1] += dt
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt
            if observe is not None:
                observe(args, kwargs, result, dt)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Count calls only; for methods too cheap to time."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _modules(self) -> list:
        return [mod for name, mod in sorted(sys.modules.items())
                if name == "kitealg" or name.startswith("kitealg.")]

    def wrap_function(self, module: str, attr: str, name: str, observe=None):
        """Rebind module.attr in every kitealg module that holds it."""
        orig = getattr(importlib.import_module("kitealg." + module), attr)
        wrapper = self.timed(name, orig, observe)
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
        self._installed.append(orig)

    def wrap_method(self, cls, attr: str, wrapper) -> None:
        if attr not in vars(cls):
            raise AttributeError(f"{cls.__name__} does not define {attr}")
        self._installed.append(vars(cls)[attr])
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        pg = importlib.import_module("kitealg.pogroup")
        kite_mod = importlib.import_module("kitealg.kite")
        PoGroup, Kite = pg.PoGroup, kite_mod.Kite

        for op in ("mul", "leq", "inv"):
            self.wrap_method(PoGroup, op,
                             self.timed("pogroup." + op, vars(PoGroup)[op]))
        self.wrap_method(PoGroup, "own",
                         self.counted("pogroup.own", vars(PoGroup)["own"]))
        for backend in LATTICE_BACKENDS:
            cls = getattr(pg, backend)
            for op in ("meet", "join"):
                self.wrap_method(cls, op, self.timed(
                    f"pogroup.{op}.{backend}", vars(cls)[op]))
        for fn in ("enumerate_window", "enumerate_interval", "cone_window"):
            self.wrap_function("pogroup", fn, "pogroup." + fn)

        for attr, name in (("add", "kite.add"), ("leq", "kite.leq"),
                           ("complement_left", "kite.complement"),
                           ("complement_right", "kite.complement"),
                           ("ldiff", "kite.diff"), ("rdiff", "kite.diff"),
                           ("mv_oplus", "kite.mv_oplus"),
                           ("mv_odot", "kite.mv_odot")):
            self.wrap_method(Kite, attr, self.timed(name, vars(Kite)[attr]))

        def on_elements(args, kwargs, result, dt):
            self.add("kite.elements.items", len(result))
            if self.parent_name() == "kite.interval":
                self.add("kite.interval.scanned", len(result))

        def on_interval(args, kwargs, result, dt):
            self.add("kite.interval.returned", len(result[0]))

        self.wrap_method(Kite, "elements", self.timed(
            "kite.elements", vars(Kite)["elements"], on_elements))
        self.wrap_method(Kite, "interval", self.timed(
            "kite.interval", vars(Kite)["interval"], on_interval))

        def checked_dict(name):
            def observe(args, kwargs, result, dt):
                self.add(name + ".checked",
                         sum(v.checked for v in result.values()))
            return observe

        def checked_verdict(name):
            def observe(args, kwargs, result, dt):
                self.add(name + ".checked", result.checked)
            return observe

        for fn in ("check_pea_axioms", "check_pmv_axioms"):
            self.wrap_function("axioms", fn, "axioms." + fn,
                               checked_dict("axioms." + fn))
        for fn in ("perfect_split", "unique_state"):
            self.wrap_function("axioms", fn, "axioms." + fn)

        def on_rdp_level(args, kwargs, result, dt):
            level = kwargs.get("level", args[1] if len(args) > 1 else None)
            key = f"riesz.check_rdp_level.{getattr(level, 'value', level)}"
            self.add(key + ".checked", result.checked)
            self.add(key + ".s", dt)

        def on_constructive(args, kwargs, result, dt):
            self.add("riesz.constructive.calls", 1)
            self.add("riesz.constructive.hits", result is not None)

        self.wrap_function("riesz", "check_rdp_level",
                           "riesz.check_rdp_level", on_rdp_level)
        for fn in ("find_interpolant", "find_refinement"):
            self.wrap_function("riesz", fn, "riesz." + fn)
        for fn in ("kite_refinement_constructive",
                   "kite_rdp0_split_constructive"):
            self.wrap_function("riesz", fn, "riesz." + fn, on_constructive)

        self.wrap_function("ideals", "is_normal", "ideals.is_normal",
                           checked_verdict("ideals.is_normal"))
        for fn in ("normal_ideal_generated", "ideal_closure",
                   "least_normal_ideal"):
            self.wrap_function("ideals", fn, "ideals." + fn)
        for fn in ("verify_iso", "twisted_lex_group",
                   "perfect_representation"):
            self.wrap_function("representations", fn, "representations." + fn)

        def on_token(args, kwargs, result, dt):
            token = kwargs.get("token", args[0] if args else None)
            self.add(f"cli.run_check_token.{token}.s", dt)
            verdicts = result[0]
            self.add("verdict.checked", sum(v.checked for v in verdicts.values()))
            self.add("verdict.skipped", sum(v.skipped for v in verdicts.values()))

        self.wrap_function("cli", "build_kite", "cli.build_kite")
        self.wrap_function("cli", "run_check_token", "cli.run_check_token",
                           on_token)
        self.wrap_function("cli", "main", "cli.main")

    def unpatched(self) -> list:
        """Names in kitealg modules that still hold an original we wrapped."""
        originals = {id(f) for f in self._installed}
        out = []
        for mod in self._modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    out.append(f"{mod.__name__}.{key}")
                if isinstance(value, type):
                    out.extend(f"{mod.__name__}.{key}.{attr}"
                               for attr, member in vars(value).items()
                               if id(member) in originals)
        return out

    # -- output -----------------------------------------------------------

    def dump(self) -> dict:
        pg = importlib.import_module("kitealg.pogroup")
        cache = getattr(pg, "_window_cache", {})
        return {
            "stats": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "edges": [{"parent": p, "name": n, "calls": v[0], "incl_s": v[1]}
                      for (p, n), v in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
            "sums": dict(sorted(self.sums.items())),
            "window_cache_entries": len(cache),
        }


def layer_metrics(dump: dict) -> dict:
    """Per-layer metric values from a tracer dump (all but trace.overhead)."""
    stats, sums = dump["stats"], dump["sums"]

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def per_s(checked, seconds):
        return checked / seconds if seconds > 0 else 0.0

    values = {}
    for name, unit in LAYER_METRICS:
        prefix, _, last = name.rpartition(".")
        if last == "calls":
            values[name] = stat(prefix, "calls")
        elif last == "self_s":
            values[name] = stat(prefix, "self_s")
        elif last == "s" and prefix in stats:
            values[name] = stat(prefix, "incl_s")
        elif last == "checked_per_s":
            if prefix.startswith("riesz.check_rdp_level."):
                seconds = sums.get(prefix + ".s", 0.0)
            else:
                seconds = stat(prefix, "incl_s")
            values[name] = per_s(sums.get(prefix + ".checked", 0), seconds)
        else:
            values[name] = sums.get(name, 0)
    values["pogroup.own.calls"] = dump["counts"].get("pogroup.own", 0)
    # the cache starts empty in a fresh process and never evicts, so every
    # entry is one miss
    values["pogroup.window_cache.misses"] = dump["window_cache_entries"]
    scanned = sums.get("kite.interval.scanned", 0)
    values["kite.interval.yield"] = (
        sums.get("kite.interval.returned", 0) / scanned if scanned else 1.0)
    calls = sums.get("riesz.constructive.calls", 0)
    values["riesz.constructive.hit_ratio"] = (
        sums.get("riesz.constructive.hits", 0) / calls if calls else 0.0)
    main = stats.get("cli.main", {})
    values["cli.report.s"] = main.get("self_s", 0.0)
    values.pop("trace.overhead")
    return values
