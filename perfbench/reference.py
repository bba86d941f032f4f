"""Fixed reference program for run.py: its wall time gauges the host's speed.

    python3 perfbench/reference.py

It does what a short kitealg invocation does, without kitealg: start an
interpreter, import the standard-library modules the CLI imports, combine
small frozen dataclass elements through methods that check ownership, as the
group and kite operations do, sort the results and print a JSON digest.
run.py runs it in a fresh process between workload invocations and scales the
workload's times by how fast it ran. It must not change: a change here moves
every time the benchmark reports.
"""

import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import dataclasses
import enum  # noqa: F401
import fractions
import hashlib
import itertools
import json
import sys
import time  # noqa: F401


@dataclasses.dataclass(frozen=True)
class Cell:
    tag: str
    coords: tuple


class Space:
    """Coordinatewise addition and order on Cells, with ownership checks."""

    def __init__(self, dim: int):
        self.dim = dim

    def own(self, a: Cell) -> None:
        if len(a.coords) != self.dim:
            raise ValueError("cell of another space")

    def add(self, a: Cell, b: Cell):
        self.own(a)
        self.own(b)
        if a.tag == "U" and b.tag == "U":
            return None
        return Cell(b.tag if a.tag == "L" else a.tag,
                    tuple(x + y for x, y in zip(a.coords, b.coords)))

    def leq(self, a: Cell, b: Cell) -> bool:
        self.own(a)
        self.own(b)
        return all(x <= y for x, y in zip(a.coords, b.coords))


def main() -> int:
    space = Space(3)
    cells = [Cell("L" if i % 3 else "U", (i % 5 - 2, i % 7 - 3, i % 3 - 1))
             for i in range(48)]
    table: dict = {}
    for _ in range(10):
        for a, b in itertools.product(cells, repeat=2):
            s = space.add(a, b)
            if s is None:
                continue
            if space.leq(a, s) and s == space.add(b, a):
                s = Cell(s.tag, s.coords[::-1])
            table[s] = table.get(s, 0) + 1
    ordered = sorted(table, key=lambda c: (c.tag, c.coords))
    share = sum(fractions.Fraction(table[c], len(cells)) for c in ordered[:64])
    text = json.dumps([[c.tag, list(c.coords), table[c]] for c in ordered])
    print(json.dumps({"cells": len(ordered), "share": str(share),
                      "sha256": hashlib.sha256(text.encode()).hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
