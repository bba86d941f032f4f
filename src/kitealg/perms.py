"""Finite permutations as lists.

A permutation of {0, .., n-1} is represented by a list ``p`` with ``p[i]`` the
image of ``i``. The empty list is the unique permutation of the empty set.
"""

from __future__ import annotations

import functools
from itertools import permutations as _itertools_permutations
from typing import Iterator, Sequence


def check_perm(p: Sequence[int], n: int) -> list[int]:
    """Validate that p is a permutation of range(n) and return it as a list."""
    q = list(p) if isinstance(p, (list, tuple)) else None
    if q is None or not all(isinstance(i, int) for i in q) or \
            len(q) != n or sorted(q) != list(range(n)):
        raise ValueError(f"not a permutation of range({n}): {p!r}")
    return q


def identity(n: int) -> list[int]:
    return list(range(n))


def inverse(p: Sequence[int]) -> list[int]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return inv


def compose(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """Composition (p after q): result[i] = p[q[i]]."""
    return [p[q[i]] for i in range(len(q))]


@functools.cache
def power(p: tuple[int, ...], k: int) -> list[int]:
    """k-th compositional power of the tuple p; negative k uses the inverse.
    Memoised: equal calls share one list, so callers must not mutate it."""
    n = len(p)
    base = list(p) if k >= 0 else inverse(p)
    result = identity(n)
    for _ in range(abs(k)):
        result = compose(base, result)
    return result


def cycles(p: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycle decomposition including fixed points, each cycle led by its minimum."""
    seen = [False] * len(p)
    out: list[tuple[int, ...]] = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def is_identity(p: Sequence[int]) -> bool:
    return all(p[i] == i for i in range(len(p)))


def all_perms(n: int) -> Iterator[list[int]]:
    """All permutations of range(n) in lexicographic order. n=0 yields []."""
    for p in _itertools_permutations(range(n)):
        yield list(p)


def cyclic_shift(n: int, k: int = 1) -> list[int]:
    """The permutation i -> i+k mod n."""
    if n == 0:
        return []
    return [(i + k) % n for i in range(n)]


def perm_name(p: Sequence[int]) -> str:
    """Compact display form, e.g. (0 1 2)(3) for [1, 2, 0, 3]."""
    if not p:
        return "()"
    if is_identity(p):
        return "id"
    parts = []
    for c in cycles(p):
        if len(c) > 1:
            parts.append("(" + " ".join(str(i) for i in c) + ")")
    return "".join(parts)
