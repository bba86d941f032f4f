"""Check outcomes.

Every bounded verification in this package reports a Verdict rather than a bare
bool. A check that quantified over everything it intended to and found no
violation Holds; a concrete counterexample makes it Fail; anything in between
(skipped instances, capped enumeration, inconclusive searches) is Unknown.
Witness payloads are plain (name, value) pairs so a failure can be replayed.
"""

from __future__ import annotations

from enum import Enum
from typing import Any

from .record import Frozen, Record, setfield


class Status(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - display only
        return self.value


class Verdict(Frozen):
    _fields = ("status", "checked", "skipped", "witness", "reason")

    def __init__(self, status: Status, checked: int = 0, skipped: int = 0,
                 witness: tuple[tuple[str, Any], ...] = (),
                 reason: str = "") -> None:
        # a "holds" with skips would overstate coverage
        if status is Status.HOLDS and skipped > 0:
            status = Status.UNKNOWN
        setfield(self, "status", status)
        setfield(self, "checked", checked)
        setfield(self, "skipped", skipped)
        setfield(self, "witness", witness)
        setfield(self, "reason", reason)

    def __hash__(self) -> int:
        # hashed once: memo keys hash the same verdicts again and again
        try:
            return self._hash
        except AttributeError:
            setfield(self, "_hash", hash(self._key()))
            return self._hash

    @property
    def ok(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def failed(self) -> bool:
        return self.status is Status.FAILS

    def witness_dict(self) -> dict[str, Any]:
        return dict(self.witness)

    def describe(self) -> str:
        bits = [self.status.value, f"checked={self.checked}"]
        if self.skipped:
            bits.append(f"skipped={self.skipped}")
        if self.reason:
            bits.append(self.reason)
        return " ".join(bits)


def holds(checked: int, skipped: int = 0, reason: str = "") -> Verdict:
    return Verdict(Status.HOLDS, checked=checked, skipped=skipped, reason=reason)


def fails(witness: dict[str, Any] | None = None, checked: int = 0,
          skipped: int = 0, reason: str = "") -> Verdict:
    w = tuple(sorted((witness or {}).items(), key=lambda kv: kv[0]))
    return Verdict(Status.FAILS, checked=checked, skipped=skipped,
                   witness=w, reason=reason)


def unknown(checked: int = 0, skipped: int = 0, reason: str = "") -> Verdict:
    return Verdict(Status.UNKNOWN, checked=checked, skipped=skipped, reason=reason)


def merge(*verdicts: Verdict) -> Verdict:
    """Combine sub-checks: any failure wins, else any unknown, else holds.

    Counts are summed; the witness and reason come from the decisive verdict
    (first failure, or first unknown when nothing failed).
    """
    if not verdicts:
        return holds(0)
    total_checked = sum(v.checked for v in verdicts)
    total_skipped = sum(v.skipped for v in verdicts)
    decisive = None
    for v in verdicts:
        if v.status is Status.FAILS:
            decisive = v
            break
    if decisive is None:
        for v in verdicts:
            if v.status is Status.UNKNOWN:
                decisive = v
                break
    if decisive is None:
        return holds(total_checked, total_skipped)
    return Verdict(decisive.status, checked=total_checked, skipped=total_skipped,
                   witness=decisive.witness, reason=decisive.reason)


class Tally(Record):
    """Mutable accumulator for loops that count instances and skips.

    Skips are counted per note, in first-seen order.
    """
    _fields = ("checked", "skipped", "notes")

    def __init__(self, checked: int = 0, skipped: int = 0,
                 notes: dict[str, int] | None = None) -> None:
        self.checked = checked
        self.skipped = skipped
        self.notes = {} if notes is None else notes

    def hit(self) -> None:
        self.checked += 1

    def skip(self, note: str = "", count: int = 1) -> None:
        self.skipped += count
        self.notes[note] = self.notes.get(note, 0) + count

    def fail(self, witness: dict[str, Any], reason: str = "") -> Verdict:
        return fails(witness, checked=self.checked, skipped=self.skipped, reason=reason)

    def done(self, reason: str = "") -> Verdict:
        """Holds with reason, or Unknown whose reason lists each skip note
        with its count, e.g. "split search window-bounded (12)"."""
        if self.skipped:
            return unknown(self.checked, self.skipped, "; ".join(
                f"{note} ({count})" for note, count in self.notes.items()))
        return holds(self.checked, reason=reason)
