"""Verdicts and witnesses returned by the decision procedures."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .alphabet import Word

#: Recognized witness shapes.  "path" and "lasso" contain configurations
#: related step by step under the transition relation; "pair" is a
#: (source, target) pair under a reachability relation; "clique-prefix"
#: lists the first members of an infinite chain of pairwise related,
#: pairwise distinct configurations.
WITNESS_KINDS = ("path", "lasso", "pair", "clique-prefix")


class Outcome(str, Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    UNKNOWN = "UNKNOWN"

    @property
    def exit_code(self) -> int:
        return {"HOLDS": 0, "FAILS": 1, "UNKNOWN": 2}[self.value]


@dataclass(frozen=True, slots=True)
class Witness:
    kind: str
    configurations: tuple[Word, ...]
    loop_start: int | None = None

    def __post_init__(self):
        if self.kind not in WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")
        if self.kind == "lasso" and self.loop_start is None:
            raise ValueError("lasso witness needs loop_start")


@dataclass(frozen=True, slots=True)
class Verdict:
    outcome: Outcome
    witness: Witness | None = None
    bound_used: int | None = None
    note: str | None = None

    @property
    def holds(self) -> bool:
        return self.outcome is Outcome.HOLDS

    @property
    def fails(self) -> bool:
        return self.outcome is Outcome.FAILS

    @property
    def unknown(self) -> bool:
        return self.outcome is Outcome.UNKNOWN


def holds(witness: Witness | None = None, bound: int | None = None, note: str | None = None) -> Verdict:
    return Verdict(Outcome.HOLDS, witness, bound, note)


def fails(witness: Witness | None = None, bound: int | None = None, note: str | None = None) -> Verdict:
    return Verdict(Outcome.FAILS, witness, bound, note)


def unknown(bound: int | None = None, note: str | None = None) -> Verdict:
    return Verdict(Outcome.UNKNOWN, None, bound, note)
