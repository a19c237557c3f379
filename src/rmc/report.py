"""Uniform result reports for the command line and for tests.

A report renders the same content two ways: a short human block whose
first line is always ``VERDICT: ...``, and a JSON object with a fixed key
set (``command``, ``outcome``, ``witness``, ``bound_used``, ``checks``,
``elapsed_ms``, plus ``stats`` for simulation runs).  Words are rendered
as space-joined symbols with ``ε`` standing for the empty word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .alphabet import Word
from .oracle import SimulationStats
from .rts import CheckResult
from .verdict import Outcome, Verdict, Witness


def format_word(word: Word) -> str:
    return " ".join(word) if word else "ε"


def parse_word(text: str) -> Word:
    if text == "ε":
        return ()
    return tuple(text.split())


@dataclass(frozen=True)
class Report:
    command: str
    outcome: Outcome | None
    witness: Witness | None = None
    bound_used: int | None = None
    checks: tuple[CheckResult, ...] = ()
    stats: SimulationStats | None = None
    elapsed_ms: int = 0
    note: str | None = None

    def to_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = {
                "kind": self.witness.kind,
                "configurations": [
                    format_word(c) for c in self.witness.configurations
                ],
                "loop_start": self.witness.loop_start,
            }
        data = {
            "command": self.command,
            "outcome": None if self.outcome is None else self.outcome.value,
            "witness": witness,
            "bound_used": self.bound_used,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "counterexample": (
                        None
                        if c.counterexample is None
                        else [format_word(w) for w in c.counterexample]
                    ),
                }
                for c in self.checks
            ],
            "elapsed_ms": self.elapsed_ms,
        }
        if self.stats is not None:
            data["stats"] = {
                "runs": self.stats.runs,
                "goal_hit_frequency": self.stats.goal_hit_frequency,
                "termination_frequency": self.stats.termination_frequency,
                "mean_steps_to_absorption": self.stats.mean_steps_to_absorption,
            }
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)

    def render(self) -> str:
        if self.outcome is None:
            head = f"RESULT: {self.command}"
        else:
            head = f"VERDICT: {self.outcome.name}"
            if self.outcome is Outcome.UNKNOWN and self.bound_used is not None:
                head += f" (bound {self.bound_used})"
        lines = [head]
        if self.note:
            lines.append(f"note: {self.note}")
        if self.witness is not None:
            lines.append(f"witness ({self.witness.kind}):")
            for i, c in enumerate(self.witness.configurations):
                lines.append(f"  {i}: {format_word(c)}")
            if self.witness.loop_start is not None:
                lines.append(f"  loop returns to step {self.witness.loop_start}")
        for c in self.checks:
            if c.passed:
                lines.append(f"check {c.name}: ok")
            elif c.counterexample is not None:
                before, after = (format_word(w) for w in c.counterexample)
                lines.append(f"check {c.name}: FAIL ({before} to {after})")
            else:
                lines.append(f"check {c.name}: FAIL")
        if self.stats is not None:
            lines.append(f"runs: {self.stats.runs}")
            if self.stats.goal_hit_frequency is not None:
                lines.append(f"goal hit frequency: {self.stats.goal_hit_frequency:.4f}")
            lines.append(
                f"termination frequency: {self.stats.termination_frequency:.4f}"
            )
            mean = self.stats.mean_steps_to_absorption
            lines.append(
                "mean steps to absorption: "
                + ("n/a" if mean is None else f"{mean:.2f}")
            )
        lines.append(f"elapsed: {self.elapsed_ms} ms")
        return "\n".join(lines) + "\n"


def from_verdict(command: str, verdict: Verdict) -> Report:
    return Report(
        command=command,
        outcome=verdict.outcome,
        witness=verdict.witness,
        bound_used=verdict.bound_used,
        note=verdict.note,
    )
