"""Regular transition systems: an initial language plus a step relation.

An :class:`Rts` bundles the initial-configuration NFA with the transition
transducer and, optionally, transducers for the reachability relation
(``reach``) and a reflexive-transitive overapproximation (``preach``).
Both relations are consumed as inputs, never computed: the toolkit checks
necessary conditions on them (see :meth:`Rts.validate`) but cannot verify
that a claimed ``reach`` holds no pair beyond the reflexive-transitive
closure of the step relation.

:meth:`Rts.relation` and :meth:`Rts.reachable_set` read ``reach`` only, so
the decision procedures answer for the concrete system.  ``preach`` is
read by :mod:`rmc.abstraction` alone, which runs the same procedures on a
copy of the system whose ``reach`` is the supplied ``preach``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph
from .alphabet import PAD, Alphabet, Word, unconvolve
from .errors import AlphabetMismatch, MissingRelation, PaddingViolation
from .nfa import Nfa
from .transducer import Transducer, identity


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: tuple[Word, ...] | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def inclusion_checks(relation: Transducer, named) -> tuple[CheckResult, ...]:
    """One check per ``(name, smaller)`` pair: is the relation ``smaller``
    within ``relation``?  A failed check names a shortest pair of
    ``smaller`` that ``relation`` lacks."""
    checks = []
    for name, smaller in named:
        ok, cex = relation.includes(smaller)
        checks.append(CheckResult(name, ok, None if ok else unconvolve(cex)))
    return tuple(checks)


def _advance(level, moves: dict) -> dict:
    """One top symbol of a run: each ``(prefix, states)`` of ``level``
    takes the ``(bottom, targets)`` moves of its states, and a padded
    bottom track keeps its prefix."""
    nxt: dict = {}
    for prefix, states in level:
        for q in states:
            for b, dsts in moves.get(q, ()):
                key = prefix if b is None else prefix + (b,)
                nxt.setdefault(key, set()).update(dsts)
    return nxt


class Rts:
    """Initial language, step transducer, optional reachability relations."""

    DEFAULT_SUCCESSOR_CAP = 4096

    def __init__(
        self,
        initial: Nfa,
        delta: Transducer,
        reach: Transducer | None = None,
        preach: Transducer | None = None,
    ):
        if delta.top != delta.bottom:
            raise AlphabetMismatch("step transducer must relate words over one alphabet")
        if initial.alphabet != delta.top:
            raise AlphabetMismatch("initial language alphabet differs from the step relation")
        for rel, name in ((reach, "reach"), (preach, "preach")):
            if rel is not None and (rel.top != delta.top or rel.bottom != delta.top):
                raise AlphabetMismatch(f"{name} relation alphabet differs from the step relation")
        self.initial = initial
        self.delta = delta
        self.reach = reach
        self.preach = preach
        # the trimmed step relation, which _step_index reads too
        self._delta_trimmed = delta.trim()
        self.length_preserving = self._delta_trimmed.is_letter_to_letter()
        self._cache: dict = {}

    @property
    def alphabet(self) -> Alphabet:
        return self.delta.top

    def relation(self) -> Transducer:
        """The reach relation, or raise."""
        if self.reach is None:
            raise MissingRelation("this check needs the reach relation")
        return self.reach

    def reachable_set(self) -> Nfa:
        """Image of the initial language under reach (cached)."""
        key = "reachable"
        if key not in self._cache:
            self._cache[key] = self.relation().post_image(self.initial)
        return self._cache[key]

    def terminating(self) -> Nfa:
        """Configurations with no successor: the complement of dom(delta).

        Materialized by one subset construction and cached.
        """
        key = "terminating"
        if key not in self._cache:
            self._cache[key] = self.delta.project(1).complement()
        return self._cache[key]

    def successors(self, config: Word, cap: int | None = None) -> tuple[tuple[Word, ...], bool]:
        """Direct successors in shortest-then-alphabet order.

        Returns ``(words, truncated)``; ``truncated`` reports that more
        than ``cap`` successors exist.  Runs the trimmed step transducer
        with ``config`` on the top track, keeping each bottom-track prefix
        with the states it reaches: a bottom track that pads early gives a
        shorter successor, and ``(#, b)`` moves after the top track ends
        give longer ones.  This assumes a padding-valid step transducer,
        which bundle loading guarantees and :meth:`validate` reports.
        """
        cap = self.DEFAULT_SUCCESSOR_CAP if cap is None else cap
        self.alphabet.check_word(config)
        moves, start, final = self._step_index()
        # prefixes are tuples of symbol indices, so they sort in alphabet order
        level = {(): start}
        for a in config:
            level = _advance(level.items(), moves.get(a, {}))
            if not level:
                return (), False
        found = sorted(prefix for prefix, states in level.items() if states & final)
        found.sort(key=len)
        growth = moves.get(PAD)
        if growth:
            # after the top track, (#, b) moves extend the unpadded prefixes
            longer = sorted(item for item in level.items() if len(item[0]) == len(config))
            while longer and len(found) <= cap:
                longer = sorted(_advance(longer, growth).items())
                found.extend(prefix for prefix, states in longer if states & final)
        symbol = self.alphabet.symbols.__getitem__
        return tuple(tuple(map(symbol, p)) for p in found[:cap]), len(found) > cap

    def _step_index(self):
        """The trimmed step transducer for :meth:`successors`: a map from
        top symbol (# included) and state to ``(bottom, targets)`` moves,
        where ``bottom`` is a symbol index or None for padding, and the
        initial and final states."""
        key = "step"
        if key not in self._cache:
            delta = self._delta_trimmed
            # (#, b) moves keep only targets that can still accept by such
            # moves, so endless growth always meets the cap, even on a
            # delta that is not padding-valid
            back: dict = {}
            for (q, sym), dsts in delta.transitions.items():
                if sym.top == PAD:
                    for r in dsts:
                        back.setdefault(r, []).append(q)
            grows = graph.closure(delta.final, lambda r: back.get(r, ()))
            moves: dict = {}
            for (q, sym), dsts in delta.transitions.items():
                b = None if sym.bottom == PAD else self.alphabet.index(sym.bottom)
                if sym.top == PAD:
                    dsts = tuple(r for r in dsts if r in grows)
                if dsts:
                    moves.setdefault(sym.top, {}).setdefault(q, []).append((b, dsts))
            self._cache[key] = (moves, frozenset(delta.initial), delta.final)
        return self._cache[key]

    def validate(self) -> ValidationReport:
        """Necessary structural checks; cannot prove a reach relation exact.

        Verifies padding validity of every transducer, that a
        length-preserving system has a length-preserving reach, and that a
        supplied reach contains the identity and the step relation and is
        closed under taking one more step.  Together the identity and the
        closure make reach contain every run of the system.
        """
        checks: list[CheckResult] = []

        def padding_check(name: str, t: Transducer | None):
            if t is None:
                return
            try:
                t.validate_padding()
                checks.append(CheckResult(f"{name}-padding", True))
            except PaddingViolation:
                checks.append(CheckResult(f"{name}-padding", False))

        padding_check("delta", self.delta)
        padding_check("reach", self.reach)
        padding_check("preach", self.preach)

        if self.reach is not None and self.length_preserving:
            checks.append(
                CheckResult("reach-length-preserving", self.reach.is_length_preserving())
            )

        if self.reach is not None:
            checks += inclusion_checks(self.reach, (
                ("identity-within-reach", identity(self.alphabet)),
                ("delta-within-reach", self.delta),
                ("reach-closed-under-delta", self.reach.compose(self.delta)),
            ))
        return ValidationReport(tuple(checks))
