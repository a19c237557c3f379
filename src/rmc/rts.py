"""Regular transition systems: an initial language plus a step relation.

An :class:`Rts` bundles the initial-configuration NFA with the transition
transducer and, optionally, transducers for the reachability relation
(``reach``) and a reflexive-transitive overapproximation (``preach``).
Both relations are consumed as inputs, never computed: the toolkit checks
necessary conditions on them (see :meth:`Rts.validate`) but cannot verify
that a claimed ``reach`` holds no pair beyond the reflexive-transitive
closure of the step relation.

An :class:`Rts` holds its automata and nothing derived from them; what
derives from ``delta``, alone or with ``reach`` and ``preach`` as the
validation report does, is kept on that transducer.  A
:class:`Stepper` lists the successors of the configurations of one walk,
and keeps for that walk alone the level after each top-track prefix it
has read and the word each bottom-track code decodes to;
:meth:`Rts.successors` is a stepper used once.

:meth:`Rts.relation` and the reachable set, lazy for a search or built,
read ``reach`` only, so the decision procedures answer for the concrete
system.  ``preach`` is read by :mod:`rmc.abstraction` alone, which runs the
same procedures on a copy of the system whose ``reach`` is the supplied
``preach``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph
from .alphabet import PAD, Alphabet, Word, unconvolve
from .errors import AlphabetMismatch, MissingRelation, PaddingViolation
from .nfa import LazyNfa, Nfa, _Memo
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


def _successor_index(delta: Transducer) -> tuple:
    """The trimmed step transducer for a :class:`Stepper`: a memoized
    ``step(level, a)`` that reads top symbol ``a`` (# included) into a map
    from bottom-track prefix codes to the states they reach, the bits per
    digit of a code, its decoder, the initial and final states, and whether
    any (#, b) move is left."""
    delta = delta.trim()
    # (#, b) moves keep only targets that can still accept by such moves,
    # so endless growth always meets the cap, even on a delta that is not
    # padding-valid
    back: dict = {}
    for (q, sym), dsts in delta.transitions.items():
        if sym.top == PAD:
            for r in dsts:
                back.setdefault(r, []).append(q)
    grows = graph.closure(delta.final, lambda r: back.get(r, ()))
    moves: dict = {}
    for (q, sym), dsts in delta.transitions.items():
        digit = None if sym.bottom == PAD else delta.bottom.index(sym.bottom) + 1
        if sym.top == PAD:
            dsts = tuple(r for r in dsts if r in grows)
        if dsts:
            moves.setdefault((q, sym.top), []).append((digit, dsts))
    # a code's digits are whole bytes holding symbol indices plus one, so
    # codes sort shortest first, then in alphabet order, and decode fast
    symbols = (None, *delta.bottom.symbols)
    size = ((len(symbols) - 1).bit_length() + 7) // 8
    # by top symbol: the moves of a set of states, merged by bottom digit
    merged: dict = {}

    def step(level: dict, a) -> dict:
        nxt: dict = {}
        known = merged.setdefault(a, {})
        for code, states in level.items():
            found = known.get(states)
            if found is None:
                by_digit: dict = {}
                for q in states:
                    for digit, dsts in moves.get((q, a), ()):
                        by_digit.setdefault(digit, set()).update(dsts)
                found = known[states] = tuple((d, frozenset(t)) for d, t in by_digit.items())
            for digit, targets in found:
                c = code if digit is None else code << 8 * size | digit
                nxt[c] = nxt[c] | targets if c in nxt else targets
        return nxt

    def decode(code: int) -> Word:
        raw = code.to_bytes(-(-code.bit_length() // (8 * size)) * size, "big")
        if size > 1:
            raw = [int.from_bytes(raw[i : i + size], "big") for i in range(0, len(raw), size)]
        return tuple(map(symbols.__getitem__, raw))

    growing = any(top == PAD for _, top in moves)
    return step, 8 * size, decode, frozenset(delta.initial), delta.final, growing


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
        self.length_preserving = delta.is_length_preserving()

    @property
    def alphabet(self) -> Alphabet:
        return self.delta.top

    def relation(self) -> Transducer:
        """The reach relation, or raise."""
        if self.reach is None:
            raise MissingRelation("this check needs the reach relation")
        return self.reach

    def reachable_set(self) -> Nfa:
        """Image of the initial language under reach, built on each call;
        only the growth route of ``egf`` reads it built."""
        return self.relation().post_image(self.initial)

    def lazy_reachable_set(self) -> LazyNfa:
        """The reachable set explored only where a search steps it."""
        return self.relation().lazy_post_image(self.initial)

    def terminating(self) -> Nfa:
        """Configurations with no successor: the complement of dom(delta),
        built once per step transducer by one subset construction."""
        return self.delta._derive("terminating", lambda: self.delta.project(1).complement())

    def successors(self, config: Word, cap: int | None = None) -> tuple[tuple[Word, ...], bool]:
        """Direct successors in shortest-then-alphabet order.

        Returns ``(words, truncated)``; ``truncated`` reports that more
        than ``cap`` successors exist.  This is a :class:`Stepper` used
        once; a walk makes one stepper for all its configurations, which
        keeps its prefix levels and decoded words until the walk ends.
        """
        return Stepper(self)(config, cap)

    def validate(self) -> ValidationReport:
        """Necessary structural checks; cannot prove a reach relation exact.

        Verifies padding validity of every transducer, that a
        length-preserving system has a length-preserving reach, and that a
        supplied reach contains the identity and the step relation and is
        closed under taking one more step.  Together the identity and the
        closure make reach contain every run of the system.  The report
        derives from the three transducers alone, so it is kept on
        ``delta`` by ``reach`` and ``preach``.
        """
        return self.delta._derive(("validation", self.reach, self.preach), self._validate)

    def _validate(self) -> ValidationReport:
        """The checks :meth:`validate` keeps, run afresh."""
        checks: list[CheckResult] = []
        for name, t in (("delta", self.delta), ("reach", self.reach), ("preach", self.preach)):
            if t is not None:
                try:
                    t.validate_padding()
                    passed = True
                except PaddingViolation:
                    passed = False
                checks.append(CheckResult(f"{name}-padding", passed))

        if self.reach is not None:
            if self.length_preserving:
                checks.append(
                    CheckResult("reach-length-preserving", self.reach.is_length_preserving())
                )
            checks += inclusion_checks(self.reach, (
                ("identity-within-reach", identity(self.alphabet)),
                ("delta-within-reach", self.delta),
                ("reach-closed-under-delta", self.reach.lazy_compose(self.delta)),
            ))
        return ValidationReport(tuple(checks))


class Stepper:
    """The successors of the configurations of one walk.

    Runs the trimmed step transducer with a configuration on the top track,
    keeping each bottom-track prefix with the states it reaches: a bottom
    track that pads early gives a shorter successor, and ``(#, b)`` moves
    after the top track ends give longer ones.  This assumes a
    padding-valid step transducer, which bundle loading guarantees and
    :meth:`Rts.validate` reports.

    Configurations of one walk share most of their prefixes, so a stepper
    keeps, for as long as it lives, the level reached after each top-track
    prefix it has read, in a trie keyed by symbol (a level depends only on
    its prefix), and the word each bottom-track code decodes to (no digit
    is 0, so a code names one word).  A walk makes one stepper and drops it
    when it ends; nothing it keeps outlives it.
    """

    __slots__ = ("_alphabet", "_step", "_bits", "_final", "_growing", "_root", "_words")

    def __init__(self, rts: Rts):
        self._alphabet = rts.alphabet
        # derived from delta alone, so kept on it like its product indexes
        index = rts.delta._derive("successors", lambda: _successor_index(rts.delta))
        self._step, self._bits, decode, start, self._final, self._growing = index
        # a trie node: the level after its prefix, and its children by symbol
        self._root = ({0: start}, {})
        self._words = _Memo(decode)

    def __call__(self, config: Word, cap: int | None = None) -> tuple[tuple[Word, ...], bool]:
        """The successors of ``config`` in shortest-then-alphabet order, at
        most ``cap`` of them, and whether there are more."""
        cap = Rts.DEFAULT_SUCCESSOR_CAP if cap is None else cap
        self._alphabet.check_word(config)
        step, final = self._step, self._final
        level, children = self._root
        for a in config:
            node = children.get(a)
            if node is None:
                node = children[a] = (step(level, a), {})
            level, children = node
            if not level:
                return (), False
        found = sorted(code for code, states in level.items() if states & final)
        if self._growing:
            # after the top track, (#, b) moves extend the unpadded prefixes,
            # whose codes are at least the least code as long as the top track
            unit = 1 << self._bits
            least = (unit ** len(config) - 1) // (unit - 1)
            longer = {code: states for code, states in level.items() if code >= least}
            while longer and len(found) <= cap:
                longer = step(longer, PAD)
                found.extend(sorted(code for code, states in longer.items() if states & final))
        return tuple(map(self._words.__getitem__, found[:cap])), len(found) > cap
