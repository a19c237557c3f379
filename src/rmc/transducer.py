"""Transducers: automata over the padded pair alphabet, denoting word relations.

A transducer over alphabets (top, bottom) accepts convolutions and thereby
recognizes a relation between top-track and bottom-track words.  Padding
(#) appears only where one track has ended, so a well-formed transducer
never reads a real symbol after padding on the same track; see
:meth:`Transducer.validate_padding`.

The relation algebra lives here: inversion, track projection, relational
composition, and forward/backward images of regular languages.  State
counts stay within the classical bounds (inverse and projection keep the
state set; composition stays within l1 * l2; images within n * l).
"""

from __future__ import annotations

from collections import deque

from . import graph
from .alphabet import PAD, Alphabet, PairAlphabet, PairSymbol, Word, convolve
from .errors import AlphabetMismatch, PaddingViolation
from .nfa import Nfa


class Transducer(Nfa):
    """An :class:`Nfa` over the pair alphabet of two track alphabets."""

    __slots__ = ()

    def __init__(self, top: Alphabet, bottom: Alphabet, states, transitions, initial, final):
        super().__init__(PairAlphabet(top, bottom), states, transitions, initial, final)

    @property
    def top(self) -> Alphabet:
        return self.alphabet.top

    @property
    def bottom(self) -> Alphabet:
        return self.alphabet.bottom

    def _make(self, states, transitions, initial, final) -> "Transducer":
        return Transducer(self.top, self.bottom, states, transitions, initial, final)

    # -- relation queries --------------------------------------------------------

    def accepts_pair(self, top_word: Word, bottom_word: Word) -> bool:
        return self.accepts(convolve(top_word, bottom_word))

    def is_length_preserving(self) -> bool:
        """True when no trimmed transition carries padding."""
        trimmed = self.trim()
        return all(
            sym.top != PAD and sym.bottom != PAD
            for (_q, sym) in trimmed.transitions
        )

    def validate_padding(self) -> None:
        """Reject real symbols after padding on a track along any useful path.

        Tracks the set of trimmed states reachable after consuming a padded
        symbol on each track; any further transition with a real symbol on
        that track is a violation.
        """
        trimmed = self.trim()
        for track in ("top", "bottom"):
            padded: dict = {}
            for (q, sym), dsts in trimmed.transitions.items():
                if getattr(sym, track) == PAD:
                    padded.setdefault(q, []).extend(dsts)
            dead = graph.closure(
                (r for dsts in padded.values() for r in dsts),
                lambda q: padded.get(q, ()),
            )
            for q, sym in trimmed.transitions:
                if q in dead and getattr(sym, track) != PAD:
                    raise PaddingViolation(
                        f"state {q!r} reads {sym} after {track}-track padding"
                    )

    # -- relation algebra ----------------------------------------------------------

    def inverse(self) -> "Transducer":
        """Swap the two tracks; same states."""
        transitions = {
            (q, PairSymbol(sym.bottom, sym.top)): dsts
            for (q, sym), dsts in self.transitions.items()
        }
        return Transducer(
            self.bottom, self.top, self.states, transitions, self.initial, self.final
        )

    def project(self, track: int) -> Nfa:
        """Project onto track 1 (top) or 2 (bottom); at most the same states.

        Transitions whose kept symbol is padding become silent and are
        eliminated by forward closure, so the result is a plain NFA.
        """
        if track not in (1, 2):
            raise ValueError("track must be 1 (top) or 2 (bottom)")
        keep = "top" if track == 1 else "bottom"
        target = self.top if track == 1 else self.bottom

        silent: dict = {}
        real_moves: dict = {}
        for (q, sym), dsts in self.transitions.items():
            kept = getattr(sym, keep)
            if kept == PAD:
                silent.setdefault(q, set()).update(dsts)
            else:
                real_moves.setdefault(q, []).append((kept, dsts))

        closures = {
            q: graph.closure((q,), lambda p: silent.get(p, ())) for q in self.states
        }

        transitions: dict = {}
        for q in self.states:
            per_symbol: dict = {}
            for p in closures[q]:
                for kept, dsts in real_moves.get(p, ()):
                    per_symbol.setdefault(kept, set()).update(dsts)
            for kept, dsts in per_symbol.items():
                transitions[(q, kept)] = tuple(dsts)
        final = [q for q in self.states if closures[q] & self.final]
        return Nfa(target, self.states, transitions, self.initial, final).trim()

    def compose(self, other: "Transducer") -> "Transducer":
        """Relational composition: pairs (x, z) with some y relating both sides.

        Runs a synchronized product over reachable state pairs.  Positions
        where the shared middle word outlives both outer tracks cannot be
        read by the result, so a product pair accepts iff the two runs can
        finish on a common middle remainder: top side reading (#, y_i),
        bottom side reading (y_i, #).  That acceptance set is precomputed
        by one backward closure over the pair graph.  At most l1 * l2
        states before trimming.
        """
        if self.bottom != other.top:
            raise AlphabetMismatch(
                "composition needs the first bottom alphabet to equal the second top"
            )
        mid = self.bottom

        # index transitions by (state, middle symbol)
        left_by_mid: dict = {}
        for (q, sym), dsts in self.transitions.items():
            left_by_mid.setdefault((q, sym.bottom), []).append((sym.top, dsts))
        right_by_mid: dict = {}
        for (q, sym), dsts in other.transitions.items():
            right_by_mid.setdefault((q, sym.top), []).append((sym.bottom, dsts))

        # acceptance: backward closure from F1 x F2 over common-remainder moves,
        # i.e. left reads (#, b) while right reads (b, #) for the same b
        rev: dict = {}
        for p in self.states:
            for b in mid.symbols:
                left_pad_moves = [
                    p_dsts
                    for a, p_dsts in left_by_mid.get((p, b), ())
                    if a == PAD
                ]
                if not left_pad_moves:
                    continue
                for q in other.states:
                    for c, q_dsts in right_by_mid.get((q, b), ()):
                        if c != PAD:
                            continue
                        for p_dsts in left_pad_moves:
                            for p2 in p_dsts:
                                for q2 in q_dsts:
                                    rev.setdefault((p2, q2), set()).add((p, q))
        good = graph.closure(
            ((p, q) for p in self.final for q in other.final),
            lambda node: rev.get(node, ()),
        )

        # forward product over the composed pair alphabet
        middles = mid.symbols + (PAD,)
        start = [
            (p, q)
            for p in self.states if p in self.initial
            for q in other.states if q in other.initial
        ]
        seen = dict.fromkeys(start)
        queue = deque(start)
        transitions: dict = {}
        while queue:
            p, q = queue.popleft()
            per_symbol: dict = {}
            p_final = p in self.final
            q_final = q in other.final
            for b in middles:
                lefts = left_by_mid.get((p, b), ())
                if b == PAD and p_final:
                    lefts = list(lefts) + [(PAD, (p,))]
                if not lefts:
                    continue
                rights = right_by_mid.get((q, b), ())
                if b == PAD and q_final:
                    rights = list(rights) + [(PAD, (q,))]
                for a, p_dsts in lefts:
                    for c, q_dsts in rights:
                        if a == PAD and c == PAD:
                            continue  # remainder moves are folded into acceptance
                        sym = PairSymbol(a, c)
                        bucket = per_symbol.setdefault(sym, set())
                        for p2 in p_dsts:
                            for q2 in q_dsts:
                                bucket.add((p2, q2))
            for sym, dsts in per_symbol.items():
                transitions[((p, q), sym)] = tuple(dsts)
                for node in dsts:
                    if node not in seen:
                        seen[node] = None
                        queue.append(node)

        states = tuple(seen)
        final = [node for node in states if node in good]
        return Transducer(
            self.top, other.bottom, states, transitions, start, final
        ).trim()

    # -- images ------------------------------------------------------------------

    def post_image(self, language: Nfa) -> Nfa:
        """{y : some x in language with (x, y) in the relation}."""
        if language.alphabet != self.top:
            raise AlphabetMismatch("language alphabet differs from the top track")
        return identity_on(language).compose(self).project(2)

    def pre_image(self, language: Nfa) -> Nfa:
        """{x : some y in language with (x, y) in the relation}."""
        if language.alphabet != self.bottom:
            raise AlphabetMismatch("language alphabet differs from the bottom track")
        return self.compose(identity_on(language)).project(1)


# -- stock transducers -------------------------------------------------------------


def identity(alphabet: Alphabet) -> Transducer:
    """The identity relation; one state with a/a self-loops."""
    transitions = {(0, PairSymbol(a, a)): (0,) for a in alphabet.symbols}
    return Transducer(alphabet, alphabet, (0,), transitions, [0], [0])


def identity_on(language: Nfa) -> Transducer:
    """Identity restricted to a regular language; same states as the language."""
    alphabet = language.alphabet
    if not isinstance(alphabet, Alphabet):
        raise AlphabetMismatch("identity_on needs a plain word language")
    transitions = {
        (q, PairSymbol(sym, sym)): dsts
        for (q, sym), dsts in language.transitions.items()
    }
    return Transducer(
        alphabet, alphabet, language.states, transitions, language.initial, language.final
    )


def universal(top: Alphabet, bottom: Alphabet) -> Transducer:
    """The full relation top* x bottom*.

    Three states: synchronous part, then one track padded.  Keeping the
    padded modes apart preserves padding validity.
    """
    transitions: dict = {}
    for a in top.symbols:
        for b in bottom.symbols:
            transitions[(0, PairSymbol(a, b))] = (0,)
        transitions[(0, PairSymbol(a, PAD))] = (1,)
        transitions[(1, PairSymbol(a, PAD))] = (1,)
    for b in bottom.symbols:
        transitions[(0, PairSymbol(PAD, b))] = (2,)
        transitions[(2, PairSymbol(PAD, b))] = (2,)
    return Transducer(top, bottom, (0, 1, 2), transitions, [0], [0, 1, 2])


def diagonal(t: Transducer) -> Nfa:
    """{c : (c, c) in the relation}; both tracks must share one alphabet."""
    if t.top != t.bottom:
        raise AlphabetMismatch("diagonal needs equal top and bottom alphabets")
    return t.intersect(identity(t.top)).project(1)


def relation_difference_identity(t: Transducer) -> Transducer:
    """The relation minus all identity pairs (u, u)."""
    if t.top != t.bottom:
        raise AlphabetMismatch("identity removal needs equal track alphabets")
    return t.intersect(identity(t.top).complement()).trim()

