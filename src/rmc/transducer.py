"""Transducers: automata over the padded pair alphabet, denoting word relations.

A transducer over alphabets (top, bottom) accepts convolutions and thereby
recognizes a relation between top-track and bottom-track words.  Padding
(#) appears only where one track has ended, so a well-formed transducer
never reads a real symbol after padding on the same track; see
:meth:`Transducer.validate_padding`.

The relation algebra lives here: inversion, track projection, relational
composition, and forward/backward images of regular languages.  Inverse
and projection keep the state set; composition builds at most
(l1 + 1) * (l2 + 1) states before trimming, one extra per side for a side
whose words have ended; an image of an n-state language under an l-state
transducer has at most (n + 1) * l.  Projection and composition assume
padding-valid operands, which loading checks.
"""

from __future__ import annotations

from . import graph
from .alphabet import PAD, Alphabet, PairAlphabet, PairSymbol, Word, convolve
from .errors import AlphabetMismatch, PaddingViolation
from .nfa import Nfa

# the state a composed side moves to once its words have ended; a private
# object, so it equals no state of a caller's transducer
_DONE = object()


def _moves_by_middle(t: "Transducer", middle: str, outer: str) -> dict:
    """Index ``t`` for composition: (state, middle symbol or #) to a list of
    (outer symbol or #, targets), plus a (#, #) move to DONE from every
    final state and from DONE itself."""
    index: dict = {}
    for (q, sym), dsts in t.transitions.items():
        index.setdefault((q, getattr(sym, middle)), []).append((getattr(sym, outer), dsts))
    for q in (*t.final, _DONE):
        index.setdefault((q, PAD), []).append((PAD, (_DONE,)))
    return index


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

        The transducer must be padding-valid (:meth:`validate_padding`,
        which bundle loading and :class:`~rmc.abstraction.Interpretation`
        run): once the kept track pads, it pads to the end.  So a move that
        pads the kept track reads nothing and only decides acceptance: a
        state accepts when such moves lead from it to a final state.
        """
        if track not in (1, 2):
            raise ValueError("track must be 1 (top) or 2 (bottom)")
        keep = "top" if track == 1 else "bottom"
        target = self.top if track == 1 else self.bottom

        transitions: dict = {}
        silent_back: dict = {}
        for (q, sym), dsts in self.transitions.items():
            kept = getattr(sym, keep)
            if kept == PAD:
                for r in dsts:
                    silent_back.setdefault(r, []).append(q)
            else:
                transitions.setdefault((q, kept), []).extend(dsts)
        final = graph.closure(self.final, lambda r: silent_back.get(r, ()))
        return Nfa(target, self.states, transitions, self.initial, final).trim()

    def compose(self, other: "Transducer") -> "Transducer":
        """Relational composition: pairs (x, z) with some y relating both sides.

        Both sides must be padding-valid.  One breadth-first pass over
        reachable state pairs, both sides reading the same middle symbol,
        or # once the middle word has ended.  A side whose words have both
        ended moves from a final state to a private DONE state by (#, #),
        and DONE only repeats that move, so an ended side never moves again
        and the result is padding-valid too.  A pair move that writes
        (#, #) reads nothing: the middle word outlives both outer words, or
        both sides are done.  Such moves only decide acceptance, which is
        one closure back from (DONE, DONE) over them.  At most
        (l1 + 1) * (l2 + 1) states before trimming.
        """
        if self.bottom != other.top:
            raise AlphabetMismatch(
                "composition needs the first bottom alphabet to equal the second top"
            )
        left = _moves_by_middle(self, "bottom", "top")
        right = _moves_by_middle(other, "top", "bottom")
        middles = self.bottom.symbols + (PAD,)
        start = [
            (p, q)
            for p in self.states if p in self.initial
            for q in other.states if q in other.initial
        ]
        # ``order`` grows while it is walked, which makes this breadth-first
        order = list(start)
        seen = set(start)
        transitions: dict = {}
        silent_back: dict = {}
        for node in order:
            p, q = node
            for b in middles:
                rights = right.get((q, b))
                if not rights:
                    continue
                for a, p_dsts in left.get((p, b), ()):
                    for c, q_dsts in rights:
                        targets = [(p2, q2) for p2 in p_dsts for q2 in q_dsts]
                        if a == PAD and c == PAD:
                            for target in targets:
                                silent_back.setdefault(target, []).append(node)
                        else:
                            transitions.setdefault((node, PairSymbol(a, c)), []).extend(
                                targets
                            )
                        for target in targets:
                            if target not in seen:
                                seen.add(target)
                                order.append(target)
        final = graph.closure([(_DONE, _DONE)], lambda n: silent_back.get(n, ()))
        return Transducer(
            self.top, other.bottom, order, transitions, start, final & seen
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

