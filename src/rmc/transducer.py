"""Transducers: automata over the padded pair alphabet, denoting word relations.

A transducer over alphabets (top, bottom) accepts convolutions and thereby
recognizes a relation between top-track and bottom-track words.  Padding
(#) appears only where one track has ended, so a well-formed transducer
never reads a real symbol after padding on the same track; see
:meth:`Transducer.validate_padding`.

The relation algebra lives here: inversion, track projection, relational
composition, and forward/backward images of regular languages.  Inverse
and projection keep the state set.  Composition and the images are each
the kernel's one breadth-first product (:func:`rmc.nfa._product`, which
intersection uses too), and come back trimmed; composition builds at most
(l1 + 1) * (l2 + 1) states before trimming, one extra per side for a side
whose words have ended; an image of an n-state language under an l-state
transducer has at most (n + 1) * l.  Projection and composition assume
padding-valid operands, which loading checks.

Pre-images and round trips also come lazily, for a search
(:func:`rmc.nfa._lazy_product`).  Built or lazy, a product moves by
:func:`rmc.nfa._node_moves` and a pair accepts when moves writing only #
lead it to (DONE, DONE): padding is defined once for both.  Each
transducer keeps its index for each track it is read by
(:func:`_moves_by_middle`), so the products of one check with the same
``reach`` and ``delta`` index them once; a language operand is indexed
afresh for each product.
"""

from __future__ import annotations

from . import graph
from .alphabet import PAD, Alphabet, PairAlphabet, PairSymbol, Word, convolve
from .errors import AlphabetMismatch, PaddingViolation
from .nfa import LazyNfa, Nfa, start_pairs, universal_automaton
from .nfa import _lazy_product, _moves_of_language, _product, _with_done


def _moves_by_middle(t: "Transducer", middle: int) -> dict:
    """Index ``t`` for a product that reads its track ``middle`` (0 for
    top, 1 for bottom) and writes the other: state to middle symbol (or #)
    to a tuple of (outer symbol or #, targets), in transition order, plus
    the DONE moves of :func:`rmc.nfa._with_done`.

    The index is built on first use and kept on ``t``, which never changes
    after construction, so every product that reads ``t`` by that track
    shares it; products only read it.
    """
    return t._derive(middle, lambda: _index_by_middle(t, middle))


def _index_by_middle(t: "Transducer", middle: int) -> dict:
    """A fresh build of the index :func:`_moves_by_middle` keeps."""
    outer = 1 - middle
    index: dict = {}
    for (q, sym), dsts in t.transitions.items():
        index.setdefault(q, {}).setdefault(sym[middle], []).append((sym[outer], dsts))
    for moves in index.values():
        for b, found in moves.items():
            moves[b] = tuple(found)
    return _with_done(index, t.final)


def _pair_alphabet(top: Alphabet, bottom: Alphabet, *known: PairAlphabet) -> PairAlphabet:
    """The pair alphabet of ``top`` and ``bottom``, reusing a known one."""
    for alphabet in known:
        if alphabet.top == top and alphabet.bottom == bottom:
            return alphabet
    return PairAlphabet(top, bottom)


class Transducer(Nfa):
    """An :class:`Nfa` over the pair alphabet of two track alphabets.

    What is derived from a transducer alone (its product indexes, its
    successor index, the complement of its domain, and its padding and
    length checks) is kept on it, filled on first use: like every
    automaton, a transducer never changes after construction.
    """

    # key -> value derived from this transducer; unset until first use, so
    # kernel results that are never indexed carry nothing
    __slots__ = ("_derived",)

    def __init__(self, top: Alphabet, bottom: Alphabet, states, transitions, initial, final):
        super().__init__(PairAlphabet(top, bottom), states, transitions, initial, final)

    def _derive(self, key, build):
        """The value ``build()`` derives from this transducer, built once."""
        try:
            return self._derived[key]
        except AttributeError:
            self._derived = {}
        except KeyError:
            pass
        value = self._derived[key] = build()
        return value

    @property
    def top(self) -> Alphabet:
        return self.alphabet.top

    @property
    def bottom(self) -> Alphabet:
        return self.alphabet.bottom

    # -- relation queries --------------------------------------------------------

    def accepts_pair(self, top_word: Word, bottom_word: Word) -> bool:
        return self.accepts(convolve(top_word, bottom_word))

    def is_length_preserving(self) -> bool:
        """True when no trimmed transition carries padding.  Worked out
        once per transducer; one that is letter-to-letter needs no trim."""
        return self._derive(
            "length-preserving",
            lambda: self.is_letter_to_letter() or self.trim().is_letter_to_letter(),
        )

    def is_letter_to_letter(self) -> bool:
        """True when no transition carries padding."""
        return all(PAD not in sym for (_q, sym) in self.transitions)

    def validate_padding(self) -> None:
        """Reject real symbols after padding on a track along any useful path.

        Tracks the set of trimmed states reachable after consuming a padded
        symbol on each track; any further transition with a real symbol on
        that track is a violation.  A pass is kept with the transducer's
        other derived data, so one that passed once, as each of a bundle's
        does when its file is read, is not walked again; a violation is
        kept nowhere and raises on every call.
        """
        self._derive("padding-valid", self._walk_padding)

    def _walk_padding(self) -> bool:
        """The walk of :meth:`validate_padding`: raise or return True."""
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
        return True

    # -- relation algebra ----------------------------------------------------------

    def inverse(self) -> "Transducer":
        """Swap the two tracks; same states."""
        transitions = {
            (q, PairSymbol(sym.bottom, sym.top)): dsts
            for (q, sym), dsts in self.transitions.items()
        }
        alphabet = _pair_alphabet(self.bottom, self.top, self.alphabet)
        return Transducer._trusted(
            alphabet, self.states, transitions, self.initial, self.final
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
        return Nfa._trusted(target, self.states, transitions, self.initial, final).trim()

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
        alphabet = _pair_alphabet(self.top, other.bottom, self.alphabet, other.alphabet)
        return _product(Transducer, alphabet, *self._composition(other))

    def _composition(self, other: "Transducer") -> tuple:
        """The operands of :func:`_product` for :meth:`compose`."""
        if self.bottom != other.top:
            raise AlphabetMismatch(
                "composition needs the first bottom alphabet to equal the second top"
            )
        start, middles = start_pairs(self, other), self.bottom.symbols + (PAD,)
        return _moves_by_middle(self, 1), _moves_by_middle(other, 0), start, middles, 0

    def lazy_round_trip(self, other: "Transducer") -> LazyNfa:
        """{x : some y with (x, y) in self and (y, x) in other}, explored
        only where a search steps it: the (x, x) moves of the product of
        :meth:`compose`, whose (#, #) moves, (#, b) of ``self`` against
        (b, #) of ``other``, decide acceptance; both must be padding-valid."""
        same = lambda label: label.top if label.top == label.bottom else None  # noqa: E731
        return _lazy_product(self.top, *self._composition(other), read=same)

    # -- images ------------------------------------------------------------------

    def post_image(self, language: Nfa) -> Nfa:
        """{y : some x in language with (x, y) in the relation}.

        The automaton of ``identity_on(language).compose(self).project(2)``,
        built by one product that reads the top track and writes the
        bottom one.
        """
        if language.alphabet != self.top:
            raise AlphabetMismatch("language alphabet differs from the top track")
        left, right = _moves_of_language(language), _moves_by_middle(self, 0)
        start, middles = start_pairs(language, self), self.top.symbols + (PAD,)
        return _product(Nfa, self.bottom, left, right, start, middles, 2)

    def pre_image(self, language: Nfa) -> Nfa:
        """{x : some y in language with (x, y) in the relation}.

        The automaton of ``self.compose(identity_on(language)).project(1)``,
        built by one product that reads the bottom track and writes the
        top one.
        """
        return _product(Nfa, self.top, *self._pre_image(language))

    def lazy_pre_image(self, language: Nfa) -> LazyNfa:
        """The untrimmed language of :meth:`pre_image`, explored lazily."""
        return _lazy_product(self.top, *self._pre_image(language))

    def lazy_domain(self) -> LazyNfa:
        """The lazy pre-image of all words: the top track's domain."""
        return self.lazy_pre_image(universal_automaton(self.bottom))

    def _pre_image(self, language: Nfa) -> tuple:
        """The operands of :func:`_product` for :meth:`pre_image`."""
        if language.alphabet != self.bottom:
            raise AlphabetMismatch("language alphabet differs from the bottom track")
        index, middles = _moves_of_language(language), self.bottom.symbols + (PAD,)
        return _moves_by_middle(self, 1), index, start_pairs(self, language), middles, 1


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
    return t.intersect(identity(t.top).complement())

