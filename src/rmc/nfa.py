"""Nondeterministic finite automata with deterministic witness reporting.

All operations are pure: they build and return new automata, never mutate.
An automaton is immutable after construction, which lets a transducer keep
what it derives from itself alone (:class:`~rmc.transducer.Transducer`).
Reported witnesses (shortest accepted word, shortest inclusion
counterexample) are always of minimal length with ties broken by alphabet
order, so repeated runs produce identical output.  Every search for a
word is :func:`constrained_search`: the least word of ∩P minus ∩N.  Only
the negatives N are determinized, lazily, behind the state cap; the
positives P are one nondeterministic product.

Every product of two automata walks the state pairs that read one symbol
on a shared middle track: :func:`_product` builds it, trimmed, and
:func:`_lazy_product` explores it for a search.  Intersection reads each
operand as its identity relation; composition and the images of
:mod:`rmc.transducer` read a transducer by one of its tracks.

State identifiers are arbitrary hashable values.  Constructions label
their result states with tuples or integers.
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Hashable, Iterable, Sequence

from . import graph
from .alphabet import PAD, Alphabet, PairSymbol, Word
from .errors import AlphabetMismatch, RmcError, StateCapExceeded

State = Hashable

DEFAULT_STATE_CAP = 2**20


def _state_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get("RMC_STATE_CAP")
    if not env:
        return DEFAULT_STATE_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise RmcError(f"RMC_STATE_CAP must be a positive integer, got {env!r}")
    return cap


def start_pairs(first: Nfa, second: Nfa) -> list:
    """The initial state pairs of a product of two automata, in state order."""
    return [
        (p, q)
        for p in first.states if p in first.initial
        for q in second.states if q in second.initial
    ]


class Nfa:
    """A finite automaton over an :class:`Alphabet` (or pair alphabet).

    ``transitions`` maps ``(state, symbol)`` to the tuple of successor
    states, kept sorted by state position so iteration order is stable.
    """

    __slots__ = ("alphabet", "states", "transitions", "initial", "final", "_pos")

    def __init__(
        self,
        alphabet,
        states: Sequence[State],
        transitions: dict,
        initial: Iterable[State],
        final: Iterable[State],
    ):
        states = tuple(states)
        pos = {q: i for i, q in enumerate(states)}
        if len(pos) != len(states):
            raise ValueError("duplicate state identifiers")
        initial = frozenset(initial)
        final = frozenset(final)
        for q in initial | final:
            if q not in pos:
                raise ValueError(f"initial/final state {q!r} not among states")
        for (q, sym), dsts in transitions.items():
            if q not in pos:
                raise ValueError(f"transition from unknown state {q!r}")
            if sym not in alphabet:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")
            for r in dsts:
                if r not in pos:
                    raise ValueError(f"transition to unknown state {r!r}")
        self._fill(alphabet, states, pos, transitions, initial, final)

    @classmethod
    def _trusted(cls, alphabet, states, transitions: dict, initial, final):
        """Build an automaton the kernel made, without the membership checks
        of ``__init__``: the states must be distinct and every state and
        symbol named must belong.  Target lists are still made unique and
        sorted by state position."""
        self = object.__new__(cls)
        states = tuple(states)
        pos = {q: i for i, q in enumerate(states)}
        self._fill(alphabet, states, pos, transitions, frozenset(initial), frozenset(final))
        return self

    def _fill(self, alphabet, states, pos, transitions, initial, final) -> None:
        """Set the fields, each target list made unique and sorted by state
        position."""
        position = pos.__getitem__
        norm: dict = {}
        for edge, dsts in transitions.items():
            if len(dsts) == 1:
                norm[edge] = tuple(dsts)
            elif dsts:
                norm[edge] = tuple(sorted(set(dsts), key=position))
        self.alphabet = alphabet
        self.states = states
        self.transitions = norm
        self.initial = initial
        self.final = final
        self._pos = pos

    # -- construction helpers -------------------------------------------------

    def _make(self, states, transitions, initial, final) -> "Nfa":
        """Kernel output of the same kind over the same alphabet."""
        return self._trusted(self.alphabet, states, transitions, initial, final)

    def _check_same_alphabet(self, other: "Nfa") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"operands have different alphabets: {self.alphabet!r} vs {other.alphabet!r}"
            )

    # -- basic queries ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.alphabet == other.alphabet
            and self.states == other.states
            and self.transitions == other.transitions
            and self.initial == other.initial
            and self.final == other.final
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.states, self.initial, self.final))

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} states={len(self.states)} "
            f"transitions={sum(len(v) for v in self.transitions.values())}>"
        )

    def step(self, current: frozenset, sym) -> frozenset:
        """One subset-simulation step."""
        out: set = set()
        trans = self.transitions
        for q in current:
            out.update(trans.get((q, sym), ()))
        return frozenset(out)

    def accepts(self, word: Sequence) -> bool:
        self.alphabet.check_word(word)
        current = frozenset(self.initial)
        for sym in word:
            current = self.step(current, sym)
            if not current:
                return False
        return bool(current & self.final)

    def shortest_word(self) -> tuple | None:
        """Shortest accepted word, lexicographically least by alphabet order.

        Returns None when the language is empty.
        """
        return constrained_search([self])

    def is_empty(self) -> bool:
        return self.shortest_word() is None

    def is_deterministic(self) -> bool:
        if len(self.initial) > 1:
            return False
        return all(len(dsts) <= 1 for dsts in self.transitions.values())

    def _view(self) -> tuple:
        """``(moves, accepting, initial)`` as a search reads them, states by
        position: ``moves[i]`` maps a symbol to the successors of state i."""
        pos = self._pos
        moves: list = [{} for _ in self.states]
        for (q, sym), dsts in self.transitions.items():
            moves[pos[q]][sym] = tuple(pos[r] for r in dsts)
        accepting = [q in self.final for q in self.states]
        return moves, accepting, frozenset(pos[q] for q in self.initial)

    # -- reachability and trimming ---------------------------------------------

    def _forward_reachable(self) -> set:
        succ: dict = {}
        for (q, _sym), dsts in self.transitions.items():
            succ.setdefault(q, []).extend(dsts)
        return graph.closure(self.initial, lambda q: succ.get(q, ()))

    def _coreachable(self) -> set:
        rev: dict = {}
        for (q, _sym), dsts in self.transitions.items():
            for r in dsts:
                rev.setdefault(r, []).append(q)
        return graph.closure(self.final, lambda q: rev.get(q, ()))

    def trim(self) -> "Nfa":
        """Keep only states both reachable and co-reachable."""
        keep = self._forward_reachable() & self._coreachable()
        states = tuple(q for q in self.states if q in keep)
        kept = set(states)
        transitions = {}
        for (q, sym), dsts in self.transitions.items():
            if q in kept:
                out = tuple(r for r in dsts if r in kept)
                if out:
                    transitions[(q, sym)] = out
        return self._make(
            states, transitions, self.initial & kept, self.final & kept
        )

    # -- boolean algebra ---------------------------------------------------------

    def union(self, other: "Nfa") -> "Nfa":
        """Disjoint-union automaton; exactly n1 + n2 states."""
        self._check_same_alphabet(other)
        states = [(0, q) for q in self.states] + [(1, q) for q in other.states]
        transitions: dict = {}
        for (q, sym), dsts in self.transitions.items():
            transitions[((0, q), sym)] = tuple((0, r) for r in dsts)
        for (q, sym), dsts in other.transitions.items():
            transitions[((1, q), sym)] = tuple((1, r) for r in dsts)
        initial = [(0, q) for q in self.initial] + [(1, q) for q in other.initial]
        final = [(0, q) for q in self.final] + [(1, q) for q in other.final]
        return self._make(states, transitions, initial, final)

    def intersect(self, other: "Nfa") -> "Nfa":
        """Product automaton over reachable state pairs, trimmed; at most
        n1 * n2 states.  Each operand is read as its identity relation, so
        this is the :func:`_product` that composition and the images use."""
        self._check_same_alphabet(other)
        middles = self.alphabet.symbols + (PAD,)
        left, right = _moves_of_language(self), _moves_of_language(other)
        return _product(type(self), self.alphabet, left, right, start_pairs(self, other), middles, 1)

    def complement(self, cap: int | None = None) -> "Nfa":
        """Complement via subset construction.

        The result is deterministic and complete.  Raises
        :class:`StateCapExceeded` when more than ``cap`` subset states
        appear (default 2**20, overridable via RMC_STATE_CAP).
        """
        subsets = _Subsets(self, _state_cap(cap))
        found = subsets.found
        transitions: dict = {}
        # ``found`` grows while it is walked, which makes this a breadth-first
        # search: state i of the result is the i-th subset found
        for i, subset in enumerate(found):
            for sym in self.alphabet.symbols:
                transitions[(i, sym)] = (subsets.number[subsets.step(subset, sym)],)
        final = [i for i, subset in enumerate(found) if not subsets.final(subset)]
        return self._make(tuple(range(len(found))), transitions, [0], final)

    def includes(self, other: "Nfa") -> tuple[bool, tuple | None]:
        """Language inclusion L(other) <= L(self), decided on the fly.

        Returns ``(True, None)`` or ``(False, w)`` where ``w`` is a
        shortest word accepted by ``other`` but not by ``self``.
        """
        self._check_same_alphabet(other)
        counterexample = constrained_search([other], [self])
        return counterexample is None, counterexample

    # -- enumeration ---------------------------------------------------------------

    def enumerate_words(self, limit: int) -> tuple[list, bool]:
        """Accepted words in shortest-then-lexicographic order.

        Returns ``(words, truncated)`` where ``truncated`` says whether the
        language holds more than ``limit`` words.
        """
        coreach = self._coreachable()
        out: list = []
        start = frozenset(q for q in self.initial if q in coreach)
        if self.initial & self.final:
            out.append(())
        level: dict = {(): start} if start else {}
        while level and len(out) <= limit:
            nxt: dict = {}
            for word, subset in level.items():
                for sym in self.alphabet.symbols:
                    stepped = self.step(subset, sym)
                    if stepped & self.final:
                        out.append(word + (sym,))
                        if len(out) > limit:
                            return out[:limit], True
                    live = frozenset(q for q in stepped if q in coreach)
                    if live:
                        nxt[word + (sym,)] = live
            level = nxt
        return out[:limit], len(out) > limit

    def words_of_length(self, length: int, limit: int) -> list | None:
        """The accepted words of ``length`` in alphabet order, or None when
        there are more than ``limit`` of them.

        They are counted first, so a length over the limit or with no word
        is answered before any is listed.  The listing walks the subsets
        depth first, each pruned to the states that can still accept in
        exactly the steps left, so every branch it takes ends in a word.
        """
        count = self.count_words(length)
        if count > limit:
            return None
        if not count:
            return []
        back: dict = {}
        for (q, _sym), dsts in self.transitions.items():
            for r in dsts:
                back.setdefault(r, set()).add(q)
        # live[k]: the states that accept some word of exactly k symbols
        live = [self.final]
        for _ in range(length):
            live.append(frozenset(q for r in live[-1] for q in back.get(r, ())))
        out: list = []
        start = self.initial & live[length]
        stack = [((), start)] if start else []
        backwards = self.alphabet.symbols[::-1]
        while stack:
            word, subset = stack.pop()
            left = length - len(word)
            if not left:
                out.append(word)
                continue
            # pushed last to first, so the first symbol is walked first
            for sym in backwards:
                stepped = self.step(subset, sym) & live[left - 1]
                if stepped:
                    stack.append((word + (sym,), stepped))
        return out

    def count_words(self, length: int) -> int:
        """The number of accepted words of ``length``.

        Counts runs of the subset construction, which is deterministic, so
        the work grows with the subsets met, not with the words, and stops
        at the first length no word reaches.
        """
        subsets = _Subsets(self, _state_cap(None))
        level = {subsets.start: 1}
        for _ in range(length):
            nxt: dict = {}
            for subset, count in level.items():
                for sym in self.alphabet.symbols:
                    stepped = subsets.step(subset, sym)
                    if stepped:
                        nxt[stepped] = nxt.get(stepped, 0) + count
            if not nxt:
                return 0
            level = nxt
        return sum(count for subset, count in level.items() if subsets.final(subset))


# -- on-the-fly product search ------------------------------------------------------


class LazyNfa:
    """An automaton explored only as a search asks: ``moves[state]`` maps
    symbols to successor states, and a state accepts when moves on
    ``silent``, which read nothing, lead it to ``final``.  Both are worked
    out once per state."""

    __slots__ = ("alphabet", "initial", "moves", "accepting")

    def __init__(self, alphabet, initial: Iterable[State], moves: Callable, silent, final: State):
        # no reference back to ``self``: freed without a garbage collection;
        # most states have no silent moves and need no closure
        self.alphabet = alphabet
        self.initial = frozenset(initial)
        self.moves = known = _Memo(moves)
        self.accepting = _Memo(lambda state: (
            final in graph.closure([state], lambda q: known[q].get(silent, ()))
            if silent in known[state] else state == final
        ))

    def accepts(self, word: Sequence) -> bool:
        current = self.initial
        for sym in word:
            current = {r for q in current for r in self.moves[q].get(sym, ())}
        return any(self.accepting[q] for q in current)

    def _view(self) -> tuple:
        return self.moves, self.accepting, self.initial


class _Memo(dict):
    """A dict that fills a missing key with ``compute(key)``."""

    __slots__ = ("_compute",)

    def __init__(self, compute: Callable):
        self._compute = compute

    def __missing__(self, key):
        value = self[key] = self._compute(key)
        return value


def _meet(views: list) -> tuple:
    """The view of the product of ``views``, explored only where a search
    steps it: its states are tuples of theirs, and accept where all do."""
    if len(views) == 1:
        return views[0]
    each_moves, each_accepting, each_initial = zip(*views)

    def moves(node: tuple) -> dict:
        steps = [m[q] for m, q in zip(each_moves, node)]
        return {sym: list(itertools.product(*(s.get(sym, ()) for s in steps))) for sym in steps[0]}

    def accepting(node: tuple) -> bool:
        return all(accepts[q] for accepts, q in zip(each_accepting, node))

    return _Memo(moves), _Memo(accepting), frozenset(itertools.product(*each_initial))


class _Subsets:
    """The subset construction of one automaton, built lazily.

    Subsets are frozensets of states, by position for an :class:`Nfa`.
    ``found`` lists them in the order :meth:`step` first produced them,
    starting with ``start``, and ``number`` maps each to its place in that
    list.  Steps are memoized; a step that would make more than ``cap``
    subsets raises :class:`StateCapExceeded`.
    """

    __slots__ = ("start", "found", "number", "_moves", "_accepting", "_steps", "_cap")

    def __init__(self, automaton: Nfa | LazyNfa, cap: int):
        self._moves, self._accepting, self.start = automaton._view()
        self._steps: dict = {}
        self._cap = cap
        self.found = [self.start]
        self.number = {self.start: 0}

    def final(self, subset: frozenset) -> bool:
        return any(self._accepting[q] for q in subset)

    def step(self, subset: frozenset, sym) -> frozenset:
        key = (subset, sym)
        nxt = self._steps.get(key)
        if nxt is None:
            out: set = set()
            moves = self._moves
            for p in subset:
                out.update(moves[p].get(sym, ()))
            nxt = frozenset(out)
            if nxt not in self.number:
                if len(self.found) >= self._cap:
                    raise StateCapExceeded(
                        f"subset construction grew past the state cap of {self._cap}"
                    )
                self.number[nxt] = len(self.found)
                self.found.append(nxt)
            self._steps[key] = nxt
        return nxt


def constrained_search(positives: Sequence, negatives: Sequence = ()) -> tuple | None:
    """The least word of ∩P minus ∩N: the shortest, then alphabet-least,
    word that every automaton of ``positives`` accepts and, when there are
    ``negatives``, not every one of them does; None when there is none.

    The operands share one alphabet; each is an :class:`Nfa` or a
    :class:`LazyNfa`, read through its ``(moves, accepting, initial)``
    view.  The positives are walked as one nondeterministic product
    (:func:`_meet`) and never meet the state cap.  Each negative is
    determinized lazily (:class:`_Subsets`), along the words the search
    visits; past the cap the search raises rather than running away.

    The search takes words by length, then in alphabet order.  All the
    product nodes one word reaches share its subsets, so each length is a
    list of groups ``(word, states, subsets)`` naming the positive states
    the word is the first to reach.  The answer thus never depends on the
    order of the states.
    """
    alphabet = positives[0].alphabet
    if any(operand.alphabet != alphabet for operand in (*positives, *negatives)):
        raise AlphabetMismatch("search operands have different alphabets")
    moves, accepting, initial = _meet([p._view() for p in positives])
    cap = _state_cap(None)
    sides = [_Subsets(n, cap) for n in negatives]

    def accepted(states, subsets) -> bool:
        return any(accepting[q] for q in states) and not (
            sides and all(side.final(s) for side, s in zip(sides, subsets))
        )

    start = tuple(side.start for side in sides)
    if accepted(initial, start):
        return ()
    seen = {(q, start) for q in initial}
    level = [((), initial, start)]
    while level:
        following = []
        for word, states, subsets in level:
            for sym in alphabet.symbols:
                succs: set = set()
                for q in states:
                    succs.update(moves[q].get(sym, ()))
                if not succs:
                    continue
                stepped = tuple(side.step(s, sym) for side, s in zip(sides, subsets))
                fresh = [r for r in succs if (r, stepped) not in seen]
                if not fresh:
                    continue
                seen.update((r, stepped) for r in fresh)
                longer = word + (sym,)
                if accepted(fresh, stepped):
                    return longer
                following.append((longer, fresh, stepped))
        level = following
    return None


# -- products over a shared middle track --------------------------------------------


# the state a side of a product moves to once its words have ended; a
# private object, so it equals no state of a caller's automaton
_DONE = object()

# the (#, #) move to DONE that every final state and DONE itself make; one
# tuple shared by every index
_DONE_MOVE = ((PAD, (_DONE,)),)


def _moves_of_language(language: Nfa) -> dict:
    """Index a word language as :func:`~rmc.transducer._moves_by_middle`
    indexes its identity relation: each move writes the symbol it reads,
    so :func:`_product` reads a language as a transducer.  Built for each
    product: a language keeps nothing."""
    index: dict = {}
    for (q, sym), dsts in language.transitions.items():
        index.setdefault(q, {})[sym] = ((sym, dsts),)
    return _with_done(index, language.final)


def _with_done(index: dict, final) -> dict:
    """Add the (#, #) move to DONE to every final state and to DONE itself."""
    for q in (*final, _DONE):
        moves = index.setdefault(q, {})
        found = moves.get(PAD)
        moves[PAD] = found + _DONE_MOVE if found else _DONE_MOVE
    return index


def _node_moves(left: dict, right: dict, node: tuple, middles: tuple, track: int) -> list:
    """The moves of one node of :func:`_product` as (label, target pairs),
    in the order it finds them; label # marks a move that writes only #."""
    moves: list = []
    p, q = node
    from_p = left.get(p)
    from_q = right.get(q)
    if from_p is None or from_q is None:
        return moves
    for b in middles:
        rights = from_q.get(b)
        if rights is None:
            continue
        for a, p_dsts in from_p.get(b, ()):
            for c, q_dsts in rights:
                if track == 2:
                    label = c
                elif track == 1:
                    label = a
                else:
                    label = PAD if a == c == PAD else PairSymbol(a, c)
                moves.append((label, [(p2, q2) for p2 in p_dsts for q2 in q_dsts]))
    return moves


def _product(kind, alphabet, left: dict, right: dict, start: list, middles: tuple, track: int):
    """One breadth-first pass over the state pairs reachable from ``start``,
    both sides reading the same middle symbol, or # once the middle word
    has ended; each side is indexed by
    :func:`~rmc.transducer._moves_by_middle` or :func:`_moves_of_language`.
    Intersection, composition and both images are this product.

    A move writes the pair of outer symbols (track 0), the left side's
    (track 1) or the right side's (track 2).  A move that writes only #,
    on the kept track or on both for track 0, adds nothing the result
    reads: it only decides acceptance, which is one closure back from
    (DONE, DONE) over such moves.  Returns the trimmed automaton of
    ``kind`` over ``alphabet`` whose states are the pairs in the order found.
    """
    # ``order`` grows while it is walked, which makes this breadth-first
    order = list(start)
    seen = set(start)
    transitions: dict = {}
    silent_back: dict = {}
    for node in order:
        for label, targets in _node_moves(left, right, node, middles, track):
            if label == PAD:
                for target in targets:
                    silent_back.setdefault(target, []).append(node)
            else:
                transitions.setdefault((node, label), []).extend(targets)
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    order.append(target)
    final = graph.closure([(_DONE, _DONE)], lambda n: silent_back.get(n, ()))
    return kind._trusted(alphabet, order, transitions, start, final & seen).trim()


def _lazy_product(alphabet, left, right, start, middles, track, read=None) -> LazyNfa:
    """The language of :func:`_product`, explored only where a search steps
    it; ``read`` maps a label to the symbol read, or to None to drop it."""

    def moves(node) -> dict:
        found: dict = {}
        for label, targets in _node_moves(left, right, node, middles, track):
            if read is not None and label != PAD:
                label = read(label)
            if label is not None:
                found.setdefault(label, []).extend(targets)
        return found

    return LazyNfa(alphabet, start, moves, PAD, (_DONE, _DONE))


# -- stock automata ------------------------------------------------------------------


def word_automaton(alphabet: Alphabet, word: Word) -> Nfa:
    """The singleton language {word}."""
    alphabet.check_word(word)
    n = len(word)
    transitions = {(i, word[i]): (i + 1,) for i in range(n)}
    return Nfa(alphabet, tuple(range(n + 1)), transitions, [0], [n])


def universal_automaton(alphabet: Alphabet) -> Nfa:
    """All words over the alphabet; a single looping state."""
    transitions = {(0, a): (0,) for a in alphabet.symbols}
    return Nfa(alphabet, (0,), transitions, [0], [0])


def empty_automaton(alphabet: Alphabet) -> Nfa:
    """The empty language."""
    return Nfa(alphabet, (0,), {}, [0], [])


def length_automaton(alphabet: Alphabet, n: int, upto: bool = False) -> Nfa:
    """Words of length exactly n (or at most n when ``upto``)."""
    transitions = {
        (i, a): (i + 1,) for i in range(n) for a in alphabet.symbols
    }
    final = tuple(range(n + 1)) if upto else (n,)
    return Nfa(alphabet, tuple(range(n + 1)), transitions, [0], final)
