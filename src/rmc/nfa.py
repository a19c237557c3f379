"""Nondeterministic finite automata with deterministic witness reporting.

All operations are pure: they build and return new automata, never mutate.
Reported witnesses (shortest accepted word, shortest inclusion
counterexample) are always of minimal length with ties broken by alphabet
order, so repeated runs produce identical output.

State identifiers are arbitrary hashable values.  Constructions label
their result states with tuples or integers; use :meth:`Nfa.renumber` for
printable names.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Hashable, Iterable, Sequence

from .alphabet import Alphabet, Word
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
        if len(set(states)) != len(states):
            raise ValueError("duplicate state identifiers")
        pos = {q: i for i, q in enumerate(states)}
        initial = frozenset(initial)
        final = frozenset(final)
        for q in initial | final:
            if q not in pos:
                raise ValueError(f"initial/final state {q!r} not among states")
        norm: dict = {}
        for (q, sym), dsts in transitions.items():
            if q not in pos:
                raise ValueError(f"transition from unknown state {q!r}")
            if sym not in alphabet:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")
            for r in set(dsts):
                if r not in pos:
                    raise ValueError(f"transition to unknown state {r!r}")
            uniq = sorted(set(dsts), key=pos.__getitem__)
            if uniq:
                norm[(q, sym)] = tuple(uniq)
        self.alphabet = alphabet
        self.states = states
        self.transitions = norm
        self.initial = initial
        self.final = final
        self._pos = pos

    # -- construction helpers -------------------------------------------------

    def _make(self, states, transitions, initial, final) -> "Nfa":
        """Build an automaton of the same kind over the same alphabet."""
        return Nfa(self.alphabet, states, transitions, initial, final)

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
        for sym in word:
            if sym not in self.alphabet:
                self.alphabet.index(sym)  # raises SymbolNotInAlphabet
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
        found = constrained_search(self, [], lambda pos_final, hits: pos_final)
        return found

    def is_empty(self) -> bool:
        return self.shortest_word() is None

    def is_deterministic(self) -> bool:
        if len(self.initial) > 1:
            return False
        return all(len(dsts) <= 1 for dsts in self.transitions.values())

    # -- reachability and trimming ---------------------------------------------

    def _forward_reachable(self) -> set:
        seen = set(self.initial)
        queue = deque(q for q in self.states if q in self.initial)
        while queue:
            q = queue.popleft()
            for sym in self.alphabet.symbols:
                for r in self.transitions.get((q, sym), ()):
                    if r not in seen:
                        seen.add(r)
                        queue.append(r)
        return seen

    def _coreachable(self) -> set:
        rev: dict = {}
        for (q, _sym), dsts in self.transitions.items():
            for r in dsts:
                rev.setdefault(r, []).append(q)
        seen = set(self.final)
        queue = deque(q for q in self.states if q in self.final)
        while queue:
            q = queue.popleft()
            for p in rev.get(q, ()):
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return seen

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
        """Product automaton over reachable state pairs; at most n1 * n2 states."""
        self._check_same_alphabet(other)
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
            for sym in self.alphabet.symbols:
                ps = self.transitions.get((p, sym))
                if not ps:
                    continue
                qs = other.transitions.get((q, sym))
                if not qs:
                    continue
                dsts = []
                for p2 in ps:
                    for q2 in qs:
                        node = (p2, q2)
                        dsts.append(node)
                        if node not in seen:
                            seen[node] = None
                            queue.append(node)
                transitions[((p, q), sym)] = tuple(dsts)
        states = tuple(seen)
        final = [
            (p, q) for (p, q) in states if p in self.final and q in other.final
        ]
        return self._make(states, transitions, start, final)

    def complement(self, cap: int | None = None) -> "Nfa":
        """Complement via subset construction.

        The result is deterministic and complete.  Raises
        :class:`StateCapExceeded` when more than ``cap`` subset states
        appear (default 2**20, overridable via RMC_STATE_CAP).
        """
        cap = _state_cap(cap)
        subsets, transitions, final_subsets = self._determinize(cap)
        final = [i for i in range(len(subsets)) if i not in final_subsets]
        return self._make(tuple(range(len(subsets))), transitions, [0], final)

    def _determinize(self, cap: int):
        """Complete subset construction; returns (subsets, transitions, accepting)."""
        final_pos = {self._pos[q] for q in self.final}
        start = frozenset(self._pos[q] for q in self.initial)
        index = {start: 0}
        subsets = [start]
        transitions: dict = {}
        accepting = set()
        if start & final_pos:
            accepting.add(0)
        by_pos: dict = {}
        for (q, sym), dsts in self.transitions.items():
            by_pos[(self._pos[q], sym)] = tuple(self._pos[r] for r in dsts)
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            ci = index[cur]
            for sym in self.alphabet.symbols:
                nxt: set = set()
                for i in cur:
                    nxt.update(by_pos.get((i, sym), ()))
                nxt = frozenset(nxt)
                if nxt not in index:
                    if len(subsets) >= cap:
                        raise StateCapExceeded(
                            f"subset construction exceeded cap of {cap} states"
                        )
                    index[nxt] = len(subsets)
                    subsets.append(nxt)
                    if nxt & final_pos:
                        accepting.add(index[nxt])
                    queue.append(nxt)
                transitions[(ci, sym)] = (index[nxt],)
        return subsets, transitions, accepting

    def includes(self, other: "Nfa") -> tuple[bool, tuple | None]:
        """Language inclusion L(other) <= L(self), decided on the fly.

        Returns ``(True, None)`` or ``(False, w)`` where ``w`` is a
        shortest word accepted by ``other`` but not by ``self``.
        """
        self._check_same_alphabet(other)
        counterexample = constrained_search(
            other, [self], lambda pos_final, hits: pos_final and not hits[0]
        )
        if counterexample is None:
            return True, None
        return False, counterexample

    def renumber(self, prefix: str = "s") -> "Nfa":
        """Rename states to prefix0..prefixN-1 in state order."""
        names = {q: f"{prefix}{i}" for i, q in enumerate(self.states)}
        transitions = {
            (names[q], sym): tuple(names[r] for r in dsts)
            for (q, sym), dsts in self.transitions.items()
        }
        return self._make(
            tuple(names[q] for q in self.states),
            transitions,
            [names[q] for q in self.initial],
            [names[q] for q in self.final],
        )

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


# -- on-the-fly product search ------------------------------------------------------


def constrained_search(
    pos: Nfa,
    dets: Sequence[Nfa],
    accept: Callable[[bool, tuple], bool],
) -> tuple | None:
    """Shortest word w in L(pos) filtered by determinized side conditions.

    Explores the product of ``pos`` (kept nondeterministic) with the
    subset constructions of every automaton in ``dets``, built lazily.
    ``accept(pos_final, hits)`` decides acceptance of a product node,
    where ``hits[i]`` tells whether the i-th subset contains a final
    state.  Returns the shortest, lexicographically least accepted word,
    or None.  The subset parts are never materialized beyond the states
    the search actually visits; if any of them still grows past the
    state cap, the search raises rather than running away.
    """
    for d in dets:
        if d.alphabet != pos.alphabet:
            raise AlphabetMismatch("search operands have different alphabets")
    cap = _state_cap(None)

    det_infos = []
    for d in dets:
        by_pos: dict = {}
        for (q, sym), dsts in d.transitions.items():
            by_pos[(d._pos[q], sym)] = tuple(d._pos[r] for r in dsts)
        init = frozenset(d._pos[q] for q in d.initial)
        final = frozenset(d._pos[q] for q in d.final)
        det_infos.append((by_pos, init, final, {}, {init}))

    def det_step(i: int, subset: frozenset, sym) -> frozenset:
        by_pos, _init, _final, cache, known = det_infos[i]
        key = (subset, sym)
        cached = cache.get(key)
        if cached is not None:
            return cached
        nxt: set = set()
        for p in subset:
            nxt.update(by_pos.get((p, sym), ()))
        result = frozenset(nxt)
        cache[key] = result
        if result not in known:
            known.add(result)
            if len(known) > cap:
                raise StateCapExceeded(
                    f"on-the-fly subset construction grew past {cap} states"
                )
        return result

    def hits_of(subsets: tuple) -> tuple:
        return tuple(bool(s & det_infos[i][2]) for i, s in enumerate(subsets))

    init_subsets = tuple(info[1] for info in det_infos)
    seen: dict = {}
    queue: deque = deque()
    for q in pos.states:
        if q not in pos.initial:
            continue
        node = (q, init_subsets)
        if node in seen:
            continue
        seen[node] = None
        if accept(q in pos.final, hits_of(init_subsets)):
            return ()
        queue.append(node)
    while queue:
        node = queue.popleft()
        q, subsets = node
        for sym in pos.alphabet.symbols:
            succs = pos.transitions.get((q, sym))
            if not succs:
                continue
            stepped = tuple(det_step(i, s, sym) for i, s in enumerate(subsets))
            hits = None
            for r in succs:
                child = (r, stepped)
                if child in seen:
                    continue
                seen[child] = (node, sym)
                if hits is None:
                    hits = hits_of(stepped)
                if accept(r in pos.final, hits):
                    word = [sym]
                    cur = node
                    while seen[cur] is not None:
                        parent, s = seen[cur]
                        word.append(s)
                        cur = parent
                    return tuple(reversed(word))
                queue.append(child)
    return None


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
