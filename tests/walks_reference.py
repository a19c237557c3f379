"""The label-keyed subset walks of ``rmc.nfa`` and the witness-path queue
of ``rmc.procedures`` as they were written before every walk read the
search view, kept verbatim as the reference that ``tests/test_nfa.py``
and ``tests/test_procedures.py`` compare the kernel with.

Each method is a function of the automaton here, and calls the other
reference functions, never the code under test; :class:`_Subsets` is
copied with them, so that the count does not read the subset walk under
test either.  ``_step_path`` takes its cap as a parameter.
"""

from __future__ import annotations

from typing import Sequence

from rmc import graph
from rmc.alphabet import Word
from rmc.errors import StateCapExceeded
from rmc.nfa import Nfa, _state_cap
from rmc.rts import Rts


def step(self: Nfa, current: frozenset, sym) -> frozenset:
    """One subset-simulation step."""
    out: set = set()
    trans = self.transitions
    for q in current:
        out.update(trans.get((q, sym), ()))
    return frozenset(out)


def accepts(self: Nfa, word: Sequence) -> bool:
    self.alphabet.check_word(word)
    current = frozenset(self.initial)
    for sym in word:
        current = step(self, current, sym)
        if not current:
            return False
    return bool(current & self.final)


def enumerate_words(self: Nfa, limit: int) -> tuple[list, bool]:
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
                stepped = step(self, subset, sym)
                if stepped & self.final:
                    out.append(word + (sym,))
                    if len(out) > limit:
                        return out[:limit], True
                live = frozenset(q for q in stepped if q in coreach)
                if live:
                    nxt[word + (sym,)] = live
        level = nxt
    return out[:limit], len(out) > limit


def words_of_length(self: Nfa, length: int, limit: int) -> list | None:
    """The accepted words of ``length`` in alphabet order, or None when
    there are more than ``limit`` of them.

    They are counted first, so a length over the limit or with no word
    is answered before any is listed.  The listing walks the subsets
    depth first, each pruned to the states that can still accept in
    exactly the steps left, so every branch it takes ends in a word.
    """
    count = count_words(self, length)
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
            stepped = step(self, subset, sym) & live[left - 1]
            if stepped:
                stack.append((word + (sym,), stepped))
    return out


def count_words(self: Nfa, length: int) -> int:
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


class _Subsets:
    """The subset construction of one automaton, built lazily.

    Subsets are frozensets of states, by position for an :class:`Nfa`.
    ``found`` lists them in the order :meth:`step` first produced them,
    starting with ``start``, and ``number`` maps each to its place in that
    list.  Steps are memoized; a step that would make more than ``cap``
    subsets raises :class:`StateCapExceeded`.
    """

    __slots__ = ("start", "found", "number", "_moves", "_accepting", "_steps", "_cap")

    def __init__(self, automaton, cap: int):
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


def _step_path(rts: Rts, target: Word, cap: int) -> tuple[Word, ...] | None:
    """Breadth-first from the initial words of the target's length through
    successors, each in alphabet order; None if a cap comes first."""
    starts = words_of_length(rts.initial, len(target), cap)
    if starts is None:
        return None
    parents = dict.fromkeys(starts)
    # ``order`` grows while it is walked, which makes this breadth-first
    order = list(parents)
    for config in order:
        if target in parents:
            return tuple(graph.path_to(parents, target))
        successors, truncated = rts.successors(config, cap)
        if truncated or len(parents) > cap:
            return None
        for successor in successors:
            if successor not in parents:
                parents[successor] = config
                order.append(successor)
    return None
