"""``Rts.successors`` as it was written before its prefixes became
bijective base-k numerals with memoized merged moves, kept verbatim as the
reference that ``tests/test_rts.py`` compares :meth:`rmc.Rts.successors`
with.

Prefixes are tuples of symbol indices, and each top symbol advances every
state of every prefix on its own.  The method is a function of the system
here, and its index is derived from ``delta`` under its own key, so that
it never reads the index of the code under test.
"""

from __future__ import annotations

from rmc import graph
from rmc.alphabet import PAD, Word
from rmc.rts import Rts
from rmc.transducer import Transducer


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


def _successor_index(delta: Transducer) -> tuple:
    """The trimmed step transducer for :meth:`Rts.successors`: a map from
    top symbol (# included) and state to ``(bottom, targets)`` moves, where
    ``bottom`` is a symbol index or None for padding, and the initial and
    final states."""
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
        b = None if sym.bottom == PAD else delta.bottom.index(sym.bottom)
        if sym.top == PAD:
            dsts = tuple(r for r in dsts if r in grows)
        if dsts:
            moves.setdefault(sym.top, {}).setdefault(q, []).append((b, dsts))
    for by_state in moves.values():
        for q, found in by_state.items():
            by_state[q] = tuple(found)
    return moves, frozenset(delta.initial), delta.final


def successors(self: Rts, config: Word, cap: int | None = None) -> tuple[tuple[Word, ...], bool]:
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
    # derived from delta alone, so kept on it like its product indexes
    moves, start, final = self.delta._derive(
        "reference successors", lambda: _successor_index(self.delta)
    )
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
