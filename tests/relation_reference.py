"""The closure lift as it was written before it became one depth-first
walk over a trie of symbol pairs, kept verbatim as the reference that
``tests/test_oracle.py`` compares :func:`rmc.relation_to_transducer` with.

It builds one convolution per pair, sorts them, inserts them into a trie
in that order and merges equal residuals deepest first.
"""

from __future__ import annotations

from typing import Iterable

from rmc.alphabet import Alphabet, Word, convolve
from rmc.errors import NotLengthPreserving
from rmc.transducer import Transducer


def relation_to_transducer(
    alphabet: Alphabet, pairs: Iterable[tuple[Word, Word]]
) -> Transducer:
    """Lift a finite set of equal-length word pairs into a transducer.

    Builds a trie over the convolutions and then merges states with equal
    residuals bottom-up, so large explicitly computed closures stay
    manageable.  Accepts exactly the given pairs.
    """
    convs = []
    for x, y in pairs:
        if len(x) != len(y):
            raise NotLengthPreserving(
                f"pair lengths differ: {len(x)} vs {len(y)}"
            )
        alphabet.check_word(x)
        alphabet.check_word(y)
        convs.append(convolve(x, y))
    convs.sort()

    children: list[dict] = [{}]
    accepting: list[bool] = [False]
    depth: list[int] = [0]
    for conv in convs:
        node = 0
        for sym in conv:
            nxt = children[node].get(sym)
            if nxt is None:
                nxt = len(children)
                children.append({})
                accepting.append(False)
                depth.append(depth[node] + 1)
                children[node][sym] = nxt
            node = nxt
        accepting[node] = True

    # merge equal residuals, deepest first
    canon: dict = {}
    rep: list[int] = [0] * len(children)
    for node in sorted(range(len(children)), key=depth.__getitem__, reverse=True):
        signature = (
            accepting[node],
            tuple(sorted(
                ((sym, rep[child]) for sym, child in children[node].items()),
                key=lambda kv: (kv[0].top, kv[0].bottom, kv[1]),
            )),
        )
        rep[node] = canon.setdefault(signature, node)

    states = sorted({rep[n] for n in range(len(children))})
    transitions: dict = {}
    for node in states:
        for sym, child in children[node].items():
            transitions.setdefault((node, sym), set()).add(rep[child])
    transitions = {k: tuple(v) for k, v in transitions.items()}
    result = Transducer(
        alphabet,
        alphabet,
        tuple(states),
        transitions,
        [rep[0]],
        [n for n in states if accepting[n]],
    )
    return result.trim()
