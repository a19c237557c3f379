"""Shared builders and seeded random generators for the test suite."""

from __future__ import annotations

import random
from itertools import product

from rmc import (
    Alphabet,
    Nfa,
    Rts,
    Transducer,
    identity,
    pair,
    relation_to_transducer,
    slice_closure,
    universal_automaton,
)
from rmc.oracle import build_slice

ABC = Alphabet(["a", "b", "c"])
AB = Alphabet(["a", "b"])
A = Alphabet(["a"])


def mk_nfa(alphabet, triples, initial, final, states=None):
    """Build an Nfa from transition triples (src, symbol, dst)."""
    if states is None:
        seen = dict.fromkeys(initial)
        seen.update(dict.fromkeys(final))
        for src, _sym, dst in triples:
            seen.setdefault(src)
            seen.setdefault(dst)
        states = list(seen)
    transitions: dict = {}
    for src, sym, dst in triples:
        transitions.setdefault((src, sym), []).append(dst)
    return Nfa(alphabet, states, transitions, initial, final)


def mk_t(top, bottom, triples, initial, final, states=None):
    """Build a Transducer from triples with 'x/y' labels ('#' for padding)."""
    if states is None:
        seen = dict.fromkeys(initial)
        seen.update(dict.fromkeys(final))
        for src, _lbl, dst in triples:
            seen.setdefault(src)
            seen.setdefault(dst)
        states = list(seen)
    transitions: dict = {}
    for src, label, dst in triples:
        a, b = label.split("/")
        transitions.setdefault((src, pair(a, b)), []).append(dst)
    return Transducer(top, bottom, states, transitions, initial, final)


# a step appends a letter or drops the last one; from ε it can only append
DRIFT = mk_t(
    AB,
    AB,
    [("c", "a/a", "c"), ("c", "b/b", "c"), ("c", "#/a", "g"), ("c", "#/b", "g"),
     ("c", "a/#", "s"), ("c", "b/#", "s")],
    ["c"],
    ["g", "s"],
)


def random_nfa(rng: random.Random, alphabet: Alphabet, max_states: int = 12) -> Nfa:
    n = rng.randint(1, max_states)
    states = list(range(n))
    transitions: dict = {}
    density = rng.uniform(0.1, 0.9)
    for q, sym in product(states, alphabet.symbols):
        dsts = [r for r in states if rng.random() < density / 2]
        if dsts:
            transitions[(q, sym)] = dsts
    initial = rng.sample(states, rng.randint(1, n))
    final = rng.sample(states, rng.randint(0, n))
    return Nfa(alphabet, states, transitions, initial, final)


def random_lp_transducer(
    rng: random.Random, alphabet: Alphabet, max_states: int = 6
) -> Transducer:
    """A random transducer with only letter/letter labels, so it is
    length-preserving and trivially padding-valid."""
    n = rng.randint(1, max_states)
    states = list(range(n))
    transitions: dict = {}
    density = rng.uniform(0.15, 0.7)
    for q in states:
        for a in alphabet.symbols:
            for b in alphabet.symbols:
                dsts = [r for r in states if rng.random() < density / n]
                if dsts:
                    transitions[(q, pair(a, b))] = dsts
    initial = rng.sample(states, rng.randint(1, n))
    final = rng.sample(states, rng.randint(1, n))
    return Transducer(alphabet, alphabet, states, transitions, initial, final)


def random_padded_transducer(
    rng: random.Random, top: Alphabet, bottom: Alphabet, max_states: int = 6
) -> Transducer:
    """A random transducer that may pad either track.

    States carry a phase: phase 0 reads letter/letter pairs and may move
    to phase 1 (top exhausted) or phase 2 (bottom exhausted); the padded
    phases only extend their own padding, which keeps every path valid.
    """
    per_phase = max(1, max_states // 3)
    phase0 = [(0, i) for i in range(rng.randint(1, per_phase))]
    phase1 = [(1, i) for i in range(rng.randint(1, per_phase))]
    phase2 = [(2, i) for i in range(rng.randint(1, per_phase))]
    states = phase0 + phase1 + phase2
    transitions: dict = {}

    def connect(src, label, candidates):
        dsts = [r for r in candidates if rng.random() < 0.4]
        if dsts:
            transitions.setdefault((src, label), []).extend(dsts)

    for q in phase0:
        for a in top.symbols:
            for b in bottom.symbols:
                connect(q, pair(a, b), phase0)
        for b in bottom.symbols:
            connect(q, pair("#", b), phase1)
        for a in top.symbols:
            connect(q, pair(a, "#"), phase2)
    for q in phase1:
        for b in bottom.symbols:
            connect(q, pair("#", b), phase1)
    for q in phase2:
        for a in top.symbols:
            connect(q, pair(a, "#"), phase2)

    initial = rng.sample(phase0, rng.randint(1, len(phase0)))
    final = rng.sample(states, rng.randint(1, len(states)))
    t = Transducer(top, bottom, states, transitions, initial, final)
    t.validate_padding()
    return t


def random_word_nfa(rng: random.Random, alphabet: Alphabet, max_len: int = 4) -> Nfa:
    """A small NFA accepting an explicit random set of short words."""
    count = rng.randint(1, 5)
    words = set()
    for _ in range(count):
        n = rng.randint(1, max_len)
        words.add(tuple(rng.choice(alphabet.symbols) for _ in range(n)))
    return words_nfa(alphabet, words)


def words_nfa(alphabet: Alphabet, words) -> Nfa:
    """Trie-shaped NFA accepting exactly the given words."""
    words = set(words)
    states = [()]
    index = {(): None}
    transitions: dict = {}
    for w in sorted(words):
        for i in range(len(w)):
            prefix, nxt = w[:i], w[: i + 1]
            if nxt not in index:
                index[nxt] = None
                states.append(nxt)
            key = (prefix, w[i])
            if nxt not in transitions.get(key, ()):
                transitions.setdefault(key, []).append(nxt)
    return Nfa(alphabet, states, transitions, [()], [w for w in words])


def random_alphabet(rng: random.Random) -> Alphabet:
    return Alphabet(["a", "b", "c"][: rng.randint(1, 3)])


def random_lp_rts(rng: random.Random, with_reach: bool = True, max_length: int = 4):
    """A random length-preserving system, as (rts, goal); with ``with_reach``
    its exact reach, synthesized from its slices, serves as reach and
    preach.  The slicing draws nothing from ``rng``, so a seed gives the
    same system and goal either way."""
    alphabet = random_alphabet(rng)
    delta = random_lp_transducer(rng, alphabet)
    initial = random_word_nfa(rng, alphabet, max_length)
    goal = random_nfa(rng, alphabet, max_states=4)
    if not with_reach:
        return Rts(initial, delta), goal
    bare = Rts(initial, delta)
    pairs = set()
    for n in range(1, max_length + 1):
        pairs |= slice_closure(build_slice(bare, n))
    reach = relation_to_transducer(alphabet, pairs)
    return Rts(initial, delta, reach=reach, preach=reach), goal


def bounded_lp_universal(alphabet: Alphabet, bound: int) -> Transducer:
    """Every letter/letter pair of length at most ``bound``."""
    states = list(range(bound + 1))
    transitions = {}
    for i in range(bound):
        for a in alphabet.symbols:
            for b in alphabet.symbols:
                transitions[(i, pair(a, b))] = [i + 1]
    return Transducer(alphabet, alphabet, states, transitions, [0], states)


def closure_pairs(delta: Transducer, max_length: int = 4) -> set:
    """The reflexive-transitive closure of ``delta`` over every
    configuration of length 1 to ``max_length``."""
    everyone = Rts(universal_automaton(delta.top), delta)
    pairs = set()
    for n in range(1, max_length + 1):
        pairs |= slice_closure(build_slice(everyone, n))
    return pairs


def bounded_lp_system(rng: random.Random, bound: int = 4):
    """A random length-preserving step relation that stops at length
    ``bound``, with its closure pairs, as (delta, pairs).  The closure
    lifted and joined with the identity is then its exact reach."""
    alphabet = random_alphabet(rng)
    delta = random_lp_transducer(rng, alphabet).intersect(
        bounded_lp_universal(alphabet, bound)
    )
    return delta, closure_pairs(delta, bound)


def lifted(alphabet: Alphabet, pairs) -> Transducer:
    """Explicit closure pairs as a reflexive relation."""
    return relation_to_transducer(alphabet, pairs).union(identity(alphabet))
