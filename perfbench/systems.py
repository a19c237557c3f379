"""Seeded random length-preserving systems for the symbolic-random workload.

The distribution is the one the acceptance suite's oracle-equivalence
criterion draws from: alphabets of one to three letters, letter-to-letter
step transducers with up to six states, initial languages of one to five
words of length one to four, goals with up to four states, and an exact
``reach`` synthesised from the closure of every slice up to length four.
Draws consume the random stream in the same order as the suite's
generator, so a stream seeded alike yields the same systems.  Only the
public ``rmc`` API is used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

import rmc

LETTERS = ("a", "b", "c")
MAX_LENGTH = 4


@dataclass(frozen=True)
class System:
    initial: "rmc.Nfa"
    delta: "rmc.Transducer"
    reach: "rmc.Transducer"
    goal: "rmc.Nfa"
    #: ``slices[n - 1]`` is the explicit slice of length ``n``.
    slices: tuple

    @property
    def alphabet(self) -> "rmc.Alphabet":
        return self.delta.top


def _step_transducer(rng: random.Random, alphabet) -> "rmc.Transducer":
    n = rng.randint(1, 6)
    states = list(range(n))
    density = rng.uniform(0.15, 0.7)
    transitions: dict = {}
    for q in states:
        for a in alphabet.symbols:
            for b in alphabet.symbols:
                dsts = [r for r in states if rng.random() < density / n]
                if dsts:
                    transitions[(q, rmc.pair(a, b))] = dsts
    initial = rng.sample(states, rng.randint(1, n))
    final = rng.sample(states, rng.randint(1, n))
    return rmc.Transducer(alphabet, alphabet, states, transitions, initial, final)


def _initial_language(rng: random.Random, alphabet) -> "rmc.Nfa":
    """A trie accepting one to five random words of length 1..MAX_LENGTH."""
    words = set()
    for _ in range(rng.randint(1, 5)):
        length = rng.randint(1, MAX_LENGTH)
        words.add(tuple(rng.choice(alphabet.symbols) for _ in range(length)))
    states = {(): None}
    transitions: dict = {}
    for word in sorted(words):
        for i in range(len(word)):
            states.setdefault(word[: i + 1])
            dsts = transitions.setdefault((word[:i], word[i]), [])
            if word[: i + 1] not in dsts:
                dsts.append(word[: i + 1])
    return rmc.Nfa(alphabet, list(states), transitions, [()], words)


def _goal(rng: random.Random, alphabet) -> "rmc.Nfa":
    n = rng.randint(1, 4)
    states = list(range(n))
    density = rng.uniform(0.1, 0.9)
    transitions: dict = {}
    for q, sym in product(states, alphabet.symbols):
        dsts = [r for r in states if rng.random() < density / 2]
        if dsts:
            transitions[(q, sym)] = dsts
    initial = rng.sample(states, rng.randint(1, n))
    final = rng.sample(states, rng.randint(0, n))
    return rmc.Nfa(alphabet, states, transitions, initial, final)


def draw_system(rng: random.Random) -> System:
    alphabet = rmc.Alphabet(LETTERS[: rng.randint(1, 3)])
    delta = _step_transducer(rng, alphabet)
    initial = _initial_language(rng, alphabet)
    bare = rmc.Rts(initial, delta)
    slices = tuple(rmc.build_slice(bare, n) for n in range(1, MAX_LENGTH + 1))
    pairs: set = set()
    for slice_ in slices:
        pairs |= rmc.slice_closure(slice_)
    reach = rmc.relation_to_transducer(alphabet, pairs)
    goal = _goal(rng, alphabet)
    return System(initial, delta, reach, goal, slices)


def draw_systems(rng: random.Random, count: int) -> list[System]:
    return [draw_system(rng) for _ in range(count)]
