"""Kernel operations checked against brute-force word enumeration."""

import random
from itertools import product
from pathlib import Path

import pytest

import rmc
from rmc import (
    AlphabetMismatch,
    Nfa,
    RmcError,
    StateCapExceeded,
    SymbolNotInAlphabet,
    empty_automaton,
    length_automaton,
    load_automaton,
    load_rts_bundle,
    universal_automaton,
    word_automaton,
)
from rmc.nfa import start_pairs

import walks_reference
from support import A, AB, ABC, mk_nfa, random_nfa, random_padded_transducer, words_nfa


def all_words(alphabet, up_to):
    for n in range(up_to + 1):
        yield from product(alphabet.symbols, repeat=n)


def language(nfa, up_to=4):
    return {w for w in all_words(nfa.alphabet, up_to) if nfa.accepts(w)}


def test_accepts_basic():
    nfa = mk_nfa(AB, [("p", "a", "q"), ("q", "b", "q")], ["p"], ["q"])
    assert nfa.accepts(("a",))
    assert nfa.accepts(("a", "b", "b"))
    assert not nfa.accepts(())
    assert not nfa.accepts(("b",))
    with pytest.raises(SymbolNotInAlphabet):
        nfa.accepts(("z",))


def test_constructor_rejects_unknown_states():
    with pytest.raises(ValueError):
        Nfa(AB, ["p"], {("p", "a"): ("q",)}, ["p"], ["p"])
    with pytest.raises(ValueError):
        Nfa(AB, ["p"], {}, ["missing"], [])
    with pytest.raises(ValueError):
        Nfa(AB, ["p", "p"], {}, ["p"], [])


def test_union_intersect_complement_semantics():
    rng = random.Random(7)
    for _ in range(40):
        a = random_nfa(rng, AB, max_states=5)
        b = random_nfa(rng, AB, max_states=5)
        union = language(a) | language(b)
        inter = language(a) & language(b)
        assert language(a.union(b)) == union
        assert language(a.intersect(b)) == inter
        comp = a.complement()
        assert language(comp) == {w for w in all_words(AB, 4)} - language(a)


def test_state_bounds():
    rng = random.Random(11)
    for _ in range(40):
        a = random_nfa(rng, ABC, max_states=8)
        b = random_nfa(rng, ABC, max_states=8)
        assert len(a.union(b).states) <= len(a.states) + len(b.states)
        assert len(a.intersect(b).states) <= len(a.states) * len(b.states)
        assert len(a.complement().states) <= 2 ** len(a.states)


def test_alphabet_mismatch_raises():
    a = universal_automaton(AB)
    b = universal_automaton(ABC)
    with pytest.raises(AlphabetMismatch):
        a.union(b)
    with pytest.raises(AlphabetMismatch):
        a.intersect(b)


def test_complement_cap():
    # A classic exponential case: second symbol from the end is an a.
    nfa = mk_nfa(
        AB,
        [("s", "a", "s"), ("s", "b", "s"), ("s", "a", "t"), ("t", "a", "u"), ("t", "b", "u")],
        ["s"],
        ["u"],
    )
    with pytest.raises(StateCapExceeded):
        nfa.complement(cap=2)
    assert not nfa.complement().accepts(("a", "b"))
    assert nfa.complement().accepts(("b", "a"))


@pytest.mark.parametrize("value", ["lots", "0", "-3"])
def test_state_cap_variable_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("RMC_STATE_CAP", value)
    with pytest.raises(RmcError, match="RMC_STATE_CAP"):
        words_nfa(AB, {("a",)}).shortest_word()


def test_includes_finds_shortest_counterexample():
    small = words_nfa(AB, {("a",), ("a", "b")})
    big = words_nfa(AB, {("a",), ("a", "b"), ("b",)})
    ok, cex = big.includes(small)
    assert ok and cex is None
    ok, cex = small.includes(big)
    assert not ok
    assert cex == ("b",)


def test_includes_random_agreement():
    rng = random.Random(23)
    for _ in range(30):
        a = random_nfa(rng, AB, max_states=5)
        b = random_nfa(rng, AB, max_states=5)
        ok, cex = a.includes(b)
        if ok:
            assert language(b) <= language(a)
        else:
            assert b.accepts(cex) and not a.accepts(cex)


def test_shortest_word_order():
    nfa = words_nfa(ABC, {("b",), ("a", "c"), ("a", "a")})
    assert nfa.shortest_word() == ("b",)
    tie = words_nfa(ABC, {("b", "a"), ("a", "c")})
    # Same length: alphabet order breaks the tie.
    assert tie.shortest_word() == ("a", "c")
    assert empty_automaton(ABC).shortest_word() is None


def test_shortest_word_ignores_state_order():
    # the state listed first reaches the final state only by the larger letter
    nfa = mk_nfa(AB, [("p", "b", "f"), ("q", "a", "f")], ["p", "q"], ["f"])
    assert nfa.shortest_word() == ("a",)
    deeper = mk_nfa(
        AB,
        [("s", "a", "p"), ("s", "a", "q"), ("p", "b", "f"), ("q", "a", "f")],
        ["s"],
        ["f"],
        states=["s", "p", "q", "f"],
    )
    assert deeper.shortest_word() == ("a", "a")
    assert universal_automaton(AB).includes(deeper) == (True, None)
    assert nfa.includes(deeper) == (False, ("a", "a"))


def test_search_laws_on_random_automata():
    rng = random.Random(31)
    for _ in range(200):
        alphabet = rng.choice([AB, ABC])
        a = random_nfa(rng, alphabet, max_states=5)
        b = random_nfa(rng, alphabet, max_states=5)
        least, _truncated = b.enumerate_words(1)
        assert b.shortest_word() == (least[0] if least else None)
        ok, cex = a.includes(b)
        missing = [w for w in all_words(alphabet, 4) if b.accepts(w) and not a.accepts(w)]
        if missing:
            assert cex == missing[0]
        else:
            assert ok or len(cex) > 4
        complement = a.complement()
        for w in all_words(alphabet, 4):
            assert complement.accepts(w) != a.accepts(w)


def test_enumerate_words():
    nfa = words_nfa(AB, {(), ("b",), ("a", "a")})
    words, truncated = nfa.enumerate_words(10)
    assert words == [(), ("b",), ("a", "a")]
    assert not truncated
    words, truncated = universal_automaton(AB).enumerate_words(4)
    assert truncated
    assert words == [(), ("a",), ("b",), ("a", "a")]


def test_count_words():
    rng = random.Random(5)
    for _ in range(100):
        nfa = random_nfa(rng, rng.choice([AB, ABC]), max_states=5)
        accepted = language(nfa, 4)
        for n in range(5):
            assert nfa.count_words(n) == sum(len(w) == n for w in accepted)
    assert universal_automaton(AB).count_words(40) == 2**40


def test_words_of_length_lists_what_the_length_product_enumerates():
    """The depth-first listing against the reference it replaced: the
    product with the length-n automaton, enumerated breadth first."""
    rng = random.Random(13)
    drawn = [random_nfa(rng, rng.choice([AB, ABC]), max_states=6) for _ in range(100)]
    data = Path(rmc.__file__).resolve().parent / "data"
    shipped = [load_automaton(path) for path in sorted(data.glob("*/*.nfa"))]
    assert shipped
    for nfa, lengths in [(d, range(6)) for d in drawn] + [(s, range(7)) for s in shipped]:
        for n in lengths:
            count = nfa.count_words(n)
            same_length = nfa.intersect(length_automaton(nfa.alphabet, n))
            assert nfa.words_of_length(n, count) == same_length.enumerate_words(count)[0]
            if count:
                assert nfa.words_of_length(n, count - 1) is None


def _walk_cases() -> list:
    """Seeded random automata over AB and ABC, every other one with an
    unreachable state and a dead one added, every shipped ``.nfa`` and
    each shipped bundle's trimmed initial language."""
    rng = random.Random(2525)
    cases = []
    for i in range(80):
        nfa = random_nfa(rng, rng.choice([AB, ABC]), max_states=6)
        if i % 2:
            first, sym = min(nfa.initial), rng.choice(nfa.alphabet.symbols)
            transitions = dict(nfa.transitions)
            transitions[(first, sym)] = transitions.get((first, sym), ()) + ("dead",)
            transitions[("dead", sym)] = ("dead",)
            transitions[("unreachable", sym)] = (first,)
            nfa = Nfa(nfa.alphabet, (*nfa.states, "dead", "unreachable"), transitions,
                      nfa.initial, nfa.final | {"unreachable"})
        cases.append(nfa)
    data = Path(rmc.__file__).resolve().parent / "data"
    cases += [load_automaton(path) for path in sorted(data.glob("*/*.nfa"))]
    cases += [load_rts_bundle(path).initial.trim() for path in sorted(data.glob("*/bundle.rts"))]
    assert sum(len(nfa.initial) > 1 for nfa in cases) > 10
    return cases


def test_walks_are_the_reference_walks():
    """``accepts``, ``enumerate_words``, ``count_words`` and
    ``words_of_length`` give what the label-keyed subset walks of
    ``walks_reference`` give: every word up to length 5, enumeration
    limits 0, 1, 5 and 50, and lengths 0 to 6 with limits count - 1 and
    count."""
    listed = 0
    for nfa in _walk_cases():
        for word in all_words(nfa.alphabet, 5):
            assert nfa.accepts(word) == walks_reference.accepts(nfa, word), (nfa, word)
        for limit in (0, 1, 5, 50):
            assert nfa.enumerate_words(limit) == walks_reference.enumerate_words(nfa, limit)
        for n in range(7):
            count = walks_reference.count_words(nfa, n)
            assert nfa.count_words(n) == count
            for limit in (count - 1, count):
                expected = walks_reference.words_of_length(nfa, n, limit)
                assert nfa.words_of_length(n, limit) == expected, (nfa, n, limit)
                listed += len(expected or ())
    assert listed > 10000


def test_trim_preserves_language():
    rng = random.Random(3)
    for _ in range(30):
        nfa = random_nfa(rng, AB, max_states=6)
        trimmed = nfa.trim()
        assert language(trimmed) == language(nfa)
        assert len(trimmed.states) <= len(nfa.states)


def test_word_length_universal_helpers():
    w = word_automaton(ABC, ("a", "c"))
    assert language(w) == {("a", "c")}
    assert language(length_automaton(AB, 2)) == {p for p in all_words(AB, 2) if len(p) == 2}
    assert language(length_automaton(AB, 2, upto=True)) == {
        p for p in all_words(AB, 2)
    }
    assert empty_automaton(AB).is_empty()
    assert not universal_automaton(AB).is_empty()


def test_is_deterministic():
    det = mk_nfa(AB, [("p", "a", "q"), ("p", "b", "p")], ["p"], ["q"])
    assert det.is_deterministic()
    nondet = mk_nfa(AB, [("p", "a", "q"), ("p", "a", "p")], ["p"], ["q"])
    assert not nondet.is_deterministic()
    two_initial = mk_nfa(AB, [("p", "a", "q")], ["p", "q"], ["q"])
    assert not two_initial.is_deterministic()


def _pair_queue_intersect(x, y):
    """The reference intersection: a breadth-first queue of the state
    pairs both operands reach by one symbol, dead pairs kept."""
    start = start_pairs(x, y)
    order = list(start)
    transitions: dict = {}
    for p, q in order:
        for sym in x.alphabet.symbols:
            targets = [
                (p2, q2)
                for p2 in x.transitions.get((p, sym), ())
                for q2 in y.transitions.get((q, sym), ())
            ]
            if targets:
                transitions[((p, q), sym)] = targets
                order += [pair for pair in dict.fromkeys(targets) if pair not in order]
    final = [(p, q) for p, q in order if p in x.final and q in y.final]
    return x._make(order, transitions, start, final)


def _intersection_cases():
    """Random NFA pairs over A, AB and ABC, random NFAs with a length
    automaton, and random transducers with their inverses."""
    rng = random.Random(71)
    for alphabet in (A, AB, ABC):
        for _ in range(100):
            yield random_nfa(rng, alphabet, max_states=6), random_nfa(rng, alphabet, max_states=6)
            nfa = random_nfa(rng, alphabet, max_states=6)
            yield nfa, length_automaton(alphabet, rng.randint(0, 4))
            t = random_padded_transducer(rng, alphabet, alphabet)
            yield t, t.inverse()


def test_search_view_is_built_once():
    """Every search reads an automaton through one view, kept on it."""
    a = random_nfa(random.Random(5), AB, max_states=4)
    assert a._view() is a._view()
    t = random_padded_transducer(random.Random(5), AB, AB)
    assert t._view() is t._view()


def test_intersect_is_the_trimmed_pair_product():
    """Same states in the same order, same transitions, initial and final
    states as the pair-queue product trimmed, so every witness read off
    an intersection stays the same; only dead pairs go."""
    trimmed = 0
    for x, y in _intersection_cases():
        reference = _pair_queue_intersect(x, y)
        assert x.intersect(y) == reference.trim()
        trimmed += len(reference.states) != len(reference.trim().states)
    assert trimmed > 100


def test_intersect_drops_a_dead_pair():
    x = mk_nfa(AB, [("p", "a", "q"), ("p", "b", "r"), ("r", "a", "r")], ["p"], ["q"])
    product = x.intersect(universal_automaton(AB))
    assert product.states == (("p", 0), ("q", 0))
    assert product.transitions == {(("p", 0), "a"): (("q", 0),)}
    assert (product.initial, product.final) == ({("p", 0)}, {("q", 0)})
    assert len(_pair_queue_intersect(x, universal_automaton(AB)).states) == 3
