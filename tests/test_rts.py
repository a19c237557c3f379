"""System container: relations, reachable sets, successors, validation."""

import itertools
import random
from pathlib import Path

import pytest

import successors_reference
from rmc import (
    Alphabet,
    AlphabetMismatch,
    CheckResult,
    MissingRelation,
    Rts,
    StateCapExceeded,
    SuccessorCapExceeded,
    Transducer,
    identity,
    load_rts_bundle,
    universal_automaton,
    word_automaton,
)
from rmc import oracle
from rmc import rts as rts_module
from rmc.rts import Stepper
from support import (
    A,
    AB,
    ABC,
    bounded_lp_system,
    lifted,
    mk_t,
    random_lp_transducer,
    random_alphabet,
    random_padded_transducer,
    random_word_nfa,
    words_nfa,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "rmc" / "data"

# a* -> shift the single marked cell right: ab -> ba is NOT in it, this
# moves a single b marker right through a field of a's.
SHIFT = mk_t(
    AB,
    AB,
    [
        ("l", "a/a", "l"),
        ("l", "b/a", "m"),
        ("m", "a/b", "r"),
        ("r", "a/a", "r"),
    ],
    ["l"],
    ["r"],
)


def shift_rts():
    initial = words_nfa(AB, {("b", "a", "a")})
    return Rts(initial, SHIFT)


def test_alphabet_guards():
    with pytest.raises(AlphabetMismatch):
        Rts(words_nfa(A, {("a",)}), SHIFT)
    mixed = mk_t(AB, A, [("s", "a/a", "s")], ["s"], ["s"])
    with pytest.raises(AlphabetMismatch):
        Rts(words_nfa(A, {("a",)}), mixed)


@pytest.mark.parametrize("relation", ["reach", "preach"])
def test_relations_must_be_over_the_step_alphabet(relation):
    with pytest.raises(AlphabetMismatch, match=f"^{relation} relation alphabet differs"):
        Rts(words_nfa(AB, {("a",)}), SHIFT, **{relation: identity(A)})


def test_validate_reports_a_step_relation_that_resumes_a_padded_track():
    # #/a then a/a reads a top letter after the top track has ended
    resumed = mk_t(A, A, [("s", "#/a", "t"), ("t", "a/a", "t")], ["s"], ["t"])
    report = Rts(words_nfa(A, {("a",)}), resumed).validate()
    assert report.checks == (CheckResult("delta-padding", False),)


def test_relation_selection():
    rts = shift_rts()
    with pytest.raises(MissingRelation):
        rts.relation()
    with_reach = Rts(rts.initial, rts.delta, reach=identity(AB))
    assert with_reach.relation() is with_reach.reach


def test_successors_ordering_and_cap():
    rts = shift_rts()
    words, truncated = rts.successors(("b", "a", "a"))
    assert words == (("a", "b", "a"),)
    assert not truncated
    words, truncated = rts.successors(("a", "a", "b"))
    assert words == ()
    # a padded bottom track gives a shorter successor, (#, b) moves after
    # the top track a longer one
    grow = load_rts_bundle(DATA / "herman-grow" / "bundle.rts")
    words, truncated = grow.successors(tuple("⟨ • • ◦ ⟩".split()))
    assert [" ".join(w) for w in words] == [
        "⟨ • • ⟩",
        "⟨ • ◦ • ⟩",
        "⟨ • ◦ ◦ ⟩",
        "⟨ ◦ • ◦ ⟩",
        "⟨ • • ◦ ◦ ⟩",
    ]
    assert not truncated
    assert grow.successors(tuple("⟨ • • ◦ ⟩".split()), cap=4) == (words[:4], True)
    # not padding-valid: a (#, a) loop whose state accepts only after a/a,
    # which no successor can read, must not keep the run going
    stuck = Rts(
        words_nfa(A, {("a",)}),
        mk_t(A, A, [("s", "a/a", "f"), ("s", "#/a", "g"), ("g", "#/a", "g"), ("g", "a/a", "f")],
             ["s"], ["f"]),
    )
    assert stuck.successors(("a",)) == ((("a",),), False)
    assert stuck.successors(()) == ((), False)
    noisy = Rts(
        words_nfa(AB, {("a",)}),
        mk_t(AB, AB, [("s", "a/a", "t"), ("s", "a/b", "t")], ["s"], ["t"]),
    )
    words, truncated = noisy.successors(("a",), cap=1)
    assert truncated and len(words) == 1
    # a keeps its a and appends any nonempty word: more successors than any cap
    append_any = Rts(
        words_nfa(AB, {("a",)}),
        mk_t(AB, AB, [("s", "a/a", "t"), ("t", "#/a", "t"), ("t", "#/b", "t")], ["s"], ["t"]),
    )
    with pytest.raises(SuccessorCapExceeded):
        from rmc.oracle import SimulationConfig, simulate

        simulate(append_any, ("a",), SimulationConfig(runs=1, max_steps=2))


def _image_systems():
    """120 seeded step relations over AB, every other one padded."""
    rng = random.Random(505)
    for i in range(120):
        if i % 2:
            yield random_padded_transducer(rng, AB, AB)
        else:
            yield random_lp_transducer(rng, AB)


_SHORT_CONFIGS = [c for n in range(6) for c in itertools.product(AB.symbols, repeat=n)]


def test_successors_match_the_post_image():
    # the direct run against the image of the one-word language, with caps
    # small enough to truncate
    for delta in _image_systems():
        rts = Rts(universal_automaton(AB), delta)
        for config in _SHORT_CONFIGS:
            image = delta.post_image(word_automaton(AB, config))
            for cap in (1, 3, 50):
                words, truncated = image.enumerate_words(cap)
                assert rts.successors(config, cap) == (tuple(words), truncated)


def _walked(monkeypatch, rts, start, config):
    """The configurations a ``simulate`` walk steps, in the order it steps them."""
    stepped = []

    class Recording(Stepper):
        __slots__ = ()

        def __call__(self, word, cap=None):
            stepped.append(word)
            return super().__call__(word, cap)

    with monkeypatch.context() as patched:
        patched.setattr(oracle, "Stepper", Recording)
        oracle.simulate(rts, start, config)
    return stepped


def test_one_stepper_steps_a_walk_as_the_reference_does(monkeypatch):
    # a stepper keeps the levels of the prefixes it has read and the words
    # it has decoded: whatever came before, every answer is the one-shot one
    rng = random.Random(2727)
    cases = [
        (Rts(universal_automaton(AB), delta), _SHORT_CONFIGS, (1, 3, 50))
        for delta in _image_systems()
    ]
    walks = [("herman-grow", "⟨••◦⟩", 40), ("succ-walk", "a", 12)]
    for name, start, steps in walks:
        rts = load_rts_bundle(DATA / name / "bundle.rts")
        config = oracle.SimulationConfig(runs=20, max_steps=steps, seed=3)
        configs = _walked(monkeypatch, rts, tuple(start), config)
        assert len(set(configs)) == len(configs) >= steps
        cases.append((rts, configs, (1, 3, None)))
    for rts, configs, caps in cases:
        stepper = Stepper(rts)
        for _ in range(2):
            asked = [(config, cap) for config in configs for cap in caps]
            rng.shuffle(asked)
            for config, cap in asked:
                expected = successors_reference.successors(rts, config, cap)
                assert stepper(config, cap) == expected, (config, cap)


def _loose_transducer(rng: random.Random, alphabet: Alphabet) -> Transducer:
    """A random transducer that may pad either track anywhere, so that it
    is seldom padding-valid."""
    symbols = (*alphabet.symbols, "#")
    states = list(range(rng.randint(1, 4)))
    triples = [
        (q, f"{x}/{y}", r)
        for q in states for x in symbols for y in symbols for r in states
        if (x, y) != ("#", "#") and rng.random() < 0.15
    ]
    final = rng.sample(states, rng.randint(1, len(states)))
    return mk_t(alphabet, alphabet, triples, [0], final, states)


def _successor_corpus():
    """The shipped bundles' step relations, then 150 seeded random ones,
    every other one padded, and 40 that need not be padding-valid, each
    with the longest word it is run on and its caps.  A padded relation
    may list thousands of successors, so only the length-preserving ones
    also run under the default cap."""
    small = (0, 1, 2, 5, 50)
    for name in sorted(p.name for p in DATA.iterdir()):
        yield load_rts_bundle(DATA / name / "bundle.rts").delta, 4, (*small, None)
    rng = random.Random(7)
    for i in range(150):
        alphabet = random_alphabet(rng)
        if i % 2:
            yield random_padded_transducer(rng, alphabet, alphabet), 5, small
        else:
            yield random_lp_transducer(rng, alphabet), 4, (*small, None)
    for _ in range(40):
        yield _loose_transducer(rng, random_alphabet(rng)), 4, small


def test_successors_are_the_reference_successors():
    for delta, longest, caps in _successor_corpus():
        rts = Rts(universal_automaton(delta.top), delta)
        for n in range(longest + 1):
            for config in itertools.product(delta.top.symbols, repeat=n):
                for cap in caps:
                    expected = successors_reference.successors(rts, config, cap)
                    assert rts.successors(config, cap) == expected, (config, cap)


def test_successors_over_more_symbols_than_a_byte_holds():
    # each symbol of a code then takes two bytes: a step shifts every
    # symbol up by one and may append s0 or s299
    many = Alphabet([f"s{i}" for i in range(300)])
    shift = [("p", f"s{i}/s{(i + 1) % 300}", "p") for i in range(300)]
    grow = [("p", "#/s299", "g"), ("p", "#/s0", "g")]
    rts = Rts(universal_automaton(many), mk_t(many, many, shift + grow, ["p"], ["p", "g"]))
    for config in [(), ("s0",), ("s255", "s299", "s5")]:
        words, truncated = rts.successors(config)
        assert (words, truncated) == successors_reference.successors(rts, config)
        assert len(words) == 3 and not truncated
    assert rts.successors(("s255",))[0] == (("s256",), ("s256", "s0"), ("s256", "s299"))


def test_reachable_set_and_terminating():
    reach = mk_t(
        AB,
        AB,
        [
            ("i", "a/a", "i"),
            ("i", "b/b", "i"),
            ("i", "b/a", "j"),
            ("j", "a/a", "j"),
            ("j", "a/b", "k"),
            ("j", "a/a", "k"),
            ("k", "a/a", "k"),
        ],
        ["i"],
        ["i", "k"],
    )
    rts = Rts(shift_rts().initial, SHIFT, reach=reach)
    reachable = rts.reachable_set()
    assert reachable.accepts(("b", "a", "a"))
    assert reachable.accepts(("a", "b", "a"))
    assert reachable.accepts(("a", "a", "b"))
    assert not reachable.accepts(("b", "b", "a"))
    halted = rts.terminating()
    assert halted.accepts(("a", "a", "b"))
    assert halted.accepts(("a",))
    assert not halted.accepts(("b", "a"))
    # derived from delta alone, so built once for every system on it
    assert shift_rts().terminating() is halted
    assert shift_rts().delta.lazy_domain() is rts.delta.lazy_domain()


def test_validate_flags_missing_identity():
    rts = Rts(shift_rts().initial, SHIFT, reach=SHIFT)
    report = rts.validate()
    assert not report.ok
    names = {c.name for c in report.failed}
    assert "identity-within-reach" in names


def test_validate_passes_on_identity_closure():
    # For a delta with no steps at all, the identity is a correct reach.
    empty_delta = mk_t(AB, AB, [("s", "a/a", "s")], ["s"], [])
    rts = Rts(universal_automaton(AB), empty_delta, reach=identity(AB))
    assert rts.validate().ok


def test_validate_flags_reach_not_closed_under_delta():
    # a -> b -> c on one-letter words: identity plus single steps misses the
    # pair (a, c), and a reachability check trusting it would miss c
    delta = mk_t(ABC, ABC, [("s", "a/b", "t"), ("s", "b/c", "t")], ["s"], ["t"])
    rts = Rts(words_nfa(ABC, {("a",)}), delta, reach=identity(ABC).union(delta))
    report = rts.validate()
    assert [c.name for c in report.failed] == ["reach-closed-under-delta"]
    assert report.failed[0].counterexample == (("a",), ("c",))


def _chain():
    """a -> b -> c on one-letter words."""
    return mk_t(ABC, ABC, [("s", "a/b", "t"), ("s", "b/c", "t")], ["s"], ["t"])


def test_a_validation_report_is_kept_on_delta(monkeypatch):
    """The report derives from delta, reach and preach alone, so it is kept
    on delta by the other two: a system with another initial language
    reads it without a search, another preach gets its own, and checks
    that meet the state cap keep nothing."""
    searches = []
    checks = rts_module.inclusion_checks
    monkeypatch.setattr(rts_module, "inclusion_checks", lambda relation, named: (
        searches.append(relation) or checks(relation, named)
    ))
    monkeypatch.delenv("RMC_STATE_CAP", raising=False)
    delta = _chain()
    reach = identity(ABC).union(delta)
    report = Rts(words_nfa(ABC, {("a",)}), delta, reach=reach).validate()
    assert Rts(universal_automaton(ABC), delta, reach=reach).validate() is report
    assert delta._derived["validation", reach, None] is report and not report.ok
    assert len(searches) == 1
    other = Rts(universal_automaton(ABC), delta, reach=reach, preach=reach).validate()
    assert other is not report and len(searches) == 2

    capped = Rts(universal_automaton(ABC), _chain(), reach=reach)
    monkeypatch.setenv("RMC_STATE_CAP", "1")
    for _ in range(2):
        with pytest.raises(StateCapExceeded):
            capped.validate()
    assert ("validation", reach, None) not in capped.delta._derived
    monkeypatch.delenv("RMC_STATE_CAP")
    assert capped.validate() == report and len(searches) == 5


def test_validate_rejects_reach_missing_one_pair():
    """Exact reach relations validate, and each loses that on losing any
    one pair (x, y) with x != y.  Take a shortest path from x to y: if it
    is one step, delta-within-reach fails; otherwise reach still holds x
    with the configuration before y, so reach-closed-under-delta fails."""
    rng = random.Random(41)
    removals = 0
    for _ in range(12):
        delta, pairs = bounded_lp_system(rng)
        initial = random_word_nfa(rng, delta.top, 4)
        assert Rts(initial, delta, reach=lifted(delta.top, pairs)).validate().ok
        steps = sorted((x, y) for x, y in pairs if x != y)
        for x, y in rng.sample(steps, min(6, len(steps))):
            reach = lifted(delta.top, pairs - {(x, y)})
            failed = {c.name for c in Rts(initial, delta, reach=reach).validate().failed}
            if delta.accepts_pair(x, y):
                assert "delta-within-reach" in failed
            else:
                assert "reach-closed-under-delta" in failed
            removals += 1
    assert removals >= 30


def test_validate_lets_internal_errors_through(monkeypatch):
    def broken(self):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(Transducer, "validate_padding", broken)
    with pytest.raises(RuntimeError, match="internal fault"):
        shift_rts().validate()
