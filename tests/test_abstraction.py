import random
from collections import Counter
from itertools import product

import pytest

from rmc import (
    PROPERTIES,
    AlphabetMismatch,
    Alphabet,
    DeterminismViolation,
    Interpretation,
    MissingRelation,
    Outcome,
    Rts,
    abstract_as_liveness,
    abstract_liveness,
    abstract_safety,
    abstract_sure_termination,
    certify_unreachable,
    constraint_set,
    exists_infinite_potential_run,
    identity,
    is_inductive,
    length_automaton,
    relation_to_transducer,
    run_check,
    separates,
    slice_closure,
    universal,
    universal_automaton,
    validate_preach,
)
from rmc import abstraction
from rmc.oracle import build_slice, oracle_check
from support import (
    AB,
    ABC,
    DRIFT,
    bounded_lp_system,
    closure_pairs,
    lifted,
    mk_t,
    random_lp_rts,
    random_nfa,
    random_word_nfa,
    words_nfa,
)

C = Alphabet(["c"])


def toggle_rts(preach=None):
    delta = mk_t(AB, AB, [("s", "a/b", "t")], ["s"], ["t"])
    closure = mk_t(
        AB,
        AB,
        [("d", "a/a", "d"), ("d", "b/b", "d"), ("e", "a/b", "f")],
        ["d", "e"],
        ["d", "f"],
    )
    if preach is None:
        preach = closure
    return Rts(words_nfa(AB, {("a",)}), delta, reach=closure, preach=preach)


def spin_rts():
    delta = mk_t(AB, AB, [("s", "a/b", "t"), ("s", "b/a", "t")], ["s"], ["t"])
    closure = mk_t(
        AB,
        AB,
        [("d", "a/a", "d"), ("d", "b/b", "d"), ("e", "a/b", "f"), ("e", "b/a", "f")],
        ["d", "e"],
        ["d", "f"],
    )
    return Rts(words_nfa(AB, {("a",)}), delta, reach=closure, preach=closure)


def any_cells():
    """Constraint c^n stands for every configuration of length n."""
    return Interpretation(
        mk_t(C, AB, [("m", "c/a", "m"), ("m", "c/b", "m")], ["m"], ["m"])
    )


def only(letter):
    """Constraint c^n stands for the single configuration letter^n."""
    t = mk_t(C, AB, [("m", f"c/{letter}", "m")], ["m"], ["m"])
    return Interpretation(t)


def test_interpretation_rejects_nondeterminism():
    with pytest.raises(DeterminismViolation):
        Interpretation(
            mk_t(C, AB, [("m", "c/a", "m"), ("m", "c/a", "n")], ["m"], ["m", "n"])
        )


def test_constraint_set():
    sets = constraint_set(any_cells(), ("c", "c"))
    assert sets.accepts(("a", "b"))
    assert sets.accepts(("b", "b"))
    assert not sets.accepts(("a",))
    empty_constraint = constraint_set(any_cells(), ())
    assert empty_constraint.accepts(())


def test_is_inductive():
    rts = toggle_rts()
    ok, cex = is_inductive(rts, any_cells(), ("c",))
    assert ok and cex is None
    ok, cex = is_inductive(rts, only("a"), ("c",))
    assert not ok
    assert cex == (("a",), ("b",))
    # nothing steps out of {b}: the toggle only fires on a
    assert is_inductive(rts, only("b"), ("c",))[0]


def test_separates():
    interp = only("b")
    assert separates(interp, ("c",), ("b",), ("a",))
    assert not separates(interp, ("c",), ("a",), ("b",))
    assert not separates(interp, ("c",), ("b",), ("b",))


def test_certify_unreachable():
    rts = toggle_rts()
    assert certify_unreachable(rts, only("b"), ("c",), ("b",), ("a",))
    # {a} is not inductive, so it certifies nothing
    assert not certify_unreachable(rts, only("a"), ("c",), ("a",), ("b",))


def test_certified_pairs_agree_with_search():
    rng = random.Random(404)
    certified = 0
    for _ in range(40):
        rts, _goal = random_lp_rts(rng, max_length=3)
        interp = Interpretation(identity(rts.alphabet))
        for n in range(1, 3):
            sliced = build_slice(rts, n)
            closure = {
                (sliced.configurations[i], sliced.configurations[j])
                for i in range(len(sliced.configurations))
                for j in range(len(sliced.configurations))
            }
            reachable_pairs = slice_closure(sliced)
            for source, target in sorted(closure - reachable_pairs)[:3]:
                if certify_unreachable(rts, interp, source, source, target):
                    certified += 1
                    assert (source, target) not in reachable_pairs
    assert certified > 0


def test_validate_preach():
    report = validate_preach(toggle_rts())
    assert report.ok
    assert [c.name for c in report.checks] == [
        "identity-within-preach",
        "delta-within-preach",
        "preach-transitive",
    ]

    report = validate_preach(toggle_rts(preach=identity(AB)))
    assert not report.ok
    failed = {c.name: c for c in report.failed}
    assert failed.keys() == {"delta-within-preach"}
    assert failed["delta-within-preach"].counterexample == (("a",), ("b",))

    with pytest.raises(MissingRelation):
        validate_preach(Rts(words_nfa(AB, {("a",)}), toggle_rts().delta))


def test_a_preach_report_is_kept_on_delta(monkeypatch):
    """validate_preach keeps its report on delta by preach, as
    Rts.validate keeps its own: another initial language or reach reads
    it without a search."""
    searches = []
    checks = abstraction.inclusion_checks
    monkeypatch.setattr(abstraction, "inclusion_checks", lambda relation, named: (
        searches.append(relation) or checks(relation, named)
    ))
    rts = toggle_rts()
    report = validate_preach(rts)
    again = validate_preach(Rts(universal_automaton(AB), rts.delta, preach=rts.preach))
    assert again is report and len(searches) == 1
    assert rts.delta._derived["preach-validation", rts.preach] is report
    assert validate_preach(Rts(rts.initial, rts.delta, preach=identity(AB))) is not report
    assert len(searches) == 2


def test_abstract_safety():
    rts = toggle_rts()
    verdict = abstract_safety(rts, words_nfa(AB, {("b", "b")}))
    assert verdict.holds
    verdict = abstract_safety(rts, words_nfa(AB, {("b",)}))
    assert verdict.fails
    assert verdict.witness.kind == "path"
    assert verdict.witness.configurations[-1] == ("b",)
    with pytest.raises(AlphabetMismatch):
        abstract_safety(rts, words_nfa(ABC, {("c",)}))


def test_abstract_sure_termination():
    assert exists_infinite_potential_run(toggle_rts()).fails
    assert abstract_sure_termination(toggle_rts()).holds
    verdict = abstract_sure_termination(spin_rts())
    assert verdict.fails
    assert "infinite potential run" in verdict.note
    assert verdict.witness is not None


def test_sure_termination_needs_a_real_step_on_the_cycle():
    """preach relates a and c both ways, but no step leaves c and the one
    step from a leads to the dead end b, so no potential run is endless."""
    delta = mk_t(ABC, ABC, [("s", "a/b", "t")], ["s"], ["t"])
    hops = [("e", f"{x}/{y}", "f") for x, y in ("ab", "ac", "ca", "cb")]
    same = [("d", f"{x}/{x}", "d") for x in "abc"]
    preach = mk_t(ABC, ABC, same + hops, ["d", "e"], ["d", "f"])
    rts = Rts(words_nfa(ABC, {("a",)}), delta, preach=preach)
    assert validate_preach(rts).ok
    verdict = abstract_sure_termination(rts)
    assert verdict.holds, verdict.note


def test_abstract_liveness():
    assert abstract_liveness(spin_rts(), words_nfa(AB, {("b",)})).holds
    assert abstract_liveness(toggle_rts(), words_nfa(AB, {("b",)})).fails


def test_abstract_as_liveness():
    goal, pre = words_nfa(AB, {("b",)}), words_nfa(AB, {("a",), ("b",)})
    verdict = abstract_as_liveness(spin_rts(), goal, pre)
    assert verdict.holds

    verdict = abstract_as_liveness(toggle_rts(), goal, pre)
    assert verdict.fails
    assert verdict.note.startswith("abstraction inconclusive")
    assert verdict.witness.configurations[-1] == ("b",)


def test_abstract_as_liveness_on_a_drift_walk_is_unknown():
    """Every word can step and reach the goal of short words, but the
    length walks up with probability 2/3 and leaves the goal behind."""
    rts = Rts(words_nfa(AB, {()}), DRIFT, preach=universal(AB, AB))
    assert validate_preach(rts).ok
    verdict = abstract_as_liveness(
        rts, length_automaton(AB, 1, upto=True), universal_automaton(AB)
    )
    assert verdict.unknown
    assert "not length-preserving" in verdict.note


def test_abstract_as_liveness_matches_oracle():
    """When the certificate succeeds the exhaustive answer must agree."""
    rng = random.Random(19)
    confirmed = 0
    for _ in range(30):
        rts, goal = random_lp_rts(rng, max_length=3)
        pre = rts.relation().pre_image(goal)
        verdict = abstract_as_liveness(rts, goal, pre)
        if not verdict.holds:
            continue
        for n in range(1, 4):
            sliced = build_slice(rts, n)
            assert oracle_check(sliced, "ASGF", goal)[0]
            confirmed += 1
    assert confirmed > 0


def _extra_step(rng, initial, pairs):
    """A step, absent from the closure ``pairs``, out of a reachable
    configuration, or None when the closure already holds every pair."""
    symbols = initial.alphabet.symbols
    reachable = sorted({y for x, y in pairs if initial.accepts(x)})
    missing = [
        (x, y)
        for x in reachable
        for y in product(symbols, repeat=len(x))
        if (x, y) not in pairs
    ]
    if not missing:
        return None
    return relation_to_transducer(initial.alphabet, {rng.choice(missing)})


def test_coarser_preach_leaves_checks_alone_and_abstracts_soundly():
    """With preach the closure of delta plus one extra step, every check
    answers as it does with preach = reach, and each abstract answer that
    speaks of the concrete system agrees with explicit search."""
    rng = random.Random(10)
    seen = Counter()
    for _ in range(50):
        delta, pairs = bounded_lp_system(rng)
        alphabet = delta.top
        initial = random_word_nfa(rng, alphabet, 4)
        goal = random_nfa(rng, alphabet, max_states=4)
        extra = _extra_step(rng, initial, pairs)
        if extra is None:
            continue
        reach = lifted(alphabet, pairs)
        exact = Rts(initial, delta, reach=reach, preach=reach)
        preach = lifted(alphabet, closure_pairs(delta.union(extra)))
        rts = Rts(initial, delta, reach=reach, preach=preach)
        assert rts.validate().ok and validate_preach(rts).ok
        assert not reach.includes(preach)[0]

        for name, prop in PROPERTIES.items():
            wanted = goal if prop.needs_goal else None
            assert run_check(rts, name, wanted) == run_check(exact, name, wanted)

        slices = [build_slice(rts, n) for n in range(1, 5)]

        def oracle(prop, language):
            return [oracle_check(sliced, prop, language)[0] for sliced in slices]

        pre = reach.pre_image(goal)
        modes = {
            "safety": lambda system: abstract_safety(system, goal),
            "liveness": lambda system: abstract_liveness(system, goal),
            "sure-term": abstract_sure_termination,
            "as-liveness": lambda system: abstract_as_liveness(system, goal, pre),
        }
        verdicts = {mode: run(rts) for mode, run in modes.items()}
        if verdicts["safety"].holds:
            assert not any(oracle("EF", goal))
        if verdicts["liveness"].fails:
            assert not any(oracle("EGF", goal))
        if verdicts["sure-term"].holds:
            assert not any(oracle("EGF", universal_automaton(alphabet)))
        if verdicts["as-liveness"].holds:
            assert all(oracle("ASGF", goal))
        for mode, verdict in verdicts.items():
            seen[mode, verdict.outcome] += 1
            if verdict.outcome != modes[mode](exact).outcome:
                seen[mode, "changed"] += 1
    for mode, sound in (
        ("safety", Outcome.HOLDS),
        ("liveness", Outcome.FAILS),
        ("sure-term", Outcome.HOLDS),
        ("as-liveness", Outcome.HOLDS),
    ):
        assert seen[mode, sound] and seen[mode, "changed"], (mode, seen)
