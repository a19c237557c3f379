"""Decision procedures on crafted systems plus oracle agreement samples."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rmc import (
    PROPERTIES,
    Alphabet,
    AlphabetMismatch,
    Nfa,
    Outcome,
    RmcError,
    Rts,
    Verdict,
    Witness,
    check_af_bounded,
    check_agf_bounded,
    check_as_f_bounded,
    check_as_gf,
    check_as_termination,
    check_deadlock_freedom,
    check_ef,
    check_egf,
    check_egf_clique,
    check_egf_loop,
    diagonal,
    empty_automaton,
    graph,
    identity,
    identity_on,
    length_automaton,
    load_automaton,
    load_rts_bundle,
    run_check,
    universal,
    universal_automaton,
)
from rmc.oracle import build_slice, oracle_check
from rmc.procedures import _locate, _replay
from support import (
    A,
    AB,
    ABC,
    DRIFT,
    mk_t,
    random_lp_rts,
    random_nfa,
    random_padded_transducer,
    random_word_nfa,
    words_nfa,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "rmc" / "data"
SUCC = mk_t(A, A, [("s", "a/a", "s"), ("s", "#/a", "t")], ["s"], ["t"])
GROW = mk_t(A, A, [("r", "a/a", "r"), ("r", "#/a", "r2"), ("r2", "#/a", "r2")], ["r"], ["r", "r2"])


def succ_rts():
    return Rts(words_nfa(A, {()}), SUCC, reach=GROW, preach=GROW)


def toggle_rts():
    delta = mk_t(AB, AB, [("s", "a/b", "t")], ["s"], ["t"])
    reach = mk_t(
        AB,
        AB,
        [("d", "a/a", "d"), ("d", "b/b", "d"), ("e", "a/b", "f")],
        ["d", "e"],
        ["d", "f"],
    )
    return Rts(words_nfa(AB, {("a",)}), delta, reach=reach, preach=reach)


def test_ef():
    rts = toggle_rts()
    verdict = check_ef(rts, words_nfa(AB, {("b",)}))
    assert verdict.holds
    assert verdict.witness.configurations == (("a",), ("b",))
    assert check_ef(rts, words_nfa(AB, {("b", "b")})).fails


def test_ef_alphabet_guard():
    with pytest.raises(AlphabetMismatch):
        check_ef(toggle_rts(), universal_automaton(ABC))


def test_egf_loop_on_cycle():
    spin = mk_t(AB, AB, [("s", "a/b", "t"), ("s", "b/a", "t")], ["s"], ["t"])
    closure = mk_t(
        AB,
        AB,
        [("d", "a/a", "d"), ("d", "b/b", "d"), ("e", "a/b", "f"), ("e", "b/a", "f")],
        ["d", "e"],
        ["d", "f"],
    )
    rts = Rts(words_nfa(AB, {("a",)}), spin, reach=closure, preach=closure)
    verdict = check_egf_loop(rts, words_nfa(AB, {("b",)}))
    assert verdict.holds
    assert verdict.witness.kind == "lasso"
    assert check_egf(rts, universal_automaton(AB)).holds
    assert check_egf_loop(rts, words_nfa(AB, {("b", "b")})).fails


@pytest.mark.parametrize("k", [8, 12, 16, 20, 40])
def test_egf_loop_intersects_a_goal_it_could_not_determinize(monkeypatch, k):
    """Every word stands still and the goal is "the k-th letter from the
    end is a", whose subset construction has 2^k states.  The cycle route
    only intersects the goal, so under a cap of 1,000 subsets both checks
    answer with the least goal word, which steps to itself."""
    monkeypatch.setenv("RMC_STATE_CAP", "1000")
    transitions = {(0, "a"): (0, 1), (0, "b"): (0,)}
    transitions.update({(i, sym): (i + 1,) for i in range(1, k) for sym in "ab"})
    goal = Nfa(AB, range(k + 1), transitions, [0], [k])
    rts = Rts(universal_automaton(AB), identity(AB), reach=identity(AB))
    for name in ("egf-loop", "egf"):
        verdict = run_check(rts, name, goal)
        assert verdict.holds, name
        assert verdict.witness == Witness("lasso", (("a",) * k,), loop_start=0), name


def test_egf_clique_on_growing_walk():
    rts = succ_rts()
    assert check_egf_loop(rts, universal_automaton(A)).fails
    verdict = check_egf_clique(rts, universal_automaton(A))
    assert verdict.holds
    assert verdict.witness.kind == "clique-prefix"
    configs = verdict.witness.configurations
    assert len(configs) >= 2
    for i in range(len(configs) - 1):
        assert rts.reach.accepts_pair(configs[i], configs[i + 1])
    assert check_egf(rts, universal_automaton(A)).holds


def test_egf_clique_refuses_lp():
    verdict = check_egf_clique(toggle_rts(), universal_automaton(AB))
    assert verdict.fails
    assert "length-preserving" in verdict.note


def test_as_gf_and_termination():
    rts = toggle_rts()
    assert check_as_gf(rts, words_nfa(AB, {("b",)})).fails
    assert check_as_termination(rts).holds
    assert check_deadlock_freedom(rts).fails
    walk = succ_rts()
    assert check_as_gf(walk, universal_automaton(A)).holds
    assert check_as_termination(walk).fails
    assert check_deadlock_freedom(walk).holds


def test_drift_walk_is_not_almost_surely_recurrent():
    """The length walks up with probability 2/3, so a goal of short words
    is visited only finitely often, yet every configuration can reach it."""
    rts = Rts(words_nfa(AB, {()}), DRIFT, reach=universal(AB, AB))
    assert rts.validate().ok
    short = length_automaton(AB, 1, upto=True)
    verdict = check_as_gf(rts, short)
    assert verdict.unknown
    assert "not length-preserving" in verdict.note
    assert check_as_gf(rts, universal_automaton(AB)).holds


def test_drift_walk_with_a_dead_end_may_run_forever():
    """With ε a dead end, a walk from aaa ends with probability only 1/8,
    although every configuration can reach ε.  Reach is exact: ε reaches
    only itself, any other word reaches ε and every word that shares its
    first letter."""
    delta = mk_t(
        AB,
        AB,
        [("i", "a/a", "c"), ("i", "b/b", "c"), ("i", "a/#", "s"), ("i", "b/#", "s"),
         ("c", "a/a", "c"), ("c", "b/b", "c"), ("c", "#/a", "g"), ("c", "#/b", "g"),
         ("c", "a/#", "s"), ("c", "b/#", "s")],
        ["i"],
        ["g", "s"],
    )
    rest = [f"{x}/{y}" for x in "ab" for y in "ab"]
    reach = mk_t(
        AB,
        AB,
        [("i", "a/a", "m"), ("i", "b/b", "m"), ("i", "a/#", "t"), ("i", "b/#", "t")]
        + [("m", label, "m") for label in rest]
        + [(q, f"{x}/#", "t") for q in "mt" for x in "ab"]
        + [(q, f"#/{y}", "u") for q in "mu" for y in "ab"],
        ["i"],
        ["i", "m", "t", "u"],
    )
    rts = Rts(words_nfa(AB, {("a", "a", "a")}), delta, reach=reach)
    assert rts.validate().ok
    verdict = check_as_termination(rts)
    assert verdict.unknown
    assert "not length-preserving" in verdict.note


def test_bounded_procedures():
    rts = toggle_rts()
    goal_b = words_nfa(AB, {("b",)})
    assert check_af_bounded(rts, goal_b).holds
    assert check_agf_bounded(rts, goal_b).holds  # the run is finite
    assert check_as_f_bounded(rts, goal_b).holds

    stay = mk_t(AB, AB, [("s", "a/a", "t")], ["s"], ["t"])
    forever = Rts(words_nfa(AB, {("a",)}), stay)
    verdict = check_af_bounded(forever, goal_b, bound=4)
    assert verdict.fails
    assert verdict.witness.kind == "lasso"
    assert verdict.witness.configurations == (("a",),)
    assert verdict.witness.loop_start == 0
    wide = Rts(universal_automaton(AB), stay)
    unknown = check_agf_bounded(wide, universal_automaton(AB), bound=4)
    assert unknown.unknown
    assert unknown.bound_used == 4


def test_bounded_refuses_growing_systems():
    from rmc import NotLengthPreserving

    with pytest.raises(NotLengthPreserving):
        check_af_bounded(succ_rts(), universal_automaton(A))


def test_bounded_over_slice_cap_is_unknown():
    # all 8**6 words of length 6 are initial, so more than the cap of
    # 200000 configurations are reachable there; no initial word is shorter
    letters = Alphabet(list("abcdefgh"))
    keep = mk_t(letters, letters, [("s", f"{x}/{x}", "s") for x in "abcdefgh"], ["s"], ["s"])
    rts = Rts(length_automaton(letters, 6), keep)
    verdict = check_as_f_bounded(rts, universal_automaton(letters), bound=6)
    assert verdict.unknown
    assert verdict.bound_used == 5
    assert "length 6" in verdict.note and "cap of 200000" in verdict.note


def test_ef_witness_falls_back_to_a_pair_when_reach_claims_too_much():
    # reach also relates a to c, which no step does: the configurations
    # reachable step by step never include c, so the witness is the pair
    delta = mk_t(ABC, ABC, [("s", "a/b", "t")], ["s"], ["t"])
    claims = ("a/a", "b/b", "c/c", "a/b", "a/c")
    reach = mk_t(ABC, ABC, [("s", label, "t") for label in claims], ["s"], ["t"])
    rts = Rts(words_nfa(ABC, {("a",)}), delta, reach=reach, preach=reach)
    verdict = check_ef(rts, words_nfa(ABC, {("c",)}))
    assert verdict.holds
    assert verdict.witness == Witness("pair", (("a",), ("c",)))
    stepwise = check_ef(rts, words_nfa(ABC, {("b",)}))
    assert stepwise.witness == Witness("path", (("a",), ("b",)))


def test_locate_gives_the_slice_search_path():
    """Stopping at the target gives the path a breadth-first search of the
    whole reachable slice gives, for every reachable configuration of
    lengths 1 to 4 of the first 100 criterion-2 systems and lengths 1 to 5
    of the shipped length-preserving bundles."""
    rng = random.Random(2024)
    systems = [(random_lp_rts(rng)[0], 4) for _ in range(100)]
    for bundle in sorted(DATA.iterdir()):
        rts = load_rts_bundle(bundle / "bundle.rts")
        if rts.length_preserving:
            systems.append((rts, 5))
    located = 0
    for rts, longest in systems:
        for n in range(1, longest + 1):
            slice_ = build_slice(rts, n, reachable=True)
            _order, parents = graph.bfs(slice_.edges, slice_.initial)
            for index, target in enumerate(slice_.configurations):
                path = [slice_.configurations[i] for i in graph.path_to(parents, index)]
                assert _locate(rts, target) == Witness("path", tuple(path))
                located += 1
    assert located > 1000


def test_locate_finds_a_path_inside_a_slice_over_the_cap():
    # every word of length 17 over {a, b} is reachable from a^17 by
    # flipping one letter a step, 2^17 configurations in all, more than
    # the witness cap of 65536, so a witness that needs the whole slice is
    # a pair; the target is one step away
    flip = mk_t(
        AB,
        AB,
        [("s", "a/a", "s"), ("s", "b/b", "s"), ("s", "a/b", "t"), ("s", "b/a", "t"),
         ("t", "a/a", "t"), ("t", "b/b", "t")],
        ["s"],
        ["t"],
    )
    start = ("a",) * 17
    rts = Rts(words_nfa(AB, {start}), flip)
    target = ("b",) + start[1:]
    assert _locate(rts, target) == Witness("path", (start, target))


@pytest.mark.parametrize("initial, reach, note", [
    (empty_automaton(A), GROW, "the reachable set is empty"),
    # reach relates only (ε, a) and (a, ε): a is reachable, but no pair
    # of the chain reads a letter on both tracks
    (
        words_nfa(A, {()}),
        mk_t(A, A, [("s", "#/a", "t"), ("s", "a/#", "u")], ["s"], ["t", "u"]),
        "no reachable configuration starts a comb",
    ),
    # ε starts a comb, but the identity never pads its top track
    (words_nfa(A, {()}), identity(A), "no comb of reachable configurations can grow forever"),
])
def test_egf_clique_names_why_no_chain_was_found(initial, reach, note):
    verdict = check_egf_clique(Rts(initial, SUCC, reach=reach), universal_automaton(A))
    assert verdict == Verdict(Outcome.FAILS, note=note)


def test_locate_falls_back_to_a_pair_when_the_witness_slice_is_capped(monkeypatch):
    """Under a witness cap of 4, the slice search stops before it starts
    when more than 4 initial words have the target's length, and as soon
    as a configuration has more than 4 successors."""
    every = mk_t(AB, AB, [("s", f"{x}/{y}", "s") for x in "ab" for y in "ab"], ["s"], ["s"])
    bbb = ("b",) * 3
    many_starts = Rts(length_automaton(AB, 3), identity(AB), reach=identity(AB))
    many_successors = Rts(words_nfa(AB, {("a",) * 3}), every, reach=every)
    goal = words_nfa(AB, {bbb})
    assert check_ef(many_starts, goal).witness == Witness("path", (bbb,))
    assert check_ef(many_successors, goal).witness == Witness("path", (("a",) * 3, bbb))
    monkeypatch.setattr("rmc.procedures._WITNESS_SLICE_CAP", 4)
    assert check_ef(many_starts, goal).witness == Witness("pair", (bbb, bbb))
    assert check_ef(many_successors, goal).witness == Witness("pair", (("a",) * 3, bbb))


def test_run_check_dispatch_and_errors():
    rts = toggle_rts()
    goal_b = words_nfa(AB, {("b",)})
    assert run_check(rts, "ef", goal_b).holds
    assert run_check(rts, "deadlock-free").fails
    assert run_check(rts, "as-term").holds
    with pytest.raises(ValueError):
        run_check(rts, "nonsense")
    with pytest.raises(ValueError):
        run_check(rts, "ef")


def _growing_rts(seed):
    """A seeded random system that may grow or shrink words, with a random
    relation standing in for reach, and a random goal."""
    rng = random.Random(seed)
    alphabet = [A, AB, ABC][rng.randint(0, 2)]
    delta = random_padded_transducer(rng, alphabet, alphabet)
    reach = random_padded_transducer(rng, alphabet, alphabet)
    initial = random_word_nfa(rng, alphabet, 3)
    goal = random_nfa(rng, alphabet, max_states=4)
    return Rts(initial, delta, reach=reach, preach=reach), goal


@pytest.mark.parametrize(
    "seed, configurations",
    [
        (194, ((), ("a",), ("b", "c"), ("b", "c", "c"))),
        (205, (("a", "a", "a"), ("a", "a", "a", "a"), ("a", "a", "a", "a", "a"))),
        (235, ((), ("a",), ("a", "a"), ("a", "a", "a"))),
        (306, (("a", "b"), ("a", "a", "a"), ("a", "a", "a", "b"))),
    ],
)
def test_egf_clique_witness_is_pinned(seed, configurations):
    rts, goal = _growing_rts(seed)
    verdict = check_egf_clique(rts, goal)
    assert verdict.holds
    assert verdict.witness.kind == "clique-prefix"
    assert verdict.witness.configurations == configurations


def test_chain_into_the_goal_is_one_composition():
    """The growth route's chain, R∘id(goal), is the old R ∩ (Σ*×Σ*)∘id(goal)
    and stays padding-valid."""
    nonempty = 0
    for seed in range(400):
        rts, goal = _growing_rts(seed)
        sigma = rts.alphabet
        old = rts.reach.intersect(universal(sigma, sigma).compose(identity_on(goal)))
        chain = rts.reach.compose(identity_on(goal)).trim()
        assert chain.includes(old)[0] and old.includes(chain)[0], seed
        chain.validate_padding()
        nonempty += not chain.is_empty()
    assert nonempty > 100


def test_cycle_test_is_one_intersection():
    """check_egf_loop finds cycles as dom(δ ∩ reach⁻¹); it is the language
    of diagonal(δ∘reach), both being {c : (c, y) in δ and (y, c) in reach
    for some y}, on growing systems and on criterion-2 systems."""
    systems = [_growing_rts(seed)[0] for seed in range(400)]
    rng = random.Random(2024)
    systems += [random_lp_rts(rng)[0] for _ in range(100)]
    nonempty = 0
    for rts in systems:
        by_intersection = rts.delta.intersect(rts.reach.inverse()).project(1)
        by_composition = diagonal(rts.delta.compose(rts.reach))
        assert by_intersection.includes(by_composition)[0]
        assert by_composition.includes(by_intersection)[0]
        nonempty += not by_intersection.is_empty()
    assert nonempty > 100


def _per_length(rts, n):
    return Rts(
        rts.initial.intersect(length_automaton(rts.alphabet, n)),
        rts.delta,
        reach=rts.reach,
        preach=rts.preach,
    )


def test_egf_loop_lasso_is_a_step_then_a_hop_back():
    """A two-configuration loop lasso (c, d) steps from c to d and hops
    back from d to c under the relation."""
    cases = []
    rng = random.Random(2024)
    for _ in range(60):
        rts, goal = random_lp_rts(rng)
        cases += [(_per_length(rts, n), goal) for n in range(1, 5)]
    herman = DATA / "herman-lp"
    rts = load_rts_bundle(herman / "bundle.rts")
    potential = Rts(rts.initial, rts.delta, reach=rts.preach)
    for goal_file in sorted(herman.glob("*.nfa")):
        for system in (rts, potential):
            cases.append((system, load_automaton(goal_file)))
    hops = 0
    for rts, goal in cases:
        verdict = check_egf_loop(rts, goal)
        if not verdict.holds:
            continue
        configurations = verdict.witness.configurations
        if len(configurations) == 1:
            (c,) = configurations
            assert rts.delta.accepts_pair(c, c)
        else:
            c, d = configurations
            assert rts.delta.accepts_pair(c, d)
            assert rts.relation().accepts_pair(d, c)
            hops += 1
    assert hops >= 10


_WITNESS_CORPUS = """
from rmc import run_check
from test_procedures import _growing_rts

for seed in range(170, 201):
    rts, goal = _growing_rts(seed)
    for name in ("ef", "as-gf", "deadlock-free", "egf"):
        print(seed, name, run_check(rts, name, goal=goal))
"""


def test_witnesses_do_not_depend_on_the_hash_seed():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _WITNESS_CORPUS],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in ("0", "3")
    ]
    assert outputs[0] and outputs[0] == outputs[1]


def test_replay_rejects_a_non_step_as_an_rmc_error():
    with pytest.raises(RmcError, match="not a system step"):
        _replay(toggle_rts(), Witness("path", (("a",), ("a",))))


def test_agreement_with_oracle_sample():
    """A light version of the oracle-equivalence suite for quick runs:
    every property with an oracle decider, on each length's slice."""
    rng = random.Random(71)
    for _ in range(25):
        rts, goal = random_lp_rts(rng, max_length=3)
        for n in range(1, 4):
            sliced = build_slice(rts, n)
            per_length = _per_length(rts, n)
            for name, prop in PROPERTIES.items():
                if prop.oracle is None:
                    continue
                wanted = goal if prop.needs_goal else None
                verdict = run_check(per_length, name, wanted)
                assert verdict.holds == oracle_check(sliced, prop.oracle, wanted)[0], (name, n)
