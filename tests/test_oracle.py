"""Explicit-state oracle: slices, property answers, closures, walks."""

import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relation_reference
from rmc import (
    Alphabet,
    CapExceeded,
    NotLengthPreserving,
    PairSymbol,
    Rts,
    SimulationConfig,
    SimulationStats,
    SymbolNotInAlphabet,
    Witness,
    load_automaton,
    load_rts_bundle,
    simulate,
    slice_closure,
    relation_to_transducer,
)
from rmc.oracle import PROPERTIES, build_slice, dump_slice, oracle_check
from support import (
    AB,
    mk_t,
    random_alphabet,
    random_lp_rts,
    random_lp_transducer,
    random_nfa,
    words_nfa,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "rmc" / "data"

# a <-> b, with c a dead end reachable from b.
SPIN = mk_t(
    AB, AB, [("s", "a/b", "t"), ("s", "b/a", "t")], ["s"], ["t"]
)


def spin_rts():
    return Rts(words_nfa(AB, {("a",)}), SPIN)


def goal(symbol):
    return words_nfa(AB, {(symbol,)})


def test_build_slice_shape():
    slice_ = build_slice(spin_rts(), 1)
    assert slice_.length == 1
    assert slice_.configurations == (("a",), ("b",))
    assert slice_.edges == ((1,), (0,))
    assert sorted(slice_.initial) == [0]
    assert len(slice_.sccs) == 1
    assert slice_.bottom_sccs == {0}


def test_build_slice_guards():
    non_lp = Rts(
        words_nfa(AB, {("a",)}),
        mk_t(AB, AB, [("s", "a/a", "s"), ("s", "#/a", "t")], ["s"], ["t"]),
    )
    with pytest.raises(NotLengthPreserving):
        build_slice(non_lp, 1)
    with pytest.raises(CapExceeded):
        build_slice(spin_rts(), 30)


def test_reachable_slice_is_the_reachable_part_of_the_full_slice():
    # seed 88 draws systems whose bottom components come out of Tarjan's
    # search in a different order once unreachable configurations are gone
    rng = random.Random(88)
    for _ in range(60):
        alphabet = random_alphabet(rng)
        delta = random_lp_transducer(rng, alphabet)
        initial = random_nfa(rng, alphabet, max_states=4)
        rts = Rts(initial, delta)
        goal_ = random_nfa(rng, alphabet, max_states=4)
        for n in range(5):
            full = build_slice(rts, n)
            part = build_slice(rts, n, reachable=True)
            kept = [i for i, c in enumerate(full.configurations) if c in part.index]
            assert part.configurations == tuple(full.configurations[i] for i in kept)
            assert part.edges == tuple(
                tuple(part.index[full.configurations[j]] for j in full.edges[i])
                for i in kept
            )
            assert part.initial == {part.index[full.configurations[i]] for i in full.initial}
            for name in PROPERTIES:
                g = None if name in ("AST", "DF") else goal_
                assert oracle_check(part, name, g) == oracle_check(full, name, g), (n, name)


def test_bottom_scc_counterexamples_ignore_unreachable_configurations():
    # a b steps into the loops on b a and on b b; a a, which no run
    # visits, also steps to b b, so a search of the whole slice meets
    # b b's component first
    steps = [("ab", "ba"), ("ab", "bb"), ("ba", "ba"), ("bb", "bb"), ("aa", "bb")]
    delta = relation_to_transducer(AB, {(tuple(x), tuple(y)) for x, y in steps})
    rts = Rts(words_nfa(AB, {("a", "b")}), delta)
    shortest_then_least = Witness("path", (("a", "b"), ("b", "a")))
    for slice_ in (build_slice(rts, 2), build_slice(rts, 2, reachable=True)):
        assert oracle_check(slice_, "AST") == (False, shortest_then_least)
        assert oracle_check(slice_, "ASGF", words_nfa(AB, set())) == (False, shortest_then_least)


def test_reachable_slice_cap_counts_reachable_configurations():
    # from a, both a and b are reachable on the spin
    assert len(build_slice(spin_rts(), 1, config_cap=2, reachable=True).configurations) == 2
    with pytest.raises(CapExceeded, match="cap of 1 reachable"):
        build_slice(spin_rts(), 1, config_cap=1, reachable=True)
    assert build_slice(spin_rts(), 30, reachable=True).configurations == ()
    assert ("c",) not in build_slice(spin_rts(), 1).index


def test_oracle_answers_on_spin():
    slice_ = build_slice(spin_rts(), 1)
    assert oracle_check(slice_, "EF", goal("b")) == (
        True,
        oracle_check(slice_, "EF", goal("b"))[1],
    )
    holds, witness = oracle_check(slice_, "EGF", goal("a"))
    assert holds
    assert witness.kind == "lasso"
    assert witness.configurations[witness.loop_start :] in ((("a",), ("b",)), (("b",), ("a",)))
    assert oracle_check(slice_, "AF", goal("b"))[0]
    assert oracle_check(slice_, "AGF", goal("b"))[0]
    assert oracle_check(slice_, "ASF", goal("b"))[0]
    assert oracle_check(slice_, "ASGF", goal("b"))[0]
    assert not oracle_check(slice_, "AST")[0]
    assert oracle_check(slice_, "DF")[0]


def test_oracle_unknown_property():
    slice_ = build_slice(spin_rts(), 1)
    with pytest.raises(ValueError):
        oracle_check(slice_, "XYZ")
    for name in PROPERTIES:
        if name in ("AST", "DF"):
            continue
        assert oracle_check(slice_, name, goal("a"))[0] in (True, False)


def test_af_counterexample_replays():
    # a -> a keeps spinning without ever visiting b.
    stay = mk_t(AB, AB, [("s", "a/a", "t")], ["s"], ["t"])
    rts = Rts(words_nfa(AB, {("a",)}), stay)
    slice_ = build_slice(rts, 1)
    holds, witness = oracle_check(slice_, "AF", goal("b"))
    assert not holds
    assert witness.kind == "lasso"
    assert witness.configurations == (("a",),)
    assert witness.loop_start == 0


def test_lasso_convention_last_steps_back():
    """The last lasso configuration steps back to loop_start; the loop
    head is not repeated at the end."""
    rts = spin_rts()
    slice_ = build_slice(rts, 1)
    _holds, witness = oracle_check(slice_, "EGF", goal("a"))
    configs = witness.configurations
    for i in range(len(configs) - 1):
        assert rts.delta.accepts_pair(configs[i], configs[i + 1])
    assert rts.delta.accepts_pair(configs[-1], configs[witness.loop_start])
    assert configs[-1] != configs[witness.loop_start]


def _replays(slice_, witness) -> bool:
    """Does ``witness`` start initial and take slice edges only, a lasso
    stepping from its last configuration back to ``loop_start``?"""
    nodes = [slice_.index[c] for c in witness.configurations]
    steps = list(zip(nodes, nodes[1:]))
    if witness.kind == "lasso":
        steps.append((nodes[-1], nodes[witness.loop_start]))
    return nodes[0] in slice_.initial and all(w in slice_.edges[v] for v, w in steps)


# the sha256 of every (property, answer, witness) the test below meets
_WITNESS_DIGEST = "1076720e8aebce12061d7bf4761f95acd491c4f3b9f9180e87fdbfd60cfcd1f5"


def test_oracle_witnesses_replay_and_are_pinned():
    """Every oracle witness is a run of its slice that shows its answer,
    and every answer and witness is pinned: over a seeded stream of
    systems, full and reachable slices of lengths 1-4, and herman-lp's
    one-token goal at lengths 4-7."""
    rng = random.Random(97)
    cases = []
    for _ in range(100):
        rts, goal_ = random_lp_rts(rng)
        for n in range(1, 5):
            cases += [(build_slice(rts, n), goal_), (build_slice(rts, n, reachable=True), goal_)]
    herman = DATA / "herman-lp"
    rts = load_rts_bundle(herman / "bundle.rts")
    one_token = load_automaton(herman / "one-token.nfa")
    cases += [(build_slice(rts, n, reachable=True), one_token) for n in range(4, 8)]
    digest = hashlib.sha256()
    for slice_, goal_ in cases:
        for name in PROPERTIES:
            g = None if name in ("AST", "DF") else goal_
            answer, witness = oracle_check(slice_, name, g)
            digest.update(f"{name} {answer} {witness}\n".encode())
            if witness is None:
                continue
            assert _replays(slice_, witness), (name, witness)
            configs = witness.configurations
            if name == "EF":
                assert g.accepts(configs[-1])
            elif name == "EGF":
                assert g.accepts(configs[witness.loop_start])
            elif name in ("AF", "ASF"):
                assert not any(g.accepts(c) for c in configs)
            elif name == "AGF":
                assert not any(g.accepts(c) for c in configs[witness.loop_start :])
    assert digest.hexdigest() == _WITNESS_DIGEST


@pytest.mark.parametrize(
    "seed, count, max_length", [(61, 20, 3), (67, 15, 3), (31, 10, 3), (2525, 60, 4)]
)
def test_random_systems_are_the_same_without_reach(seed, count, max_length):
    """``random_lp_rts`` draws the same system and goal, and leaves its
    generator in the same state, whether or not it synthesizes reach: the
    seeded streams of the tests that skip reach are the ones they had when
    the helper built it and threw it away."""
    bare_rng, full_rng = random.Random(seed), random.Random(seed)
    for _ in range(count):
        bare, bare_goal = random_lp_rts(bare_rng, with_reach=False, max_length=max_length)
        full, full_goal = random_lp_rts(full_rng, max_length=max_length)
        assert (bare.initial, bare.delta, bare.reach) == (full.initial, full.delta, None)
        assert bare_goal == full_goal
        assert bare_rng.getstate() == full_rng.getstate()


def test_slice_closure_laws():
    rng = random.Random(61)
    for _ in range(20):
        rts, _goal = random_lp_rts(rng, with_reach=False, max_length=3)
        slice_ = build_slice(rts, 2)
        closure = slice_closure(slice_)
        configs = slice_.configurations
        for i, c in enumerate(configs):
            assert (c, c) in closure
            for j in slice_.edges[i]:
                assert (c, configs[j]) in closure
        # Transitivity.
        by_src = {}
        for x, y in closure:
            by_src.setdefault(x, set()).add(y)
        for x, ys in by_src.items():
            for y in ys:
                assert by_src.get(y, set()) <= ys


def test_relation_roundtrip():
    rng = random.Random(67)
    for _ in range(15):
        rts, _goal = random_lp_rts(rng, with_reach=False, max_length=3)
        slice_ = build_slice(rts, 2)
        closure = slice_closure(slice_)
        lifted = relation_to_transducer(rts.alphabet, closure)
        for x in slice_.configurations:
            for y in slice_.configurations:
                assert lifted.accepts_pair(x, y) == ((x, y) in closure)
        # Nothing outside the given length sneaks in.
        assert not lifted.accepts_pair((), ())
        one = slice_.configurations[0][:1]
        assert not lifted.accepts_pair(one, one)


# "b" before "a" is not string order; "◦x" and "•" are more than one byte,
# and "a" is a prefix of "ab"
LIFT_ALPHABETS = [AB, Alphabet(["b", "a"]), Alphabet(["•", "◦x", "a", "ab"])]


def _random_pairs(rng, alphabet, count):
    """``count`` seeded pairs of equal-length words of lengths 0-5."""
    pairs = []
    for _ in range(count):
        n = rng.randint(0, 5)
        pairs.append(tuple(
            tuple(rng.choice(alphabet.symbols) for _ in range(n)) for _ in range(2)
        ))
    return pairs


def _same_lift(alphabet, pairs):
    """The lift equals the reference lift of ``tests/relation_reference.py``:
    equal states, initial and final states, and transitions, in the same
    order and on PairSymbol labels."""
    lifted = relation_to_transducer(alphabet, pairs)
    expected = relation_reference.relation_to_transducer(alphabet, pairs)
    assert lifted == expected, pairs
    assert list(lifted.transitions) == list(expected.transitions)
    assert all(type(sym) is PairSymbol for _q, sym in lifted.transitions)


@pytest.mark.parametrize("alphabet", LIFT_ALPHABETS, ids=lambda a: " ".join(a.symbols))
def test_lift_is_the_reference_lift(alphabet):
    """On the empty relation, the empty pair alone, and seeded sets of
    pairs of lengths 0-5, given as a set and as a list with repeats."""
    rng = random.Random(29)
    _same_lift(alphabet, set())
    _same_lift(alphabet, {((), ())})
    for _ in range(40):
        pairs = _random_pairs(rng, alphabet, rng.randint(1, 60))
        _same_lift(alphabet, set(pairs))
        _same_lift(alphabet, pairs + pairs[: rng.randint(0, len(pairs))])


def test_lift_of_slice_closures_is_the_reference_lift():
    rng = random.Random(31)
    for _ in range(10):
        rts, _goal = random_lp_rts(rng, with_reach=False, max_length=3)
        closure = set()
        for n in range(4):
            closure |= slice_closure(build_slice(rts, n))
        _same_lift(rts.alphabet, closure)


def _lift_error(lift, pairs):
    try:
        lift(AB, pairs)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _unknown(sym):
    return SymbolNotInAlphabet, f"symbol {sym!r} not in alphabet ('a', 'b')"


@pytest.mark.parametrize(
    "pairs, expected",
    [
        # a length error comes before a symbol error in the same pair
        (
            [(("a",), ("a",)), (("c",), ("a", "c"))],
            (NotLengthPreserving, "pair lengths differ: 1 vs 2"),
        ),
        # a bad x before a bad y
        ([(("a", "c"), ("d", "a"))], _unknown("c")),
        ([(("a", "b"), ("d", "a"))], _unknown("d")),
        # the first bad pair decides, whatever comes later
        ([(("a",), ("c",)), ((), ("a",))], _unknown("c")),
        ([((), ("a",)), (("a",), ("c",))], (NotLengthPreserving, "pair lengths differ: 0 vs 1")),
    ],
)
def test_lift_refuses_the_first_bad_pair_as_the_reference_does(pairs, expected):
    assert _lift_error(relation_to_transducer, pairs) == expected
    assert _lift_error(relation_reference.relation_to_transducer, pairs) == expected


def test_dump_slice_mentions_everything():
    text = dump_slice(build_slice(spin_rts(), 1))
    assert "length: 1" in text
    assert "0: a -> 1" in text
    assert "bottom-scc: 0 1" in text


def test_simulation_deterministic_and_exact():
    rts = spin_rts()
    config = SimulationConfig(runs=64, max_steps=9, seed=5)
    stats = simulate(rts, ("a",), config, goal=goal("b"))
    again = simulate(rts, ("a",), config, goal=goal("b"))
    assert stats == again
    assert stats.goal_hit_frequency == 1.0
    assert stats.termination_frequency == 0.0
    assert stats.mean_steps_to_absorption is None

    # One step to the absorbing b under the one-shot system.
    once = mk_t(AB, AB, [("s", "a/b", "t")], ["s"], ["t"])
    stats = simulate(
        Rts(words_nfa(AB, {("a",)}), once), ("a",), SimulationConfig(runs=10, seed=1)
    )
    assert stats.termination_frequency == 1.0
    assert stats.mean_steps_to_absorption == 1.0


def test_simulation_goal_none():
    stats = simulate(spin_rts(), ("a",), SimulationConfig(runs=3, max_steps=4))
    assert stats.goal_hit_frequency is None


def one_rts(alphabet, triples):
    """The system whose one-letter word ``a`` steps by ``triples``."""
    return Rts(words_nfa(alphabet, {("a",)}), mk_t(alphabet, alphabet, triples, ["s"], ["t"]))


def test_simulation_draws_successors_uniformly():
    # a steps to one of three dead ends, b among them
    abcd = Alphabet(["a", "b", "c", "d"])
    rts = one_rts(abcd, [("s", "a/b", "t"), ("s", "a/c", "t"), ("s", "a/d", "t")])
    runs = 30_000
    stats = simulate(
        rts, ("a",), SimulationConfig(runs=runs, max_steps=5, seed=11),
        goal=words_nfa(abcd, {("b",)}),
    )
    standard_error = math.sqrt(1 / 3 * 2 / 3 / runs)
    assert abs(stats.goal_hit_frequency - 1 / 3) < 4 * standard_error
    assert stats.termination_frequency == 1.0
    assert stats.mean_steps_to_absorption == 1.0
    # among five or seven dead ends, the first and the last are each drawn
    # a 1/degree share of the time
    for degree in (5, 7):
        alphabet = Alphabet(["a", *"bcdefgh"[:degree]])
        ends = alphabet.symbols[1:]
        rts = one_rts(alphabet, [("s", f"a/{x}", "t") for x in ends])
        standard_error = math.sqrt(1 / degree * (1 - 1 / degree) / runs)
        for seed, end in enumerate((ends[0], ends[-1])):
            stats = simulate(
                rts, ("a",), SimulationConfig(runs=runs, max_steps=2, seed=seed),
                goal=words_nfa(alphabet, {(end,)}),
            )
            assert abs(stats.goal_hit_frequency - 1 / degree) < 4 * standard_error
            assert stats.termination_frequency == 1.0


def _hit_within(rts, goal, config, steps, memo):
    """The chance that a uniform walk from ``config`` meets ``goal`` within
    ``steps`` moves, stopping at a configuration without successors."""
    key = (config, steps)
    if key not in memo:
        successors, truncated = rts.successors(config)
        assert not truncated
        if goal.accepts(config):
            memo[key] = 1.0
        elif steps == 0 or not successors:
            memo[key] = 0.0
        else:
            memo[key] = sum(
                _hit_within(rts, goal, s, steps - 1, memo) for s in successors
            ) / len(successors)
    return memo[key]


def test_simulation_goal_hit_matches_the_exact_chance():
    # herman-grow's ring grows and shrinks, so its walks meet many
    # configurations of different degrees within five moves
    data = DATA / "herman-grow"
    rts, goal = load_rts_bundle(data / "bundle.rts"), load_automaton(data / "one-token.nfa")
    start = tuple("⟨••◦⟩")
    exact = _hit_within(rts, goal, start, 5, {})
    assert 0.05 < exact < 0.95
    runs = 20_000
    stats = simulate(rts, start, SimulationConfig(runs=runs, max_steps=5, seed=4), goal=goal)
    assert abs(stats.goal_hit_frequency - exact) < 4 * math.sqrt(exact * (1 - exact) / runs)


@pytest.mark.parametrize(
    "bundle, start, runs, steps, hits",
    [
        ("herman-grow", "⟨••◦⟩", 20, 5, (0.9, 0.75, 0.85)),
        ("herman-lp", "⟨••••••••⟩", 100, 20, (0.14, 0.16, 0.18)),
    ],
)
def test_short_walks_give_their_recorded_statistics(bundle, start, runs, steps, hits):
    # walks too short to meet the goal whatever is drawn, so their
    # statistics depend on which walks are taken: recorded when each
    # configuration was stepped afresh
    data = DATA / bundle
    rts, goal = load_rts_bundle(data / "bundle.rts"), load_automaton(data / "one-token.nfa")
    for seed, hit in enumerate(hits):
        config = SimulationConfig(runs=runs, max_steps=steps, seed=seed)
        stats = simulate(rts, tuple(start), config, goal=goal)
        assert stats == SimulationStats(runs, hit, 0.0, None), seed


class _CraftedDraws:
    """A generator whose draws are given: each call to ``integers`` takes
    the next entry of ``draws`` and records the size it was asked for."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.sizes = []

    def integers(self, low, high, size, dtype):
        self.sizes.append(size)
        return np.array(self.draws.pop(0), dtype=dtype).reshape(size)


def test_simulation_redraws_a_pick_past_the_last_successor(monkeypatch):
    # 2**62 = 3 * (2**62 // 3) + 1, so the draw 2**62 - 1 picks 3 at
    # degree 3: rejected, and redrawn until the pick is below 3
    span = 2**62
    assert (span - 1) // (span // 3) == 3
    abcd = Alphabet(["a", "b", "c", "d"])
    rts = one_rts(abcd, [("s", "a/b", "t"), ("s", "a/c", "t"), ("s", "a/d", "t")])
    crafted = _CraftedDraws([[[span - 1], [0], [0]], [span - 1], [2 * (span // 3)]])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: crafted)
    stats = simulate(
        rts, ("a",), SimulationConfig(runs=1, max_steps=3), goal=words_nfa(abcd, {("d",)})
    )
    # one block of three steps for the one run, then two redraws of its pick
    assert crafted.sizes == [(3, 1), 1, 1]
    assert stats == SimulationStats(1, 1.0, 1.0, 1.0)


class _DrawsFrom:
    """A generator whose blocks are successive rows of ``draws``, a row
    per step and a column per run."""

    def __init__(self, draws):
        self.draws = draws
        self.row = 0

    def integers(self, low, high, size, dtype):
        rows, runs = size
        assert runs == self.draws.shape[1]
        self.row += rows
        return self.draws[self.row - rows : self.row].astype(dtype)


@pytest.mark.parametrize("runs", [2, 40_000])
def test_simulation_run_keeps_its_column_when_others_are_absorbed(monkeypatch, runs):
    # a steps to the dead end d or to e, and e to the dead ends f or g.
    # Run 0 draws d and is absorbed; every other run draws e, then g from
    # its own column, where column 0 would give f.  Two runs share one
    # block; 40,000 runs take a block per step.
    adefg = Alphabet(["a", "d", "e", "f", "g"])
    rts = one_rts(adefg, [("s", label, "t") for label in ("a/d", "a/e", "e/f", "e/g")])
    draws = np.full((3, runs), 2**61, dtype=np.int64)
    draws[:, 0] = 0
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _DrawsFrom(draws))
    stats = simulate(
        rts, ("a",), SimulationConfig(runs=runs, max_steps=3), goal=words_nfa(adefg, {("g",)})
    )
    assert stats == SimulationStats(runs, (runs - 1) / runs, 1.0, (1 + 2 * (runs - 1)) / runs)


def test_simulation_absorption_time_is_geometric():
    # a stays or falls into the dead end b with equal odds: the number of
    # moves until b is geometric with mean 2 and variance 2.  With 40,000
    # runs a block of draws holds one step, so absorbed runs leave every
    # block and every step starts a new one.
    rts = one_rts(AB, [("s", "a/a", "t"), ("s", "a/b", "t")])
    for runs in (20_000, 40_000):
        stats = simulate(rts, ("a",), SimulationConfig(runs=runs, max_steps=200, seed=12))
        assert stats.termination_frequency == 1.0
        assert abs(stats.mean_steps_to_absorption - 2) < 4 * math.sqrt(2 / runs)


def test_simulation_absorbs_only_within_the_step_bound():
    # the one-shot a -> b reaches the dead end b after one move, but a run
    # is absorbed only when it is at b with a step still to take
    rts = one_rts(AB, [("s", "a/b", "t")])
    short = simulate(rts, ("a",), SimulationConfig(runs=5, max_steps=1))
    assert short.termination_frequency == 0.0
    assert short.mean_steps_to_absorption is None
    enough = simulate(rts, ("a",), SimulationConfig(runs=5, max_steps=2))
    assert enough.termination_frequency == 1.0
    assert enough.mean_steps_to_absorption == 1.0


@pytest.mark.parametrize("runs, max_steps", [(0, 5), (-1, 5), (3, -1)])
def test_simulation_rejects_empty_or_negative_bounds(runs, max_steps):
    with pytest.raises(ValueError, match="runs >= 1 and max_steps >= 0"):
        simulate(spin_rts(), ("a",), SimulationConfig(runs=runs, max_steps=max_steps))


# short walks, so that about one run in six misses the goal and the
# frequency shows which successors were drawn
_GROWING_WALKS = """
from pathlib import Path
import rmc
data = Path(rmc.__file__).parent / "data" / "herman-grow"
stats = rmc.simulate(
    rmc.load_rts_bundle(data / "bundle.rts"),
    tuple("⟨••◦⟩"),
    rmc.SimulationConfig(runs=200, max_steps=5, seed=7),
    goal=rmc.load_automaton(data / "one-token.nfa"),
)
print(stats)
"""


def test_simulation_does_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _GROWING_WALKS],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in ("0", "1")
    ]
    assert outputs[0] and outputs[0] == outputs[1]
