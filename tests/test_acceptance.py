"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines alongside
the pytest verdicts.  Every criterion collects violations into a list and
asserts the list is empty, so a failure names the first offending
instances instead of stopping at an opaque boolean.
"""

import random
import time
from pathlib import Path

from rmc import (
    Interpretation,
    Rts,
    certify_unreachable,
    check_af_bounded,
    check_as_f_bounded,
    check_as_gf,
    check_as_termination,
    check_deadlock_freedom,
    check_ef,
    check_egf,
    check_egf_clique,
    check_egf_loop,
    identity,
    is_inductive,
    length_automaton,
    load_automaton,
    load_rts_bundle,
    relation_to_transducer,
    slice_closure,
    universal_automaton,
    validate_preach,
)
from rmc.oracle import SimulationConfig, build_slice, oracle_check, simulate
from support import (
    A,
    Alphabet,
    bounded_lp_universal,
    mk_t,
    random_alphabet,
    random_lp_rts,
    random_lp_transducer,
    random_nfa,
    random_padded_transducer,
    random_word_nfa,
    words_nfa,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "rmc" / "data"


def conclude(num, label, problems, elapsed=None, budget=None):
    if budget is not None and elapsed >= budget:
        problems.append(f"took {elapsed:.1f}s, budget {budget:.0f}s")
    print(f"criterion {num} ({label}): {'FAIL' if problems else 'PASS'}")
    assert not problems, problems[:5]


def expect(problems, cond, msg):
    if not cond:
        problems.append(msg)


def per_length(rts, n):
    return Rts(
        rts.initial.intersect(length_automaton(rts.alphabet, n)),
        rts.delta,
        reach=rts.reach,
        preach=rts.preach,
    )


def load_bundle(name):
    return load_rts_bundle(DATA / name / "bundle.rts")


def witness_problems(rts, goal, witness):
    """A counterexample run must replay, start initial, and avoid the goal."""
    problems = []
    configs = witness.configurations
    if not rts.initial.accepts(configs[0]):
        problems.append(f"witness starts outside the initial set: {configs[0]}")
    for c in configs:
        if goal.accepts(c):
            problems.append(f"witness visits the goal: {c}")
    for i in range(len(configs) - 1):
        if not rts.delta.accepts_pair(configs[i], configs[i + 1]):
            problems.append(f"witness step {i} does not replay")
    if witness.kind == "lasso":
        if not rts.delta.accepts_pair(configs[-1], configs[witness.loop_start]):
            problems.append("lasso does not close back onto its loop head")
    return problems


def path_end_problems(rts, goal, prop, witness):
    """Property-specific obligations for a finite counterexample path."""
    problems = []
    end = witness.configurations[-1]
    if prop == "AF":
        words, _trunc = rts.successors(end)
        if words:
            problems.append("AF path witness ends in a configuration with successors")
    else:  # ASF: the endpoint must sit in a goal-free bottom component
        sliced = build_slice(rts, len(end))
        k = sliced.configurations.index(end)
        si = sliced.scc_of[k]
        trapped = si in sliced.bottom_sccs and not any(
            goal.accepts(sliced.configurations[m]) for m in sliced.sccs[si]
        )
        if not trapped:
            problems.append("ASF path witness does not end in a goal-free trap")
    return problems


def test_criterion_1_constructor_state_bounds():
    rng = random.Random(31)
    started = time.monotonic()
    problems = []
    for i in range(200):
        alphabet = random_alphabet(rng)
        n1 = random_nfa(rng, alphabet)
        n2 = random_nfa(rng, alphabet)
        t1 = random_lp_transducer(rng, alphabet, max_states=12)
        t2 = random_padded_transducer(rng, alphabet, alphabet, max_states=12)
        cases = (
            ("union", n1.union(n2), len(n1.states) + len(n2.states)),
            ("intersect", n1.intersect(n2), len(n1.states) * len(n2.states)),
            ("complement", n1.complement(), 2 ** len(n1.states)),
            ("compose", t1.compose(t2), len(t1.states) * len(t2.states)),
            ("post-image", t2.post_image(n1), (len(n1.states) + 1) * len(t2.states)),
            ("pre-image", t2.pre_image(n2), (len(n2.states) + 1) * len(t2.states)),
            ("inverse", t1.inverse(), len(t1.states)),
            ("project-1", t1.project(1), len(t1.states)),
            ("project-2", t2.project(2), len(t2.states)),
        )
        for name, result, bound in cases:
            expect(
                problems,
                len(result.states) <= bound,
                f"instance {i} {name}: {len(result.states)} states, bound {bound}",
            )
    conclude(1, "constructor state bounds", problems, time.monotonic() - started, 30.0)


def test_criterion_2_oracle_equivalence():
    rng = random.Random(2024)
    started = time.monotonic()
    problems = []
    procedures = (
        ("EF", lambda rts, goal: check_ef(rts, goal)),
        ("EGF", lambda rts, goal: check_egf(rts, goal)),
        ("DF", lambda rts, goal: check_deadlock_freedom(rts)),
        ("ASGF", lambda rts, goal: check_as_gf(rts, goal)),
        ("AST", lambda rts, goal: check_as_termination(rts)),
    )
    for i in range(500):
        rts, goal = random_lp_rts(rng)
        for n in range(1, 5):
            sliced = build_slice(rts, n)
            restricted = per_length(rts, n)
            for name, run in procedures:
                mine = run(restricted, goal).holds
                truth = oracle_check(sliced, name, goal)[0]
                expect(
                    problems,
                    mine == truth,
                    f"instance {i} length {n} {name}: procedure says "
                    f"{mine}, oracle says {truth}",
                )
    conclude(2, "oracle equivalence", problems, time.monotonic() - started, 300.0)


def test_criterion_3_token_ring():
    started = time.monotonic()
    problems = []
    rts = load_bundle("herman-lp")
    goal = load_automaton(DATA / "herman-lp" / "one-token.nfa")
    for cells in range(3, 9):
        n = cells + 2
        restricted = per_length(rts, n)
        verdicts = (
            ("EF", check_ef(restricted, goal)),
            ("EGF", check_egf(restricted, goal)),
            ("ASGF", check_as_gf(restricted, goal)),
            ("DF", check_deadlock_freedom(restricted)),
        )
        for name, verdict in verdicts:
            expect(
                problems,
                verdict.holds,
                f"{cells} cells: {name} is {verdict.outcome.name}, expected HOLDS",
            )
        if n <= 8:
            sliced = build_slice(rts, n)
            for name, _v in verdicts:
                expect(
                    problems,
                    oracle_check(sliced, name, goal)[0],
                    f"{cells} cells: oracle disagrees that {name} holds",
                )
    verdict = check_af_bounded(rts, goal, bound=5)
    expect(problems, verdict.fails, "AF should fail once two tokens fit")
    if verdict.fails:
        witness = verdict.witness
        expect(problems, witness.kind == "lasso", "AF counterexample is not a lasso")
        problems.extend(witness_problems(rts, goal, witness))
        loop = witness.configurations[witness.loop_start :]
        expect(
            problems,
            all(sum(1 for s in c if s == "•") == 2 for c in loop),
            f"loop should oscillate two tokens, got {loop}",
        )
        expect(problems, len(set(loop)) >= 2, "loop does not actually move")
    conclude(3, "token ring verdicts", problems, time.monotonic() - started, 120.0)


def test_criterion_4_clique_route():
    started = time.monotonic()
    problems = []
    rts = load_bundle("succ-walk")
    goal = universal_automaton(rts.alphabet)
    expect(problems, check_egf_loop(rts, goal).fails, "loop route should fail")
    clique = check_egf_clique(rts, goal)
    expect(problems, clique.holds, "clique route should hold")
    if clique.holds:
        expect(
            problems,
            clique.witness.kind == "clique-prefix",
            f"unexpected witness kind {clique.witness.kind}",
        )
    expect(problems, check_egf(rts, goal).holds, "combined check should hold")

    rng = random.Random(97)
    lp_inputs = [load_bundle("toggle"), load_bundle("herman-lp")]
    lp_goals = [universal_automaton(s.alphabet) for s in lp_inputs]
    for _ in range(30):
        s, g = random_lp_rts(rng)
        lp_inputs.append(s)
        lp_goals.append(g)
    for k, (s, g) in enumerate(zip(lp_inputs, lp_goals)):
        expect(
            problems,
            check_egf_clique(s, g).fails,
            f"length-preserving input {k} slipped through the clique route",
        )
    conclude(4, "clique route", problems, time.monotonic() - started, 5.0)


def _pair_compose(left, right):
    by_src = {}
    for b, c in right:
        by_src.setdefault(b, []).append(c)
    return {(a, c) for a, b in left for c in by_src.get(b, ())}


def _reflexive_transitive(pairs, universe):
    index = {c: k for k, c in enumerate(universe)}
    n = len(universe)
    adj = [[False] * n for _ in range(n)]
    for a, b in pairs:
        adj[index[a]][index[b]] = True
    for k in range(n):
        row_k = adj[k]
        for i in range(n):
            if adj[i][k]:
                row_i = adj[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    transitive = {
        (universe[i], universe[j])
        for i in range(n)
        for j in range(n)
        if adj[i][j]
    }
    return transitive | {(c, c) for c in universe}, transitive


def test_criterion_5_closure_laws():
    rng = random.Random(47)
    problems = []
    checked = 0
    while checked < 100:
        rts, _goal = random_lp_rts(rng, with_reach=False, max_length=3)
        for n in range(1, 4):
            if checked >= 100:
                break
            sliced = build_slice(rts, n)
            if not sliced.configurations:
                continue
            checked += 1
            universe = list(sliced.configurations)
            closure = set(slice_closure(sliced))
            ident = {(c, c) for c in universe}
            delta = {
                (universe[i], universe[j])
                for i, outs in enumerate(sliced.edges)
                for j in outs
            }
            core = (closure - ident) | delta
            refl_trans, trans = _reflexive_transitive(core, universe)
            expect(
                problems,
                refl_trans == closure,
                f"slice {checked}: closing the core misses the closure",
            )
            expected_plus = core | _pair_compose(closure - ident, closure - ident)
            expect(
                problems,
                trans == expected_plus,
                f"slice {checked}: transitive closure law fails",
            )
    conclude(5, "closure laws", problems)


def _cube_interpretation(alphabet):
    """x stands for the first symbol, y for any of the others."""
    xy = Alphabet(["x", "y"])
    triples = [("m", f"x/{alphabet.symbols[0]}", "m")]
    for sym in alphabet.symbols[1:]:
        triples.append(("m", f"y/{sym}", "m"))
    return xy, Interpretation(mk_t(xy, alphabet, triples, ["m"], ["m"]))


def test_criterion_6_abstraction_framework():
    problems = []
    rng = random.Random(5)

    # exact closures over every configuration validate as potential reach
    for i in range(20):
        alphabet = random_alphabet(rng)
        delta = random_lp_transducer(rng, alphabet)
        everyone = Rts(universal_automaton(alphabet), delta)
        pairs = set()
        for n in range(1, 5):
            pairs |= slice_closure(build_slice(everyone, n))
        preach = relation_to_transducer(alphabet, pairs).union(identity(alphabet))
        bounded = delta.intersect(bounded_lp_universal(alphabet, 4))
        rts = Rts(
            random_word_nfa(rng, alphabet, 4), bounded, reach=preach, preach=preach
        )
        report = validate_preach(rts)
        expect(
            problems,
            report.ok,
            f"closure instance {i}: {[c.name for c in report.failed]}",
        )

    # the identity relation is not a closure of the successor walk
    succ = mk_t(A, A, [("s", "a/a", "s"), ("s", "#/a", "t")], ["s"], ["t"])
    report = validate_preach(
        Rts(words_nfa(A, {()}), succ, preach=identity(A))
    )
    expect(problems, not report.ok, "identity wrongly validates for the walk")
    failed = {c.name: c.counterexample for c in report.failed}
    expect(
        problems,
        failed.get("delta-within-preach") == ((), ("a",)),
        f"unexpected counterexample set {failed}",
    )

    # every certificate the framework issues must agree with explicit search
    certified = 0
    for i in range(30):
        rts, _goal = random_lp_rts(rng, with_reach=False, max_length=3)
        alphabet = rts.alphabet
        xy, interp = _cube_interpretation(alphabet)
        everyone = Rts(universal_automaton(alphabet), rts.delta)
        for n in range(1, 4):
            reachable_pairs = slice_closure(build_slice(everyone, n))
            all_words = [
                tuple(w)
                for w in _all_words(alphabet.symbols, n)
            ]
            for constraint in _all_words(xy.symbols, n):
                constraint = tuple(constraint)
                cube = [w for w in all_words if _in_cube(alphabet, constraint, w)]
                outside = [w for w in all_words if w not in set(cube)]
                for config in cube[:2]:
                    for other in outside[:2]:
                        if certify_unreachable(rts, interp, constraint, config, other):
                            certified += 1
                            expect(
                                problems,
                                (config, other) not in reachable_pairs,
                                f"bogus certificate {config} -> {other}",
                            )
    expect(problems, certified > 0, "no certificates were ever issued")

    # self loops in the step relation cannot change inductiveness
    compared = 0
    while compared < 100:
        rts, _goal = random_lp_rts(rng, with_reach=False, max_length=3)
        xy, interp = _cube_interpretation(rts.alphabet)
        looped = Rts(rts.initial, rts.delta.union(identity(rts.alphabet)))
        for _ in range(4):
            length = rng.randint(1, 3)
            constraint = tuple(
                rng.choice(xy.symbols) for _ in range(length)
            )
            plain = is_inductive(rts, interp, constraint)[0]
            with_loops = is_inductive(looped, interp, constraint)[0]
            expect(
                problems,
                plain == with_loops,
                f"self loops changed inductiveness of {constraint}",
            )
            compared += 1
    conclude(6, "abstraction framework", problems)


def _all_words(symbols, n):
    if n == 0:
        return [()]
    shorter = _all_words(symbols, n - 1)
    return [w + (s,) for w in shorter for s in symbols]


def _in_cube(alphabet, constraint, word):
    first = alphabet.symbols[0]
    for c, s in zip(constraint, word):
        if c == "x" and s != first:
            return False
        if c == "y" and s == first:
            return False
    return True


def test_criterion_7_simulation_sanity():
    problems = []
    herman = load_bundle("herman-lp")
    one_token = load_automaton(DATA / "herman-lp" / "one-token.nfa")
    start = tuple("⟨••◦⟩")
    expect(
        problems,
        oracle_check(build_slice(herman, 5), "ASGF", one_token)[0],
        "the oracle should confirm almost-sure repeated reachability",
    )
    config = SimulationConfig(runs=1000, max_steps=10_000, seed=2718)
    first = simulate(herman, start, config, goal=one_token)
    second = simulate(herman, start, config, goal=one_token)
    expect(problems, first == second, "same seed produced different statistics")
    expect(
        problems,
        first.goal_hit_frequency >= 0.99,
        f"goal hit frequency {first.goal_hit_frequency} below 0.99",
    )

    toggle = load_bundle("toggle")
    stats = simulate(toggle, ("a",), SimulationConfig(runs=500, max_steps=50, seed=3))
    expect(
        problems,
        stats.termination_frequency == 1.0,
        f"toggle termination frequency {stats.termination_frequency} is not 1.0",
    )
    again = simulate(toggle, ("a",), SimulationConfig(runs=500, max_steps=50, seed=3))
    expect(problems, stats == again, "toggle reruns diverged under a fixed seed")
    conclude(7, "simulation sanity", problems)


def test_criterion_8_bounded_honesty():
    rng = random.Random(2024)
    problems = []
    bound = 2
    for i in range(500):
        rts, goal = random_lp_rts(rng)
        within = length_automaton(rts.alphabet, bound, upto=True)
        covered, _cex = within.includes(rts.initial)
        for prop, procedure in (("AF", check_af_bounded), ("ASF", check_as_f_bounded)):
            cex_exists = False
            for n in range(1, bound + 1):
                if per_length(rts, n).initial.is_empty():
                    continue
                if not oracle_check(build_slice(rts, n), prop, goal)[0]:
                    cex_exists = True
                    break
            verdict = procedure(rts, goal, bound=bound)
            if cex_exists:
                expect(
                    problems,
                    verdict.fails,
                    f"instance {i} {prop}: oracle found a counterexample "
                    f"but the procedure says {verdict.outcome.name}",
                )
                if verdict.fails:
                    problems.extend(witness_problems(rts, goal, verdict.witness))
                    if verdict.witness.kind == "path":
                        problems.extend(
                            path_end_problems(rts, goal, prop, verdict.witness)
                        )
            elif not covered:
                expect(
                    problems,
                    verdict.unknown,
                    f"instance {i} {prop}: initial words outlast the bound "
                    f"but the procedure says {verdict.outcome.name}",
                )
            else:
                expect(
                    problems,
                    verdict.holds,
                    f"instance {i} {prop}: exhausted bound should hold, "
                    f"got {verdict.outcome.name}",
                )
    conclude(8, "bounded procedure honesty", problems)
