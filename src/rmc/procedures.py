"""Decision procedures over transducer-described transition systems.

The symbolic checks work on the system's ``reach`` relation and never
enumerate configurations; the bounded checks slice the system per word
length up to a bound and answer Unknown when the bound cannot be shown
exhaustive.  All of them return a Verdict whose witness, when present,
names concrete configurations.

Each configuration a symbolic check reports, save those the growth
route's comb walk spells (:func:`check_egf_clique`), is one search,
:func:`~rmc.nfa.constrained_search`: the reachable set and the goal are
its positives, the languages every reachable configuration must be in
its negatives, and only those meet the state cap.  Every search reads
the reachable set lazily; the comb walk alone builds it.

Witness step granularity differs by route: bounded checks produce
single-step witnesses replayable against the step relation, while the
cycle route of the repeated-reachability check produces lassos whose
first hop is a system step and whose closing hop is a
reachability-relation hop; each verdict's note says which.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from . import graph
from .alphabet import PAD, Word
from .errors import AlphabetMismatch, CapExceeded, NotLengthPreserving, RmcError
from .nfa import Nfa, constrained_search, start_pairs, word_automaton
from .oracle import build_slice, oracle_check, slice_walk
from .rts import Rts
from .transducer import identity_on
from .verdict import Verdict, Witness, fails, holds, unknown

DEFAULT_BOUND = 8

_WITNESS_SLICE_CAP = 65536


def _check_goal(rts: Rts, goal: Nfa) -> None:
    if goal.alphabet != rts.alphabet:
        raise AlphabetMismatch("goal alphabet differs from the system alphabet")


def _locate(rts: Rts, target: Word) -> Witness:
    """A witness that ``target``, a word of the reachable set, is
    reachable: the stepwise path a breadth-first search of its slice gives
    when the search meets it before any cap, even in a slice over the cap;
    else a source/target pair under the reachability relation, as when the
    relation claims more than the steps reach."""
    try:
        path = _step_path(rts, target) if rts.length_preserving else None
    except CapExceeded:
        path = None  # a cap came first: the walk's, or the state cap of its count
    if path is not None:
        return Witness("path", path)
    here = word_automaton(rts.alphabet, target)
    source = constrained_search([rts.relation().lazy_pre_image(here), rts.initial])
    return Witness("pair", (source, target))


def _step_path(rts: Rts, target: Word) -> tuple[Word, ...] | None:
    """The path :func:`~rmc.oracle.slice_walk` gives from the initial
    words of the target's length to it, or None; raises
    :class:`CapExceeded` when a cap comes first."""
    starts = rts.initial.words_of_length(len(target), _WITNESS_SLICE_CAP)
    parents, _successors = slice_walk(rts, starts, _WITNESS_SLICE_CAP, target)
    return tuple(graph.path_to(parents, target)) if target in parents else None


# -- reachability ---------------------------------------------------------------


def check_ef(rts: Rts, goal: Nfa) -> Verdict:
    """Is some goal configuration reachable from the initial set?"""
    _check_goal(rts, goal)
    found = constrained_search([rts.lazy_reachable_set(), goal])
    if found is None:
        return fails(note="no goal configuration in the reachable set")
    return holds(witness=_locate(rts, found))


def check_deadlock_freedom(rts: Rts) -> Verdict:
    """Does every reachable configuration have at least one successor?"""
    found = constrained_search([rts.lazy_reachable_set()], [rts.delta.lazy_domain()])
    if found is None:
        return holds(note="every reachable configuration has a successor")
    return fails(
        witness=_locate(rts, found),
        note="a reachable configuration has no successor",
    )


# -- repeated reachability -------------------------------------------------------


def check_egf_loop(rts: Rts, goal: Nfa) -> Verdict:
    """Cycle route: find a reachable goal configuration on a cycle.

    A configuration c lies on a cycle iff some step (c, y) of delta has
    (y, c) in reach, one step out and reach back, provided reach contains
    the identity and delta (:meth:`Rts.validate` checks both).  So the
    configurations on cycles are the domain of delta ∩ reach⁻¹, the lazy
    round trips of delta and reach, searched with the goal as positives, so
    at no cap.  The lasso starts at the least such c and goes through its
    least successor that reach leads back from.  Complete on its own for
    length-preserving systems, where any infinite run stays inside one
    finite length class.
    """
    _check_goal(rts, goal)
    relation, reachable = rts.relation(), rts.lazy_reachable_set()
    config = constrained_search([reachable, goal, rts.delta.lazy_round_trip(relation)])
    if config is None:
        return fails(note="no reachable goal configuration lies on a cycle")
    if rts.delta.accepts_pair(config, config):
        return holds(
            witness=Witness("lasso", (config,), loop_start=0),
            note="the loop is a single step of the system",
        )
    here = word_automaton(rts.alphabet, config)
    via = constrained_search([rts.delta.lazy_post_image(here), relation.lazy_pre_image(here)])
    return holds(
        witness=Witness("lasso", (config, via), loop_start=0),
        note="loop steps are reachability-relation hops",
    )


def check_egf_clique(rts: Rts, goal: Nfa) -> Verdict:
    """Growth route: find an endless chain of ever-longer configurations,
    each reachable from the one before it and landing in the goal.

    The chain is presented as a comb: a growing common prefix with a
    divergent tail per element.  The route only looks for combs whose
    prefix and tail grow in lockstep, so it can miss chains that exist
    in some other shape; a Fails verdict means no comb of this shape was
    found.  Length-preserving systems have no growing chains at all, so
    they fail this route immediately.  One breadth-first walk finds the
    comb's entries and each comb node's edges; the witness follows the
    comb in state order, so it is not a search's least word.  Its chain
    and the built reachable set are fresh and read by no other route, so
    moves come from their transitions.
    """
    _check_goal(rts, goal)
    if rts.length_preserving:
        return fails(note="the growth route does not apply to length-preserving systems")
    chain = rts.relation().compose(identity_on(goal))
    if chain.is_empty():
        return fails(note="no reachability pair lands in the goal")
    reachable = rts.reachable_set()
    if not reachable.states:
        return fails(note="the reachable set is empty")
    moves, symbols = chain.transitions, rts.alphabet.symbols

    def walk(step: Callable, accepting, roots, entered: dict) -> dict:
        """Breadth-first from ``roots`` over state triples: the first reads
        a top-track letter x by ``step(state, x)``, the second runs the chain
        from x to a bottom-track letter y, and the third runs it on (y, y).
        Maps in ``entered`` the last two states of each triple a move enters
        whose first is ``accepting`` to the words the first such move spelled."""
        found = dict.fromkeys(roots, ((), ()))
        # ``order`` grows while it is walked, which makes this breadth-first
        order = list(found)
        for a, b, c in order:
            xs, ys = found[a, b, c]
            for x in symbols:
                a_next = step(a, x)
                for y in symbols if a_next else ():
                    b_next = moves.get((b, (x, y)))
                    c_next = b_next and moves.get((c, (y, y)))
                    for target in itertools.product(a_next, b_next, c_next) if c_next else ():
                        words = (xs + (x,), ys + (y,))
                        if target[0] in accepting:
                            entered.setdefault(target[1:], words)
                        if target not in found:
                            found[target] = words
                            order.append(target)
        return entered

    # stage one: the comb's entries, reachable words against same-length prefixes
    # in the chain's diagonal; roots in state order, so no set order shows, and
    # an accepting root enters with no words before any move can
    starts = [q for q in chain.states if q in chain.initial]
    roots = [(p, q, r) for p, q in start_pairs(reachable, chain) for r in starts]
    at_roots = {(q, r): ((), ()) for p, q, r in roots if p in reachable.final}
    entries = walk(lambda s, x: reachable.transitions.get((s, x)), reachable.final, roots, at_roots)
    if not entries:
        return fails(note="no reachable configuration starts a comb")

    # stage two: comb node (p, q)'s edges are the chain's (#, x) moves past the
    # end of its configuration; ``comb`` is filled once per node, read sorted
    def edges_from(node):
        p, q = node
        return walk(lambda r, x: moves.get((r, (PAD, x))), chain.final, [(p, q, q)], {})

    comb: dict = {}
    graph.closure(entries, lambda node: comb.setdefault(node, edges_from(node)))
    nodes = sorted(comb)
    position = {node: i for i, node in enumerate(nodes)}
    adjacency = [sorted(position[t] for t in comb[node]) for node in nodes]
    sccs, scc_of = graph.tarjan(len(nodes), adjacency)
    cyclic = {si for si, members in enumerate(sccs) if graph.is_cyclic(members, adjacency)}
    if not cyclic:
        return fails(note="no comb of reachable configurations can grow forever")

    # the shortest node path from an entry node into a cyclic component,
    # then one lap around that component back to the node it entered by
    order, parents = graph.bfs(adjacency, [position[node] for node in entries])
    pivot = next(v for v in order if scc_of[v] in cyclic)
    path = graph.path_to(parents, pivot) + graph.cycle_through(
        adjacency, pivot, set(sccs[scc_of[pivot]])
    )

    configuration, prefix = entries[nodes[path[0]]]
    configurations = [configuration]
    for v, w in zip(path, path[1:]):
        c_word, d_word = comb[nodes[v]][nodes[w]]
        configurations.append(prefix + c_word)
        prefix = prefix + d_word
    return holds(
        witness=Witness("clique-prefix", tuple(configurations)),
        note=(
            "each configuration reaches the next and every one after the"
            " first is in the goal; the comb keeps growing by pumping"
        ),
    )


def check_egf(rts: Rts, goal: Nfa) -> Verdict:
    """Can some run visit the goal infinitely often?  Tries the cycle
    route first, which searches the reachable set lazily, and the growth
    route second, which alone builds it."""
    by_loop = check_egf_loop(rts, goal)
    if by_loop.holds or rts.length_preserving:
        return by_loop
    by_clique = check_egf_clique(rts, goal)
    return by_clique if by_clique.holds else fails(note=f"{by_loop.note}; {by_clique.note}")


# -- almost-sure checks ----------------------------------------------------------


# Every reachable configuration reaching a target proves the target is hit
# almost surely only when each run stays inside finitely many configurations.
_DRIFT_NOTE = (
    "the system is not length-preserving, so a run can drift through"
    " infinitely many configurations"
)


def check_as_gf(rts: Rts, goal: Nfa) -> Verdict:
    """Does a random run visit the goal infinitely often with probability
    one?  Fails exactly when some reachable configuration either has no
    successor or cannot reach the goal at all.  Otherwise holds on a
    length-preserving system, or when every reachable configuration is a
    goal configuration with a successor; else Unknown.  Both languages,
    dom(delta) and the goal's pre-image under reach, are lazy."""
    _check_goal(rts, goal)
    domain = rts.delta.lazy_domain()
    reachable = rts.lazy_reachable_set()
    found = constrained_search([reachable], [domain, rts.relation().lazy_pre_image(goal)])
    if found is None:
        note = "every reachable configuration can step and can reach the goal"
        if rts.length_preserving or constrained_search([reachable], [domain, goal]) is None:
            return holds(note=note)
        return unknown(note=f"{note}, but {_DRIFT_NOTE}")
    reason = (
        "a reachable configuration has no successor"
        if not domain.accepts(found)
        else "a reachable configuration cannot reach the goal"
    )
    return fails(witness=_locate(rts, found), note=reason)


def check_as_termination(rts: Rts) -> Verdict:
    """Does a random run reach a successor-free configuration with
    probability one?  Fails exactly when some reachable configuration
    cannot reach any successor-free one; otherwise holds on a
    length-preserving system and is Unknown on any other.  The pre-image
    under reach of the successor-free configurations is lazy."""
    can_halt = rts.relation().lazy_pre_image(rts.terminating())
    found = constrained_search([rts.lazy_reachable_set()], [can_halt])
    if found is None:
        note = "every reachable configuration can reach a successor-free one"
        if not rts.length_preserving:
            return unknown(note=f"{note}, but {_DRIFT_NOTE}")
        return holds(note=note)
    return fails(
        witness=_locate(rts, found),
        note="a reachable configuration cannot reach any successor-free one",
    )


# -- bounded universal checks ----------------------------------------------------


def _replay(rts: Rts, witness: Witness) -> None:
    """Internal sanity check: witness steps must be real system steps."""
    configs = witness.configurations
    steps = list(zip(configs, configs[1:]))
    if witness.kind == "lasso":
        steps.append((configs[-1], configs[witness.loop_start]))
    for before, after in steps:
        if not rts.delta.accepts_pair(before, after):
            raise RmcError(
                f"internal error: witness step {before} to {after} is not a system step"
            )


def _bounded(rts: Rts, prop: str, goal: Nfa | None, bound: int) -> Verdict:
    if not rts.length_preserving:
        raise NotLengthPreserving(
            "bounded checks slice the system per word length"
        )
    if goal is not None:
        _check_goal(rts, goal)
    moves, accepting, frontier = rts.initial.trim()._view()
    n = 0  # ``frontier``: the trimmed states at depth n; none past the longest word
    while frontier and n <= bound:
        if any(accepting[q] for q in frontier):  # else the slice is empty: AF, AGF and ASF hold
            try:
                slice_ = build_slice(rts, n, reachable=True)
            except CapExceeded as err:
                return unknown(
                    bound=n - 1, note=f"no violation up to length {n - 1}; length {n}: {err}"
                )
            satisfied, witness = oracle_check(slice_, prop, goal)
            if not satisfied:
                _replay(rts, witness)
                return fails(witness=witness, bound=n)
        frontier = {r for q in frontier for targets in moves[q].values() for r in targets}
        n += 1
    if not frontier:
        return holds(note=f"all initial configurations have length at most {bound}")
    return unknown(
        bound=bound,
        note="no violation up to the bound, but longer initial configurations exist",
    )


def check_af_bounded(rts: Rts, goal: Nfa, bound: int = DEFAULT_BOUND) -> Verdict:
    """Must every run reach the goal?  Checked per length up to the bound."""
    return _bounded(rts, "AF", goal, bound)


def check_agf_bounded(rts: Rts, goal: Nfa, bound: int = DEFAULT_BOUND) -> Verdict:
    """Must every run visit the goal infinitely often?  Checked per
    length up to the bound; only goal-avoiding cycles count against it."""
    return _bounded(rts, "AGF", goal, bound)


def check_as_f_bounded(rts: Rts, goal: Nfa, bound: int = DEFAULT_BOUND) -> Verdict:
    """Does a random run reach the goal with probability one?  Checked
    per length up to the bound."""
    return _bounded(rts, "ASF", goal, bound)


# -- dispatch --------------------------------------------------------------------


@dataclass(frozen=True)
class Property:
    """A property ``run_check`` can decide, under its command-line name.

    ``oracle`` names the :func:`~rmc.oracle.oracle_check` decider that
    answers the same question on one slice, or is None for a single route
    of a check.  ``run(rts, goal, bound)`` runs the check.  ``bounded``
    marks a check made per length up to the bound, which needs a
    length-preserving system.
    """

    needs_goal: bool
    oracle: str | None
    run: Callable[[Rts, Nfa | None, int], Verdict]
    bounded: bool = False


# The entries call the checks through their module-level names, so a
# check replaced on this module (say, by a profiler) is the one that runs.
PROPERTIES: dict[str, Property] = {
    "ef": Property(True, "EF", lambda rts, goal, bound: check_ef(rts, goal)),
    "egf": Property(True, "EGF", lambda rts, goal, bound: check_egf(rts, goal)),
    "egf-loop": Property(True, None, lambda rts, goal, bound: check_egf_loop(rts, goal)),
    "egf-clique": Property(True, None, lambda rts, goal, bound: check_egf_clique(rts, goal)),
    "af": Property(
        True, "AF", lambda rts, goal, bound: check_af_bounded(rts, goal, bound), bounded=True
    ),
    "agf": Property(
        True, "AGF", lambda rts, goal, bound: check_agf_bounded(rts, goal, bound), bounded=True
    ),
    "as-f": Property(
        True, "ASF", lambda rts, goal, bound: check_as_f_bounded(rts, goal, bound), bounded=True
    ),
    "as-gf": Property(True, "ASGF", lambda rts, goal, bound: check_as_gf(rts, goal)),
    "as-term": Property(False, "AST", lambda rts, goal, bound: check_as_termination(rts)),
    "deadlock-free": Property(False, "DF", lambda rts, goal, bound: check_deadlock_freedom(rts)),
}


def run_check(
    rts: Rts,
    property_name: str,
    goal: Nfa | None = None,
    bound: int = DEFAULT_BOUND,
) -> Verdict:
    """Dispatch a property check by name; the command line goes through
    here so the names are part of the interface.  A check that outgrows
    a cap raises :class:`~rmc.errors.CapExceeded`, as every check does;
    :func:`rmc.cli.main` alone turns it into Unknown, naming the command.

    :meth:`Rts.validate` proves only that ``reach`` contains every run
    (``reach`` ⊇ δ*).  Sound on that alone: Fails of ``ef``; Fails of
    ``egf`` on a length-preserving system; Holds of ``deadlock-free``; any
    answer whose witness replays through delta, as the bounded checks' do.
    These also need ``reach`` ⊆ δ*, which nothing checks: Holds of ``as-gf``
    and ``as-term``; Holds of ``ef`` or ``egf`` with a ``pair`` or hop
    witness (an ``egf-loop`` closing hop, any ``clique-prefix`` step);
    Fails with a ``pair`` witness."""
    name = property_name.lower()
    prop = PROPERTIES.get(name)
    if prop is None:
        raise ValueError(
            f"unknown property {property_name!r}; expected one of {tuple(PROPERTIES)}"
        )
    if prop.needs_goal and goal is None:
        raise ValueError(f"property {name!r} needs a goal language")
    return prop.run(rts, goal, bound)
