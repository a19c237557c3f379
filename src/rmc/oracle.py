"""Explicit-state oracle over fixed-length configuration slices.

A length-preserving system restricted to words of one length is a finite
graph, so every property the symbolic procedures decide can be recomputed
here by brute force: reachability, cycles, strongly connected components,
bottom SCCs, and seeded random walks.  The oracle exists to cross-check
the transducer-based procedures and to lift explicitly computed closures
back into transducer form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import graph
from .alphabet import Alphabet, Word, convolve
from .errors import CapExceeded, NotLengthPreserving, SuccessorCapExceeded
from .nfa import Nfa, length_automaton
from .rts import Rts
from .transducer import Transducer
from .verdict import Witness

PROPERTIES = ("EF", "EGF", "AF", "AGF", "ASF", "ASGF", "AST", "DF")

DEFAULT_CONFIG_CAP = 200_000


@dataclass(frozen=True)
class FiniteSlice:
    """Configurations of one length, in alphabet order, with their step edges."""

    length: int
    alphabet: Alphabet
    configurations: tuple[Word, ...]
    edges: tuple[tuple[int, ...], ...]
    initial: frozenset[int]
    sccs: tuple[tuple[int, ...], ...]
    scc_of: tuple[int, ...]
    bottom_sccs: frozenset[int]
    index: dict[Word, int] = field(compare=False, repr=False)

    def index_of(self, config: Word) -> int | None:
        """The index of ``config``, or None when the slice does not hold it."""
        return self.index.get(config)

    def is_terminating(self, i: int) -> bool:
        return not self.edges[i]


def build_slice(
    rts: Rts, length: int, config_cap: int = DEFAULT_CONFIG_CAP, *, reachable: bool = False
) -> FiniteSlice:
    """Materialize the slice of all configurations of the given length.

    With ``reachable`` the slice holds only the configurations reachable
    from the initial words of that length, and the cap counts those.  Both
    kinds index configurations in alphabet order, so on the reachable part
    the two agree edge for edge, and every oracle answer, which looks only
    at runs from the initial configurations, comes out the same.
    """
    if not rts.length_preserving:
        raise NotLengthPreserving("slices are only defined for length-preserving systems")
    alphabet = rts.alphabet
    over_cap = f"slice would hold more than the cap of {config_cap} reachable configurations"
    if reachable:
        # counted first: listing them keeps every live prefix of a level, and
        # there are as many of those as initial words
        if rts.initial.count_words(length) > config_cap:
            raise CapExceeded(over_cap)
        starts, _truncated = rts.initial.intersect(
            length_automaton(alphabet, length)
        ).enumerate_words(config_cap)
        roots = starts
    else:
        total = len(alphabet) ** length
        if total > config_cap:
            raise CapExceeded(
                f"slice would hold {total} configurations, above the cap of {config_cap}"
            )
        roots = list(itertools.product(alphabet.symbols, repeat=length))
        starts = [c for c in roots if rts.initial.accepts(c)]
    found: dict[Word, tuple[Word, ...]] = {}

    def visit(config: Word) -> tuple[Word, ...]:
        found[config], truncated = rts.successors(config, config_cap)
        if truncated or len(found) > config_cap:
            raise CapExceeded(over_cap)
        return found[config]

    graph.closure(roots, visit)
    rank = {a: i for i, a in enumerate(alphabet.symbols)}
    configurations = tuple(sorted(found, key=lambda c: [rank[a] for a in c]))
    index = {c: i for i, c in enumerate(configurations)}
    edges = tuple(tuple(sorted(index[s] for s in found[c])) for c in configurations)

    sccs, scc_of = graph.tarjan(len(configurations), edges)
    bottom = set()
    for si, members in enumerate(sccs):
        inside = set(members)
        if all(t in inside for v in members for t in edges[v]):
            bottom.add(si)
    return FiniteSlice(
        length=length,
        alphabet=alphabet,
        configurations=configurations,
        edges=edges,
        initial=frozenset(index[c] for c in starts),
        sccs=sccs,
        scc_of=scc_of,
        bottom_sccs=frozenset(bottom),
        index=index,
    )


def _witness(slice_: FiniteSlice, nodes: Sequence[int], kind: str = "path", loop_start=None) -> Witness:
    return Witness(
        kind=kind,
        configurations=tuple(slice_.configurations[i] for i in nodes),
        loop_start=loop_start,
    )


def _lasso(slice_: FiniteSlice, prefix: list[int], inside: set):
    """Close ``prefix`` with a shortest cycle from its last node back to it
    inside ``inside``; returns (nodes, loop_start).  By convention the last
    configuration of a lasso steps back to ``loop_start``, so the return to
    the entry node is not repeated."""
    cycle = graph.cycle_through(slice_.edges, prefix[-1], inside)
    return prefix + cycle[:-1], len(prefix) - 1


def _cycle_search(slice_: FiniteSlice, starts: set, allowed: set):
    """Find a lasso inside ``allowed``: a path from ``starts`` to a cycle.

    Returns (path_nodes, loop_start) or None.
    """
    order, parents = graph.bfs(slice_.edges, starts, allowed)
    reachable = set(order)
    if not reachable:
        return None
    # restrict the graph to reachable-and-allowed nodes and look for a cycle
    nodes = sorted(reachable)
    local = {v: i for i, v in enumerate(nodes)}
    sub_edges = [
        [local[w] for w in slice_.edges[v] if w in reachable]
        for v in nodes
    ]
    sccs, _scc_of = graph.tarjan(len(nodes), sub_edges)
    for members in sccs:
        if graph.is_cyclic(members, sub_edges):
            real = [nodes[i] for i in members]
            entry = min(real)
            return _lasso(slice_, graph.path_to(parents, entry), set(real))
    return None


def oracle_check(
    slice_: FiniteSlice, property_name: str, goal: Nfa | None = None
) -> tuple[bool, Witness | None]:
    """Decide one qualitative property on a finite slice.

    Returns ``(answer, witness)``; the witness demonstrates an existential
    success or a universal counterexample, whichever applies.
    """
    prop = property_name.upper()
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {property_name!r}; expected one of {PROPERTIES}")
    needs_goal = prop not in ("AST", "DF")
    if needs_goal and goal is None:
        raise ValueError(f"property {prop} needs a goal language")
    if goal is not None and goal.alphabet != slice_.alphabet:
        raise ValueError("goal alphabet differs from the slice alphabet")

    # every property looks only at runs from the initial configurations
    order, parents = graph.bfs(slice_.edges, slice_.initial)
    in_goal = (
        frozenset(v for v in order if goal.accepts(slice_.configurations[v]))
        if goal is not None
        else frozenset()
    )
    goal_free = set(order) - in_goal

    if prop == "EF":
        for v in order:
            if v in in_goal:
                return True, _witness(slice_, graph.path_to(parents, v))
        return False, None

    if prop == "EGF":
        for g in sorted(in_goal):
            scc = slice_.sccs[slice_.scc_of[g]]
            if graph.is_cyclic(scc, slice_.edges):
                nodes, loop_start = _lasso(slice_, graph.path_to(parents, g), set(scc))
                return True, _witness(slice_, nodes, kind="lasso", loop_start=loop_start)
        return False, None

    if prop == "AF":
        # a maximal goal-free path ending in a terminating configuration
        af_order, af_parents = graph.bfs(slice_.edges, slice_.initial, goal_free)
        for v in af_order:
            if slice_.is_terminating(v):
                return False, _witness(slice_, graph.path_to(af_parents, v))
        found = _cycle_search(slice_, slice_.initial, goal_free)
        if found is not None:
            nodes, loop_start = found
            return False, _witness(slice_, nodes, kind="lasso", loop_start=loop_start)
        return True, None

    if prop == "AGF":
        # only a reachable goal-avoiding cycle counts against repeated
        # reachability; runs that die out are judged by AST and ASGF instead
        found = _cycle_search(slice_, goal_free, goal_free)
        if found is not None:
            nodes, loop_start = found
            stem = graph.path_to(parents, nodes[0])
            full = stem + nodes[1:]
            return False, _witness(
                slice_, full, kind="lasso", loop_start=loop_start + len(stem) - 1
            )
        return True, None

    goal_free_bottom = {
        si for si in slice_.bottom_sccs if in_goal.isdisjoint(slice_.sccs[si])
    }
    if prop == "ASF":
        asf_order, asf_parents = graph.bfs(slice_.edges, slice_.initial, goal_free)
        for v in asf_order:
            if slice_.scc_of[v] in goal_free_bottom:
                return False, _witness(slice_, graph.path_to(asf_parents, v))
        return True, None

    # the rest fail at the first bad configuration in breadth-first order,
    # so their counterexamples are shortest, then least; a bottom SCC
    # without a cycle is a single terminating configuration
    halting = {
        si for si in slice_.bottom_sccs if not graph.is_cyclic(slice_.sccs[si], slice_.edges)
    }
    if prop == "ASGF":
        # a bottom SCC that halts or never meets the goal
        bad_sccs = goal_free_bottom | halting
    elif prop == "AST":
        # a bottom SCC whose runs go on forever
        bad_sccs = slice_.bottom_sccs - halting
    else:  # DF: a terminating configuration
        bad_sccs = halting
    for v in order:
        if slice_.scc_of[v] in bad_sccs:
            return False, _witness(slice_, graph.path_to(parents, v))
    return True, None


# -- closure lifting -----------------------------------------------------------


def slice_closure(slice_: FiniteSlice) -> frozenset[tuple[Word, Word]]:
    """The reflexive-transitive closure of the slice edges, as word pairs."""
    pairs = set()
    for i, c in enumerate(slice_.configurations):
        order, _parents = graph.bfs(slice_.edges, [i])
        for j in order:
            pairs.add((c, slice_.configurations[j]))
    return frozenset(pairs)


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


def dump_slice(slice_: FiniteSlice) -> str:
    """Stable text dump of a slice: every configuration with its successor
    indices, the initial indices, and the bottom components."""
    lines = [
        f"length: {slice_.length}",
        "alphabet: " + " ".join(slice_.alphabet.symbols),
        "initial: " + " ".join(str(i) for i in sorted(slice_.initial)),
        "configurations:",
    ]
    for i, config in enumerate(slice_.configurations):
        arrow = " ".join(str(j) for j in slice_.edges[i])
        rendered = " ".join(config) if config else "ε"
        lines.append(f"{i}: {rendered} -> {arrow}".rstrip())
    for si in sorted(slice_.bottom_sccs):
        members = " ".join(str(v) for v in slice_.sccs[si])
        lines.append(f"bottom-scc: {members}")
    return "\n".join(lines) + "\n"


# -- random walks ----------------------------------------------------------------


@dataclass(frozen=True)
class SimulationConfig:
    runs: int = 100
    max_steps: int = 1000
    seed: int = 0


@dataclass(frozen=True)
class SimulationStats:
    runs: int
    goal_hit_frequency: float | None
    termination_frequency: float
    mean_steps_to_absorption: float | None


def _fit(array: np.ndarray, size: int) -> np.ndarray:
    """``array``, doubled until it holds ``size`` entries; new entries are -1."""
    while len(array) < size:
        array = np.concatenate([array, np.full_like(array, -1)])
    return array


def simulate(
    rts: Rts, start: Word, config: SimulationConfig, goal: Nfa | None = None
) -> SimulationStats:
    """Seeded random walks from ``start`` that all advance together.

    At each step every live run moves to a successor chosen uniformly by
    index, one draw per live run, or is absorbed at a terminating
    configuration; a run that has moved ``max_steps`` times stops
    unabsorbed.  Configurations are numbered as they are found, and their
    successors listed once, when a run first steps from them; more than
    ``Rts.DEFAULT_SUCCESSOR_CAP`` of them is an error rather than a
    silently biased sample.  A fixed seed reproduces the statistics
    exactly.
    """
    if config.runs < 1 or config.max_steps < 0:
        raise ValueError(
            f"need runs >= 1 and max_steps >= 0, got {config.runs} and {config.max_steps}"
        )
    rts.alphabet.check_word(start)
    if goal is not None and goal.alphabet != rts.alphabet:
        raise ValueError("goal alphabet differs from the system alphabet")
    rng = np.random.default_rng(config.seed)
    words, ids = [start], {start: 0}
    # by configuration id: where its successors start in ``flat``, how many
    # there are, and whether it is a goal configuration; -1 until needed
    offset, degree, flat = (np.full(16, -1, dtype=np.int64) for _ in range(3))
    is_goal = np.full(16, -1, dtype=np.int8)
    filled = 0
    is_goal[0] = goal is not None and goal.accepts(start)
    cur = np.zeros(config.runs, dtype=np.int64)
    hit = np.full(config.runs, is_goal[0], dtype=np.int8)
    hit_runs = absorbed = absorbed_steps = 0
    for step in range(config.max_steps):
        deg = degree[cur]
        if deg.min() < 0:
            for i in sorted(set(cur[deg < 0].tolist())):
                out, truncated = rts.successors(words[i])
                if truncated:
                    raise SuccessorCapExceeded(
                        f"configuration {' '.join(words[i]) or 'ε'} has more successors "
                        f"than the cap of {Rts.DEFAULT_SUCCESSOR_CAP}"
                    )
                # a word's id is its index in ``words``
                row = [ids.setdefault(w, len(ids)) for w in out]
                words += [w for w, j in zip(out, row) if j >= len(words)]
                offset, degree, is_goal = (_fit(a, len(words)) for a in (offset, degree, is_goal))
                flat = _fit(flat, filled + len(row))
                flat[filled : filled + len(row)] = row
                offset[i], degree[i] = filled, len(row)
                filled += len(row)
            deg = degree[cur]
        if deg.min() == 0:
            dead = deg == 0
            n = int(np.count_nonzero(dead))
            absorbed += n
            absorbed_steps += step * n
            hit_runs += int(np.count_nonzero(hit[dead]))
            cur, deg, hit = cur[~dead], deg[~dead], hit[~dead]
            if not cur.size:
                break
        cur = flat[offset[cur] + rng.integers(0, deg)]
        if goal is not None and not hit.all():
            flags = is_goal[cur]
            if flags.min() < 0:
                for i in sorted(set(cur[flags < 0].tolist())):
                    is_goal[i] = goal.accepts(words[i])
                flags = is_goal[cur]
            hit |= flags
    hit_runs += int(np.count_nonzero(hit))
    return SimulationStats(
        runs=config.runs,
        goal_hit_frequency=None if goal is None else hit_runs / config.runs,
        termination_frequency=absorbed / config.runs,
        mean_steps_to_absorption=absorbed_steps / absorbed if absorbed else None,
    )
