"""Explicit-state oracle over fixed-length configuration slices.

A length-preserving system restricted to words of one length is a finite
graph, so every property the symbolic procedures decide can be recomputed
here by brute force: reachability, cycles, strongly connected components,
bottom SCCs, and seeded random walks.  :func:`oracle_check` decides
most properties by a breadth-first walk from the initial configurations
that stops at the first configuration meeting the property's stopping
rule, and finds lassos with one cycle search.  One capped breadth-first
walk through the system's successors, :func:`slice_walk`, builds every
slice and every stepwise witness path of :mod:`rmc.procedures`.  The
oracle exists to cross-check the transducer-based procedures and to lift
explicitly computed closures back into transducer form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from . import graph
from .alphabet import Alphabet, PairAlphabet, Word
from .errors import CapExceeded, NotLengthPreserving, SuccessorCapExceeded
from .nfa import Nfa
from .rts import Rts, Stepper
from .transducer import Transducer
from .verdict import Witness

if TYPE_CHECKING:
    import numpy as np

PROPERTIES = ("EF", "EGF", "AF", "AGF", "ASF", "ASGF", "AST", "DF")

DEFAULT_CONFIG_CAP = 200_000
# simulate draws integers below _SPAN, about _BLOCK of them at a time
_SPAN, _BLOCK = 2**62, 65536


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
    if reachable:
        roots = starts = rts.initial.words_of_length(length, config_cap)
    else:
        total = len(alphabet) ** length
        if total > config_cap:
            raise CapExceeded(
                f"slice would hold {total} configurations, above the cap of {config_cap}"
            )
        roots = list(itertools.product(alphabet.symbols, repeat=length))
        starts = [c for c in roots if rts.initial.accepts(c)]
    _parents, found = slice_walk(rts, roots, config_cap)
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


def slice_walk(rts: Rts, roots, cap: int, target: Word | None = None) -> tuple[dict, dict]:
    """Breadth-first from ``roots`` through the successors of one
    :class:`~rmc.rts.Stepper`, each in alphabet order, until ``target`` is
    found; the stepper keeps its prefix levels and decoded words for this
    walk alone.  ``(parents, successors)``
    map each configuration found to the one it was first found from (None
    for a root) and each one stepped to its successors.  Raises
    :class:`CapExceeded` when ``roots`` is None (``words_of_length`` found
    more than ``cap``), when a configuration has more than ``cap``
    successors, or when it steps one after finding more than ``cap``."""
    over_cap = f"slice would hold more than the cap of {cap} reachable configurations"
    if roots is None:
        raise CapExceeded(over_cap)
    parents = dict.fromkeys(roots)
    successors: dict = {}
    stepper = Stepper(rts)
    # ``order`` grows while it is walked, which makes this breadth-first
    order = list(parents)
    for config in order:
        if target in parents:
            break
        successors[config], truncated = stepper(config, cap)
        if truncated or len(parents) > cap:
            raise CapExceeded(over_cap)
        for successor in successors[config]:
            if successor not in parents:
                parents[successor] = config
                order.append(successor)
    return parents, successors


def _witness(slice_: FiniteSlice, parents: dict, v: int, loop: set | None = None) -> Witness:
    """The path ``parents`` gives to ``v``; with ``loop``, a set of nodes
    in which ``v`` lies on a cycle, a lasso closed by a shortest such
    cycle.  By convention the last configuration of a lasso steps back to
    ``loop_start``, so ``v`` is not repeated."""
    nodes = graph.path_to(parents, v)
    loop_start = None
    if loop is not None:
        loop_start = len(nodes) - 1
        nodes += graph.cycle_through(slice_.edges, v, loop)[:-1]
    return Witness(
        "path" if loop is None else "lasso",
        tuple(slice_.configurations[i] for i in nodes),
        loop_start,
    )


def _cycle_search(slice_: FiniteSlice, reached: set, parents: dict) -> Witness | None:
    """A lasso inside ``reached``, whose nodes ``parents`` has paths to:
    the first cyclic component Tarjan's search closes, entered at its
    least member, or None.  The search keeps the slice's numbering and
    takes only the edges between reached nodes."""
    edges = [
        [w for w in out if w in reached] if v in reached else ()
        for v, out in enumerate(slice_.edges)
    ]
    sccs, _scc_of = graph.tarjan(len(edges), edges)
    for members in sccs:
        if graph.is_cyclic(members, edges):
            return _witness(slice_, parents, members[0], set(members))
    return None


def oracle_check(
    slice_: FiniteSlice, property_name: str, goal: Nfa | None = None
) -> tuple[bool, Witness | None]:
    """Decide one qualitative property on a finite slice.

    Returns ``(answer, witness)``; the witness demonstrates an existential
    success or a universal counterexample, whichever applies.  Every
    property looks only at runs from the initial configurations, whose
    breadth-first search gives the reachable goal-free part.  EGF takes
    the least reachable goal configuration on a cycle, and AGF the first
    goal-free cycle Tarjan's search closes.  The others walk breadth-first
    from the initial configurations, inside the goal-free part for AF and
    ASF, and stop at the first configuration that meets their stopping
    rule, so the path to it is shortest, then least.  EF holds when the
    walk stops and the others when it does not; AF also needs no
    goal-free lasso.
    """
    prop = property_name.upper()
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {property_name!r}; expected one of {PROPERTIES}")
    needs_goal = prop not in ("AST", "DF")
    if needs_goal and goal is None:
        raise ValueError(f"property {prop} needs a goal language")
    if goal is not None and goal.alphabet != slice_.alphabet:
        raise ValueError("goal alphabet differs from the slice alphabet")

    edges, sccs, scc_of, bottom = slice_.edges, slice_.sccs, slice_.scc_of, slice_.bottom_sccs
    order, parents = graph.bfs(edges, slice_.initial)
    goal_free = frozenset(
        v for v in order if goal is None or not goal.accepts(slice_.configurations[v])
    )
    if prop == "EGF":
        for g in sorted(v for v in order if v not in goal_free):
            if graph.is_cyclic(sccs[scc_of[g]], edges):
                return True, _witness(slice_, parents, g, set(sccs[scc_of[g]]))
        return False, None
    if prop == "AGF":
        # only a reachable goal-avoiding cycle counts against repeated
        # reachability; runs that die out are judged by AST and ASGF instead
        lasso = _cycle_search(slice_, goal_free, parents)
        return lasso is None, lasso
    if prop in ("AF", "ASF"):
        order, parents = graph.bfs(edges, slice_.initial, goal_free)
    if prop in ("ASF", "ASGF"):
        avoiding = {si for si in bottom if goal_free.issuperset(sccs[si])}
    # the stopping rules; a bottom component that halts is a single
    # terminating configuration
    stops = {
        "EF": lambda v: v not in goal_free,
        "AF": slice_.is_terminating,
        "ASF": lambda v: scc_of[v] in avoiding,
        "ASGF": lambda v: scc_of[v] in avoiding or slice_.is_terminating(v),
        "AST": lambda v: scc_of[v] in bottom and not slice_.is_terminating(v),
        "DF": slice_.is_terminating,
    }[prop]
    stop = next((v for v in order if stops(v)), None)
    if stop is not None:
        return prop == "EF", _witness(slice_, parents, stop)
    if prop == "AF":
        lasso = _cycle_search(slice_, set(order), parents)
        return lasso is None, lasso
    return prop != "EF", None


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
    """Lift a finite set of equal-length word pairs into its minimal transducer.

    The pairs go into a trie keyed by ``(top, bottom)`` tuples, with no
    convolution built.  One depth-first walk in pair order numbers the
    nodes in pre-order and, on the way back up, puts each node in the class
    of its acceptance and its children's classes (bottom-up minimization of
    an acyclic automaton), named by its deepest member, then least number.
    """
    known = frozenset(alphabet.symbols)  # check_word runs on a miss, to raise its error
    trie: dict = {}
    for x, y in pairs:
        if len(x) != len(y):
            raise NotLengthPreserving(f"pair lengths differ: {len(x)} vs {len(y)}")
        if not (known.issuperset(x) and known.issuperset(y)):
            alphabet.check_word(x)
            alphabet.check_word(y)
        node = trie
        for key in zip(x, y):
            node = node.setdefault(key, {})
        node[()] = None  # a pair ends here; the empty key sorts before every pair
    if not trie:
        return Transducer(alphabet, alphabet, (), {}, (), ())

    classes: dict = {}  # signature to class, numbered as found
    named: list = []  # by class: the depth and number of the member it is named by
    path = [((), trie, iter(sorted(trie)), [], 0)]  # key, node, keys left, moves, number
    count = 1
    while path:
        _key, node, keys, moves, number = path[-1]
        for key in keys:
            if key:
                child = node[key]
                path.append((key, child, iter(sorted(child)), [], count))
                count += 1
                break
        else:
            key = path.pop()[0]
            c = classes.setdefault((() in node, tuple(moves)), len(named))
            if c == len(named):
                named.append((len(path), number))
            elif len(path) > named[c][0]:  # equally deep members come least number first
                named[c] = (len(path), number)
            if path:
                path[-1][3].append((key, c))

    names = [number for _depth, number in named]
    symbols = {s: s for s in PairAlphabet(alphabet, alphabet)}  # each PairSymbol once
    transitions: dict = {}
    final = []
    for c, (accepting, moves) in sorted(enumerate(classes), key=lambda cs: names[cs[0]]):
        if accepting:
            final.append(names[c])
        for key, d in moves:
            transitions[(names[c], symbols[key])] = (names[d],)
    # the root is numbered 0 and alone in its class
    return Transducer(alphabet, alphabet, sorted(names), transitions, [0], final)


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
    import numpy as np

    while len(array) < size:
        array = np.concatenate([array, np.full_like(array, -1)])
    return array


def simulate(
    rts: Rts, start: Word, config: SimulationConfig, goal: Nfa | None = None
) -> SimulationStats:
    """Seeded random walks from ``start`` that all advance together.

    At each step every live run moves to a successor chosen uniformly by
    index, or is absorbed at a terminating configuration; a run that has
    moved ``max_steps`` times stops unabsorbed.  Configurations are
    numbered as they are found, and their successors listed once, when a
    run first steps from them, by one :class:`~rmc.rts.Stepper` that keeps
    its prefix levels and decoded words until the call returns; more than
    ``Rts.DEFAULT_SUCCESSOR_CAP`` of them is an error rather than a
    silently biased sample.  Draws come in
    blocks, a row per step and a column per run; run j always reads column
    j, so its walk does not depend on when other runs are absorbed.  Of d
    successors a draw u, uniform below ``_SPAN``, picks ``u // w`` where
    ``w = _SPAN // d``: each pick below d has exactly w preimages, so it
    is exactly uniform, and a pick of d (``u >= d * w > _SPAN - d``) is
    redrawn.  A fixed seed reproduces the statistics exactly.  numpy is
    imported here, not with the module, so that only the walks load it.
    """
    import numpy as np

    if config.runs < 1 or config.max_steps < 0:
        raise ValueError(
            f"need runs >= 1 and max_steps >= 0, got {config.runs} and {config.max_steps}"
        )
    rts.alphabet.check_word(start)
    if goal is not None and goal.alphabet != rts.alphabet:
        raise ValueError("goal alphabet differs from the system alphabet")
    rng = np.random.default_rng(config.seed)
    stepper = Stepper(rts)
    words, ids = [start], {start: 0}
    # by configuration id: where its successors start in ``flat``, the width
    # w of a pick (0 at a dead end) and whether it is a goal; -1 until needed
    offset, widths, flat = (np.full(16, -1, dtype=np.int64) for _ in range(3))
    is_goal = np.full(16, -1, dtype=np.int8)
    filled = settled = 0
    is_goal[0] = goal is not None and goal.accepts(start)
    # rare events are looked for only while they can happen: runs at a
    # configuration not settled (expanded, with successors), and unhit goals
    watching = goal is not None and not is_goal[0]
    cur, slots = np.zeros(config.runs, dtype=np.int64), np.arange(config.runs)
    hit = np.full(config.runs, is_goal[0], dtype=np.int8)
    block, row = np.empty((0, config.runs), dtype=np.int64), 0
    hit_runs = absorbed = absorbed_steps = 0
    for step in range(config.max_steps):
        width = widths[cur]
        if settled < len(words) and width.min() <= 0:
            misses, lists = sorted(set(cur[width < 0].tolist())), []
            for i in misses:
                out, truncated = stepper(words[i], Rts.DEFAULT_SUCCESSOR_CAP)
                if truncated:
                    raise SuccessorCapExceeded(
                        f"configuration {' '.join(words[i]) or 'ε'} has more successors "
                        f"than the cap of {Rts.DEFAULT_SUCCESSOR_CAP}"
                    )
                # a word's id is its index in ``words``
                lists.append([ids.setdefault(w, len(ids)) for w in out])
                words += [w for w, j in zip(out, lists[-1]) if j >= len(words)]
            offset, widths, is_goal = (_fit(a, len(words)) for a in (offset, widths, is_goal))
            flat = _fit(flat, filled + sum(map(len, lists)))
            for i, succ in zip(misses, lists):
                flat[filled : filled + len(succ)] = succ
                offset[i], widths[i] = filled, _SPAN // len(succ) if succ else 0
                filled += len(succ)
            settled += sum(map(bool, lists))
            width = widths[cur]
            if (dead := width == 0).any():
                n = int(np.count_nonzero(dead))
                absorbed += n
                absorbed_steps += step * n
                hit_runs += int(np.count_nonzero(hit[dead]))
                cur, width, hit, slots = cur[~dead], width[~dead], hit[~dead], slots[~dead]
                block, row = block[row:, ~dead], 0
                if not cur.size:
                    break
        if row == len(block):
            size = (min(max(1, _BLOCK // config.runs), config.max_steps - step), config.runs)
            block = rng.integers(0, _SPAN, size=size, dtype=np.int64)[:, slots]
            # d is at most the cap, so only such a draw can pick d
            row, risky = 0, block.max() >= _SPAN - Rts.DEFAULT_SUCCESSOR_CAP
        pick = block[row] // width
        row += 1
        # d is _SPAN // w, as d * (d + 1) < _SPAN
        while risky and (bad := pick >= _SPAN // width).any():
            pick[bad] = rng.integers(0, _SPAN, size=bad.sum(), dtype=np.int64) // width[bad]
        cur = flat[offset[cur] + pick]
        if watching:
            flags = is_goal[cur]
            if flags.min() < 0:
                for i in sorted(set(cur[flags < 0].tolist())):
                    is_goal[i] = goal.accepts(words[i])
                flags = is_goal[cur]
            hit |= flags
            watching = not hit.all()
    hit_runs += int(np.count_nonzero(hit))
    return SimulationStats(
        runs=config.runs,
        goal_hit_frequency=None if goal is None else hit_runs / config.runs,
        termination_frequency=absorbed / config.runs,
        mean_steps_to_absorption=absorbed_steps / absorbed if absorbed else None,
    )
