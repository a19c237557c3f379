"""The growth route as it was written before it became one comb walk on the
shared kernel index, kept verbatim as the reference that
``tests/test_procedures.py`` compares :func:`rmc.check_egf_clique` with.

It keeps a private index of the chain (``_pair_index``), its own queue
(``explore``) and a separate parent map for each stage.
"""

from __future__ import annotations

import itertools

from rmc import graph
from rmc.alphabet import PAD, Word
from rmc.nfa import Nfa
from rmc.procedures import _check_goal, check_egf_loop
from rmc.rts import Rts
from rmc.transducer import Transducer, identity_on
from rmc.verdict import Verdict, Witness, fails, holds


def _pair_index(t: Transducer):
    real: dict = {}
    pad_bottom: dict = {}
    for (q, sym), dsts in t.transitions.items():
        if sym.top == PAD:
            pad_bottom.setdefault((q, sym.bottom), []).extend(dsts)
        elif sym.bottom != PAD:
            real.setdefault((q, sym.top, sym.bottom), []).extend(dsts)
    return real, pad_bottom


def check_egf_clique(rts: Rts, goal: Nfa) -> Verdict:
    """Growth route: find an endless chain of ever-longer configurations,
    each reachable from the one before it and landing in the goal.

    The chain is presented as a comb: a growing common prefix with a
    divergent tail per element.  The route only looks for combs whose
    prefix and tail grow in lockstep, so it can miss chains that exist
    in some other shape; a Fails verdict means no comb of this shape was
    found.  Length-preserving systems have no growing chains at all, so
    they fail this route immediately.
    """
    _check_goal(rts, goal)
    if rts.length_preserving:
        return fails(
            note="the growth route does not apply to length-preserving systems"
        )
    chain = rts.relation().compose(identity_on(goal))
    if chain.is_empty():
        return fails(note="no reachability pair lands in the goal")
    reach_lang = rts.reachable_set()
    if not reach_lang.states:
        return fails(note="the reachable set is empty")

    real, pad_bottom = _pair_index(chain)
    final = chain.final
    symbols = rts.alphabet.symbols

    def explore(parents: dict, labels: dict, first_step: dict):
        """Breadth-first from the roots in ``parents`` over state triples:
        the first component reads a top-track letter x through
        ``first_step``, the second runs the chain relation from x to a
        bottom-track letter y, and the third runs it diagonally on y.
        Yields every edge as (source, target, (x, y)) and records the tree
        edge into each newly found state in ``parents`` and ``labels``."""
        queue = list(parents)
        head = 0
        while head < len(queue):
            source = queue[head]
            head += 1
            a, b, c = source
            for x in symbols:
                a_next = first_step.get((a, x))
                if not a_next:
                    continue
                for y in symbols:
                    b_next = real.get((b, x, y))
                    if not b_next:
                        continue
                    c_next = real.get((c, y, y))
                    if not c_next:
                        continue
                    for target in itertools.product(a_next, b_next, c_next):
                        yield source, target, (x, y)
                        if target not in parents:
                            parents[target] = source
                            labels[target] = (x, y)
                            queue.append(target)

    def spelled(parents: dict, labels: dict, state) -> tuple[Word, Word]:
        """The top- and bottom-track words read on the way into ``state``."""
        letters = [labels[v] for v in graph.path_to(parents, state)[1:]]
        return tuple(x for x, _y in letters), tuple(y for _x, y in letters)

    # stage one: read a reachable word on the top track while running the
    # chain relation against a same-length prospective prefix on the bottom
    # track, and the prefix against itself diagonally; the roots come in
    # state order, so the witness does not depend on set iteration order
    starts = [q for q in chain.states if q in chain.initial]
    stage_parents = dict.fromkeys(itertools.product(
        [s for s in reach_lang.states if s in reach_lang.initial], starts, starts
    ))
    stage_labels: dict = {}
    for _edge in explore(stage_parents, stage_labels, reach_lang.transitions):
        pass
    entry_nodes: dict = {}
    for s, b, c in stage_parents:
        if s in reach_lang.final:
            entry_nodes.setdefault((b, c), (s, b, c))
    if not entry_nodes:
        return fails(note="no reachable configuration starts a comb")

    def edges_from(node):
        q1, q2 = node
        parents: dict = {(q1, q2, q2): None}
        labels: dict = {}
        out: dict = {}
        for source, (a2, b2, c2), (x, y) in explore(parents, labels, pad_bottom):
            if a2 in final and (b2, c2) not in out:
                xs, ys = spelled(parents, labels, source)
                out[(b2, c2)] = (xs + (x,), ys + (y,))
        return out

    # stage two: saturate the comb graph from the entry nodes; the closure
    # visits each node once, and ``comb`` is read in sorted order
    comb: dict = {}
    graph.closure(entry_nodes, lambda node: comb.setdefault(node, edges_from(node)))
    nodes = sorted(comb)
    position = {node: i for i, node in enumerate(nodes)}
    adjacency = [sorted(position[t] for t in comb[node]) for node in nodes]
    sccs, scc_of = graph.tarjan(len(nodes), adjacency)
    cyclic = {si for si, members in enumerate(sccs) if graph.is_cyclic(members, adjacency)}
    if not cyclic:
        return fails(note="no comb of reachable configurations can grow forever")

    # the shortest node path from an entry node into a cyclic component,
    # then one lap around that component back to the node it entered by
    order, parents = graph.bfs(adjacency, [position[node] for node in entry_nodes])
    pivot = next(v for v in order if scc_of[v] in cyclic)
    path = graph.path_to(parents, pivot) + graph.cycle_through(
        adjacency, pivot, set(sccs[scc_of[pivot]])
    )

    configuration, prefix = spelled(
        stage_parents, stage_labels, entry_nodes[nodes[path[0]]]
    )
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
    """The repeated-reachability check as it was written then: each route
    builds its own reachable set, and the growth route is the one above."""
    by_loop = check_egf_loop(rts, goal)
    if by_loop.holds:
        return by_loop
    by_clique = check_egf_clique(rts, goal)
    if by_clique.holds:
        return by_clique
    if rts.length_preserving:
        return by_loop
    return fails(note=f"{by_loop.note}; {by_clique.note}")
