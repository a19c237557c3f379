"""Search on finite graphs.

Apart from :func:`closure`, which takes any hashable nodes, nodes are
small integers and adjacency is anything indexable: ``edges[v]`` gives
the successors of ``v`` in the order a search should try them.
Breadth-first searches visit starts in sorted order and successors in
adjacency order, so the paths they report are shortest and, among those,
least by that order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


def closure(starts: Iterable, successors: Callable[[object], Iterable]) -> set:
    """Every node reachable from ``starts``, the starts included, where
    ``successors(v)`` gives the nodes one step from ``v``."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in successors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def bfs(edges, starts: Iterable[int], allowed=None):
    """Shortest-path forest from ``starts``; returns (order, parents).

    ``order`` lists the nodes in the order they were found and ``parents``
    maps each to its predecessor on a shortest path (None for a start).
    ``allowed`` optionally restricts both the start set and the nodes the
    search may enter.
    """
    parents = dict.fromkeys(s for s in sorted(starts) if allowed is None or s in allowed)
    # ``order`` grows while it is walked, which makes this breadth-first
    order = list(parents)
    for v in order:
        for w in edges[v]:
            if w not in parents and (allowed is None or w in allowed):
                parents[w] = v
                order.append(w)
    return order, parents


def path_to(parents: dict, v) -> list:
    """The path from a root of the forest ``parents`` down to ``v``."""
    path = [v]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def cycle_through(edges, v, inside) -> list:
    """A shortest path from a successor of ``v`` back to ``v`` that stays
    inside the set ``inside``; it ends with ``v`` and is ``[v]`` for a
    self-loop.  ``v`` must lie on a cycle within ``inside``."""
    _order, parents = bfs(edges, edges[v], inside)
    return path_to(parents, v)


def is_cyclic(members: Sequence[int], edges) -> bool:
    """Does the strongly connected component ``members`` hold a cycle:
    more than one member, or a single member with a self-loop?"""
    return len(members) > 1 or members[0] in edges[members[0]]


def tarjan(n: int, edges: Sequence[Sequence[int]]):
    """Iterative Tarjan over nodes ``0..n-1``; returns (sccs, scc_of).

    SCCs come out sinks-first (reverse topological), each as a sorted
    tuple of its members; ``scc_of[v]`` is the index of ``v``'s SCC.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            v, ptr = frame
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            out = edges[v]
            while frame[1] < len(out):
                w = out[frame[1]]
                frame[1] += 1
                if index[w] == -1:
                    work.append([w, 0])
                    advanced = True
                    break
                if on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                sccs.append(tuple(sorted(members)))
    scc_of = [0] * n
    for si, members in enumerate(sccs):
        for v in members:
            scc_of[v] = si
    return tuple(sccs), tuple(scc_of)
