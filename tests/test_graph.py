"""Tests for rmc.graph's breadth-first search, against one written here."""

from __future__ import annotations

import random
from collections import deque

from rmc import graph


def _reference_bfs(edges, starts, allowed=None):
    """Breadth-first search with a queue: starts in sorted order, each once,
    then successors in adjacency order; nodes outside ``allowed`` are never
    entered, starts included."""
    enter = (lambda v: True) if allowed is None else (lambda v: v in allowed)
    parents, order = {}, []
    queue: deque = deque()
    for s in sorted(starts):
        if enter(s) and s not in parents:
            parents[s] = None
            order.append(s)
            queue.append(s)
    while queue:
        v = queue.popleft()
        for w in edges[v]:
            if enter(w) and w not in parents:
                parents[w] = v
                order.append(w)
                queue.append(w)
    return order, parents


def test_bfs_pinned_cases():
    # 0 -> 1 -> 2 -> 3, 0 -> 2, self-loops on 1 and 3
    edges = [[2, 1], [1, 2], [3], [3]]
    assert graph.bfs(edges, []) == ([], {})
    assert graph.bfs(edges, [3, 0, 3, 0]) == ([0, 3, 2, 1], {0: None, 3: None, 2: 0, 1: 0})
    # the start 0 and the inner node 2 are not allowed: 3 is out of reach
    assert graph.bfs(edges, [0, 1], allowed={1, 3}) == ([1], {1: None})
    assert graph.bfs(edges, [1, 1], allowed={0, 1, 2, 3}) == ([1, 2, 3], {1: None, 2: 1, 3: 2})
    assert graph.cycle_through(edges, 1, {1}) == [1]


def test_bfs_is_the_reference_bfs():
    """Seeded random graphs with self-loops and parallel edges, unsorted and
    repeated starts, none at all, and ``allowed`` sets that leave out some
    starts and some inner nodes."""
    rng = random.Random(24)
    excluded_start = excluded_inner = self_loops = 0
    for _ in range(2000):
        n = rng.randint(1, 12)
        edges = [[rng.randrange(n) for _ in range(rng.randint(0, 4))] for _ in range(n)]
        starts = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
        allowed = None
        if rng.random() < 0.5:
            allowed = {v for v in range(n) if rng.random() < 0.7}
            excluded_start += any(s not in allowed for s in starts)
            excluded_inner += any(
                w not in allowed for s in starts if s in allowed for w in edges[s]
            )
        self_loops += any(v in edges[v] for v in range(n))
        assert graph.bfs(edges, starts, allowed) == _reference_bfs(edges, starts, allowed)
    assert min(excluded_start, excluded_inner, self_loops) > 100
