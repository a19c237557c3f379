"""Span tracing installed from outside ``rmc``.

:func:`install` puts timing wrappers on the public methods of ``Nfa``,
``Transducer`` and ``Rts`` (on the class, so every instance and subclass
sees them) and on module functions in every ``rmc`` namespace that binds
them: ``procedures`` and ``cli`` import ``build_slice``, ``run_check`` and
friends by name, so wrapping only the defining module would miss those
calls.  Spans are kept in flat arrays while the run lasts and written out
when it ends.  A span's self time is its duration minus the time its child
spans cover; the self times of a tree add up to its root's duration.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Tracer:
    """An in-memory span recorder for one single-threaded run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.nested = array("b")  # an ancestor span has the same name
        self._stack: list[int] = []
        self._open: dict[int, int] = {}
        self.op_id = -1
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        depth = self._open.get(nid, 0)
        self.nested.append(1 if depth else 0)
        self._open[nid] = depth + 1
        self._stack.append(i)
        self.end.append(-1)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")
        self._open[self.name[i]] -= 1

    def innermost(self) -> int:
        return self.name[self._stack[-1]] if self._stack else -1

    def inside(self, name: str) -> bool:
        return self._open.get(self._ids.get(name, -1), 0) > 0

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def table(self) -> "SpanTable":
        """A numpy copy of the spans recorded so far, for analysis."""
        return SpanTable(self)


def _column(values: array, dtype) -> np.ndarray:
    return np.frombuffer(values, dtype=dtype).copy()


class SpanTable:
    """Recorded spans as numpy columns; row ``i`` is span ``i``.

    ``own`` is each span's self time: its duration minus the durations of
    its direct children.
    """

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = _column(tracer.name, np.int32)
        self.parent = _column(tracer.parent, np.int32)
        self.op = _column(tracer.op, np.int32)
        self.start = _column(tracer.start, np.int64)
        self.end = _column(tracer.end, np.int64)
        self.nested = _column(tracer.nested, np.int8).astype(bool)
        self.still_open = len(tracer._stack)
        self.duration = self.end - self.start
        child = np.nonzero(self.parent >= 0)[0]
        covered = np.bincount(
            self.parent[child], weights=self.duration[child], minlength=len(self.name)
        )
        self.own = self.duration - covered.astype(np.int64)

    def __len__(self) -> int:
        return len(self.name)

    def summary(self) -> dict[str, "SpanStats"]:
        """Calls, total and self time per span name.  Total time counts only
        spans with no same-named ancestor, so recursion is not doubled."""
        k = len(self.names)
        calls = np.bincount(self.name, minlength=k)
        own = np.bincount(self.name, weights=self.own, minlength=k)
        outer = ~self.nested
        total = np.bincount(self.name[outer], weights=self.duration[outer], minlength=k)
        return {
            name: SpanStats(int(calls[i]), int(total[i]), int(own[i]))
            for i, name in enumerate(self.names)
        }

    def problems(self, limit: int = 20) -> list[str]:
        """Ways the span tree is malformed; empty when it is well formed."""
        found = []
        if self.still_open:
            found.append(f"{self.still_open} spans still open")
        index = np.arange(len(self.name))
        child = self.parent >= 0
        parent = np.where(child, self.parent, 0)
        checks = (
            (self.end < self.start, "ends before it starts"),
            (child & ((self.start < self.start[parent]) | (self.end > self.end[parent])),
             "is not inside its parent"),
            (child & (self.parent >= index), "opened before its parent"),
            (self.own < 0, "has negative self time"),
        )
        for mask, what in checks:
            for i in np.nonzero(mask)[0][:limit]:
                found.append(f"span {i} ({self.names[self.name[i]]}) {what}")
        return found

    def write(self, path) -> None:
        """Write the spans as compressed numpy columns: span ``i`` has name
        ``names[name[i]]``, parent row ``parent[i]`` (-1 for a root),
        operation ``op[i]`` and start and end in nanoseconds."""
        np.savez_compressed(
            path, names=np.array(self.names), name=self.name, parent=self.parent,
            op=self.op, start_ns=self.start, end_ns=self.end,
        )


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


# -- wrappers ---------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One callable to wrap: ``owner.attr`` becomes span ``name``.

    ``fold`` merges a call made directly inside a span of the same name
    into that span (``is_empty`` calls ``shortest_word``; both are one
    search).  ``sizer(tracer, result, args, kwargs)`` records size counts
    after the span closes; ``on_error(tracer, exc)`` sees what it raised.
    """

    name: str
    owner: object
    attr: str
    fold: bool = False
    sizer: Callable | None = None
    on_error: Callable | None = None


def _wrap(tracer: Tracer, spec: Spec, fn: Callable) -> Callable:
    nid = tracer.name_id(spec.name)
    fold, sizer, on_error = spec.fold, spec.sizer, spec.on_error

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if fold and tracer.innermost() == nid:
            return fn(*args, **kwargs)
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(tracer, exc)
            raise
        finally:
            tracer.close(i)
        if sizer is not None:
            sizer(tracer, result, args, kwargs)
        return result

    return traced


def install(tracer: Tracer, specs) -> Callable[[], None]:
    """Install wrappers for ``specs``; returns a function that removes them.

    A class attribute is replaced on its class.  A module function is
    replaced in every loaded ``rmc`` module (and the ``rmc`` package) that
    binds the same function object.
    """
    undo: list[tuple[object, str, object]] = []
    namespaces = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "rmc" or name.startswith("rmc."))
    ]
    for spec in specs:
        if isinstance(spec.owner, type):
            original = spec.owner.__dict__[spec.attr]
            undo.append((spec.owner, spec.attr, original))
            setattr(spec.owner, spec.attr, _wrap(tracer, spec, original))
            continue
        original = getattr(spec.owner, spec.attr)
        wrapper = _wrap(tracer, spec, original)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- the rmc layers -------------------------------------------------------------------


def _result_states(key: str):
    def sizer(tracer, result, _args, _kwargs):
        tracer.add(key, len(result.states))

    return sizer


def _successor_words(tracer, result, _args, _kwargs):
    tracer.add("rts.successors.words", len(result[0]))
    if tracer.inside("oracle.simulate"):
        tracer.add("oracle.simulate.memo_misses")


def reachable_count(slice_) -> int:
    """Configurations reachable from the slice's initial set (BFS over edges)."""
    seen = set(slice_.initial)
    queue = deque(seen)
    edges = slice_.edges
    while queue:
        for w in edges[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen)


def _slice_sizes(tracer, result, _args, _kwargs):
    i = tracer.open(tracer.name_id("bench.sizes"))
    try:
        tracer.add("oracle.build_slice.configurations", len(result.configurations))
        tracer.add("oracle.build_slice.reachable", reachable_count(result))
    finally:
        tracer.close(i)


def _slice_error(tracer, exc):
    from rmc.errors import CapExceeded

    if isinstance(exc, CapExceeded):
        tracer.add("oracle.build_slice.cap_exceeded")


def walk_steps(stats, max_steps: int) -> int:
    """Steps a simulate call took, from its returned statistics."""
    terminated = round(stats.termination_frequency * stats.runs)
    mean = stats.mean_steps_to_absorption or 0.0
    return round((stats.runs - terminated) * max_steps + terminated * mean)


def _simulate_steps(tracer, result, args, kwargs):
    config = kwargs["config"] if "config" in kwargs else args[2]
    tracer.add("oracle.simulate.steps", walk_steps(result, config.max_steps))


#: Property names of the check procedures, as ``run_check`` spells them.
PROCEDURES = {
    "check_ef": "ef",
    "check_egf": "egf",
    "check_egf_loop": "egf-loop",
    "check_egf_clique": "egf-clique",
    "check_af_bounded": "af",
    "check_agf_bounded": "agf",
    "check_as_f_bounded": "as-f",
    "check_as_gf": "as-gf",
    "check_as_termination": "as-term",
    "check_deadlock_freedom": "deadlock-free",
}


def rmc_specs() -> list[Spec]:
    """The layer boundaries of ``rmc`` that the traced run records."""
    from rmc import abstraction, cli, formats, nfa, oracle, procedures, transducer
    from rmc.nfa import Nfa
    from rmc.rts import Rts
    from rmc.transducer import Transducer

    specs = [
        Spec("nfa.init", Nfa, "__init__"),
        Spec("nfa.intersect", Nfa, "intersect", sizer=_result_states("nfa.intersect.result_states")),
        Spec("nfa.complement", Nfa, "complement", sizer=_result_states("nfa.complement.result_states")),
        Spec("nfa.trim", Nfa, "trim"),
        Spec("nfa.accepts", Nfa, "accepts"),
        Spec("nfa.enumerate_words", Nfa, "enumerate_words"),
    ]
    specs += [
        Spec("nfa.search", Nfa, attr, fold=True)
        for attr in ("shortest_word", "is_empty", "includes")
    ]
    specs += [
        Spec("nfa.search", nfa, "constrained_search", fold=True),
        Spec("transducer.compose", Transducer, "compose",
             sizer=_result_states("transducer.compose.result_states")),
        Spec("transducer.post_image", Transducer, "post_image"),
        Spec("transducer.pre_image", Transducer, "pre_image"),
        Spec("transducer.project", Transducer, "project"),
        Spec("transducer.relation_difference_identity", transducer, "relation_difference_identity"),
        Spec("transducer.diagonal", transducer, "diagonal"),
        Spec("rts.reachable_set", Rts, "reachable_set",
             sizer=_result_states("rts.reachable_set.result_states")),
        Spec("rts.terminating", Rts, "terminating"),
        Spec("rts.successors", Rts, "successors", sizer=_successor_words),
        Spec("procedures.run_check", procedures, "run_check"),
    ]
    specs += [
        Spec(f"procedures.{prop}", procedures, fn) for fn, prop in PROCEDURES.items()
    ]
    specs += [
        Spec("oracle.build_slice", oracle, "build_slice", sizer=_slice_sizes, on_error=_slice_error),
        Spec("oracle.oracle_check", oracle, "oracle_check"),
        Spec("oracle.slice_closure", oracle, "slice_closure"),
        Spec("oracle.relation_to_transducer", oracle, "relation_to_transducer"),
        Spec("oracle.simulate", oracle, "simulate", sizer=_simulate_steps),
        Spec("formats.load_rts_bundle", formats, "load_rts_bundle"),
        Spec("cli.main", cli, "main"),
        Spec("abstraction.validate_preach", abstraction, "validate_preach"),
    ]
    return specs
