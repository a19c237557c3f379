"""The fixed query table of the bundle-queries workload.

Each entry is one ``rmc`` command line, run in-process through
``rmc.cli.main`` with ``--json``.  It carries the exit code it must give
(0 Holds, 1 Fails, 2 Unknown, 3 usage or input error) and the independent
source for that answer: the explicit-state oracle for symbolic and bounded
checks, and the symbolic procedure or the README for oracle and bundle
queries.  Oracle facts quoted here are what ``rmc oracle`` answers on the
herman-lp slices of lengths 1 to 7, where lengths 1 to 3 hold no initial
configuration (a ring needs two cells besides its brackets).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Defect:
    """Today's behaviour of a query that an open roadmap item says is wrong.

    A run that matches it is recorded as a known defect, not as a wrong
    answer; once the item is fixed the query gives its expected exit code.
    """

    item: str
    exit: int
    stderr: str


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    exit: int
    source: str
    #: A witness, when present, must start in the initial set and replay
    #: step by step under the step relation.
    replay: bool = False
    defect: Defect | None = None


HERMAN = ("--rts", "herman-lp")
ONE_TOKEN = ("--goal", "one-token")

_AF_SOURCE = (
    "oracle: AF holds on the slices of lengths 1-4 and fails on length 5, where "
    "two tokens chase each other around a three-cell ring (README example)"
)
_AGF_SOURCE = (
    "oracle: AGF holds on the slices of lengths 1-4 and fails on length 5 "
    "through the same goal-avoiding two-token cycle"
)
_ASF_SOURCE = (
    "oracle: ASF holds on every slice of lengths 1-{n}, and init.nfa accepts "
    "rings of every length, so a per-length check must answer Unknown "
    "(README, 'Ground truth and honesty')"
)
_OVER_CAP = Defect(
    item="ROADMAP item 1: an over-cap bounded check exits 3 instead of Unknown",
    exit=3,
    stderr="slice would hold 262144 configurations",
)


def _bounded(prop: str, bound: int, exit_: int, source: str, defect=None) -> Query:
    argv = ("check", prop, *HERMAN, *ONE_TOKEN, "--max-length", str(bound))
    return Query(argv, exit_, source, replay=True, defect=defect)


def _oracle(prop: str, exit_: int, source: str) -> Query:
    goal = () if prop in ("as-term", "deadlock-free") else ONE_TOKEN
    argv = ("oracle", *HERMAN, "--length", "7", "--property", prop, *goal)
    return Query(argv, exit_, source, replay=True)


def _check(bundle: str, prop: str, goal: str | None, exit_: int, source: str,
           replay: bool = False) -> Query:
    argv = ("check", prop, "--rts", bundle) + (("--goal", goal) if goal else ())
    return Query(argv, exit_, source, replay=replay)


QUERIES: tuple[Query, ...] = (
    *(_bounded("af", m, 1, _AF_SOURCE) for m in (5, 7, 9)),
    *(_bounded("agf", m, 1, _AGF_SOURCE) for m in (5, 7, 9)),
    *(_bounded("as-f", m, 2, _ASF_SOURCE.format(n=m)) for m in (5, 6, 7, 8)),
    # The length-9 slice holds 4**9 = 262144 configurations, above the
    # oracle's cap of 200000.  The right answer is Unknown with the last
    # length fully checked; today the command stops with a usage error.
    _bounded("as-f", 9, 2, _ASF_SOURCE.format(n=8), defect=_OVER_CAP),
    _oracle("ef", 0, "symbolic: check ef --goal one-token holds"),
    _oracle("egf", 0, "symbolic: check egf --goal one-token holds by the loop route"),
    _oracle("af", 1, "bounded: check af --max-length 7 fails (two-token chase)"),
    _oracle("agf", 1, "bounded: check agf --max-length 7 fails (two-token chase)"),
    _oracle("as-f", 0, "README: reaching a single token happens almost surely"),
    _oracle("as-gf", 0, "symbolic: check as-gf --goal one-token holds (README example)"),
    _oracle("as-term", 1, "symbolic: check as-term fails; tokens merge but never vanish"),
    _oracle("deadlock-free", 0, "symbolic: check deadlock-free holds"),
    _check("herman-lp", "ef", "one-token", 0, "oracle: EF holds on every slice of lengths 4-7"),
    _check("herman-lp", "egf", "one-token", 0, "oracle: EGF holds on every slice of lengths 4-7"),
    _check("herman-lp", "egf-loop", "one-token", 0, "oracle: EGF holds on every slice of lengths 4-7"),
    _check("herman-lp", "egf-clique", "one-token", 1,
           "procedure docs: the growth route fails at once on length-preserving systems"),
    _check("herman-lp", "as-gf", "one-token", 0, "oracle: ASGF holds on every slice of lengths 1-7"),
    _check("herman-lp", "as-term", None, 1, "oracle: AST fails on every slice of lengths 4-7",
           replay=True),
    _check("herman-lp", "deadlock-free", None, 0, "oracle: DF holds on every slice of lengths 1-7"),
    _check("succ-walk", "egf", "all", 0,
           "README: succ-walk's single run grows forever, an endless chain into the goal 'all'"),
    _check("succ-walk", "egf-clique", "all", 0,
           "README: succ-walk's single run grows forever, an endless chain into the goal 'all'"),
    _check("toggle", "ef", "done", 0, "oracle: EF holds on the length-1 slice, toggle's only one"),
    _check("toggle", "as-term", None, 0, "oracle: AST holds on the length-1 slice"),
    _check("toggle", "deadlock-free", None, 1, "oracle: DF fails on the length-1 slice (b halts)",
           replay=True),
    _check("toggle", "as-gf", "done", 1, "oracle: ASGF fails on the length-1 slice (b halts)",
           replay=True),
    _check("toggle", "af", "done", 0,
           "oracle: AF holds on the length-1 slice, and every initial word has length 1"),
    *(
        Query(("abstract", "validate", "--rts", bundle), 0,
              "README: loading and abstract validate accept every shipped bundle")
        for bundle in ("herman-lp", "succ-walk", "toggle")
    ),
)
