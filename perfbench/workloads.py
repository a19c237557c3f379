"""The four workloads: seeded inputs, the calls of one pass, and the checks
that every answer is right.

Each workload is a closed loop with a single caller: the next call starts
when the previous one has returned.  ``setup(seed)`` builds everything a
pass needs, including ``ops``, the calls of one pass as ``(key, call)``
pairs; every pass makes the same calls.  ``check(prepared, records)``
judges the recorded results after the timed region.  Calls go through
attributes of the ``rmc`` modules, looked up at call time, so the traced
run sees them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import rmc
import rmc.cli

import systems
from queries import QUERIES, Query
from tracing import walk_steps


@dataclass
class Record:
    key: object
    seconds: float
    #: What the call returned, or the exception it raised.
    value: object


@dataclass
class Judgement:
    failed: int = 0
    known_defects: int = 0
    problems: list[str] = field(default_factory=list)
    #: Canonical answers of the first pass, in call order, for the digest.
    answers: list[str] = field(default_factory=list)
    #: Simulator steps taken by the recorded calls (walk workloads).
    steps: int = 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.answers).encode("utf-8")).hexdigest()


@dataclass
class Prepared:
    ops: list
    inputs: object


def _data_dir() -> Path:
    return Path(rmc.__file__).resolve().parent / "data"


def _witness_json(witness) -> list | None:
    if witness is None:
        return None
    return [
        witness.kind,
        [rmc.format_word(c) for c in witness.configurations],
        witness.loop_start,
    ]


def _first_answer(judgement: Judgement, first: dict, key, answer: str) -> bool:
    """Record the first answer per key; False when a later pass disagrees."""
    if key not in first:
        first[key] = answer
        judgement.answers.append(answer)
        return True
    return first[key] == answer


# -- symbolic-random -------------------------------------------------------------


class SymbolicRandom:
    """Symbolic checks on random systems restricted to one word length.

    The systems are the first ``corpus`` systems of the acceptance suite's
    stream (seed 2024), the same on every run; the run's seed sets the
    order of the calls.  A few systems make up the heavy tail that sets
    ``check_p99_ms``, so systems drawn afresh from the run's seed moved it
    by about 13% from seed to seed.
    """

    name = "symbolic-random"
    takes_steps = False
    setup_repeats = 3
    CORPUS_SEED = 2024
    PROPERTIES = ("ef", "egf", "deadlock-free", "as-gf", "as-term")
    ORACLE = {"ef": "EF", "egf": "EGF", "deadlock-free": "DF", "as-gf": "ASGF", "as-term": "AST"}
    GOAL_FREE = ("deadlock-free", "as-term")

    def __init__(self, corpus: int = 200):
        self.corpus = corpus

    def setup(self, seed: int) -> Prepared:
        drawn = systems.draw_systems(random.Random(self.CORPUS_SEED), self.corpus)
        ops = []
        for index, system in enumerate(drawn):
            for n in range(1, systems.MAX_LENGTH + 1):
                initial = system.initial.intersect(
                    rmc.length_automaton(system.alphabet, n)
                )
                for prop in self.PROPERTIES:
                    call = functools.partial(self._run, system, initial, prop)
                    ops.append(((index, n, prop), call))
        random.Random(f"{self.name}:{seed}").shuffle(ops)
        return Prepared(ops, drawn)

    def _run(self, system, initial, prop):
        # a fresh Rts per call: every check pays for its own reachable set
        restricted = rmc.Rts(initial, system.delta, reach=system.reach, preach=system.reach)
        goal = None if prop in self.GOAL_FREE else system.goal
        return rmc.run_check(restricted, prop, goal=goal)

    def check(self, prepared: Prepared, records: list[Record]) -> Judgement:
        judgement = Judgement()
        first: dict = {}
        truth: dict = {}
        for record in records:
            index, n, prop = record.key
            label = f"system {index} length {n} {prop}"
            verdict = record.value
            if isinstance(verdict, Exception):
                judgement.fail(f"{label}: raised {verdict!r}")
                continue
            answer = json.dumps(
                [list(record.key), verdict.outcome.value, _witness_json(verdict.witness),
                 verdict.bound_used],
                ensure_ascii=False,
            )
            if not _first_answer(judgement, first, record.key, answer):
                judgement.fail(f"{label}: answer changed between passes")
                continue
            if record.key not in truth:
                system = prepared.inputs[index]
                goal = None if prop in self.GOAL_FREE else system.goal
                truth[record.key] = rmc.oracle_check(
                    system.slices[n - 1], self.ORACLE[prop], goal
                )[0]
            if verdict.holds != truth[record.key]:
                judgement.fail(
                    f"{label}: procedure says {verdict.outcome.value}, "
                    f"oracle says {truth[record.key]}"
                )
        return judgement


# -- bundle-queries ----------------------------------------------------------------


_EXIT_OUTCOME = {0: "HOLDS", 1: "FAILS", 2: "UNKNOWN"}


class BundleQueries:
    """The fixed command table of :mod:`queries`, in a seeded order."""

    name = "bundle-queries"
    takes_steps = False
    setup_repeats = 5
    BUNDLES = ("herman-lp", "herman-grow", "succ-walk", "toggle")

    def __init__(self, queries: tuple[Query, ...] = QUERIES):
        self.queries = queries

    def setup(self, seed: int) -> Prepared:
        data = _data_dir()
        bundles = {
            name: rmc.load_rts_bundle(data / name / "bundle.rts") for name in self.BUNDLES
        }
        order = list(range(len(self.queries)))
        random.Random(f"{self.name}:{seed}").shuffle(order)
        ops = [(i, functools.partial(self._run, self.queries[i].argv)) for i in order]
        return Prepared(ops, bundles)

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rmc.cli.main([*argv, "--json"])
        return code, out.getvalue(), err.getvalue()

    def check(self, prepared: Prepared, records: list[Record]) -> Judgement:
        judgement = Judgement()
        first: dict = {}
        for record in records:
            query = self.queries[record.key]
            label = " ".join(query.argv)
            if isinstance(record.value, Exception):
                judgement.fail(f"{label}: raised {record.value!r}")
                continue
            code, out, err = record.value
            defect = query.defect
            if defect is not None and code == defect.exit and defect.stderr in err:
                judgement.known_defects += 1
                answer = json.dumps([label, code, "known defect", defect.item], ensure_ascii=False)
                _first_answer(judgement, first, record.key, answer)
                continue
            problem, answer = self._judge(query, code, out, err, prepared.inputs)
            if problem is not None:
                judgement.fail(f"{label}: {problem}")
            elif not _first_answer(judgement, first, record.key, answer):
                judgement.fail(f"{label}: answer changed between passes")
        return judgement

    @staticmethod
    def _judge(query: Query, code: int, out: str, err: str, bundles) -> tuple[str | None, str]:
        label = " ".join(query.argv)
        if code != query.exit:
            detail = err.strip().splitlines()[-1] if err.strip() else "no message"
            return f"exit {code}, expected {query.exit} ({detail})", ""
        if code not in _EXIT_OUTCOME:
            return None, json.dumps([label, code], ensure_ascii=False)
        report = json.loads(out)
        if report["outcome"] != _EXIT_OUTCOME[code]:
            return f"outcome {report['outcome']} does not match exit {code}", ""
        witness = report["witness"]
        answer = json.dumps(
            [label, code, report["outcome"], witness, report["bound_used"]], ensure_ascii=False
        )
        if query.replay and witness is not None:
            rts = bundles[query.argv[query.argv.index("--rts") + 1]]
            problem = replay_problem(rts, witness)
            if problem is not None:
                return problem, answer
        return None, answer


def replay_problem(rts, witness: dict) -> str | None:
    """Why a path or lasso witness does not start initial and replay step by
    step under the step relation, or None when it does."""
    configs = [rmc.parse_word(c) for c in witness["configurations"]]
    if not configs:
        return "empty witness"
    if not rts.initial.accepts(configs[0]):
        return f"witness starts outside the initial set at {witness['configurations'][0]}"
    steps = list(zip(configs, configs[1:]))
    if witness["kind"] == "lasso":
        steps.append((configs[-1], configs[witness["loop_start"]]))
    for before, after in steps:
        if not rts.delta.accepts_pair(before, after):
            return (
                f"witness step {rmc.format_word(before)} to "
                f"{rmc.format_word(after)} is not a system step"
            )
    return None


# -- walks -------------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkInputs:
    rts: object
    goal: object


class Walk:
    """``simulate`` calls from one start word, one call per walk seed.

    A pass makes ``corpus`` calls whose walk seeds are the same for every
    run and ``fresh`` calls whose walk seeds come from the run's seed; how
    far a walk strays, and so what it costs, depends on its walk seed, and
    the fixed part keeps that cost alike from run seed to run seed.  Every
    pass repeats the same calls, so passes also check that a walk seed
    gives the same statistics each time.
    """

    takes_steps = True
    setup_repeats = 5

    def __init__(self, name: str, bundle: str, start: str, runs: int, max_steps: int,
                 corpus: int, fresh: int, min_goal_hit: float | None = None):
        self.name = name
        self.bundle = bundle
        self.start = tuple(start)
        self.runs = runs
        self.max_steps = max_steps
        self.corpus = corpus
        self.fresh = fresh
        self.min_goal_hit = min_goal_hit

    def _walk_seed(self, *parts) -> int:
        text = ":".join(map(str, (self.name, *parts))).encode("utf-8")
        return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")

    def setup(self, seed: int) -> Prepared:
        data = _data_dir() / self.bundle
        inputs = WalkInputs(
            rmc.load_rts_bundle(data / "bundle.rts"),
            rmc.load_automaton(data / "one-token.nfa"),
        )
        seeds = [self._walk_seed("corpus", i) for i in range(self.corpus)]
        seeds += [self._walk_seed(seed, i) for i in range(self.fresh)]
        ops = [(s, functools.partial(self._run, inputs, s)) for s in seeds]
        return Prepared(ops, inputs)

    def _run(self, inputs: WalkInputs, walk_seed: int):
        config = rmc.SimulationConfig(runs=self.runs, max_steps=self.max_steps, seed=walk_seed)
        return rmc.simulate(inputs.rts, self.start, config, goal=inputs.goal)

    def check(self, prepared: Prepared, records: list[Record]) -> Judgement:
        judgement = Judgement()
        first: dict = {}
        for record in records:
            label = f"walk seed {record.key}"
            stats = record.value
            if isinstance(stats, Exception):
                judgement.fail(f"{label}: raised {stats!r}")
                continue
            judgement.steps += walk_steps(stats, self.max_steps)
            hit, term = stats.goal_hit_frequency, stats.termination_frequency
            if hit is None or not (0.0 <= hit <= 1.0) or not (0.0 <= term <= 1.0):
                judgement.fail(f"{label}: frequencies out of range in {stats}")
            elif self.min_goal_hit is not None and hit < self.min_goal_hit:
                judgement.fail(f"{label}: goal hit frequency {hit} below {self.min_goal_hit}")
            elif not _first_answer(judgement, first, record.key, json.dumps([record.key, repr(stats)])):
                judgement.fail(f"{label}: the same walk seed gave different statistics")
        if len(first) == len(records) and records:
            # a single pass repeated no call: repeat the first one here
            again = self._run(prepared.inputs, records[0].key)
            if again != records[0].value:
                judgement.fail(f"walk seed {records[0].key}: the same walk seed gave {again}")
        return judgement


WORKLOADS = {
    w.name: w
    for w in (
        SymbolicRandom(),
        BundleQueries(),
        # about 10**6 steps per call over some 250 configurations: after the
        # first misses every step is a memo hit, whatever the walk seed
        Walk("walk-ring", "herman-lp", "⟨••••••••⟩", runs=100, max_steps=10_000,
             corpus=0, fresh=1, min_goal_hit=0.99),
        # the ring grows and shrinks, so successor memo misses dominate
        Walk("walk-grow", "herman-grow", "⟨••◦⟩", runs=20, max_steps=300,
             corpus=7, fresh=1),
    )
}
