"""Quick tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import rmc  # noqa: E402
import rmc.cli  # noqa: E402
import rmc.procedures  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import systems  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from queries import QUERIES  # noqa: E402


def _bench(*args, cwd=ROOT, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "RMC_STATE_CAP"}
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _one_pass(workload, prepared):
    return [
        workloads.Record(key, 0.0, call())
        for key, call in prepared.ops
    ]


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_appears_with_its_unit(tmp_path):
    small = workloads.Walk("walk-grow", "herman-grow", "⟨••◦⟩", runs=2, max_steps=40,
                           corpus=1, fresh=1)
    for traced, declared in ((False, metrics.END_TO_END), (True, metrics.PER_LAYER)):
        if traced:
            records, judgement, values, _ = run.measure_traced(small, 5, 0.01, tmp_path, "t")
        else:
            records, judgement, values, _ = run.measure(small, 5, 0.01, 0.1)
        line = json.loads(json.dumps(run.result(judgement, len(records), values, declared)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [name for name, _unit, _better in declared]
        for name, unit, _better in declared:
            assert line["metrics"][name]["unit"] == unit
            assert isinstance(line["metrics"][name]["value"], (int, float))
        if not traced:
            assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_to_run_with_a_state_cap_or_without_sources(tmp_path):
    capped = _bench("--workload", "walk-grow", "--seed", "1", "--seconds", "1",
                    env_extra={"RMC_STATE_CAP": "1000"})
    assert capped.returncode != 0 and not capped.stdout.strip()
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bare = _bench("--workload", "walk-grow", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert bare.returncode != 0 and not bare.stdout.strip()


def test_wrong_expected_exit_code_counts_as_failed():
    right = next(q for q in QUERIES if q.argv[:2] == ("check", "ef") and "toggle" in q.argv)
    wrong = dataclasses.replace(right, exit=1)
    workload = workloads.BundleQueries((right, wrong))
    prepared = workload.setup(0)
    judgement = workload.check(prepared, _one_pass(workload, prepared))
    assert judgement.failed == 1
    assert "expected 1" in judgement.problems[0]


def test_known_defect_is_recorded_not_failed():
    over_cap = next(q for q in QUERIES if q.defect is not None)
    workload = workloads.BundleQueries((over_cap,))
    prepared = workload.setup(0)
    judgement = workload.check(prepared, _one_pass(workload, prepared))
    # today the over-cap query exits 3; once fixed it gives its expected exit
    assert judgement.failed == 0
    assert judgement.known_defects in (0, 1)


def test_broken_witness_counts_as_failed():
    rts = rmc.load_rts_bundle(Path(rmc.__file__).parent / "data" / "toggle" / "bundle.rts")
    good = {"kind": "path", "configurations": ["a", "b"], "loop_start": None}
    assert workloads.replay_problem(rts, good) is None
    assert "not a system step" in workloads.replay_problem(
        rts, {**good, "configurations": ["a", "a"]}
    )
    assert "initial" in workloads.replay_problem(rts, {**good, "configurations": ["b"]})


def test_wrong_symbolic_verdict_counts_as_failed():
    workload = workloads.SymbolicRandom(corpus=3)
    prepared = workload.setup(3)
    records = _one_pass(workload, prepared)
    assert workload.check(prepared, records).failed == 0
    flipped = records[0].value
    outcome = rmc.Outcome.FAILS if flipped.holds else rmc.Outcome.HOLDS
    records[0] = dataclasses.replace(records[0], value=rmc.Verdict(outcome))
    judgement = workload.check(prepared, records)
    assert judgement.failed == 1 and judgement.failed / len(records) > 0


def test_generator_is_seeded():
    first = systems.draw_systems(random.Random("x"), 3)
    again = systems.draw_systems(random.Random("x"), 3)
    assert [(s.initial, s.delta, s.reach, s.goal) for s in first] == [
        (s.initial, s.delta, s.reach, s.goal) for s in again
    ]


def test_traced_span_tree_is_well_formed():
    originals = (rmc.cli.main, rmc.procedures.build_slice, rmc.Nfa.__init__)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, tracing.rmc_specs())
    try:
        root = tracer.open(tracer.name_id("bench.run"))
        symbolic = workloads.SymbolicRandom(corpus=2)
        prepared = symbolic.setup(7)
        _one_pass(symbolic, prepared)
        queries = workloads.BundleQueries(QUERIES[:2] + QUERIES[-2:])
        _one_pass(queries, queries.setup(0))
        tracer.close(root)
    finally:
        uninstall()
    assert (rmc.cli.main, rmc.procedures.build_slice, rmc.Nfa.__init__) == originals
    spans = tracer.table()
    assert spans.problems() == []
    assert spans.own.min() >= 0
    assert int(spans.own.sum()) == int(spans.duration[root])
    summary = spans.summary()
    for name in ("nfa.init", "nfa.search", "procedures.run_check", "oracle.build_slice",
                 "cli.main", "oracle.slice_closure"):
        assert summary[name].calls > 0, name
    values = metrics.per_layer(spans, tracer.counts, root, 1.0, 0)
    assert list(values) == [name for name, _unit, _better in metrics.PER_LAYER]
    assert values["oracle.build_slice.configurations"] >= values["oracle.build_slice.reachable"] > 0


def test_malformed_span_tree_is_reported():
    ticks = iter([0, 5, 20, 10])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    root = tracer.open(tracer.name_id("root"))
    child = tracer.open(tracer.name_id("child"))
    tracer.close(child)
    tracer.close(root)
    problems = tracer.table().problems()
    assert any("child" in p and "not inside its parent" in p for p in problems)
    assert any("root" in p and "negative self time" in p for p in problems)
