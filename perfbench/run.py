"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: ``rmc`` is imported from ``./src``.
With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it runs the same work untraced and then traced,
and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
run environment, a digest of every answer, and any wrong answers.  Spans,
answers and results are also written under ``.perfbench-out/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("symbolic-random", "bundle-queries", "walk-ring", "walk-grow")
OUT_DIR = ".perfbench-out"


def _parse(argv):
    parser = argparse.ArgumentParser(description="rmc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root.resolve():
        return lines[1]
    return "unknown (not a git checkout)"


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(directory)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment(root: Path) -> dict:
    import numpy

    return {
        "commit": _commit(root),
        "src_sha256": _tree_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "RMC_STATE_CAP": os.environ.get("RMC_STATE_CAP", "unset"),
    }


def run_passes(prepared, *, seconds=None, passes=None, tracer=None):
    """Whole passes over ``prepared.ops`` until ``seconds`` have gone by, or
    exactly ``passes`` of them.

    Returns ``(records, passes_done)``.  A call that raises is recorded with
    its exception and judged later, never re-raised.
    """
    from workloads import Record

    op_span = tracer.name_id("bench.op") if tracer is not None else None
    records = []
    done = 0
    started = time.perf_counter()
    while True:
        for key, call in prepared.ops:
            if tracer is not None:
                tracer.op_id = len(records)
                span = tracer.open(op_span)
            begun = time.perf_counter()
            try:
                value = call()
            except Exception as exc:  # judged as a failed operation
                value = exc
            elapsed = time.perf_counter() - begun
            if tracer is not None:
                tracer.close(span)
            records.append(Record(key, elapsed, value))
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif time.perf_counter() - started >= seconds:
            break
    if tracer is not None:
        tracer.op_id = -1
    return records, done


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seed: int, seconds: float, import_s: float):
    """The untraced run: repeated set-up, then timed passes."""
    import metrics

    setups = []
    prepared = None
    for _ in range(workload.setup_repeats):
        prepared = None  # drop the previous inputs before timing the next set-up
        begun = time.perf_counter()
        prepared = workload.setup(seed)
        setups.append(time.perf_counter() - begun)
    records, passes = run_passes(prepared, seconds=seconds)
    judgement = workload.check(prepared, records)
    per_call: dict = {}
    for record in records:
        per_call.setdefault(record.key, []).append(record.seconds)
    values = metrics.end_to_end(
        setup_s=import_s + statistics.median(setups),
        latencies=[statistics.fmean(times) for times in per_call.values()],
        steps_per_pass=(judgement.steps / passes) if workload.takes_steps else len(per_call),
        peak_rss_mb=_peak_rss_mb(),
    )
    return records, judgement, values, passes


def measure_traced(workload, seed: int, seconds: float, out: Path, tag: str):
    """The traced run: the same work untraced, then traced with spans."""
    import metrics
    import tracing

    begun = time.perf_counter()
    prepared = workload.setup(seed)
    records, passes = run_passes(prepared, seconds=seconds)
    untraced = time.perf_counter() - begun
    prepared = records = None

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, tracing.rmc_specs())
    try:
        root = tracer.open(tracer.name_id("bench.run"))
        setup_span = tracer.open(tracer.name_id("bench.setup"))
        prepared = workload.setup(seed)
        tracer.close(setup_span)
        records, _passes = run_passes(prepared, passes=passes, tracer=tracer)
        tracer.close(root)
    finally:
        uninstall()
    judgement = workload.check(prepared, records)
    spans = tracer.table()
    for problem in spans.problems():
        judgement.fail(f"span tree: {problem}")
    values = metrics.per_layer(spans, tracer.counts, root, untraced, judgement.known_defects)
    spans.write(out / f"spans-{tag}.npz")
    return records, judgement, values, passes


def result(judgement, attempted: int, values: dict, declared) -> dict:
    """The result line: every declared metric with its unit."""
    return {
        "correct": judgement.failed == 0,
        "attempted": attempted,
        "failed": judgement.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit, _better in declared
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "rmc" / "__init__.py").is_file():
        print(f"error: no rmc sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if "RMC_STATE_CAP" in os.environ:
        print("error: RMC_STATE_CAP is set; it changes rmc's behaviour, so the "
              "benchmark refuses to run", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rmc

    import_s = time.perf_counter() - STARTED
    if not Path(rmc.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported rmc from {rmc.__file__}, not from {src}", file=sys.stderr)
        return 2

    import metrics
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        records, judgement, values, passes = measure_traced(
            workload, args.seed, args.seconds, out, tag
        )
        declared = metrics.PER_LAYER
    else:
        records, judgement, values, passes = measure(workload, args.seed, args.seconds, import_s)
        declared = metrics.END_TO_END

    env = _environment(root)
    attempted = len(records)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": attempted,
        "failed": judgement.failed,
        "failed_share": judgement.failed / attempted,
        "known_defects": judgement.known_defects,
        "answers_sha256": judgement.digest(),
        "distinct_answers": len(judgement.answers),
        "passes": passes,
    }
    (out / f"answers-{tag}.txt").write_text(
        "".join(a + "\n" for a in judgement.answers), encoding="utf-8"
    )
    line = result(judgement, attempted, values, declared)
    (out / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "summary": summary, "problems": judgement.problems,
                    "result": line}, ensure_ascii=False, indent=1) + "\n",
        encoding="utf-8",
    )
    print("env: " + json.dumps(env, ensure_ascii=False))
    print("summary: " + json.dumps(summary, ensure_ascii=False))
    for problem in judgement.problems[:20]:
        print("problem: " + problem)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
