"""Metric names, units and how each is computed.

``END_TO_END`` is what ``--trace 0`` reports and ``PER_LAYER`` what
``--trace 1`` reports; ``BENCHMARK.json`` lists the same names and units.
Layer metrics are named ``<module>.<function>.<stat>``: ``calls``,
``self_s`` and ``total_s`` come from the spans, any other stat is a size
count recorded at the same boundary.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import PROCEDURES, SpanTable

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("checks_per_s", "1/s", "higher"),
    ("check_p50_ms", "ms", "lower"),
    ("check_p99_ms", "ms", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _stats(span: str, *stats: str) -> list[tuple[str, str, str]]:
    units = {"calls": "count", "self_s": "s", "total_s": "s"}
    return [(f"{span}.{stat}", units.get(stat, "count"), "lower") for stat in stats]


PER_LAYER = (
    ("nfa.constructions", "count", "lower"),
    *_stats("nfa.init", "self_s"),
    *_stats("nfa.intersect", "calls", "self_s", "result_states"),
    *_stats("nfa.complement", "calls", "self_s", "result_states"),
    *_stats("nfa.search", "calls", "self_s"),
    *_stats("nfa.trim", "self_s"),
    *_stats("nfa.accepts", "calls", "self_s"),
    *_stats("nfa.enumerate_words", "calls", "self_s"),
    *_stats("transducer.compose", "calls", "self_s", "result_states"),
    *_stats("transducer.post_image", "calls", "total_s"),
    *_stats("transducer.pre_image", "calls", "total_s"),
    *_stats("transducer.project", "self_s"),
    *_stats("transducer.relation_difference_identity", "total_s"),
    *_stats("transducer.diagonal", "total_s"),
    *_stats("rts.reachable_set", "calls", "total_s", "result_states"),
    *_stats("rts.terminating", "total_s"),
    *_stats("rts.successors", "calls", "total_s", "words"),
    *_stats("procedures.run_check", "calls", "total_s", "self_s"),
    *(entry for prop in PROCEDURES.values() for entry in _stats(f"procedures.{prop}", "total_s")),
    *_stats("oracle.build_slice", "calls", "self_s", "configurations", "reachable", "cap_exceeded"),
    ("oracle.build_slice.reachable_ratio", "ratio", "higher"),
    *_stats("oracle.oracle_check", "calls", "self_s"),
    *_stats("oracle.slice_closure", "total_s"),
    *_stats("oracle.relation_to_transducer", "total_s"),
    *_stats("oracle.simulate", "calls", "self_s", "steps", "memo_misses"),
    ("oracle.simulate.memo_hit_ratio", "ratio", "higher"),
    *_stats("formats.load_rts_bundle", "calls", "total_s"),
    *_stats("cli.main", "calls", "self_s"),
    *_stats("abstraction.validate_preach", "total_s"),
    # the benchmark's own share of the traced run
    *_stats("bench", "self_s", "known_defects"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(*, setup_s: float, latencies: list[float], steps_per_pass: float,
               peak_rss_mb: float) -> dict[str, float]:
    """``latencies`` holds one value per distinct call of a pass: the mean
    of that call's latencies over the run's passes.  Rates divide the work
    of one pass by the sum of these means.  On a machine whose speed
    switches between modes, means over passes varied less from run to run
    than medians over passes or than single samples."""
    pass_s = sum(latencies)
    return {
        "setup_s": setup_s,
        "checks_per_s": len(latencies) / pass_s,
        "check_p50_ms": statistics.median(latencies) * 1e3,
        "check_p99_ms": percentile(latencies, 99) * 1e3,
        "steps_per_s": steps_per_pass / pass_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans: SpanTable, counts: dict, root: int, untraced_s: float,
              known_defects: int) -> dict[str, float]:
    summary = spans.summary()
    wall_ns = int(spans.duration[root])
    bench = [i for i, name in enumerate(spans.names) if name.startswith("bench.")]
    configurations = counts.get("oracle.build_slice.configurations", 0)
    steps = counts.get("oracle.simulate.steps", 0)
    special = {
        "nfa.constructions": summary["nfa.init"].calls if "nfa.init" in summary else 0,
        "oracle.build_slice.reachable_ratio": (
            counts.get("oracle.build_slice.reachable", 0) / configurations if configurations else 0.0
        ),
        "oracle.simulate.memo_hit_ratio": (
            1 - counts.get("oracle.simulate.memo_misses", 0) / steps if steps else 0.0
        ),
        "bench.self_s": int(spans.own[np.isin(spans.name, bench)].sum()) / 1e9,
        "bench.known_defects": known_defects,
        "trace.wall_s": wall_ns / 1e9,
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead_ratio": wall_ns / 1e9 / untraced_s,
        "trace.self_sum_s": int(spans.own.sum()) / 1e9,
        "trace.spans": len(spans),
    }
    values = {}
    for name, _unit, _better in PER_LAYER:
        if name in special:
            values[name] = special[name]
            continue
        span, stat = name.rsplit(".", 1)
        stats = summary.get(span)
        if stat == "calls":
            values[name] = stats.calls if stats else 0
        elif stat in ("self_s", "total_s"):
            values[name] = (getattr(stats, stat[:-2] + "_ns") / 1e9) if stats else 0.0
        else:
            values[name] = counts.get(name, 0)
    return values
