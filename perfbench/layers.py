"""Per-layer metrics from the span dumps of a traced run.

A span's self time is its duration minus the time its child spans cover
(spans of one process nest, so the children never overlap).  A layer's time
is the sum of the self times of its spans.  Times and counts are per traced
job: their sum over the traced jobs divided by the number of traced jobs.
Shares are taken against the untraced twin of each traced job.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from launch import TRACED

CONSTRUCTIONS = tuple(f"constructions.{name}" for name in TRACED["constructions"])

# metric -> span names whose self time it sums
SELF_TIME = {
    "init.import_s": ("init.import",),
    "cli.self_s": ("cli.main",),
    "serialize.dumps_s": ("serialize.dumps",),
    "surfaces.validate_s": ("surfaces.validate",),
    "constructions.build_s": CONSTRUCTIONS,
    "exprs.eval_at_s": ("exprs.eval_at",),
    "exprs.one_sided_partials_s": ("exprs.one_sided_partials",),
    "analysis.check_el_s": ("analysis.check_el",),
    "analysis.check_feasible_s": ("analysis.check_feasible",),
    "analysis.gap_report_self_s": ("analysis.gap_report",),
    "analysis.normal_ratio_bound_s": ("analysis.normal_ratio_bound",),
    "lp_oracle.build_lp_s": ("lp_oracle.build_lp",),
    "lp_oracle.solve_lp_s": ("lp_oracle.solve_lp",),
}
CALLS = {
    "surfaces.validate_calls": ("surfaces.validate",),
    "constructions.build_calls": CONSTRUCTIONS,
}
# metric -> (span name, counter) summed over the job's LPs
LP_COUNTS = {
    "lp_oracle.iterations": ("lp_oracle.solve_lp", "iterations"),
    "lp_oracle.rows": ("lp_oracle.build_lp", "rows"),
    "lp_oracle.nnz": ("lp_oracle.build_lp", "nnz"),
    "lp_oracle.crossing_rows": ("lp_oracle.build_lp", "crossing_rows"),
}

UNITS = {
    **{name: "s/job" for name in SELF_TIME},
    **{name: "count/job" for name in (*CALLS, *LP_COUNTS)},
    "exprs.points_per_s": "1/s",
    "cli.bytes_written": "bytes/job",
    "process.unattributed_s": "s/job",
    "trace.overhead_s": "s/job",
    "lp_oracle.solve_lp_share": "%",
    "init.import_share": "%",
    "bracket_gap": "ratio",
}


def read_spans(path: Path) -> list[dict]:
    with open(path) as stream:
        return [json.loads(line) for line in stream]


def self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [(span, span["end"] - span["start"] - covered[span["id"]]) for span in spans]


def metrics(pairs) -> dict[str, float]:
    """Per-layer metrics from (untraced, traced) executions of the same jobs.

    Each execution has ``seconds``, ``bytes_written`` and ``gap``; a traced one
    also has ``spans``.
    """
    n = len(pairs)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    unattributed = 0.0
    for _, traced in pairs:
        timed = self_times(traced.spans)
        for span, seconds in timed:
            self_s[span["name"]] += seconds
            calls[span["name"]] += 1
            for key in ("points", "iterations", "rows", "nnz", "crossing_rows"):
                counts[span["name"], key] += span.get(key, 0)
        unattributed += traced.seconds - sum(seconds for _, seconds in timed)

    out = {name: sum(self_s[s] for s in spans) / n for name, spans in SELF_TIME.items()}
    out.update({name: sum(calls[s] for s in spans) / n for name, spans in CALLS.items()})
    out.update({name: counts[key] / n for name, key in LP_COUNTS.items()})
    exprs = ("exprs.eval_at", "exprs.one_sided_partials")
    eval_s = sum(self_s[name] for name in exprs)
    points = sum(counts[name, "points"] for name in exprs)
    untraced = [u.seconds for u, _ in pairs]
    gaps = [e.gap for pair in pairs for e in pair if e.gap is not None]
    out.update({
        "exprs.points_per_s": points / eval_s if eval_s > 0 else 0.0,
        "cli.bytes_written": sum(t.bytes_written for _, t in pairs) / n,
        "process.unattributed_s": unattributed / n,
        "trace.overhead_s": sum(t.seconds - u.seconds for u, t in pairs) / n,
        "lp_oracle.solve_lp_share": 100.0 * self_s["lp_oracle.solve_lp"] / sum(untraced),
        "init.import_share": 100.0 * out["init.import_s"] / statistics.median(untraced),
        "bracket_gap": statistics.fmean(gaps) if gaps else 0.0,
    })
    return out
