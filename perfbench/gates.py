"""Correctness gate for one CLI job: each returned string is one failed check."""

from __future__ import annotations

import json
from pathlib import Path

from workloads import DENSE_GRID, LIGHT_LP_M, LP_SWEEP, LP_TOL, Job

BRACKET_TOL = 1e-6      # lp_bound <= ratio_bound + BRACKET_TOL
COST_TOL = 1e-9         # construction_cost >= ratio_bound - COST_TOL
BOUND_REL_TOL = 1e-9    # CLI bound against the closed form of the generator


def _lp_problems(job: Job, lp_values: dict[int, float], expected_ms) -> list[str]:
    problems = []
    if sorted(lp_values) != sorted(expected_ms):
        problems.append(f"LP sizes {sorted(lp_values)} instead of {list(expected_ms)}")
    for m, value in lp_values.items():
        if not value <= job.surface.ratio_bound + BRACKET_TOL:
            problems.append(f"lp m={m} {value!r} above the ratio bound {job.surface.ratio_bound!r}")
        ref = job.surface.lp.get(m)
        if ref is not None and not abs(value - ref) <= LP_TOL:
            problems.append(f"lp m={m} {value!r} differs from the reference {ref!r}")
    return problems


def _report(job, doc, out):
    problems = []
    ratio, cost = doc["ratio_bound"], doc["construction_cost"]
    if not abs(ratio - job.surface.ratio_bound) <= BOUND_REL_TOL * job.surface.ratio_bound:
        problems.append(f"ratio bound {ratio!r}, closed form {job.surface.ratio_bound!r}")
    if not cost >= ratio - COST_TOL:
        problems.append(f"construction cost {cost!r} below the ratio bound {ratio!r}")
    if not doc["lp_bound"] <= ratio + BRACKET_TOL:
        problems.append(f"lp bound {doc['lp_bound']!r} above the ratio bound {ratio!r}")
    problems += _lp_problems(job, {int(m): v for m, v in doc["lp_values"]}, LP_SWEEP)
    return problems


def _lp(job, doc, out):
    rows = doc["lp"]
    problems = _lp_problems(job, {int(r["m"]): r["value"] for r in rows}, (LIGHT_LP_M,))
    return problems + [f"m={r['m']} has no crossing rows" for r in rows if r["crossing_rows"] <= 0]


def _bound(job, doc, out):
    if abs(doc["value"] - job.surface.ratio_bound) <= BOUND_REL_TOL * job.surface.ratio_bound:
        return []
    return [f"bound {doc['value']!r}, closed form {job.surface.ratio_bound!r}"]


def _construct(job, doc, out):
    if not doc["constructions"]:
        return ["no construction built"]
    problems = []
    for c in doc["constructions"]:
        if not c["cost"] >= job.surface.ratio_bound - COST_TOL:
            problems.append(f"{c['kind']} cost {c['cost']!r} below the ratio bound")
        if not (out / c["expr_file"]).is_file():
            problems.append(f"{c['expr_file']} not written")
    return problems


def _check(job, doc, out):
    el, feas = doc["el_report"], doc["feasibility"]
    failed = [p["name"] for p in el["properties"] if not p["passed"]]
    problems = [f"property {name} fails" for name in failed]
    if not el["passed"] or not feas["feasible"]:
        problems.append(f"check does not pass (min_jump {feas['min_jump']!r})")
    return problems


def _validate(job, doc, out):
    return [] if doc["valid"] else [f"surface rejected: {doc['violations']}"]


def _sample(job, doc, out):
    rows = (DENSE_GRID + 1) ** 2
    if doc["sample"]["rows"] != rows:
        return [f"sample reports {doc['sample']['rows']} rows, expected {rows}"]
    data = (out / doc["sample"]["file"]).read_bytes()
    if not data.startswith(b"x,y,f,fx_left,fx_right,fy_left,fy_right\n") or data.count(b"\n") != rows + 1:
        return ["sample.csv header or row count is wrong"]
    return []


_GATES = {"report": _report, "lp": _lp, "bound": _bound, "construct": _construct,
          "check": _check, "validate": _validate, "sample": _sample}


def problems(job: Job, code: int, stdout: bytes, out: Path) -> list[str]:
    """Checks the exit code and the command's JSON output against the bracket invariants."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        found = _GATES[job.command](job, json.loads(stdout), out)
        if job.command == "report" and (out / "report.json").read_bytes() != stdout:
            found.append("report.json differs from the printed report")
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return [f"malformed output: {exc!r}"]
    return found


def bracket_gap(job: Job, stdout: bytes) -> float | None:
    """(ratio_bound - LP value at the largest m) / ratio_bound of a passed job that solves LPs."""
    if job.command not in ("report", "lp"):
        return None
    doc = json.loads(stdout)
    pairs = doc["lp_values"] if job.command == "report" else [(r["m"], r["value"]) for r in doc["lp"]]
    ratio = job.surface.ratio_bound
    return (ratio - max(pairs)[1]) / ratio
