"""Seeded inputs for the elopt benchmark: surfaces, job configs and reference values.

Every run draws its surfaces from the workload seed alone.  Each run holds
the three worked surfaces of the ROADMAP (the hyperplane H(1,2) and the unit
quadratics with c2 = 0.5 and c2 = -0.375) plus three random curves: one
line, one hyperbola and one quadratic, convex on even seeds and concave on
odd ones.  So every family appears in every run, and every curve family gets
random parameters in every run.  No hyperplane is drawn at random: a
hyperplane job costs about half a quadratic one, so a draw that could hold
one would make the job list's cost depend on the seed.

Random curves are drawn only where the closed forms below show that
``validate()`` accepts them and that the curve has a point of normal (1, 1),
so the constructions take their main branch and no job fails by design.
The program receives nothing but the JSON configs written from these draws.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Reference values printed by the seed program (gap_report on the worked
# surfaces).  LP values must match to LP_TOL; a change that alters them is a
# change of results, not of speed.
WORKED = {
    "worked_h12": {
        "surface": {"kind": "hyperplane", "c": [1.0, 2.0], "M": 1.0},
        "ratio_bound": 2.0,
        "lp": {16: 1.647058823529412, 32: 1.8181818181818175, 48: 1.8775510204081733},
    },
    "worked_convex": {
        "surface": {"kind": "curve", "family": "quadratic", "a": 1.0, "b": 1.0,
                    "shape": "strictly_convex", "params": {"c2": 0.5}},
        "ratio_bound": 2.0,
        "lp": {16: 1.000000000000001, 32: 1.260344504774392, 48: 1.3490607395115795},
    },
    "worked_concave": {
        "surface": {"kind": "curve", "family": "quadratic", "a": 1.0, "b": 1.0,
                    "shape": "strictly_concave", "params": {"c2": -0.375}},
        "ratio_bound": 1.6,
        "lp": {16: 0.9999999999999998, 32: 1.1666666666666707, 48: 1.2221334926216716},
    },
}
LP_TOL = 1e-6

LP_SWEEP = (16, 32, 48)      # lp_bracket: report over this sweep
DENSE_SAMPLES = 300_000      # verify_dense: check --samples
DENSE_GRID = 400             # verify_dense: sample --grid, (401)^2 CSV rows
LIGHT_LP_M = 16              # cli_light: lp --grid

WORKLOADS = ("lp_bracket", "verify_dense", "cli_light")

# Keeps the endpoint slopes away from 1, so the (1, 1)-normal point is interior.
_SEAM_MARGIN = 0.05


@dataclass(frozen=True)
class Surface:
    name: str
    doc: dict
    ratio_bound: float          # closed-form normal-ratio bound, independent of elopt
    lp: dict                    # m -> reference LP value (worked surfaces only)


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``argv`` follows ``python -m elopt`` and holds ``{out}``."""

    id: str
    command: str
    surface: Surface
    argv: tuple[str, ...]


def _ratio(s0: float, sa: float) -> float:
    """sup of normal_j / normal_i over the closure of a curve with endpoint slopes s0, sa."""
    lo, hi = min(s0, sa), max(s0, sa)
    return max(hi, 1.0 / lo)


def _has_seam(s0: float, sa: float) -> bool:
    lo, hi = min(s0, sa), max(s0, sa)
    return lo < 1.0 - _SEAM_MARGIN and hi > 1.0 + _SEAM_MARGIN


def _curve(family: str, a: float, b: float, params: dict) -> dict:
    return {"kind": "curve", "family": family, "a": a, "b": b, "shape": "auto", "params": params}


def _line(rng: random.Random) -> tuple[dict, float]:
    a, b = round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.5, 2.0), 3)
    return _curve("line", a, b, {}), _ratio(b / a, b / a)


def _quadratic(rng: random.Random, sign: float) -> tuple[dict, float]:
    # alpha = b + c1 x + c2 x^2 with c2 = sign * u * b / a^2 and 0 < u < 1:
    # -alpha' is (1 + sign*u) b/a at x = 0 and (1 - sign*u) b/a at x = a, both
    # positive, so the arc decreases strictly and validates.
    while True:
        a, b = round(rng.uniform(0.6, 1.6), 3), round(rng.uniform(0.6, 1.6), 3)
        c2 = sign * round(rng.uniform(0.2, 0.8), 3) * b / (a * a)
        s0, sa = (b + c2 * a * a) / a, (b - c2 * a * a) / a
        if _has_seam(s0, sa):
            return _curve("quadratic", a, b, {"c2": c2}), _ratio(s0, sa)


def _hyperbola(rng: random.Random) -> tuple[dict, float]:
    # alpha = kappa/(x+s) - t with t = s b/a and kappa = t (a+s), so alpha(0) = b
    # and alpha(a) = 0; -alpha' = kappa/(x+s)^2.
    while True:
        a, b = round(rng.uniform(0.6, 1.6), 3), round(rng.uniform(0.6, 1.6), 3)
        s = round(rng.uniform(0.3, 2.0), 3)
        t = s * b / a
        kappa = t * (a + s)
        s0, sa = kappa / (s * s), kappa / ((a + s) * (a + s))
        if _has_seam(s0, sa):
            return _curve("hyperbola", a, b, {"s": s, "t": t}), _ratio(s0, sa)


def surfaces(seed: int) -> list[Surface]:
    """The worked surfaces plus three random ones drawn from ``seed``."""
    out = [Surface(name, w["surface"], w["ratio_bound"], w["lp"]) for name, w in WORKED.items()]
    rng = random.Random(seed)
    label, sign = ("convex", 1.0) if seed % 2 == 0 else ("concave", -1.0)
    draws = ((f"random_{label}", lambda r: _quadratic(r, sign)), ("random_line", _line),
             ("random_hyperbola", _hyperbola))
    for name, make in draws:
        doc, bound = make(rng)
        out.append(Surface(name, doc, bound, {}))
    return out


def jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list, in the order a closed-loop client sends it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    sweep = ",".join(str(m) for m in LP_SWEEP)
    per_surface = {
        "lp_bracket": [("report", ("--grid", sweep, "--out", "{out}", "report"))],
        "verify_dense": [
            ("check", ("--samples", str(DENSE_SAMPLES), "check")),
            ("sample", ("--grid", str(DENSE_GRID), "--out", "{out}", "sample")),
        ],
        "cli_light": [
            ("validate", ("validate",)),
            ("bound", ("bound",)),
            ("construct", ("--out", "{out}", "construct")),
            ("check", ("check",)),
            ("lp", ("--grid", str(LIGHT_LP_M), "lp")),
        ],
    }[workload]
    return [
        Job(f"{surface.name}.{command}", command, surface, ("--format", "json") + argv)
        for surface in surfaces(seed)
        for command, argv in per_surface
    ]


def write_configs(job_list: list[Job], seed: int, directory: Path) -> dict[str, Path]:
    """Write one config per surface; returns surface name -> config path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in job_list:
        name = job.surface.name
        if name not in paths:
            paths[name] = directory / f"{name}.json"
            doc = {"schema": 1, "surface": job.surface.doc, "seed": seed}
            paths[name].write_text(json.dumps(doc, indent=2) + "\n")
    return paths
