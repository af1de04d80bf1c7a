"""Command-line pipeline: configuration in, reports and plot data out.

Config document (JSON, schema version 1; unknown keys are rejected)::

    {
      "schema": 1,
      "surface": {"kind": "hyperplane", "c": [1.0, 2.0], "M": 1.0}
               | {"kind": "curve", "family": "line" | "quadratic" | "hyperbola",
                  "a": 1.0, "b": 1.0,
                  "shape": "auto",        # optional; or the curve's own shape:
                                          # linear | strictly_convex | strictly_concave
                  "params": {}            # line
                          | {"c2": 0.5}   # quadratic
                          | {"s": 1.0, "t": 1.0}},  # hyperbola
      "seed": 0,                  # optional
      "samples": 10000,           # optional, property-suite pairs
      "surface_samples": 1000,    # optional, feasibility points
      "grid": [16, 32]            # optional, LP sizes
    }

Subcommands: ``validate`` (surface report), ``bound`` (normal-ratio lower
bound), ``construct`` (build every optimum the surface has, print cost and
total cost, write each expression document), ``check`` (property suite +
feasibility of the default optimum or of ``--expr FILE``), ``lp`` (grid-LP sweep
over the configured sizes), ``report`` (full bound/construction/LP bracket),
``sample`` (CSV grid ``x,y,f,fx_left,fx_right,fy_left,fy_right`` for
plotting, of the default optimum or of ``--expr FILE``).  To check or sample
another optimum, pass ``--expr`` the file ``construct`` wrote for it.

Flags ``--seed``, ``--samples``, ``--grid`` override the config; ``--out``
picks the artifact directory; ``--format json|text`` switches report
rendering.  All output is byte-reproducible for a fixed config and seed.

Report documents are JSON objects with a ``"type"`` tag naming the report
dataclass (``ELReport``, ``FeasibilityReport``, ``BoundReport``,
``SurfaceValidationReport``, ...) and one field per dataclass field, floats
in shortest round-trip form, NaN/inf as the strings "nan"/"inf".

Exit codes: 0 success; 2 configuration error; 3 surface validation failure;
4 property-suite or feasibility failure; 5 LP solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analysis import (
    DEFAULT_PAIR_SAMPLES,
    DEFAULT_SURFACE_SAMPLES,
    _check_box,
    check_el,
    check_feasible,
    gap_report,
    lp_sweep,
    normal_ratio_bound,
)
from .constructions import ConstructionResult, construct, convex_diag
from .errors import ConfigError, ConstructionError, EloptError, SolverError
from .exprs import ELExpr, cost_total, eval_at, one_sided_partials
from .lp_oracle import dump_lp
from .serialize import dumps, expr_from_dict, expr_to_dict, surface_from_dict
from .surfaces import SHAPE_CONVEX, Hyperplane, Surface

__all__ = ["main"]

_KNOWN_KEYS = {"schema", "surface", "seed", "samples", "surface_samples", "grid"}


@dataclass
class _Job:
    surface: Surface
    seed: int
    samples: int
    surface_samples: int
    grid: tuple[int, ...]
    out: Path
    fmt: str


def _count(name: str, value, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or a file that is not UTF-8
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _load_job(args) -> _Job:
    if args.config is None:
        raise ConfigError("--config PATH is required")
    doc = _read_json(args.config, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if doc.get("schema") != 1:
        raise ConfigError("config must declare \"schema\": 1")
    if "surface" not in doc:
        raise ConfigError("config needs a \"surface\" entry")
    surface = surface_from_dict(doc["surface"])
    grid = args.grid if args.grid is not None else doc.get("grid", [16, 32])
    if not isinstance(grid, list):
        raise ConfigError(f"grid must be a list of integers, got {grid!r}")
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    samples = args.samples if args.samples is not None else doc.get("samples", DEFAULT_PAIR_SAMPLES)
    surface_samples = doc.get("surface_samples", DEFAULT_SURFACE_SAMPLES)
    return _Job(
        surface=surface,
        seed=_count("seed", seed, 0),
        samples=_count("samples", samples, 0),
        surface_samples=_count("surface_samples", surface_samples, 1),
        grid=tuple(_count("grid entry", m, 1) for m in grid),
        out=Path(args.out),
        fmt=args.format,
    )


def _emit(job: _Job, obj, text_lines: list[str]) -> None:
    if job.fmt == "json":
        sys.stdout.write(dumps(obj))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _build_constructions(job: _Job) -> list[ConstructionResult]:
    """The default optimum; a convex curve with a seam point adds ``convex_diag``."""
    results = [construct(job.surface)]
    if (
        not isinstance(job.surface, Hyperplane)
        and job.surface.shape == SHAPE_CONVEX
        and job.surface.t_point() is not None
    ):
        results.append(convex_diag(job.surface))
    return results


def _cmd_validate(job: _Job, args) -> int:
    report = job.surface.validate()
    lines = [f"kind: {report.kind}", f"valid: {report.valid}"]
    if report.slope_range is not None:
        lines.append(f"slope_range: [{report.slope_range[0]!r}, {report.slope_range[1]!r}]")
    if report.shape is not None:
        lines.append(f"shape: {report.shape}")
    if report.normal is not None:
        lines.append(f"normal: {list(report.normal)}")
    for clause in report.violations:
        lines.append(f"violation: {clause}")
    _emit(job, report, lines)
    return 0 if report.valid else 3


def _cmd_bound(job: _Job, args) -> int:
    bound = normal_ratio_bound(job.surface)
    _emit(
        job,
        bound,
        [
            f"normal_ratio_bound: {bound.value!r}",
            f"witness_point: {list(bound.point)}",
            f"ratio: normal[{bound.j}] / normal[{bound.i}] (supremum over the surface closure)",
        ],
    )
    return 0


def _cmd_construct(job: _Job, args) -> int:
    job.out.mkdir(parents=True, exist_ok=True)
    results = _build_constructions(job)
    payload = []
    lines = []
    for res in results:
        total = cost_total(res.expr)
        path = job.out / f"{res.kind}.expr.json"
        path.write_text(dumps(expr_to_dict(res.expr)))
        payload.append(
            {
                "kind": res.kind,
                "cost": res.claimed_cost,
                "cost_total": total,
                "scale_k": res.scale_k,
                "expr_file": path.name,
            }
        )
        lines.append(
            f"{res.kind}: cost {res.claimed_cost!r}, cost_total {total!r}, scale {res.scale_k!r} -> {path}"
        )
    _emit(job, {"constructions": payload}, lines)
    return 0


def _load_expr(job: _Job, expr_path: Optional[str]) -> ELExpr:
    if expr_path is None:
        return construct(job.surface).expr
    return expr_from_dict(_read_json(expr_path, "expression file"))


def _cmd_check(job: _Job, args) -> int:
    expr = _load_expr(job, args.expr)
    el = check_el(expr, _check_box(job.surface), samples=job.samples, seed=job.seed)
    feas = check_feasible(expr, job.surface, samples=job.surface_samples, seed=job.seed)
    lines = [f"el_suite: {'pass' if el.passed else 'FAIL'}"]
    for prop in el.properties:
        lines.append(
            f"  {prop.name}: {'pass' if prop.passed else 'FAIL'} "
            f"(worst {prop.worst_violation!r}, tol {prop.tolerance!r})"
        )
    lines.append(
        f"feasibility: {'pass' if feas.feasible else 'FAIL'} (min_jump {feas.min_jump!r} "
        f"at coordinate {feas.witness_coord} of {list(feas.witness_point)})"
    )
    _emit(job, {"el_report": el, "feasibility": feas}, lines)
    return 0 if el.passed and feas.feasible else 4


def _cmd_lp(job: _Job, args) -> int:
    rows = []
    lines = []
    for lp, sol in lp_sweep(job.surface, job.grid):
        m = lp.m
        rows.append({"m": m, "value": sol.value, "crossing_rows": lp.crossing_rows,
                     "iterations": sol.iterations})
        lines.append(f"m={m}: lp_value {sol.value!r} ({lp.crossing_rows} crossing rows)")
        if args.dump_lp:
            job.out.mkdir(parents=True, exist_ok=True)
            path = job.out / f"grid_lp_m{m}.lp"
            with path.open("w") as stream:
                dump_lp(lp, stream)
            lines.append(f"  wrote {path}")
    _emit(job, {"lp": rows}, lines)
    return 0


def _cmd_report(job: _Job, args) -> int:
    report = gap_report(job.surface, grid_m=job.grid if job.surface.dim == 2 else None)
    job.out.mkdir(parents=True, exist_ok=True)
    path = job.out / "report.json"
    path.write_text(dumps(report))
    lines = [
        f"normal_ratio_bound: {report.ratio_bound!r}",
        f"construction: {report.construction_kind} (cost {report.construction_cost!r})",
        f"gap cost-bound: {report.gap_cost_minus_bound!r}",
    ]
    if report.lp_values is not None:
        for m, value in report.lp_values:
            lines.append(f"lp m={m}: {value!r}")
        lines.append(f"gap bound-lp: {report.gap_bound_minus_lp!r}")
    lines.append(f"wrote {path}")
    _emit(job, report, lines)
    return 0


_CSV_BLOCK_ROWS = 1 << 14


def _write_csv_rows(stream, columns: Sequence[np.ndarray]) -> None:
    """Write equal-length float64 ``columns`` as CSV rows of ``repr(float)`` fields.

    ``sample`` hands over one block of at most ``_CSV_BLOCK_ROWS`` rows at a
    time.  A sample grid has few distinct values per column, so a column is
    formatted once per distinct float64 bit pattern and the strings are
    gathered back by index.  Bit patterns, not values, keep ``-0.0`` apart
    from ``0.0``.
    """
    block = []
    for column in columns:
        bits, index = np.unique(np.asarray(column, dtype=np.float64).view(np.int64), return_inverse=True)
        strings = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        block.append(strings[index].tolist())
    stream.write("\n".join(map(",".join, zip(*block))) + "\n")


def _cmd_sample(job: _Job, args) -> int:
    """Evaluate the grid and write ``sample.csv`` one block of ``_CSV_BLOCK_ROWS`` rows at a time."""
    expr = _load_expr(job, args.expr)
    if expr.dim != 2:
        raise ConfigError("sample emits 2-D plot data; the expression must have dim 2")
    if job.surface.dim != 2:
        raise ConfigError("sample needs a two-dimensional surface")
    box_x, box_y = job.surface.intercepts()
    resolution = job.grid[0] if job.grid else 32
    xs = np.linspace(0.0, 1.25 * box_x, resolution + 1)
    ys = np.linspace(0.0, 1.25 * box_y, resolution + 1)
    rows = len(xs) * len(ys)
    job.out.mkdir(parents=True, exist_ok=True)
    path = job.out / "sample.csv"
    with path.open("w", newline="\n") as stream:
        stream.write("x,y,f,fx_left,fx_right,fy_left,fy_right\n")
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            k = np.arange(start, min(start + _CSV_BLOCK_ROWS, rows))
            # rows run over y within x
            points = np.column_stack([xs[k // len(ys)], ys[k % len(ys)]])
            grad = one_sided_partials(expr, points)
            left, right = grad.left.T, grad.right.T
            _write_csv_rows(stream, [*points.T, eval_at(expr, points), left[0], right[0], left[1], right[1]])
    _emit(job, {"sample": {"file": path.name, "rows": rows}}, [f"wrote {path}"])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elopt",
        description="entropy-like functions: surface validation, cost bounds, constructions, grid-LP brackets",
    )
    parser.add_argument("--config", help="path to the JSON job config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--samples", type=int, default=None, help="override the property-suite sample count")
    parser.add_argument("--grid", type=lambda s: [int(v) for v in s.split(",")], default=None,
                        help="override the LP grid sizes, e.g. 16,32,64")
    parser.add_argument("--out", default=".", help="directory for emitted artifacts")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="validate the configured surface").set_defaults(func=_cmd_validate)
    sub.add_parser("bound", help="normal-ratio lower bound").set_defaults(func=_cmd_bound)
    sub.add_parser("construct", help="build every optimum").set_defaults(func=_cmd_construct)
    check = sub.add_parser("check", help="property suite + feasibility")
    check.add_argument("--expr", default=None, help="serialized expression to check instead of the default optimum")
    check.set_defaults(func=_cmd_check)
    lp = sub.add_parser("lp", help="grid-LP lower bounds over the configured sizes")
    lp.add_argument("--dump-lp", action="store_true", help="write each LP in interchange text format")
    lp.set_defaults(func=_cmd_lp)
    sub.add_parser("report", help="full bound/construction/LP bracket").set_defaults(func=_cmd_report)
    sample = sub.add_parser("sample", help="CSV grid of values and one-sided partials")
    sample.add_argument("--expr", default=None, help="serialized expression to sample instead of the default optimum")
    sample.set_defaults(func=_cmd_sample)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        job = _load_job(args)
        if args.func is not _cmd_validate:
            report = job.surface.validate()
            if not report.valid:
                sys.stderr.write("surface validation failed:\n")
                for clause in report.violations:
                    sys.stderr.write(f"  - {clause}\n")
                return 3
        return args.func(job, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 5
    except ConstructionError as exc:
        sys.stderr.write(f"construction failed verification: {exc}\n")
        return 4
    except EloptError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
