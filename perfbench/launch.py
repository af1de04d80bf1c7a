"""Traced launcher: ``python3 launch.py SPANS_FILE JOB_ID [elopt CLI args...]``.

Times ``import elopt``, wraps the public functions of each elopt module in
span recorders, runs ``elopt.cli.main`` with the remaining arguments and
writes the spans as JSONL to SPANS_FILE.  A span is ``{job, id, name, start,
end, parent}`` plus counters for the layers that have them.  The program
itself is not edited: wrappers replace every module attribute that refers to
a wrapped function, so calls through ``from .x import f`` names are traced too.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

_clock = time.perf_counter


def _points(args, result) -> dict:
    x = args[1]
    shape = getattr(x, "shape", None)
    return {"points": int(shape[0]) if shape is not None and len(shape) == 2 else 1}


def _lp_counts(args, result) -> dict:
    return {"key": f"{result.surface} m={result.m}", "rows": int(result.geq.shape[0]),
            "nnz": int(result.geq.nnz), "crossing_rows": int(result.crossing_rows)}


def _solve_counts(args, result) -> dict:
    lp = args[0]
    return {"key": f"{lp.surface} m={lp.m}", "iterations": int(result.iterations),
            "status": result.status}


# module -> public functions traced, with an optional counter hook.
# serialize.to_jsonable is left out: it recurses once per node and runs only
# inside dumps.
TRACED = {
    "exprs": {"eval_at": _points, "one_sided_partials": _points},
    "constructions": {"linear_opt": None, "linear_opt_curve": None, "convex_plateau": None,
                      "convex_diag": None, "concave_construct": None},
    "analysis": {"check_el": None, "check_feasible": None, "normal_ratio_bound": None,
                 "gap_report": None},
    "lp_oracle": {"build_lp": _lp_counts, "solve_lp": _solve_counts, "dump_lp": None},
    "serialize": {"dumps": None},
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = _clock()
                stack.pop()
            if counts is not None:
                span.update(counts(args, result))
            return result

        return traced

    def install(self, elopt) -> None:
        modules = [elopt] + [getattr(elopt, name) for name in ("cli", *TRACED)]
        for short, functions in TRACED.items():
            module = getattr(elopt, short)
            for fname, counts in functions.items():
                original = getattr(module, fname)
                traced = self.wrap(f"{short}.{fname}", original, counts)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, traced)
        # Validation is a method; the module-level validate() only forwards to it.
        for cls in (elopt.surfaces.Hyperplane, elopt.surfaces.Curve2D):
            cls.validate = self.wrap("surfaces.validate", cls.validate)

    def dump(self, path: str, job: str) -> None:
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps({"job": job, **span}) + "\n")


def main(argv: list[str]) -> int:
    spans_path, job = argv[0], argv[1]
    recorder = Recorder()
    start = _clock()
    import elopt
    import elopt.cli

    recorder.spans.append({"id": 0, "name": "init.import", "parent": None,
                           "start": start, "end": _clock()})
    recorder.install(elopt)
    try:
        return recorder.wrap("cli.main", elopt.cli.main)(argv[2:])
    finally:
        recorder.dump(spans_path, job)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
