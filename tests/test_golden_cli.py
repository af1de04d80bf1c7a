"""Golden CLI corpus: stdout, stderr, exit code and artifacts of every command, byte for byte.

Each case is a job config run through ``elopt.cli.main`` in-process from a
scratch directory, so the printed artifact paths are relative and stable.
Every case runs ``validate``, ``bound``, ``construct``, ``check``, ``report``
and ``sample`` in both output formats, plus ``check --expr`` on each
expression file that ``construct`` wrote.  No LP is solved (the configs carry
``"grid": []``), so the corpus does not depend on the HiGHS version.
Malformed surface and expression documents are run once each and must keep
their exit code and error message.

``python tests/test_golden_cli.py`` records every case with the current
code, prints per file ``unchanged`` or the keys of the records that changed,
appeared or vanished, and rewrites only the files that changed; review the
diff before committing it.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

H12 = {"kind": "hyperplane", "c": [1.0, 2.0], "M": 1.0}


def _quadratic(a, b, c2):
    return {"kind": "curve", "family": "quadratic", "a": a, "b": b, "params": {"c2": c2}}


def _hyperbola(a, b, s, t):
    return {"kind": "curve", "family": "hyperbola", "a": a, "b": b, "params": {"s": s, "t": t}}


def _line(a, b):
    return {"kind": "curve", "family": "line", "a": a, "b": b, "shape": "auto", "params": {}}


# case name -> (surface document, construction)
CASES = {
    "h12": (H12, "auto"),
    "hyperplane_3d": ({"kind": "hyperplane", "c": [1.0, 2.0, 3.0], "M": 2.0}, "auto"),
    "quadratic_convex": (_quadratic(1.0, 1.0, 0.5), "auto"),
    "quadratic_concave": (_quadratic(1.0, 1.0, -0.375), "auto"),
    "line": (_line(2.0, 1.0), "auto"),
    "hyperbola": (_hyperbola(2.0, 0.5, 0.4, 0.1), "auto"),
    # a box near 1e7, where the seam ties are measured in the box's scale
    "hyperbola_large": (_hyperbola(1e7, 5e6, 4e6, 2e6), "auto"),
    "hyperbola_inconsistent": (_hyperbola(1.0, 1.0, 1.0, 2.0), "auto"),
    # endpoint seams: no point of normal (1, 1)
    "fallback_convex_shallow": (_quadratic(2.0, 0.5, 0.1), "auto"),
    "fallback_convex_steep": (_quadratic(1.0, 2.5, 0.5), "auto"),
    "fallback_concave_shallow": (_quadratic(1.0, 0.5, -0.2), "auto"),
    "fallback_concave_steep": (_quadratic(1.0, 2.0, -0.5), "auto"),
    "named_convex_diag": (_quadratic(1.0, 1.0, 0.5), "convex_diag"),
    "named_concave_step": (_quadratic(1.0, 1.0, -0.375), "concave_step"),
    "named_convex_plateau_hyperbola": (_hyperbola(1.0, 1.0, 1.0, 1.0), "convex_plateau"),
    "named_linear_opt_line": (_line(1.0, 3.0), "linear_opt"),
    "hyperplane_convex_diag": (H12, "convex_diag"),
    "concave_step_on_convex": (_quadratic(1.0, 1.0, 0.5), "concave_step"),
}

COMMANDS = {
    "validate": ["validate"],
    "bound": ["bound"],
    "construct": ["construct"],
    "check": ["--samples", "2000", "check"],
    "report": ["report"],
    "sample": ["--grid", "8", "sample"],
}
FORMATS = ("text", "json")

_GOOD_CURVE = {"kind": "curve", "family": "quadratic", "a": 1.0, "b": 1.0, "params": {"c2": 0.5}}
_LINEAR = {"op": "linear", "c": [1.0, 2.0]}

MALFORMED_SURFACES = {
    "not_an_object": [1, 2],
    "no_kind": {"c": [1.0]},
    "unknown_kind": {"kind": "sphere"},
    "hyperplane_unknown_key": dict(H12, extra=1),
    "hyperplane_missing_M": {"kind": "hyperplane", "c": [1.0, 2.0]},
    "hyperplane_negative_c": {"kind": "hyperplane", "c": [1.0, -2.0], "M": 1.0},
    "hyperplane_c_not_a_list": {"kind": "hyperplane", "c": 5, "M": 1.0},
    "curve_missing_b": {"kind": "curve", "family": "line", "a": 1.0},
    "curve_unknown_key": dict(_GOOD_CURVE, radius=1.0),
    "curve_a_not_a_number": dict(_GOOD_CURVE, a="x"),
    "curve_a_negative": dict(_GOOD_CURVE, a=-1.0),
    "curve_unknown_family": dict(_GOOD_CURVE, family="circle"),
    "curve_family_not_a_string": dict(_GOOD_CURVE, family=["q"]),
    "curve_family_number": dict(_GOOD_CURVE, family=3),
    "curve_unknown_shape": dict(_GOOD_CURVE, shape="wavy"),
    "curve_shape_mismatch": dict(_GOOD_CURVE, shape="strictly_concave"),
    "quadratic_unknown_param": dict(_GOOD_CURVE, params={"c2": 0.5, "c3": 1.0}),
    "quadratic_missing_param": dict(_GOOD_CURVE, params={}),
    "quadratic_null_params": dict(_GOOD_CURVE, params=None),
    "quadratic_params_list": dict(_GOOD_CURVE, params=[1]),
    "quadratic_params_string": dict(_GOOD_CURVE, params="ab"),
    "quadratic_c2_not_a_number": dict(_GOOD_CURVE, params={"c2": "x"}),
    "hyperbola_missing_t": dict(_GOOD_CURVE, family="hyperbola", params={"s": 1.0}),
    "line_with_params": dict(_GOOD_CURVE, family="line", params={"c2": 0.5}),
}

MALFORMED_EXPRESSIONS = {
    "not_an_object": [1, 2],
    "no_op": {"c": [1.0]},
    "unknown_op": {"op": "product"},
    "op_not_a_string": {"op": ["linear"]},
    "linear_unknown_key": dict(_LINEAR, extra=1),
    "linear_negative_c": {"op": "linear", "c": [1.0, -2.0]},
    "linear_empty_c": {"op": "linear", "c": []},
    "linear_c_not_a_list": {"op": "linear", "c": 3},
    "scale_missing_inner": {"op": "scale", "factor": 2.0},
    "scale_factor_not_a_number": {"op": "scale", "factor": "x", "inner": _LINEAR},
    "scale_negative_factor": {"op": "scale", "factor": -1.0, "inner": _LINEAR},
    "scale_inner_not_an_object": {"op": "scale", "factor": 1.0, "inner": [1]},
    "truncate_min_missing_cap": {"op": "truncate_min", "inner": _LINEAR},
    "clamp_dimension_mismatch": {"op": "clamp", "at": [1.0], "inner": _LINEAR},
    "sum_dimension_mismatch": {"op": "sum", "left": _LINEAR, "right": {"op": "linear", "c": [1.0]}},
    "sum_nested_unknown_op": {"op": "sum", "left": _LINEAR, "right": {"op": "nope"}},
    "curve_node_on_hyperplane": {"op": "convex_plateau", "curve": H12},
    "curve_node_wrong_shape": {"op": "convex_diag", "curve": _quadratic(1.0, 1.0, -0.5)},
    "curve_node_family_not_a_string": {"op": "concave_step", "curve": dict(_GOOD_CURVE, family=["q"])},
    "curve_node_bad_params": {"op": "convex_plateau", "curve": dict(_GOOD_CURVE, params={"s": 1.0})},
    "curve_node_extra_key": {"op": "convex_plateau", "curve": _GOOD_CURVE, "seam": 0.5},
    "curve_node_invalid_curve": {"op": "convex_plateau", "curve": _hyperbola(1.0, 1.0, 1.0, 2.0)},
}


def _run(argv, key):
    """One in-process CLI call; returns its exit code, stdout, stderr and warnings as records.

    A zero exit code and empty streams are left out; a record that appears or
    vanishes is a change like any other.
    """
    from elopt.cli import main

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    records = {
        key + ("exit",): f"{code}\n" if code else "",
        key + ("stdout",): out.getvalue(),
        key + ("stderr",): err.getvalue(),
        key + ("warnings",): "".join(f"{w.category.__name__}: {w.message}\n" for w in caught),
    }
    return {k: text for k, text in records.items() if text}


def _write_config(surface, construction="auto"):
    doc = {"schema": 1, "surface": surface, "grid": [], "construction": construction}
    Path("config.json").write_text(json.dumps(doc))


def _record_command(label, argv):
    """Both output formats of one command; artifacts must not depend on the format."""
    records = {}
    for fmt in FORMATS:
        out = Path("out", f"{label}.{fmt}".replace(" ", "_"))
        records.update(_run(["--config", "config.json", "--format", fmt, "--out", str(out)] + argv, (label, fmt)))
        artifacts = {
            (label, "artifact", p.name): p.read_bytes().decode()
            for p in (sorted(out.iterdir()) if out.exists() else ())
        }
        if fmt != FORMATS[0] and artifacts.keys() != {k for k in records if k[1] == "artifact"}:
            raise AssertionError(f"{label}: the output formats write different artifacts")
        for key, text in artifacts.items():
            if records.setdefault(key, text) != text:
                raise AssertionError(f"{label}: artifact {key[2]} depends on the output format")
    return records


def record_case(name):
    """Run one case in the current directory; returns its records, key -> text."""
    _write_config(*CASES[name])
    records = {}
    for label, argv in COMMANDS.items():
        records.update(_record_command(label, argv))
    written = sorted(key[2] for key in records if key[:2] == ("construct", "artifact"))
    for expr_file in written:
        argv = ["--samples", "2000", "check", "--expr", f"out/construct.text/{expr_file}"]
        records.update(_record_command(f"check --expr {expr_file}", argv))
    return records


def record_malformed():
    """Malformed surface documents under ``validate``, malformed expressions under ``check --expr``."""
    records = {}
    for name, surface in MALFORMED_SURFACES.items():
        Path("config.json").write_text(json.dumps({"schema": 1, "surface": surface}))
        records.update(_run(["--config", "config.json", "validate"], ("surface", name)))
    _write_config(H12)
    for name, doc in MALFORMED_EXPRESSIONS.items():
        Path("expr.json").write_text(json.dumps(doc))
        records.update(_run(["--config", "config.json", "check", "--expr", "expr.json"], ("expression", name)))
    return records


def record(name):
    return record_malformed() if name == "malformed" else record_case(name)


# A golden file is a sequence of records, each a header line ``%% <key as a
# JSON list> <length>`` followed by exactly ``length`` characters of text and a
# newline, so any output is stored verbatim and stays diffable.  A long text
# seen before in the same file is stored once: ``%% <key> = <earlier key>``.
_SHARE_MIN = 200


def dump_records(records):
    parts, first = [], {}
    for key, text in records.items():
        if len(text) >= _SHARE_MIN and text in first:
            parts.append(f"%% {json.dumps(list(key))} = {json.dumps(list(first[text]))}\n")
            continue
        first.setdefault(text, key)
        parts.append(f"%% {json.dumps(list(key))} {len(text)}\n{text}\n")
    return "".join(parts)


def load_records(blob):
    records, pos = {}, 0
    while pos < len(blob):
        end = blob.index("\n", pos)
        header = blob[pos:end]
        assert header.startswith("%% "), f"corrupt golden header {header!r}"
        if " = " in header:
            key, same_as = header[3:].split(" = ")
            records[tuple(json.loads(key))] = records[tuple(json.loads(same_as))]
            pos = end + 1
            continue
        key, length = header[3:].rsplit(" ", 1)
        start = end + 1
        records[tuple(json.loads(key))] = blob[start:start + int(length)]
        pos = start + int(length) + 1
    return records


def _golden_path(name):
    return GOLDEN / f"{name}.txt"


NAMES = sorted(CASES) + ["malformed"]


@pytest.mark.parametrize("name", NAMES)
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = record(name)
    with open(_golden_path(name), newline="") as stream:
        want = load_records(stream.read())
    assert list(got) == list(want), f"{name}: the set of recorded outputs changed"
    for key, text in want.items():
        assert got[key] == text, f"{name}: {key} differs from the golden output"


def _changes(old, new):
    """Keys of the records that differ between two golden files' records, in the new file's order first."""
    keys = list(new) + [key for key in old if key not in new]
    changed = [" ".join(key) for key in keys if old.get(key) != new.get(key)]
    return ", ".join(changed) if changed else "record order"


def main():
    GOLDEN.mkdir(exist_ok=True)
    here = os.getcwd()
    for name in NAMES:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                records = record(name)
            finally:
                os.chdir(here)
        path, blob = _golden_path(name), dump_records(records)
        old = None
        if path.exists():
            with open(path, newline="") as stream:
                old = stream.read()
        if blob == old:
            print(f"{path.name}: unchanged")
            continue
        with open(path, "w", newline="") as stream:
            stream.write(blob)
        print(f"{path.name}: " + ("new file" if old is None else _changes(load_records(old), records)))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main()
