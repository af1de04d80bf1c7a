import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest

from elopt import (
    ConstructionError,
    Hyperplane,
    LineCurve,
    QuadraticCurve,
    build_lp,
    check_el,
    check_feasible,
    construct,
    convex_diag,
    convex_plateau,
    dump_lp,
    eval_at,
    linear_opt,
    one_sided_partials,
    solve_lp,
)
import elopt.cli as cli
from elopt.cli import _CSV_BLOCK_ROWS, _write_csv_rows, main
from elopt.serialize import dumps, expr_from_dict, expr_to_dict, surface_from_dict, surface_to_dict
from helpers import csv_rows_reference, hyperbola_through

QC_SURFACE = {
    "kind": "curve",
    "family": "quadratic",
    "a": 1.0,
    "b": 1.0,
    "shape": "strictly_convex",
    "params": {"c2": 0.5},
}

QCC_SURFACE = dict(QC_SURFACE, shape="strictly_concave", params={"c2": -0.375})

LINE_SURFACE = {"kind": "curve", "family": "line", "a": 2.0, "b": 1.0, "params": {}}

H12_SURFACE = {"kind": "hyperplane", "c": [1.0, 2.0], "M": 1.0}

CSV_HEADER = "x,y,f,fx_left,fx_right,fy_left,fy_right\n"


def write_config(tmp_path, surface, **extra):
    doc = {"schema": 1, "surface": surface}
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, QC_SURFACE)
    assert main(["--config", cfg, "validate"]) == 0
    out = capsys.readouterr().out
    assert "valid: True" in out
    assert "slope_range" in out


def test_validate_failure_exits_3(tmp_path, capsys):
    bad = dict(QC_SURFACE, params={"c2": 1.0})  # alpha'(a) = 0
    cfg = write_config(tmp_path, bad)
    assert main(["--config", cfg, "validate"]) == 3


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["validate"]) == 2  # no --config
    missing = tmp_path / "nope.json"
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"schema": 1, "surface": "\xe9"}')
    cfg = write_config(tmp_path, H12_SURFACE, samples=10, surface_samples=10)
    capsys.readouterr()
    for argv, message in (
        (["--config", str(missing), "validate"], "cannot read config: "),
        (["--config", str(bad_json), "validate"], "config is not valid JSON: "),
        (["--config", str(not_utf8), "validate"], "config is not valid JSON: "),
        (["--config", cfg, "check", "--expr", str(missing)], "cannot read expression file: "),
        (["--config", cfg, "check", "--expr", str(bad_json)], "expression file is not valid JSON: "),
        (["--config", cfg, "check", "--expr", str(not_utf8)], "expression file is not valid JSON: "),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    cfg = write_config(tmp_path, QC_SURFACE, extra_key=1)
    assert main(["--config", cfg, "validate"]) == 2
    cfg = write_config(tmp_path, dict(QC_SURFACE, family="circle"))
    assert main(["--config", cfg, "validate"]) == 2
    no_schema = tmp_path / "ns.json"
    no_schema.write_text(json.dumps({"surface": QC_SURFACE}))
    assert main(["--config", str(no_schema), "validate"]) == 2


@pytest.mark.parametrize("value", ["auto", "convex_diag", "mystery"])
def test_construction_is_an_unknown_config_key(tmp_path, capsys, value):
    # Every optimum is reached through construct plus --expr, so a config
    # cannot pick one.
    cfg = write_config(tmp_path, QC_SURFACE, construction=value)
    assert main(["--config", cfg, "check"]) == 2
    assert capsys.readouterr().err == "config error: unknown config keys: ['construction']\n"


# Out-of-range or mistyped numbers: (config entries, argv after --config/--out).
BAD_NUMBERS = {
    "grid_negative_sample": ({}, ["--grid=-3", "sample"]),
    "grid_negative_lp": ({}, ["--grid=-3", "lp"]),
    "grid_below_lp_minimum_report": ({}, ["--grid=2", "report"]),
    "grid_above_cap_lp": ({}, ["--grid=200", "lp"]),
    "seed_negative": ({"seed": -1}, ["check"]),
    "seed_not_integer": ({"seed": "x"}, ["check"]),
    "samples_negative": ({"samples": -3}, ["check"]),
    "surface_samples_zero": ({"surface_samples": 0}, ["check"]),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_numbers_exit_2_with_one_line(tmp_path, capsys, case):
    extra, argv = BAD_NUMBERS[case]
    cfg = write_config(tmp_path, H12_SURFACE, **extra)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("config error: ", "error: ")) and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["validate", "bound", "construct", "check", "lp", "report", "sample"])
@pytest.mark.parametrize("c, M", [([1e-300, 1.0], 1e10), ([1e300, 1.0], 1e-30)], ids=["inf", "zero"])
def test_planes_with_an_intercept_out_of_range_exit_3(tmp_path, capsys, command, c, M):
    # M / c_0 overflows to inf or underflows to 0
    cfg = write_config(tmp_path, {"kind": "hyperplane", "c": c, "M": M})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), command]) == 3
    captured = capsys.readouterr()
    assert "is not a finite positive number" in captured.out + captured.err


def test_large_hyperbola_has_a_seam(tmp_path):
    # seam near 4.94e6, where an absolute 1e-12 stop is below one ulp
    surface = {"kind": "curve", "family": "hyperbola", "a": 1e7, "b": 5e6, "params": {"s": 4e6, "t": 2e6}}
    cfg = write_config(tmp_path, surface, grid=[8])
    for command in ("construct", "report"):
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), command]) == 0


def test_large_quadratic_box_passes_check(tmp_path, capsys):
    # The seam ties are measured in the box's scale; an absolute 1e-12 falls
    # below one ulp there, and feasibility read a jump of 0.0.  The golden
    # case hyperbola_large covers a 1e7 box.
    surface = {"kind": "curve", "family": "quadratic", "a": 1e5, "b": 1e5, "params": {"c2": 5e-6}}
    cfg = write_config(tmp_path, surface)
    assert main(["--config", cfg, "--samples", "2000", "check"]) == 0
    assert "min_jump 1.0" in capsys.readouterr().out


def test_bound_output(tmp_path, capsys):
    cfg = write_config(tmp_path, H12_SURFACE)
    assert main(["--config", cfg, "bound"]) == 0
    assert "normal_ratio_bound: 2.0" in capsys.readouterr().out


def test_construct_emits_both_convex_builders(tmp_path, capsys, qc):
    cfg = write_config(tmp_path, QC_SURFACE)
    out = tmp_path / "artifacts"
    assert main(["--config", cfg, "--out", str(out), "construct"]) == 0
    text = capsys.readouterr().out
    assert "convex_plateau: cost 2.0" in text
    assert "convex_diag: cost 2.0" in text
    plateau = expr_from_dict(json.loads((out / "convex_plateau.expr.json").read_text()))
    diag = expr_from_dict(json.loads((out / "convex_diag.expr.json").read_text()))
    # the two emitted optima disagree at the seam point: non-uniqueness
    assert eval_at(plateau, (0.5, 0.375)) == pytest.approx(1.125, abs=1e-9)
    assert eval_at(diag, (0.5, 0.375)) == pytest.approx(1.75, abs=1e-9)


def test_construct_fails_loudly_when_the_diagonal_build_fails(tmp_path, capsys, monkeypatch):
    # The worked convex arc has a seam point, so convex_diag applies and its
    # failure is a construction failure, not a silently missing optimum.
    def broken(curve):
        raise ConstructionError("convex_diag: cost from derivative rules disagrees")

    monkeypatch.setattr(cli, "convex_diag", broken)
    cfg = write_config(tmp_path, QC_SURFACE)
    assert main(["--config", cfg, "--out", str(tmp_path / "artifacts"), "construct"]) == 4
    assert "convex_diag: cost from derivative rules disagrees" in capsys.readouterr().err


def test_serialized_expression_round_trips_bit_exactly(qc):
    expr = convex_plateau(qc).expr
    clone = expr_from_dict(json.loads(dumps(expr_to_dict(expr))))
    rng = np.random.default_rng(17)
    pts = rng.uniform(0.0, 1.5, (100, 2))
    assert np.array_equal(eval_at(expr, pts), eval_at(clone, pts))


def _float_bits(surface):
    def bits(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(bits(v) for v in value)
        return value

    return [bits(v) for v in dataclasses.astuple(surface)]


@pytest.mark.parametrize(
    "surface",
    [
        Hyperplane(c=(1.0, 2.0), M=1.0),
        Hyperplane(c=(0.1, 0.2, 0.7), M=1.3),
        LineCurve(a=0.3, b=1.7),
        QuadraticCurve(a=1.37, b=0.81, c2=0.21),
        hyperbola_through(2.0, 0.5, 0.4),
    ],
    ids=repr,
)
def test_serialized_surface_round_trips_bit_exactly(surface):
    doc = surface_to_dict(surface)
    for clone in (surface_from_dict(doc), surface_from_dict(json.loads(dumps(doc)))):
        assert clone == surface
        assert _float_bits(clone) == _float_bits(surface)


def test_check_pass_and_fail(tmp_path, h12):
    cfg = write_config(tmp_path, QC_SURFACE, samples=2000, surface_samples=300)
    assert main(["--config", cfg, "check"]) == 0

    cfg12 = write_config(tmp_path, H12_SURFACE, samples=1000, surface_samples=300)
    halved = {"op": "scale", "factor": 0.5, "inner": expr_to_dict(linear_opt(h12).expr)}
    expr_file = tmp_path / "halved.json"
    expr_file.write_text(json.dumps(halved))
    assert main(["--config", cfg12, "check", "--expr", str(expr_file)]) == 4


def test_lp_command(tmp_path, capsys):
    cfg = write_config(tmp_path, H12_SURFACE, grid=[4, 8])
    out = tmp_path / "lp_out"
    assert main(["--config", cfg, "--out", str(out), "lp", "--dump-lp"]) == 0
    text = capsys.readouterr().out
    assert "m=4: lp_value" in text
    assert "m=8: lp_value" in text
    assert (out / "grid_lp_m4.lp").exists()


@pytest.mark.parametrize("grid", ["12,8", "8,12"])
def test_lp_sweep_output_matches_a_serial_run(tmp_path, capsys, monkeypatch, grid):
    import elopt.analysis as analysis

    cfg = write_config(tmp_path, QC_SURFACE)
    ms = [int(m) for m in grid.split(",")]
    argv = ["--grid", grid, "lp", "--dump-lp"]
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(analysis, "_available_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["--config", cfg, "--out", str(out), *argv]) == 0
        text = capsys.readouterr().out.replace(str(out), "OUT")
        runs.append((text, {p.name: p.read_bytes() for p in out.iterdir()}))
    assert runs[0] == runs[1]
    # what a serial build_lp / solve_lp / dump_lp loop gives, in sweep order
    text, files = runs[0]
    surface = surface_from_dict(QC_SURFACE)
    expected = []
    for m in ms:
        lp = build_lp(surface, m)
        expected.append(f"m={m}: lp_value {solve_lp(lp).value!r} ({lp.crossing_rows} crossing rows)")
        expected.append(f"  wrote OUT/grid_lp_m{m}.lp")
        stream = io.StringIO()
        dump_lp(lp, stream)
        assert files[f"grid_lp_m{m}.lp"] == stream.getvalue().encode()
    assert text.splitlines() == expected
    assert len(files) == len(ms)


@pytest.mark.parametrize("grid", ["3,48", "48,3"])
def test_lp_rejects_a_bad_grid_size_before_any_solve(tmp_path, capsys, monkeypatch, grid):
    import elopt.analysis as analysis

    solved = []

    def no_solve(lp):
        solved.append(lp.m)
        raise AssertionError(f"solve_lp called at m={lp.m}")

    monkeypatch.setattr(analysis, "solve_lp", no_solve)
    cfg = write_config(tmp_path, QC_SURFACE)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--grid", grid, "lp", "--dump-lp"]) == 2
    assert capsys.readouterr().err == "error: need m >= 4, got 3\n"
    assert solved == []
    assert not out.exists()


def test_lp_rejects_higher_dimensions(tmp_path):
    cfg = write_config(
        tmp_path, {"kind": "hyperplane", "c": [1.0, 2.0, 3.0], "M": 1.0}, grid=[4]
    )
    assert main(["--config", cfg, "lp"]) == 2


def test_report_is_byte_reproducible(tmp_path):
    cfg = write_config(tmp_path, QC_SURFACE, grid=[8])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a), "report"]) == 0
    assert main(["--config", cfg, "--out", str(out_b), "report"]) == 0
    first = (out_a / "report.json").read_bytes()
    assert first == (out_b / "report.json").read_bytes()
    doc = json.loads(first)
    assert doc["ratio_bound"] == 2.0
    assert doc["construction_cost"] == 2.0
    assert doc["gap_cost_minus_bound"] == 0.0


def test_json_format_output_parses(tmp_path, capsys):
    cfg = write_config(tmp_path, QC_SURFACE)
    assert main(["--config", cfg, "--format", "json", "bound"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 2.0
    assert doc["type"] == "RatioBound"


def test_sample_csv_contract(tmp_path, capsys):
    cfg = write_config(tmp_path, QC_SURFACE)
    out = tmp_path / "plots"
    assert main(["--config", cfg, "--out", str(out), "--grid", "8", "sample"]) == 0
    lines = (out / "sample.csv").read_text().splitlines()
    assert lines[0] == "x,y,f,fx_left,fx_right,fy_left,fy_right"
    assert len(lines) == 1 + 9 * 9
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "0.0" and first[2] == "0.0"
    assert first[3] == "nan"  # no left derivative on the axis
    # deterministic bytes
    blob = (out / "sample.csv").read_bytes()
    assert main(["--config", cfg, "--out", str(out), "--grid", "8", "sample"]) == 0
    assert blob == (out / "sample.csv").read_bytes()


# (surface, builder) for every construction kind; H(1,2) builds a Scale.  A
# default optimum is sampled as is, any other through the file construct wrote.
SAMPLE_CASES = {
    "convex_diag": (QC_SURFACE, convex_diag),
    "convex_plateau": (QC_SURFACE, construct),
    "concave_step": (QCC_SURFACE, construct),
    "linear_opt": (LINE_SURFACE, construct),
    "hyperplane_scale": (H12_SURFACE, construct),
}


def sample_csv(tmp_path, case, out):
    """The ``sample.csv`` bytes that ``sample --grid 64`` writes to ``out`` for a case."""
    surface_doc, build = SAMPLE_CASES[case]
    cfg = write_config(tmp_path, surface_doc)
    argv = ["--config", cfg, "--out", str(out), "--grid", "64", "sample"]
    if build is not construct:
        exprs = tmp_path / "exprs"
        assert main(["--config", cfg, "--out", str(exprs), "construct"]) == 0
        argv += ["--expr", str(exprs / f"{build.__name__}.expr.json")]
    assert main(argv) == 0
    return (out / "sample.csv").read_bytes()


@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_sample_csv_matches_per_field_repr(tmp_path, case):
    surface_doc, build = SAMPLE_CASES[case]
    surface = surface_from_dict(surface_doc)
    expr = build(surface).expr
    xs, ys = (np.linspace(0.0, 1.25 * side, 65) for side in surface.intercepts())
    points = np.column_stack([np.repeat(xs, 65), np.tile(ys, 65)])
    grad = one_sided_partials(expr, points)
    columns = [points[:, 0], points[:, 1], eval_at(expr, points),
               grad.left[:, 0], grad.right[:, 0], grad.left[:, 1], grad.right[:, 1]]
    expected = CSV_HEADER + csv_rows_reference(columns)
    assert sample_csv(tmp_path, case, tmp_path / "plots") == expected.encode()


@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_sample_csv_does_not_depend_on_the_block_size(tmp_path, case, monkeypatch):
    def csv(block):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block)
        return sample_csv(tmp_path, case, tmp_path / f"plots{block}")

    whole = csv(65 * 65)
    for block in (1000, 65 * 65 - 1):  # the second leaves a one-row block
        assert csv(block) == whole


def test_sample_peak_memory_is_one_small_block(tmp_path, capsys):
    # Blocks of 32,768 rows peaked at 11.6 MiB here; 16,384-row blocks peak
    # at about 6 MiB.
    cfg = write_config(tmp_path, QC_SURFACE)
    tracemalloc.start()
    try:
        assert main(["--config", cfg, "--out", str(tmp_path), "--grid", "400", "sample"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_csv_writer_keeps_every_bit_pattern_apart(tmp_path):
    rows = 2 * _CSV_BLOCK_ROWS + 3  # two full blocks and a short one
    special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.1, 1e300])
    rng = np.random.default_rng(3)
    distinct = rng.standard_normal(rows)
    assert np.unique(distinct).size == rows
    table = np.column_stack([np.resize(special, rows), distinct])
    columns = [table[:, 0], table[:, 1], np.resize(special[::-1], rows), np.zeros(rows),
               np.full(rows, -0.0), np.repeat(rng.uniform(0.0, 2.0, 7), rows // 7 + 1)[:rows],
               np.full(rows, np.nan)]
    path = tmp_path / "rows.csv"
    with path.open("w", newline="\n") as stream:
        for start in range(0, rows, _CSV_BLOCK_ROWS):  # as sample hands them over
            _write_csv_rows(stream, [column[start : start + _CSV_BLOCK_ROWS] for column in columns])
    assert path.read_bytes() == csv_rows_reference(columns).encode()


def test_json_reports_keep_booleans(h12):
    expr = linear_opt(h12).expr
    el = json.loads(dumps(check_el(expr, (1.5, 0.75), samples=200, seed=0)))
    assert el["passed"] is True
    assert all(prop["passed"] is True for prop in el["properties"])
    feas = json.loads(dumps(check_feasible(expr, h12, samples=50, seed=0)))
    assert feas["feasible"] is True
    assert json.loads(dumps(h12.validate()))["valid"] is True


def test_seed_and_samples_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, QC_SURFACE, samples=500, surface_samples=100, seed=1)
    assert main(["--config", cfg, "--seed", "9", "--samples", "800", "--format", "json", "check"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["el_report"]["seed"] == 9
    assert doc["el_report"]["samples"] == 800
