"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import gates
import layers
import run
import workloads

sys.path.insert(0, str(run.SRC))

from elopt import normal_ratio_bound  # noqa: E402
from elopt.serialize import surface_from_dict  # noqa: E402


@pytest.mark.parametrize("seed", range(9))
def test_generator_draws_valid_surfaces_with_closed_form_bounds(seed):
    drawn = workloads.surfaces(seed)
    assert drawn == workloads.surfaces(seed)
    families = set()
    for s in drawn:
        surface = surface_from_dict(s.doc)
        assert surface.validate().valid, s
        assert normal_ratio_bound(surface).value == pytest.approx(s.ratio_bound, rel=1e-12)
        families.add(s.doc.get("family", "hyperplane"))
        if s.doc.get("family") in ("quadratic", "hyperbola"):
            assert surface.t_point() is not None, s
    assert families == {"hyperplane", "line", "quadratic", "hyperbola"}
    assert [s.name for s in drawn[:3]] == list(workloads.WORKED)


def test_seeds_draw_different_random_surfaces():
    docs = {json.dumps([s.doc for s in workloads.surfaces(seed)[3:]]) for seed in range(6)}
    assert len(docs) == 6


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_tail_is_the_highest_sample_with_ten_beyond_or_the_maximum():
    assert run._tail([float(v) for v in range(31)]) == (20.0, pytest.approx(200 / 3))
    assert run._tail([float(v) for v in range(20)]) == (19.0, 100.0)
    assert run._tail([4.0]) == (4.0, 100.0)


def test_end_to_end_times_are_scaled_by_the_probe_and_memory_is_not():
    job = workloads.jobs("cli_light", 0)[0]
    runs = [run.Execution(job, seconds, 80.0, [], 0, None) for seconds in (1.0, 3.0)]
    probes = [9.0, 2.0, 4.0, 1.0, 3.0, 5.0, 0.1, 6.0]        # middle half: 2, 3, 4, 5
    values, _ = run.end_to_end([0.5, 0.7, 0.6], runs, probes)
    scale = run.PROBE_REF_S / 3.5
    assert values["wall_s"] == pytest.approx(2.0 * scale)
    assert values["setup_s"] == pytest.approx(0.6 * scale)
    assert values["peak_rss_mb"] == 80.0
    assert run.host_probe([2.0]) == 2.0


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "analysis.gap_report", "parent": 0, "start": 1.0, "end": 9.0},
        {"id": 2, "name": "lp_oracle.solve_lp", "parent": 1, "start": 2.0, "end": 7.0},
        {"id": 3, "name": "serialize.dumps", "parent": 0, "start": 9.0, "end": 9.5},
    ]
    assert [t for _, t in layers.self_times(spans)] == [1.5, 3.0, 5.0, 0.5]


def test_gates_reject_a_broken_bracket_and_a_wrong_worked_lp(tmp_path):
    surface = workloads.surfaces(0)[1]          # worked convex quadratic
    job = workloads.Job("worked_convex.lp", "lp", surface, ())
    good = {"lp": [{"m": 16, "value": surface.lp[16], "crossing_rows": 28, "iterations": 1}]}
    assert gates.problems(job, 0, json.dumps(good).encode(), tmp_path) == []
    wrong = {"lp": [{"m": 16, "value": surface.lp[16] + 1e-4, "crossing_rows": 28, "iterations": 1}]}
    assert gates.problems(job, 0, json.dumps(wrong).encode(), tmp_path)
    above = {"lp": [{"m": 16, "value": 2.5, "crossing_rows": 28, "iterations": 1}]}
    assert len(gates.problems(job, 0, json.dumps(above).encode(), tmp_path)) == 2
    assert gates.problems(job, 4, b"", tmp_path) == ["exit code 4"]


def test_smoke_run_has_no_failures_and_reports_every_layer():
    _, client, job_list = run.set_up("cli_light", seed=3)
    plain = [client.run(job) for job in job_list if job.surface.name == "worked_convex"]
    lp_job = next(job for job in job_list if job.command == "lp")
    pairs = [(client.run(lp_job), client.run(lp_job, traced=True))]
    assert [e.problems for e in plain + list(pairs[0])] == [[]] * (len(plain) + 2)
    assert {e.job.command for e in plain} == {"validate", "bound", "construct", "check", "lp"}
    values = layers.metrics(pairs)
    assert set(values) == set(layers.UNITS)
    assert values["lp_oracle.solve_lp_s"] > 0 and values["lp_oracle.rows"] > 0
    assert values["init.import_s"] > 0
    assert run.LPLedger().check(pairs[0][1].spans) == []
    assert client.probe() > 0 and client.probe() > 0      # the second must repeat the first's output


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_light", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
