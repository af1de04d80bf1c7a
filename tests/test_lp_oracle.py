import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import elopt
from elopt import (
    DomainError,
    Hyperplane,
    QuadraticCurve,
    SolverError,
    build_lp,
    concave_construct,
    convex_plateau,
    dump_lp,
    gap_report,
    grid_points,
    linear_opt,
    normal_ratio_bound,
    restriction_check,
    solve_lp,
)
from elopt.lp_oracle import ROW_TOL
from helpers import hyperbola_through, simplex_min_geq, with_rows

GOLDEN_LP = Path(__file__).resolve().parent / "golden_lp"


@pytest.fixture
def h11():
    return Hyperplane(c=(1.0, 1.0), M=1.0)


def test_row_census_m4(h11):
    lp = build_lp(h11, 4)
    kinds = lp.kinds
    # monotonicity is implied everywhere but at the far corner
    assert [k for k in kinds if k.startswith("mono_")] == ["mono_x[3,4]", "mono_y[4,3]"]
    assert sum(k.startswith("submod") for k in kinds) == 16
    assert sum(k.startswith("conc_x") for k in kinds) == 3 * 5
    assert sum(k.startswith("conc_y") for k in kinds) == 3 * 5
    assert sum(k.startswith("obj_") for k in kinds) == 2
    # diagonal crossings: rows only for cells 1 <= k <= m-2
    assert sum(k.startswith("cross_") for k in kinds) == 4
    assert lp.crossing_rows == 4
    assert lp.geq.shape == (len(kinds), 26)
    assert lp.h == (0.25, 0.25)
    assert [n.tolist() for n in lp.nodes] == [[0.0, 0.25, 0.5, 0.75, 1.0]] * 2
    assert lp.shape == (5, 5) and lp.m == 4


def test_crossing_cells_sit_astride_the_surface(h11):
    lp = build_lp(h11, 4)
    # x + y = 1 crosses line j at x = 1 - j/4; rows exist for j = 2 (k = 2)
    # and j = 3 (k = 1); j = 1 gives k = 3 > m - 2 and is skipped
    assert "cross_x[j=2,k=2]" in lp.kinds
    assert "cross_x[j=3,k=1]" in lp.kinds
    assert not any(k.startswith("cross_x[j=1") for k in lp.kinds)


def test_build_input_validation(h11):
    with pytest.raises(ValueError):
        build_lp(h11, 3)
    with pytest.raises(ValueError):
        build_lp(h11, 97)
    with pytest.raises(DomainError):
        build_lp(Hyperplane(c=(1.0, 1.0, 1.0), M=1.0), 8)
    with pytest.raises(ValueError):
        build_lp(QuadraticCurve(a=1.0, b=1.0, c2=1.0), 8)  # degenerate arc
    # m follows check_el's integer rule: no floats, strings, None or bools
    for bad in (8.0, 8.9, "8", None, True):
        with pytest.raises(DomainError, match=f"^need m >= 4, got {re.escape(repr(bad))}$"):
            build_lp(h11, bad)
    lp = build_lp(h11, np.int64(8))
    assert lp.m == 8 and type(lp.m) is int
    # the sweep takes m through the same rule rather than truncating it
    with pytest.raises(DomainError, match="^need m >= 4, got 8.9$"):
        gap_report(h11, grid_m=[8.9])


def test_symmetric_plane_reaches_its_optimum(h11):
    for m in (4, 8, 16):
        value = solve_lp(build_lp(h11, m)).value
        assert value <= 1.0 + 1e-9
        assert value == pytest.approx(1.0, abs=1e-6)


def test_skewed_plane_values(h12):
    # regression values established by running the solver; soundness bounds
    # them by the known optimum 2
    expected = {8: 4.0 / 3.0, 16: 28.0 / 17.0, 32: 1.8181818181818175}
    for m, want in expected.items():
        value = solve_lp(build_lp(h12, m)).value
        assert value <= 2.0 + 1e-9
        assert value == pytest.approx(want, abs=1e-6)
    assert 1.5 <= expected[32] <= 2.0 + 1e-9


def test_curve_values(qc, qcc):
    cases = [
        (qc, {16: 1.0, 32: 1.260344504774392}),
        (qcc, {16: 8.0 / 7.0, 32: 1.2928664507926944}),
    ]
    for surface, expected in cases:
        for m, want in expected.items():
            value = solve_lp(build_lp(surface, m)).value
            assert value <= 2.0 + 1e-9
            assert value == pytest.approx(want, abs=1e-6)


def test_reference_simplex_agrees_with_the_production_solver(h11, h12, qc):
    for surface, m in ((h11, 4), (h12, 5), (qc, 4)):
        lp = build_lp(surface, m)
        objective = np.zeros(lp.n_vars)
        objective[-1] = 1.0
        dense = lp.geq.toarray()
        rhs = lp.geq_rhs.copy()
        # fold the f(0,0) = 0 equality into the inequality system
        origin = np.zeros((2, lp.n_vars))
        origin[0, 0] = 1.0
        origin[1, 0] = -1.0
        dense = np.vstack([dense, origin])
        rhs = np.concatenate([rhs, [0.0, 0.0]])
        reference = simplex_min_geq(objective, dense, rhs)
        production = solve_lp(lp).value
        assert production == pytest.approx(reference, abs=1e-7)


def _with_all_monotonicity_rows(lp):
    """The LP plus every row f(g + e_d) >= f(g), the rows build_lp leaves implied."""
    import scipy.sparse as sp

    ids = np.arange(lp.n_vars - 1).reshape(lp.shape)
    up = np.concatenate([ids[1:, :].ravel(), ids[:, 1:].ravel()])
    low = np.concatenate([ids[:-1, :].ravel(), ids[:, :-1].ravel()])
    k = up.size
    mono = sp.csr_matrix(
        (np.repeat([1.0, -1.0], k), (np.tile(np.arange(k), 2), np.concatenate([up, low]))),
        shape=(k, lp.n_vars),
    )
    return with_rows(
        lp,
        sp.vstack([lp.geq, mono]),
        np.concatenate([lp.geq_rhs, np.zeros(k)]),
        lp.kinds + ("mono_all",) * k,
    )


def test_dropped_monotonicity_rows_are_implied(h12, qc):
    for surface in (h12, qc, QuadraticCurve(a=1.0, b=1.0, c2=-0.375)):
        for m in (8, 16):
            lp = build_lp(surface, m)
            pruned = solve_lp(lp)
            full = solve_lp(_with_all_monotonicity_rows(lp))
            assert full.value == pytest.approx(pruned.value, abs=1e-6)
            assert np.all(np.diff(pruned.grid, axis=0) >= -ROW_TOL)
            assert np.all(np.diff(pruned.grid, axis=1) >= -ROW_TOL)


def test_import_does_not_load_scipy(tmp_path):
    src = str(Path(elopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, elopt, elopt.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

    # the LP commands reach HiGHS through its extension alone
    config = tmp_path / "config.json"
    h12 = {"kind": "hyperplane", "c": [1.0, 2.0], "M": 1.0}
    config.write_text(json.dumps({"schema": 1, "surface": h12}))
    loaded = tmp_path / "modules.json"
    probe = (
        "import json, sys\n"
        "from elopt.cli import main\n"
        "common = ['--config', sys.argv[1], '--out', sys.argv[2], '--grid', '8']\n"
        "assert main(common + ['lp', '--dump-lp']) == 0\n"
        "assert main(common + ['report']) == 0\n"
        "open(sys.argv[3], 'w').write(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    subprocess.run(
        [sys.executable, "-c", probe, str(config), str(tmp_path / "out"), str(loaded)],
        env=env, capture_output=True, text=True, check=True,
    )
    core = "scipy.optimize._highspy._core"
    modules = json.loads(loaded.read_text())
    assert core in modules
    assert [m for m in modules if m != core and not m.startswith(core + ".")] == []


def test_missing_highs_extension_names_the_path(tmp_path, monkeypatch):
    import importlib.machinery
    import importlib.util

    from elopt import SolverError

    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    with pytest.raises(SolverError, match=str(tmp_path / "optimize" / "_highspy" / "_core")):
        solve_lp(build_lp(Hyperplane(c=(1.0, 1.0), M=1.0), 4))


def test_restriction_of_constructions_satisfies_every_row(qc, qcc, h12):
    cases = [
        (h12, linear_opt(h12)),
        (qc, convex_plateau(qc)),
        (qcc, concave_construct(qcc)),
    ]
    for surface, res in cases:
        for m in (8, 16):
            lp = build_lp(surface, m)
            report = restriction_check(lp, res.expr)
            assert report.satisfied, report
            assert report.max_violation <= 1e-9
            assert report.objective <= res.claimed_cost + 1e-9


def test_infeasible_restriction_is_caught(h12):
    from elopt import Scale

    lp = build_lp(h12, 8)
    report = restriction_check(lp, Scale(0.5, linear_opt(h12).expr))
    assert not report.satisfied
    assert report.worst_row.startswith("cross_")


def test_solver_is_deterministic(qc):
    a = solve_lp(build_lp(qc, 16))
    b = solve_lp(build_lp(qc, 16))
    assert a.value == b.value
    assert np.array_equal(a.grid, b.grid)
    assert a.iterations == b.iterations


def _stripped(lp):
    """The LP without its crossing rows."""
    keep = [i for i, k in enumerate(lp.kinds) if not k.startswith("cross_")]
    return with_rows(
        lp, lp.geq[keep], lp.geq_rhs[keep], tuple(lp.kinds[i] for i in keep), crossing_rows=0
    )


def _contradicted(lp):
    """The LP plus the row f(0,0) >= 1, which contradicts the pointedness equality."""
    import scipy.sparse as sp

    extra = sp.csr_matrix(
        (np.array([1.0]), (np.array([0]), np.array([0]))), shape=(1, lp.n_vars)
    )
    return with_rows(
        lp,
        sp.vstack([lp.geq, extra]),
        np.concatenate([lp.geq_rhs, [1.0]]),
        lp.kinds + ("impossible",),
    )


@pytest.mark.parametrize(
    "c, M",
    [
        # intercepts near 4e9: the LP came out above the ratio bound
        ((7.331379986375735e-06, 6.702125547625035e-06), 27634.28708985404),
        # intercepts near 4e-6 and 3e-9: HiGHS reported the LP infeasible
        ((13.519482880241238, 15625.863876729845), 5.383640226392579e-05),
        # intercepts near 4e4 and 2e7: the crossing search refused the plane
        ((24.511798867973503, 0.039750096430170155), 970519.3363920443),
    ],
)
def test_badly_scaled_planes_solve_below_the_ratio_bound(c, M):
    plane = Hyperplane(c=c, M=M)
    ratio = normal_ratio_bound(plane).value
    for m in (7, 16):
        assert solve_lp(build_lp(plane, m)).value <= ratio * (1 + 1e-6)


def test_arc_scaled_by_a_power_of_two_solves_like_the_unit_arc(qc):
    # alpha scaled by 2^-30 in both axes: the rows, in units of the box, are
    # the unit arc's, so the solve is too
    lam = 2.0**-30
    unit_lp = build_lp(qc, 16)
    small_lp = build_lp(QuadraticCurve(a=lam, b=lam, c2=qc.c2 / lam), 16)
    assert (unit_lp.scale, small_lp.scale) == (1.0, lam)
    assert small_lp.geq_data.tobytes() == unit_lp.geq_data.tobytes()
    assert small_lp.geq_rhs.tobytes() == unit_lp.geq_rhs.tobytes()
    unit, small = solve_lp(unit_lp), solve_lp(small_lp)
    assert small.value == unit.value
    assert small.grid.tobytes() == (unit.grid * lam).tobytes()


def test_lp_without_crossing_rows_collapses_to_zero(h11):
    sol = solve_lp(_stripped(build_lp(h11, 4)))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_infeasible_status_raises_solver_error(h11):
    with pytest.raises(SolverError, match="^LP status Infeasible at m=4$"):
        solve_lp(_contradicted(build_lp(h11, 4)))


def test_grid_points_order_matches_variables(h11):
    lp = build_lp(h11, 4)
    pts = grid_points(lp)
    assert pts.shape == (25, 2)
    # variable id i * (m+1) + j maps to (nodes[0][i], nodes[1][j])
    assert np.allclose(pts[7], [0.25, 0.5])


def test_dump_format_and_determinism(h11):
    lp = build_lp(h11, 4)
    first, second = io.StringIO(), io.StringIO()
    dump_lp(lp, first)
    dump_lp(lp, second)
    text = first.getvalue()
    assert text == second.getvalue()
    assert text.startswith("\\ grid LP lower bound")
    assert "Minimize\n obj: t" in text
    assert " point_origin: f_0_0 = 0" in text
    assert text.count(">=") == len(lp.kinds)
    assert text.rstrip().endswith("End")


def test_dump_header_names_a_scale_other_than_one(h11):
    # the rows measure f in units of lp.scale; a dump must say which
    hyp = hyperbola_through(2.0, 0.5, 0.4)
    for surface, tail in ((hyp, ", scale = 2.0"), (h11, "")):
        lp = build_lp(surface, 6)
        out = io.StringIO()
        dump_lp(lp, out)
        assert out.getvalue().splitlines()[0] == f"\\ grid LP lower bound ({surface!r}), m = 6{tail}"


def test_hyperplane_crossings_fill_the_diagonal(h11, h12):
    # the intercept box normalises any 2-D plane to the grid diagonal, so
    # exactly m - 2 crossings fit per direction
    for plane in (h11, h12):
        for m in (4, 8, 16):
            assert build_lp(plane, m).crossing_rows == 2 * (m - 2)


def test_tiny_grid_warns_when_no_crossing_fits():
    # near-L-shaped arc: every crossing lands in the outermost cells
    curve = hyperbola_through(1.0, 1.0, 1e-3)
    assert curve.validate().valid
    with pytest.warns(UserWarning):
        lp = build_lp(curve, 4)
    assert lp.crossing_rows == 0
    assert solve_lp(lp).value == pytest.approx(0.0, abs=1e-12)


def _linprog_reference(lp):
    """The solve as ``scipy.optimize.linprog`` with the model and options of ``solve_lp``."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    objective = np.zeros(lp.n_vars)
    objective[-1] = 1.0
    a_eq = sp.csr_matrix(
        (np.array([1.0]), (np.array([0]), np.array([0]))), shape=(1, lp.n_vars)
    )
    return linprog(
        objective,
        A_ub=-lp.geq,
        b_ub=-lp.geq_rhs,
        A_eq=a_eq,
        b_eq=np.array([0.0]),
        bounds=(0.0, None),
        method="highs-ipm",
        options={"presolve": False},
    )


def test_solve_matches_linprog_bit_for_bit(h11, h12, qc, qcc):
    lps = [
        build_lp(surface, m)
        for surface in (h12, qc, qcc, hyperbola_through(2.0, 0.5, 0.4))
        for m in (4, 8, 16, 32)
    ]
    lps.append(_stripped(build_lp(h11, 4)))
    for lp in lps:
        sol = solve_lp(lp)
        ref = _linprog_reference(lp)
        assert ref.status == 0 and sol.status == "optimal", lp.surface
        assert sol.iterations == ref.nit + ref.crossover_nit, lp.surface
        assert sol.value == ref.fun
        assert sol.t == ref.x[-1]
        # the rows measure f in units of lp.scale, a power of two
        assert sol.grid.tobytes() == (ref.x[:-1] * lp.scale).tobytes()
    # what linprog reports as infeasible (status 2), solve_lp raises
    contradicted = _contradicted(build_lp(h11, 4))
    assert _linprog_reference(contradicted).status == 2
    with pytest.raises(SolverError, match="^LP status Infeasible at m=4$"):
        solve_lp(contradicted)


@pytest.mark.parametrize(
    "name, surface, m",
    [
        ("h12_m6", Hyperplane(c=(1.0, 2.0), M=1.0), 6),
        ("concave_m8", QuadraticCurve(a=1.0, b=1.0, c2=-0.5), 8),
        # non-square box, odd m, and crossing patterns that differ between the axes
        ("quadratic_m9", QuadraticCurve(a=1.37, b=0.81, c2=0.21), 9),
    ],
)
def test_dump_matches_the_pinned_text(name, surface, m):
    # row order, term order within each row, labels and float reprs
    stream = io.StringIO()
    dump_lp(build_lp(surface, m), stream)
    assert stream.getvalue() == (GOLDEN_LP / f"{name}.lp").read_text()
