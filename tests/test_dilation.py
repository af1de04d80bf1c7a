"""Metamorphic relations: results of related surfaces, related by theorem, with no reference values.

Dilation by a power of two: every result at ``2^k S`` is the ``S`` result,
lengths times ``2^k``.  If ``f`` is entropy-like and feasible for ``S``, then
``lam * f(x / lam)`` is too, for ``lam S``, at the same cost.  For
``lam = 2^k`` floats follow exactly: the surfaces below are written so that
every parameter dilates exactly, every tolerance and step is measured in the
box's power-of-two scale, and so the bound, the construction, ``check_el``,
``check_feasible`` and the grid LP at ``2^k`` equal their ``k = 0`` results
bit for bit, with every length times ``2^k``.

Coordinate swap: ``f(y, x)`` is feasible for the mirrored surface at the
same cost, so the ratio bound, the claimed cost and the grid LP agree up to
rounding.  Grid refinement: a grid of ``j m`` nodes per axis contains the
grid of ``m``, and restricting a fine LP optimum to the coarse nodes gives a
coarse feasible point of no larger objective, so ``LP(j m) >= LP(m)``.

Any floating-point overflow or underflow fails the module.
"""

import dataclasses

import numpy as np
import pytest

from elopt import (
    HyperbolaCurve,
    Hyperplane,
    LineCurve,
    QuadraticCurve,
    check_el,
    check_feasible,
    construct,
    cost_total,
    gap_report,
    normal_ratio_bound,
)
from elopt import analysis
from elopt.analysis import lp_sweep

pytestmark = pytest.mark.filterwarnings("error")

# 2^345 is past where a cube of the intercepts overflows.
KS = (*range(-30, 31, 3), 345)
# Properties whose violations and tolerances are function values, so lengths.
VALUE_PROPERTIES = {"pointed", "monotone", "submodular", "dr_coordinate", "dr_general", "directional_concavity"}


def _surface(family, k):
    lam = 2.0**k
    a, b = 1.37 * lam, 0.81 * lam
    if family == "plane":
        return Hyperplane(c=(0.7, 1.3), M=0.9 * lam)
    if family == "line":
        return LineCurve(a=a, b=b)
    if family == "hyperbola":
        s = 0.4 * lam
        return HyperbolaCurve(a=a, b=b, s=s, t=s * b / a)
    c2 = {"seam": 0.9, "convex_endpoint": 0.6, "concave_endpoint": -0.3}[family] * b / a**2
    return QuadraticCurve(a=a, b=b, c2=c2)


FAMILIES = ("line", "seam", "convex_endpoint", "concave_endpoint", "hyperbola", "plane")


@pytest.fixture(autouse=True)
def _float_errors_warn(monkeypatch):
    # numpy's error state is per thread and ignores underflow by default:
    # run check_el's tasks on this thread, where every float error warns.
    monkeypatch.setattr(analysis, "_available_cpus", lambda: 1)
    with np.errstate(all="warn"):
        yield


def _dilated(lam, v):
    return tuple(lam * x for x in v)


def _dilated_check(check, lam):
    """``check`` as the report on ``lam`` times the box should read it."""
    if check.name == "pointed":
        witness = _dilated(lam, check.witness)
    else:
        witness = tuple(_dilated(lam, v) if isinstance(v, tuple) else v for v in check.witness)
        if check.name.startswith("dr_"):  # the step eps that ends the witness is a length too
            witness = witness[:-1] + (lam * witness[-1],)
    scaled = lam if check.name in VALUE_PROPERTIES else 1.0
    return dataclasses.replace(
        check, worst_violation=scaled * check.worst_violation, tolerance=scaled * check.tolerance, witness=witness
    )


def _results(surface):
    built = construct(surface)
    box = tuple(1.5 * v for v in surface.intercepts())
    return {
        "bound": normal_ratio_bound(surface),
        "built": built,
        "total": cost_total(built.expr),
        "el": check_el(built.expr, box, samples=1500, seed=3),
        "feasible": check_feasible(built.expr, surface, samples=300, seed=3),
        "report": gap_report(surface, grid_m=(12,)),
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_results_dilate_exactly(family):
    unit = _results(_surface(family, 0))
    assert unit["el"].passed and unit["feasible"].feasible
    for k in KS:
        lam = 2.0**k
        surface = _surface(family, k)
        got = _results(surface)

        bound = unit["bound"]
        assert got["bound"] == dataclasses.replace(bound, point=_dilated(lam, bound.point)), k

        assert got["built"].kind == unit["built"].kind
        assert got["built"].claimed_cost == unit["built"].claimed_cost, k
        assert got["built"].scale_k == unit["built"].scale_k, k  # a multiplier, not a length
        assert got["total"] == lam * unit["total"], k

        el, unit_el = got["el"], unit["el"]
        assert el.box == _dilated(lam, unit_el.box)
        assert el.passed and el.samples == unit_el.samples
        assert el.properties == tuple(_dilated_check(c, lam) for c in unit_el.properties), k

        feas, unit_feas = got["feasible"], unit["feasible"]
        assert feas == dataclasses.replace(unit_feas, witness_point=_dilated(lam, unit_feas.witness_point)), k

        report, unit_report = got["report"], unit["report"]
        assert report.lp_values == unit_report.lp_values, k
        assert report.ratio_bound == unit_report.ratio_bound
        assert report.construction_total == lam * unit_report.construction_total


def _swapped(surface):
    """``surface`` mirrored in the diagonal: the coordinates swapped."""
    if isinstance(surface, Hyperplane):
        return Hyperplane(c=surface.c[::-1], M=surface.M)
    if isinstance(surface, HyperbolaCurve):
        return HyperbolaCurve(a=surface.b, b=surface.a, s=surface.t, t=surface.s)
    return LineCurve(a=surface.b, b=surface.a)


def _swap_cases():
    rng = np.random.default_rng(20261020)
    cases = {}
    for k in range(3):
        a, b = rng.uniform(0.5, 2.0, 2)
        s = a * 10.0 ** rng.uniform(-1.0, 1.0)
        cases[f"hyperbola-{k}"] = HyperbolaCurve(a=a, b=b, s=s, t=s * b / a)
        cases[f"line-{k}"] = LineCurve(a=a, b=b)
        cases[f"plane-{k}"] = Hyperplane(c=tuple(rng.uniform(0.2, 5.0, 2)), M=float(rng.uniform(0.5, 2.0)))
    return cases


SWAPPED = _swap_cases()


@pytest.mark.parametrize("name", sorted(SWAPPED))
def test_results_survive_a_coordinate_swap(name):
    surface = SWAPPED[name]
    mirror = _swapped(surface)
    assert surface.validate().valid and mirror.validate().valid
    for got, want in (
        (normal_ratio_bound(mirror).value, normal_ratio_bound(surface).value),
        (construct(mirror).claimed_cost, construct(surface).claimed_cost),
    ):
        assert abs(got - want) <= 1e-15 * abs(want), (got, want)
    for (lp, got), (_, want) in zip(lp_sweep(mirror, (8, 16, 24)), lp_sweep(surface, (8, 16, 24))):
        assert abs(got.value - want.value) <= 1e-12 * abs(want.value), (lp.m, got.value, want.value)


REFINED = {
    "convex arc": QuadraticCurve(a=1.0, b=1.0, c2=0.5),
    "concave arc": QuadraticCurve(a=1.0, b=1.0, c2=-0.5),
    "H(1,2)": Hyperplane(c=(1.0, 2.0), M=1.0),
    "hyperbola": HyperbolaCurve(a=2.0, b=1.0, s=0.5, t=0.25),
    # LP(m) is not monotone in m: this one falls 1.4661 -> 1.3746 from m = 12 to 15
    "no-seam quadratic": _surface("convex_endpoint", 0),
    "line": _surface("line", 0),
}


@pytest.mark.parametrize("name", sorted(REFINED))
def test_a_refined_grid_bounds_no_lower(name):
    coarse, factors = (6, 8, 12), (2, 3)
    ms = sorted({j * m for m in coarse for j in (1, *factors)})
    value = {lp.m: sol.value for lp, sol in lp_sweep(REFINED[name], ms)}
    for m in coarse:
        for j in factors:
            assert value[j * m] >= value[m] - 1e-9, (m, j, value[j * m], value[m])
