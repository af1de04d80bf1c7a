import numpy as np
import pytest

from elopt import (
    ConstructionError,
    Hyperplane,
    LineCurve,
    QuadraticCurve,
    Scale,
    ShapeError,
    check_feasible,
    concave_construct,
    construct,
    convex_diag,
    convex_plateau,
    cost,
    eval_at,
    linear_opt,
    linear_opt_curve,
    normal_ratio_bound,
)
from helpers import QC_TX, QC_TY, hyperbola_through, seam_place


def test_linear_opt_on_a_tiny_plane():
    # A cap of 2^-40 lies within an absolute 1e-12 of f(0) = 0; in the cap's
    # scale the origin is below it, and the derivative rules give the cost.
    res = linear_opt(Hyperplane(c=(1.0, 2.0), M=2.0**-40))
    assert res.claimed_cost == cost(res.expr) == 2.0


@pytest.mark.parametrize("c2_per_b_over_a2", [0.6, -0.3])
def test_endpoint_seam_constructions_build_at_every_scale(c2_per_b_over_a2):
    # Their build-time suite runs in the box's scale; with absolute
    # tolerances and steps it failed at k <= -13 and k >= 28 (convex) and at
    # k <= -21 and k >= 27 (concave).
    for k in range(-30, 31):
        a, b = 1.37 * 2.0**k, 0.81 * 2.0**k
        curve = QuadraticCurve(a=a, b=b, c2=c2_per_b_over_a2 * b / a**2)
        assert curve.t_point() is None
        assert construct(curve).claimed_cost == pytest.approx(normal_ratio_bound(curve).value, rel=1e-9), k


def test_linear_opt_worked_examples():
    res = linear_opt(Hyperplane(c=(1.0, 2.0), M=1.0))
    assert res.scale_k == 1.0
    assert res.claimed_cost == 2.0
    res = linear_opt(Hyperplane(c=(3.0, 3.0, 3.0), M=2.0))
    assert res.scale_k == pytest.approx(1.0 / 3.0)
    assert res.claimed_cost == pytest.approx(1.0)
    res = linear_opt(Hyperplane(c=(2.0, 5.0), M=10.0))
    assert res.scale_k == 0.5
    assert res.claimed_cost == 2.5


def test_convex_builders_on_worked_arc(qc):
    plateau = convex_plateau(qc)
    diag = convex_diag(qc)
    assert plateau.claimed_cost == pytest.approx(2.0, abs=1e-9)
    assert diag.claimed_cost == pytest.approx(2.0, abs=1e-9)
    assert plateau.scale_k == 1.0
    assert diag.scale_k == pytest.approx(2.0, abs=1e-12)  # 1 / min(-alpha'(a), -beta'(b))
    assert cost(plateau.expr) == pytest.approx(plateau.claimed_cost, abs=1e-9)
    assert cost(diag.expr) == pytest.approx(diag.claimed_cost, abs=1e-9)


def test_concave_builder_on_worked_arc(qcc):
    res = concave_construct(qcc)
    assert res.scale_k == pytest.approx(2.0, abs=1e-12)
    assert res.claimed_cost == pytest.approx(2.0, abs=1e-9)
    assert isinstance(res.expr, Scale)


def test_optimal_function_is_not_unique(qc):
    plateau = convex_plateau(qc)
    diag = convex_diag(qc)
    assert abs(plateau.claimed_cost - diag.claimed_cost) <= 1e-9
    at_seam = (QC_TX, QC_TY)
    v_plateau = eval_at(plateau.expr, at_seam)
    v_diag = eval_at(diag.expr, at_seam)
    assert v_plateau == pytest.approx(1.125, abs=1e-9)
    assert v_diag == pytest.approx(1.75, abs=1e-9)
    assert abs(v_plateau - v_diag) >= 0.5


def test_symmetric_hyperbola_builders():
    curve = hyperbola_through(1.0, 1.0, 1.0)
    t = curve.t_point()
    assert t.t_x == pytest.approx(t.t_y, abs=1e-9)
    plateau = convex_plateau(curve)
    assert plateau.claimed_cost == pytest.approx(-float(curve.alpha_prime(0.0)), abs=1e-9)
    assert plateau.claimed_cost == pytest.approx(2.0, abs=1e-9)  # kappa/s^2
    diag = convex_diag(curve)
    assert diag.claimed_cost == pytest.approx(plateau.claimed_cost, abs=1e-9)


def test_linear_curve_goes_through_the_hyperplane_builder():
    res = linear_opt_curve(LineCurve(a=2.0, b=1.0))
    assert res.claimed_cost == pytest.approx(2.0, abs=1e-12)
    assert normal_ratio_bound(LineCurve(a=2.0, b=1.0)).value == pytest.approx(2.0)


def test_line_claim_equals_its_ratio_bound():
    # Built from the line's own normal (b/a, 1), the claim is the bound's
    # float and the scale a unitless multiplier.
    assert linear_opt_curve(LineCurve(a=1.0, b=3.0)).scale_k == 1.0
    rng = np.random.default_rng(0)
    checked = 0
    for a, b in 10.0 ** rng.uniform(-6.0, 6.0, (400, 2)):
        line = LineCurve(a=a, b=b)
        if not line.validate().valid:
            continue
        res = linear_opt_curve(line)
        assert res.claimed_cost == normal_ratio_bound(line).value, line
        checked += 1
    assert checked > 200


@pytest.mark.parametrize(
    "curve",
    [
        QuadraticCurve(a=1.0, b=1.0, c2=0.5),
        QuadraticCurve(a=1.0, b=1.0, c2=-0.5),
        QuadraticCurve(a=2.0, b=1.5, c2=0.2),
        QuadraticCurve(a=0.7, b=1.9, c2=-0.9),
        hyperbola_through(1.0, 1.0, 1.0),
        hyperbola_through(2.0, 0.5, 0.4),
        QuadraticCurve(a=1.0, b=0.5, c2=0.25),     # shallow convex, no seam
        QuadraticCurve(a=1.0, b=2.5, c2=0.5),      # steep convex, no seam
        QuadraticCurve(a=1.0, b=1.625, c2=-0.375), # steep concave, no seam
        QuadraticCurve(a=1.0, b=0.55, c2=-0.25),   # shallow concave, no seam
    ],
    ids=str,
)
def test_tightness_and_feasibility_across_curves(curve):
    if curve.shape == "strictly_convex":
        results = [convex_plateau(curve)]
        if curve.t_point() is not None:
            results.append(convex_diag(curve))
    else:
        results = [concave_construct(curve)]
    bound = normal_ratio_bound(curve).value
    for res in results:
        assert res.claimed_cost == pytest.approx(bound, abs=1e-9)
        feas = check_feasible(res.expr, curve, samples=400, seed=9)
        assert feas.min_jump >= 1.0 - 1e-6


def test_tightness_for_seeded_hyperplanes():
    rng = np.random.default_rng(2024)
    for trial in range(12):
        n = 2 + trial % 3
        plane = Hyperplane(c=tuple(rng.uniform(0.1, 10.0, n)), M=float(rng.uniform(0.5, 4.0)))
        res = linear_opt(plane)
        assert res.claimed_cost == pytest.approx(normal_ratio_bound(plane).value, abs=1e-9)
        feas = check_feasible(res.expr, plane, samples=300, seed=trial)
        assert abs(feas.min_jump - 1.0) <= 1e-6


def test_shape_preconditions():
    line = LineCurve(a=1.0, b=1.0)
    with pytest.raises(ShapeError):
        concave_construct(line)
    with pytest.raises(ShapeError):
        convex_plateau(line)
    with pytest.raises(ShapeError):
        concave_construct(QuadraticCurve(a=1.0, b=1.0, c2=0.5))
    with pytest.raises(ShapeError):
        linear_opt_curve(QuadraticCurve(a=1.0, b=1.0, c2=0.5))


def test_invalid_curve_rejected():
    degenerate = QuadraticCurve(a=1.0, b=1.0, c2=1.0)  # alpha'(a) = 0
    with pytest.raises(ConstructionError):
        convex_plateau(degenerate)


def test_shallow_convex_fallback_passes_its_own_verification():
    # Every slope is below 1 (0.45 down to 0.05), so the plateau's seam is
    # (0, b) and the build is suite-verified; the section curvature reaches
    # |f''| = 1600 near the x-intercept, which the derivative checks must
    # not mistake for a wrong rule.
    curve = QuadraticCurve(a=2.0, b=0.5, c2=0.1)
    res = convex_plateau(curve)
    assert seam_place(res.expr) == "(0, b)"
    assert res.claimed_cost == pytest.approx(20.0, rel=1e-12)


def test_diag_needs_seam_point():
    with pytest.raises(ConstructionError):
        convex_diag(QuadraticCurve(a=1.0, b=2.5, c2=0.5))
