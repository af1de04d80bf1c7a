import math

import numpy as np
import pytest

from elopt import (
    Clamp,
    ConcaveStep,
    ConstructionError,
    ConvexDiag,
    ConvexPlateau,
    DomainError,
    Linear,
    QuadraticCurve,
    Scale,
    ShapeError,
    Sum,
    TruncateMin,
    UnboundedRangeError,
    cost,
    cost_total,
    eval_at,
    one_sided_partials,
)
from helpers import (
    QC_PLATEAU,
    QC_TX,
    QC_TY,
    fd_one_sided,
    qc_alpha,
    qc_beta,
    qc_beta_prime,
    qc_diag_reference,
    qc_plateau_reference,
    qcc_step_reference,
)


# ---------------------------------------------------------------- combinators

def test_truncate_eval_below_cap():
    expr = TruncateMin(1.0, Linear((1.0, 2.0)))
    assert eval_at(expr, (0.25, 0.25)) == 0.75


def test_truncate_kink_derivative_pair():
    expr = TruncateMin(1.0, Linear((1.0,)))
    g = one_sided_partials(expr, (1.0,))
    assert g.left[0] == 1.0
    assert g.right[0] == 0.0
    below = one_sided_partials(expr, (0.5,))
    assert below.left[0] == 1.0 and below.right[0] == 1.0
    above = one_sided_partials(expr, (2.0,))
    assert above.left[0] == 0.0 and above.right[0] == 0.0


def test_linear_sum_scale_partials():
    expr = Sum(Linear((1.0, 2.0)), Scale(0.5, Linear((2.0, 2.0))))
    g = one_sided_partials(expr, (0.3, 0.7))
    assert np.allclose(g.left, [2.0, 3.0])
    assert np.allclose(g.right, [2.0, 3.0])
    assert eval_at(expr, (1.0, 1.0)) == pytest.approx(5.0, abs=1e-15)


def test_clamp_eval_and_partials():
    expr = Clamp((1.0, 2.0), Linear((2.0, 3.0)))
    assert eval_at(expr, (1.5, 1.0)) == pytest.approx(5.0, abs=1e-15)  # inner at (1, 1)
    g = one_sided_partials(expr, (1.0, 1.0))  # x on the clamp, y below it
    assert (g.left[0], g.right[0]) == (2.0, 0.0)
    assert (g.left[1], g.right[1]) == (3.0, 3.0)
    g = one_sided_partials(expr, (1.5, 2.5))  # both beyond the clamp
    assert np.all(g.left == 0.0) and np.all(g.right == 0.0)


def test_left_derivative_undefined_on_axes():
    g = one_sided_partials(Linear((1.0, 2.0)), (0.0, 0.5))
    assert not g.defined_left[0] and g.defined_left[1]
    assert math.isnan(g.left[0]) and g.left[1] == 2.0
    assert np.allclose(g.right, [1.0, 2.0])


def test_domain_and_dimension_errors():
    expr = Linear((1.0, 2.0))
    with pytest.raises(DomainError):
        eval_at(expr, (-0.1, 0.5))
    with pytest.raises(DomainError):
        eval_at(expr, (1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        Sum(Linear((1.0,)), Linear((1.0, 2.0)))
    with pytest.raises(ValueError):
        Linear((1.0, 0.0))
    with pytest.raises(ValueError):
        Scale(-0.5, expr)
    with pytest.raises(ValueError):
        TruncateMin(-1.0, expr)
    with pytest.raises(ValueError):
        Clamp((1.0, 0.0), expr)


def test_batch_matches_scalar_evaluation(qc):
    expr = ConvexPlateau(qc)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.4, (64, 2))
    batch = eval_at(expr, pts)
    singles = np.array([eval_at(expr, p) for p in pts])
    assert np.array_equal(batch, singles)
    g = one_sided_partials(expr, pts)
    g0 = one_sided_partials(expr, pts[7])
    assert np.array_equal(g.right[7], g0.right)


# ----------------------------------------------------- piecewise construction

def test_shape_flag_enforced(qc, qcc):
    with pytest.raises(ShapeError):
        ConvexPlateau(qcc)
    with pytest.raises(ShapeError):
        ConcaveStep(qc)
    with pytest.raises(ShapeError):
        ConvexDiag(qcc)


def test_diag_requires_seam_point():
    steep = QuadraticCurve(a=1.0, b=2.5, c2=0.5)  # slopes in [2, 3], no (1,1) normal
    with pytest.raises(ConstructionError):
        ConvexDiag(steep)


def test_plateau_matches_reference_formulas(qc):
    expr = ConvexPlateau(qc)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 1.5, (300, 2))
    got = eval_at(expr, pts)
    want = np.array([qc_plateau_reference(x, y) for x, y in pts])
    assert np.max(np.abs(got - want)) < 1e-12


def test_diag_and_step_match_reference_formulas(qc, qcc):
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.0, 1.5, (300, 2))
    got = eval_at(ConvexDiag(qc), pts)
    want = np.array([qc_diag_reference(x, y) for x, y in pts])
    assert np.max(np.abs(got - want)) < 1e-12
    got = eval_at(ConcaveStep(qcc), pts)
    want = np.array([qcc_step_reference(x, y) for x, y in pts])
    assert np.max(np.abs(got - want)) < 1e-12


def test_plateau_worked_values(qc):
    expr = ConvexPlateau(qc)
    assert eval_at(expr, (QC_TX, QC_TY)) == pytest.approx(QC_PLATEAU, abs=1e-12)
    assert eval_at(expr, (0.0, 0.0)) == 0.0  # pointed, exactly
    # inner-region value, from the hand formulas
    want = (1.0 - qc_alpha(0.25)) + (1.0 - qc_beta(0.25))
    assert eval_at(expr, (0.25, 0.25)) == pytest.approx(want, abs=1e-12)


def test_cross_branch_agreement_on_boundaries(qc):
    # seam x = t_x, below the curve: inner and strip formulas must agree
    for y in np.linspace(0.0, QC_TY - 1e-6, 20):
        inner = (1.0 - qc_alpha(QC_TX)) + (1.0 - qc_beta(y))
        strip = QC_PLATEAU + (QC_TX - qc_beta(y))
        assert inner == pytest.approx(strip, abs=1e-9)
        assert eval_at(ConvexPlateau(qc), (QC_TX, y)) == pytest.approx(inner, abs=1e-9)
    # seam y = t_y
    for x in np.linspace(0.0, QC_TX - 1e-6, 20):
        inner = (1.0 - qc_alpha(x)) + (1.0 - qc_beta(QC_TY))
        strip = QC_PLATEAU + (QC_TY - qc_alpha(x))
        assert inner == pytest.approx(strip, abs=1e-9)
    # on the curve the strip formulas hit the plateau constant
    for x in np.linspace(QC_TX, 1.0, 20):
        y = qc_alpha(x)
        assert QC_PLATEAU + min(x - qc_beta(y), 0.0) == pytest.approx(QC_PLATEAU, abs=1e-9)


def test_plateau_origin_gradient(qc):
    g = one_sided_partials(ConvexPlateau(qc), (0.0, 0.0))
    # -alpha'(0) = 1.5 and -beta'(0) = 2 for the worked arc
    assert np.allclose(g.right, [1.5, 2.0], atol=1e-12)
    assert not g.defined_left.any()


def test_plateau_derivative_pairs_on_curve(qc):
    expr = ConvexPlateau(qc)
    # x-strip: surface point with x > t_x
    y = float(qc.alpha(0.75))
    g = one_sided_partials(expr, (0.75, y))
    assert (g.left[0], g.right[0]) == (1.0, 0.0)
    assert g.left[1] == pytest.approx(-qc_beta_prime(y), abs=1e-12)  # = 4/3
    assert g.right[1] == 0.0
    # y-strip: surface point with y > t_y
    x = 0.25
    g = one_sided_partials(expr, (x, float(qc.alpha(x))))
    assert g.left[0] == pytest.approx(1.25, abs=1e-12)  # -alpha'(0.25)
    assert g.right[0] == 0.0
    assert (g.left[1], g.right[1]) == (1.0, 0.0)
    # at the seam point both pairs collapse to (1, 0)
    g = one_sided_partials(expr, (QC_TX, QC_TY))
    assert np.allclose(g.left, [1.0, 1.0], atol=1e-12)
    assert np.allclose(g.right, [0.0, 0.0], atol=1e-12)


def test_plateau_smooth_across_seam_below_curve(qc):
    # crossing x = t_x strictly below the curve is not a kink
    g = one_sided_partials(ConvexPlateau(qc), (QC_TX, 0.1))
    assert g.left[0] == pytest.approx(g.right[0], abs=1e-12)
    assert g.left[0] == pytest.approx(1.0, abs=1e-12)


def test_diag_derivative_pairs_on_curve(qc):
    expr = ConvexDiag(qc)  # unscaled
    y = float(qc.alpha(0.75))
    g = one_sided_partials(expr, (0.75, y))
    assert g.left[0] == pytest.approx(0.75, abs=1e-12)  # -alpha'(0.75)
    assert g.right[0] == 0.0
    assert (g.left[1], g.right[1]) == (1.0, 0.0)
    assert cost(expr) == pytest.approx(1.0, abs=1e-15)


def test_step_derivative_pairs_on_curve(qcc):
    expr = ConcaveStep(qcc)
    y = float(qcc.alpha(0.75))
    assert y == pytest.approx(0.34375, abs=1e-15)
    g = one_sided_partials(expr, (0.75, y))
    assert (g.left[0], g.right[0]) == (1.0, 0.0)
    # beta'(y) = 1/alpha'(0.75) = -0.8, so the right y-derivative is 0.2
    assert g.left[1] == 1.0
    assert g.right[1] == pytest.approx(0.2, abs=1e-12)


def test_costs_of_worked_expressions(qc):
    assert cost(TruncateMin(1.0, Linear((1.0, 2.0)))) == 2.0
    assert cost(Linear((3.0, 3.0, 3.0))) == 3.0
    assert cost(Scale(1.0 / 3.0, Linear((3.0, 3.0, 3.0)))) == pytest.approx(1.0, abs=1e-15)
    assert cost(ConvexPlateau(qc)) == pytest.approx(2.0, abs=1e-12)


def test_cost_total_values(qc, qcc):
    assert cost_total(ConvexPlateau(qc)) == pytest.approx(1.125, abs=1e-12)
    assert cost_total(TruncateMin(5.0, Linear((1.0, 1.0)))) == 5.0
    assert cost_total(Scale(2.0, ConcaveStep(qcc))) == pytest.approx(2.25, abs=1e-12)
    assert cost_total(Clamp((2.0, 2.0), Linear((1.0, 1.0)))) == pytest.approx(4.0, abs=1e-15)
    # cap above the clamped supremum is never attained
    assert cost_total(TruncateMin(10.0, Clamp((2.0, 2.0), Linear((1.0, 1.0))))) == pytest.approx(4.0)
    assert cost_total(Scale(0.0, Linear((1.0,)))) == 0.0


def test_cost_total_unbounded_errors(qc):
    with pytest.raises(UnboundedRangeError):
        cost_total(Linear((1.0, 2.0)))
    with pytest.raises(UnboundedRangeError):
        cost_total(Sum(Linear((1.0, 1.0)), TruncateMin(1.0, Linear((1.0, 1.0)))))


def test_finite_differences_confirm_exact_rules(qc, qcc):
    exprs = [
        ConvexPlateau(qc),
        ConvexDiag(qc),
        ConcaveStep(qcc),
        Scale(1.0, TruncateMin(1.0, Linear((1.0, 2.0)))),
    ]
    rng = np.random.default_rng(21)
    h = 1e-7
    for expr in exprs:
        checked = 0
        while checked < 60:
            p = rng.uniform(0.02, 1.4, 2)
            if _near_any_kink(expr, p):
                continue
            g = one_sided_partials(expr, p)
            left, right = fd_one_sided(expr, p, h)
            for i in range(2):
                rel = abs(right[i] - g.right[i]) / max(1.0, abs(g.right[i]))
                assert rel < 1e-5, (expr, p, i)
                rel = abs(left[i] - g.left[i]) / max(1.0, abs(g.left[i]))
                assert rel < 1e-5, (expr, p, i)
            checked += 1


def _near_any_kink(expr, p, margin=5e-3):
    # keep the finite-difference window inside one smooth branch
    x, y = p
    curve = getattr(expr, "curve", None)
    if curve is None:  # Scale(TruncateMin(Linear)) on the (1,2)/M=1 plane
        return abs(x + 2.0 * y - 1.0) < margin
    t = curve.t_point()
    if abs(x - t.t_x) < margin or abs(y - t.t_y) < margin:
        return True
    if x <= curve.a and abs(y - float(curve.alpha(x))) < margin:
        return True
    if y <= curve.b and abs(x - float(curve.beta(y))) < margin:
        return True
    return False


def test_fd_quotients_match_exact_partials(qc):
    expr = ConvexPlateau(qc)
    for p in ((0.2, 0.2), (0.9, 0.9), (0.7, 0.1)):
        left, right = fd_one_sided(expr, np.asarray(p), 1e-7 * 1.0)
        g = one_sided_partials(expr, p)
        assert np.allclose(right, g.right, rtol=1e-6, atol=1e-9)
        assert np.allclose(left, g.left, rtol=1e-6, atol=1e-9)


def test_one_sided_limits_walk_into_the_kink(qc):
    # at a curve point, right derivatives from either side converge to the
    # one-sided pair, monotonically
    expr = ConvexPlateau(qc)
    x = 0.75
    y = float(qc.alpha(x))
    g = one_sided_partials(expr, (x, y))
    ladder = [10.0 ** -k for k in range(2, 9)]
    from_right = [float(one_sided_partials(expr, (x + e, y)).right[0]) for e in ladder]
    from_left = [float(one_sided_partials(expr, (x - e, y)).right[0]) for e in ladder]
    assert all(b >= a - 1e-12 for a, b in zip(from_right, from_right[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(from_left, from_left[1:]))
    assert from_right[-1] == pytest.approx(g.right[0], abs=1e-7)
    assert from_left[-1] == pytest.approx(g.left[0], abs=1e-7)


def test_truncation_family_derivatives_approach_the_limit():
    # caps 2^0 .. 2^10 on a fixed linear function; the pointwise limit of the
    # family on any bounded box is the linear function itself
    base = Linear((1.0, 2.0))
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 50.0, (64, 2))
    limit = one_sided_partials(base, pts)
    caps = [float(2.0 ** k) for k in range(11)]
    family = [TruncateMin(cap, base) for cap in caps]
    final = one_sided_partials(family[-1], pts)
    # eventually the truncated right derivatives dominate the limit's
    assert np.all(final.right >= limit.right - 1e-12)
    # and the sandwich right <= family-right <= family-left <= left holds
    assert np.all(limit.right <= final.right + 1e-12)
    assert np.all(final.right <= final.left + 1e-12)
    masked = np.where(final.defined_left, final.left, np.inf)
    wall = np.where(limit.defined_left, limit.left, np.inf)
    assert np.all(masked <= wall + 1e-12)


# ------------------------------------------------------- single-branch forms

def test_convex_fallback_shallow_curve():
    curve = QuadraticCurve(a=1.0, b=0.5, c2=0.25)  # slopes in [0.25, 0.75]
    expr = ConvexPlateau(curve)
    assert expr._layout.mode == "single_shallow"
    assert eval_at(expr, (0.0, 0.0)) == 0.0
    assert eval_at(expr, (1.2, 0.8)) == pytest.approx(1.0, abs=1e-12)  # plateau = a
    assert cost_total(expr) == pytest.approx(1.0, abs=1e-12)
    x = float(curve.beta(0.2))
    g = one_sided_partials(expr, (x, 0.2))
    assert (g.left[0], g.right[0]) == (1.0, 0.0)
    assert g.left[1] == pytest.approx(-float(curve.beta_prime(0.2)), abs=1e-12)
    assert g.left[1] > 1.0 and g.right[1] == 0.0


def test_convex_fallback_steep_curve():
    curve = QuadraticCurve(a=1.0, b=2.5, c2=0.5)  # slopes in [2, 3]
    expr = ConvexPlateau(curve)
    assert expr._layout.mode == "single_steep"
    assert eval_at(expr, (0.0, 0.0)) == 0.0
    assert cost(expr) == pytest.approx(3.0, abs=1e-12)  # -alpha'(0)
    assert cost_total(expr) == pytest.approx(2.5, abs=1e-12)  # plateau = b


def test_concave_fallback_steep_curve_linear_extension():
    curve = QuadraticCurve(a=1.0, b=1.625, c2=-0.375)  # slopes in [1.25, 2]
    expr = ConcaveStep(curve)
    assert expr._layout.mode == "single_steep"
    assert eval_at(expr, (0.0, 0.0)) == 0.0
    # beyond the y-intercept the section keeps slope 1 + beta'(b) >= 0
    tail = 1.0 + float(curve.beta_prime(curve.b))
    v1 = eval_at(expr, (0.5, 2.0))
    v2 = eval_at(expr, (0.5, 2.5))
    assert v2 - v1 == pytest.approx(0.5 * tail, abs=1e-9)
    with pytest.raises(UnboundedRangeError):
        cost_total(expr)


def test_concave_fallback_shallow_curve():
    curve = QuadraticCurve(a=1.0, b=0.55, c2=-0.25)  # slopes in [0.3, 0.8]
    expr = ConcaveStep(curve)
    assert expr._layout.mode == "single_shallow"
    assert eval_at(expr, (0.0, 0.0)) == 0.0
    x = 0.5
    y = float(curve.alpha(x))
    g = one_sided_partials(expr, (x, y))
    assert (g.left[1], g.right[1]) == (1.0, 0.0)
    assert g.left[0] == 1.0
    assert g.right[0] == pytest.approx(1.0 + float(curve.alpha_prime(x)), abs=1e-12)
