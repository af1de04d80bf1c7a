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
    HyperbolaCurve,
    Linear,
    QuadraticCurve,
    Scale,
    ShapeError,
    Sum,
    TruncateMin,
    cost,
    cost_total,
    eval_at,
    one_sided_partials,
)
from helpers import (
    QC_PLATEAU,
    QC_TX,
    QC_TY,
    assert_matches_tie_oracle,
    classify_reference,
    concave_linear_tail_reference,
    fd_one_sided,
    hyperbola_through,
    qc_alpha,
    qc_beta,
    qc_beta_prime,
    qc_diag_reference,
    qc_plateau_reference,
    qcc_step_reference,
    seam_place,
    tie_batch,
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


def test_batch_matches_scalar_evaluation():
    # A point alone takes the path of a one-row batch: on every piecewise
    # node with every seam placement, each row of a batch holding ties and
    # random points gets the same bits evaluated by itself.
    rng = np.random.default_rng(5)
    for node_type, curve, _, _ in ORACLE_CASES:
        node = node_type(curve)
        pts = np.concatenate([tie_batch(node, rng), rng.uniform(0.0, 1.5, (64, 2)) * curve.intercepts()])
        values = eval_at(node, pts)
        grad = one_sided_partials(node, pts)
        for k, point in enumerate(pts):
            assert np.float64(eval_at(node, point)).tobytes() == values[k].tobytes()
            g = one_sided_partials(node, point)
            assert g.left.tobytes() == grad.left[k].tobytes()
            assert g.right.tobytes() == grad.right[k].tobytes()


@pytest.mark.parametrize("c", [(0.7, 1.3), (0.7, 1.3, 2.1)])
def test_linear_gives_one_point_the_bits_of_a_batch(c):
    # numpy's one-row matrix product is a dot product; taken alone, about
    # one point in five (2-D) or ten (3-D) here differed from its batch row.
    pts = np.random.default_rng(3).uniform(0.0, 1.7, (2000, len(c)))
    for expr in (Linear(c), TruncateMin(2.5, Linear(c)), Scale(0.8, TruncateMin(2.5, Linear(c)))):
        singles = np.array([eval_at(expr, p) for p in pts])
        assert singles.tobytes() == eval_at(expr, pts).tobytes()


def test_a_zero_row_batch_gives_empty_arrays():
    # Every piecewise node with every seam placement, and every combinator: a
    # batch of no points yields arrays of no rows, with no region or piece to
    # fill.
    lin = Linear((0.7, 1.3, 2.1))
    exprs = [node_type(curve) for node_type, curve, _, _ in ORACLE_CASES]
    exprs += [lin, Sum(lin, lin), Scale(0.5, lin), TruncateMin(1.0, lin), Clamp((0.5, 0.5, 0.5), lin)]
    exprs.append(Scale(0.5, TruncateMin(1.0, Clamp((0.5, 0.5), ConvexPlateau(QuadraticCurve(a=1.0, b=1.0, c2=0.5))))))
    for expr in exprs:
        X = np.empty((0, expr.dim))
        assert eval_at(expr, X).shape == (0,)
        g = one_sided_partials(expr, X)
        assert g.left.shape == g.right.shape == g.defined_left.shape == (0, expr.dim)


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


def test_cost_total_is_none_when_unbounded(qc):
    assert cost_total(Linear((1.0, 2.0))) is None
    assert cost_total(Sum(Linear((1.0, 1.0)), TruncateMin(1.0, Linear((1.0, 1.0))))) is None


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


# ------------------------------------------------------------ endpoint seams

def test_convex_fallback_shallow_curve():
    curve = QuadraticCurve(a=1.0, b=0.5, c2=0.25)  # slopes in [0.25, 0.75]
    expr = ConvexPlateau(curve)
    assert seam_place(expr) == "(0, b)"
    assert eval_at(expr, (0.0, 0.0)) == 0.0
    assert eval_at(expr, (1.2, 0.8)) == pytest.approx(1.0, abs=1e-12)  # plateau = a
    assert cost_total(expr) == pytest.approx(1.0, abs=1e-12)
    x = float(curve.beta(0.2))
    g = one_sided_partials(expr, (x, 0.2))
    assert (g.left[0], g.right[0]) == (1.0, 0.0)
    assert g.left[1] == pytest.approx(-float(curve.beta_prime(0.2)), abs=1e-12)
    assert g.left[1] > 1.0 and g.right[1] == 0.0
    # next to the axis the seam sits on, strictly below the curve
    g = one_sided_partials(expr, (5e-13, 0.2))
    assert (g.left[0], g.right[0]) == (1.0, 1.0)


def test_convex_fallback_steep_curve():
    curve = QuadraticCurve(a=1.0, b=2.5, c2=0.5)  # slopes in [2, 3]
    expr = ConvexPlateau(curve)
    assert seam_place(expr) == "(a, 0)"
    assert eval_at(expr, (0.0, 0.0)) == 0.0
    assert cost(expr) == pytest.approx(3.0, abs=1e-12)  # -alpha'(0)
    assert cost_total(expr) == pytest.approx(2.5, abs=1e-12)  # plateau = b


def _box_points(curve, seed, n=2000):
    return np.random.default_rng(seed).uniform(0.0, 1.5, (n, 2)) * curve.intercepts()


def test_concave_fallback_steep_curve_linear_extension():
    # Every slope is at least 1: the seam is (0, b), and the function is the
    # branch continued linearly past the intercept, capped at b.
    curve = QuadraticCurve(a=1.0, b=1.625, c2=-0.375)  # slopes in [1.25, 2]
    expr = ConcaveStep(curve)
    assert seam_place(expr) == "(0, b)"
    assert eval_at(expr, (0.0, 0.0)) == 0.0
    X = _box_points(curve, 11)
    reference = concave_linear_tail_reference(curve, X)
    assert eval_at(expr, X).tobytes() == np.minimum(reference, curve.b).tobytes()
    # beyond the y-intercept the linear tail keeps rising (slope 1 + beta'(b) > 0); the cap cuts it
    assert np.any(reference > curve.b)
    assert eval_at(expr, (0.5, 2.0)) == eval_at(expr, (0.5, 2.4)) == curve.b
    assert cost_total(expr) == curve.b


def test_concave_fallback_shallow_curve():
    curve = QuadraticCurve(a=1.0, b=0.55, c2=-0.25)  # slopes in [0.3, 0.8]
    expr = ConcaveStep(curve)
    assert seam_place(expr) == "(a, 0)"
    assert eval_at(expr, (0.0, 0.0)) == 0.0
    x = 0.5
    y = float(curve.alpha(x))
    g = one_sided_partials(expr, (x, y))
    assert (g.left[1], g.right[1]) == (1.0, 0.0)
    assert g.left[0] == 1.0
    assert g.right[0] == pytest.approx(1.0 + float(curve.alpha_prime(x)), abs=1e-12)
    # the linear tail past a (slope 1 + alpha'(a) = 0.2) is capped at a
    X = _box_points(curve, 12)
    reference = concave_linear_tail_reference(curve, X)
    assert eval_at(expr, X).tobytes() == np.minimum(reference, curve.a).tobytes()
    assert np.any(reference > curve.a)
    assert cost_total(expr) == curve.a
    # past the intercept, next to the axis the seam sits on, the function is the constant a
    g = one_sided_partials(expr, (1.2, 5e-13))
    assert g.left.tolist() == g.right.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("b, mode, total", [(1.25, "single_steep", 1.25), (0.75, "single_shallow", 1.0)])
def test_concave_fallback_with_flat_tail_is_bounded(b, mode, total):
    # Slopes in [1, 1.5] and [0.5, 1]: the tail slope 1 + beta'(b), resp.
    # 1 + alpha'(a), is 0, so the linear tail never passes the intercept the
    # branch ends at, and the cap there leaves every value as it is.
    curve = QuadraticCurve(a=1.0, b=b, c2=-0.25)
    expr = ConcaveStep(curve)
    assert seam_place(expr) == {"single_steep": "(0, b)", "single_shallow": "(a, 0)"}[mode]
    assert cost_total(expr) == total
    X = _box_points(curve, 13)
    reference = concave_linear_tail_reference(curve, X)
    assert eval_at(expr, X).tobytes() == np.minimum(reference, total).tobytes()
    assert eval_at(expr, X).tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "node_type, curve",
    [
        (ConvexPlateau, HyperbolaCurve(a=1.0, b=1.0, s=1.0, t=2.0)),  # alpha(0) != b
        (ConvexDiag, QuadraticCurve(a=1.0, b=1.0, c2=1.0)),  # alpha'(a) = 0
        (ConcaveStep, QuadraticCurve(a=1.0, b=1.0, c2=-2.0)),  # alpha increasing near 0
    ],
)
def test_piecewise_node_rejects_an_invalid_curve(node_type, curve):
    with pytest.raises(ConstructionError, match="^curve failed validation: "):
        node_type(curve)


# ------------------------------------------------ tie rule against an oracle

@pytest.mark.parametrize(
    "a, b, scale",
    [(1.0, 1.0, 1.0), (0.75, 1.4, 1.0), (2.0, 0.5, 2.0), (1e7, 5e6, 2.0**23), (1e-3, 5e-4, 2.0**-10)],
)
def test_tie_tolerance_is_measured_in_the_box_scale(a, b, scale):
    # 1e-12 times the power of two nearest the box's longest side, as the grid LP's scale
    node = ConvexPlateau(QuadraticCurve(a=a, b=b, c2=0.25 * b / a**2))
    assert node._layout.tol == 1e-12 * scale


# Every piecewise node with its seam at each place it admits (ConvexDiag
# needs an interior seam), at unit scale and at a 1e7 box.  The label names
# the slopes -alpha': "full" on both sides of 1, "single_shallow" at most 1,
# "single_steep" at least 1.
ORACLE_CASES = [
    (ConvexPlateau, QuadraticCurve(a=1.0, b=1.0, c2=0.5), "full", "interior"),
    (ConvexPlateau, hyperbola_through(0.8, 1.7, 0.3), "full", "interior"),
    (ConvexPlateau, QuadraticCurve(a=1.0, b=0.5, c2=0.25), "single_shallow", "(0, b)"),
    (ConvexPlateau, QuadraticCurve(a=1.0, b=2.5, c2=0.5), "single_steep", "(a, 0)"),
    (ConvexDiag, QuadraticCurve(a=1.0, b=1.0, c2=0.5), "full", "interior"),
    (ConvexDiag, hyperbola_through(0.8, 1.7, 0.3), "full", "interior"),
    (ConcaveStep, QuadraticCurve(a=1.0, b=1.0, c2=-0.375), "full", "interior"),
    (ConcaveStep, QuadraticCurve(a=0.734, b=1.447, c2=-1.7672675571130532), "full", "interior"),
    (ConcaveStep, QuadraticCurve(a=1.0, b=1.625, c2=-0.375), "single_steep", "(0, b)"),
    (ConcaveStep, QuadraticCurve(a=1.0, b=0.55, c2=-0.25), "single_shallow", "(a, 0)"),
    (ConvexPlateau, HyperbolaCurve(a=1e7, b=5e6, s=4e6, t=2e6), "large_full", "interior"),
    (ConvexDiag, HyperbolaCurve(a=1e7, b=5e6, s=4e6, t=2e6), "large_full", "interior"),
    (ConvexPlateau, QuadraticCurve(a=1e7, b=5e6, c2=2.5e-8), "large_single_shallow", "(0, b)"),
    (ConvexPlateau, QuadraticCurve(a=1e7, b=2.5e7, c2=5e-8), "large_single_steep", "(a, 0)"),
    (ConcaveStep, QuadraticCurve(a=1e7, b=1e7, c2=-3.75e-8), "large_full", "interior"),
    (ConcaveStep, QuadraticCurve(a=1e7, b=1.625e7, c2=-3.75e-8), "large_single_steep", "(0, b)"),
    (ConcaveStep, QuadraticCurve(a=1e7, b=5.5e6, c2=-2.5e-8), "large_single_shallow", "(a, 0)"),
]


@pytest.mark.parametrize(
    "node_type, curve, label, seam",
    ORACLE_CASES,
    ids=[f"{t.__name__}-{label}-{i}" for i, (t, _, label, _) in enumerate(ORACLE_CASES)],
)
def test_kernel_matches_three_way_tie_oracle(node_type, curve, label, seam):
    node = node_type(curve)
    assert seam_place(node) == seam
    X = tie_batch(node, np.random.default_rng(8))
    # The batch must hold ties that the queried side decides.
    x, y = X[:, 0], X[:, 1]
    sides_differ = classify_reference(node, x, y, -1, 0) != classify_reference(node, x, y, 1, 0)
    sides_differ |= classify_reference(node, x, y, 0, -1) != classify_reference(node, x, y, 0, 1)
    assert np.any(sides_differ)
    assert_matches_tie_oracle(node, X)
    for point in X[::17]:
        assert_matches_tie_oracle(node, point[None, :])


@pytest.mark.parametrize(
    "node_type, curve, label, seam",
    ORACLE_CASES,
    ids=[f"{t.__name__}-{label}-{i}" for i, (t, _, label, _) in enumerate(ORACLE_CASES)],
)
def test_one_sided_partials_are_ordered_on_ties(node_type, curve, label, seam):
    # left >= right >= 0 wherever left exists, on points within a few tie
    # tolerances of every boundary and of the axes; the slack covers the
    # rounding of slopes equal to 1 at an interior seam.
    node = node_type(curve)
    g = one_sided_partials(node, tie_batch(node, np.random.default_rng(8)))
    assert np.all(g.right >= 0.0)
    assert np.all(np.where(g.defined_left, g.left - g.right, 0.0) >= -1e-9)


@pytest.mark.parametrize(
    "node_type, curve, label, seam",
    [case for case in ORACLE_CASES if case[3] != "interior"],
    ids=[f"{t.__name__}-{label}" for t, _, label, seam in ORACLE_CASES if seam != "interior"],
)
def test_endpoint_seam_has_no_ties_at_its_axis(node_type, curve, label, seam):
    # A point within the tie tolerance of the axis an endpoint seam sits on
    # takes the partials of its neighbours a few tolerances off the axis: the
    # region past the axis lies outside the orthant, and its formulas hold
    # only where the slope is 1.
    node = node_type(curve)
    a, b = curve.intercepts()
    tol = node._layout.tol
    axis = 0 if seam == "(0, b)" else 1
    along = np.random.default_rng(9).uniform(0.0, 1.5, 200) * (b if axis == 0 else a)
    along = along[np.abs(along - (b if axis == 0 else a)) > 1e-6 * max(a, b)]  # off the curve's end
    far = one_sided_partials(node, np.insert(np.full((along.size, 1), 4.0 * tol), 1 - axis, along, axis=1))
    for offset in (0.5, 1.0):
        near = one_sided_partials(node, np.insert(np.full((along.size, 1), offset * tol), 1 - axis, along, axis=1))
        np.testing.assert_allclose(near.left, far.left, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(near.right, far.right, rtol=0.0, atol=1e-9)
