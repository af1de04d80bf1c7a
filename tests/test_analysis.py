import numpy as np
import pytest

from elopt import (
    ConvexPlateau,
    DomainError,
    Hyperplane,
    Linear,
    QuadraticCurve,
    Scale,
    TruncateMin,
    check_el,
    check_feasible,
    concave_construct,
    convex_diag,
    convex_plateau,
    cost,
    gap_report,
    hyperbola_through,
    linear_opt,
    normal_ratio_bound,
)
from helpers import sup_ratio_sampled


def test_truncated_linear_passes_the_suite():
    rep = check_el(TruncateMin(1.0, Linear((1.0, 2.0))), (2.0, 2.0), samples=10_000, seed=0)
    assert rep.passed
    assert rep.includes_derivative_checks
    assert {p.name for p in rep.properties} == {
        "pointed",
        "monotone",
        "submodular",
        "dr_coordinate",
        "dr_general",
        "directional_concavity",
        "left_at_least_right",
        "derivative_monotone",
        "fd_agreement",
        "derivative_limits",
    }


def test_zero_function_passes():
    rep = check_el(Scale(0.0, Linear((3.0, 4.0))), (1.0, 1.0), samples=2000, seed=1)
    assert rep.passed


def test_product_function_fails_submodularity_with_witness():
    rep = check_el(lambda p: p[0] * p[1], (2.0, 2.0), samples=2000, seed=3)
    assert not rep.passed
    assert not rep.includes_derivative_checks
    sub = rep.property("submodular")
    assert not sub.passed
    assert sub.worst_violation > sub.tolerance
    # recompute the violation from the reported witness
    x, y = np.array(sub.witness[0]), np.array(sub.witness[1])
    f = lambda p: p[0] * p[1]
    recomputed = f(np.minimum(x, y)) + f(np.maximum(x, y)) - f(x) - f(y)
    assert recomputed == pytest.approx(sub.worst_violation, rel=1e-12)
    assert recomputed > 1e-7


def test_reports_are_deterministic(qc):
    expr = ConvexPlateau(qc)
    a = check_el(expr, (1.5, 1.5), samples=3000, seed=42)
    b = check_el(expr, (1.5, 1.5), samples=3000, seed=42)
    assert a == b
    c = check_el(expr, (1.5, 1.5), samples=3000, seed=43)
    assert c.passed and c != a  # witnesses move with the seed


def test_feasibility_of_the_linear_optimum(h12):
    res = linear_opt(h12)
    rep = check_feasible(res.expr, h12, samples=1000, seed=1)
    assert rep.feasible
    # jump is k * c_i, minimal at the smallest coefficient
    assert rep.min_jump == pytest.approx(1.0, abs=1e-9)
    assert rep.witness_coord == 0
    assert rep == check_feasible(res.expr, h12, samples=1000, seed=1)


def test_halved_function_is_infeasible(h12):
    rep = check_feasible(Scale(0.5, linear_opt(h12).expr), h12, samples=1000, seed=1)
    assert not rep.feasible
    assert rep.min_jump == pytest.approx(0.5, abs=1e-9)


def test_construction_feasibility(qc, qcc):
    rep = check_feasible(convex_plateau(qc).expr, qc, samples=1000, seed=0)
    assert rep.feasible and rep.min_jump >= 1.0 - 1e-6
    # the x-pair jump on the x-strip is exactly 1
    assert rep.min_jump == pytest.approx(1.0, abs=1e-9)
    rep = check_feasible(concave_construct(qcc).expr, qcc, samples=1000, seed=0)
    assert rep.feasible


def test_normal_ratio_bound_hyperplane():
    bound = normal_ratio_bound(Hyperplane(c=(1.0, 4.0), M=2.0))
    assert bound.value == 4.0
    assert (bound.j, bound.i) == (1, 0)
    plane = Hyperplane(c=(1.0, 4.0), M=2.0)
    assert plane.contains(bound.point)


def test_normal_ratio_bound_worked_curves(qc, qcc):
    b = normal_ratio_bound(qc)
    assert b.value == pytest.approx(2.0, abs=1e-12)
    # supremum 1/(-alpha'(a)) attained towards the x-intercept
    assert b.point == (1.0, 0.0)
    assert (b.j, b.i) == (1, 0)
    b = normal_ratio_bound(qcc)
    assert b.value == pytest.approx(2.0, abs=1e-12)
    assert b.point == (0.0, 1.0)


def test_sampled_supremum_matches_closed_form(qc, qcc):
    for curve in (qc, qcc, hyperbola_through(2.0, 0.5, 0.4)):
        assert sup_ratio_sampled(curve) == pytest.approx(
            normal_ratio_bound(curve).value, abs=1e-6
        )


def test_feasible_functions_respect_the_bound(qc, qcc, h12):
    # lower-bound soundness on concrete feasible functions
    cases = [
        (linear_opt(h12).expr, h12),
        (convex_plateau(qc).expr, qc),
        (convex_diag(qc).expr, qc),
        (concave_construct(qcc).expr, qcc),
        (Scale(3.0, linear_opt(h12).expr), h12),  # over-scaled stays feasible
    ]
    for expr, surface in cases:
        assert check_feasible(expr, surface, samples=300, seed=5).feasible
        assert cost(expr) >= normal_ratio_bound(surface).value - 1e-6


def test_gap_report_hyperplane(h12):
    rep = gap_report(h12)
    assert rep.ratio_bound == 2.0
    assert rep.construction_cost == 2.0
    assert rep.gap_cost_minus_bound == 0.0
    assert rep.construction_kind == "linear_opt"
    assert rep.lp_values is None


def test_gap_report_with_lp(qc):
    rep = gap_report(qc, grid_m=[8, 16])
    assert rep.construction_cost == pytest.approx(2.0, abs=1e-9)
    assert rep.lp_values is not None and len(rep.lp_values) == 2
    assert rep.lp_bound <= rep.construction_cost + 1e-6
    assert rep.ratio_bound <= rep.construction_cost + 1e-9
    assert rep.gap_bound_minus_lp == pytest.approx(rep.ratio_bound - rep.lp_bound)


def test_gap_report_rejects_lp_for_higher_dimensions():
    plane = Hyperplane(c=(1.0, 2.0, 3.0), M=1.0)
    assert gap_report(plane).construction_cost == pytest.approx(3.0)
    with pytest.raises(DomainError):
        gap_report(plane, grid_m=8)


def test_check_el_input_validation(qc):
    with pytest.raises(DomainError):
        check_el(ConvexPlateau(qc), (1.0, 1.0, 1.0), samples=10, seed=0)
    with pytest.raises(DomainError):
        check_el(ConvexPlateau(qc), (1.0, -1.0), samples=10, seed=0)


def test_derivative_suite_catches_wrong_derivatives(qc):
    # a node lying about its derivatives, grossly or by 1e-5 relative,
    # must fail the FD cross-check
    for factor in (1.5, 1.0 + 1e-5):
        class Lying(ConvexPlateau):
            def _partials(self, X):
                left, right = super()._partials(X)
                return left * factor, right * factor

        rep = check_el(Lying(qc), (1.2, 1.2), samples=1500, seed=11)
        assert not rep.property("fd_agreement").passed, factor


def test_derivative_checks_accept_strongly_curved_sections():
    # A correct construction on a sharply bent arc (alpha'' = -3.5): a
    # quotient compared with the derivative at one end of its step, or a
    # limit ladder read off at its last rung, misses by h |f''| / 2 and
    # failed fd_agreement here with seed 1.
    curve = QuadraticCurve(a=0.734, b=1.447, c2=-1.7672675571130532)
    rep = check_el(concave_construct(curve).expr, (1.5 * curve.a, 1.5 * curve.b), samples=2000, seed=1)
    assert rep.passed
    assert rep.property("fd_agreement").worst_violation < 1e-7
    assert rep.property("derivative_limits").worst_violation < 1e-9
