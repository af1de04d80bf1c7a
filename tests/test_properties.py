"""Derandomized Hypothesis sweeps over the parameters of the surface families."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from elopt import (  # noqa: E402
    ConcaveStep,
    ConvexDiag,
    ConvexPlateau,
    SHAPE_CONVEX,
    SHAPE_LINEAR,
    HyperbolaCurve,
    Hyperplane,
    LineCurve,
    QuadraticCurve,
    build_lp,
    check_feasible,
    construct,
    cost_total,
    normal_ratio_bound,
    solve_lp,
)
from helpers import assert_matches_tie_oracle, seam_place, tie_batch  # noqa: E402


def _curve_through_end_slopes(family, a, s0, sa):
    """Curve of ``family`` from ``(0, b)`` to ``(a, 0)`` with end slopes ``-alpha'(0) = s0``, ``-alpha'(a) = sa``."""
    if family == "quadratic":
        return QuadraticCurve(a=a, b=a * (s0 + sa) / 2.0, c2=(s0 - sa) / (2.0 * a))
    # The hyperbola's end slopes multiply to (b/a)^2 and divide to ((a + s)/s)^2.
    b = a * math.sqrt(s0 * sa)
    s = a / (math.sqrt(s0 / sa) - 1.0)
    return HyperbolaCurve(a=a, b=b, s=s, t=s * b / a)


def test_claims_meet_the_ratio_bound_and_the_tie_oracle():
    places = set()

    @hypothesis.settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @hypothesis.given(
        family=st.sampled_from(["quadratic", "hyperbola"]),
        a=st.floats(0.2, 5.0),
        log_s0=st.floats(-3.0, 3.0),
        log_sa=st.floats(-3.0, 3.0),
    )
    def claim_is_the_bound(family, a, log_s0, log_sa):
        # Drawn through the end slopes s0 = -alpha'(0) and sa = -alpha'(a), so
        # that they fall on the same side of 1 (no seam) about half the time.
        # A hyperbola is convex: its slope falls from s0 to sa.
        s0, sa = 2.0**log_s0, 2.0**log_sa
        if family == "hyperbola":
            s0, sa = max(s0, sa), min(s0, sa)
            hypothesis.assume(s0 > 1.01 * sa)
        curve = _curve_through_end_slopes(family, a, s0, sa)
        hypothesis.assume(curve.shape != SHAPE_LINEAR and curve.validate().valid)
        built = construct(curve)
        assert built.claimed_cost == pytest.approx(normal_ratio_bound(curve).value, rel=1e-9, abs=0.0)
        # every built-in construction is bounded: the paper's second cost is finite
        assert cost_total(built.expr) is not None

        # The kernel resolves every tie as the three-way oracle does.
        convex = curve.shape == SHAPE_CONVEX
        nodes = [ConvexPlateau(curve)] if convex else [ConcaveStep(curve)]
        if convex and curve.t_point() is not None:
            nodes.append(ConvexDiag(curve))
        rng = np.random.default_rng(0)
        for node in nodes:
            assert_matches_tie_oracle(node, tie_batch(node, rng, random_points=8))
            places.add((family, seam_place(node)))

    claim_is_the_bound()
    assert places == {
        (family, place)
        for family in ("quadratic", "hyperbola")
        for place in ("interior", "(0, b)", "(a, 0)")
    }


def test_linear_claims_meet_the_ratio_bound_and_are_feasible():
    kinds = set()

    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @hypothesis.given(
        kind=st.sampled_from(["line", "hyperplane_2d", "hyperplane_3d"]),
        log_values=st.lists(st.floats(-20.0, 20.0), min_size=4, max_size=4),
    )
    def claim_is_the_bound(kind, log_values):
        # Intercepts, coefficients and M from 2^-20 to 2^20, about 1e-6 to 1e6.
        v = [2.0**e for e in log_values]
        if kind == "line":
            surface = LineCurve(a=v[0], b=v[1])
        else:
            surface = Hyperplane(c=tuple(v[: 2 if kind == "hyperplane_2d" else 3]), M=v[3])
        hypothesis.assume(surface.validate().valid)
        built = construct(surface)
        ratio = normal_ratio_bound(surface).value
        assert built.claimed_cost == pytest.approx(ratio, rel=1e-12, abs=0.0)
        assert check_feasible(built.expr, surface).feasible
        if surface.dim == 2:
            # the grid LP is a lower bound at every scale of the box
            assert solve_lp(build_lp(surface, 7)).value <= ratio * (1 + 1e-6)
        kinds.add(kind)

    claim_is_the_bound()
    assert kinds == {"line", "hyperplane_2d", "hyperplane_3d"}
