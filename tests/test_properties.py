"""Derandomized Hypothesis sweeps over the parameters of the surface families."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from elopt import QuadraticCurve, construct, normal_ratio_bound  # noqa: E402


def test_claims_meet_the_ratio_bound_across_quadratics():
    modes = set()

    @hypothesis.settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @hypothesis.given(a=st.floats(0.2, 5.0), log_s0=st.floats(-3.0, 3.0), log_sa=st.floats(-3.0, 3.0))
    def claim_is_the_bound(a, log_s0, log_sa):
        # Drawn through the end slopes s0 = -alpha'(0) and sa = -alpha'(a), so
        # that they fall on the same side of 1 (no seam) about half the time.
        s0, sa = 2.0**log_s0, 2.0**log_sa
        curve = QuadraticCurve(a=a, b=a * (s0 + sa) / 2.0, c2=(s0 - sa) / (2.0 * a))
        hypothesis.assume(curve.shape != "linear" and curve.validate().valid)
        claimed = construct(curve).claimed_cost
        assert claimed == pytest.approx(normal_ratio_bound(curve).value, rel=1e-9, abs=0.0)
        if curve.t_point() is not None:
            modes.add("full")
        else:
            modes.add("single_shallow" if curve.slope_range()[1] <= 1.0 else "single_steep")

    claim_is_the_bound()
    assert modes == {"full", "single_shallow", "single_steep"}
