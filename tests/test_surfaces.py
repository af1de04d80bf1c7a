import math
import re

import numpy as np
import pytest

from elopt import (
    ConfigError,
    DomainError,
    Hyperplane,
    HyperbolaCurve,
    LineCurve,
    QuadraticCurve,
    build_lp,
    construct,
)
from elopt.serialize import surface_from_dict
from elopt.surfaces import SLOPE_MAX
from helpers import hyperbola_through, qc_beta, qcc_beta


def test_quadratic_linear_coefficient_fixed_by_intercepts(qc, qcc):
    # c1 = -(b + c2 a^2) / a, worked out by hand for both arcs
    assert qc.c1 == -1.5
    assert qcc.c1 == -0.5
    assert qc.shape == "strictly_convex"
    assert qcc.shape == "strictly_concave"


def test_alpha_closed_form_and_snapping(qc):
    xs = np.linspace(0.0, 1.0, 101)
    expected = 1.0 - 1.5 * xs + 0.5 * xs * xs
    assert np.max(np.abs(qc.alpha(xs) - expected)) < 1e-15
    assert qc.alpha(0.0) == 1.0
    assert qc.alpha(1.0) == 0.0
    assert qc.alpha(0.5) == pytest.approx(0.375, abs=1e-15)


def test_beta_matches_hand_inverse(qc, qcc):
    ys = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(qc.beta(ys) - qc_beta(ys))) < 1e-12
    assert np.max(np.abs(qcc.beta(ys) - qcc_beta(ys))) < 1e-12
    assert qc.beta(0.0) == 1.0
    assert qc.beta(1.0) == 0.0


def test_beta_inverts_alpha_densely(qc, qcc):
    for curve in (qc, qcc, hyperbola_through(1.0, 1.0, 1.0), LineCurve(a=2.0, b=0.5)):
        xs = np.linspace(0.0, curve.a, 513)
        assert np.max(np.abs(curve.beta(curve.alpha(xs)) - xs)) < 1e-9
        ys = np.linspace(0.0, curve.b, 513)
        assert np.max(np.abs(curve.alpha(curve.beta(ys)) - ys)) < 1e-9


def test_beta_prime_values_and_inverse_function_rule(qc, qcc):
    assert qc.beta_prime(0.0) == pytest.approx(-2.0, abs=1e-12)
    assert qc.beta_prime(1.0) == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert qcc.beta_prime(1.0) == pytest.approx(-2.0, abs=1e-12)
    assert qcc.beta_prime(0.0) == pytest.approx(-2.0 / 3.0, abs=1e-12)
    # central finite differences of beta as an independent check
    h = 1e-6
    for y in (0.1, 0.375, 0.7):
        fd = (qc_beta(y + h) - qc_beta(y - h)) / (2 * h)
        assert qc.beta_prime(y) == pytest.approx(fd, rel=1e-6)


def test_t_point_worked_values(qc, qcc):
    t = qc.t_point()
    assert t.t_x == pytest.approx(0.5, abs=1e-9)
    assert t.t_y == pytest.approx(0.375, abs=1e-9)
    t = qcc.t_point()
    assert t.t_x == pytest.approx(0.5, abs=1e-9)
    assert t.t_y == pytest.approx(0.625, abs=1e-9)
    for curve in (qc, qcc):
        tp = curve.t_point()
        assert abs(curve.alpha_prime(tp.t_x) + 1.0) < 1e-9
        assert 0.0 < tp.t_x < curve.a


def test_t_point_hyperbola_closed_form():
    curve = hyperbola_through(1.0, 1.0, 1.0)  # kappa = 2, t = sqrt(2) - 1
    t = curve.t_point()
    assert t.t_x == math.sqrt(2.0) - 1.0
    assert t.t_x == pytest.approx(t.t_y, abs=1e-9)  # symmetric arc


def test_t_point_absent_when_slope_stays_on_one_side():
    steep = QuadraticCurve(a=1.0, b=2.5, c2=0.5)  # slopes in [2, 3]
    assert steep.slope_range() == pytest.approx((2.0, 3.0))
    assert steep.t_point() is None
    shallow = QuadraticCurve(a=1.0, b=0.5, c2=0.25)  # slopes in [0.25, 0.75]
    assert shallow.t_point() is None
    assert LineCurve(a=2.0, b=1.0).t_point() is None
    # 45-degree line: the normal is (1, 1) everywhere, no isolated seam
    assert LineCurve(a=1.0, b=1.0).t_point() is None


@pytest.mark.parametrize("k", range(-30, 31, 3))
def test_seam_at_every_scale(k):
    # Boxes from about 1e-9 to 1e9 with the same shapes: a seamless convex and
    # concave quadratic, and two hyperbolas whose slopes straddle 1.
    a, b = 1.37 * 2.0**k, 0.81 * 2.0**k
    curves = [QuadraticCurve(a=a, b=b, c2=0.6 * b / a**2), QuadraticCurve(a=a, b=b, c2=-0.3 * b / a**2)]
    curves += [HyperbolaCurve(a=a, b=b, s=s, t=s * b / a) for s in (0.3 * a, 1.1 * a)]
    for curve in curves:
        assert curve.validate().valid, curve
        s_lo, s_hi = curve.slope_range()
        t = curve.t_point()
        assert (t is None) == (not s_lo < 1.0 < s_hi), curve
        if t is not None:
            assert 0.0 <= t.t_x <= curve.a, curve
            assert abs(curve.alpha_prime(t.t_x) + 1.0) <= 1e-12, curve
            construct(curve)


def test_validate_worked_curves(qc, qcc):
    report = qc.validate()
    assert report.valid
    assert report.slope_range == pytest.approx((0.5, 1.5))
    assert report.shape == "strictly_convex"
    assert qcc.validate().valid


def test_validate_flags_degenerate_endpoint_normal():
    # alpha = (1 - x)^2 has alpha'(1) = 0: outward normal degenerates there
    curve = QuadraticCurve(a=1.0, b=1.0, c2=1.0)
    report = curve.validate()
    assert not report.valid
    assert any("degenerate" in v for v in report.violations)


def test_validate_flags_inconsistent_hyperbola_parameters():
    # consistency requires t = s b / a = 2; t = 1 misses the y-intercept
    curve = HyperbolaCurve(a=1.0, b=2.0, s=1.0, t=1.0)
    report = curve.validate()
    assert not report.valid
    assert any("y-intercept" in v for v in report.violations)
    assert hyperbola_through(1.0, 2.0, 1.0).validate().valid


@pytest.mark.filterwarnings("error")
def test_hyperbola_closed_forms_must_not_overflow():
    # The unit hyperbola times 2^k.  At k = 511, alpha' squared x + s into
    # inf, and the curve validated as not strictly decreasing; at k = 512
    # kappa overflows too.
    unit = HyperbolaCurve(a=1.0, b=1.0, s=1.0, t=1.0)
    for k, quantity in ((511, "(a+s)²"), (512, "kappa")):
        lam = 2.0**k
        with pytest.raises(ValueError, match=f"^hyperbola parameters overflow: {re.escape(quantity)} is not finite$"):
            HyperbolaCurve(a=lam, b=lam, s=lam, t=lam)
        doc = {"kind": "curve", "family": "hyperbola", "a": lam, "b": lam, "params": {"s": lam, "t": lam}}
        with pytest.raises(ConfigError, match=re.escape(quantity)):
            surface_from_dict(doc)
    # below the limit the dilated curve keeps every bit
    for k in (-30, 345, 500):
        lam = 2.0**k
        curve = HyperbolaCurve(a=lam, b=lam, s=lam, t=lam)
        assert curve.kappa == lam * lam * unit.kappa
        assert curve.validate() == unit.validate()
        xs = np.linspace(0.0, 1.0, 9)
        assert curve.alpha_prime(lam * xs).tobytes() == unit.alpha_prime(xs).tobytes()


def test_endpoint_test_is_measured_in_the_box_scale():
    # The golden case hyperbola_inconsistent shrunk by 2^-40: alpha(0) = 2b
    # misses b by less than an absolute 1e-12.
    tiny = 2.0**-40
    report = HyperbolaCurve(a=tiny, b=tiny, s=tiny, t=2.0 * tiny).validate()
    assert not report.valid
    assert any("y-intercept" in v for v in report.violations)


def test_range_slack_is_measured_in_the_box_scale():
    # 200 times the intercept is outside [0, a], whatever the box's size
    tiny = 2.0**-40
    with pytest.raises(DomainError, match="^x outside"):
        QuadraticCurve(a=tiny, b=tiny, c2=0.5 / tiny).alpha(200.0 * tiny)


def _load_quadratic(c2, shape):
    doc = {"kind": "curve", "family": "quadratic", "a": 1.0, "b": 1.0, "shape": shape, "params": {"c2": c2}}
    return surface_from_dict(doc)


def test_validate_flags_shape_mismatch():
    # A curve's shape comes from its parameters; a document's optional shape
    # key may only repeat it.
    for c2, shape in ((0.5, "strictly_convex"), (-0.5, "strictly_concave"), (0.0, "linear")):
        assert _load_quadratic(c2, shape).shape == _load_quadratic(c2, "auto").shape == shape
    for c2, shape in ((-0.5, "strictly_convex"), (0.5, "linear"), (0.5, "strictly_concave")):
        with pytest.raises(ConfigError, match=f"^shape flag '{shape}' does not match"):
            _load_quadratic(c2, shape)
    with pytest.raises(TypeError):
        QuadraticCurve(a=1.0, b=1.0, c2=0.5, shape="strictly_convex")


def test_validate_flags_slope_above_the_cap():
    report = LineCurve(a=1e-7, b=1.0).validate()
    assert not report.valid
    assert report.slope_range[1] > SLOPE_MAX
    assert any(f"exceeds the bound {SLOPE_MAX}" in v for v in report.violations)


def test_validate_flags_non_monotone_arc():
    # vertex of the parabola sits at x = 0.75 < a: alpha turns around inside
    curve = QuadraticCurve(a=1.0, b=1.0, c2=2.0)
    report = curve.validate()
    assert not report.valid
    assert any("strictly decreasing" in v for v in report.violations)


def test_malformed_inputs_raise():
    with pytest.raises(ValueError):
        QuadraticCurve(a=0.0, b=1.0, c2=0.5)
    with pytest.raises(ValueError):
        QuadraticCurve(a=1.0, b=-1.0, c2=0.5)
    with pytest.raises(ValueError):
        HyperbolaCurve(a=1.0, b=1.0, s=-0.1, t=1.0)
    with pytest.raises(ValueError):
        QuadraticCurve(a=1.0, b=1.0, c2=float("nan"))
    with pytest.raises(ConfigError, match="^malformed surface document: unknown shape flag 'wiggly'$"):
        _load_quadratic(0.5, "wiggly")
    with pytest.raises(ValueError):
        Hyperplane(c=(1.0, -2.0), M=1.0)
    with pytest.raises(ValueError):
        Hyperplane(c=(1.0, 2.0), M=0.0)
    with pytest.raises(ValueError):
        Hyperplane(c=(), M=1.0)


def test_hyperplane_validate_and_helpers():
    plane = Hyperplane(c=(1.0, 2.0), M=1.0)
    report = plane.validate()
    assert report.valid and report.normal == (1.0, 2.0)
    assert plane.intercepts() == (1.0, 0.5)
    # in 2-D the line offers the curve evaluators: alpha(x) = (1 - x) / 2, beta(y) = 1 - 2 y
    assert (plane.alpha(0.0), plane.alpha(0.5), plane.alpha(1.0)) == (0.5, 0.25, 0.0)
    assert (plane.beta(0.0), plane.beta(0.25), plane.beta(0.5)) == (1.0, 0.5, 0.0)
    assert np.array_equal(plane.alpha(np.array([0.5, 1.0])), [0.25, 0.0])
    plane3 = Hyperplane(c=(1.0, 2.0, 3.0), M=1.0)
    assert plane3.validate().valid
    with pytest.raises(DomainError):
        plane3.alpha(0.5)
    with pytest.raises(DomainError):
        plane3.beta(0.5)


@pytest.mark.parametrize("c, M, bad", [((1e-300, 1.0), 1e10, "inf"), ((1e300, 1.0), 1e-30, "0.0")])
def test_hyperplane_intercepts_must_be_finite_and_positive(c, M, bad):
    plane = Hyperplane(c=c, M=M)
    report = plane.validate()
    assert not report.valid
    assert report.violations == (f"intercept M / c[0] = {bad} is not a finite positive number",)
    with pytest.raises(DomainError, match="surface failed validation"):
        build_lp(plane, 8)


def test_normals_stay_within_validated_slope_bounds(qc, qcc):
    for curve in (qc, qcc, hyperbola_through(2.0, 0.5, 0.4)):
        lo, hi = curve.validate().slope_range
        for x in np.linspace(1e-3, curve.a - 1e-3, 64):
            # the outward normal is (-alpha'(x), 1)
            assert lo - 1e-12 <= -float(curve.alpha_prime(float(x))) <= hi + 1e-12


def test_alpha_beta_domain_errors(qc):
    # The nodes read the curve through unchecked evaluators on clamped
    # arguments; the public evaluators keep their range checks.
    hyp = hyperbola_through(2.0, 0.5, 0.4)
    for curve in (qc, hyp):
        a, b = curve.intercepts()
        for bad in (1.5 * a, -0.2, np.array([0.0, 0.5 * a, 1.1 * a]), np.array([0.3 * a, -1e-3])):
            with pytest.raises(DomainError, match="^x outside"):
                curve.alpha(bad)
        for bad in (1.1 * b, -0.2, np.array([0.5 * b, b, 1.1 * b]), np.array([-1e-3, 0.3 * b])):
            with pytest.raises(DomainError, match="^y outside"):
                curve.beta(bad)
