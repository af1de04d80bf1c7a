"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time

import numpy as np

from elopt import (
    Hyperplane,
    QuadraticCurve,
    Scale,
    build_lp,
    check_el,
    check_feasible,
    concave_construct,
    convex_diag,
    convex_plateau,
    cost,
    eval_at,
    linear_opt,
    normal_ratio_bound,
    one_sided_partials,
    restriction_check,
    solve_lp,
)
from helpers import fd_one_sided, property_check

QC = QuadraticCurve(a=1.0, b=1.0, c2=0.5)
QCC = QuadraticCurve(a=1.0, b=1.0, c2=-0.5)
H12 = Hyperplane(c=(1.0, 2.0), M=1.0)

EL_SAMPLES = 10_000
FEAS_SAMPLES = 1_000
VALUE_TOL = 1e-7


def _verdict(num, name, ok, detail=""):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_linear_tightness():
    rng = np.random.default_rng(20240601)
    start = time.perf_counter()
    worst_cost_gap = 0.0
    worst_jump_gap = 0.0
    for trial in range(20):
        n = (2, 3, 4)[trial % 3]
        c = tuple(rng.uniform(0.1, 10.0, n))
        plane = Hyperplane(c=c, M=float(rng.uniform(0.5, 4.0)))
        res = linear_opt(plane)
        bound = normal_ratio_bound(plane).value
        expected = max(c) / min(c)
        worst_cost_gap = max(
            worst_cost_gap,
            abs(res.claimed_cost - expected),
            abs(bound - expected),
            abs(cost(res.expr) - expected),
        )
        feas = check_feasible(res.expr, plane, samples=FEAS_SAMPLES, seed=trial)
        worst_jump_gap = max(worst_jump_gap, abs(feas.min_jump - 1.0))
        assert feas.witness_coord == int(np.argmin(c))
    elapsed = time.perf_counter() - start
    ok = worst_cost_gap <= 1e-9 and worst_jump_gap <= 1e-6 and elapsed < 5.0
    _verdict(
        1,
        "linear tightness on 20 seeded hyperplanes",
        ok,
        f"(cost gap {worst_cost_gap:.2e}, jump gap {worst_jump_gap:.2e}, {elapsed:.2f}s)",
    )


def _suite_and_feasibility(expr, surface, seed):
    el = check_el(expr, (1.5 * surface.a, 1.5 * surface.b), samples=EL_SAMPLES, seed=seed)
    value_props = (
        "pointed",
        "monotone",
        "submodular",
        "dr_coordinate",
        "dr_general",
        "directional_concavity",
    )
    assert all(property_check(el, p).tolerance <= VALUE_TOL for p in value_props)
    feas = check_feasible(expr, surface, samples=FEAS_SAMPLES, seed=seed)
    return el.passed, feas.min_jump >= 1.0 - 1e-6


def test_criterion_2_worked_convex_curve():
    t = QC.t_point()
    plateau = convex_plateau(QC)
    diag = convex_diag(QC)
    bound = normal_ratio_bound(QC).value
    numbers_ok = (
        abs(t.t_x - 0.5) <= 1e-9
        and abs(t.t_y - 0.375) <= 1e-9
        and abs(bound - 2.0) <= 1e-9
        and abs(plateau.claimed_cost - 2.0) <= 1e-9
        and abs(diag.claimed_cost - 2.0) <= 1e-9
    )
    el_p, feas_p = _suite_and_feasibility(plateau.expr, QC, seed=201)
    el_d, feas_d = _suite_and_feasibility(diag.expr, QC, seed=202)
    ok = numbers_ok and el_p and feas_p and el_d and feas_d
    _verdict(
        2,
        "worked convex arc: seam, bound, both costs, suites",
        ok,
        f"(t=({t.t_x}, {t.t_y}), bound={bound})",
    )


def test_criterion_3_worked_concave_curve():
    t = QCC.t_point()
    res = concave_construct(QCC)
    bound = normal_ratio_bound(QCC).value
    numbers_ok = (
        abs(t.t_x - 0.5) <= 1e-9
        and abs(t.t_y - 0.625) <= 1e-9
        and abs(res.scale_k - 2.0) <= 1e-9
        and abs(res.claimed_cost - 2.0) <= 1e-9
        and abs(bound - 2.0) <= 1e-9
    )
    el, feas = _suite_and_feasibility(res.expr, QCC, seed=301)
    ok = numbers_ok and el and feas
    _verdict(
        3,
        "worked concave arc: seam, scaling, cost, suites",
        ok,
        f"(t=({t.t_x}, {t.t_y}), k={res.scale_k})",
    )


def test_criterion_4_non_uniqueness():
    plateau = convex_plateau(QC)
    diag = convex_diag(QC)
    seam = (0.5, 0.375)
    v_plateau = eval_at(plateau.expr, seam)
    v_diag = eval_at(diag.expr, seam)
    ok = (
        abs(plateau.claimed_cost - diag.claimed_cost) <= 1e-9
        and abs(v_plateau - 1.125) <= 1e-9
        and abs(v_diag - 1.75) <= 1e-9
        and abs(v_plateau - v_diag) >= 0.5
    )
    _verdict(
        4,
        "equal-cost optima differ at the seam",
        ok,
        f"(values {v_plateau} vs {v_diag})",
    )


def test_criterion_5_lp_soundness():
    cases = [
        ("linear(1,2)", H12, linear_opt(H12)),
        ("convex", QC, convex_plateau(QC)),
        ("concave", QCC, concave_construct(QCC)),
    ]
    ok = True
    details = []
    for label, surface, res in cases:
        for m in (16, 32, 64):
            lp = build_lp(surface, m)
            start = time.perf_counter()
            sol = solve_lp(lp)
            elapsed = time.perf_counter() - start
            witness = restriction_check(lp, res.expr)
            sound = sol.value <= 2.0 + 1e-6
            fits = witness.satisfied and witness.max_violation <= 1e-9
            fast = elapsed < 60.0 if m == 64 else True
            ok = ok and sound and fits and fast
            details.append(f"{label}/m={m}: {sol.value:.6f} ({elapsed:.1f}s)")
    _verdict(5, "grid-LP soundness and restriction witnesses", ok, "; ".join(details))


def test_criterion_6_falsifiability():
    rep = check_el(lambda p: p[0] * p[1], (2.0, 2.0), samples=2000, seed=6)
    sub = property_check(rep, "submodular")
    product_fails = (not sub.passed) and sub.witness is not None
    half = Scale(0.5, linear_opt(H12).expr)
    feas = check_feasible(half, H12, samples=FEAS_SAMPLES, seed=6)
    half_fails = (not feas.feasible) and abs(feas.min_jump - 0.5) <= 1e-9
    ok = product_fails and half_fails
    _verdict(
        6,
        "non-entropy-like inputs are rejected with witnesses",
        ok,
        f"(xy worst violation {sub.worst_violation:.3g}, halved min_jump {feas.min_jump})",
    )


def _interior_points(rng, surface, count, margin=2e-2):
    """Seeded points at least `margin` away from every branch boundary.

    The margin also keeps the relative finite-difference error small where a
    one-sided derivative vanishes linearly towards a seam (the above-curve
    strips of the capped-sum construction).
    """
    points = []
    while len(points) < count:
        if isinstance(surface, Hyperplane):
            x = rng.uniform(margin, 1.4 * np.array(surface.intercepts()))
            if abs(float(np.dot(x, surface.c)) - surface.M) < margin:
                continue
        else:
            x = rng.uniform(margin, (1.4 * surface.a, 1.4 * surface.b))
            t = surface.t_point()
            if abs(x[0] - t.t_x) < margin or abs(x[1] - t.t_y) < margin:
                continue
            if abs(x[1] - float(surface.alpha(min(x[0], surface.a)))) < margin:
                continue
            if abs(x[0] - float(surface.beta(min(x[1], surface.b)))) < margin:
                continue
        points.append(x)
    return np.asarray(points)


def test_criterion_7_derivative_exactness():
    cases = [
        ("convex_plateau", convex_plateau(QC).expr, QC),
        ("convex_diag", convex_diag(QC).expr, QC),
        ("concave_step", concave_construct(QCC).expr, QCC),
        ("linear_opt", linear_opt(H12).expr, H12),
    ]
    rng = np.random.default_rng(777)
    worst_rel = 0.0
    worst_limit = 0.0
    for label, expr, surface in cases:
        pts = _interior_points(rng, surface, 200)
        for p in pts:
            h = 1e-7 * max(1.0, float(np.max(np.abs(p))))
            fd_left, fd_right = fd_one_sided(expr, p, h)
            g = one_sided_partials(expr, p)
            for i in range(2):
                for got, want in ((fd_right[i], g.right[i]), (fd_left[i], g.left[i])):
                    denom = abs(want) if abs(want) > 1e-9 else 1.0
                    worst_rel = max(worst_rel, abs(got - want) / denom)

        # one-sided derivative limits, including points on the surface itself
        ladder = [10.0 ** -k for k in range(2, 9)]
        sample = list(pts[:25])
        if isinstance(surface, Hyperplane):
            sample += [np.array([x, (surface.M - x) / 2.0]) for x in (0.2, 0.5, 0.8)]
        else:
            sample += [np.array([x, float(surface.alpha(x))]) for x in (0.2, 0.5, 0.8)]
        for p in sample:
            g = one_sided_partials(expr, p)
            for i in range(2):
                step = np.zeros(2)
                step[i] = 1.0
                plus = [float(one_sided_partials(expr, p + e * step).right[i]) for e in ladder]
                worst_limit = max(
                    worst_limit,
                    max(a - b for a, b in zip(plus, plus[1:])),  # must not decrease
                    abs(plus[-1] - float(g.right[i])),
                )
                if p[i] > ladder[0]:
                    minus = [
                        float(one_sided_partials(expr, p - e * step).right[i]) for e in ladder
                    ]
                    worst_limit = max(
                        worst_limit,
                        max(b - a for a, b in zip(minus, minus[1:])),  # must not increase
                        abs(minus[-1] - float(g.left[i])),
                    )
    ok = worst_rel <= 1e-5 and worst_limit <= 1e-7
    _verdict(
        7,
        "finite differences and one-sided limits confirm the exact rules",
        ok,
        f"(worst FD rel {worst_rel:.2e}, worst limit defect {worst_limit:.2e})",
    )
