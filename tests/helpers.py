"""Shared test oracles, independent of the library code paths they check."""

import math

import numpy as np

from elopt import eval_at

# Worked quadratic arcs used throughout: unit intercepts with curvature +-0.5.
QC_PARAMS = dict(a=1.0, b=1.0, c2=0.5)       # alpha = 1 - 1.5 x + 0.5 x^2
QCC_PARAMS = dict(a=1.0, b=1.0, c2=-0.5)     # alpha = 1 - 0.5 x - 0.5 x^2

# Closed forms for the convex arc, written out by hand.
QC_TX = 0.5            # alpha'(t) = -1.5 + t = -1
QC_TY = 0.375          # alpha(0.5)
QC_PLATEAU = 1.125     # (a - t_x) + (b - t_y)
QCC_TX = 0.5           # alpha'(t) = -0.5 - t = -1
QCC_TY = 0.625         # alpha(0.5)


def qc_alpha(x):
    return 1.0 - 1.5 * x + 0.5 * x * x


def qc_beta(y):
    return 1.5 - np.sqrt(0.25 + 2.0 * y)


def qc_beta_prime(y):
    return -1.0 / np.sqrt(0.25 + 2.0 * y)


def qcc_alpha(x):
    return 1.0 - 0.5 * x - 0.5 * x * x


def qcc_beta(y):
    return 0.5 * (np.sqrt(9.0 - 8.0 * y) - 1.0)


def qc_plateau_reference(x, y):
    """Direct transcription of the flat-plateau branch formulas for the worked convex arc."""
    if x >= QC_TX and y >= QC_TY:
        return QC_PLATEAU
    if x >= QC_TX:
        return QC_PLATEAU + min(x - qc_beta(y), 0.0)
    if y >= QC_TY:
        return QC_PLATEAU + min(y - qc_alpha(x), 0.0)
    return (1.0 - qc_alpha(x)) + (1.0 - qc_beta(y))


def qc_diag_reference(x, y):
    """Direct transcription of the diagonal-plateau branch formulas (unscaled)."""
    plateau = QC_TX + QC_TY
    if x >= QC_TX and y >= QC_TY:
        return plateau
    if x >= QC_TX:
        return plateau + min(y - qc_alpha(x), 0.0)
    if y >= QC_TY:
        return plateau + min(x - qc_beta(y), 0.0)
    return x + y


def qcc_step_reference(x, y):
    """Direct transcription of the capped-sum branch formulas (unscaled)."""
    if x >= QCC_TX and y >= QCC_TY:
        return QCC_TX + QCC_TY
    if x >= QCC_TX:
        return y + min(x, qcc_beta(y))
    if y >= QCC_TY:
        return x + min(y, qcc_alpha(x))
    return x + y


def fd_one_sided(expr, point, h):
    """One-sided difference quotients from plain evaluations (no library derivative code)."""
    point = np.asarray(point, dtype=float)
    n = point.size
    base = eval_at(expr, point)
    left = np.full(n, np.nan)
    right = np.empty(n)
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        right[i] = (eval_at(expr, point + step) - base) / h
        if point[i] >= h:
            left[i] = (base - eval_at(expr, point - step)) / h
    return left, right


def sup_ratio_sampled(curve, grid=1024, refine_iters=80):
    """General sampled supremum of the normal ratio, with golden-section refinement.

    Reference for the closed-form endpoint value of ``normal_ratio_bound``,
    which assumes a monotone slope; this makes no such assumption.
    """

    def ratio(x):
        s = -float(curve.alpha_prime(x))
        return max(s, 1.0 / s)

    xs = np.linspace(0.0, curve.a, grid + 1)
    values = np.array([ratio(x) for x in xs])
    best = int(np.argmax(values))
    lo = xs[max(0, best - 1)]
    hi = xs[min(grid, best + 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = ratio(x1), ratio(x2)
    for _ in range(refine_iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = ratio(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = ratio(x1)
    return float(max(values[best], f1, f2))


def simplex_min_geq(c, A, b, max_iter=200_000):
    """Minimise ``c @ x`` subject to ``A @ x >= b`` and ``x >= 0``.

    Dense two-phase tableau simplex with Bland's rule (anti-cycling);
    reference oracle for small instances only.
    """
    A = np.asarray(A, dtype=float)
    rhs = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    # Equalities A x - s = b with s >= 0; flip rows so the rhs is non-negative.
    T = np.hstack([A, -np.eye(m)])
    flip = rhs < 0
    T[flip] *= -1.0
    rhs[flip] *= -1.0
    total = n + m  # real variables + slacks; artificials follow

    tableau = np.hstack([T, np.eye(m), rhs[:, None]])
    basis = np.arange(total, total + m)

    def pivot(row, col):
        tableau[row] /= tableau[row, col]
        for r in range(tableau.shape[0]):
            if r != row and tableau[r, col] != 0.0:
                tableau[r] -= tableau[r, col] * tableau[row]
        basis[row] = col

    def run_phase(cost, allowed):
        for _ in range(max_iter):
            reduced = cost - cost[basis] @ tableau[:, :-1]
            candidates = np.nonzero((reduced < -1e-9) & allowed)[0]
            if candidates.size == 0:
                return float(cost[basis] @ tableau[:, -1])
            col = int(candidates[0])  # Bland: smallest eligible index
            positive = tableau[:, col] > 1e-11
            if not np.any(positive):
                raise RuntimeError("unbounded")
            ratios = np.full(tableau.shape[0], np.inf)
            ratios[positive] = tableau[positive, -1] / tableau[positive, col]
            best = np.min(ratios)
            ties = [r for r in range(tableau.shape[0]) if positive[r] and ratios[r] <= best + 1e-11]
            row = min(ties, key=lambda r: basis[r])  # Bland: smallest leaving variable
            pivot(row, col)
        raise RuntimeError("simplex iteration cap")

    phase1 = np.zeros(total + m)
    phase1[total:] = 1.0
    allowed = np.ones(total + m, dtype=bool)
    if run_phase(phase1, allowed) > 1e-7:
        raise RuntimeError("infeasible")

    # Drive leftover degenerate artificials out of the basis, or drop their
    # (redundant) rows, so phase-2 pricing is exact.
    keep = np.ones(tableau.shape[0], dtype=bool)
    for r in range(tableau.shape[0]):
        if basis[r] >= total:
            real = np.nonzero(np.abs(tableau[r, :total]) > 1e-9)[0]
            if real.size:
                pivot(r, int(real[0]))
            else:
                keep[r] = False
    tableau = tableau[keep]
    basis = basis[keep]

    phase2 = np.zeros(total + m)
    phase2[:n] = c
    allowed = np.zeros(total + m, dtype=bool)
    allowed[:total] = True
    return run_phase(phase2, allowed)
