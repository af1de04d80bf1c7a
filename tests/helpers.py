"""Shared test oracles, independent of the library code paths they check."""

import dataclasses
import math

import numpy as np

from elopt import ConcaveStep, ConvexDiag, ConvexPlateau, ELExpr, HyperbolaCurve, eval_at, one_sided_partials

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


def concave_linear_tail_reference(curve, X):
    """Capped-sum branch of a concave curve without a seam point, the curve continued linearly past its intercept.

    Every slope ``-alpha' >= 1``: ``y + min(x, beta_lin(y))``, where
    ``beta_lin`` continues ``beta`` past ``b`` with slope ``beta'(b)``;
    otherwise ``x + min(y, alpha_lin(x))``.  Unbounded unless the
    continuation is flat.
    """
    x, y = X[:, 0], X[:, 1]
    if curve.slope_range()[0] >= 1.0:
        over = y - curve.b
        beta_lin = np.where(over <= 0.0, curve.beta(np.minimum(y, curve.b)), curve.beta_prime(curve.b) * over)
        return y + np.minimum(x, beta_lin)
    over = x - curve.a
    alpha_lin = np.where(over <= 0.0, curve.alpha(np.minimum(x, curve.a)), curve.alpha_prime(curve.a) * over)
    return x + np.minimum(y, alpha_lin)


@dataclasses.dataclass(frozen=True)
class Bilinear(ELExpr):
    """``lam * g(x / lam)`` with ``g(u) = b (u1 + u2) + k u1 u2`` on the plane, with exact partials.

    Its partials ``b + k u2`` and ``b + k u1`` rise with the other coordinate,
    so for ``k > 0`` it is supermodular: no entropy-like function.  The
    product ``x y`` is ``k = 1, b = 0``, bit for bit.
    """

    k: float = 1.0
    b: float = 0.0
    lam: float = 1.0
    dim = 2

    def _values(self, X):
        u1, u2 = X[:, 0] / self.lam, X[:, 1] / self.lam
        return self.lam * (self.b * (u1 + u2) + self.k * u1 * u2)

    def _partials(self, X):
        grad = self.b + self.k * (X[:, ::-1] / self.lam)
        return grad, grad

    def _sup(self):
        return math.inf


def hyperbola_through(a, b, s):
    """Hyperbolic arc with intercepts ``(a, 0)`` and ``(0, b)`` and offset ``s`` (so ``t = s b / a``)."""
    return HyperbolaCurve(a=a, b=b, s=s, t=s * b / a)


def with_rows(lp, geq, geq_rhs, kinds, **changes):
    """``lp`` with its rows replaced by the scipy.sparse matrix ``geq`` and the matching ``geq_rhs`` and ``kinds``."""
    geq = geq.tocsr()
    return dataclasses.replace(
        lp,
        geq_indptr=geq.indptr,
        geq_indices=geq.indices,
        geq_data=geq.data,
        geq_rhs=geq_rhs,
        kinds=kinds,
        **changes,
    )


def csv_rows_reference(columns):
    """CSV text of ``columns`` formatted one field at a time, ``repr(float(v))`` per value."""
    return "".join(
        ",".join(repr(float(v)) for v in fields) + "\n" for fields in zip(*columns)
    )


def property_check(report, name):
    """The one check named ``name`` in an ``ELReport``."""
    (check,) = [check for check in report.properties if check.name == name]
    return check


# Piece codes of ``classify_reference``.
_FLAT = 0       # constant plateau / region above the curve
_XSTRIP = 1     # strip x >= t_x below the curve
_YSTRIP = 2     # strip y >= t_y below the curve
_INNER = 3      # region with both coordinates below the seam
_XUP = 4        # strip x >= t_x above the curve, non-flat (concave case)
_YUP = 5        # strip y >= t_y above the curve, non-flat (concave case)
_SUM = 6        # region where the function is x + y

# Tie offsets in units of a node's tie tolerance.
TIE_OFFSETS = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)


def cmp3(v, w, side, tol):
    """Three-way compare: -1 below, +1 above, ``side`` on a tie (``|v - w| <= tol``)."""
    w = np.asarray(w)
    return np.where(v < w - tol, -1, np.where(v > w + tol, 1, side))


def _above_clamped(node, u, v, su, sv, inverse):
    # u against the curve clamped into its range at v (beta when ``inverse``);
    # past the intercept the level is 0 and a tie takes only u's side.
    curve, tol = node.curve, node._layout.tol
    end, level_of = (curve.b, curve.beta) if inverse else (curve.a, curve.alpha)
    cv = cmp3(v, end, sv, tol)
    level = np.where(cv >= 0, 0.0, level_of(np.minimum(v, end)))
    return cmp3(u, level, su if su != 0 else np.where(cv < 0, sv, 0), tol) >= 0


def classify_reference(node, x, y, sx, sy):
    """Piece codes of a piecewise node for one queried side, by the three-way tie rule.

    Each side is classified on its own, with no masks shared between sides.
    """
    lay, curve = node._layout, node.curve
    cx, cy = cmp3(x, lay.t_x, sx, lay.tol), cmp3(y, lay.t_y, sy, lay.tol)
    piece = np.full(x.shape, _INNER if isinstance(node, ConvexPlateau) else _SUM)
    piece[(cx >= 0) & (cy >= 0)] = _FLAT
    xs, ys = (cx >= 0) & (cy < 0), (cx < 0) & (cy >= 0)
    if isinstance(node, ConvexDiag):
        piece[xs] = np.where(_above_clamped(node, y[xs], x[xs], sy, sx, False), _FLAT, _XSTRIP)
        piece[ys] = np.where(_above_clamped(node, x[ys], y[ys], sx, sy, True), _FLAT, _YSTRIP)
        return piece
    x_pieces, y_pieces = {
        ConvexPlateau: ((_FLAT, _XSTRIP), (_FLAT, _YSTRIP)),
        ConcaveStep: ((_XUP, _SUM), (_YUP, _SUM)),
    }[type(node)]
    piece[xs] = np.where(cmp3(x[xs], curve.beta(y[xs]), sx or sy, lay.tol) >= 0, *x_pieces)
    piece[ys] = np.where(cmp3(y[ys], curve.alpha(x[ys]), sy or sx, lay.tol) >= 0, *y_pieces)
    return piece


def _eval_reference(node, column, X, sx, sy):
    """Column ``column`` of the node's ``_eval`` on the pieces of ``classify_reference``, the batch as one region."""
    x, y = X[:, 0], X[:, 1]
    inner, (x_on, x_below), (y_on, y_below) = node._PIECES
    if isinstance(node, ConcaveStep):
        by_code = {_SUM: inner, _XUP: x_on, _YUP: y_on}
    else:
        by_code = {_INNER if isinstance(node, ConvexPlateau) else _SUM: inner, _XSTRIP: x_below, _YSTRIP: y_below}
    code = classify_reference(node, x, y, sx, sy)
    pieces = [((code == c).nonzero()[0], piece) for c, piece in by_code.items()]
    return node._eval(column, [(np.arange(len(X)), node._points(x, y), pieces)], np.empty(len(X)))


def values_reference(node, X):
    """``eval_at`` of a piecewise node with the pieces of ``classify_reference``."""
    return _eval_reference(node, 0, X, 0, 0)


def partials_reference(node, X):
    """``(left, right)`` one-sided partials of a piecewise node with the pieces of ``classify_reference``."""
    cols = [
        _eval_reference(node, column, X, sx, sy)
        for column, sx, sy in ((1, -1, 0), (2, 0, -1), (1, 1, 0), (2, 0, 1))
    ]
    left = np.where(X > 0.0, np.stack(cols[:2], axis=1), np.nan)
    return left, np.stack(cols[2:], axis=1)


def seam_place(node):
    """Where a piecewise node's seam sits: ``"interior"``, ``"(0, b)"`` or ``"(a, 0)"``."""
    lay, (a, b) = node._layout, node.curve.intercepts()
    # an endpoint seam reads -inf on its axis: every point is past it
    if (lay.t_x, lay.t_y) == (-math.inf, b):
        return "(0, b)"
    if (lay.t_x, lay.t_y) == (a, -math.inf):
        return "(a, 0)"
    # T of a curve whose end slope is 1 up to rounding may round onto an axis
    assert 0.0 <= lay.t_x <= a and 0.0 <= lay.t_y <= b, lay
    return "interior"


def assert_matches_tie_oracle(node, X):
    """``eval_at`` and ``one_sided_partials`` equal the three-way oracle's bit for bit, NaN included."""
    assert eval_at(node, X).tobytes() == values_reference(node, X).tobytes()
    g = one_sided_partials(node, X)
    left, right = partials_reference(node, X)
    assert g.left.tobytes() == left.tobytes()
    assert g.right.tobytes() == right.tobytes()


def tie_batch(node, rng, random_points=64):
    """Points of a piecewise node's box that sit on or within a few tie tolerances of its boundaries.

    The seam coordinates and intercepts, each offset by ``TIE_OFFSETS`` and
    crossed with each other and with random coordinates; points on the curve
    (``y = alpha(x)`` and ``x = beta(y)``), also offset by ``TIE_OFFSETS``;
    points past the box; and random points of the 1.5x box.
    """
    a, b = node.curve.intercepts()
    lay = node._layout
    offsets = [d * lay.tol for d in TIE_OFFSETS]
    xs = np.array([max(c + d, 0.0) for c in (max(lay.t_x, 0.0), a, 0.0) for d in offsets])
    ys = np.array([max(c + d, 0.0) for c in (max(lay.t_y, 0.0), b, 0.0) for d in offsets])
    rx = rng.uniform(0.0, 1.5 * a, random_points)
    ry = rng.uniform(0.0, 1.5 * b, random_points)
    on_x = rng.uniform(0.0, a, random_points)
    on_y = rng.uniform(0.0, b, random_points)
    parts = [
        np.array(np.meshgrid(xs, ys)).reshape(2, -1).T,
        np.column_stack([np.repeat(xs, 4), rng.uniform(0.0, 1.5 * b, 4 * xs.size)]),
        np.column_stack([rng.uniform(0.0, 1.5 * a, 4 * ys.size), np.repeat(ys, 4)]),
        *(np.column_stack([on_x, np.maximum(node.curve.alpha(on_x) + d, 0.0)]) for d in offsets),
        *(np.column_stack([np.maximum(node.curve.beta(on_y) + d, 0.0), on_y]) for d in offsets),
        np.column_stack([rx + a, ry + b]),
        np.column_stack([rx + a, ry]),
        np.column_stack([rx, ry + b]),
        np.column_stack([rx, ry]),
    ]
    return np.concatenate(parts)


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
