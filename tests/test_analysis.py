import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

import elopt.analysis as analysis
from elopt import (
    ConcaveStep,
    ConvexPlateau,
    DomainError,
    Hyperplane,
    Linear,
    QuadraticCurve,
    Scale,
    SolverError,
    TruncateMin,
    check_el,
    check_feasible,
    concave_construct,
    convex_diag,
    convex_plateau,
    cost,
    eval_at,
    gap_report,
    linear_opt,
    normal_ratio_bound,
    one_sided_partials,
)
from elopt.lp_oracle import build_lp, solve_lp
from helpers import Bilinear, hyperbola_through, property_check, sup_ratio_sampled

PROPERTY_ORDER = (
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
)


def test_truncated_linear_passes_the_suite():
    rep = check_el(TruncateMin(1.0, Linear((1.0, 2.0))), (2.0, 2.0), samples=10_000, seed=0)
    assert rep.passed
    assert tuple(p.name for p in rep.properties) == PROPERTY_ORDER


def _bits(a) -> bytes:
    a = np.asarray(a, dtype=np.float64)
    return repr(a.shape).encode() + a.tobytes()


def _run_all(exprs, points):
    """check_el reports and eval_at / one_sided_partials bytes for every expression."""
    out = []
    for expr in exprs:
        rep = check_el(expr, (1.25, 1.25), samples=3000, seed=7)
        grad = one_sided_partials(expr, points)
        out.append(
            (
                repr(rep),
                tuple(p.name for p in rep.properties),
                _bits(eval_at(expr, points)),
                _bits(grad.left),
                _bits(grad.right),
                grad.defined_left.tobytes(),
            )
        )
    return out


def test_concurrent_evaluation_matches_plain_calls(qc, qcc):
    """Shared expressions give the same bytes on four threads at once as in a plain call.

    ``check_el`` runs its properties on a thread pool of its own, so four
    concurrent callers put several times more threads than cores on the same
    expression objects, whose cached layouts are first computed under that
    contention.
    """

    def make():
        return (
            ConvexPlateau(qc),
            ConcaveStep(qcc),
            Scale(0.5, TruncateMin(1.0, Linear((1.0, 2.0)))),
        )

    shared = make()
    points = np.random.default_rng(11).uniform(0.0, 1.25, (2000, 2))
    n_threads = 4
    start = threading.Barrier(n_threads, timeout=30)
    results = [None] * n_threads

    def worker(k):
        start.wait()
        results[k] = _run_all(shared, points)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)

    reference = _run_all(make(), points)
    assert all(ref[1] == PROPERTY_ORDER for ref in reference)
    for got in results:
        assert got == reference


def test_property_task_exception_propagates(monkeypatch):
    class Boom(Exception):
        pass

    def failing(name):
        def task(*args):
            raise Boom(name)

        return task

    # two tasks fail; the first in property order is the one re-raised
    monkeypatch.setattr(analysis, "_directional_concavity", failing("directional_concavity"))
    monkeypatch.setattr(analysis, "_submodular", failing("submodular"))
    with pytest.raises(Boom, match="^submodular$"):
        check_el(Linear((1.0, 2.0)), (1.0, 1.0), samples=1000, seed=0)


def test_zero_function_passes():
    rep = check_el(Scale(0.0, Linear((3.0, 4.0))), (1.0, 1.0), samples=2000, seed=1)
    assert rep.passed


def test_product_function_fails_submodularity_with_witness():
    rep = check_el(Bilinear(), (2.0, 2.0), samples=2000, seed=3)
    assert not rep.passed
    # its partials rise with the other coordinate, which the derivative checks see too
    assert {p.name for p in rep.properties if not p.passed} == {
        "submodular", "dr_general", "directional_concavity", "derivative_monotone"
    }
    sub = property_check(rep, "submodular")
    assert not sub.passed
    assert sub.worst_violation > sub.tolerance
    # recompute the violation from the reported witness
    x, y = np.array(sub.witness[0]), np.array(sub.witness[1])
    f = lambda p: p[0] * p[1]
    recomputed = f(np.minimum(x, y)) + f(np.maximum(x, y)) - f(x) - f(y)
    assert recomputed == pytest.approx(sub.worst_violation, rel=1e-12)
    assert recomputed > 1e-7


def test_reports_are_deterministic(qc, monkeypatch):
    expr = ConvexPlateau(qc)
    a = check_el(expr, (1.5, 1.5), samples=3000, seed=42)
    b = check_el(expr, (1.5, 1.5), samples=3000, seed=42)
    assert a == b
    # the caller alone, and the caller beside two pool threads
    for cpus in (1, 3):
        monkeypatch.setattr(analysis, "_available_cpus", lambda: cpus)
        assert check_el(expr, (1.5, 1.5), samples=3000, seed=42) == a
    c = check_el(expr, (1.5, 1.5), samples=3000, seed=43)
    assert c.passed and c != a  # witnesses move with the seed


def test_reports_do_not_depend_on_the_start_order(qc, monkeypatch):
    # Tasks start in list order; reversed, the two workers run the
    # properties in other threads and in another order, and the reports
    # stay the same.
    monkeypatch.setattr(analysis, "_available_cpus", lambda: 2)
    cases = [(ConvexPlateau(qc), (1.5, 1.5)), (Bilinear(), (1.2, 1.2)), (_Rising(qc), (1.2, 1.2))]

    def reports():
        return [repr(check_el(fn, box, samples=3000, seed=5)) for fn, box in cases]

    in_order = reports()
    started = []
    run_tasks = analysis._run_tasks

    def run_reversed(tasks, order=None):
        assert order is None
        order = list(range(len(tasks)))[::-1]
        started.append(order)
        return run_tasks(tasks, order)

    monkeypatch.setattr(analysis, "_run_tasks", run_reversed)
    assert reports() == in_order
    # one task per property, in property order
    assert started == [list(range(len(PROPERTY_ORDER)))[::-1]] * len(cases)


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


def test_check_feasible_needs_a_sample(h12, qc):
    # An empty sample has no smallest jump: a typed error, not numpy's argmin error.
    for expr, surface in ((linear_opt(h12).expr, h12), (convex_plateau(qc).expr, qc)):
        for samples in (0, -1, 2.5, True, np.float64(3.0)):
            with pytest.raises(DomainError, match="at least one sample"):
                check_feasible(expr, surface, samples=samples, seed=0)
        got = check_feasible(expr, surface, samples=np.int32(7), seed=0)
        assert repr(got) == repr(check_feasible(expr, surface, samples=7, seed=0))
        # a seed is a non-negative integer too, and a numpy one is stored as an int
        for seed in (-1, 2.5, True, "1", None, np.float64(1.0)):
            with pytest.raises(DomainError, match="non-negative integer seed"):
                check_feasible(expr, surface, samples=7, seed=seed)
        got = check_feasible(expr, surface, samples=7, seed=np.uint8(3))
        assert type(got.seed) is int
        assert repr(got) == repr(check_feasible(expr, surface, samples=7, seed=3))


def test_normal_ratio_bound_hyperplane():
    bound = normal_ratio_bound(Hyperplane(c=(1.0, 4.0), M=2.0))
    assert bound.value == 4.0
    assert (bound.j, bound.i) == (1, 0)
    # the witness is the centre of the line: non-negative and on it
    assert min(bound.point) >= 0.0
    assert np.dot(bound.point, (1.0, 4.0)) == pytest.approx(2.0, abs=1e-12)


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


@pytest.mark.parametrize("cpus", [1, 2])
def test_lp_sweep_matches_the_serial_loop(qc, monkeypatch, cpus):
    # unsorted, with a repeat: solved largest first, returned in sweep order
    ms = (8, 16, 8, 12)
    monkeypatch.setattr(analysis, "_available_cpus", lambda: cpus)
    swept = analysis.lp_sweep(qc, ms)
    assert [lp.m for lp, _ in swept] == list(ms)
    for m, (_, sol) in zip(ms, swept):
        ref = solve_lp(build_lp(qc, m))
        assert (sol.value, sol.t, sol.status, sol.iterations) == (
            ref.value, ref.t, ref.status, ref.iterations
        )
        assert sol.grid.tobytes() == ref.grid.tobytes()


def test_lp_sweep_raises_the_serial_loops_first_error(qc, monkeypatch):
    def serial_error(ms):
        with pytest.raises(Exception) as caught:
            for m in ms:
                solve_lp(build_lp(qc, m))
        return type(caught.value), str(caught.value)

    monkeypatch.setattr(analysis, "_available_cpus", lambda: 2)
    # m = 3 and m = 200 both fail to build; m = 3 comes first in the sweep
    with pytest.raises(DomainError) as caught:
        analysis.lp_sweep(qc, (8, 3, 200))
    assert (DomainError, str(caught.value)) == serial_error((8, 3, 200))

    solved = []

    def failing_at_12(lp):
        solved.append(lp.m)
        if lp.m == 12:
            raise SolverError("LP status Infeasible at m=12")
        return solve_lp(lp)

    monkeypatch.setattr(analysis, "solve_lp", failing_at_12)
    # a build error is raised before any solve, even after a failing m
    with pytest.raises(DomainError, match="^need m >= 4, got 3$"):
        analysis.lp_sweep(qc, (8, 12, 3))
    assert solved == []

    # a solve error is raised after every other solve has run
    with pytest.raises(SolverError, match="^LP status Infeasible at m=12$"):
        analysis.lp_sweep(qc, (8, 12, 16))
    assert sorted(solved) == [8, 12, 16]


def test_gap_report_rejects_lp_for_higher_dimensions():
    plane = Hyperplane(c=(1.0, 2.0, 3.0), M=1.0)
    assert gap_report(plane).construction_cost == pytest.approx(3.0)
    with pytest.raises(DomainError):
        gap_report(plane, grid_m=[8])


def test_check_el_input_validation(qc):
    # only an expression node has the one-sided partials the suite checks
    for fn in (lambda p: p[0] * p[1], np.prod, None):
        with pytest.raises(DomainError, match="needs an expression node"):
            check_el(fn, (1.0, 1.0), samples=10, seed=0)
    with pytest.raises(DomainError):
        check_el(ConvexPlateau(qc), (1.0, 1.0, 1.0), samples=10, seed=0)
    for box in ((1.0, -1.0), (np.inf, 1.0), (1.0, np.nan)):
        with pytest.raises(DomainError, match="finite"):
            check_el(ConvexPlateau(qc), box, samples=10, seed=0)
    # refused before any property task starts, not by numpy or a worker
    for samples in (-3, 2.5, True, np.float64(10.0), "10"):
        with pytest.raises(DomainError, match="sample count"):
            check_el(ConvexPlateau(qc), (1.0, 1.0), samples=samples, seed=0)
    got = check_el(ConvexPlateau(qc), (1.0, 1.0), samples=np.int64(10), seed=0)
    assert repr(got) == repr(check_el(ConvexPlateau(qc), (1.0, 1.0), samples=10, seed=0))
    for seed in (-1, 2.5, True, "1", None, np.float64(1.0)):
        with pytest.raises(DomainError, match="non-negative integer seed"):
            check_el(ConvexPlateau(qc), (1.0, 1.0), samples=10, seed=seed)
    got = check_el(ConvexPlateau(qc), (1.0, 1.0), samples=10, seed=np.int64(5))
    assert type(got.seed) is int
    assert repr(got) == repr(check_el(ConvexPlateau(qc), (1.0, 1.0), samples=10, seed=5))


def _lying(factor):
    """A plateau node whose partials are ``factor`` times the true ones."""

    class Lying(ConvexPlateau):
        def _partials(self, X):
            left, right = super()._partials(X)
            return left * factor, right * factor

    return Lying


def test_derivative_suite_catches_wrong_derivatives(qc):
    # a node lying about its derivatives, grossly or by 1e-5 relative,
    # must fail the FD cross-check
    for factor in (1.5, 1.0 + 1e-5):
        rep = check_el(_lying(factor)(qc), (1.2, 1.2), samples=1500, seed=11)
        assert not property_check(rep, "fd_agreement").passed, factor


def test_derivative_checks_accept_strongly_curved_sections():
    # A correct construction on a sharply bent arc (alpha'' = -3.5): a
    # quotient compared with the derivative at one end of its step, or a
    # limit ladder read off at its last rung, misses by h |f''| / 2 and
    # failed fd_agreement here with seed 1.
    curve = QuadraticCurve(a=0.734, b=1.447, c2=-1.7672675571130532)
    rep = check_el(concave_construct(curve).expr, (1.5 * curve.a, 1.5 * curve.b), samples=2000, seed=1)
    assert rep.passed
    assert property_check(rep, "fd_agreement").worst_violation < 1e-7
    assert property_check(rep, "derivative_limits").worst_violation < 1e-9


class _Rising(ConvexPlateau):
    """Right partials raised by the swapped point: above the left ones, and rising."""

    def _partials(self, X):
        left, right = super()._partials(X)
        return left, right + X[:, ::-1]


def test_reports_do_not_depend_on_the_block_size(qc, monkeypatch):
    # Past one block each block draws its own stream, so a report's bytes
    # depend on the block size; which properties fail must not.
    cases = [
        (ConvexPlateau(qc), ()),
        (Bilinear(), ("submodular", "dr_general", "directional_concavity", "derivative_monotone")),
        (_lying(1.5)(qc), ("fd_agreement",)),
        (_lying(1.0 + 1e-5)(qc), ("fd_agreement",)),
        (_Rising(qc), ("left_at_least_right", "derivative_monotone", "fd_agreement")),
    ]
    samples = 7 * 208 + 1  # a one-row tail at block size 7

    def failed(expr, block):
        monkeypatch.setattr(analysis, "_BLOCK", block)
        rep = check_el(expr, (1.2, 1.2), samples=samples, seed=4)
        assert all(p.checked == samples for p in rep.properties[1:6])
        return {p.name for p in rep.properties if not p.passed}

    default = analysis._BLOCK
    for expr, failing in cases:
        whole = failed(expr, default)
        assert whole >= set(failing) and bool(whole) == bool(failing)
        assert failed(expr, 7) == whole


def _reference(name, fn, box, samples, seed, block):
    """``check_el``'s check of ``name``, as one ``np.argmax`` over every block's violations.

    Block 0 draws from the property's generator (child ``i`` of the seed,
    for property ``i``); block k >= 1 draws from child k of that one.
    """
    i = PROPERTY_ORDER.index(name)
    box = np.asarray(box)
    value = partial(eval_at, fn)
    viols, witnesses = [], []
    for k, lo in enumerate(range(0, samples, block)):
        gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i, k) if k else (i,)))
        rows = min(block, samples - lo)
        x = gen.random((rows, box.size)) * box
        if name == "submodular":
            y = gen.random((rows, box.size)) * box
            v = value(np.minimum(x, y)) + value(np.maximum(x, y)) - value(x) - value(y)
            w = [(tuple(a), tuple(b)) for a, b in zip(x.tolist(), y.tolist())]
        elif name == "left_at_least_right":
            grad = one_sided_partials(fn, x)
            gap = np.where(grad.defined_left, grad.right - grad.left, -np.inf)
            v = gap.max(axis=1)
            w = [(tuple(a), int(np.argmax(g))) for a, g in zip(x.tolist(), gap)]
        else:  # monotone and directional_concavity: y above x
            y = x + (box - x) * gen.random((rows, box.size))
            if name == "monotone":
                v = value(x) - value(y)
                w = [(tuple(a), tuple(b)) for a, b in zip(x.tolist(), y.tolist())]
            else:
                t = gen.random(rows)
                v = t * value(x) + (1.0 - t) * value(y) - value(t[:, None] * x + (1.0 - t[:, None]) * y)
                w = [(tuple(a), tuple(b), c) for a, b, c in zip(x.tolist(), y.tolist(), t.tolist())]
        viols.append(v)
        witnesses += w
    viols = np.concatenate(viols)
    worst = int(np.argmax(viols))
    tol = analysis.DERIV_TOL if name == "left_at_least_right" else analysis.VALUE_TOL
    return analysis.PropertyCheck(
        name, bool(viols[worst] <= tol), float(viols[worst]), tol, witnesses[worst], samples
    )


def test_planted_supermodular_function_fails_at_a_small_scale():
    # f(x) = lam g(x / lam) with g(u) = u1 + u2 + 0.05 u1 u2 is supermodular
    # at every scale; at lam = 2^-20 its worst violation, 4.1e-8, passed an
    # absolute tolerance of 1e-7.  Measured in the box's scale it fails as g does.
    def planted(lam):
        return Bilinear(k=0.05, b=1.0, lam=lam)

    lam = 2.0**-20
    unit = property_check(check_el(planted(1.0), (1.0, 1.0)), "submodular")
    small = property_check(check_el(planted(lam), (lam, lam)), "submodular")
    assert not unit.passed and not small.passed
    assert (small.worst_violation, small.tolerance) == (lam * unit.worst_violation, lam * unit.tolerance)


def test_block_size_never_changes_a_report(qc, monkeypatch):
    # At every block size a report is the reference above: its own stream
    # per block, folded as one argmax.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cases = {
        "plateau": (ConvexPlateau(qc), (1.2, 1.2)),
        "rising": (_Rising(qc), (1.2, 1.2)),
        "product": (Bilinear(), (1.2, 1.2)),
        "3-D linear": (Scale(0.8, TruncateMin(2.5, Linear((0.7, 1.3, 2.1)))), (1.1, 0.9, 1.3)),
    }
    seen = set()

    @hypothesis.settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @hypothesis.given(
        case=st.sampled_from(sorted(cases)),
        samples=st.integers(1, 3000),
        block=st.integers(2, 700),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(case, samples, block, seed):
        seen.add(case)
        fn, box = cases[case]
        monkeypatch.setattr(analysis, "_BLOCK", block)
        rep = check_el(fn, box, samples=samples, seed=seed)
        for name in ("monotone", "submodular", "directional_concavity", "left_at_least_right"):
            want = _reference(name, fn, box, samples, seed, block)
            assert property_check(rep, name) == want and repr(property_check(rep, name)) == repr(want)

    check()
    assert seen == set(cases)


def test_check_el_peak_memory_is_one_small_block(qc, monkeypatch):
    # At 65,536 rows per block this peaked at 10.7 MiB.  16,384-row blocks
    # that each draw only their own rows peak near 3 MiB, whatever the
    # sample count; a full-length coordinate draw reached 4.95 MiB at
    # 300,000 samples and 11.09 MiB at 1,200,000.
    monkeypatch.setattr(analysis, "_available_cpus", lambda: 1)
    for samples in (300_000, 1_200_000):
        tracemalloc.start()
        try:
            assert check_el(ConvexPlateau(qc), (1.5, 1.5), samples=samples, seed=0).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20, samples
