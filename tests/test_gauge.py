import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspaces import (
    DimensionCapExceeded,
    DualityFamily,
    EvaluationError,
    Gauge,
    Interval,
    KpConfig,
    PartitionBudgetExceeded,
    TaggedPartition,
    ToleranceNotMet,
    cousin_partition,
    hk_integrate,
    hk_integrate_many,
    integrate_boxes,
    integrate_nd_result,
    is_delta_fine,
    riemann_sum,
    uniform_partition,
)
from kspaces import compile_expression, gauge, parse_expression


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    assert Interval(0, 1).width == 1.0


def test_partition_validation():
    with pytest.raises(ValueError):
        TaggedPartition(((2.0, Interval(0, 1)),))  # tag outside cell
    with pytest.raises(ValueError):
        TaggedPartition(((0.1, Interval(0, 0.4)), (0.7, Interval(0.6, 1.0))))  # gap


class TestIsDeltaFine:
    def test_wide_gauge(self):
        p = TaggedPartition(((0.5, Interval(0, 1)),))
        assert is_delta_fine(p, Gauge(lambda t: 1.0))

    def test_narrow_gauge(self):
        p = TaggedPartition(((0.5, Interval(0, 1)),))
        assert not is_delta_fine(p, Gauge(lambda t: 0.4))

    def test_uniform_midpoint_cells(self):
        # cells of width 1/4 sit inside (t - 0.2, t + 0.2) around midpoints
        p = uniform_partition(Interval(0, 1), 4, "midpoint")
        assert is_delta_fine(p, Gauge(lambda t: 0.2))


class TestCousinPartition:
    def test_single_cell(self):
        p = cousin_partition(Gauge(lambda t: 2.0), Interval(0, 1))
        assert len(p) == 1
        (tag, cell) = p.cells[0]
        assert tag == 0.0 and (cell.lo, cell.hi) == (0.0, 1.0)

    def test_constant_half_gauge_breakpoints(self):
        # oracle: simulate the greedy rule directly
        expected = []
        x = 0.0
        while x < 1.0:
            expected.append(x)
            x = min(1.0, x + 0.9 * 0.5)
        p = cousin_partition(Gauge(lambda t: 0.5), Interval(0, 1))
        assert [c.lo for _, c in p.cells] == expected
        assert len(p) == 3

    def test_variable_gauge_is_fine(self):
        g = Gauge(lambda t: max(t, 1e-3))
        p = cousin_partition(g, Interval(0, 1))
        assert is_delta_fine(p, g)

    def test_budget_exceeded(self):
        with pytest.raises(PartitionBudgetExceeded):
            cousin_partition(Gauge(lambda t: 1e-6), Interval(0, 1), max_cells=1000)


class TestRiemannSum:
    def test_constant(self):
        for n in (1, 7, 64):
            p = uniform_partition(Interval(0, 2), n, "left")
            assert riemann_sum(lambda x: 3.0, p) == pytest.approx(6.0, abs=1e-14)

    def test_midpoint_exact_for_linear(self):
        for n in (2, 5, 31, 1000):
            p = uniform_partition(Interval(0, 1), n, "midpoint")
            assert riemann_sum(lambda x: x, p) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("tags", ["right", "mid"])
    def test_unknown_tags_are_refused(self, tags):
        # any tags but "midpoint" used to give left tags: cells at 0.0 and 0.5
        with pytest.raises(ValueError, match='"midpoint" or "left"'):
            uniform_partition(Interval(0, 1), 2, tags)

    def test_single_cell_left_tag(self):
        p = TaggedPartition(((0.0, Interval(0, 1)),))
        assert riemann_sum(lambda x: x, p) == 0.0

    def test_undefined_tag(self):
        p = TaggedPartition(((0.0, Interval(0, 1)),))
        with pytest.raises(EvaluationError):
            riemann_sum(lambda x: 1.0 / x, p)


class TestHkIntegrate:
    def test_polynomial_antiderivative(self):
        r = hk_integrate(lambda x: x**2, Interval(0, 1), tol=1e-10)
        assert abs(r.value - 1.0 / 3.0) < 1e-10
        assert r.evaluations > 0

    def test_derivative_of_oscillating_primitive(self):
        # F(x) = x^2 sin(x^-2); F' is HK- but not Lebesgue-integrable.
        def fprime(x):
            return 2.0 * x * np.sin(x**-2.0) - (2.0 / x) * np.cos(x**-2.0)

        r = hk_integrate(fprime, Interval(0, 1), tol=1e-3, singular_points=[0.0])
        assert abs(r.value - math.sin(1.0)) < 1e-3
        assert r.error_estimate <= 1e-3

    def test_indicator_of_point_is_null(self):
        r = hk_integrate(
            lambda x: np.where(x == 0.5, 1.0, 0.0), Interval(0, 1), tol=1e-10
        )
        assert r.value == 0.0

    def test_interior_algebraic_singularity(self):
        def f(x):
            return 1.0 / np.sqrt(np.abs(x - 0.3))

        exact = 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))
        r = hk_integrate(f, Interval(0, 1), tol=1e-6, singular_points=[0.3])
        assert abs(r.value - exact) < 1e-6

    def test_undeclared_singularity_raises(self):
        with pytest.raises(EvaluationError):
            hk_integrate(lambda x: 1.0 / x, Interval(-1, 1), tol=1e-8)

    def test_budget_exhaustion(self):
        def f(x):
            return np.sin(1.0 / (x + 1e-9))

        with pytest.raises(ToleranceNotMet):
            hk_integrate(f, Interval(0, 1), tol=1e-12, max_evals=200)

    def test_unsettled_shells_report_their_evaluations(self, monkeypatch):
        # shell integrals of 1/sqrt(x) shrink by sqrt(2) each: four never settle
        monkeypatch.setattr(gauge, "MAX_SHELLS", 4)
        with pytest.raises(ToleranceNotMet, match="did not settle") as info:
            hk_integrate(lambda x: x**-0.5, Interval(0, 1), 1e-3, singular_points=[0])
        assert info.value.evaluations >= 4 * 15

    def test_degenerate_interval(self):
        r = hk_integrate(lambda x: x, Interval(0.5, 0.5))
        assert r.value == 0.0

    @pytest.mark.parametrize(
        "f, singular",
        [
            (lambda x: np.exp(3j * x), ()),
            (lambda x: np.exp(3j * x), (0.0,)),
            (lambda x: np.complex128(1j) * math.sin(x), ()),
        ],
        ids=["vectorized", "shells", "scalar-only"],
    )
    def test_complex_integrand_raises(self, f, singular):
        # a cast to float keeps the real part: sin(3)/3 for exp(3ix)
        with pytest.raises(EvaluationError, match="as compute_functionals does"):
            hk_integrate(f, Interval(0, 1), singular_points=singular)

    def test_linearity_on_smooth_corpus(self):
        rng = np.random.default_rng(3)
        iv = Interval(0, 1)
        for _ in range(10):
            c = rng.uniform(-2, 2, size=3)
            f = lambda x, c=c: c[0] + c[1] * np.sin(3 * x) + c[2] * x**2
            g = lambda x: np.cos(2 * x)
            a, b = rng.uniform(-3, 3, size=2)
            rf, rg = hk_integrate(f, iv, 1e-10), hk_integrate(g, iv, 1e-10)
            rc = hk_integrate(lambda x: a * f(x) + b * g(x), iv, 1e-10)
            allowed = (
                rc.error_estimate
                + abs(a) * rf.error_estimate
                + abs(b) * rg.error_estimate
                + 1e-13
            )
            assert abs(rc.value - a * rf.value - b * rg.value) <= allowed

    def test_additivity_over_adjacent_intervals(self):
        f = lambda x: np.exp(x) * np.sin(5 * x)
        whole = hk_integrate(f, Interval(0, 2), 1e-10)
        left = hk_integrate(f, Interval(0, 0.7), 1e-10)
        right = hk_integrate(f, Interval(0.7, 2), 1e-10)
        allowed = (
            whole.error_estimate + left.error_estimate + right.error_estimate + 1e-13
        )
        assert abs(whole.value - left.value - right.value) <= allowed


@settings(max_examples=40, deadline=None)
@given(
    base=st.floats(0.01, 0.5),
    amp=st.floats(0.0, 0.3),
    shrink=st.floats(0.1, 1.0),
)
def test_gauge_refinement_preserves_fineness(base, amp, shrink):
    # any partition fine for a pointwise-smaller gauge is fine for the original
    g = Gauge(lambda t: base + amp * abs(math.sin(7.0 * t)))
    finer = Gauge(lambda t: shrink * g(t))
    p = cousin_partition(finer, Interval(0, 1))
    assert is_delta_fine(p, finer)
    assert is_delta_fine(p, g)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.005, 2.0))
def test_cousin_output_always_fine(delta):
    g = Gauge(lambda t: delta)
    p = cousin_partition(g, Interval(-1, 1))
    assert is_delta_fine(p, g)


class TestIntegrateNd:
    def test_unit_volume(self):
        v = integrate_nd_result(lambda x, y: np.ones_like(x * y), [Interval(0, 1)] * 2).value
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_separable_product(self):
        v = integrate_nd_result(lambda x, y: x * y, [Interval(0, 1)] * 2, tol=1e-10).value
        assert v == pytest.approx(0.25, abs=1e-10)

    def test_gaussian_against_1d_oracle(self):
        # oracle: high-order Gauss-Legendre on each axis, squared
        xs, ws = np.polynomial.legendre.leggauss(120)
        xs, ws = 5.0 * xs, 5.0 * ws
        one_d = float(np.sum(ws * np.exp(-np.pi * xs**2)))
        expected = one_d**2
        v = integrate_nd_result(
            lambda x, y: np.exp(-np.pi * (x**2 + y**2)),
            [Interval(-5, 5)] * 2,
            tol=1e-8,
        ).value
        assert abs(v - expected) < 1e-8
        assert abs(v - 1.0) < 1e-8

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapExceeded):
            integrate_nd_result(lambda *xs: 1.0, [Interval(0, 1)] * 7)

    def test_result_reports_evaluations(self):
        r = integrate_nd_result(lambda x: x, [Interval(0, 1)])
        assert r.evaluations >= 15

    def test_complex_integrand_raises(self):
        with pytest.raises(EvaluationError, match="as compute_functionals does"):
            integrate_nd_result(lambda x, y: np.exp(1j * (x + y)), [Interval(0, 1)] * 2)


def test_two_tol_resolved_partitions_close():
    # refine midpoint Riemann sums until successive values settle below tol;
    # two partitions at that resolution agree to within twice the tolerance
    f = lambda x: np.sin(3.0 * x) + x**2
    tol = 1e-6
    iv = Interval(0, 1)
    n, prev = 8, None
    while True:
        rs = riemann_sum(f, uniform_partition(iv, n, "midpoint"))
        if prev is not None and abs(rs - prev) < tol:
            break
        prev, n = rs, 2 * n
    a = riemann_sum(f, uniform_partition(iv, n, "midpoint"))
    b = riemann_sum(f, uniform_partition(iv, 2 * n, "midpoint"))
    assert abs(a - b) <= 2.0 * tol


def _wiggle(x):
    return np.sin(50.0 * x) * np.sqrt(np.abs(x - 0.3))


def _sin_inv(x):
    # oscillates ever faster toward 0.3, so its shells need far more than
    # 1,000 evaluations; _wiggle's settle after 900
    return np.sin(1.0 / np.abs(x - 0.3))


BUDGET_CALLS = {
    "hk_integrate": lambda n: hk_integrate(_wiggle, Interval(0, 1), 1e-12, max_evals=n),
    "hk_integrate_shells": lambda n: hk_integrate(
        _sin_inv, Interval(0, 1), 1e-12, singular_points=[0.3], max_evals=n
    ),
    "hk_integrate_many": lambda n: hk_integrate_many(
        _wiggle, [0.0, 2.0], [1.0, 2.1], 1e-12, max_evals=n
    ),
    "integrate_nd_result": lambda n: integrate_nd_result(
        lambda x, y: _wiggle(x) * _wiggle(y), [Interval(0, 1)] * 2, 1e-12, max_evals=n
    ),
    "integrate_boxes": lambda n: integrate_boxes(
        lambda x, y: _wiggle(x) * _wiggle(y), [[0.0, 0.0]], [[1.0, 1.0]], 1e-12, max_evals=n
    ),
}


@pytest.mark.parametrize("name", BUDGET_CALLS)
def test_budget_error_reports_its_evaluations(name):
    with pytest.raises(ToleranceNotMet, match="budget") as info:
        BUDGET_CALLS[name](1000)
    assert info.value.evaluations >= 1000


TOL_CALLS = {
    "hk_integrate": lambda tol: hk_integrate(np.sin, Interval(0, 1), tol),
    "hk_integrate_many": lambda tol: hk_integrate_many(np.sin, [0.0], [1.0], tol),
    "integrate_nd_result": lambda tol: integrate_nd_result(np.sin, [Interval(0, 1)], tol),
    "integrate_boxes": lambda tol: integrate_boxes(
        np.sin, [[0.0], [1.0]], [[1.0], [2.0]], [1e-8, tol]
    ),
    "KpConfig": lambda tol: KpConfig(DualityFamily((Interval(0, 1),)), quad_tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
@pytest.mark.parametrize("name", TOL_CALLS)
def test_non_positive_tol_is_rejected(name, tol):
    # `not tol > 0` also refuses NaN, which `tol <= 0` let through
    with pytest.raises(ValueError, match="positive"):
        TOL_CALLS[name](tol)


def _plane(x, y):
    return np.sin(x) * y


BAD_ENDS = {
    "many-reversed": lambda: hk_integrate_many(np.sin, [0.0, 1.0], [1.0, 0.0], 1e-8),
    "many-reversed-shelled": lambda: hk_integrate_many(np.sin, [1.0], [0.0], 1e-8, [0.5]),
    "many-nan": lambda: hk_integrate_many(np.sin, [math.nan], [1.0], 1e-8),
    "many-inf": lambda: hk_integrate_many(np.sin, [0.0], [math.inf], 1e-8),
    "boxes-reversed": lambda: integrate_boxes(_plane, [[0.0, 1.0]], [[1.0, 0.5]], 1e-8),
    "boxes-nan": lambda: integrate_boxes(_plane, [[0.0, 0.0]], [[1.0, math.nan]], 1e-8),
    "boxes-inf": lambda: integrate_boxes(_plane, [[-math.inf, 0.0]], [[1.0, 1.0]], 1e-8),
}


@pytest.mark.parametrize("name", BAD_ENDS)
def test_bad_ends_are_rejected_as_by_interval(name):
    with pytest.raises(ValueError, match="finite|lo="):
        BAD_ENDS[name]()


def _scaled(a, x):
    return a * x


def _with_breakpoints(f, points):
    """``f`` as a callable whose ``breakpoints`` attribute is ``points``."""

    def g(x):
        return f(x)

    g.breakpoints = points
    return g


BAD_SHAPES = {
    "many-unequal": (lambda: hk_integrate_many(np.sin, [0, 0], [1], 1e-8), r"\(2,\) and \(1,\)"),
    "many-scalar": (lambda: hk_integrate_many(np.sin, 0.0, 1.0, 1e-8), r"1-D.*\(\) and \(\)"),
    "boxes-1d": (lambda: integrate_boxes(np.sin, [0.0], [1.0], 1e-8), r"2-D.*\(1,\) and \(1,\)"),
    "boxes-unequal": (
        lambda: integrate_boxes(_plane, [[0.0, 0.0]], [[1.0, 1.0]] * 2, 1e-8),
        r"\(1, 2\) and \(2, 2\)",
    ),
    "params-rows": (
        lambda: integrate_boxes(_scaled, [[0.0]] * 3, [[1.0]] * 3, 1e-8, params=[[1.0], [2.0]]),
        r"\(2, 1\) for 3 boxes",
    ),
    "params-1d": (
        lambda: integrate_boxes(_scaled, [[0.0]] * 2, [[1.0]] * 2, 1e-8, params=[1.0, 2.0]),
        r"\(2,\) for 2 boxes",
    ),
    "singular-2d": (
        lambda: hk_integrate_many(np.sin, [0.0], [1.0], 1e-8, [[0.5]]),
        r"shape \(1, 1\)",
    ),
    "singular-nan": (
        lambda: hk_integrate_many(np.sin, [0.0], [1.0], 1e-8, [math.nan]),
        "must be finite",
    ),
    "singular-inf": (
        lambda: hk_integrate(np.sin, Interval(0, 1), 1e-8, [0.5, -math.inf]),
        "must be finite",
    ),
    "breakpoints-nan": (
        lambda: hk_integrate(_with_breakpoints(np.sin, [0.5, math.nan]), Interval(0, 1)),
        "breakpoints must be finite",
    ),
}


@pytest.mark.parametrize("name", BAD_SHAPES)
def test_malformed_batches_are_rejected_naming_their_shapes(name):
    call, match = BAD_SHAPES[name]
    with pytest.raises(ValueError, match=match):
        call()


def test_zero_width_stays_zero():
    values, errors, evals = hk_integrate_many(np.sin, [0.5, 0.3], [0.5, 0.3], 1e-8, [0.3])
    assert values.tolist() == errors.tolist() == evals.tolist() == [0, 0]
    values, _, evals = integrate_boxes(_plane, [[0.0, 0.2]], [[1.0, 0.2]], 1e-8)
    assert values.tolist() == evals.tolist() == [0]


def test_singular_points_one_ulp_apart_leave_an_empty_side():
    # the middle of [0.3, 0.3 + ulp] rounds to its right end, so the side
    # toward that end has zero span and only empty shells
    b = math.nextafter(0.3, 1.0)
    assert gauge._segments(0.3, b, [0.3, b])[1] == (b, b)
    r = hk_integrate(lambda x: np.log(np.abs(x - 0.3)), Interval(0.3, b), 1e-10, [0.3, b])
    assert r.evaluations == 15
    assert r.value == pytest.approx((b - 0.3) * (math.log(b - 0.3) - 1.0), abs=1e-15)


# ------------------------------------------- breakpoints of 1-D integrands


def _compiled(text):
    return compile_expression(parse_expression(text), 1)


def test_jumps_anywhere_are_within_their_error_estimate():
    # GK15 samples no point within 0.43% of a panel edge, so a jump that
    # close to the edge of some panel bisection reaches went unseen: 44 of
    # these 400 positions were wrong by up to its height, with estimates
    # near 1e-14
    rng = np.random.default_rng(2020)
    for b in rng.uniform(0.0, 1.0, 400).tolist():
        r = hk_integrate(_compiled(f"(x1 <= {b!r}) + 2*(x1 > {b!r})*x1"), Interval(0, 1), 1e-10)
        assert abs(r.value - (b + 1.0 - b * b)) <= r.error_estimate


STEPS = {
    "high": ("(x1 <= 0.999)", 0.999),
    "low": ("(x1 >= 0.003)", 0.997),
    "middle": ("(x1 <= 0.501)", 0.501),
    "scaled": ("(2*x1 - 1 >= 0.002)", 0.499),
}


@pytest.mark.parametrize("text, exact", STEPS.values(), ids=STEPS)
def test_steps_past_every_node_of_the_interval_are_seen(text, exact):
    # each jump lies between the last GK15 node of [0, 1], or of a half,
    # and its edge: the parent printed 1.0 or 0.5 after 15 or 45 evaluations
    r = hk_integrate(_compiled(text), Interval(0, 1), 1e-10)
    assert abs(r.value - exact) <= r.error_estimate <= 1e-10
    assert r.evaluations == 30  # one panel on each side of the jump


def test_a_callable_may_declare_its_own_breakpoints():
    step = lambda x: np.where(x <= 0.999, 1.0, 0.0)  # noqa: E731
    assert hk_integrate(step, Interval(0, 1)).value == 1.0  # the jump unseen
    r = hk_integrate(_with_breakpoints(step, (0.999,)), Interval(0, 1))
    assert abs(r.value - 0.999) <= r.error_estimate


def test_a_comparison_inside_a_function_is_a_breakpoint():
    f = _compiled("sin(3*(x1 <= 0.999) + x1)")
    exact = math.cos(3.0) - math.cos(3.999) + math.cos(0.999) - math.cos(1.0)
    r = hk_integrate(f, Interval(0, 1), 1e-10)
    assert abs(r.value - exact) <= r.error_estimate <= 1e-10


def test_points_outside_or_on_the_ends_change_nothing():
    lo, hi = [0.0, 0.25, 0.5], [0.25, 0.5, 1.0]
    f = _compiled("exp(x1) + (x1 <= 0.25) + (x1 >= 0.5) + (x1 <= -1) + (x1 >= 2)")
    assert f.breakpoints == (-1.0, 0.25, 0.5, 2.0)
    plain = _with_breakpoints(f, ())
    for sings in ([], [0.0, 0.5]):
        got = hk_integrate_many(f, lo, hi, 1e-10, sings)
        want = hk_integrate_many(plain, lo, hi, 1e-10, sings)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_pieces_share_their_interval_tol_and_budget():
    lo, hi, tol = np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([1e-8, 1e-6])
    root, p_lo, p_hi, p_tol = gauge._pieces(lo, hi, tol, np.array([1.5, 0.75, 0.25, 0.75, 3.0]))
    assert root.tolist() == [0, 0, 0, 1, 1]
    assert p_lo.tolist() == [0.0, 0.25, 0.75, 1.0, 1.5]
    assert p_hi.tolist() == [0.25, 0.75, 1.0, 1.5, 2.0]
    assert p_tol.tolist() == [2.5e-9, 5e-9, 2.5e-9, 5e-7, 5e-7]
    # the evaluations of both pieces are charged to their one interval
    _, _, evals = hk_integrate_many(_compiled("(x1 <= 0.5)"), [0.0, 2.0], [1.0, 3.0], 1e-10)
    assert evals.tolist() == [30, 15]


def test_a_breakpoint_at_a_singular_point():
    # both pieces end at the singular point, and each integrates it in shells
    f = _compiled("(x1 <= 0.3) / sqrt(abs(x1 - 0.3)) + ln(abs(x1 - 0.3))")
    assert f.breakpoints == (0.3,)
    exact = 2.0 * math.sqrt(0.3) + 0.7 * math.log(0.7) + 0.3 * math.log(0.3) - 1.0
    r = hk_integrate(f, Interval(0, 1), 1e-10, [0.3])
    assert abs(r.value - exact) <= r.error_estimate <= 1e-10


@pytest.mark.parametrize("text, exact", STEPS.values(), ids=STEPS)
def test_one_axis_boxes_are_cut_at_their_breakpoints(text, exact):
    # the box quadrature read no breakpoints: (x1 <= 0.999) gave 1.0 after
    # 15 evaluations
    r = integrate_nd_result(_compiled(text), [Interval(0, 1)], 1e-10)
    assert abs(r.value - exact) <= r.error_estimate <= 1e-10
    assert r.evaluations == 30


def test_pieces_of_a_box_keep_its_params_tol_and_budget():
    def f(a, x):
        return a * (x <= 0.5)

    f.breakpoints = (0.5,)
    lo, hi = [[0.0], [0.0], [2.0]], [[1.0], [1.0], [3.0]]
    values, errors, evals = integrate_boxes(f, lo, hi, [1e-10, 1e-6, 1e-8], params=[[1], [3], [2]])
    assert values.tolist() == [0.5, 1.5, 0.0]
    assert (errors <= [1e-10, 1e-6, 1e-8]).all()
    assert evals.tolist() == [30, 30, 15]
    # both pieces of a box draw on its one budget: 30 evaluations exceed 20,
    # where the box without its breakpoint would take 15
    with pytest.raises(ToleranceNotMet, match="budget"):
        integrate_boxes(f, lo[:1], hi[:1], 1e-10, max_evals=20, params=[[1]])


def test_adaptive_many_over_zero_width_intervals_is_zero():
    def fn(seg, xs):
        raise AssertionError("no panel to evaluate")

    lo = hi = np.array([0.0, 0.5, 0.5])
    tol = np.full(3, 1e-8)
    assert [a.tolist() for a in gauge._adaptive_many(fn, lo, hi, tol)] == [[0, 0, 0]] * 2
    assert [a.tolist() for a in gauge._adaptive_many(fn, lo, hi, tol, True)] == [[0, 0, 0]] * 3


# --------------------------------------- vector integrands


def _stacked(parts, breakpoints=()):
    """An integrand returning the callables ``parts`` as c components on a
    trailing axis, with the given breakpoints."""

    def f(*xs):
        return np.stack(np.broadcast_arrays(*(p(*xs) for p in parts)), axis=-1)

    f.breakpoints = breakpoints
    return f


def _with(f, breakpoints):
    def g(*xs):
        return f(*xs)

    g.breakpoints = breakpoints
    return g


_CUBE_SIN = (((cmath.exp(1j) - 1.0) / 1j) ** 3).imag  # of sin(x + y + z) on [0, 1]^3
VECTOR_CASES = {
    # (components, breakpoints, lo, hi, params, exact values (m, c))
    "1-D-cut": (
        [lambda x: (x <= 0.3) * np.exp(x), lambda x: np.cos(5.0 * x)],
        (0.3,), [[0.0], [0.5]], [[1.0], [2.0]], None,
        [[math.expm1(0.3), math.sin(5.0) / 5.0], [0.0, (math.sin(10.0) - math.sin(2.5)) / 5.0]],
    ),
    "1-D-scalar-only": (
        [lambda x: math.cos(x), lambda x: math.sin(x)],
        (), [[0.0]], [[1.0]], None, [[math.sin(1.0), 1.0 - math.cos(1.0)]],
    ),
    "2-D-params": (
        [lambda a, x, y: np.exp(a * x) * np.cos(y), lambda a, x, y: x * y**2],
        (), [[0.0, 0.0]] * 2, [[1.0, 2.0]] * 2, [[1.0], [2.0]],
        [[math.expm1(a) / a * math.sin(2.0), 4.0 / 3.0] for a in (1.0, 2.0)],
    ),
    "3-D": (
        [lambda x, y, z: x * y * z, lambda x, y, z: np.sin(x + y + z)],
        (), [[0.0] * 3], [[1.0] * 3], None, [[0.125, _CUBE_SIN]],
    ),
}


@pytest.mark.parametrize("name", VECTOR_CASES)
def test_vector_integrands_share_nodes_and_match_their_scalar_calls(name):
    parts, points, lo, hi, params, exact = VECTOR_CASES[name]
    values, errors, evals = integrate_boxes(_stacked(parts, points), lo, hi, 1e-10, params=params)
    assert values.shape == errors.shape == np.shape(exact)
    scalar = [integrate_boxes(_with(p, points), lo, hi, 1e-10, params=params) for p in parts]
    for k, (v, e, n) in enumerate(scalar):
        assert (np.abs(values[:, k] - v) <= errors[:, k] + e).all()
        assert (np.abs(values[:, k] - np.array(exact)[:, k]) <= errors[:, k]).all()
        assert (errors[:, k] <= 1e-10).all()
    # one node evaluates every component: the count of one scalar call
    assert evals.tolist() == np.max([n for _, _, n in scalar], axis=0).tolist()


@pytest.mark.parametrize("name", VECTOR_CASES)
def test_a_trailing_axis_of_one_gives_the_scalar_call_bit_for_bit(name):
    parts, points, lo, hi, params, _ = VECTOR_CASES[name]
    one = integrate_boxes(_stacked(parts[:1], points), lo, hi, 1e-10, params=params)
    scalar = integrate_boxes(_with(parts[0], points), lo, hi, 1e-10, params=params)
    assert one[0].shape == one[1].shape == (len(lo), 1)
    assert one[0][:, 0].tobytes() == scalar[0].tobytes()
    assert one[1][:, 0].tobytes() == scalar[1].tobytes()
    assert one[2].tolist() == scalar[2].tolist()


def _pair(x):
    return np.stack((np.sin(x), np.cos(x)), axis=-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hk_integrate(_pair, Interval(0, 1)),
        lambda: hk_integrate(_pair, Interval(0, 1), 1e-8, [0.0]),
        lambda: hk_integrate_many(_pair, [0.0, 1.0], [1.0, 2.0], 1e-8),
        lambda: integrate_nd_result(_pair, [Interval(0, 1)]),
        lambda: integrate_nd_result(lambda x, y: _pair(x * y), [Interval(0, 1)] * 2),
    ],
    ids=["hk_integrate", "hk_integrate-shells", "hk_integrate_many", "nd-1d", "nd-2d"],
)
def test_only_integrate_boxes_takes_a_vector_integrand(call):
    # these raised EvaluationError from the elementwise fallback, naming a node
    with pytest.raises(ValueError, match="2 components.*only integrate_boxes"):
        call()


def test_a_vector_integrand_never_called_gives_scalar_zeros():
    values, errors, evals = integrate_boxes(_pair, [[0.5], [1.0]], [[0.5], [1.0]], 1e-8)
    assert values.tolist() == errors.tolist() == evals.tolist() == [0, 0]


# --------------------------------------- half-period shells of a phase


def _x2sin_derivative(x):
    return 2.0 * x * np.sin(x**-2.0) - (2.0 / x) * np.cos(x**-2.0)


def test_half_periods_are_cut_at_the_zeros_of_the_phase():
    # the left side of 0.3 for cos(3 / (x - 0.3)): cuts at 0.3 - 3 / (n pi)
    n0 = math.floor(10.0 / math.pi) + 1  # the first zero inside [0, 0.3]
    assert gauge._first_zero(-0.3, 3.0, 1.0) == n0
    shells = gauge._half_periods(0.3, -0.3, 3.0, 1.0, n0)
    cuts = [next(shells) for _ in range(4)]
    assert cuts[0][0] == 0.0  # the stretch from the far end
    for j, (lo, hi, share, cond) in enumerate(cuts):
        assert hi == pytest.approx(0.3 - 3.0 / ((n0 + j) * math.pi), rel=1e-15)
        assert j == 0 or lo == pytest.approx(0.3 - 3.0 / ((n0 + j - 1) * math.pi), rel=1e-15)
        assert share == (hi - lo) / 0.3 and cond == 0.3 / (hi - lo)
    assert [c[1] for c in cuts[:-1]] == [c[0] for c in cuts[1:]]  # adjacent


def test_a_callable_may_declare_its_own_phase():
    plain = hk_integrate(_x2sin_derivative, Interval(0, 1), 1e-3, [0.0])
    f = lambda x: _x2sin_derivative(x)  # noqa: E731
    f.phase = (0.0, 1.0, 2.0)
    r = hk_integrate(f, Interval(0, 1), 1e-10, [0.0])
    assert abs(r.value - math.sin(1.0)) <= r.error_estimate <= 1e-10
    assert r.evaluations * 1000 < plain.evaluations  # 165 against 234,960


def test_both_sides_of_an_interior_phase_point():
    # 3 times the integral of cos(u) / u^2 over [10, inf) and [30/7, inf)
    f = _compiled("cos(3/(x1-0.3))")
    assert f.phase == (0.3, 3.0, 1.0)
    r = hk_integrate(f, Interval(0, 1), 1e-10, [0.3])
    assert abs(r.value - 0.10992829118647805) <= r.error_estimate <= 1e-10
    assert r.evaluations <= 1000


@pytest.mark.parametrize(
    "text, exact",
    [
        # x - 0.3 keeps only the bits of x below those of 0.3, and the phase
        # magnifies the nodes' rounding: these were 1.1e-13 and 1.1e-13 from
        # exact with error_bounds of 2.5e-14 and 6.2e-14 (incomplete gamma,
        # mpmath, 25 digits)
        ("abs(x1-0.3)^-1.5*cos((x1-0.3)^-2)", 0.004751239046788967),
        ("abs(x1-0.3)^-1.5*cos(3*(x1-0.3)^-2)", 0.00016565738890994146),
        ("abs(x1-0.3)^-1*cos(0.2*(x1-0.3)^-0.5)", -0.5443865964985966),
    ],
)
def test_the_error_bound_holds_the_rounding_of_nodes_near_an_interior_point(text, exact):
    r = hk_integrate(_compiled(text), Interval(0.3, 0.35), 1e-10, [0.3])
    assert abs(r.value - exact) <= r.error_estimate <= 1e-10


def test_a_slow_fall_of_the_half_periods_still_ends():
    # |f| over half-period n falls like n^-0.1, a rate r = 2^-0.1 = 0.93
    # from q to 2q, under the 0.95 the shrink rule allows; the integral of
    # u^-0.1 sin u over [1, inf) (mpmath)
    r = hk_integrate(_compiled("x1^-1.9*sin(1/x1)"), Interval(0, 1), 1e-8, [0.0])
    assert abs(r.value - 0.5705037726597924) <= r.error_estimate <= 1e-8


def test_every_half_period_has_a_tol_floor():
    # the stretch before the first zero is taken alone, so every half-period's
    # tol is floored at 64 eps of |f| over the shell before it; at tol 1e-13
    # the second half-period's width share fell below GK15's rounding floor,
    # and its panels split until the 50M budget ran out
    r = hk_integrate(_compiled("sin(1/x1)/x1"), Interval(0, 1), 1e-13, [0.0])
    assert abs(r.value - 0.6247132564277136) <= r.error_estimate <= 1e-13
    assert r.evaluations <= 1000


def test_shrinks_tells_a_fall_toward_0_from_one_toward_a_floor():
    # masses[0] is the stretch before the first half-period, here n = 1
    n = np.arange(1.0, 17.0)
    assert gauge._shrinks([5.0, *(2.0 / n)], 1)
    assert gauge._shrinks([5.0, *(2.0 / np.sqrt(n))], 1)
    assert gauge._shrinks([5.0, *(2.0 / n**0.1)], 1)
    # 1 + 10 / (n pi) fell below half its largest near n = 6, which the
    # shrink rule first used took for a fall toward 0
    assert not gauge._shrinks([5.0, *(1.0 + 10.0 / (math.pi * n))], 1)
    assert not gauge._shrinks([5.0, *np.full(16, 2.0)], 1)
    assert not gauge._shrinks([5.0, *np.sqrt(n)], 1)
    assert not gauge._shrinks([5.0, *(2.0 / n[:3])], 1)  # too few to tell
    assert not gauge._shrinks([5.0, *(2.0 / n[4:])], 5)  # first 5: needs n = 20


@pytest.mark.parametrize(
    "text",
    [
        "x1^-2*sin(1/x1)",
        "x1^-2.5*sin(1/x1)",
        "x1^-3*cos(1/x1^2)",
        # a converging term on the same phase: |f| over a half-period falls,
        # but toward 1 and 2, not 0
        "x1^-3*cos(1/x1^2) + 10*x1^-1*cos(1/x1^2)",
        "(1+10*x1)*x1^-2*sin(1/x1)",
    ],
)
def test_a_phase_side_whose_swings_do_not_shrink_raises(text):
    with pytest.raises(ToleranceNotMet, match="did not shrink toward 0"):
        hk_integrate(_compiled(text), Interval(0, 1), 1e-6, [0.0])


@pytest.mark.parametrize(
    "phase",
    [
        (0.0, 1.0, -1.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (0.0, 1.0),
        (0.0, 1.0, 2.0, 3.0),
        (math.nan, 1.0, 1.0),
    ],
)
def test_a_phase_that_cannot_cut_half_periods_is_refused(phase):
    # k < 0 put the cuts past the far end, k = 0 divided by zero, and a
    # tuple of two raised TypeError
    f = lambda x: np.sin(1.0 / x)  # noqa: E731
    f.phase = phase
    with pytest.raises(ValueError, match="phase"):
        hk_integrate(f, Interval(0, 1), 1e-6, [0.0])


# ------------------------------------------------ improper integrals, exactly

_CI_1 = 0.33740392290096813466  # the cosine integral Ci(1)


def _log_step_integral(a, b):
    """Integral of ln|x - 0.3| + [x > 0.5] over [a, b]."""

    def anti(x):
        u = x - 0.3
        return (u * math.log(abs(u)) if u else 0.0) - x + max(x - 0.5, 0.0)

    return anti(b) - anti(a)


def _log_step(x):
    return np.log(np.abs(x - 0.3)) + (x > 0.5)


def _gap(x):
    # 0 on (2^-9, 2^-7]: toward 0 on [0, 1], shells 7 and 8 vanish
    return ((x > 2.0**-7) | (x <= 2.0**-9)) * 1.0


_GAP = 2.0**-7 - 2.0**-9  # the width of the gap


def _inv_sqrt_cos(x):
    return x**-0.5 + np.cos(30.0 * x)


def _log_osc(a, b, phi, c):
    """x^-a sin(b ln x + phi) + c on [0, 1], and its integral."""
    exact = (cmath.exp(1j * phi) / (1.0 - a + 1j * b)).imag + c
    return (lambda x: x**-a * np.sin(b * np.log(x) + phi) + c), exact


# name: (f, lo, hi, tol, singular points, exact value)
IMPROPER = {
    "power-0.9": (lambda x: x**-0.9, 0.0, 1.0, 1e-3, [0.0], 10.0),
    "inv-sqrt-1e-8": (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-8, [0.0], 2.0),
    "inv-sqrt-1e-10": (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-10, [0.0], 2.0),
    "log": (np.log, 0.0, 1.0, 1e-10, [0.0], -1.0),
    "log-interior": (
        lambda x: np.log(np.abs(x - 0.3)), 0.0, 1.0, 1e-10, [0.3],
        0.7 * math.log(0.7) + 0.3 * math.log(0.3) - 1.0,
    ),
    **{
        f"log-step-[{a},{b}]-{tol}": (_log_step, a, b, tol, [0.3, 0.5], _log_step_integral(a, b))
        for a, b in [(0.0, 1.0), (0.28125, 0.3125)]
        for tol in (1e-8, 3.125e-10, 1e-10)
    },
    "sin-inv": (lambda x: np.sin(1.0 / x), 0.0, 1.0, 1e-6, [0.0], math.sin(1.0) - _CI_1),
    # shrinking shells whose epsilon limit is far from their sum, which
    # lacks the part of the side inside the last shell: no divergence
    "power-0.999": (lambda x: x**-0.999, 0.0, 1.0, 1e-6, [0.0], 1000.0),
    "one-minus-half-inv-sqrt": (lambda x: 1.0 - 0.5 / np.sqrt(x), 0.0, 1.0, 1e-6, [0.0], 0.0),
    "one-minus-power-0.95": (lambda x: 1.0 - 0.1 * x**-0.95, 0.0, 1.0, 1e-10, [0.0], -1.0),
    # oscillating shells, which grow for stretches and sum to far from
    # their limit there: no divergence either
    **{
        f"log-sine-{a}-{b}-{phi:.3g}-{c}-{tol}": (f, 0.0, 1.0, tol, [0.0], exact)
        for a, b, phi, c, tol in [
            (0.9, 1.0, 0.0, 1.0, 1e-6),
            (0.9, 1.0, 0.0, 1.0, 1e-10),
            (0.8, 1.0, 0.0, 1.0, 1e-6),
            (0.95, 0.3, math.pi / 3, 1.0, 1e-6),
            (0.9, 1.0, math.pi / 2, 1.0, 1e-6),
            (0.9, 0.05, math.pi / 6, -1.0, 1e-6),
        ]
        for f, exact in [_log_osc(a, b, phi, c)]
    },
    # shells 0-5 follow a geometric series, whose limit the epsilon
    # algorithm takes at six sums, before the gap shows in shells 7 and 8
    "gap": (_gap, 0.0, 1.0, 1e-3, [0.0], 1.0 - _GAP),
    "gap-1.1": (lambda x: 1.1 * _gap(x), 0.0, 1.0, 1e-6, [0.0], 1.1 * (1.0 - _GAP)),
    "inv-sqrt-gap": (
        lambda x: _gap(x) / np.sqrt(x), 0.0, 1.0, 1e-3, [0.0],
        2.0 - 2.0 * (2.0**-3.5 - 2.0**-4.5),
    ),
    # tols whose shell shares fall below the shells' rounding floor
    **{
        f"inv-sqrt-cos-{tol}": (_inv_sqrt_cos, 0.0, 1.0, tol, [0.0], 2.0 + math.sin(30.0) / 30.0)
        for tol in (1e-11, 1e-12, 1e-13)
    },
    "log-squared-1e-12": (lambda x: np.log(x) ** 2, 0.0, 1.0, 1e-12, [0.0], 2.0),
}


@pytest.mark.parametrize("f, lo, hi, tol, sings, exact", IMPROPER.values(), ids=IMPROPER)
def test_improper_integrals_are_within_their_error_bound(f, lo, hi, tol, sings, exact):
    r = hk_integrate(f, Interval(lo, hi), tol, singular_points=sings)
    assert abs(r.value - exact) <= r.error_estimate <= tol


def test_interior_log_leaf_costs_the_same_at_every_tol():
    # the Cauchy rule alone took 945, 91,080 and 168,585 evaluations
    evals = [
        hk_integrate(_log_step, Interval(0.28125, 0.3125), tol, [0.3, 0.5]).evaluations
        for tol in (1e-8, 3.125e-10, 1e-10)
    ]
    assert evals == [360] * 3


def test_shell_tols_stop_at_the_rounding_floor():
    # each shell's share of tol halves with its width; floored at 64 eps of
    # the side's last shell, the tightest tols cost a few hundred more
    # evaluations instead of bisecting to the width floor
    evals = [
        hk_integrate(_inv_sqrt_cos, Interval(0, 1), tol, [0.0]).evaluations
        for tol in (1e-10, 1e-11, 1e-12, 1e-13)
    ]
    assert evals == [525, 705, 915, 1_200]


def test_oscillatory_shells_end_by_the_cauchy_rule():
    # sin(1/x)'s epsilon abserr does not fall within cauchy_tol before the
    # Cauchy rule ends its side, so it takes the shells it took without it;
    # with unresolved shell panels halved rather than quartered, 82,260
    r = hk_integrate(lambda x: np.sin(1.0 / x), Interval(0, 1), 1e-6, singular_points=[0.0])
    assert r.evaluations == 63_660


DIVERGENT = {
    "inv-square": (lambda x: 1.0 / x**2, 0.0, 1e-6),
    # at tol 1e-10 the step after the hold ran out of budget instead
    "inv-square-1e-10": (lambda x: 1.0 / x**2, 0.0, 1e-10),
    "inv-power-1.5": (lambda x: x**-1.5, 0.0, 1e-6),
    "one-minus-inv-square": (lambda x: -1.0 / x**2 + 1.0, 0.0, 1e-6),
    "interior-inv-square": (lambda x: 1.0 / (x - 0.3) ** 2, 0.3, 1e-6),
    "interior-inv-power-1.5": (lambda x: 1.0 / np.abs(x - 0.3) ** 1.5, 0.3, 1e-8),
}


@pytest.mark.parametrize("f, s, tol", DIVERGENT.values(), ids=DIVERGENT)
def test_divergent_integrals_raise(f, s, tol):
    # shells that double or grow by 2^0.5 extrapolate to the anti-limit of
    # their series (-1 for 1 + 2 + 4 + ...), which held over a step as a
    # limit and was printed with an error bound near 1e-9
    with pytest.raises(ToleranceNotMet, match="the integral probably diverges") as info:
        hk_integrate(f, Interval(0, 1), tol, singular_points=[s])
    assert f"singular point {s} " in str(info.value)
    assert info.value.evaluations > 0
    assert abs(info.value.value) > 10.0  # the sum of the shells, not the anti-limit


REACHED = {
    "at-one": (lambda x: 1.0 / (x - 1.0), 1.0, "1.0"),
    "at-zero": (lambda x: 1.0 / x, 0.0, "2.79322509210258e-309"),
}


@pytest.mark.parametrize("f, s, x", REACHED.values(), ids=REACHED)
def test_a_side_that_reaches_its_singular_point_names_it(f, s, x):
    # the shells of these log divergences are all ln 2: they neither settle
    # nor grow, and went on until the integrand was non-finite at 1, where
    # the inner end of shell [1 - 2^-53, 1] rounds, or where 1/x overflows,
    # which raised EvaluationError telling to declare the declared point
    message = f"near singular point {s} did not settle before the integrand became non-finite at x={x}$"
    with pytest.raises(ToleranceNotMet, match=message) as info:
        hk_integrate(f, Interval(0, 1), 1e-10, [s])
    assert info.value.evaluations > 0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: every dyadic shell integrates to 0, so the Cauchy rule ends the side",
)
@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-10])
def test_a_swing_that_every_dyadic_shell_cancels_raises(tol):
    # the integral over [eps, 1] is -ln 2 sin(pi log2 eps) / pi, which swings
    # by +-0.2206 as eps -> 0 and has no limit; the side returned about 1e-16
    # with an error_estimate near tol / 4
    with pytest.raises(ToleranceNotMet):
        hk_integrate(lambda x: np.cos(np.pi * np.log2(x)) / x, Interval(0, 1), tol, [0.0])


def test_a_non_finite_value_at_a_side_s_first_step_is_an_evaluation_error():
    # the first shells of the side at 0 hold 0.3, which may be a point not declared
    with pytest.raises(EvaluationError, match="declare the point"):
        hk_integrate(lambda x: np.log(x - 0.3), Interval(0, 1), 1e-10, [0.0])


def test_divergence_test_spares_cancelling_shells():
    assert gauge._diverges(-1.0, 511.0, 511.0)  # the anti-limit of 1 + 2 + ...
    assert gauge._diverges(1.0, 0.0, 0.5)  # an infinite ratio
    assert not gauge._diverges(2.0, 1.99, 1.99)
    # limit and sum of the other sign, both within 1% of the moduli
    assert not gauge._diverges(1e-3, -1e-3, 1.0)
    assert gauge._diverges(0.1, -0.1, 1.0)


def test_divergence_needs_six_shells_that_grow_and_recede():
    doubling = [2.0**k for k in range(9)]  # 1 + 2 + 4 + ..., anti-limit -1
    halving = [2.0**-k for k in range(9)]  # 1 + 1/2 + ..., limit 2
    assert gauge._recedes(doubling, -1.0, sum(doubling))
    assert not gauge._recedes(doubling[:5], -1.0, sum(doubling[:5]))  # five shells
    assert not gauge._recedes(doubling, 1e3, sum(doubling))  # growing toward the limit
    assert not gauge._recedes(halving, -1.0, sum(halving))  # shrinking away from it
    assert not gauge._recedes(halving, 2.0, sum(halving))
    # larger than the shell before, but stepping toward the limit
    back = doubling[:5] + [-(2.0**5)] + doubling[6:]
    assert not gauge._recedes(back, -1.0, sum(back))


def _x2sin_derivative(x):
    return 2.0 * x * np.sin(x**-2) - (2.0 / x) * np.cos(x**-2)


def test_shell_panels_are_halves_or_quarters_on_the_dyadic_grid():
    # Toward 0 on [0, 1], shell m is [2^-(m+1), 2^-m], of width w = 2^-(m+1).
    # Each panel is read back from its nodes: node 7 is its center, and the
    # outer nodes give its width, w / 2^d at depth d.  Its center must be
    # w + (2j + 1) w / 2^(d+1) exactly, and its parent or grandparent must
    # have been evaluated: GK15-unresolved panels are quartered, so some
    # parents never are.
    rows = []

    def f(x):
        rows.append(x.copy())
        return _x2sin_derivative(x)

    hk_integrate(f, Interval(0, 1), 1e-3, singular_points=[0.0])
    xs = np.concatenate(rows)
    centers = xs[:, 7]
    widths = (xs[:, -1] - xs[:, 0]) / gauge.kernels.GK15_NODES[-1]
    m = np.floor(-np.log2(centers))
    w = 2.0**-(m + 1)
    depth = np.log2(w / widths)
    d = np.round(depth)
    assert np.abs(depth - d).max() < 1e-6
    k = (centers - w) * 2.0 ** (d + 1) / w  # exact: 2j + 1
    assert (k == np.round(k)).all() and (k % 2 == 1).all() and (k < 2.0 ** (d + 1)).all()
    seen = set(zip(m.tolist(), d.tolist(), ((k - 1) // 2).tolist()))
    orphans = 0
    for shell, dep, j in seen:
        if dep and (shell, dep - 1, j // 2) not in seen:
            orphans += 1
            assert (shell, dep - 2, j // 4) in seen
    assert orphans > 0


def test_box_axes_only_bisect():
    # every inner integral misses the jump at x2 = 1 - x1, so the outer
    # panels stay unresolved: quartered, the outer axis cost 21,532,485
    r = integrate_nd_result(lambda x, y: (x + y <= 1.0) * 1.0, [Interval(0, 1)] * 2, 1e-6)
    assert r.evaluations == 165_915


def _x_a_sin_x_b_derivative(a, b):
    """d/dx [x^a sin(x^-b)], whose integral over [0, 1] is sin 1 for a > 0."""
    return lambda x: a * x ** (a - 1) * np.sin(x**-b) - b * x ** (a - b - 1) * np.cos(x**-b)


# (a, b, tol): evaluations, for every case of a in {1, 1.5, 2, 3},
# b in {0.5, 1, 2} and tol in {1e-3, 1e-5, 1e-7} that converges within 10^6
X_A_SIN_X_B = {
    (1, 0.5, 1e-3): 375, (1, 0.5, 1e-5): 6_765, (1, 0.5, 1e-7): 56_130,
    (1, 1, 1e-3): 33_345,
    (1.5, 0.5, 1e-3): 195, (1.5, 0.5, 1e-5): 960, (1.5, 0.5, 1e-7): 4_050,
    (1.5, 1, 1e-3): 13_890, (1.5, 1, 1e-5): 35_145,
    (2, 0.5, 1e-3): 150, (2, 0.5, 1e-5): 345, (2, 0.5, 1e-7): 960,
    (2, 1, 1e-3): 1_635, (2, 1, 1e-5): 14_460, (2, 1, 1e-7): 144_405,
    (2, 2, 1e-3): 234_960,
    (3, 0.5, 1e-3): 105, (3, 0.5, 1e-5): 150, (3, 0.5, 1e-7): 195,
    (3, 1, 1e-3): 375, (3, 1, 1e-5): 2_760, (3, 1, 1e-7): 13_200,
    (3, 2, 1e-3): 50_265, (3, 2, 1e-5): 927_075,
}


@pytest.mark.parametrize("a, b, tol", X_A_SIN_X_B, ids=[str(c) for c in X_A_SIN_X_B])
def test_x_a_sin_x_b_derivatives_integrate_to_sin_1(a, b, tol):
    r = hk_integrate(_x_a_sin_x_b_derivative(a, b), Interval(0, 1), tol, [0.0])
    assert abs(r.value - math.sin(1.0)) <= r.error_estimate <= tol
    assert r.evaluations == X_A_SIN_X_B[a, b, tol]


def _wynn(sums):
    """The last (limit, abserr) of the epsilon algorithm fed ``sums``."""
    w, prev = gauge._Wynn(), 0.0
    for s in sums:
        out = w.add(s - prev)
        prev = s
    return out


def test_epsilon_algorithm_sums_a_geometric_series_from_three_terms():
    limit, abserr = _wynn([1.0, 1.5, 1.75])
    assert limit == 2.0 and abserr == gauge._BIG  # no error estimate yet


def test_epsilon_algorithm_bounds_its_error_on_an_alternating_series():
    # partial sums of 1 - 1/2 + 1/3 - ... converge to ln 2 like 1/n
    sums = np.cumsum([(-1) ** k / (k + 1) for k in range(20)])
    limit, abserr = _wynn(sums.tolist())
    assert abs(limit - math.log(2.0)) <= abserr < 1e-12
    assert abs(sums[-1] - math.log(2.0)) > 0.02


def test_epsilon_table_keeps_at_most_limexp_sums():
    w = gauge._Wynn()
    sizes = []
    for k in range(300):  # a geometric series
        limit, abserr = w.add(0.99**k)
        sizes.append(w.n)
    assert max(sizes) == gauge._Wynn.LIMEXP
    assert abs(limit - 100.0) <= abserr < 1e-10


def _textbook_results(sums):
    """qelg's result for each prefix of ``sums`` from three sums on, from
    the full epsilon table (Wynn 1956) rather than qelg's one diagonal:
    eps_-1 = 0, eps_0 = the sums, eps_k+1[j] = eps_k-1[j + 1] +
    1 / (eps_k[j + 1] - eps_k[j]).  Of the entries of the even columns
    eps_2i that the newest sum adds, qelg takes the last with the least
    |e2 - e1| + |new - e2| + |e1 - e0|, where e0, e1, e2 are the three
    newest entries of eps_2i-2."""
    results = []
    for m in range(3, len(sums) + 1):
        cols = [[0.0] * (m + 1), list(sums[:m])]  # eps_-1, eps_0, eps_1, ...
        while len(cols[-1]) > 1:
            a, b = cols[-2], cols[-1]
            cols.append([a[j + 1] + 1.0 / (b[j + 1] - b[j]) for j in range(len(b) - 1)])
        result, least = sums[m - 1], math.inf
        for i in range(1, (m - 1) // 2 + 1):
            e0, e1, e2 = cols[2 * i - 1][-3:]
            new = cols[2 * i + 1][-1]
            error = abs(e2 - e1) + abs(new - e2) + abs(e1 - e0)
            if error <= least:
                result, least = new, error
        results.append(result)
    return results


def _log_shell(k):
    """Integral of ln x over [2^-(k+1), 2^-k]."""
    a, b = 2.0 ** -(k + 1), 2.0**-k
    return (b * math.log(b) - b) - (a * math.log(a) - a)


# shells whose partial sums qelg extrapolates without cutting its table
TEXTBOOK = {
    "alternating": [(-1) ** k / (k + 1) for k in range(19)],
    "power-0.9": [10.0 * (2.0 ** (-0.1 * k) - 2.0 ** (-0.1 * (k + 1))) for k in range(15)],
    "power-0.9-and-log": [
        10.0 * (2.0 ** (-0.1 * k) - 2.0 ** (-0.1 * (k + 1))) + _log_shell(k) for k in range(18)
    ],
}


@pytest.mark.parametrize("shells", TEXTBOOK.values(), ids=TEXTBOOK)
def test_epsilon_algorithm_matches_the_full_epsilon_table(shells):
    want = _textbook_results(np.cumsum(shells).tolist())
    w = gauge._Wynn()
    w.add(shells[0])
    w.add(shells[1])
    for m in range(3, len(shells) + 1):
        limit, abserr = w.add(shells[m - 1])
        assert w.n == m  # the table kept every sum
        result = want[m - 3]
        assert limit == pytest.approx(result, rel=1e-11)
        # from the fourth result on, its distances from the three before it
        spread = sum(abs(result - r) for r in want[max(m - 6, 0) : m - 3]) if m >= 6 else gauge._BIG
        spread = max(spread, 5.0 * gauge._EPS * abs(result))
        assert abserr == pytest.approx(spread, rel=1e-9, abs=1e-11 * abs(result))


# Exact evaluation counts, which no change to the engine's bookkeeping may
# move: each is fixed by the adaptive decisions alone.
COUNTS = {
    "step-high": ("(x1 <= 0.999)", 1e-10, [], 30),
    "step-low": ("(x1 >= 0.003)", 1e-10, [], 30),
    "x2sin-derivative": ("2*x1*sin(1/x1^2) - (2/x1)*cos(1/x1^2)", 3e-4, [0.0], 105),
    "power-0.9": ("x1^(-0.9)", 1e-3, [0.0], 135),
    "inv-sqrt": ("1/sqrt(x1)", 1e-8, [0.0], 135),
    "log": ("ln(x1)", 1e-10, [0.0], 180),
    "sin-inv-over-x": ("sin(1/x1)/x1", 1e-4, [0.0], 225),
    "sin-inv": ("sin(1/x1)", 1e-6, [0.0], 270),
    "log-interior": ("ln(abs(x1-0.3))", 1e-10, [0.3], 360),
}


@pytest.mark.parametrize("name", COUNTS)
def test_evaluation_counts_are_pinned(name):
    text, tol, sings, want = COUNTS[name]
    f = compile_expression(parse_expression(text), 1)
    assert hk_integrate(f, Interval(0, 1), tol, sings).evaluations == want


def _flat_past_0(*xs):
    """exp(1e4 x) capped at 1: it overflows at the nodes past x = 0.071 and
    underflows to 0 at those below -0.075.  Its integral over [-1, 1] is
    1 + 1e-4, and the engine may miss the 1e-4, which lies within 1e-3 of
    0; only warnings are tested."""
    return np.minimum(np.exp(1e4 * xs[-1]), 1.0)


def test_no_runtime_warning_escapes_the_engine():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = hk_integrate(_flat_past_0, Interval(-1, 1), 1e-6).value
        assert value == pytest.approx(1.0, abs=2e-4)
        values, _, _ = hk_integrate_many(_flat_past_0, [-1.0, 0.0], [1.0, 1.0], 1e-6, [0.0])
        assert values == pytest.approx([1.0, 1.0], abs=2e-4)
        values, _, _ = integrate_boxes(_flat_past_0, [[0.0, -1.0]], [[1.0, 1.0]], 1e-6)
        assert values == pytest.approx([1.0], abs=2e-4)
        for rows in (np.zeros((3, 15)), np.ones((3, 15))):
            gauge.kernels.gk15_batch(rows, np.full(3, 0.5))
