import math

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
from kspaces import gauge


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
        with pytest.raises(EvaluationError, match="complex_valued=True"):
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
        with pytest.raises(EvaluationError, match="complex_valued=True"):
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


BUDGET_CALLS = {
    "hk_integrate": lambda n: hk_integrate(_wiggle, Interval(0, 1), 1e-12, max_evals=n),
    "hk_integrate_shells": lambda n: hk_integrate(
        _wiggle, Interval(0, 1), 1e-12, singular_points=[0.3], max_evals=n
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
