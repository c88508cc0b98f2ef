import math

import numpy as np
import pytest

from kspaces import (
    FrequencyPoint,
    Interval,
    TameFunction,
    fourier_bound_check,
    fourier_tame,
    fourier_tame_result,
    sinc_tail,
)
from kspaces.errors import EvaluationError
from kspaces.verify import random_step

J_BOX = (Interval(-0.5, 0.5),)


def rect():
    return TameFunction(1, lambda x: np.ones_like(x), J_BOX)


class TestSincTail:
    def test_all_explicit_zero(self):
        assert sinc_tail(FrequencyPoint((0.0, 0.0, 0.0)), 1) == 1.0

    def test_integer_frequency_kills_tail(self):
        assert sinc_tail(FrequencyPoint((0.0, 1.0)), 1) == pytest.approx(0.0, abs=1e-16)

    def test_half_frequency(self):
        assert sinc_tail(FrequencyPoint((0.0, 0.5)), 1) == pytest.approx(
            2.0 / math.pi, rel=1e-12
        )

    def test_no_tail_coordinates(self):
        assert sinc_tail(FrequencyPoint((3.7,)), 1) == 1.0
        assert sinc_tail(FrequencyPoint(()), 0) == 1.0

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            y = FrequencyPoint(tuple(rng.uniform(-20, 20, size=rng.integers(0, 5))))
            assert abs(sinc_tail(y, int(rng.integers(0, 3)))) <= 1.0


class TestFourierTame:
    def test_rect_at_zero(self):
        fv = fourier_tame(rect(), FrequencyPoint((0.0,)))
        assert fv.value == pytest.approx(1.0, abs=1e-12)
        assert fv.tail_factor == 1.0 and fv.head_dim == 1

    def test_rect_at_one_vanishes(self):
        fv = fourier_tame(rect(), FrequencyPoint((1.0,)))
        assert abs(fv.value) < 1e-10

    def test_rect_transform_is_sinc_on_grid(self):
        for y in np.linspace(-4, 4, 64):
            fv = fourier_tame(rect(), FrequencyPoint((float(y),)), tol=1e-12)
            assert abs(fv.value - complex(np.sinc(y))) < 1e-10

    def test_gaussian_self_transform(self):
        f = TameFunction(1, lambda x: np.exp(-np.pi * x**2), (Interval(-5, 5),))
        fv = fourier_tame(f, FrequencyPoint((0.5,)), tol=1e-8)
        assert fv.value.real == pytest.approx(math.exp(-math.pi / 4.0), abs=1e-6)
        assert fv.value.imag == pytest.approx(0.0, abs=1e-8)

    def test_tail_factor_applies_beyond_head(self):
        fv = fourier_tame(rect(), FrequencyPoint((0.0, 0.5)))
        assert fv.tail_factor == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert fv.value == pytest.approx(2.0 / math.pi, rel=1e-10)

    def test_order_two_separable(self):
        f = TameFunction(
            2, lambda x, y: np.ones_like(x * y), (Interval(-0.5, 0.5),) * 2
        )
        y = (0.5, 0.25)
        fv = fourier_tame(f, FrequencyPoint(y), tol=1e-10)
        expected = np.sinc(0.5) * np.sinc(0.25)
        assert fv.value.real == pytest.approx(float(expected), abs=1e-8)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        s1 = random_step(rng, Interval(-0.5, 0.5))
        s2 = random_step(rng, Interval(-0.5, 0.5))
        a, b = 1.7, -0.6
        combo = TameFunction(1, lambda x: a * s1(x) + b * s2(x), J_BOX)
        y = FrequencyPoint((1.234,))
        lhs = fourier_tame(combo, y).value
        rhs = (
            a * fourier_tame(TameFunction(1, s1, J_BOX), y).value
            + b * fourier_tame(TameFunction(1, s2, J_BOX), y).value
        )
        assert abs(lhs - rhs) < 1e-9

    def test_conjugate_symmetry_for_real_cores(self):
        rng = np.random.default_rng(2)
        s = random_step(rng, Interval(-0.5, 0.5))
        f = TameFunction(1, s, J_BOX)
        for y in (0.3, 1.7, 2.9):
            plus = fourier_tame(f, FrequencyPoint((y,))).value
            minus = fourier_tame(f, FrequencyPoint((-y,))).value
            assert abs(minus - plus.conjugate()) < 1e-10


def _close(a, b):
    return abs(a - b) <= 1e-14 * max(1.0, abs(b))


SCALED = TameFunction(2, lambda x, y: np.exp(x) * (y > 0.1), (Interval(0, 1), Interval(-0.5, 0.5)))
MANY_POINTS = [
    (rect(), [(0.0,), (0.5,), (-3.25,), (1.0, 0.5), (2.0, -1.5, 0.25), ()]),
    (SCALED, [(0.0, 0.0), (1.5,), (), (-2.0, 0.75), (0.3, 1.2, 0.5, -4.0)]),
    (TameFunction(1, lambda x: math.exp(-x * x), J_BOX), [(0.25,), (-1.0, 0.5)]),
]


class TestManyPoints:
    @pytest.mark.parametrize("f, points", MANY_POINTS)
    def test_one_pass_matches_one_point_calls(self, f, points):
        # more coordinates than the order exercise the sinc tail, fewer the
        # implicit zeros; the last core only takes scalars
        ys = [FrequencyPoint(c) for c in points]
        many = fourier_tame_result(f, ys, 1e-10)
        assert len(many) == len(ys)
        for y, (fv, err, evals) in zip(ys, many):
            [(one, one_err, one_evals)] = fourier_tame_result(f, [y], 1e-10)
            assert evals == one_evals
            assert _close(fv.value.real, one.value.real) and _close(fv.value.imag, one.value.imag)
            assert abs(err - one_err) <= 1e-12 * max(1.0, abs(one.value))
            assert (fv.tail_factor, fv.head_dim) == (one.tail_factor, one.head_dim)
            assert fv.tail_factor == sinc_tail(y, f.order)

    def test_empty_grid(self):
        assert fourier_tame_result(rect(), []) == []
        rep = fourier_bound_check(rect(), [])
        assert rep.passed and rep.argmax is None
        assert rep.l1_bound == pytest.approx(1.0, abs=1e-10)

    def test_bound_check_reports_the_largest_point(self):
        # a positive core has its largest transform at 0, equal to its integral
        f = TameFunction(1, np.exp, J_BOX)
        grid = [FrequencyPoint((float(v),)) for v in (1.5, 0.0, -2.5, 0.25)]
        rep = fourier_bound_check(f, iter(grid))
        assert rep.argmax is grid[1] and _close(rep.max_abs, abs(fourier_tame(f, grid[1])))
        assert rep.max_abs == pytest.approx(rep.l1_bound, abs=1e-12)

    @pytest.mark.parametrize(
        "core, message",
        [
            (lambda x, y: 1.0 / (x * y), r"non-finite at \(-0\.99\d+, 0\.0\)$"),
            (lambda x, y: math.log(x) * y, r"failed at \(-0\.99\d+, -0\.99\d+\)$"),
        ],
        ids=["non-finite", "scalar-only-raises"],
    )
    def test_bad_core_names_only_the_coordinates(self, core, message):
        # the point's frequencies and part are box parameters, not coordinates
        f = TameFunction(2, core, (Interval(-1, 1), Interval(-1, 1)))
        with pytest.raises(EvaluationError, match=message):
            fourier_tame_result(f, [FrequencyPoint((0.5, 2.0))])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_is_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FrequencyPoint((0.5, bad))


class TestBoundCheck:
    def test_rect_bound_attained_at_zero(self):
        grid = [FrequencyPoint((float(y),)) for y in np.linspace(-3, 3, 31)]
        rep = fourier_bound_check(rect(), grid)
        assert rep.passed
        assert rep.max_abs == pytest.approx(1.0, abs=1e-10)
        assert rep.l1_bound == pytest.approx(1.0, abs=1e-10)
        assert rep.argmax.coords == (0.0,)

    def test_zero_function(self):
        f = TameFunction(1, lambda x: np.zeros_like(x), J_BOX)
        rep = fourier_bound_check(f, [FrequencyPoint((0.0,))])
        assert rep.passed and rep.max_abs == 0.0

    def test_random_step_cores(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            s = random_step(rng, Interval(-0.5, 0.5))
            f = TameFunction(1, s, J_BOX)
            grid = [
                FrequencyPoint((float(v),)) for v in rng.uniform(-8, 8, size=64)
            ]
            assert fourier_bound_check(f, grid).passed
