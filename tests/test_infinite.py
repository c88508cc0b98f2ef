import math

import numpy as np
import pytest

from kspaces import (
    Interval,
    NotCauchy,
    TailFamily,
    TailMeasureConfig,
    TameFunction,
    integrate_limit,
    integrate_tame,
)

UNIT = (Interval(0.0, 1.0),)


def const_one(x):
    return np.ones_like(x)


class TestIntegrateTame:
    def test_canonical_indicator(self):
        f = TameFunction(1, const_one, UNIT)
        assert integrate_tame(f, TailMeasureConfig()) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_tail_factor(self):
        f = TameFunction(1, const_one, UNIT)
        cfg = TailMeasureConfig(TailFamily.SCALED_J)
        assert integrate_tame(f, cfg) == pytest.approx(1.0 / math.log(2.0), abs=1e-12)

    def test_order_two_product_indicator(self):
        f = TameFunction(2, lambda x, y: np.ones_like(x * y), UNIT + UNIT)
        assert integrate_tame(f, TailMeasureConfig()) == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_scaled_drops_factor(self):
        f = TameFunction(1, const_one, UNIT)
        cfg = TailMeasureConfig(TailFamily.SCALED_J, normalized=False)
        assert integrate_tame(f, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_order_promotion_invariance_canonical(self):
        # re-expressing order n as order n+1 with a full-J coordinate leaves
        # the integral unchanged
        core = lambda x: np.sin(3.0 * x) + x**2
        f1 = TameFunction(1, core, UNIT)
        f2 = TameFunction(
            2, lambda x, y: core(x) * np.ones_like(y), UNIT + (Interval(-0.5, 0.5),)
        )
        cfg = TailMeasureConfig()
        assert integrate_tame(f2, cfg) == pytest.approx(
            integrate_tame(f1, cfg), abs=1e-8
        )

    def test_log_space_tail_product_no_underflow(self):
        cfg = TailMeasureConfig(TailFamily.SCALED_J)
        # naive product of 400 factors underflows; log-space must not
        p = cfg.tail_product(400)
        assert p > 0.0
        expected_log = -math.fsum(
            math.log(math.log(i + 1)) for i in range(1, 401)
        )
        assert math.log(p) == pytest.approx(expected_log, rel=1e-12)


class TestIntegrateLimit:
    def test_constant_sequence_settles_at_three_terms(self):
        seq = (TameFunction(1, const_one, UNIT) for _ in range(10))
        rep = integrate_limit(seq, TailMeasureConfig(), tol=1e-8)
        assert rep.converged
        assert len(rep.terms) == 3
        assert rep.value == pytest.approx(1.0, abs=1e-10)

    def test_growing_support_converges(self):
        def seq():
            for n in range(1, 400):
                box = (Interval(0.0, 1.0 - 1.0 / n),) if n > 1 else (Interval(0.0, 0.0),)
                yield TameFunction(1, const_one, box)

        tol = 1e-3
        rep = integrate_limit(seq(), TailMeasureConfig(), tol=tol, max_n=399)
        assert rep.converged
        # the Cauchy rule stops once differences ~1/n^2 < tol, leaving a
        # ~sqrt(tol) gap to the limit
        assert abs(rep.value - 1.0) <= 2.0 * math.sqrt(tol)

    def test_alternating_sequence_not_cauchy(self):
        def seq():
            for n in range(1, 50):
                sign = -1.0 if n % 2 else 1.0
                yield TameFunction(1, lambda x, s=sign: s * np.ones_like(x), UNIT)

        with pytest.raises(NotCauchy) as err:
            integrate_limit(seq(), TailMeasureConfig(), tol=1e-6, max_n=20)
        assert err.value.report is not None
        assert not err.value.report.converged
        assert len(err.value.report.terms) == 20

    def test_consistency_with_integrate_tame(self):
        f = TameFunction(1, lambda x: x**2, UNIT)
        cfg = TailMeasureConfig()
        rep = integrate_limit((f for _ in range(5)), cfg, tol=1e-10)
        assert rep.value == integrate_tame(f, cfg)

    def test_monotone_sequences_have_monotone_partials(self):
        def seq():
            for n in range(1, 12):
                yield TameFunction(
                    1, lambda x, n=n: x ** (1.0 / n), UNIT
                )  # pointwise increasing on [0,1]

        try:
            rep = integrate_limit(seq(), TailMeasureConfig(), tol=1e-9, max_n=11)
            values = [v for _, v in rep.terms]
        except NotCauchy as err:
            values = [v for _, v in err.report.terms]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_decreasing_order_rejected(self):
        def seq():
            yield TameFunction(2, lambda x, y: np.ones_like(x * y), UNIT + UNIT)
            yield TameFunction(1, const_one, UNIT)

        with pytest.raises(ValueError):
            integrate_limit(seq(), TailMeasureConfig(), tol=1e-6)
