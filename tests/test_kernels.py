import math

import numpy as np
import pytest

from kspaces import (
    DualityFamily,
    Interval,
    KpConfig,
    compute_functionals,
    hk_integrate,
    integrate_nd_result,
    kernels,
)


def test_neumaier_sum_is_fsum():
    # bit for bit: math.fsum is exactly rounded, whatever the input type
    rng = np.random.default_rng(1)
    xs = rng.normal(size=50_000) * 10.0 ** rng.integers(-10, 10, size=50_000)
    assert kernels.neumaier_sum(xs) == math.fsum(xs)
    as_list = xs[:1000].tolist()
    assert kernels.neumaier_sum(as_list) == math.fsum(as_list)
    as_f32 = xs[:1000].astype(np.float32)
    assert kernels.neumaier_sum(as_f32) == math.fsum(as_f32.astype(np.float64))


def test_neumaier_cancellation():
    # plain summation loses these; an exactly rounded sum must not
    xs = np.array([1e16, 1.0, -1e16, 1.0] * 100)
    assert kernels.neumaier_sum(xs) == 200.0


def test_neumaier_empty():
    assert kernels.neumaier_sum(np.array([])) == 0.0


def test_gk15_exact_on_polynomials():
    # Kronrod-15 integrates degree <= 22 exactly; check x^8 on [0, 1]
    nodes = 0.5 + 0.5 * kernels.GK15_NODES
    fv = (nodes**8)[None, :]
    val, err = kernels.gk15_batch(fv, np.array([0.5]))
    assert abs(val[0] - 1.0 / 9.0) < 1e-15
    assert err[0] < 1e-14


def test_gk15_error_estimate_flags_rough_panels():
    # a jump inside the panel must produce a large error estimate
    xs = 0.5 + 0.5 * kernels.GK15_NODES
    fv = np.where(xs > 0.31, 1.0, 0.0)[None, :]
    _, err = kernels.gk15_batch(fv, np.array([0.5]))
    assert err[0] > 1e-3


# Each integrand needs bisection somewhere, so some interval sums more than
# one panel.
KERNEL_CALLERS = {
    "hk_integrate_singular": lambda: hk_integrate(
        lambda x: 1.0 / np.sqrt(np.abs(x - 0.3)), Interval(0, 1), tol=1e-6,
        singular_points=[0.3],
    ),
    "integrate_nd_result_2d": lambda: integrate_nd_result(
        lambda x, y: np.sqrt(x * y), [Interval(0, 1), Interval(0, 2)], 1e-8
    ),
    "compute_functionals_k8": lambda: compute_functionals(
        lambda x: np.sin(3.0 * x) * (x > 0.37),
        KpConfig(DualityFamily((Interval(0, 1),)), truncation=8),
    ),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CALLERS))
def test_kernels_reached_through_module_attributes(name, monkeypatch):
    # The benchmark's tracer times the kernels by replacing these two module
    # attributes; a caller that bound them by name at import would bypass it.
    calls = {"gk15_batch": 0, "neumaier_sum": 0}
    for attr in calls:
        inner = getattr(kernels, attr)

        def counting(*args, _attr=attr, _inner=inner):
            calls[_attr] += 1
            return _inner(*args)

        monkeypatch.setattr(kernels, attr, counting)
    KERNEL_CALLERS[name]()
    assert calls["gk15_batch"] > 0
    assert calls["neumaier_sum"] > 0
