import math

import numpy as np
import pytest

from kspaces import cells
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
    val, err, _, _ = kernels.gk15_batch(fv, np.array([0.5]))
    assert abs(val[0] - 1.0 / 9.0) < 1e-15
    assert err[0] < 1e-14


def test_gk15_error_estimate_flags_rough_panels():
    # a jump inside the panel must produce a large error estimate
    xs = 0.5 + 0.5 * kernels.GK15_NODES
    fv = np.where(xs > 0.31, 1.0, 0.0)[None, :]
    _, err, _, _ = kernels.gk15_batch(fv, np.array([0.5]))
    assert err[0] > 1e-3


def test_gk15_integral_of_the_modulus_on_request():
    # the fourth result is the Kronrod integral of |f|, resabs times the
    # halfwidth: for sin on [0, 2 pi], near 4 where the integral is 0
    xs = np.pi + np.pi * kernels.GK15_NODES
    fv = np.sin(xs)[None, :]
    mass = kernels.gk15_batch(fv, np.array([np.pi]))[3]
    assert mass[0] == kernels.gk15_batch(np.abs(fv), np.array([np.pi]))[0][0]
    assert abs(mass[0] - 4.0) < 0.1  # one panel across the kink of |sin| at pi


@pytest.mark.parametrize("m, c", [(1, 1), (5, 2), (40, 3)])
def test_gk15_components_are_rows_of_one_matrix(m, c):
    # panel i's component k is row i c + k of the scalar call, bit for bit
    rng = np.random.default_rng(m * c)
    fv = rng.standard_normal((m, 15, c)) * np.where(rng.random((m, 1, c)) < 0.3, 0.0, 1.0)
    halfwidths = rng.uniform(0.0, 2.0, m)
    got = kernels.gk15_batch(fv, halfwidths)
    rows = kernels.gk15_batch(fv.transpose(0, 2, 1).reshape(m * c, 15), np.repeat(halfwidths, c))
    for a, b in zip(got, rows):
        assert a.shape == (m, c)
        assert a.tobytes() == b.reshape(m, c).tobytes()


def _unresolved(f, scale=1.0):
    xs = 0.5 + 0.5 * kernels.GK15_NODES  # one panel on [0, 1]
    return kernels.gk15_batch(scale * f(xs)[None, :], np.array([0.5]))[2][0]


UNRESOLVED = {  # integrand on [0, 1]: whether GK15 leaves its panel unresolved
    "sin(200x)": (lambda x: np.sin(200.0 * x), True),
    "cubic": (lambda x: 2.0 * x**3 - x + 0.25, False),
    "constant": (lambda x: np.full_like(x, 3.0), False),
}


@pytest.mark.parametrize("name", UNRESOLVED)
def test_gk15_flags_panels_it_cannot_resolve(name):
    f, want = UNRESOLVED[name]
    assert _unresolved(f) == want
    # a power-of-two scale scales both sides of the test exactly, which is
    # what keeps the benchmark's seed-scaled integrands at one cost
    for j in (-60, -7, 1, 9, 60):
        assert _unresolved(f, 2.0**j) == want, j


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


def test_neumaier_sum_leaves_zeros_out_unchanged():
    # zeros cannot change a sum with other terms; an array of them only
    # sums as math.fsum sums it, signed zero included
    rng = np.random.default_rng(3)
    xs = rng.normal(size=20_000) * 10.0 ** rng.integers(-10, 10, size=20_000)
    xs[rng.random(20_000) < 0.9] = 0.0
    xs[::7] = -0.0
    assert kernels.neumaier_sum(xs) == math.fsum(xs.tolist())
    zeros = np.array([-0.0, -0.0])
    sign = math.copysign(1.0, math.fsum(zeros.tolist()))
    assert math.copysign(1.0, kernels.neumaier_sum(zeros)) == sign
    assert kernels.neumaier_sum(np.zeros(0)) == 0.0


# --------------------------------------------------- panel interpolants

def _legendre_reference(poly, m):
    """Integrals of ``poly`` over the 2^m equal cells of [-1, 1], each by an
    8-point Gauss-Legendre rule of its own, exact for degree 15."""
    t, w = np.polynomial.legendre.leggauss(8)
    h = 1.0 / 2**m
    centers = -1.0 + h * (2.0 * np.arange(2**m) + 1.0)
    return h * (poly(centers[:, None] + h * t) @ w)


@pytest.mark.parametrize("m", [0, 1, 4, 5, 10, 11, 14, 20])
def test_cell_integrals_are_exact_for_degree_14(m):
    # each cell within a few ulps of its own width times the largest node
    # value, at depths up to 2^20 cells, where differences of a primitive
    # lose about 1e-15 of the panel's integral
    rng = np.random.default_rng(m)
    poly = np.polynomial.Polynomial(rng.standard_normal(15))
    nodes = poly(kernels.GK15_NODES)[None, :]
    got = cells.cell_integrals(nodes, 1.0, m)
    assert got.shape == (1, 2**m)
    scale = np.abs(nodes).max() * 2.0 / 2**m
    np.testing.assert_array_less(np.abs(got[0] - _legendre_reference(poly, m)), 32 * np.finfo(float).eps * scale)


def test_cell_integrals_scale_with_the_halfwidth_and_keep_panels_apart():
    rng = np.random.default_rng(7)
    polys = [np.polynomial.Polynomial(rng.standard_normal(9)) for _ in range(3)]
    nodes = np.array([p(kernels.GK15_NODES) for p in polys])
    got = cells.cell_integrals(nodes, 0.25, 12)
    for row, p in zip(got, polys):
        np.testing.assert_allclose(row, 0.25 * _legendre_reference(p, 12), rtol=0, atol=1e-17)


def test_interp_errors_see_degree_seven_and_jumps_but_not_degree_six():
    x = kernels.GK15_NODES
    floor = 50 * np.finfo(float).eps
    sextic = 1.0 + x**6
    assert cells.interp_errors(sextic[None])[0] == pytest.approx(floor * 2.0, rel=1e-12)
    assert cells.interp_errors((x**7)[None])[0] > 1e-3
    assert cells.interp_errors((x > 0.1)[None] * 1.0)[0] > 0.1
    # a jump between the last node and the edge is not seen, as by GK15
    assert cells.interp_errors((x < 0.995)[None] * 1.0)[0] == pytest.approx(floor)
