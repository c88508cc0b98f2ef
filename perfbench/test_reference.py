"""Checks of the benchmark's own reference values and corpora.

    python3 -m pytest perfbench

The closed forms in ``reference.py`` are compared with ``mpmath.quad`` on
a few cells; the expression text each factor is sent as is compared with
the factor it stands for, through the kspaces expression compiler.
"""

import math
import random
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import corpus
import reference as ref

# kspaces is imported only to compile the expression text the corpus sends
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

FACTORS = [
    ("xpe", 0, 0.0),
    ("xpe", 2, -0.731),
    ("xpe", 1, 1.9),
    ("poly", (0.5, -1.25, 0.75, 2.0)),
    ("sin", 5.37),
    ("gauss", 1.3),
    ("step", ((0.2, 1.5), (0.61, 0.75))),
]
CELLS = [(0.0, 1.0), (0.5, 0.75), (0.123, 0.1234), (-0.4, 0.3)]


def _mp_value(factor, x):
    kind = factor[0]
    if kind == "xpe":
        return x ** factor[1] * mpmath.exp(factor[2] * x)
    if kind == "poly":
        return sum(c * x**j for j, c in enumerate(factor[1]))
    if kind == "sin":
        return mpmath.sin(factor[1] * x)
    if kind == "gauss":
        return mpmath.exp(-factor[1] * x**2)
    return sum(h for b, h in factor[1] if x >= b)


def _quad(factor, u, v, y=0.0):
    jumps = [b for b, _ in factor[1] if u < b < v] if factor[0] == "step" else []
    points = [u, *jumps, v]
    with mpmath.workdps(30):
        return complex(mpmath.quad(
            lambda x: _mp_value(factor, x) * mpmath.exp(-2j * mpmath.pi * x * y), points))


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("cell", CELLS)
def test_factor_integral_matches_quadrature(factor, cell):
    exact = float(ref.factor_integral(factor, *cell))
    assert exact == pytest.approx(_quad(factor, *cell).real, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("factor", [f for f in FACTORS if f[0] in ("xpe", "poly", "sin")])
@pytest.mark.parametrize("y", [0.0, 0.5, -1.25])
def test_factor_fourier_matches_quadrature(factor, y):
    exact = complex(ref.factor_fourier(factor, 0.0, 0.8, y))
    assert abs(exact - _quad(factor, 0.0, 0.8, y)) < 1e-13


def test_product_fourier_applies_the_sinc_tail():
    f = (("xpe", 0, 0.0),)
    box = [(-0.5, 0.5)]
    assert ref.product_fourier(f, box, (0.5,)) == pytest.approx(2 / math.pi)
    assert ref.product_fourier(f, box, (0.5, 0.5)) == pytest.approx((2 / math.pi) ** 2)


@pytest.mark.parametrize("factor", FACTORS)
def test_expression_text_is_the_factor(factor):
    from kspaces.expr import compile_expression, parse_expression

    f = compile_expression(parse_expression(ref.factor_expr(factor, "x1")), 1)
    xs = np.linspace(-0.45, 0.95, 57)
    want = [float(_mp_value(factor, mpmath.mpf(x))) for x in xs]
    np.testing.assert_allclose(f(xs), want, rtol=1e-14, atol=1e-15)


def test_dyadic_cells_enumerate_breadth_first_row_major():
    assert ref.dyadic_cells(1, 4) == [((0.0, 1.0),), ((0.0, 0.5),), ((0.5, 1.0),), ((0.0, 0.25),)]
    cells = ref.dyadic_cells(2, 6)
    assert cells[2] == ((0.0, 0.5), (0.5, 1.0))  # last axis fastest
    assert cells[5] == ((0.0, 0.25), (0.0, 0.25))


def test_norm_of_the_first_panel_fault_case():
    a = [max(0.0, min(v, 0.999) - u) for (u, v), in ref.dyadic_cells(1, 4)]
    assert a == pytest.approx([0.999, 0.5, 0.499, 0.25])
    assert ref.kp_norm(a, 2) == pytest.approx(0.7723547598, abs=1e-10)


def test_improper_integral_values():
    with mpmath.workdps(30):
        si_tail = mpmath.quadosc(lambda u: mpmath.sin(u) / u, [1, mpmath.inf], omega=1)
        ci_tail = mpmath.quadosc(lambda u: mpmath.sin(u) / u**2, [1, mpmath.inf], omega=1)
    assert math.pi / 2 - ref.si(1.0) == pytest.approx(float(si_tail), rel=1e-14)
    assert math.sin(1.0) - ref.ci(1.0) == pytest.approx(float(ci_tail), rel=1e-14)


def test_scaled_tail_product():
    expected = 1 / (math.log(2) * math.log(3) * math.log(4))
    assert ref.scaled_tail_product(3) == pytest.approx(expected, rel=1e-15)


def test_breakpoints_avoid_every_panel_edge():
    rng = random.Random(0)
    for _ in range(50):
        b = corpus._breakpoint(rng)
        for level in range(41):
            assert 0.01 <= math.ldexp(b, level) % 1.0 <= 0.99


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_is_a_function_of_the_seed(workload):
    first = [r.argv for r in corpus.build(workload, 3)]
    assert first == [r.argv for r in corpus.build(workload, 3)]
    assert first != [r.argv for r in corpus.build(workload, 4)]
    # the known faults do not depend on the seed
    faults = sorted(r.argv for r in corpus.build(workload, 3) if r.fault)
    assert faults and faults == sorted(r.argv for r in corpus.build(workload, 4) if r.fault)
