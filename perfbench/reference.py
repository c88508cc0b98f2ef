"""Exact values the benchmark checks kspaces against.

Nothing here imports kspaces: every value comes from a closed form,
evaluated in mpmath at 40 significant digits so that cancellation in an
antiderivative difference over a narrow cell cannot reach double precision.

A one-dimensional *factor* is one of

* ``("xpe", n, c)``   x^n * exp(c*x)             (c may be 0: a monomial)
* ``("poly", (c0, c1, ...))``  c0 + c1*x + c2*x^2 + ...
* ``("sin", m)``      sin(m*x)
* ``("gauss", a)``    exp(-a*x^2)
* ``("step", ((b, h), ...))``  staircase: sum of h * [x >= b]

and a separable integrand is a tuple of factors, one per coordinate.
"""

from __future__ import annotations

import math

import mpmath

mp = mpmath.MPContext()
mp.dps = 40


def num_text(x: float) -> str:
    """Shortest text that parses back to the same float."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def factor_expr(factor, var: str) -> str:
    """The factor in the ``ks`` expression grammar, in variable ``var``."""
    kind = factor[0]
    if kind == "xpe":
        _, n, c = factor
        parts = []
        if n:
            parts.append(var if n == 1 else f"{var}^{n}")
        if c:
            parts.append(f"exp({num_text(c)}*{var})")
        return "*".join(parts) if parts else "1"
    if kind == "poly":
        terms = [num_text(factor[1][0])]
        terms += [
            f"{num_text(c)}*{var}" if j == 1 else f"{num_text(c)}*{var}^{j}"
            for j, c in enumerate(factor[1])
            if j
        ]
        return " + ".join(terms)
    if kind == "sin":
        return f"sin({num_text(factor[1])}*{var})"
    if kind == "gauss":
        return f"exp(-{num_text(factor[1])}*{var}^2)"
    if kind == "step":
        return " + ".join(f"{num_text(h)}*({var} >= {num_text(b)})" for b, h in factor[1])
    raise ValueError(f"unknown factor {factor!r}")


def product_expr(factors) -> str:
    return "*".join(f"({factor_expr(g, f'x{i + 1}')})" for i, g in enumerate(factors))


def _xpe_integral(n: int, kappa, u, v):
    """Integral of x^n exp(kappa x) over [u, v]; kappa may be complex."""
    u, v = mp.mpf(u), mp.mpf(v)
    if kappa == 0:
        return (v ** (n + 1) - u ** (n + 1)) / (n + 1)

    def anti(x):
        # repeated integration by parts
        s = mp.mpf(0)
        coef = mp.mpf(1)
        for j in range(n + 1):
            s += coef * x ** (n - j) / kappa ** (j + 1)
            coef *= -(n - j)
        return mp.exp(kappa * x) * s

    return anti(v) - anti(u)


def factor_integral(factor, u: float, v: float):
    """Exact integral of one factor over [u, v], as an mpmath number."""
    kind = factor[0]
    if kind == "xpe":
        _, n, c = factor
        return _xpe_integral(n, mp.mpf(c), u, v)
    if kind == "poly":
        return mp.fsum(mp.mpf(c) * _xpe_integral(j, 0, u, v) for j, c in enumerate(factor[1]))
    if kind == "sin":
        m = mp.mpf(factor[1])
        return (mp.cos(m * u) - mp.cos(m * v)) / m
    if kind == "gauss":
        r = mp.sqrt(mp.mpf(factor[1]))
        return mp.sqrt(mp.pi) / (2 * r) * (mp.erf(r * v) - mp.erf(r * u))
    if kind == "step":
        return mp.fsum(mp.mpf(h) * (v - max(u, b)) for b, h in factor[1] if b < v)
    raise ValueError(f"unknown factor {factor!r}")


def factor_fourier(factor, u: float, v: float, y: float):
    """Exact integral of factor(x) * exp(-2 pi i x y) over [u, v]."""
    w = -2 * mp.pi * mp.mpf(y) * 1j
    kind = factor[0]
    if kind == "xpe":
        _, n, c = factor
        return _xpe_integral(n, mp.mpf(c) + w, u, v)
    if kind == "poly":
        return mp.fsum(mp.mpf(c) * _xpe_integral(j, w, u, v) for j, c in enumerate(factor[1]))
    if kind == "sin":
        m = mp.mpf(factor[1])
        return (_xpe_integral(0, w + 1j * m, u, v) - _xpe_integral(0, w - 1j * m, u, v)) / 2j
    raise ValueError(f"no Fourier closed form for {factor!r}")


def product_integral(factors, box) -> float:
    return float(mp.fprod(factor_integral(g, lo, hi) for g, (lo, hi) in zip(factors, box)))


def product_fourier(factors, box, y) -> complex:
    """Core transform times the sinc tail of the coordinates past the core."""
    d = len(factors)
    head = mp.fprod(
        factor_fourier(g, lo, hi, yk) for g, (lo, hi), yk in zip(factors, box, y)
    )
    tail = mp.fprod(mp.sincpi(yk) for yk in y[d:])
    return complex(head * tail)


def scaled_tail_product(order: int) -> float:
    """Product of 1/ln(i+1), i = 1..order: the scaled-j tail normalization."""
    return float(mp.fprod(1 / mp.log(i + 1) for i in range(1, order + 1)))


def dyadic_cells(dim: int, count: int):
    """The first ``count`` cells of the breadth-first dyadic family of
    [0, 1]^dim: level l has 2^(l*dim) cells in row-major order, last axis
    fastest.  Each cell is a tuple of (lo, hi) per axis."""
    cells = []
    level = 0
    while len(cells) < count:
        splits = 2**level
        for offset in range(splits**dim):
            if len(cells) == count:
                break
            idx = []
            for _ in range(dim):
                idx.append(offset % splits)
                offset //= splits
            idx.reverse()
            cells.append(tuple((i / splits, (i + 1) / splits) for i in idx))
        level += 1
    return cells


def dyadic_functionals(factors, count: int):
    """a_k = integral of the separable integrand over the k-th dyadic cell."""
    return [product_integral(factors, cell) for cell in dyadic_cells(len(factors), count)]


def kp_norm(a, p: float) -> float:
    """Truncated K^p norm with weights t_k = 2^-k."""
    if p == math.inf:
        return max(abs(x) for x in a)
    s = math.fsum(math.ldexp(1.0, -k) * abs(x) ** p for k, x in enumerate(a, 1))
    return s ** (1.0 / p)


def k2_inner(a, b) -> float:
    return math.fsum(math.ldexp(1.0, -k) * x * y for k, (x, y) in enumerate(zip(a, b), 1))


def si(x: float) -> float:
    return float(mp.si(x))


def ci(x: float) -> float:
    return float(mp.ci(x))
