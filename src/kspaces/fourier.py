"""Fourier transform of tame functions.

The transform of an order-n tame function factors into a finite-dimensional
transform of the core (kernel exp(-2*pi*i*<x, y>), so the transform of the
unit interval's indicator is the normalized sinc) times the sinc tail: the
transform of the infinite product of unit intervals.  Since sinc(0) = 1 the
tail is evaluated exactly over the finitely many nonzero frequency
coordinates.  The heads at all requested points are integrated in one
batched pass, one box per point, whose integrand returns the real part
core * cos and the imaginary part -core * sin as two components on shared
GK15 nodes (:func:`kspaces.gauge.integrate_boxes`), so the core is
evaluated once per node.  A panel is settled only when both parts are
within their share of the tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .gauge import integrate_boxes, integrate_nd_result
from .tame import TameFunction

# fourier_bound_check's allowance for quadrature error
_QUAD_SLACK = 1e-8


@dataclass(frozen=True)
class FrequencyPoint:
    """Frequency vector with finite support (implicit zero tail)."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))
        if not all(map(math.isfinite, self.coords)):
            raise ValueError(f"frequency coordinates must be finite, got {self.coords}")

    def get(self, k: int) -> float:
        return self.coords[k - 1] if 1 <= k <= len(self.coords) else 0.0


@dataclass(frozen=True)
class FourierValue:
    """Transform value at one frequency point.

    ``value`` is the complete transform (head times tail); ``tail_factor``
    is the sinc tail alone and ``head_dim`` the core dimension it starts
    after.
    """

    value: complex
    tail_factor: float
    head_dim: int

    def __post_init__(self):
        if abs(self.tail_factor) > 1.0 + 1e-15:
            raise ValueError("sinc tail cannot exceed one in modulus")

    def __abs__(self) -> float:
        return abs(self.value)


def sinc_tail(y: FrequencyPoint, n: int) -> float:
    """Product of sin(pi y_k)/(pi y_k) over explicit coordinates k > n.

    Implicit zero coordinates contribute exactly one (sinc(0) = 1), so the
    infinite product reduces to the explicit ones, and to 1.0 where there
    are none past n.
    """
    if len(y.coords) <= n:
        return 1.0
    return float(np.prod(np.sinc(np.asarray(y.coords[n:]))))


def fourier_tame_result(f: TameFunction, ys, tol: float = 1e-10) -> list:
    """Transform of a tame function at each frequency point of ``ys``, as
    one (FourierValue, error bound on the modulus, evaluations) per point.

    Each point is one copy of the working box in one :func:`integrate_boxes`
    pass, with the point's frequencies as box parameters.  Its integrand
    returns core * cos(2 pi <x, y>) and -core * sin(2 pi <x, y>) as two
    components, so each node evaluates the core once, and each part is
    held to ``tol``.  A point whose phase bound 2 pi sum_k |y_k|
    max(|lo_k|, |hi_k|) overflows raises :class:`EvaluationError` naming
    it, before anything is integrated: the phase would be inf at some node.
    """
    ys = list(ys)
    n, m = f.order, len(ys)
    freqs = np.array([[y.get(k) for k in range(1, n + 1)] for y in ys]).reshape(m, n)
    reach = [max(abs(iv.lo), abs(iv.hi)) for iv in f.box]
    for y, row in zip(ys, freqs.tolist()):
        if not math.isfinite(2.0 * math.pi * sum(abs(a) * b for a, b in zip(row, reach))):
            raise EvaluationError(
                f"the phase 2*pi*<x, y> overflows on the box at y={y.coords}", y.coords
            )

    def head(*args):
        y, xs = args[:n], args[n:]
        acc = xs[0] * y[0]
        for c, yk in zip(xs[1:], y[1:]):
            acc = acc + c * yk
        wave = 2.0 * math.pi * acc
        core = np.asarray(f.core(*xs))
        parts = np.empty(np.shape(wave) + (2,))
        parts[..., 0] = core * np.cos(wave)
        parts[..., 1] = core * -np.sin(wave)
        return parts

    head.breakpoints = getattr(f.core, "breakpoints", ())
    ends = np.array([(iv.lo, iv.hi) for iv in f.box]).T
    lo, hi = np.tile(ends[0], (m, 1)), np.tile(ends[1], (m, 1))
    values, errors, evals = integrate_boxes(head, lo, hi, tol, params=freqs)
    if values.ndim == 1:  # no box has width, so the integrand was never called
        values = errors = np.zeros((m, 2))
    out = []
    for (re, im), (e_re, e_im), count, y in zip(values.tolist(), errors.tolist(), evals.tolist(), ys):
        tail = sinc_tail(y, n)
        value = FourierValue(complex(re, im) * tail, tail, n)
        out.append((value, math.hypot(e_re, e_im) * abs(tail), count))
    return out


def fourier_tame(f: TameFunction, y: FrequencyPoint, tol: float = 1e-10) -> FourierValue:
    """Transform at y: the one-point case of :func:`fourier_tame_result`."""
    return fourier_tame_result(f, [y], tol)[0][0]


@dataclass(frozen=True)
class BoundReport:
    max_abs: float
    l1_bound: float
    slack: float
    argmax: FrequencyPoint
    passed: bool


def fourier_bound_check(f: TameFunction, grid, tol: float = 1e-10) -> BoundReport:
    """Check |transform| <= integral of |core| + 1e-8 over a grid of
    frequencies, the last term an allowance for quadrature error."""

    def abs_core(*xs):
        return np.abs(np.asarray(f.core(*xs), dtype=np.float64))

    abs_core.breakpoints = getattr(f.core, "breakpoints", ())
    l1 = integrate_nd_result(abs_core, f.box, tol).value
    grid = list(grid)
    mods = [abs(fv) for fv, _, _ in fourier_tame_result(f, grid, tol)]
    best, arg = max(zip(mods, grid), key=lambda t: t[0], default=(-1.0, None))
    return BoundReport(best, l1, _QUAD_SLACK, arg, best <= l1 + _QUAD_SLACK)
