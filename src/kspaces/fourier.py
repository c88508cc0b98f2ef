"""Fourier transform of tame functions.

The transform of an order-n tame function factors into a finite-dimensional
transform of the core (kernel exp(-2*pi*i*<x, y>), so the transform of the
unit interval's indicator is the normalized sinc) times the sinc tail: the
transform of the infinite product of unit intervals.  Since sinc(0) = 1 the
tail is evaluated exactly over the finitely many nonzero frequency
coordinates.  The heads at all requested points, real and imaginary parts
alike, are integrated in one batched pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    infinite product reduces to the explicit ones.
    """
    return float(np.prod(np.sinc(np.asarray(y.coords[n:]))))


def fourier_tame_result(f: TameFunction, ys, tol: float = 1e-10) -> list:
    """Transform of a tame function at each frequency point of ``ys``, as
    one (FourierValue, error bound on the modulus, evaluations) per point.

    The real and imaginary parts of the head at every point are copies of
    the working box in one :func:`integrate_boxes` pass, with the point's
    frequencies and the part (0 real, 1 imaginary) as box parameters.
    """
    ys = list(ys)
    n, m = f.order, len(ys)
    freqs = np.array([[y.get(k) for k in range(1, n + 1)] for y in ys]).reshape(m, n)

    def integrand(*args):
        y, part, xs = args[:n], args[n], args[n + 1 :]
        acc = xs[0] * y[0]
        for c, yk in zip(xs[1:], y[1:]):
            acc = acc + c * yk
        wave = np.asarray(2.0 * math.pi * acc)  # the phase, a new array or a float
        im = np.broadcast_to(part != 0.0, wave.shape)  # imaginary-part rows
        np.cos(wave, out=wave, where=~im)
        np.sin(wave, out=wave, where=im)
        np.negative(wave, out=wave, where=im)
        return np.asarray(f.core(*xs)) * wave

    integrand.breakpoints = getattr(f.core, "breakpoints", ())
    ends = np.array([(iv.lo, iv.hi) for iv in f.box]).T
    lo, hi = np.tile(ends[0], (2 * m, 1)), np.tile(ends[1], (2 * m, 1))
    params = np.column_stack((np.tile(freqs, (2, 1)), np.repeat([0.0, 1.0], m)))
    values, errors, evals = integrate_boxes(integrand, lo, hi, tol, params=params)
    out = []
    for i, tail in enumerate(sinc_tail(y, n) for y in ys):
        value = FourierValue(complex(values[i], values[m + i]) * tail, tail, n)
        error = math.hypot(errors[i], errors[m + i]) * abs(tail)
        out.append((value, error, int(evals[i] + evals[m + i])))
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
