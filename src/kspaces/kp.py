"""Kuelbs-Steadman K^p norms and the K^2 inner product over a dyadic
duality family.

The norm of an integrable f is a weighted l^p mean of the functionals
a_k = integral of f over the k-th member of a countable family of
indicator supports.  Here the family is the breadth-first enumeration of
the dyadic sub-boxes of a working window: level l splits the window into
2^(l*d) congruent cells, occupying consecutive indices in row-major order
(in one dimension level l is exactly k = 2^l .. 2^(l+1)-1).  Indicators
satisfy the two bounds every embedding proof needs (values in [0, 1] and
E^q <= E), and the fixed enumeration plus fixed summation order makes all
results reproducible.  Note that indicators are not dense in the L^1 unit
ball; only the two bounds above are relied on, never density.

Truncation at K terms is explicit: every norm carries a rigorous tail
bound computed from the analytic tail of the weight sequence.

All K functionals come from one batched pass over the cells of
:meth:`DualityFamily.cell_bounds`: :func:`kspaces.gauge.hk_integrate_many`
in 1-D and :func:`kspaces.gauge.integrate_boxes` in d >= 2.  Each cell
still gets exactly the integration it would get alone, with its own
evaluation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .boxes import BoxSet, TailFamily
from .errors import DimensionCapExceeded, MissingAbsoluteBound
from .gauge import (
    Interval,
    hk_integrate,
    hk_integrate_many,
    integrate_boxes,
    integrate_nd_result,
)

# Points per axis of the q = inf sampling grid in lq_norm.
_SUP_GRID = 4097


@dataclass(frozen=True)
class DualityFamily:
    """Breadth-first dyadic sub-box enumeration of a working window."""

    window: tuple

    def __post_init__(self):
        window = tuple(self.window)
        object.__setattr__(self, "window", window)
        if not window:
            raise ValueError("window must have dimension >= 1")
        for iv in window:
            if not isinstance(iv, Interval):
                raise TypeError("window must consist of Interval instances")

    @property
    def dim(self) -> int:
        return len(self.window)

    def level_of(self, k: int) -> tuple:
        """(level, offset within level) for the 1-based index k."""
        if k < 1:
            raise ValueError("index must be >= 1")
        level, start = 0, 1
        while start + 2 ** (level * self.dim) <= k:
            start += 2 ** (level * self.dim)
            level += 1
        return level, k - start

    def cell(self, k: int) -> tuple:
        """The k-th dyadic cell as a tuple of per-axis intervals."""
        level, offset = self.level_of(k)
        splits = 2**level
        idx = []
        for _ in range(self.dim):
            idx.append(offset % splits)
            offset //= splits
        idx.reverse()  # row-major: last axis fastest
        out = []
        for iv, i in zip(self.window, idx):
            step = iv.width / splits
            out.append(Interval(iv.lo + i * step, iv.lo + (i + 1) * step))
        return tuple(out)

    def cell_bounds(self, K: int):
        """(lo, hi) arrays of shape (K, d): cells 1..K in enumeration order,
        bit for bit the endpoints of :meth:`cell`."""
        d = self.dim
        lo, hi = np.empty((K, d)), np.empty((K, d))
        level, start = 0, 0
        while start < K:
            splits = 2**level
            offset = np.arange(min(splits**d, K - start))
            rows = slice(start, start + offset.size)
            for a, iv in enumerate(self.window):
                # row-major: last axis fastest
                i = (offset // splits ** (d - 1 - a)) % splits
                step = iv.width / splits
                lo[rows, a] = iv.lo + i * step
                hi[rows, a] = iv.lo + (i + 1) * step
            start += offset.size
            level += 1
        return lo, hi


@dataclass(frozen=True)
class WeightSequence:
    """Positive weights t_k with unit sum and an analytic tail.

    ``term(k)`` is t_k and ``tail(K)`` is the exact sum over k > K; keeping
    the tail analytic is what makes the reported norm tail bounds rigorous
    rather than estimated.
    """

    term: Callable[[int], float]
    tail: Callable[[int], float]
    name: str = "custom"


def geometric_weights(ratio: float = 0.5) -> WeightSequence:
    """t_k = (1 - r) r^(k-1), normalized analytically; tail(K) = r^K.

    The default ratio 1/2 gives t_k = 2^(-k).
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    return WeightSequence(
        term=lambda k: (1.0 - ratio) * ratio ** (k - 1),
        tail=lambda K: ratio**K,
        name=f"geometric:{ratio:g}",
    )


@dataclass(frozen=True)
class KpConfig:
    """Everything a K^p computation depends on."""

    family: DualityFamily
    weights: WeightSequence = field(default_factory=geometric_weights)
    truncation: int = 64
    quad_tol: float = 1e-10
    singular_points: tuple = ()

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        if not self.quad_tol > 0:
            raise ValueError("quad_tol must be positive")
        if self.singular_points and self.family.dim > 1:
            raise ValueError("singular points apply only to a 1-D family")
        iv = self.family.window[0]
        if not all(iv.lo <= s <= iv.hi for s in self.singular_points):
            raise ValueError(
                f"singular points must lie in the window [{iv.lo!r}, {iv.hi!r}], "
                f"got {list(self.singular_points)}"
            )


@dataclass(frozen=True)
class NormResult:
    value: float
    tail_bound: float
    functionals: tuple

    def __post_init__(self):
        if self.value < 0 or self.tail_bound < 0:
            raise ValueError("norm components must be non-negative")


def family_ek(k: int, cfg: KpConfig) -> BoxSet:
    """Support of the k-th indicator as a box set (canonical-J tail)."""
    return BoxSet(cfg.family.cell(k), TailFamily.CANONICAL_J)


def _functional_result(k: int, f, cfg: KpConfig):
    cell = cfg.family.cell(k)
    if len(cell) == 1:
        return hk_integrate(
            f, cell[0], cfg.quad_tol, singular_points=cfg.singular_points
        )
    return integrate_nd_result(f, cell, cfg.quad_tol)


def functional(k: int, f, cfg: KpConfig) -> float:
    """a_k: the integral of f over the k-th dyadic cell."""
    return _functional_result(k, f, cfg).value


def _functionals_pass(f, cfg: KpConfig):
    """a_1 .. a_K and their evaluation counts from one batched pass.

    Each cell gets what :func:`functional` would compute for it alone:
    :func:`hk_integrate` in 1-D, :func:`integrate_nd_result` in d >= 2.
    """
    lo, hi = cfg.family.cell_bounds(cfg.truncation)
    if cfg.family.dim > 1:
        values, _, evals = integrate_boxes(f, lo, hi, cfg.quad_tol)
    else:
        values, _, evals = hk_integrate_many(
            f, lo[:, 0], hi[:, 0], cfg.quad_tol, cfg.singular_points
        )
    return values, evals


def compute_functionals(f, cfg: KpConfig, complex_valued: bool = False) -> tuple:
    """All functionals a_1 .. a_K; reusable across norms of different p.

    Complex integrands are integrated as two real passes, one over the real
    and one over the imaginary part.
    """
    if complex_valued:
        re, _ = _functionals_pass(
            lambda *a: np.real(np.asarray(f(*a), dtype=complex)), cfg
        )
        im, _ = _functionals_pass(
            lambda *a: np.imag(np.asarray(f(*a), dtype=complex)), cfg
        )
        return tuple(complex(a, b) for a, b in zip(re.tolist(), im.tolist()))
    return tuple(_functionals_pass(f, cfg)[0].tolist())


def compute_functionals_detailed(f, cfg: KpConfig):
    """Functionals plus the total quadrature evaluation count."""
    values, evals = _functionals_pass(f, cfg)
    return tuple(values.tolist()), int(evals.sum())


def kp_norm(
    f,
    p: float,
    cfg: KpConfig,
    abs_bound: float | None = None,
    conditionally_integrable: bool = False,
    functionals: Sequence[float] | None = None,
) -> NormResult:
    """Truncated K^p norm with a rigorous tail bound.

    For finite p the value is (sum over k <= K of t_k |a_k|^p)^(1/p),
    summed with exactly rounded summation (``math.fsum``); p = inf takes the
    max of |a_k|.  The tail bound is (sum over k > K of t_k)^(1/p) * M,
    where M bounds the unseen |a_k|: the integral of |f| when supplied,
    otherwise the largest computed |a_k| (a heuristic that is only safe
    for absolutely integrable f, hence ``conditionally_integrable`` inputs
    must supply ``abs_bound`` explicitly).

    ``functionals`` allows reusing precomputed a_k across several p.
    """
    if not (p == math.inf or p >= 1.0):
        raise ValueError("p must be >= 1 or inf")
    if conditionally_integrable and abs_bound is None:
        raise MissingAbsoluteBound(
            "tail of a conditionally integrable function cannot be bounded "
            "by computed functionals; pass abs_bound"
        )
    K = cfg.truncation
    if functionals is None:
        a = compute_functionals(f, cfg)
    else:
        a = tuple(functionals)
        if len(a) != K:
            raise ValueError("functionals length must equal the truncation")
    abs_a = np.abs(np.asarray(a, dtype=np.float64))
    big = float(abs_a.max()) if K else 0.0
    M = max(big, abs_bound) if abs_bound is not None else big

    if p == math.inf:
        value = big
        tail_bound = M
    else:
        t = np.array([cfg.weights.term(k) for k in range(1, K + 1)])
        value = kernels.neumaier_sum(t * abs_a**p) ** (1.0 / p)
        tail_bound = cfg.weights.tail(K) ** (1.0 / p) * M
    pairs = tuple(zip(range(1, K + 1), a))
    return NormResult(float(value), float(tail_bound), pairs)


def k2_inner(
    f,
    g,
    cfg: KpConfig,
    complex_valued: bool = False,
    functionals_f: Sequence | None = None,
    functionals_g: Sequence | None = None,
):
    """Weighted sum of products of functionals: the K^2 inner product.

    The second factor is conjugated, which is the identity for real-valued
    integrands; pass ``complex_valued=True`` to integrate complex
    integrands (real and imaginary parts by separate quadrature) and apply
    genuine conjugation.
    """
    K = cfg.truncation
    af = tuple(functionals_f) if functionals_f is not None else compute_functionals(
        f, cfg, complex_valued
    )
    ag = tuple(functionals_g) if functionals_g is not None else compute_functionals(
        g, cfg, complex_valued
    )
    t = np.array([cfg.weights.term(k) for k in range(1, K + 1)])
    if complex_valued:
        terms = t * np.asarray(af, dtype=complex) * np.conj(np.asarray(ag, dtype=complex))
        return complex(
            kernels.neumaier_sum(terms.real), kernels.neumaier_sum(terms.imag)
        )
    terms = t * np.asarray(af, dtype=np.float64) * np.asarray(ag, dtype=np.float64)
    return float(kernels.neumaier_sum(terms))


@dataclass(frozen=True)
class EmbeddingReport:
    p: float
    q: float
    kp_value: float
    lq_value: float
    tail_bound: float
    slack: float
    passed: bool


def lq_norm(f, q: float, window: Sequence[Interval], quad_tol: float = 1e-10) -> float:
    """L^q norm of f over the window by quadrature (grid sup for q = inf).

    The q = inf case samples |f| on a fine uniform grid, which is exact for
    the piecewise-constant corpus these checks run on but only a lower
    estimate in general.  The grid has 4097 points per axis and at most
    4097^2 in all, so windows of 3 or more dimensions raise
    :class:`DimensionCapExceeded`.
    """
    window = list(window)
    if q == math.inf:
        points = _SUP_GRID ** len(window)
        if points > _SUP_GRID**2:
            raise DimensionCapExceeded(
                f"the q = inf grid of a {len(window)}-D window has {points} "
                f"points, over the cap of {_SUP_GRID**2}"
            )
        axes = [np.linspace(iv.lo, iv.hi, _SUP_GRID) for iv in window]
        mesh = np.meshgrid(*axes, indexing="ij") if len(axes) > 1 else [axes[0]]
        return float(np.max(np.asarray(np.abs(f(*mesh)), dtype=np.float64)))
    if q < 1:
        raise ValueError("q must be >= 1 or inf")

    def absq(*xs):
        return np.asarray(np.abs(f(*xs)), dtype=np.float64) ** q

    v = integrate_nd_result(absq, window, quad_tol).value
    return max(v, 0.0) ** (1.0 / q)


def verify_embedding(
    f,
    q: float,
    p: float,
    cfg: KpConfig,
    lq_value: float | None = None,
    quad_slack: float = 1e-8,
    functionals: Sequence[float] | None = None,
) -> EmbeddingReport:
    """Check the continuous-embedding inequality at truncation K.

    Computes the K^p norm and the L^q norm over the window and reports
    whether kp <= lq + tail_bound + quad_slack.  ``lq_value`` may be
    supplied exactly (e.g. for step functions) to keep the two sides
    independent.
    """
    norm = kp_norm(f, p, cfg, functionals=functionals)
    if lq_value is None:
        lq_value = lq_norm(f, q, cfg.family.window, cfg.quad_tol)
    slack = norm.tail_bound + quad_slack
    passed = norm.value <= lq_value + slack
    return EmbeddingReport(p, q, norm.value, float(lq_value), norm.tail_bound, slack, passed)
