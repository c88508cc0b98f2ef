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

Below the deepest level of the truncation every cell is the union of its
children, so only the leaf cells of the truncated tree, never more than K,
get their own integrals.  Every other functional, and its error, is the
sum of its children's, and each functional's error is checked against
quad_tol.  In d >= 2 every leaf is integrated in one call of
:func:`kspaces.gauge.integrate_boxes`, each with its own evaluation
budget.  In 1-D the leaves are read off panel interpolants, so a norm's
evaluations follow f, not K: one adaptive pass bisects the window on its
dyadic grid, and a panel holding two leaves or more is accepted when f at
its eight Kronrod-only nodes lies within quad_tol / |window| of the Gauss-7
interpolant.  Each leaf in it gets the integral of the panel's degree-14
interpolant over the leaf, with error |leaf| times that estimate.  Like
GK15's estimate, the rule sees nothing between the nodes.  Panels that
come down to one leaf are judged and bisected as GK15 panels; leaves
holding a singular point keep their shells, and leaves holding a
breakpoint are cut there (:func:`_functionals_pass`).

:func:`compute_functionals` returns that sequence, with the measured error
of each functional, as one :class:`Functionals` record, and everything
computed from it takes the record: ``kp_norm(a, p, cfg)``,
``k2_inner(af, ag, cfg)`` and ``verify_embedding(a, q, p, cfg,
lq_value)``.  One record serves norms of any p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import (
    DimensionCapExceeded,
    MissingAbsoluteBound,
    PartitionBudgetExceeded,
    ToleranceNotMet,
)
from .gauge import (
    DEFAULT_MAX_EVALS,
    Interval,
    hk_integrate,  # unused here, but perfbench/tracer.py wraps kp.hk_integrate
    integrate_boxes,
    integrate_nd_result,
)

# Points per axis of the q = inf sampling grid in lq_norm.
_SUP_GRID = 4097
# verify_embedding's allowance for quadrature error
_QUAD_SLACK = 1e-8
# The most leaves a 1-D truncation may have, so K < 2^23: the largest 1-D
# tree that one GK15 panel per leaf kept within DEFAULT_MAX_EVALS.
_MAX_LEAF_CELLS = 2**21


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
        idx = np.unravel_index(offset, (2**level,) * self.dim)  # last axis fastest
        return tuple(map(Interval, *self._bounds(level, np.array(idx))))

    def _bounds(self, level: int, idx, size=1):
        """(lo, hi) of the level-``level`` cells whose multi-indices, one
        index per window axis, run along the last axis of ``idx``; each cell
        is ``size`` level-``level`` cells wide along every axis."""
        lo = np.array([iv.lo for iv in self.window])
        step = np.array([iv.width for iv in self.window]) / 2**level
        return lo + idx * step, lo + (idx + size) * step

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

    ``term(k)`` is t_k, elementwise over an integer array k of indices
    (:func:`kp_norm` and :func:`k2_inner` pass 1..K in one call), and
    ``tail(K)`` is the exact sum over k > K; keeping the tail analytic is
    what makes the reported norm tail bounds rigorous rather than estimated.
    """

    term: Callable[[np.ndarray], np.ndarray]
    tail: Callable[[int], float]


def geometric_weights(ratio: float = 0.5) -> WeightSequence:
    """t_k = (1 - r) r^(k-1), normalized analytically; tail(K) = r^K.

    The default ratio 1/2 gives t_k = 2^(-k).
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    # r^n is 0 past this n, far below half the smallest subnormal; pow is
    # slow there (0.09 s for k up to 10^6 at r = 1/2)
    last = math.ceil(-1075.0 * math.log(2.0) / math.log(ratio)) + 64

    def term(k):
        k = np.asarray(k)
        live = k <= last + 1
        if live.all():
            return (1.0 - ratio) * ratio ** (k - 1)
        t = np.zeros(k.shape)
        t[live] = (1.0 - ratio) * ratio ** (k[live] - 1)
        return t

    return WeightSequence(term=term, tail=lambda K: ratio**K)


@dataclass(frozen=True)
class KpConfig:
    """Everything a K^p computation depends on."""

    family: DualityFamily
    weights: WeightSequence = field(default_factory=geometric_weights)
    truncation: int = 64
    quad_tol: float = 1e-10
    singular_points: tuple = ()

    def __post_init__(self):
        if isinstance(self.truncation, bool) or not isinstance(self.truncation, (int, np.integer)):
            raise ValueError(f"truncation must be an integer, got {self.truncation!r}")
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
class Functionals:
    """The functionals a_1 .. a_K of one integrand, as built by
    :func:`compute_functionals`: ``values`` is a float64 array, complex128
    for a complex integrand, ``evaluations`` the integrand evaluations
    that computed it, and ``errors`` one estimate of |error| per a_k, from
    the same pass (None in a record built by hand)."""

    values: np.ndarray
    evaluations: int
    errors: np.ndarray | None = None


@dataclass(frozen=True)
class NormResult:
    value: float
    tail_bound: float

    def __post_init__(self):
        if self.value < 0 or self.tail_bound < 0:
            raise ValueError("norm components must be non-negative")


def _parent_sums(x, d: int):
    """Sums over the children of every cell one level up: the last d axes
    of ``x`` index the cells of a level, one axis per window axis, and each
    of them halves."""
    for k in range(d):
        rest = (slice(None),) * k
        x = x[(..., slice(0, None, 2)) + rest] + x[(..., slice(1, None, 2)) + rest]
    return x


def _tree_size(family: DualityFamily, K: int):
    """(L, last): cell K is cell ``last`` of level L.  Raises before
    anything is allocated when the tree truncated at K is too large: in
    1-D, with :class:`PartitionBudgetExceeded`, when it has more than
    ``_MAX_LEAF_CELLS`` leaves; in d >= 2, with :class:`ToleranceNotMet`,
    when its leaves' least work, one GK15 panel each, exceeds
    ``DEFAULT_MAX_EVALS``."""
    d = family.dim
    L, last = family.level_of(K)
    leaves = 2 ** (max(L - 1, 0) * d)  # each level-(L-1) cell holds a leaf
    if d == 1 and leaves > _MAX_LEAF_CELLS:
        raise PartitionBudgetExceeded(
            f"truncation {K} needs at least {leaves} leaf cells, over the cap "
            f"of {_MAX_LEAF_CELLS}"
        )
    least = 15**d * leaves
    if d > 1 and least > DEFAULT_MAX_EVALS:
        raise ToleranceNotMet(
            f"truncation {K} needs at least {least} evaluations, {15**d} for "
            f"each of at least {leaves} leaf cells, over the budget of "
            f"{DEFAULT_MAX_EVALS}"
        )
    return L, last


def _leaf_plan(family: DualityFamily, K: int):
    """The leaves of ``family`` truncated at K, as :func:`_functionals_pass`
    describes them: (lo, hi, share, own, parents, last), where lo and hi
    (leaves, d) hold the leaf ends, level-L leaves first; share is each
    leaf's |leaf| / |window|; own and parents are boolean grids of levels
    L and L - 1, of shapes (2^L,) * d and (2^(L-1),) * d, true at leaves;
    and last is the offset of cell K within level L.  In 1-D, own is the
    first n_own cells of level L, last + 1 rounded up to even (at L = 0,
    the window), and parents the cells of level L - 1 from n_own / 2 on.
    Raises as :func:`_tree_size` does, before allocating anything."""
    d = family.dim
    L, last = _tree_size(family, K)
    n = 2**L  # cells per axis of level L
    own = (np.arange(n**d) <= last).reshape((n,) * d)
    parents = np.zeros((n // 2,) * d, dtype=bool)
    if L:
        j = _parent_sums(own.astype(np.int8), d)
        fill = j == 2**d - 1  # a lone missing child is integrated instead
        for axis in range(d):
            fill = fill.repeat(2, axis=axis)
        own |= fill
        parents = j < 2**d - 1
    # each leaf as its first level-L cell (multi-index) and its width in them
    idx = np.concatenate((np.nonzero(own), 2 * np.array(np.nonzero(parents))), axis=1).T
    m = np.count_nonzero(own)
    size = np.repeat([1.0, 2.0], (m, idx.shape[0] - m))
    lo, hi = family._bounds(L, idx, size[:, None])
    share = (size / n) ** d
    return lo, hi, share, own, parents, last


def _tree_sums(values, errors, own, parents, last):
    """a_1 .. a_K and their errors, from the ``values`` and ``errors`` of
    :func:`_leaf_plan`'s leaves, level-L leaves (the true cells of ``own``)
    first, through :func:`_level_sums`: the level-L leaves fill its grid,
    and the others are level L - 1's own (the true cells of ``parents``)."""
    m = np.count_nonzero(own)
    both = np.empty(values.size, dtype=complex)
    both.real, both.imag = values, errors
    grid = np.zeros(own.shape, dtype=complex)
    grid[own] = both[:m]
    return _level_sums(grid, last, both[m:], parents)


def _level_sums(grid, last, top=None, at=None):
    """a_1 .. a_K and their errors, from ``grid``, the cells of level L:
    each cell's value is the real part of its complex entry and its error
    the imaginary part.  Level l fills the 2^(l d) entries from
    (2^(l d) - 1) / (2^d - 1) on, row-major, and level L only its cells up
    to ``last``.  Each level is summed from the full grid of the level
    above, the last axis first, straight into its entries; level L - 1 then
    takes the entries ``top``, if given, at ``at`` (a boolean grid), its
    leaves.

    A value and its error are the real and imaginary parts of one complex
    entry, so a level costs one complex sum per axis, not one per row:
    complex addition adds the parts apart, each exactly as a float sum."""
    d, n = grid.ndim, grid.shape[0]
    start = (n**d - 1) // (2**d - 1)  # the first entry of level L
    out = np.empty(start + last + 1, dtype=complex)
    out[start:] = grid.ravel()[: last + 1]
    # the even and odd children along each axis, the last first
    halves = [
        ((..., slice(0, None, 2)) + rest, (..., slice(1, None, 2)) + rest)
        for rest in ((slice(None),) * k for k in range(d))
    ]
    below = n // 2  # level L - 1, whose leaves are no sums
    while n > 1:  # down to level 0, the window
        n //= 2
        start -= n**d
        level = out[start : start + n**d].reshape((n,) * d)  # a view
        for even, odd in halves[:-1]:
            grid = grid[even] + grid[odd]
        even, odd = halves[-1]
        np.add(grid[even], grid[odd], out=level)
        if n == below and top is not None:
            level[at] = top
        grid = level
    return out.real, out.imag  # views: no copy of a K = 10^6 tree's 16 MB


def _functionals_pass(f, cfg: KpConfig):
    """a_1 .. a_K, their errors and the total evaluation count, from one
    pass over the leaf cells of the truncated dyadic tree.

    Cell K lies on level L, so every cell of a lower level is the union of
    its children.  The leaves are the level-L cells 1..K, and of each
    level-(L-1) cell with j of its 2^d children among them: the one missing
    child if j = 2^d - 1, else (j < 2^d - 1) the cell itself.  There are
    never more leaves than cells.  Every other a_k and its error are the
    sums of its children's, built level by level (:func:`_level_sums`).

    In d >= 2 all leaves are integrated in one :func:`integrate_boxes`
    call, each at the share quad_tol * |leaf| / |window|, so the tols of
    the leaves of any cell add up to at most quad_tol.

    In 1-D the leaves are read off panel interpolants
    (:func:`kspaces.cells.level_cells`), so the evaluations follow f, not
    K.  One adaptive pass bisects the window on its dyadic grid, a mode of
    the lock step with one integrand call per round.  A panel holding two
    leaves or more is accepted when f at its eight Kronrod-only nodes lies
    within quad_tol / |window| of the Gauss-7 interpolant; each leaf in it
    then gets the integral of the panel's degree-14 interpolant over the
    leaf, with error |leaf| times the panel's estimate: its width share of
    quad_tol, as a leaf's own integration had.  Like GK15's estimate, the
    rule sees nothing between the nodes.  A panel that comes down to one
    leaf is a GK15 panel, bisected as the leaf's own integration would be.
    A leaf holding a breakpoint of f enters the pass cut there, and one
    holding a singular point keeps its shells; no panel holding either is
    evaluated whole.

    Raises :class:`ToleranceNotMet` when the error of some a_k exceeds
    quad_tol, not when a leaf misses its share.
    """
    if cfg.family.dim > 1:
        lo, hi, share, own, parents, last = _leaf_plan(cfg.family, cfg.truncation)
        v, e, evals = integrate_boxes(f, lo, hi, cfg.quad_tol * share)
        evals = int(evals.sum())
        values, errors = _tree_sums(v, e, own, parents, last)
    else:
        from . import cells  # here, not at import: see kspaces.cells

        L, last = _tree_size(cfg.family, cfg.truncation)
        grid, evals = cells.level_cells(f, cfg, L, last)
        values, errors = _level_sums(grid, last)

    over = np.flatnonzero(errors > cfg.quad_tol)
    if over.size:
        k = over[0]
        raise ToleranceNotMet(
            f"error estimate {errors[k]:.3g} of functional a_{k + 1} exceeds "
            f"quad_tol {cfg.quad_tol:.3g}",
            value=float(values[k]),
            error_estimate=float(errors[k]),
            evaluations=evals,
        )
    return values, errors, evals


def compute_functionals(f, cfg: KpConfig) -> Functionals:
    """All functionals a_1 .. a_K of f, with their errors and evaluation
    count.

    They come from one pass over the leaf cells of the dyadic tree, every
    other functional summed from its children (:func:`_functionals_pass`).
    That pass integrates the real part of f and notes whether f returned
    complex values; only then does a second pass integrate the imaginary
    part, and the values are complex, each error the hypotenuse of its
    parts' errors.  Both passes carry f's ``breakpoints``, where a 1-D leaf
    is cut, and its ``phase``, where a leaf's side toward a singular point
    is cut into half-periods (:func:`kspaces.gauge.hk_integrate_many`).
    """
    complex_seen = False

    def real(*a):
        nonlocal complex_seen
        r = np.asarray(f(*a))
        complex_seen |= r.dtype.kind == "c"
        return r.real

    def imag(*a):
        return np.imag(np.asarray(f(*a), dtype=complex))

    real.breakpoints = imag.breakpoints = getattr(f, "breakpoints", ())
    real.phase = imag.phase = getattr(f, "phase", None)
    values, errors, evals = _functionals_pass(real, cfg)
    if not complex_seen:
        return Functionals(values, evals, errors)
    im, errors_im, evals_im = _functionals_pass(imag, cfg)
    values = values.astype(complex)
    values.imag = im
    return Functionals(values, evals + evals_im, np.hypot(errors, errors_im))


def _check_length(a: Functionals, cfg: KpConfig) -> None:
    if len(a.values) != cfg.truncation:
        raise ValueError("functionals length must equal the truncation")


def kp_norm(
    a: Functionals,
    p: float,
    cfg: KpConfig,
    abs_bound: float | None = None,
    conditionally_integrable: bool = False,
) -> NormResult:
    """Truncated K^p norm of the functionals ``a`` with a rigorous tail bound.

    For finite p the value is (sum over k <= K of t_k |a_k|^p)^(1/p),
    summed with exactly rounded summation (``math.fsum``); p = inf takes the
    max of |a_k|.  Where that sum overflows or underflows to inf or 0 while
    some a_k is not 0, it is taken as M' (sum of t_k (|a_k| / M')^p)^(1/p),
    M' being the largest |a_k|.  The tail bound is
    (sum over k > K of t_k)^(1/p) * M, where M bounds the unseen |a_k|: the
    largest computed |a_k|, a heuristic that is only safe for absolutely
    integrable f.  A bound on the integral of |f| supplied as ``abs_bound``
    (None or >= 0; inf is allowed) makes M the larger of the two, safe for
    a conditionally integrable f, hence ``conditionally_integrable`` inputs
    must supply it; it never makes M smaller.
    """
    if not (p == math.inf or p >= 1.0):
        raise ValueError("p must be >= 1 or inf")
    if abs_bound is not None and not abs_bound >= 0:
        raise ValueError(f"abs_bound must be None or >= 0, got {abs_bound!r}")
    if conditionally_integrable and abs_bound is None:
        raise MissingAbsoluteBound(
            "tail of a conditionally integrable function cannot be bounded "
            "by computed functionals; pass abs_bound"
        )
    _check_length(a, cfg)
    K = cfg.truncation
    abs_a = np.abs(a.values)
    big = float(abs_a.max())
    M = max(big, abs_bound) if abs_bound is not None else big

    if p == math.inf:
        value = big
        tail_bound = M
    else:
        t = cfg.weights.term(np.arange(1, K + 1))
        with np.errstate(all="ignore"):
            total = kernels.neumaier_sum(t * abs_a**p)
            if not 0.0 < total < math.inf and big > 0.0:
                # |a_k|^p overflowed or underflowed: scale by the largest |a_k|
                value = big * kernels.neumaier_sum(t * (abs_a / big) ** p) ** (1.0 / p)
            else:
                value = total ** (1.0 / p)
        tail_bound = cfg.weights.tail(K) ** (1.0 / p) * M
    return NormResult(float(value), float(tail_bound))


def k2_inner(af: Functionals, ag: Functionals, cfg: KpConfig):
    """Weighted sum of products of functionals: the K^2 inner product.

    The second factor is conjugated.  The result is complex when either
    record is, and a float otherwise.
    """
    _check_length(af, cfg)
    _check_length(ag, cfg)
    t = cfg.weights.term(np.arange(1, cfg.truncation + 1))
    terms = t * af.values * np.conj(ag.values)
    if np.iscomplexobj(terms):
        return complex(
            kernels.neumaier_sum(terms.real), kernels.neumaier_sum(terms.imag)
        )
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
    if not q >= 1:  # NaN too
        raise ValueError("q must be >= 1 or inf")

    def absq(*xs):
        return np.asarray(np.abs(f(*xs)), dtype=np.float64) ** q

    absq.breakpoints = getattr(f, "breakpoints", ())
    v = integrate_nd_result(absq, window, quad_tol).value
    return max(v, 0.0) ** (1.0 / q)


def verify_embedding(
    a: Functionals, q: float, p: float, cfg: KpConfig, lq_value: float
) -> EmbeddingReport:
    """Check the continuous-embedding inequality at truncation K.

    Takes the K^p norm of the functionals ``a`` and reports whether
    kp <= lq_value + tail_bound + 1e-8, the last term an allowance for
    quadrature error.  ``lq_value`` is the L^q norm of the same f over the
    window: exact where it is known (e.g. for step functions), which keeps
    the two sides independent, or :func:`lq_norm`.
    """
    norm = kp_norm(a, p, cfg)
    slack = norm.tail_bound + _QUAD_SLACK
    passed = norm.value <= lq_value + slack
    return EmbeddingReport(p, q, norm.value, float(lq_value), norm.tail_bound, slack, passed)
