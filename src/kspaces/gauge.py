"""One-dimensional gauge (Henstock-Kurzweil) integration.

Two modes:

* verification mode -- explicit gauges, tagged partitions and Riemann sums
  (:func:`is_delta_fine`, :func:`cousin_partition`, :func:`riemann_sum`);
* value mode -- :func:`hk_integrate`, adaptive bisection with a
  Gauss-Kronrod 7/15 error estimate, plus geometric shell refinement toward
  declared singular points so that improper/highly oscillatory integrands
  (the ones that are HK- but not Lebesgue-integrable) converge.

:func:`integrate_boxes` is the tensor-product quadrature used by the
higher-dimensional modules, over many boxes in one pass;
:func:`integrate_nd` is its one-box case.

One pass, two drivers.  :func:`_adaptive` refines one interval;
``hk_integrate`` runs it on its segments and shells, which must run one
after another.  :func:`_adaptive_many` runs many independent intervals in
lock step, with one integrand call and one GK15 call per round over the
active panels of all of them, and takes on every interval exactly the
decisions ``_adaptive`` would.  Boxes are integrated by a recursion over
axes: the integrand of the first axis solves the inner problems of all its
nodes in one recursive call, so f is called once per round of the innermost
lock step, never once per node.  At most ``_MAX_IN_FLIGHT``
intervals are in flight at each level; larger batches run as consecutive
groups, which bounds memory (a 6-D integral peaks near 5 MB).

Integrands are callables of one array argument (n arguments for
``integrate_nd``).  NumPy-vectorized callables are evaluated in batches;
plain scalar functions are detected automatically and looped over (slower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import (
    DimensionCapExceeded,
    EvaluationError,
    PartitionBudgetExceeded,
    ToleranceNotMet,
)

DEFAULT_PARTITION_CAP = 10**7
DEFAULT_DIM_CAP = 6
DEFAULT_MAX_EVALS = 50_000_000
COUSIN_THETA = 0.9

_EPS = float(np.finfo(np.float64).eps)
_MIN_REL_WIDTH = 4.0 * _EPS
# Intervals that _adaptive_many advances together.  Larger batches run as
# consecutive groups, which bounds the memory of nested integrals: every
# level of a d-dimensional integral holds at most this many intervals.
_MAX_IN_FLIGHT = 1024


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval has lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def translate(self, dx: float) -> "Interval":
        return Interval(self.lo + dx, self.hi + dx)


@dataclass(frozen=True)
class Gauge:
    """Strictly positive width function controlling partition fineness."""

    delta: Callable[[float], float]

    def __call__(self, t: float) -> float:
        d = float(self.delta(t))
        if not (d > 0.0) or not math.isfinite(d):
            raise ValueError(f"gauge must be positive and finite, got {d} at t={t}")
        return d


@dataclass(frozen=True)
class TaggedPartition:
    """Ordered tagged cells covering an interval exactly.

    Cells must be adjacent (each cell starts where the previous one ends)
    and each tag must lie inside its cell.
    """

    cells: tuple

    def __post_init__(self):
        cells = tuple((float(t), c) for t, c in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValueError("partition needs at least one cell")
        prev_hi = None
        for tag, cell in cells:
            if not isinstance(cell, Interval):
                raise TypeError("partition cells must be Interval instances")
            if not cell.contains(tag):
                raise ValueError(f"tag {tag} outside its cell [{cell.lo}, {cell.hi}]")
            if prev_hi is not None and cell.lo != prev_hi:
                raise ValueError("partition cells must be adjacent and ordered")
            prev_hi = cell.hi

    @property
    def interval(self) -> Interval:
        return Interval(self.cells[0][1].lo, self.cells[-1][1].hi)

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be non-negative")
        if self.evaluations < 0:
            raise ValueError("evaluations must be non-negative")


def is_delta_fine(partition: TaggedPartition, gauge: Gauge) -> bool:
    """True iff every cell sits inside the open gauge ball of its tag."""
    for tag, cell in partition.cells:
        d = gauge(tag)
        if not (tag - d < cell.lo and cell.hi < tag + d):
            return False
    return True


def cousin_partition(
    gauge: Gauge, interval: Interval, max_cells: int = DEFAULT_PARTITION_CAP
) -> TaggedPartition:
    """Greedy left-to-right construction of a delta-fine tagged partition.

    From the current left endpoint x the next cell is
    [x, min(hi, x + 0.9 * delta(x))] with tag x.  Always delta-fine for the
    given gauge; raises :class:`PartitionBudgetExceeded` past ``max_cells``.
    """
    cells = []
    x = interval.lo
    if interval.width == 0.0:
        raise ValueError("cannot partition a degenerate interval")
    while x < interval.hi:
        step = COUSIN_THETA * gauge(x)
        v = min(interval.hi, x + step)
        if v <= x:
            raise PartitionBudgetExceeded(
                f"gauge step underflowed at x={x} (delta too small)"
            )
        cells.append((x, Interval(x, v)))
        if len(cells) > max_cells:
            raise PartitionBudgetExceeded(
                f"partition exceeded {max_cells} cells before covering the interval"
            )
        x = v
    return TaggedPartition(tuple(cells))


def riemann_sum(f, partition: TaggedPartition) -> float:
    """Sum of f(tag) * cell width, exactly rounded (``math.fsum``)."""
    terms = np.empty(len(partition.cells))
    for i, (tag, cell) in enumerate(partition.cells):
        try:
            y = float(f(tag))
        except Exception as exc:
            raise EvaluationError(f"integrand undefined at tag {tag}") from exc
        if not math.isfinite(y):
            raise EvaluationError(f"integrand non-finite at tag {tag}: {y}")
        terms[i] = y * cell.width
    return kernels.neumaier_sum(terms)


class _VecFn:
    """Wraps an integrand; batch-evaluates and auto-detects vectorization.

    ``fn(xs)`` evaluates f at the points ``xs`` (m, 15).  For n-argument
    integrands, ``lead`` (m, j) holds each panel's leading coordinates,
    passed to f as (m, 1) columns before ``xs``.  Evaluations are counted
    per root problem, ``roots[j]`` being the one panel j is charged to, and
    each root has its own ``max_evals`` budget.
    """

    def __init__(self, f, max_evals: int, n_roots: int = 1):
        self.f = f
        self.vectorized = None
        self.evals = np.zeros(n_roots, dtype=np.int64)
        self.max_evals = max_evals

    def _elementwise(self, xs, lead):
        out = np.empty(xs.shape)
        for j, row in enumerate(lead.tolist()):
            for q, x in enumerate(xs[j].tolist()):
                try:
                    out[j, q] = float(self.f(*row, x))
                except Exception as exc:
                    raise EvaluationError(f"integrand failed at {(*row, x)}") from exc
        return out

    def _vectorized(self, xs, lead):
        cols = [lead[:, c : c + 1] for c in range(lead.shape[1])]
        r = np.asarray(self.f(*cols, xs), dtype=np.float64)
        if r.shape != xs.shape:
            # constant, or a function of the leading coordinates only
            r = np.broadcast_to(r, xs.shape)
        return r

    def __call__(self, xs, lead=None, roots=None):
        if roots is None:
            self.evals[0] += xs.size
        else:
            self.evals += xs.shape[1] * np.bincount(roots, minlength=self.evals.size)
        if self.evals.max() > self.max_evals:
            raise ToleranceNotMet("evaluation budget exhausted before convergence")
        if lead is None:
            lead = np.empty((xs.shape[0], 0))
        with np.errstate(all="ignore"):
            if self.vectorized is None:
                try:
                    r = self._vectorized(xs, lead)
                    self.vectorized = True
                except EvaluationError:
                    raise
                except Exception:
                    self.vectorized = False
                    r = self._elementwise(xs, lead)
            elif self.vectorized:
                r = self._vectorized(xs, lead)
            else:
                r = self._elementwise(xs, lead)
        if not np.isfinite(r).all():
            j, q = np.argwhere(~np.isfinite(r))[0]
            if lead.shape[1]:
                where = f"at {(*lead[j].tolist(), float(xs[j, q]))}"
            else:
                where = (
                    f"near x={float(xs[j, q])!r}; declare the point as singular "
                    "if this is an improper integral"
                )
            raise EvaluationError(f"integrand non-finite {where}")
        return r


def _adaptive(fn, lo: float, hi: float, tol: float):
    """Batched breadth-first GK15 refinement of [lo, hi].

    Splits every panel whose error exceeds its width-proportional share of
    ``tol``; stops early once the global error total drops below ``tol``.
    Panels too narrow to split are force-accepted so the loop always
    terminates with an honest error total.  Returns (value, error).
    """
    total_w = hi - lo
    if total_w <= 0.0:
        return 0.0, 0.0
    active_lo = np.array([lo])
    active_hi = np.array([hi])
    acc_lo, acc_val, acc_err = [], [], []
    acc_err_sum = 0.0

    while active_lo.size:
        centers = 0.5 * (active_lo + active_hi)
        halfw = 0.5 * (active_hi - active_lo)
        xs = centers[:, None] + halfw[:, None] * kernels.GK15_NODES
        fv = fn(xs)
        vals, errs = kernels.gk15_batch(fv, halfw)

        if acc_err_sum + float(errs.sum()) <= tol:
            acc_lo.append(active_lo)
            acc_val.append(vals)
            acc_err.append(errs)
            break

        widths = active_hi - active_lo
        budgets = tol * widths / total_w
        scale = np.maximum(np.maximum(np.abs(active_lo), np.abs(active_hi)), 1.0)
        done = (errs <= budgets) | (widths <= _MIN_REL_WIDTH * scale)
        if done.any():
            acc_lo.append(active_lo[done])
            acc_val.append(vals[done])
            acc_err.append(errs[done])
            acc_err_sum += float(errs[done].sum())
        split = ~done
        if not split.any():
            break
        m = centers[split]
        lo_s, hi_s = active_lo[split], active_hi[split]
        active_lo = np.empty(2 * m.size)
        active_hi = np.empty(2 * m.size)
        active_lo[0::2], active_lo[1::2] = lo_s, m
        active_hi[0::2], active_hi[1::2] = m, hi_s

    lo_all = np.concatenate(acc_lo)
    val_all = np.concatenate(acc_val)
    err_all = np.concatenate(acc_err)
    order = np.argsort(lo_all, kind="stable")
    value = kernels.neumaier_sum(val_all[order])
    error = kernels.neumaier_sum(err_all[order])
    return value, error


def _interval_sums(x, seg, n):
    """Sum of ``x`` over the panels of each of ``n`` intervals, bit for bit
    what ``x[seg == i].sum()`` gives; ``seg`` is sorted.

    NumPy sums fewer than 8 terms left to right from zero, which is what
    ``bincount`` does; its pairwise order for longer runs is reproduced by
    summing those runs one by one.
    """
    out = np.bincount(seg, weights=x, minlength=n)
    counts = np.bincount(seg, minlength=n)
    long_runs = (counts >= 8).nonzero()[0]
    if long_runs.size:
        ends = counts.cumsum()
        for i in long_runs:
            out[i] = x[ends[i] - counts[i] : ends[i]].sum()
    return out


def _adaptive_many(fn, lo, hi, tol):
    """Many independent :func:`_adaptive` runs, advanced in lock step.

    Interval i is [lo[i], hi[i]] with tolerance tol[i].  Each round makes
    one ``fn(seg, xs)`` call and one ``gk15_batch`` over the active panels
    of all intervals, where panel j belongs to interval ``seg[j]``; every
    interval takes exactly the decisions :func:`_adaptive` takes on it and
    sums its panels in ascending ``lo``.  At most ``_MAX_IN_FLIGHT``
    intervals are in flight; larger batches run as consecutive groups.
    Returns (values, errors) arrays.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), lo.shape)
    values, errors = np.zeros(lo.size), np.zeros(lo.size)
    for g in range(0, lo.size, _MAX_IN_FLIGHT):
        grp = slice(g, g + _MAX_IN_FLIGHT)
        values[grp], errors[grp] = _lockstep(fn, g, lo[grp], hi[grp], tol[grp])
    return values, errors


def _lockstep(fn, offset, lo, hi, tol):
    """One group of :func:`_adaptive_many`; ``fn`` sees ``seg + offset``."""
    n = lo.size
    total_w = hi - lo
    values, errors = np.zeros(n), np.zeros(n)
    # Active panels stay sorted by interval and ascending within it.
    seg = (total_w > 0.0).nonzero()[0]
    active_lo, active_hi = lo[seg], hi[seg]
    acc_err_sum = np.zeros(n)
    accepted = []

    while seg.size:
        centers = 0.5 * (active_lo + active_hi)
        halfw = 0.5 * (active_hi - active_lo)
        xs = centers[:, None] + halfw[:, None] * kernels.GK15_NODES
        vals, errs = kernels.gk15_batch(fn(seg + offset, xs), halfw)

        stop = acc_err_sum + _interval_sums(errs, seg, n) <= tol
        widths = active_hi - active_lo
        budgets = tol[seg] * widths / total_w[seg]
        scale = np.maximum(np.maximum(np.abs(active_lo), np.abs(active_hi)), 1.0)
        done = stop[seg] | (errs <= budgets) | (widths <= _MIN_REL_WIDTH * scale)
        accepted.append((seg[done], active_lo[done], vals[done], errs[done]))
        acc_err_sum += _interval_sums(errs[done], seg[done], n)

        split = ~done
        m = centers[split]
        lo_s, hi_s = active_lo[split], active_hi[split]
        seg = seg[split].repeat(2)
        active_lo = np.empty(2 * m.size)
        active_hi = np.empty(2 * m.size)
        active_lo[0::2], active_lo[1::2] = lo_s, m
        active_hi[0::2], active_hi[1::2] = m, hi_s

    if not accepted:
        return values, errors
    seg_all, lo_all, val_all, err_all = (np.concatenate(c) for c in zip(*accepted))
    order = np.lexsort((lo_all, seg_all))
    seg_all, val_all, err_all = seg_all[order], val_all[order], err_all[order]
    counts = np.bincount(seg_all, minlength=n)
    starts = counts.cumsum() - counts
    ids = counts.nonzero()[0]
    values[ids], errors[ids] = val_all[starts[ids]], err_all[starts[ids]]
    for i in (counts > 1).nonzero()[0]:
        part = slice(starts[i], starts[i] + counts[i])
        values[i] = kernels.neumaier_sum(val_all[part])
        errors[i] = kernels.neumaier_sum(err_all[part])
    return values, errors


def _shell_integrate(fn, s, far, tol_q, cauchy_tol, ratio, max_shells):
    """Improper-mode integration of the segment between ``far`` and the
    singular endpoint ``s`` via geometric shells.

    Stops once three consecutive shell integrals (the Cauchy differences of
    the partial sums) fall below ``cauchy_tol``; that threshold is then
    added to the reported error as the tail allowance.
    """
    span = far - s
    parts, errs = [], []
    small_run = 0
    frac = 1.0
    for m in range(max_shells):
        frac_in = frac * ratio
        x_out = s + span * frac
        x_in = s + span * frac_in
        a, b = (x_in, x_out) if x_in < x_out else (x_out, x_in)
        tol_shell = tol_q * (1.0 - ratio) * frac
        v, e = _adaptive(fn, a, b, tol_shell)
        parts.append(v)
        errs.append(e)
        if abs(v) < cauchy_tol:
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
        frac = frac_in
    else:
        raise ToleranceNotMet(
            f"shell integrals near singular point {s} did not settle "
            f"within {max_shells} shells",
            value=kernels.neumaier_sum(parts),
            evaluations=0,
        )
    value = kernels.neumaier_sum(parts)
    error = kernels.neumaier_sum(errs) + cauchy_tol
    return value, error


def _segments(iv: Interval, singular_points):
    """Split ``iv`` at interior singular points; mark singular-facing sides."""
    sings = sorted({float(s) for s in singular_points if iv.contains(float(s))})
    interior = [s for s in sings if iv.lo < s < iv.hi]
    bounds = [iv.lo] + interior + [iv.hi]
    singset = set(sings)
    segs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a == b:
            continue
        left, right = a in singset, b in singset
        if left and right:
            mid = 0.5 * (a + b)
            segs.append((a, mid, "left"))
            segs.append((mid, b, "right"))
        elif left:
            segs.append((a, b, "left"))
        elif right:
            segs.append((a, b, "right"))
        else:
            segs.append((a, b, None))
    return segs


def hk_integrate(
    f,
    iv: Interval,
    tol: float = 1e-10,
    singular_points: Sequence[float] = (),
    max_evals: int = DEFAULT_MAX_EVALS,
    shell_ratio: float = 0.5,
    max_shells: int = 4096,
) -> IntegralResult:
    """Henstock-Kurzweil integral of ``f`` over ``iv``.

    Plain segments use adaptive bisection with the GK 7/15 two-level error
    estimate.  Around each declared singular point the integral is taken in
    improper mode: geometric shells shrinking toward the point, stopped when
    the partial sums are Cauchy (three consecutive shell integrals below
    tol/4, per singular side).  This matches the limit characterization of
    the HK integral over expanding subintervals, which is what makes
    conditionally integrable oscillatory integrands computable.

    Raises :class:`ToleranceNotMet` if the evaluation budget runs out, and
    :class:`EvaluationError` if ``f`` returns non-finite values away from
    declared singular points.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if iv.width == 0.0:
        return IntegralResult(0.0, 0.0, 0)
    fn = _VecFn(f, max_evals)
    segs = _segments(iv, singular_points)
    n_sing = sum(1 for _, _, side in segs if side is not None)
    cauchy_tol = tol / (4.0 * max(1, n_sing))

    parts, errs = [], []
    try:
        for a, b, side in segs:
            tol_seg = 0.5 * tol * (b - a) / iv.width
            if side is None:
                v, e = _adaptive(fn, a, b, tol_seg)
            elif side == "left":
                v, e = _shell_integrate(
                    fn, a, b, tol_seg, cauchy_tol, shell_ratio, max_shells
                )
            else:
                v, e = _shell_integrate(
                    fn, b, a, tol_seg, cauchy_tol, shell_ratio, max_shells
                )
            parts.append(v)
            errs.append(e)
    except ToleranceNotMet as exc:
        exc.evaluations = int(fn.evals[0])
        raise

    value = kernels.neumaier_sum(parts)
    error = kernels.neumaier_sum(errs)
    evals = int(fn.evals[0])
    if error > tol:
        raise ToleranceNotMet(
            f"final error estimate {error:.3g} exceeds tol {tol:.3g}",
            value=value,
            error_estimate=error,
            evaluations=evals,
        )
    return IntegralResult(value, error, evals)


def _integrate_boxes(fn: _VecFn, roots, lead, lo, hi, tol):
    """Integrals over the boxes [lo[i], hi[i]] with ``lead[i]`` held fixed.

    The first axis is integrated by :func:`_adaptive_many`; its integrand
    solves the inner problems of all its nodes in one recursive call.  Inner
    integrals get tol/(2w) and the outer one tol/2, so w * inner_tol is
    added to the outer error as if every inner integral met its share.
    """
    if lo.shape[1] == 1:
        return _adaptive_many(
            lambda seg, xs: fn(xs, lead[seg], roots[seg]), lo[:, 0], hi[:, 0], tol
        )
    w = np.maximum(hi[:, 0] - lo[:, 0], _EPS)
    inner_tol = tol / (2.0 * w)

    def outer(seg, xs):
        i = np.repeat(seg, xs.shape[1])
        v, _ = _integrate_boxes(
            fn,
            roots[i],
            np.column_stack((lead[i], xs.ravel())),
            lo[i, 1:],
            hi[i, 1:],
            inner_tol[i],
        )
        return v.reshape(xs.shape)

    v, e = _adaptive_many(outer, lo[:, 0], hi[:, 0], 0.5 * tol)
    return v, e + w * inner_tol


def integrate_boxes(
    f,
    lo,
    hi,
    tol,
    dim_cap: int = DEFAULT_DIM_CAP,
    max_evals: int = DEFAULT_MAX_EVALS,
):
    """Tensor-product adaptive quadrature over many boxes in one pass.

    Box i spans ``lo[i]`` to ``hi[i]`` (arrays of shape (m, d)) with
    tolerance ``tol[i]`` (or one tol for all).  Every box is integrated as
    :func:`integrate_nd_result` would integrate it alone, with its own
    ``max_evals`` budget; boxes with a zero-width axis are 0.  Returns
    (values, errors, evaluations) arrays of length m.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.shape[1] > dim_cap:
        raise DimensionCapExceeded(f"dimension {lo.shape[1]} exceeds cap {dim_cap}")
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), lo.shape[:1])
    fn = _VecFn(f, max_evals, lo.shape[0])
    values, errors = np.zeros(lo.shape[0]), np.zeros(lo.shape[0])
    live = np.flatnonzero((hi > lo).all(axis=1))
    if live.size:
        lead = np.empty((live.size, 0))
        values[live], errors[live] = _integrate_boxes(
            fn, live, lead, lo[live], hi[live], tol[live]
        )
    return values, errors, fn.evals


def integrate_nd_result(
    f,
    box: Sequence[Interval],
    tol: float = 1e-8,
    dim_cap: int = DEFAULT_DIM_CAP,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> IntegralResult:
    """Tensor-product adaptive quadrature over a box; full result record.

    The box is a sequence of per-axis intervals.  The tolerance is split
    between the outer axis and the inner integrals (scaled by the outer
    width) so the propagated error stays below ``tol``.  This is the
    one-box case of :func:`integrate_boxes`.
    """
    box = list(box)
    if not box:
        raise ValueError("box must have at least one axis")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    values, errors, evals = integrate_boxes(
        f, [[iv.lo for iv in box]], [[iv.hi for iv in box]], tol, dim_cap, max_evals
    )
    return IntegralResult(float(values[0]), float(errors[0]), int(evals[0]))


def integrate_nd(f, box, tol: float = 1e-8, **kwargs) -> float:
    """Value-only convenience wrapper around :func:`integrate_nd_result`."""
    return integrate_nd_result(f, box, tol, **kwargs).value


def uniform_partition(iv: Interval, n: int, tags: str = "midpoint") -> TaggedPartition:
    """Uniform n-cell partition with midpoint or left tags (test helper)."""
    edges = np.linspace(iv.lo, iv.hi, n + 1)
    cells = []
    for a, b in zip(edges[:-1], edges[1:]):
        tag = 0.5 * (a + b) if tags == "midpoint" else a
        cells.append((tag, Interval(a, b)))
    return TaggedPartition(tuple(cells))
