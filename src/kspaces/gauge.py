"""One-dimensional gauge (Henstock-Kurzweil) integration.

Two modes:

* verification mode -- explicit gauges, tagged partitions and Riemann sums
  (:func:`is_delta_fine`, :func:`cousin_partition`, :func:`riemann_sum`);
* value mode -- :func:`hk_integrate_many` (one interval: :func:`hk_integrate`),
  adaptive bisection with a Gauss-Kronrod 7/15 error estimate, plus
  geometric shell refinement toward declared singular points so that
  improper/highly oscillatory integrands (the ones that are HK- but not
  Lebesgue-integrable) converge.

:func:`integrate_boxes` is the tensor-product quadrature used by the
higher-dimensional modules, and by :func:`hk_integrate_many` for intervals
without a singular point, over many boxes in one pass;
:func:`integrate_nd_result` is its one-box case.

:func:`_adaptive_many` is the one adaptive loop: many independent intervals
in lock step, with one integrand call and one GK15 call per round (per block
of a wide round, see below) over the active panels of all of them.  Shells
toward singular points run through it, all singular sides together: a side
that has seen k consecutive small shells needs at least 3 - k more before
its Cauchy rule can end it, so each step takes those shells of every
unsettled side in one call; after each step a side may also end by Wynn's
epsilon extrapolation of its partial sums, once the extrapolated limit has
held over a step.

Boxes are integrated by a recursion over axes: the integrand of the first
axis solves the inner problems of all its nodes in one recursive call, so f
is called once per round of the innermost lock step, never once per node.
At most ``_MAX_IN_FLIGHT`` intervals are in flight at each level; larger
batches run as consecutive groups, which bounds memory (a 6-D integral
peaks near 5 MB).  A round of more panels than that, as the shells of an
oscillatory singularity make, is evaluated in blocks of ``_MAX_IN_FLIGHT``
panels, so no integrand or GK15 call sees more than that many rows.

Integrands are callables of one array argument (for :func:`integrate_boxes`,
a box's k parameters and then its n coordinates) that return real values.
NumPy-vectorized callables are evaluated in batches; plain scalar functions
are detected automatically and looped over (slower).
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
SHELL_RATIO = 0.5
MAX_SHELLS = 4096

_EPS = float(np.finfo(np.float64).eps)
_BIG = float(np.finfo(np.float64).max)  # QUADPACK's oflow
_MIN_REL_WIDTH = 4.0 * _EPS
# Intervals that _adaptive_many advances together, and panels per integrand
# and GK15 call.  Larger batches run as consecutive groups, and wider rounds
# as consecutive blocks, which bounds memory: every level of a d-dimensional
# integral holds at most this many intervals.  A block's (1024, 15) float64
# array is 120 KiB, under glibc's default 128 KiB mmap threshold, so block
# temporaries are reused from the heap rather than mapped and faulted in
# every round; and 1024 * 15 = 15 * 1024, so a block of an outer box axis
# hands the inner axis exactly 15 whole groups.
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


def _real(r):
    """``r`` as a float64 array; raises if it is complex, whose cast to
    float would keep only the real part."""
    r = np.asarray(r)
    if r.dtype.kind == "c":
        raise EvaluationError(
            "integrand returned complex values; integrate the real and imaginary "
            "parts apart, as compute_functionals(..., complex_valued=True) does"
        )
    return r.astype(np.float64, copy=False)


class _VecFn:
    """Wraps an integrand; batch-evaluates and auto-detects vectorization.

    ``fn(xs, lead, roots)`` evaluates f at the points ``xs`` (m, 15).
    ``lead`` (m, j), or None for j = 0, holds each panel's ``n_params`` box
    parameters and then its leading coordinates, passed to f as (m, 1)
    columns before ``xs``.  Evaluations
    are counted per root problem, ``roots[j]`` being the one panel j is
    charged to, and each root has its own ``max_evals`` budget.
    """

    def __init__(self, f, max_evals: int, n_roots: int = 1, n_params: int = 0):
        self.f = f
        self.n_params = n_params
        self.vectorized = None
        self.evals = np.zeros(n_roots, dtype=np.int64)
        self.max_evals = max_evals

    def _elementwise(self, xs, lead):
        out = np.empty(xs.shape)
        for j, row in enumerate(lead.tolist()):
            for q, x in enumerate(xs[j].tolist()):
                try:
                    out[j, q] = float(_real(self.f(*row, x)))
                except EvaluationError:
                    raise
                except Exception as exc:
                    point = (*row[self.n_params :], x)
                    raise EvaluationError(f"integrand failed at {point}") from exc
        return out

    def _vectorized(self, xs, lead):
        cols = [lead[:, c : c + 1] for c in range(lead.shape[1])]
        r = _real(self.f(*cols, xs))
        if r.shape != xs.shape:
            # constant, or a function of the leading coordinates only
            r = np.broadcast_to(r, xs.shape)
        return r

    def __call__(self, xs, lead, roots):
        self.evals += xs.shape[1] * np.bincount(roots, minlength=self.evals.size)
        spent = int(self.evals.max())
        if spent > self.max_evals:
            raise ToleranceNotMet(
                "evaluation budget exhausted before convergence", evaluations=spent
            )
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
            point = (*lead[j, self.n_params :].tolist(), float(xs[j, q]))
            where = f"at {point}" if len(point) > 1 else f"near x={point[0]!r}"
            if not lead.shape[1]:  # a 1-D interval, which may declare the point
                where += "; declare the point as singular if this is an improper integral"
            raise EvaluationError(f"integrand non-finite {where}")
        return r


def _ends(lo, hi, ndim):
    """``lo`` and ``hi`` as float64 arrays; raises ValueError unless both
    have one shape of ``ndim`` axes and, as :class:`Interval` does, every
    pair is finite with lo <= hi."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.shape != hi.shape or lo.ndim != ndim:
        raise ValueError(
            f"lo and hi must be {ndim}-D arrays of one shape, got {lo.shape} and {hi.shape}"
        )
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("interval endpoints must be finite")
    if (lo > hi).any():
        j = np.argmax(lo > hi)
        raise ValueError(f"interval has lo={lo.flat[j]} > hi={hi.flat[j]}")
    return lo, hi


def _gk15_round(fn, lo, hi, *args):
    """One GK15 round over the panels [lo[j], hi[j]], ``fn(*args, xs)``
    giving the integrand at their nodes xs (m, 15), each of ``args``
    having one entry per panel.  A round of more than ``_MAX_IN_FLIGHT``
    panels runs in consecutive blocks of that many, each with its own
    nodes, ``fn`` call and ``gk15_batch`` call.  Returns (centers, values,
    errors)."""
    if lo.size > _MAX_IN_FLIGHT:
        blocks = [slice(g, g + _MAX_IN_FLIGHT) for g in range(0, lo.size, _MAX_IN_FLIGHT)]
        parts = [_gk15_round(fn, lo[b], hi[b], *(a[b] for a in args))[1:] for b in blocks]
        vals, errs = (np.concatenate(c) for c in zip(*parts))
        return 0.5 * (lo + hi), vals, errs
    centers = 0.5 * (lo + hi)
    halfw = 0.5 * (hi - lo)
    xs = centers[:, None] + halfw[:, None] * kernels.GK15_NODES
    vals, errs = kernels.gk15_batch(fn(*args, xs), halfw)
    return centers, vals, errs


def _settled(lo, hi, errs, tol, total_w):
    """Panels accepted as they stand: the error is within the panel's
    width-proportional share tol * width / total_w of its interval's
    tolerance, or the panel is too narrow to split.  Forcing the narrow ones
    makes every loop end, with their errors still in the total."""
    widths = hi - lo
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
    return (errs <= tol * widths / total_w) | (widths <= _MIN_REL_WIDTH * scale)


def _bisect(lo, hi, centers, split):
    """Both halves of every ``split`` panel, in the panel's place, so the
    panels of an interval stay in ascending order."""
    m = centers[split]
    new_lo = np.empty(2 * m.size)
    new_hi = np.empty(2 * m.size)
    new_lo[0::2], new_lo[1::2] = lo[split], m
    new_hi[0::2], new_hi[1::2] = m, hi[split]
    return new_lo, new_hi


def _error_sums(errs, seg, n):
    """Error total of each of ``n`` intervals, panel j belonging to interval
    ``seg[j]``: summed left to right in panel order, the one order the stop
    test uses (``ndarray.sum`` regroups runs of 8 or more)."""
    return np.bincount(seg, weights=errs, minlength=n)


def _group_sums(seg, vals, errs, n):
    """Exactly rounded sums of ``vals`` and of ``errs`` for each of ``n``
    groups, term j belonging to group ``seg[j]``; empty groups are 0."""
    order = np.argsort(seg, kind="stable")
    seg, vals, errs = seg[order], vals[order], errs[order]
    counts = np.bincount(seg, minlength=n)
    starts = counts.cumsum() - counts
    values, errors = np.zeros(n), np.zeros(n)
    ids = counts.nonzero()[0]
    values[ids], errors[ids] = vals[starts[ids]], errs[starts[ids]]
    for i in (counts > 1).nonzero()[0]:
        part = slice(starts[i], starts[i] + counts[i])
        values[i] = kernels.neumaier_sum(vals[part])
        errors[i] = kernels.neumaier_sum(errs[part])
    return values, errors


def _adaptive_many(fn, lo, hi, tol):
    """Breadth-first GK15 refinement of many intervals, in lock step.

    Interval i is [lo[i], hi[i]] with tolerance tol[i].  Each round makes
    one ``fn(seg, xs)`` call and one ``gk15_batch`` over the active panels
    of all intervals (one of each per block, :func:`_gk15_round`), where
    panel j belongs to interval ``seg[j]``.  Panels over their
    width-proportional share of tol are split and too narrow ones
    force-accepted (:func:`_settled`); an interval stops once its error
    total is within tol.  At most ``_MAX_IN_FLIGHT`` intervals are in
    flight; larger batches run as consecutive groups.  Returns (values,
    errors) arrays.
    """
    values, errors = np.zeros(lo.size), np.zeros(lo.size)
    for g in range(0, lo.size, _MAX_IN_FLIGHT):
        grp = slice(g, g + _MAX_IN_FLIGHT)
        values[grp], errors[grp] = _lockstep(fn, g, lo[grp], hi[grp], tol[grp])
    return values, errors


def _lockstep(fn, offset, lo, hi, tol):
    """One group of :func:`_adaptive_many`; ``fn`` sees ``seg + offset``."""
    n = lo.size
    total_w = hi - lo
    # Active panels stay grouped by interval, each interval's in ascending order.
    seg = (total_w > 0.0).nonzero()[0]
    active_lo, active_hi = lo[seg], hi[seg]
    acc_err_sum = np.zeros(n)
    accepted = []

    while seg.size:
        centers, vals, errs = _gk15_round(fn, active_lo, active_hi, seg + offset)
        stop = acc_err_sum + _error_sums(errs, seg, n) <= tol
        done = stop[seg] | _settled(active_lo, active_hi, errs, tol[seg], total_w[seg])
        accepted.append((seg[done], vals[done], errs[done]))
        acc_err_sum += _error_sums(errs[done], seg[done], n)
        active_lo, active_hi = _bisect(active_lo, active_hi, centers, ~done)
        seg = seg[~done].repeat(2)

    if not accepted:
        return np.zeros(n), np.zeros(n)
    return _group_sums(*(np.concatenate(c) for c in zip(*accepted)), n)


class _Wynn:
    """Wynn's epsilon algorithm (Wynn 1956) over the partial sums of one
    singular side's shells, one sum at a time: QUADPACK's ``qelg``
    (Piessens et al. 1983), with its table of at most ``limexp`` = 50 sums,
    its last three results ``res3la`` and its call count ``nres``.  As in
    ``qagse``, the first call sees three sums.  :meth:`add` takes the next
    shell integral and returns the extrapolated limit and its abserr: from
    the fourth call (the sixth sum) on, the limit's distances from the three
    results before it, summed, and never below 5 eps |limit|; before that,
    the largest float.  Where qelg finds three entries of a column equal to
    machine accuracy, it returns their value with abserr about 0; here that
    value's abserr is the res3la spread too, so no abserr falls within a
    tolerance before the sixth sum.  Each call costs O(limexp)."""

    LIMEXP = 50

    def __init__(self):
        self.total, self.comp = 0.0, 0.0  # Neumaier running sum of the shells
        self.table = [0.0] * (self.LIMEXP + 2)  # QUADPACK's epstab
        self.n = 0  # sums in the table
        self.res3la = [0.0] * 3
        self.nres = 0

    def add(self, shell):
        t = self.total + shell
        if abs(self.total) >= abs(shell):
            self.comp += (self.total - t) + shell
        else:
            self.comp += (shell - t) + self.total
        self.total = t
        e, n = self.table, self.n
        if n == self.LIMEXP:
            # qelg drops the oldest sum at the end of a call that leaves
            # limexp; here it is dropped before the next one
            e[: n - 1] = e[1:n]
            n -= 1
        e[n] = self.total + self.comp
        self.n = n = n + 1
        if self.nres == 0 and n < 3:
            return e[n - 1], _BIG
        self.nres += 1
        result, abserr = self._qelg()
        return result, max(abserr, 5.0 * _EPS * abs(result))

    def _qelg(self):
        """qelg short of its final floor on abserr; ``e[i - 1]`` is its
        ``epstab(i)``.  May shrink the table, updating ``n``."""
        e, n = self.table, self.n
        result, abserr = e[n - 1], _BIG
        if n < 3:
            return result, abserr
        e[n + 1] = e[n - 1]
        newelm = (n - 1) // 2
        e[n - 1] = _BIG
        num = k1 = n
        for i in range(1, newelm + 1):
            res = e[k1 + 1]
            e0, e1, e2 = e[k1 - 3], e[k1 - 2], res
            delta2, delta3 = e2 - e1, e1 - e0
            err2, err3 = abs(delta2), abs(delta3)
            tol2 = max(abs(e2), abs(e1)) * _EPS
            tol3 = max(abs(e1), abs(e0)) * _EPS
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 equal to machine accuracy: qelg returns res
                # here with abserr err2 + err3, about 0 however few sums led
                # to it, and leaves the table half updated.  Here res is
                # judged by the res3la spread as any result is, and the
                # table is cut as for two close elements just below
                result = res
            e3 = e[k1 - 1]
            e[k1 - 1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(abs(e1), abs(e3)) * _EPS
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = 2 * i - 1  # two close elements: keep the newest n sums
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = 2 * i - 1  # irregular behaviour: keep the newest n sums
                break
            res = e1 + 1.0 / ss
            e[k1 - 1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr, result = error, res
        ib = 1 if num % 2 else 2  # shift the table
        for _ in range(newelm + 1):
            e[ib - 1] = e[ib + 1]
            ib += 2
        if num != n:
            e[:n] = e[num - n : num]
        self.n = n
        if self.nres < 4:
            self.res3la[self.nres - 1] = result
            return result, _BIG
        r = self.res3la
        abserr = abs(result - r[2]) + abs(result - r[1]) + abs(result - r[0])
        self.res3la = [r[1], r[2], result]
        return result, abserr


def _shell_integrate(f, lo, hi, sings, tol, max_evals):
    """Improper-mode (values, errors, evaluations) over [lo[i], hi[i]],
    each holding one of ``sings`` and with its own tolerance ``tol[i]`` and
    ``max_evals`` budget.

    Each singular side (:func:`_segments`) is integrated in geometric
    shells shrinking toward its singular point.  After each step a side
    stops on the first of two rules:

    * Cauchy: ``run`` consecutive shell integrals (the Cauchy differences
      of its partial sums) fell below its ``cauchy_tol``.  Its value is the
      sum of its shells, and its error includes ``cauchy_tol`` as the tail
      allowance.
    * epsilon: :class:`_Wynn`'s abserr was within ``cauchy_tol`` at the
      step end before, and its abserr now plus the move of its limit over
      the step is too.  Its value is the extrapolated limit, and its error
      includes that abserr and move.

    So an extrapolated limit must hold over a step of further shells, as a
    small shell must be followed by more before the Cauchy rule ends a side.
    A side with k small shells in a row needs at least run - k more before
    the Cauchy rule can end it, so each step takes that many shells of every
    unsettled side in one :func:`_adaptive_many` call.
    """
    run = 3  # consecutive small shells that settle a side
    sides = []  # (interval, singular point, span, tol_q, cauchy_tol)
    for i, (a, b, t) in enumerate(zip(lo.tolist(), hi.tolist(), tol.tolist())):
        pairs = _segments(a, b, sings)
        sides += [
            (i, s, far - s, 0.5 * t * abs(far - s) / (b - a), t / (4.0 * len(pairs)))
            for s, far in pairs
        ]
    root, s, span, tol_q, cauchy_tol = np.array(sides).T
    root = root.astype(np.intp)
    frac = np.ones(root.size)
    small, shells = np.zeros((2, root.size), dtype=np.intp)  # run length, shells done
    fn = _VecFn(f, max_evals, lo.size)
    done = []  # (side, value, error) of every shell, in shell order per side
    wynn = [_Wynn() for _ in range(root.size)]
    limit, abserr = np.zeros((2, root.size))  # each side's latest epsilon result
    before = np.zeros(root.size)  # its limit at the step end before
    held = np.zeros(root.size, dtype=bool)  # its abserr was within cauchy_tol there
    by_eps = np.zeros(root.size, dtype=bool)  # sides the epsilon rule ended
    tail = cauchy_tol.copy()  # each side's allowance for the shells not taken

    live = np.arange(root.size)
    while live.size:
        take = np.minimum(run - small[live], MAX_SHELLS - shells[live])
        shells[live] += take
        batch = []  # for each j: the sides taking a j-th shell this step, their frac
        for j in range(take.max()):
            k = live[take > j]
            batch.append((k, frac[k]))
            frac[k] *= SHELL_RATIO
        side, f_out = (np.concatenate(c) for c in zip(*batch))
        x_out = s[side] + span[side] * f_out
        x_in = s[side] + span[side] * (f_out * SHELL_RATIO)
        v, e = _adaptive_many(
            lambda seg, xs: fn(xs, None, root[side[seg]]),
            np.minimum(x_in, x_out),
            np.maximum(x_in, x_out),
            tol_q[side] * (1.0 - SHELL_RATIO) * f_out,
        )
        done.append((side, v, e))
        at = 0
        for k, _ in batch:  # each side's shells in shell order
            vk = v[at : at + k.size]
            small[k] = np.where(np.abs(vk) < cauchy_tol[k], small[k] + 1, 0)
            for i, x in zip(k.tolist(), vk.tolist()):
                limit[i], abserr[i] = wynn[i].add(x)
            at += k.size
        cauchy = small[live] >= run
        eps_tail = abserr[live] + np.abs(limit[live] - before[live])
        eps = ~cauchy & held[live] & (eps_tail <= cauchy_tol[live])
        by_eps[live], tail[live[eps]] = eps, eps_tail[eps]
        before[live], held[live] = limit[live], abserr[live] <= cauchy_tol[live]
        live = live[~cauchy & ~eps]
        failed = live[shells[live] >= MAX_SHELLS]
        if failed.size:
            k = failed[0]
            side, v, _ = (np.concatenate(c) for c in zip(*done))
            raise ToleranceNotMet(
                f"shell integrals near singular point {float(s[k])} did not "
                f"settle within {MAX_SHELLS} shells",
                value=kernels.neumaier_sum(v[side == k]),
                evaluations=int(fn.evals[root[k]]),
            )

    side_v, side_e = _group_sums(*(np.concatenate(c) for c in zip(*done)), root.size)
    side_v = np.where(by_eps, limit, side_v)
    values, errors = _group_sums(root, side_v, side_e + tail, lo.size)
    return values, errors, fn.evals


def _segments(lo: float, hi: float, sings):
    """(singular point, far end) pairs covering [lo, hi], which holds at
    least one of ``sings``: split at the interior singular points, every
    piece has a singular end, and a piece with two is split at its middle."""
    inside = [s for s in sings if lo <= s <= hi]
    bounds = sorted({lo, hi, *inside})
    pairs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a in inside and b in inside:
            mid = 0.5 * (a + b)
            pairs += [(a, mid), (b, mid)]
        else:
            pairs.append((a, b) if a in inside else (b, a))
    return pairs


def _holding(lo, hi, sings):
    """Which intervals [lo[i], hi[i]] of positive width hold one of the
    points ``sings`` (an array): those integrated in shells."""
    return (hi > lo) & ((lo[:, None] <= sings) & (sings <= hi[:, None])).any(axis=1)


def _hk_many(f, lo, hi, tol, singular_points, max_evals):
    """:func:`hk_integrate_many` short of its final check: (values, errors,
    evaluations) whatever the errors, ``tol`` broadcast to one per interval."""
    tol = np.asarray(tol, dtype=np.float64)
    if not (tol > 0.0).all():
        raise ValueError("tol must be positive")
    lo, hi = _ends(lo, hi, 1)
    tol = np.broadcast_to(tol, lo.shape)
    sings = np.asarray(singular_points, dtype=np.float64)
    if sings.ndim != 1:
        raise ValueError(f"singular_points must be a 1-D sequence, got shape {sings.shape}")
    if not np.isfinite(sings).all():
        raise ValueError(f"singular points must be finite, got {sings.tolist()}")
    shelled = _holding(lo, hi, sings)
    plain = np.flatnonzero(~shelled)
    values, errors = np.zeros(lo.size), np.zeros(lo.size)
    evals = np.zeros(lo.size, dtype=np.int64)

    values[plain], errors[plain], evals[plain] = integrate_boxes(
        f, lo[plain, None], hi[plain, None], 0.5 * tol[plain], max_evals
    )
    held = np.flatnonzero(shelled)
    if held.size:
        values[held], errors[held], evals[held] = _shell_integrate(
            f, lo[held], hi[held], sings.tolist(), tol[held], max_evals
        )
    return values, errors, evals


def hk_integrate_many(
    f,
    lo,
    hi,
    tol,
    singular_points: Sequence[float] = (),
    max_evals: int = DEFAULT_MAX_EVALS,
):
    """Henstock-Kurzweil integrals of ``f`` over [lo[i], hi[i]], each with
    its own tolerance ``tol[i]`` (or one tol for all) and ``max_evals``
    budget; returns (values, errors, evaluations).

    Intervals holding no declared singular point run together in one
    :func:`integrate_boxes` pass at tol/2.  Around each singular point the
    integral is taken in improper mode: geometric shells shrinking toward
    the point, each side stopped by the first of two rules on its partial
    sums, with cauchy_tol = tol/4 shared among the singular sides.  Either
    the sums are Cauchy (three consecutive shell integrals below
    cauchy_tol: the value is their sum, cauchy_tol is added to the error),
    or Wynn's epsilon algorithm extrapolates their limit with an abserr
    within cauchy_tol at two step ends in a row, the limit moving between
    them by no more than what the last abserr leaves of cauchy_tol (the
    value is that limit, abserr and the move are added to the error).  The
    shells of all singular sides of all intervals run in lock step, in one
    :func:`_shell_integrate` pass.  This matches the limit characterization
    of the HK integral over expanding subintervals, which is what makes
    conditionally integrable oscillatory integrands computable.

    Raises :class:`ToleranceNotMet` if a budget runs out or an interval's
    error estimate exceeds its tol, :class:`EvaluationError` if ``f``
    returns non-finite values away from declared singular points, and
    :class:`ValueError`, as :class:`Interval` does, for an interval with a
    non-finite end or lo > hi, as well as for ``lo`` and ``hi`` that are not
    1-D arrays of one shape, a tol that does not broadcast to them or is not
    positive, or a non-finite singular point.
    """
    values, errors, evals = _hk_many(f, lo, hi, tol, singular_points, max_evals)
    tol = np.broadcast_to(tol, values.shape)
    over = np.flatnonzero(errors > tol)
    if over.size:
        i = over[0]
        raise ToleranceNotMet(
            f"final error estimate {errors[i]:.3g} exceeds tol {tol[i]:.3g} "
            f"on [{float(lo[i])!r}, {float(hi[i])!r}]",
            value=float(values[i]),
            error_estimate=float(errors[i]),
            evaluations=int(evals[i]),
        )
    return values, errors, evals


def hk_integrate(
    f,
    iv: Interval,
    tol: float = 1e-10,
    singular_points: Sequence[float] = (),
    max_evals: int = DEFAULT_MAX_EVALS,
) -> IntegralResult:
    """Henstock-Kurzweil integral of ``f`` over ``iv``: the one-interval
    case of :func:`hk_integrate_many`, raising what it raises."""
    values, errors, evals = hk_integrate_many(
        f, [iv.lo], [iv.hi], tol, singular_points, max_evals
    )
    return IntegralResult(float(values[0]), float(errors[0]), int(evals[0]))


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


def integrate_boxes(f, lo, hi, tol, max_evals: int = DEFAULT_MAX_EVALS, params=None):
    """Tensor-product adaptive quadrature over many boxes in one pass.

    Box i spans ``lo[i]`` to ``hi[i]`` (arrays of shape (m, d)) with
    tolerance ``tol[i]`` (or one tol for all).  ``params`` (m, k), if
    given, holds constants of each box, passed to f as its first k
    arguments, so box i integrates ``f(*params[i], x_1, ..., x_d)``.  Every
    box is integrated as :func:`integrate_nd_result` would integrate it
    alone, with its own ``max_evals`` budget; boxes with a zero-width axis
    are 0.  An axis with a non-finite end or lo > hi, ``lo`` and ``hi``
    not of one (m, d) shape, or ``params`` not of m rows raise
    :class:`ValueError`.  Returns (values, errors, evaluations) arrays of
    length m.
    """
    lo, hi = _ends(lo, hi, 2)
    if lo.shape[1] > DEFAULT_DIM_CAP:
        raise DimensionCapExceeded(
            f"dimension {lo.shape[1]} exceeds cap {DEFAULT_DIM_CAP}"
        )
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), lo.shape[:1])
    if not (tol > 0.0).all():
        raise ValueError("tol must be positive")
    params = np.empty((lo.shape[0], 0)) if params is None else np.asarray(params, np.float64)
    if params.ndim != 2 or params.shape[0] != lo.shape[0]:
        raise ValueError(
            f"params must be a 2-D array of one row per box, got {params.shape} "
            f"for {lo.shape[0]} boxes"
        )
    fn = _VecFn(f, max_evals, lo.shape[0], params.shape[1])
    values, errors = np.zeros(lo.shape[0]), np.zeros(lo.shape[0])
    live = np.flatnonzero((hi > lo).all(axis=1))
    if live.size:
        values[live], errors[live] = _integrate_boxes(
            fn, live, params[live], lo[live], hi[live], tol[live]
        )
    return values, errors, fn.evals


def integrate_nd_result(
    f,
    box: Sequence[Interval],
    tol: float = 1e-8,
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
    values, errors, evals = integrate_boxes(
        f, [[iv.lo for iv in box]], [[iv.hi for iv in box]], tol, max_evals
    )
    return IntegralResult(float(values[0]), float(errors[0]), int(evals[0]))


def uniform_partition(iv: Interval, n: int, tags: str = "midpoint") -> TaggedPartition:
    """Uniform n-cell partition with midpoint or left tags (test helper)."""
    edges = np.linspace(iv.lo, iv.hi, n + 1)
    cells = []
    for a, b in zip(edges[:-1], edges[1:]):
        tag = 0.5 * (a + b) if tags == "midpoint" else a
        cells.append((tag, Interval(a, b)))
    return TaggedPartition(tuple(cells))
