"""One-dimensional gauge (Henstock-Kurzweil) integration.

Two modes:

* verification mode -- explicit gauges, tagged partitions and Riemann sums
  (:func:`is_delta_fine`, :func:`cousin_partition`, :func:`riemann_sum`);
* value mode -- :func:`hk_integrate_many` (one interval: :func:`hk_integrate`),
  adaptive refinement with a Gauss-Kronrod 7/15 error estimate, plus
  shell refinement toward declared singular points so that
  improper/highly oscillatory integrands (the ones that are HK- but not
  Lebesgue-integrable) converge.  Panels are halved; inside a shell, those
  GK15 leaves unresolved are quartered (:func:`_adaptive_many`).  Intervals
  are first cut at the integrand's ``breakpoints``, where it may jump.

Shells are geometric (:func:`_dyadic`), except on a side toward the point s
of the integrand's ``phase`` (s, c, k): an integrand that oscillates as sin
or cos of c (x - s)^-k, such as F' = (x^2 sin x^-2)'.  Dyadic shells cannot
resolve those oscillations cheaply, as GK15 needs about one per panel
before its estimate can be trusted.  That side is cut at the zeros of the
phase, x_n = s +- (|c| / (n pi))^(1/k), and every half-period is a shell
(:func:`_half_periods`), so the partial sums are those of an alternating
series that Wynn's epsilon algorithm extrapolates, as QUADPACK's QAWF
(Piessens et al. 1983) and Longman (1956) do cycle by cycle.  The side may
end only while the integrals of |f| over its half-periods fall toward 0
(:func:`_shrinks`), since sums sampled at the zeros alone can converge
where the integral does not.

:func:`integrate_boxes` is the tensor-product quadrature used by the
higher-dimensional modules, over many boxes in one pass;
:func:`integrate_nd_result` is its one-box case.  Its core,
:func:`_integrate_boxes`, also takes :func:`hk_integrate_many`'s intervals
without a singular point.

:func:`_adaptive_many` is the one adaptive loop: many independent intervals
in lock step, with one integrand call and one GK15 call per round (per block
of a wide round, see below) over the active panels of all of them.  Shells
toward singular points run through it, all singular sides together: a side
that has seen k consecutive small shells needs at least 3 - k more before
its Cauchy rule can end it, so each step takes those shells of every
unsettled side in one call; after each step a side may also end by Wynn's
epsilon extrapolation of its partial sums, once the extrapolated limit has
held over a step.

The lock step has one more mode, :mod:`kspaces.cells`, which reads the 1-D
K^p functionals off dyadic panel interpolants, each round one integrand
call through one :class:`_VecFn` that counts the evaluations and holds the
budget.  Its intervals are panels of the window's dyadic grid.  A panel
that holds two leaf cells or more is accepted when f at its eight
Kronrod-only nodes lies within its share of the tol of the Gauss-7
interpolant, and then keeps its 15 node values, off which each cell it
holds is read; this estimate is as blind between the nodes as GK15's.  A
panel within one cell is a GK15 panel.  The cells holding a singular point
keep their shells, and those holding a breakpoint enter the pass cut
there, as the intervals of :func:`hk_integrate_many` are.

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
are detected automatically and looped over (slower).  Their floating-point
warnings are silenced once per engine entry, by one ``np.errstate`` around
the integration in :func:`hk_integrate_many` (through its core, which
:mod:`kspaces.kp` calls too) and in :func:`integrate_boxes`, not once per
integrand call; a non-finite value still raises :class:`EvaluationError`.
``kernels.gk15_batch`` keeps its own, for its direct callers.

An integrand of :func:`integrate_boxes` may return c real components on a
trailing axis, (m, 15, c) where a scalar one returns (m, 15).  They share
the nodes, each node counted as one evaluation, and ``kernels.gk15_batch``
takes them as one (m c, 15) matrix product.  A panel is settled when every
component's error is within its width share, and an interval stops when
every component's error total is within tol: the max norm over the
components, as ``scipy.integrate.quad_vec`` judges a vector, over QUADPACK's
GK15 pair.  The lock step, the group sums, the breakpoint pieces and the
recursion over box axes carry (m, c) arrays; a scalar integrand keeps its
(m,) arrays, and a trailing axis of one gives its values bit for bit.
:mod:`kspaces.fourier` integrates a transform's real and imaginary parts as
the two components of one pass.  :func:`integrate_boxes` is the one entry
that takes a vector integrand: :func:`hk_integrate`, :func:`hk_integrate_many`
and :func:`integrate_nd_result` raise ValueError on one.  Two callers keep
two scalar passes.  The real and imaginary parts of complex K^p functionals
(:func:`kspaces.kp.compute_functionals`) may hold singular points, and a
singular side's stop rules (:func:`_side`) judge one sequence of shell
integrals, not several.  And ``ks inner`` evaluates both of its expressions
at every node either way, while one pass over both would cut every leaf at
the breakpoints of both.

A GK15 round has a fixed cost beside its panels' work: about 15 NumPy calls
of bookkeeping, one integrand call and ``gk15_batch``'s 20 or so.  A
one-round :func:`_adaptive_many` over one panel takes about 34 us, 18 us of
it in ``gk15_batch``, and a one-panel :func:`hk_integrate` about 60 us
(2-vCPU host, Python 3.11.7, NumPy 2.4.6), so a small integral costs about
its rounds whatever its panels.  A group settled in its first round returns
its panels' values and errors as they are, skipping the summing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count, islice, zip_longest
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
# A shell's tolerance never falls below this multiple of its side's last
# shell integral, times max(1, |s| / |x - s|): near an interior singular
# point s the integrand's nodes are rounded to ulp(s), relative noise of
# about eps |s| / |x - s|.  GK15 floors each panel's error at 50 eps
# resabs, so a tol shrinking with the shell's width would otherwise fall
# below what the shell can resolve, and its panels would split down to the
# width floor.
_SHELL_FLOOR = 64.0 * _EPS
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
            "parts apart, as compute_functionals does"
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

    f may return c real components on a trailing axis, (m, 15, c) where a
    scalar f returns (m, 15) (a (c,) array per point from f detected as not
    vectorized), counted as one evaluation per node; unless ``components``
    is true, that raises ValueError.
    """

    def __init__(self, f, max_evals: int, n_roots: int = 1, n_params: int = 0, components=False):
        self.f = f
        self.n_params = n_params
        self.components = components
        self.vectorized = None
        self.evals = np.zeros(n_roots, dtype=np.int64)
        self.max_evals = max_evals

    def _elementwise(self, xs, lead):
        out = None  # shaped by the first value: a float, or c components
        rows = lead.tolist() if lead is not None else [[]] * xs.shape[0]
        for j, row in enumerate(rows):
            for q, x in enumerate(xs[j].tolist()):
                try:
                    r = _real(self.f(*row, x))
                    if out is None:
                        out = np.empty(xs.shape + (r.shape if r.ndim == 1 else ()))
                    out[j, q] = r
                except EvaluationError:
                    raise
                except Exception as exc:
                    point = (*row[self.n_params :], x)
                    raise EvaluationError(f"integrand failed at {point}", point) from exc
        return out

    def _vectorized(self, xs, lead):
        cols = [] if lead is None else [lead[:, c : c + 1] for c in range(lead.shape[1])]
        r = self.f(*cols, xs)
        if type(r) is not np.ndarray or r.dtype != np.float64:
            r = _real(r)
        if r.shape != xs.shape and r.shape[:-1] != xs.shape:
            # constant, a function of the leading coordinates only, or (3-D)
            # components on a trailing axis
            r = np.broadcast_to(r, xs.shape + r.shape[2:] if r.ndim == 3 else xs.shape)
        return r

    def __call__(self, xs, lead, roots):
        evals = self.evals
        if evals.size == 1:  # every panel is charged to the one root
            evals += xs.size
            spent = int(evals[0])
        else:
            evals += xs.shape[1] * np.bincount(roots, minlength=evals.size)
            spent = int(evals.max())
        if spent > self.max_evals:
            raise ToleranceNotMet(
                "evaluation budget exhausted before convergence", evaluations=spent
            )
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
        if r.ndim == 3 and not self.components:
            raise ValueError(
                f"the integrand returned {r.shape[2]} components on a trailing axis; "
                "only integrate_boxes takes a vector integrand"
            )
        if not np.isfinite(r).all():
            j, q = np.argwhere(~np.isfinite(r))[0][:2]
            coords = [] if lead is None else lead[j, self.n_params :].tolist()
            point = (*coords, float(xs[j, q]))
            where = f"at {point}" if len(point) > 1 else f"near x={point[0]!r}"
            if lead is None or not lead.shape[1]:  # a 1-D interval, which may declare the point
                where += "; declare the point as singular if this is an improper integral"
            raise EvaluationError(f"integrand non-finite {where}", point)
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
    errors, unresolved, masses), concatenated over the blocks: the last two
    are ``gk15_batch``'s flag of the panels whose Gauss and Kronrod results
    still disagree at full scale, which a shell round quarters
    (:func:`_adaptive_many`), and each panel's integral of |f|; the last
    four are (m, c) for an integrand of c components."""
    if lo.size > _MAX_IN_FLIGHT:
        blocks = [slice(g, g + _MAX_IN_FLIGHT) for g in range(0, lo.size, _MAX_IN_FLIGHT)]
        parts = [_gk15_round(fn, lo[b], hi[b], *(a[b] for a in args))[1:] for b in blocks]
        return (0.5 * (lo + hi), *(np.concatenate(c) for c in zip(*parts)))
    centers = 0.5 * (lo + hi)
    halfw = 0.5 * (hi - lo)
    xs = centers[:, None] + halfw[:, None] * kernels.GK15_NODES
    return (centers, *kernels.gk15_batch(fn(*args, xs), halfw))


def _settled(lo, hi, errs, tol, total_w):
    """Panels accepted as they stand: the error is within the panel's
    width-proportional share tol * width / total_w of its interval's
    tolerance, or the panel is too narrow to split.  Forcing the narrow ones
    makes every loop end, with their errors still in the total."""
    widths = hi - lo
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
    return (errs <= tol * widths / total_w) | (widths <= _MIN_REL_WIDTH * scale)


def _bisect(lo, hi, centers, split, four=None):
    """Both halves of every ``split`` panel, in the panel's place, so the
    panels of an interval stay in ascending order.  ``four``, if given,
    has one entry per split panel and marks those cut into their four
    quarters instead: the grandchildren bisection would make, with edges
    0.5 (lo + m) and 0.5 (m + hi) computed as bisecting each half computes
    its center, so every panel stays on the dyadic grid of its interval."""
    m = centers[split]
    lo, hi = lo[split], hi[split]
    if four is None:
        new_lo = np.empty(2 * m.size)
        new_hi = np.empty(2 * m.size)
        new_lo[0::2], new_lo[1::2] = lo, m
        new_hi[0::2], new_hi[1::2] = m, hi
        return new_lo, new_hi
    edges = np.column_stack((lo, 0.5 * (lo + m), m, 0.5 * (m + hi), hi))
    every = np.ones_like(four)
    keep = np.column_stack((every, four, every, four, every))
    return edges[:, :-1][keep[:, :-1]], edges[:, 1:][keep[:, 1:]]


def _by_component(seg, c):
    """Group j c + k for component k of term j, which belongs to group
    ``seg[j]``: the terms of an (m, c) array, raveled, as c groups each."""
    return (seg[:, None] * c + np.arange(c)).ravel()


def _error_sums(errs, seg, n):
    """Error total of each of ``n`` intervals, panel j belonging to interval
    ``seg[j]``: summed left to right in panel order, the one order the stop
    test uses (``ndarray.sum`` regroups runs of 8 or more).  (m, c) errors
    give (n, c) totals, one column per component."""
    if errs.ndim == 1:
        return np.bincount(seg, weights=errs, minlength=n)
    c = errs.shape[1]
    return np.bincount(_by_component(seg, c), weights=errs.ravel(), minlength=n * c).reshape(n, c)


def _group_sums(seg, vals, errs, n):
    """Exactly rounded sums of ``vals`` and of ``errs`` for each of ``n``
    groups, term j belonging to group ``seg[j]``; empty groups are 0.
    (k, c) terms give (n, c) sums, one column per component."""
    if vals.ndim == 2:
        c = vals.shape[1]
        sums = _group_sums(_by_component(seg, c), vals.ravel(), errs.ravel(), n * c)
        return tuple(a.reshape(n, c) for a in sums)
    order = np.argsort(seg, kind="stable")
    seg, vals, errs = seg[order], vals[order], errs[order]
    counts = np.bincount(seg, minlength=n)
    starts = counts.cumsum() - counts
    values, errors = np.zeros(n), np.zeros(n)
    ids = counts.nonzero()[0]
    values[ids], errors[ids] = vals[starts[ids]], errs[starts[ids]]
    many = (counts > 1).nonzero()[0]
    if many.size:  # each group's terms as a slice of one list
        vals, errs = vals.tolist(), errs.tolist()
        ends = starts + counts
        for i, a, b in zip(many.tolist(), starts[many].tolist(), ends[many].tolist()):
            values[i] = kernels.neumaier_sum(vals[a:b])
            errors[i] = kernels.neumaier_sum(errs[a:b])
    return values, errors


def _scattered(rows, n, arrays):
    """Each of ``arrays`` placed at ``rows`` of an array of ``n`` zero rows."""
    out = []
    for a in arrays:
        full = np.zeros((n,) + a.shape[1:])
        full[rows] = a
        out.append(full)
    return tuple(out)


def _adaptive_many(fn, lo, hi, tol, shells=False):
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

    An ``fn`` giving (m, 15, c) values, c real components on shared nodes,
    gives (n, c) values and errors.  A panel is settled when every
    component's error is within its share, and an interval stops when every
    component's error total is within tol: the max norm over components.
    An interval of zero width is never evaluated, so a batch of only those
    gives zeros of shape (n,) whatever ``fn`` would return.

    Split panels are halved.  ``shells`` marks the intervals as the shells
    of :func:`_shell_integrate`, and changes two things.  The split panels
    GK15 left unresolved are cut into their four quarters in one round,
    since nearly every child of such a panel is split again: the shells of
    an oscillatory singularity take about a fifth fewer evaluations.
    Elsewhere that can cost far more than it saves: an outer box axis whose
    inner integrals miss a jump never stops being unresolved, and
    quartering took ``x1 + x2 <= 1`` on [0, 1]^2 from 165,915 evaluations
    to 21,532,485.  And a third array follows: each interval's integral of
    |f|, summed in plain floating point over its accepted panels
    (``gk15_batch``'s masses), which no value or error depends on.
    """
    if lo.size <= _MAX_IN_FLIGHT:  # one group
        return _lockstep(fn, 0, lo, hi, tol, shells)
    groups = [slice(g, g + _MAX_IN_FLIGHT) for g in range(0, lo.size, _MAX_IN_FLIGHT)]
    parts = [_lockstep(fn, g.start, lo[g], hi[g], tol[g], shells) for g in groups]
    return tuple(np.concatenate(a) for a in zip(*parts))


def _lockstep(fn, offset, lo, hi, tol, shells, cells=None):
    """One group of :func:`_adaptive_many`; ``fn`` sees ``seg + offset``.
    A split panel is halved, or in a ``shells`` round quartered where GK15
    left it unresolved (:func:`_bisect`).

    ``cells``, given, is the interpolant mode of :mod:`kspaces.cells`,
    whose intervals are panels of one dyadic grid: :meth:`cells.start`
    takes the intervals of positive width, then each round
    :meth:`cells.round` evaluates, judges and keeps the active panels, and
    :meth:`cells.cut` gives the parts of those that failed.  No interval
    stops on its error total, and the accepted panels stay with ``cells``,
    unsummed."""
    n = lo.size
    total_w = hi - lo
    # Active panels stay grouped by interval, each interval's in ascending order.
    seg = (total_w > 0.0).nonzero()[0]
    active_lo, active_hi = lo[seg], hi[seg]
    acc_err_sum = 0.0  # then (n,) or (n, c) error totals of the accepted panels
    accepted = []
    if cells:
        cells.start(seg)

    while seg.size:
        if cells:
            done = cells.round(fn, active_lo, active_hi, seg + offset, tol[seg], total_w[seg])
        else:
            centers, vals, errs, unresolved, mass = _gk15_round(fn, active_lo, active_hi, seg + offset)
            totals, worst = acc_err_sum + _error_sums(errs, seg, n), errs
            if errs.ndim == 2:  # c components, each within tol: the max norm
                totals, worst = totals.max(axis=1), errs.max(axis=1)
            done = (totals <= tol)[seg]
            if not done.all():
                done |= _settled(active_lo, active_hi, worst, tol[seg], total_w[seg])
            elif not accepted:  # the first round settled all: each sum is one panel's
                sums = (vals, errs, mass) if shells else (vals, errs)
                return sums if seg.size == n else _scattered(seg, n, sums)  # zero widths are 0
            kept = (seg[done], vals[done], errs[done])
            accepted.append(kept + (mass[done],) if shells else kept)
        split = ~done
        left = seg[split]
        if not left.size:  # the last round: skip the bookkeeping for a next one
            break
        if cells:
            active_lo, active_hi, parts = cells.cut(active_lo, active_hi, split, (total_w / tol)[left])
            seg = left.repeat(parts)
            continue
        acc_err_sum += _error_sums(kept[2], kept[0], n)
        four = unresolved[split] if shells and unresolved.any() else None
        active_lo, active_hi = _bisect(active_lo, active_hi, centers, split, four)
        seg = left.repeat(2 if four is None else 2 + 2 * four)

    if cells:
        return  # the accepted panels stay with cells
    if not accepted:
        return tuple(np.zeros((3 if shells else 2, n)))
    if not shells:
        return _group_sums(*(np.concatenate(c) for c in zip(*accepted)), n)
    seg, vals, errs, mass = (np.concatenate(c) for c in zip(*accepted))
    return (*_group_sums(seg, vals, errs, n), np.bincount(seg, weights=mass, minlength=n))


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
            a0, a1, a2 = abs(e0), abs(e1), abs(e2)
            delta2, delta3 = e2 - e1, e1 - e0
            err2, err3 = abs(delta2), abs(delta3)
            # max(|e2|, |e1|) and max(|e1|, |e0|), as max picks them
            tol2 = (a1 if a1 > a2 else a2) * _EPS
            tol3 = (a0 if a0 > a1 else a1) * _EPS
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
            a3 = abs(e3)
            tol1 = (a3 if a3 > a1 else a1) * _EPS  # max(|e1|, |e3|)
            if abs(delta1) <= tol1 or err2 <= tol2 or err3 <= tol3:
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
        ib = 1 if num % 2 else 2  # shift the table: e[ib - 1] = e[ib + 1], ib += 2
        e[ib - 1 : ib + 2 * newelm : 2] = e[ib + 1 : ib + 2 * newelm + 2 : 2]
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


def _diverges(limit, total, moduli):
    """QUADPACK qagse's test on divergence (its ``ier`` = 6), for the
    extrapolated ``limit`` of shells with the plain sum ``total`` and the
    sum of moduli ``moduli``: the ratio of limit to sum lies outside
    [0.01, 100], unless both are within 1% of ``moduli``, as when shells of
    both signs cancel.  A zero sum counts as an infinite ratio."""
    if max(abs(limit), abs(total)) <= 0.01 * moduli:
        return False
    return not (total and 0.01 <= limit / total <= 100.0)


def _recedes(values, limit, total):
    """Whether the last six of the shell integrals ``values``, which sum to
    ``total``, each step their partial sum away from ``limit``, and each but
    the first is larger in modulus than the shell before it: the shells of
    a divergent integral near its singular point, six being the sums
    :class:`_Wynn` needs for an abserr below the largest float."""
    if len(values) < 6:
        return False
    start = total  # the partial sum before shell -k
    for k in range(1, 7):
        start -= values[-k]
        if (limit - start) * values[-k] >= 0.0:
            return False
        if k < 6 and abs(values[-k]) <= abs(values[-k - 1]):
            return False
    return True


def _dyadic(s, span):
    """The shells of a side toward ``s`` whose far end is s + ``span``:
    shell m lies between s + span * r^m and s + span * r^(m+1), r =
    ``SHELL_RATIO``.  Yields each shell's (lo, hi, share, cond), share being
    its width over the side's and cond |s| over its width."""
    # |s| over the width of the shell at frac 1; a zero span has empty shells
    near = abs(s) / ((1.0 - SHELL_RATIO) * abs(span)) if span else 0.0
    frac = 1.0
    while True:
        a, b = s + span * frac, s + span * (frac * SHELL_RATIO)
        yield min(a, b), max(a, b), (1.0 - SHELL_RATIO) * frac, near / frac if frac > 0.0 else 1.0
        frac *= SHELL_RATIO


def _first_zero(span, c, k):
    """The index n of the first point x_n = s +- (|c| / (n pi))^(1/k),
    where the phase c |x - s|^-k is n pi, inside a side whose far end is
    s + ``span``; 0 where that end lies more than 2^52 half-periods from s."""
    try:
        turns = abs(c) * abs(span) ** -k / math.pi
    except (OverflowError, ZeroDivisionError):
        return 0
    return math.floor(turns) + 1 if turns < 2.0**52 else 0


def _too_narrow(lo, hi):
    """Whether GK15 cannot bisect [lo, hi] ten times before
    :func:`_settled` force-accepts its panels."""
    return hi - lo <= 1024.0 * _MIN_REL_WIDTH * max(abs(lo), abs(hi), 1.0)


def _half_periods(s, span, c, k, first):
    """The shells of a side toward ``s`` whose far end is s + ``span``, for
    an integrand whose every sin and cos takes c (x - s)^-k: cut at the
    points x_n = s +- (|c| / (n pi))^(1/k), n >= ``first``
    (:func:`_first_zero`), where that phase is a multiple of pi.  The
    stretch from the far end to x_first is the first shell, and every
    half-period after it is one, until one is :func:`_too_narrow`.  Yields
    (lo, hi, share, cond) as :func:`_dyadic` does."""
    outer = s + span
    for n in count(first):
        x = s + math.copysign((abs(c) / (n * math.pi)) ** (1.0 / k), span)
        lo, hi = min(outer, x), max(outer, x)
        if n > first and _too_narrow(lo, hi):
            return
        yield lo, hi, (hi - lo) / abs(span), abs(s) / (hi - lo) if hi > lo else 1.0
        outer = x


def _shrinks(masses, first):
    """Whether the integrals of |f| over a phase side's half-periods fall
    toward 0 rather than toward a floor.  ``masses[0]`` is over the stretch
    before x_first, and ``masses[j]``, j >= 1, over half-period n = first +
    j - 1, from x_n to x_(n+1), where the phase runs from n pi to (n+1) pi.

    The integral swings inside a half-period by about its mass, so it has
    a limit only if the masses tend to 0.  Masses L + A n^-p (p > 0), as
    those of u^-p sin u over [n pi, (n+1) pi], fall from half-period q to
    2q by d and from 2q to 4q by r d, r = 2^-p, and their later falls sum
    to the geometric tail r^2 d / (1 - r) = m - L, m being the mass of
    half-period 4q.  So with 4q the last multiple of 4 taken, and q >=
    ``first``, the masses must fall (0 < r <= 0.95, p >= 0.074) and that
    projected tail must be at least 3/4 of m: their floor L, the swing left
    as x nears s, is at most m/4.  The bound on r keeps noise in the masses
    from projecting a tail: GK15's masses of the flat half-periods of
    ``x^-3 cos(x^-2)`` drift by up to 1.3%, and r / (1 - r) <= 19 times
    that stays under 3/4.  ``x^-1.9 sin(1/x)``, r = 0.93, still ends.

    Comparing m with the largest mass before it told a floor from a fall
    only where every term is flat: with ``x^-3 cos(x^-2) + 10 x^-1
    cos(x^-2)`` the masses, about 1 + 10 / (n pi), fell below half the
    first near n = 6, and the side returned a value for an integral that
    does not exist.  A floor under a fall more than three times its size
    at n = 4q is still missed; the side then ends with the epsilon
    algorithm's (Abel-like) sum of its swings."""
    q = (first + len(masses) - 2) // 4  # the last half-period taken is first + len - 2
    if q < first:
        return False
    m1, m2, m4 = (masses[n - first + 1] for n in (q, 2 * q, 4 * q))
    d, rd = m1 - m2, m2 - m4
    return 0.0 < rd <= 0.95 * d and rd * rd >= 0.75 * m4 * (d - rd)


def _node_rounding(lo, hi, mass):
    """How far rounding GK15's nodes in [lo, hi] to floats can move the
    integral of an integrand that makes one half-oscillation there, whose
    integral of |f| is ``mass``: each node moves by up to ulp(x)/2 <= eps
    max(|lo|, |hi|) / 2, and |f'| integrates over a half-sine to pi / width
    times its mass.  Near an interior s, x - s keeps only the bits of x
    below those of s, and the phase magnifies the node's move: at s = 0.3,
    ``abs(x1-0.3)^-1.5*cos((x1-0.3)^-2)`` on [0.3, 0.35] at tol 1e-10 was
    1.1e-13 from its exact value with an error_bound of 2.5e-14."""
    if not hi > lo:
        return 0.0
    return 0.5 * math.pi * _EPS * max(abs(lo), abs(hi)) / (hi - lo) * mass


def _side(s, shells, tol_q, cauchy_tol, evals, first=0):
    """One singular side's shells toward its singular point ``s``, as the
    iterator ``shells`` cuts them (:func:`_dyadic`, :func:`_half_periods`),
    from the side's far end inward; ``first`` is the index of the first
    half-period of a side cut into them, 0 for dyadic shells.

    A generator: each step it yields the (lo, hi, tol) of the shells it
    takes and is sent their (value, error, integral of |f|) triples, the
    last read only on a side cut into half-periods.  A side with k small
    shells in a row takes run - k more (fewer at ``MAX_SHELLS``), as the
    Cauchy rule needs at least that many to end it; the first step of a
    side cut into half-periods takes only the stretch before the first one,
    so that every half-period's tol has a floor (below).  After each step
    it stops on the first of two rules:

    * Cauchy: ``run`` consecutive shell integrals (the Cauchy differences
      of its partial sums) fell below its ``cauchy_tol``.  It returns the
      sum of its shells, and their errors plus ``cauchy_tol`` as the tail
      allowance.
    * epsilon: :class:`_Wynn`'s abserr was within ``cauchy_tol`` at the
      step end before, and its abserr now plus the move of its limit over
      the step is too.  It returns the extrapolated limit, and the shells'
      errors plus that abserr and move.

    So an extrapolated limit must hold over a step of further shells, as a
    small shell must be followed by more before the Cauchy rule ends a side.

    The half-periods of an oscillatory side are sampled only where its
    phase is a multiple of pi, which can be fooled: the partial sums of
    ``x^-3 cos(x^-2)`` there are all -sin(1)/2, though its integral swings
    by 1/2 inside every half-period and has no limit, and the epsilon
    algorithm takes the sums of ``x^-2 sin(1/x)``, whose half-periods
    alternate between 2 and -2, to their midpoint.  So such a side ends by
    either rule only while the integrals of |f| over its half-periods fall
    toward 0 (:func:`_shrinks`), and a run of small shells that does not
    end it is forgotten.  Where they do not, as for those two, ``x^-2.5
    sin(1/x)`` or ``(1 + 10 x) x^-2 sin(1/x)``, the side goes on until
    ``MAX_SHELLS`` or its half-periods grow too narrow, and raises.

    A divergent integral's shells grow geometrically and extrapolate to the
    anti-limit of their series.  So at each step end where the epsilon
    abserr is within ``cauchy_tol`` (a limit held, or one ending the side),
    the last six shells grew and stepped away from the limit
    (:func:`_recedes`), and :func:`_diverges` finds the limit far from the
    plain sum of the shells, the side raises :class:`ToleranceNotMet`.  The
    sum lacks the part of the side inside its last shell, which qagse's sum
    holds, so the ratio alone refuses convergent sides: shrinking shells
    whose limit is 240 times their sum are ``x^-0.999``'s, which converges
    to 1000, and the growing stretches of oscillating shells, such as
    ``x^-0.9 sin(ln x) + 1``'s, sum to far from their limit too; but in
    every convergent case tried, such shells stepped toward the limit, or
    shrank, within six.  Waiting for the rule to end the side would be too
    late: the next step's shells reach 8 times the shell their tol floor is
    taken from, and at tol 1e-10 those of ``1/x^2`` at 0 split until the
    budget runs out.

    The error of a half-period side also holds the root sum of squares of
    its half-periods' :func:`_node_rounding`: the nodes of different
    half-periods round independently, so their moves add as a random
    walk, and summing the worst cases instead exceeded tol 1e-10 at
    ``abs(x1-0.3)^-1*cos(0.2*(x1-0.3)^-0.5)`` on [0.3, 0.35] (an error
    of 2.5e-12).

    A shell's tol is its width share of ``tol_q``, but never below
    ``_SHELL_FLOOR`` times the side's last shell integral of the step
    before (of |f|, for half-periods), times max(1, |s| / width), so deep
    shells of a tight tol stop at their rounding floor.

    A side that has not ended raises :class:`ToleranceNotMet` naming s,
    with the sum of its shells and ``evals[0]``, its interval's
    evaluations, after ``MAX_SHELLS`` shells, when ``shells`` has no more
    (half-periods too narrow for GK15 to split), or when it cannot go on
    because the integrand is non-finite in the shells of this step, which
    lie below every shell it has integrated: the caller then throws that
    :class:`EvaluationError` in at its yield.  So ``1/x`` at 0 ends where it
    overflows, near 2^-1024, and ``1/(x-1)`` at 1 at its shell
    [1 - 2^-53, 1], whose inner end rounds to 1, as do some of its nodes.  A
    finite integrand goes on past that shell to empty ones, having
    integrated the whole side.  At the side's first step the point may as
    well be one not declared, and the error goes on as it is.
    """
    run = 3  # consecutive small shells that settle a side
    wynn = _Wynn()
    values, errors, masses = [], [], []  # masses: the half-periods' integrals of |f|
    small = 0  # the run of small shells
    moduli = 0.0  # the sum of |shell integral|
    slips = 0.0  # the sum of squares of the half-periods' _node_rounding
    before, held = 0.0, False  # the last step end's limit, its abserr within cauchy_tol

    def unsettled(until):
        return ToleranceNotMet(
            f"shell integrals near singular point {s} did not settle {until}",
            value=kernels.neumaier_sum(values),
            evaluations=int(evals[0]),
        )

    while True:
        floor = _SHELL_FLOOR * (masses[-1] if masses else abs(values[-1]) if values else 0.0)
        take = 1 if first and not values else min(run - small, MAX_SHELLS - len(values))
        asked = [
            (a, b, max(tol_q * share, floor * max(cond, 1.0)))
            for a, b, share, cond in islice(shells, take)
        ]
        if not asked:
            raise unsettled("before its half-periods grew too narrow to split")
        try:
            got = yield asked
        except EvaluationError as exc:
            if not values:
                raise
            raise unsettled(f"before the integrand became non-finite at x={exc.point[-1]!r}") from exc
        for (lo, hi, _), (v, e, mass) in zip(asked, got):
            values.append(v)
            if first:
                masses.append(mass)
                slips += _node_rounding(lo, hi, mass) ** 2
            errors.append(e)
            small = small + 1 if abs(v) < cauchy_tol else 0
            moduli += abs(v)
            limit, abserr = wynn.add(v)
        ends = not first or _shrinks(masses, first)
        if small >= run:
            if ends:
                error = kernels.neumaier_sum(errors) + math.sqrt(slips)
                return kernels.neumaier_sum(values), error + cauchy_tol
            small = 0
        total = wynn.total + wynn.comp  # the plain sum of the shells
        if abserr <= cauchy_tol and _diverges(limit, total, moduli) and _recedes(values, limit, total):
            raise ToleranceNotMet(
                f"shell integrals near singular point {s} extrapolate to "
                f"{limit:.6g} but sum to {total:.6g}: the integral probably diverges",
                value=total,
                evaluations=int(evals[0]),
            )
        tail = abserr + abs(limit - before)
        if held and tail <= cauchy_tol and ends:
            return limit, kernels.neumaier_sum(errors) + math.sqrt(slips) + tail
        before, held = limit, abserr <= cauchy_tol
        if len(values) >= MAX_SHELLS:
            why = "" if ends else ", as |f| over its half-periods did not shrink toward 0"
            raise unsettled(f"within {MAX_SHELLS} shells{why}")


def _shell_integrate(fn: _VecFn, roots, lo, hi, sings, tol, phase=None):
    """Improper-mode (values, errors) over [lo[i], hi[i]], each holding one
    of ``sings`` and with its own tolerance ``tol[i]``; ``fn`` charges the
    evaluations of interval i to its root ``roots[i]``.

    Each singular side (:func:`_segments`) is a :func:`_side` generator,
    and the sides of all intervals run in lock step: each step, the shells
    every live side asks for go into one :func:`_adaptive_many` call, every
    side's first shell, then every side's second, and so on; their results
    go back to their sides, and the sides that end are summed per interval.
    A side toward the point s of the integrand's ``phase`` (s, c, k) is cut
    into half-periods (:func:`_half_periods`), every other side into
    dyadic shells (:func:`_dyadic`).

    That call is a shell round: it gives every shell's integral of |f|
    beside its (value, error), and quarters the panels GK15 leaves
    unresolved rather than halving them.  On a shell of an oscillatory
    singularity such panels are where the Gauss and Kronrod results
    disagree at full scale, and nearly every half of one is split again, so
    the half's round is wasted.  A shell of a log or power singularity is
    smooth at its own scale and seldom has such panels.
    """
    live = []  # (interval, side, the shells it asks for)
    for i, (r, a, b, t) in enumerate(zip(roots.tolist(), lo.tolist(), hi.tolist(), tol.tolist())):
        pairs = _segments(a, b, sings)
        for s, far in pairs:
            tol_q = 0.5 * t * abs(far - s) / (b - a)
            count = fn.evals[r : r + 1]  # a view: the interval's evaluations so far
            # half-periods if there is a first one wide enough to split, as
            # on a side not a few ulps wide; else dyadic shells
            first = _first_zero(far - s, *phase[1:]) if phase and s == phase[0] else 0
            shells = _half_periods(s, far - s, *phase[1:], first) if first else iter(())
            head = list(islice(shells, 2))
            if len(head) == 2:
                shells = chain(head, shells)
            else:
                first, shells = 0, _dyadic(s, far - s)
            side = _side(s, shells, tol_q, t / (4.0 * len(pairs)), count, first)
            live.append((i, side, next(side)))
    ended = []  # (interval, value, error) of every side that ended
    while live:
        # every side's first shell, then every side's second, and so on
        rows = zip_longest(*(asks for *_, asks in live))  # None past a side's last
        asked = [(k, shell) for row in rows for k, shell in enumerate(row) if shell is not None]
        root = roots[[live[k][0] for k, _ in asked]]
        try:
            out = _adaptive_many(
                lambda seg, xs: fn(xs, None, root[seg]),
                *np.array([shell for _, shell in asked]).T,
                shells=True,
            )
        except EvaluationError as exc:
            for _, side, shells in live:  # the side whose shells hold the point ends
                los, his, _ = zip(*shells)
                if exc.point and min(los) <= exc.point[-1] <= max(his):
                    side.throw(exc)
            raise
        got = [[] for _ in live]
        for (k, _), result in zip(asked, zip(*(a.tolist() for a in out))):
            got[k].append(result)
        still = []
        for (i, side, _), results in zip(live, got):
            try:
                still.append((i, side, side.send(results)))
            except StopIteration as end:
                ended.append((i, *end.value))
        live = still
    i, v, e = map(np.array, zip(*ended))
    if i.size > lo.size:  # some interval has two sides or more
        return _group_sums(i, v, e, lo.size)
    values, errors = np.empty(lo.size), np.empty(lo.size)
    values[i], errors[i] = v, e
    return values, errors


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
    if not sings.size:
        return np.zeros(lo.shape, dtype=bool)
    return (hi > lo) & ((lo[:, None] <= sings) & (sings <= hi[:, None])).any(axis=1)


def _points(name, points):
    """``points`` as a 1-D float64 array; raises ValueError unless it is
    one of finite numbers."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 1:
        raise ValueError(f"{name} must be a 1-D sequence, got shape {points.shape}")
    if points.size and not np.isfinite(points).all():
        raise ValueError(f"{name} must be finite, got {points.tolist()}")
    return points


def _phase(phase):
    """An integrand's ``phase`` as a tuple (s, c, k) of floats, or None;
    raises ValueError unless it is None or three finite numbers with
    c != 0 and k > 0, as :func:`_half_periods` needs."""
    if phase is None:
        return None
    p = _points("phase", phase)
    if p.size != 3 or p[1] == 0.0 or not p[2] > 0.0:
        raise ValueError(f"phase must be None or (s, c, k) with c != 0 and k > 0, got {phase!r}")
    return tuple(p.tolist())


def _pieces(lo, hi, tol, points):
    """The intervals [lo[i], hi[i]] cut at the ``points`` strictly inside
    them: (root, lo, hi, tol) of the pieces, piece j belonging to interval
    ``root[j]``, each interval's pieces in ascending order, and each
    piece's tol its width share of its interval's.  Without such a point,
    the intervals themselves."""
    if not points.size:  # most integrands: skip the searches
        return np.arange(lo.size), lo, hi, tol
    points = np.unique(points)
    first = np.searchsorted(points, lo, side="right")
    cuts = np.maximum(np.searchsorted(points, hi, side="left") - first, 0)
    if not cuts.any():
        return np.arange(lo.size), lo, hi, tol
    root = np.repeat(np.arange(lo.size), cuts + 1)
    lo_p, hi_p, tol_p = lo[root], hi[root], tol[root]
    rows = np.repeat(np.arange(lo.size), cuts)
    c = np.arange(rows.size)
    at = points[first[rows] + c - (cuts.cumsum() - cuts)[rows]]
    # cut c of interval i ends piece c + i and starts piece c + i + 1
    hi_p[c + rows], lo_p[c + rows + 1] = at, at
    cut = cuts[root] > 0
    tol_p[cut] *= (hi_p[cut] - lo_p[cut]) / (hi - lo)[root[cut]]
    return root, lo_p, hi_p, tol_p


def _hk_many(f, lo, hi, tol, singular_points, max_evals):
    """:func:`hk_integrate_many` short of its final check: (values, errors,
    evaluations) whatever the errors, ``tol`` broadcast to one per interval.
    One :class:`_VecFn` wraps ``f`` for every interval, so ``f`` is probed
    for vectorization once and evaluations are counted in one place.

    Each interval is cut at the points of ``f.breakpoints`` strictly inside
    it (:func:`_pieces`), and its pieces are integrated as intervals are,
    in the same pass: the evaluations of a piece are charged to its
    interval and its budget, and the pieces' values and errors are summed
    per interval."""
    tol = np.asarray(tol, dtype=np.float64)
    if not (tol > 0.0).all():
        raise ValueError("tol must be positive")
    lo, hi = _ends(lo, hi, 1)
    tol = np.full(lo.shape, tol) if tol.ndim == 0 else np.broadcast_to(tol, lo.shape)
    sings = _points("singular points", singular_points)
    points = _points("breakpoints", getattr(f, "breakpoints", ()))
    phase = _phase(getattr(f, "phase", None))
    n = lo.size
    fn = _VecFn(f, max_evals, n)
    root, lo, hi, tol = _pieces(lo, hi, tol, points)
    shelled = _holding(lo, hi, sings)
    plain = (~shelled & (hi > lo)).nonzero()[0]
    held = shelled.nonzero()[0]
    values, errors = np.zeros(lo.size), np.zeros(lo.size)
    with np.errstate(all="ignore"):  # the integrand's; a non-finite value raises
        if plain.size:
            values[plain], errors[plain] = _integrate_boxes(
                fn, root[plain], np.empty((plain.size, 0)), lo[plain, None], hi[plain, None],
                0.5 * tol[plain],
            )
        if held.size:
            values[held], errors[held] = _shell_integrate(
                fn, root[held], lo[held], hi[held], sings.tolist(), tol[held], phase
            )
    if root.size > n:  # some interval was cut
        values, errors = _group_sums(root, values, errors, n)
    return values, errors, fn.evals


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
    :func:`_integrate_boxes` pass at tol/2.  Around each singular point the
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

    Breakpoints, QUADPACK QAGP's ``points``: if ``f`` has a ``breakpoints``
    attribute, a sequence of finite points where it may jump, each interval
    is cut at those strictly inside it.  Its pieces are integrated as
    intervals are, in the same pass, each with its width share of the
    interval's tol (a piece holding a singular point in shells); their
    evaluations count toward the interval's budget, and their values and
    errors are summed.  :func:`kspaces.expr.compile_expression` sets the
    attribute to the roots of an expression's comparisons, and any other
    callable may carry one.  A jump not so declared is found only as far as
    bisection finds it: one between a panel's last GK15 node and its edge
    (0.43% of its width) is not seen, and the panel is accepted with an
    estimate near 1e-14.  The box quadrature (:func:`integrate_boxes`)
    reads breakpoints on boxes of one axis only, so a 2-D guard such as
    ``x1 + x2 <= 1`` is still blind.

    Phase: if ``f`` has a ``phase`` attribute (s, c, k), with c != 0 and
    k > 0, saying that f is a sum of terms, each a sin or cos of
    c (x - s)^-k times a factor that does not oscillate, a side toward a
    singular point equal to s is cut at the zeros of that phase instead of
    geometrically (:func:`_half_periods`): the stretch before the first
    zero is one shell, integrated alone at the side's first step, and every
    half-period after it is one, each to its width share of the side's
    tol.  Their partial sums go through the stop rules above, and the side
    may end only while the integrals of |f| over its half-periods fall
    toward 0 (:func:`_shrinks`): sums sampled at the zeros of
    ``x^-3 cos(x^-2)`` converge though its integral does not.  At tol 1e-10
    the derivative of x^2 sin(x^-2) on [0, 1] takes 165 evaluations, where
    dyadic shells exhausted the budget.  :func:`kspaces.expr.compile_expression`
    sets the attribute, and a library callable may set it too, but only
    where it holds: the half-period sums of a term that does not oscillate,
    such as the x^-0.5 of ``sin(1/x) + x^-0.5``, converge too slowly for the
    stop rules to judge.  A side whose far end lies more than 2^52
    half-periods from s, or whose first half-period is too narrow for GK15
    to split, keeps dyadic shells; one whose half-periods grow that narrow
    before it ends raises.

    Raises :class:`ToleranceNotMet` if a budget runs out, an interval's
    error estimate exceeds its tol or a side's shells look divergent or
    reach a non-finite integrand (:func:`_side`), :class:`EvaluationError`
    if ``f`` returns non-finite values away from declared singular points,
    and :class:`ValueError`, as :class:`Interval` does, for an interval with
    a non-finite end or lo > hi, as well as for ``lo`` and ``hi`` that are
    not 1-D arrays of one shape, a tol that does not broadcast to them or is
    not positive, a non-finite singular point or breakpoint, or a ``phase``
    that is not None or (s, c, k) with c != 0 and k > 0.
    """
    values, errors, evals = _hk_many(f, lo, hi, tol, singular_points, max_evals)
    over = (errors > tol).nonzero()[0]
    if over.size:
        i = over[0]
        tol = np.broadcast_to(tol, values.shape)
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
    Values and errors are (m, c) for an integrand of c components, the
    inner integrals of each component giving that component's outer
    integrand.
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
        return v.reshape(xs.shape + v.shape[1:])

    v, e = _adaptive_many(outer, lo[:, 0], hi[:, 0], 0.5 * tol)
    inner = w * inner_tol
    return v, e + (inner if e.ndim == 1 else inner[:, None])


def integrate_boxes(f, lo, hi, tol, max_evals: int = DEFAULT_MAX_EVALS, params=None):
    """Tensor-product adaptive quadrature over many boxes in one pass.

    Box i spans ``lo[i]`` to ``hi[i]`` (arrays of shape (m, d)) with
    tolerance ``tol[i]`` (or one tol for all).  ``params`` (m, k), if
    given, holds constants of each box, passed to f as its first k
    arguments, so box i integrates ``f(*params[i], x_1, ..., x_d)``.  Every
    box is integrated as :func:`integrate_nd_result` would integrate it
    alone, with its own ``max_evals`` budget; boxes with a zero-width axis
    are 0.  Boxes of one axis (d = 1) are first cut at the points of
    ``f.breakpoints`` strictly inside them, as :func:`hk_integrate_many`
    cuts its intervals: each piece gets its width share of the box's tol,
    its evaluations count toward the box's budget, and the pieces' values
    and errors are summed per box.  Boxes of two or more axes read no
    breakpoints.  An axis with a non-finite end or lo > hi, ``lo`` and
    ``hi`` not of one (m, d) shape, ``params`` not of m rows, or a
    non-finite breakpoint raise :class:`ValueError`.  Returns (values,
    errors, evaluations) arrays of length m.

    f may return c real components on a trailing axis: an (m, 15, c)
    array where a scalar f returns (m, 15), or a (c,) array per point
    where f takes scalars only.  They are integrated
    on shared nodes, each node counted as one evaluation, and values and
    errors come back as (m, c) arrays, column k holding component k's
    integral and its error bound, each held to the box's tol as a scalar
    f would be.  A panel is settled, and an interval stops, only when
    every component is within its share (the max norm of
    ``scipy.integrate.quad_vec`` over QUADPACK's GK15 pair), so the
    components share one refinement, the union of the ones each would take
    alone.  c is read from f's output; where f is never called (every box
    has a zero-width axis) the zeros have shape (m,).  This is the one
    entry that takes a vector integrand: :func:`hk_integrate`,
    :func:`hk_integrate_many` and :func:`integrate_nd_result` raise
    ValueError on one.
    """
    return _boxes(f, lo, hi, tol, max_evals, params, components=True)


def _boxes(f, lo, hi, tol, max_evals, params, components):
    """:func:`integrate_boxes`, taking a vector integrand only if
    ``components`` is true."""
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
    n = lo.shape[0]
    fn = _VecFn(f, max_evals, n, params.shape[1], components)
    root = np.arange(n)
    if lo.shape[1] == 1:
        points = _points("breakpoints", getattr(f, "breakpoints", ()))
        root, lo, hi, tol = _pieces(lo[:, 0], hi[:, 0], tol, points)
        lo, hi, params = lo[:, None], hi[:, None], params[root]
    live = np.flatnonzero((hi > lo).all(axis=1))
    sums = np.zeros(0), np.zeros(0)
    if live.size:
        with np.errstate(all="ignore"):  # the integrand's; a non-finite value raises
            sums = _integrate_boxes(fn, root[live], params[live], lo[live], hi[live], tol[live])
    values, errors = sums if live.size == root.size else _scattered(live, root.size, sums)
    if root.size > n:  # some box was cut
        values, errors = _group_sums(root, values, errors, n)
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
    one-box case of :func:`integrate_boxes`, for a scalar ``f`` only: a
    vector integrand raises ValueError.
    """
    box = list(box)
    if not box:
        raise ValueError("box must have at least one axis")
    values, errors, evals = _boxes(
        f, [[iv.lo for iv in box]], [[iv.hi for iv in box]], tol, max_evals, None, False
    )
    return IntegralResult(float(values[0]), float(errors[0]), int(evals[0]))


def uniform_partition(iv: Interval, n: int, tags: str = "midpoint") -> TaggedPartition:
    """Uniform n-cell partition with ``tags`` "midpoint" or "left" (test
    helper); raises ValueError for any other ``tags``."""
    if tags not in ("midpoint", "left"):
        raise ValueError(f'tags must be "midpoint" or "left", got {tags!r}')
    edges = np.linspace(iv.lo, iv.hi, n + 1)
    cells = []
    for a, b in zip(edges[:-1], edges[1:]):
        tag = 0.5 * (a + b) if tags == "midpoint" else a
        cells.append((tag, Interval(a, b)))
    return TaggedPartition(tuple(cells))
