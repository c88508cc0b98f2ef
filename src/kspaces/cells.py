"""1-D K^p functionals read off dyadic panel interpolants.

Every functional a_k of a 1-D K^p norm is the integral of f over a dyadic
cell of the window.  Rather than integrate each leaf cell of the truncated
tree with its own GK15 panel, one adaptive pass bisects the window on its
dyadic grid, as a mode of :func:`kspaces.gauge._lockstep` (one integrand
call per round, through one ``_VecFn`` that counts the evaluations and
holds the budget), and reads every leaf off the interpolant of the panel
that holds it, as Chebfun integrates its piecewise interpolants (Battles &
Trefethen, SIAM J. Sci. Comput. 25, 2004).  So a norm's evaluations follow
f, not K.

* A panel's 15 node values define its degree-14 interpolant.  A panel that
  holds two leaves or more is accepted when f at its eight Kronrod-only
  nodes lies within quad_tol / |window| of the Gauss-7 interpolant
  (:func:`interp_errors`).  Each leaf in it gets the interpolant's integral
  over the leaf (:func:`cell_integrals`), with error |leaf| times that
  estimate: its width share of quad_tol.  Like GK15's estimate, the rule
  sees nothing between the nodes: a jump within 0.43% of a panel's edge is
  missed.
* A panel that fails is cut into 2^j parts on the grid, j the halvings
  that would bring its estimate within its share if the estimate fell as
  width^7, as the Gauss-7 interpolant's error does where f is smooth.
* A panel that has come down to one leaf is a GK15 panel: accepted when
  GK15's error is within its width share, halved where it is not, as the
  leaf's own integration would be, and the leaf sums its panels.
* No panel holding a singular point (ends included) or a breakpoint of f
  (strictly inside) is evaluated whole: such panels are split before the
  pass, down to the leaves that hold the point.  A leaf holding a
  breakpoint enters the pass cut there, as
  :func:`kspaces.gauge.hk_integrate_many` cuts its intervals, and one
  holding a singular point keeps its shells, in one call of that
  function's core after the pass.

The integral over sub-cell r of 2^m equal sub-cells of a panel is the
panel's node values times column r of a fixed (15, 2^m) weight table
(:func:`cell_weights`).  Tables of up to 2^10 columns are built with plain
NumPy on first use of each m; deeper cells are read with that table after
cutting the panel into sub-panels, so no table of 2^20 columns is ever
held.  Each entry is accurate relative to its sub-cell's width, where
differences of one primitive lose about 1e-15 to cancellation at 2^20
cells.

:mod:`kspaces.kp` imports this module on its first 1-D pass, not with
:mod:`kspaces`, so the start-up that every ``ks`` call pays, which compiles
every source it imports where no bytecode cache is written, does not grow
with it.
"""

from __future__ import annotations

import bisect
from functools import lru_cache

import numpy as np

from . import kernels
from .gauge import (
    _MAX_IN_FLIGHT,
    DEFAULT_MAX_EVALS,
    _group_sums,
    _hk_many,
    _lockstep,
    _points,
    _settled,
    _VecFn,
)

# Weight tables are held for at most 2^_DEEPEST sub-cells per panel, a
# (15, 1024) table of 120 KiB; deeper sub-cells are reached by splitting.
_DEEPEST = 10
# Sub-panels per direct split: 2^_SPLIT of them, 240 nodes in all.
_SPLIT = 4


def _lagrange(nodes, t):
    """(t.size, nodes.size): the Lagrange basis of ``nodes`` at the points
    ``t``, each entry a product over the other nodes, with no division by
    t - x."""
    off = ~np.eye(nodes.size, dtype=bool)
    num = np.where(off, t[:, None, None] - nodes, 1.0).prod(axis=2)
    den = np.where(off, nodes[:, None] - nodes, 1.0).prod(axis=1)
    return num / den


def _frozen(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _gauss_gaps():
    """(15, 8): node values times this are f at the eight Kronrod-only
    nodes minus the Gauss-7 interpolant there."""
    x = kernels.GK15_NODES
    gaps = np.zeros((15, 8))
    gaps[0::2] = np.eye(8)
    gaps[1::2] = -_lagrange(x[1::2], x[0::2]).T
    return _frozen(gaps)


@lru_cache(maxsize=None)
def _splits(k):
    """(15, 15 * 2^k), 1 <= k <= 4: node values times this are the
    interpolant's values at the nodes of each of the panel's 2^k equal
    sub-panels, left to right, each read off the panel's nodes at once."""
    x = kernels.GK15_NODES
    t = (2.0 * np.arange(2**k)[:, None] + 1.0 + x) / 2**k - 1.0
    return _frozen(_lagrange(x, t.ravel()).T)


@lru_cache(maxsize=None)
def cell_weights(m):
    """(15, 2^m), 0 <= m <= 10: node values times this, times the panel's
    halfwidth, are its interpolant's integrals over its 2^m equal sub-cells,
    left to right.  A table of at most 16 sub-cells applies the Kronrod
    rule, exact at degree 22, to the values at each sub-cell's nodes; a
    deeper one applies the table of m - 4 to each of 16 sub-panels."""
    k = min(m, _SPLIT)
    if k == 0:
        return _frozen(kernels._WGK[:, None].copy())
    parts = _splits(k).reshape(15, 2**k, 15)
    inner = kernels._WGK[:, None] if m == k else cell_weights(m - k)
    return _frozen((parts @ inner).reshape(15, -1) / 2**k)


def cell_integrals(fvals, halfwidth: float, m: int):
    """The integrals of each panel's degree-14 interpolant over its 2^m
    equal sub-cells: ``fvals`` (k, 15) holds the node values of k panels of
    one ``halfwidth``, and the result is (k, 2^m), each panel's sub-cells
    left to right.  Past m = 10 every panel is first cut into sub-panels,
    at most 16 at a time, their node values read off the panel's with one
    product, so the depth-m table is applied 1024 rows at a time."""
    k = fvals.shape[0]
    while m > _DEEPEST:
        split = min(m - _DEEPEST, _SPLIT)
        fvals = (fvals @ _splits(split)).reshape(-1, 15)
        halfwidth /= 2**split
        m -= split
    return (fvals @ cell_weights(m) * halfwidth).reshape(k, -1)


def interp_errors(fvals):
    """Each panel's interpolation estimate from its node values (k, 15):
    the largest miss of the Gauss-7 interpolant at the eight Kronrod-only
    nodes, which bounds the degree-14 interpolant's error where f is smooth
    as |K - G| bounds the Kronrod value's.  It is never below 50 eps times
    the largest |f| at a node, the rounding of the interpolant's values, as
    GK15's error is never below 50 eps resabs."""
    miss = np.abs(fvals @ _gauss_gaps()).max(axis=1)
    return np.maximum(miss, 50.0 * np.finfo(float).eps * np.abs(fvals).max(axis=1))


def _cut(lo, hi, parts):
    """Every panel [lo[j], hi[j]] cut into ``parts[j]`` equal panels, in
    its place, each panel's ends kept as they are.  Returns the new lo, hi
    and each new panel's position within the panel it was cut from."""
    ends = np.cumsum(parts)
    k = np.arange(ends[-1]) - np.repeat(ends - parts, parts)
    base, step = np.repeat(lo, parts), np.repeat((hi - lo) / parts, parts)
    new_hi = base + (k + 1) * step
    new_hi[ends - 1] = hi
    return base + k * step, new_hi, k


def _read_round(fn, lo, hi, coarse, tol, total_w, *args):
    """Evaluate and judge the panels [lo[j], hi[j]], in blocks of at most
    ``_MAX_IN_FLIGHT`` as ``gauge._gk15_round`` evaluates them.  Returns
    (done, errors, values, nodes): which panels :func:`kspaces.gauge._settled`
    accepts against ``tol`` and ``total_w``; the error of each, its width
    times its :func:`interp_errors` estimate where ``coarse``, else GK15's;
    the GK15 value of each panel not coarse (0 where coarse); and the node
    values (k, 15) of the k accepted coarse panels, the only ones kept.  A
    block of coarse panels only makes no ``gk15_batch`` call."""
    if lo.size > _MAX_IN_FLIGHT:
        blocks = [slice(g, g + _MAX_IN_FLIGHT) for g in range(0, lo.size, _MAX_IN_FLIGHT)]
        parts = [
            _read_round(fn, lo[b], hi[b], coarse[b], tol[b], total_w[b], *(a[b] for a in args))
            for b in blocks
        ]
        return tuple(np.concatenate(c) for c in zip(*parts))
    halfw = 0.5 * (hi - lo)
    xs = (0.5 * (lo + hi))[:, None] + halfw[:, None] * kernels.GK15_NODES
    fx = fn(*args, xs)
    if coarse.all():
        values, errors = np.zeros(lo.size), 2.0 * halfw * interp_errors(fx)
    else:
        values, errors = kernels.gk15_batch(fx, halfw)[:2]
        errors[coarse] = 2.0 * halfw[coarse] * interp_errors(fx[coarse])
        values[coarse] = 0.0
    done = _settled(lo, hi, errors, tol, total_w)
    return done, errors, values, fx[done & coarse]


class _Panels:
    """The interpolant mode of the lock step, as ``gauge._lockstep`` takes
    it in ``cells``: its intervals are panels of one dyadic grid, panel i
    at address (level[i], index[i]), whose halves are (level + 1, 2 index)
    and (level + 1, 2 index + 1).  The panels of level l whose index is
    below ``limit[l]`` hold two cells or more, to be read off their
    interpolants, and no panel is cut past level ``limit.size - 1``, the
    cells' own.  A panel within one cell keeps the address of the panel of
    that cell it was cut from.

    The lock step calls :meth:`start` once, then each round :meth:`round`
    on the active panels and :meth:`cut` on those that failed.  Every
    accepted panel's (level, index, coarse, value, error) is kept in
    ``accepted``, and the node values of the coarse ones in ``nodes``."""

    def __init__(self, level, index, limit):
        self.level, self.index, self.limit = level, index, limit
        self.accepted, self.nodes = [], []

    def start(self, seg):
        """The intervals ``seg`` of positive width are the first panels."""
        self.level, self.index = self.level[seg], self.index[seg]

    def round(self, fn, lo, hi, roots, tol, total_w):
        """Evaluate, judge and keep the active panels (:func:`_read_round`);
        returns which are accepted."""
        self.coarse = coarse = self.index < self.limit[self.level]
        done, self.errors, values, nodes = _read_round(fn, lo, hi, coarse, tol, total_w, roots)
        level, index = self.level[done], self.index[done]
        self.accepted.append((level, index, coarse[done], values[done], self.errors[done]))
        self.nodes.append(nodes)
        return done

    def cut(self, lo, hi, split, unit):
        """The parts of the failed panels ``split`` of the last round, whose
        intervals have tol ``1 / unit`` per unit width: (lo, hi, parts),
        parts[j] being how many panel j was cut into.  A coarse panel is
        cut into 2^j, j the halvings that would bring its estimate within
        its share if it fell as width^7, at least one and never past the
        cells' level; a panel within one cell is halved."""
        lo, hi = lo[split], hi[split]
        level, index, coarse = self.level[split], self.index[split], self.coarse[split]
        over = self.errors[split] * unit / (hi - lo)  # above 1
        down = np.minimum(np.ceil(np.log2(over) / 7.0), self.limit.size - 1 - level)
        down = np.where(coarse, down, 0.0).astype(np.int64)
        parts = (1 << down) + ~coarse
        lo, hi, k = _cut(lo, hi, parts)
        self.level = np.repeat(level + down, parts)
        self.index = np.repeat(index << down, parts) + k * np.repeat(coarse, parts)
        return lo, hi, parts


def _held_leaves(f, cfg, L: int, n_own: int):
    """The 1-D leaves that are not read off interpolants, and the panels
    to split before the pass: (singular, cut, split, points).  singular
    holds the leaves holding a singular point, ends included, and cut the
    others holding one of ``points``, the sorted breakpoints of f strictly
    inside the window, strictly inside them, each leaf as (level, index,
    lo, hi), its address on the window's dyadic grid and its ends; split
    holds, for each breakpoint on an edge between two leaves, the address
    of the smallest panel holding it strictly, whose halves meet there.
    Points are few, so this is plain Python."""
    iv = cfg.family.window[0]
    sings = cfg.singular_points
    points = _points("breakpoints", getattr(f, "breakpoints", ())).tolist()
    points = sorted({p for p in points if iv.lo < p < iv.hi})
    singular, cut, split = [], [], []
    if not (sings or points):
        return singular, cut, split, points
    leaves = set()
    for p in (*sings, *points):  # the level-L cells on either side of p
        at = int((p - iv.lo) * (2**L / iv.width))
        for c in range(max(at - 1, 0), min(at + 2, 2**L)):
            leaves.add((L, c) if c < n_own else (L - 1, c // 2))
    leaves = sorted(leaves)
    ends = (e.tolist() for e in cfg.family._bounds(*np.array(leaves).T))
    for (level, index), a, b in zip(leaves, *ends):
        if b > a and any(a <= s <= b for s in sings):
            singular.append((level, index, a, b))
        elif bisect.bisect_right(points, a) < bisect.bisect_left(points, b):
            cut.append((level, index, a, b))
        if index and a in points:  # the last halving that cut the window at a
            t = (index & -index).bit_length()
            split.append((level - t, index >> t))
    return singular, cut, split, points


def _free_panels(taken, split):
    """(level, index) of the panels, on the window's dyadic grid, that the
    pass starts from.  Every panel holding one of the leaves ``taken``,
    save the leaf itself, is split before it is evaluated, as is every
    panel holding one of ``split``, and that panel itself; the pass starts
    from their halves that are not split or taken.  Without either, it
    starts from the window alone."""
    cut = {(lv, i >> (level - lv)) for level, i in taken for lv in range(level)}
    cut |= {(lv, i >> (level - lv)) for level, i in split for lv in range(level + 1)}
    if not cut:
        return [] if taken else [(0, 0)]
    halves = {(lv + 1, 2 * i + k) for lv, i in cut for k in (0, 1)}
    return sorted(halves - cut - set(taken))


def _read_off(grid, width: float, level, index, nodes, errors):
    """Fill the cells of the complex level-L ``grid`` of a window of
    ``width`` that the panels (level, index) cover, each a panel that holds
    two leaves or more: a cell's value (real part) is the integral of its
    panel's interpolant over it (:func:`cell_integrals`), and its error
    (imaginary part) its width share of the panel's.  Panels of one level
    go through one table."""
    L = grid.size.bit_length() - 1
    counts = np.bincount(level)
    if counts.size - 1 > level.min():  # more than one level: group them
        order = np.argsort(level, kind="stable")
        level, index, nodes, errors = level[order], index[order], nodes[order], errors[order]
    ends = np.cumsum(counts).tolist()
    for lv in counts.nonzero()[0].tolist():
        m, rows = L - lv, slice(ends[lv] - counts[lv], ends[lv])
        grid.real.reshape(-1, 2**m)[index[rows]] = cell_integrals(nodes[rows], 0.5 * width / 2**lv, m)
        grid.imag.reshape(-1, 2**m)[index[rows]] = errors[rows, None] / 2**m


def level_cells(f, cfg, L: int, last: int):
    """The complex cells of level L of the 1-D tree of ``cfg`` (a
    :class:`kspaces.kp.KpConfig`) truncated at cell ``last`` of level L,
    each value the real part and each error the imaginary part, as
    ``kp._level_sums`` takes them, and the evaluation count.  The first
    n_own cells of level L are its leaves; a leaf of level L - 1 puts its
    value and error in its first cell and 0 in the second, so the level
    above sums them to the leaf's."""
    iv = cfg.family.window[0]
    n_own = last + 1 + (L > 0 and last % 2 == 0)  # last + 1 rounded up to even
    grid = np.zeros(2**L, dtype=complex)
    if not iv.width:  # every leaf is empty
        return grid, 0
    singular, cut, split, points = _held_leaves(f, cfg, L, n_own)
    taken = [leaf[:2] for leaf in singular + cut]
    level, index = np.array(_free_panels(taken, split), dtype=np.int64).reshape(-1, 2).T
    lo, hi = cfg.family._bounds(level, index)
    if cut:  # each cut leaf's pieces, at the leaf's address
        pieces = []
        for lv, i, a, b in cut:
            inner = points[bisect.bisect_right(points, a) : bisect.bisect_left(points, b)]
            pieces += [(lv, i, p, q) for p, q in zip([a, *inner], [*inner, b])]
        level, index, lo, hi = (np.concatenate(c) for c in zip((level, index, lo, hi), zip(*pieces)))
    evals = 0
    if lo.size:
        limit = 2 ** np.arange(L + 1)  # the panels of each level that hold two leaves or more
        limit[L] = 0
        if L:
            limit[L - 1] = n_own // 2
        panels = _Panels(level, index, limit)
        fn = _VecFn(f, DEFAULT_MAX_EVALS)
        with np.errstate(all="ignore"):  # the integrand's; a non-finite value raises
            _lockstep(
                lambda seg, xs: fn(xs, None, seg), 0, lo, hi,
                cfg.quad_tol * (hi - lo) / iv.width, False, panels,
            )
        evals = int(fn.evals[0])
        level, index, coarse, v, e = (np.concatenate(c) for c in zip(*panels.accepted))
        if not coarse.all():  # panels within one leaf: exactly rounded sums per leaf
            fine = ~coarse
            first = index[fine] << (L - level[fine])  # each one's leaf's first cell
            grid.real, grid.imag = _group_sums(first, v[fine], e[fine], grid.size)
            level, index, e = level[coarse], index[coarse], e[coarse]
        if coarse.any():
            _read_off(grid, iv.width, level, index, np.concatenate(panels.nodes), e)
    if singular:
        level, index, a, b = (np.array(c) for c in zip(*singular))
        hv, he, hevals = _hk_many(
            f, a, b, cfg.quad_tol * (b - a) / iv.width, cfg.singular_points, DEFAULT_MAX_EVALS
        )
        grid[index << (L - level)] = hv + 1j * he
        evals += int(hevals.sum())
    return grid, evals
