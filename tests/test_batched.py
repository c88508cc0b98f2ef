"""The batched engine against the one-at-a-time code it replaces.

``_adaptive_many`` must take, on every interval, the decisions the
one-interval loop ``adaptive`` below takes on it alone; the lock-stepped
shells must match the side-by-side, shell-by-shell loop kept below; the box
recursion must match the nested per-node loop kept below as the reference;
and a GK15 round run in blocks must match the one-call round kept below.
The K-functional pass over leaf cells is checked against closed-form cell
integrals, and must cost no more than per-cell
``hk_integrate``/``integrate_nd_result``.  Evaluation counts are compared
exactly and values to 1e-14 relative: the GK15 matrix products may round
differently with the batch size.  Error estimates are compared to 1e-12 of
the value: GK15 takes them from the difference of two nearly equal sums,
scaled by up to 300, so those last-bit changes reach a few 1e-14.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from kspaces import (
    DualityFamily,
    Interval,
    KpConfig,
    ToleranceNotMet,
    compute_functionals,
    hk_integrate,
    hk_integrate_many,
    integrate_nd_result,
)
from kspaces import gauge, kp
from kspaces.errors import EvaluationError
from kspaces.kp import _functionals_pass


def close(a, b):
    return abs(a - b) <= 1e-14 * max(1.0, abs(a))


def close_err(a, b, value):
    return abs(a - b) <= 1e-12 * max(1.0, abs(value))


# ------------------------------------------------------------ loop reference


def adaptive(fn, lo, hi, tol):
    """Batched breadth-first GK15 refinement of one interval [lo, hi].

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
    acc_val, acc_err = [], []
    acc_err_sum = 0.0

    while active_lo.size:
        centers, vals, errs = gauge._gk15_round(fn, active_lo, active_hi)
        seg = np.zeros(errs.size, dtype=np.intp)  # every panel is in the interval
        if acc_err_sum + gauge._error_sums(errs, seg, 1)[0] <= tol:
            acc_val.append(vals)
            acc_err.append(errs)
            break
        done = gauge._settled(active_lo, active_hi, errs, tol, total_w)
        acc_val.append(vals[done])
        acc_err.append(errs[done])
        acc_err_sum += gauge._error_sums(errs[done], seg[done], 1)[0]
        active_lo, active_hi = gauge._bisect(active_lo, active_hi, centers, ~done)

    value = gauge.kernels.neumaier_sum(np.concatenate(acc_val))
    error = gauge.kernels.neumaier_sum(np.concatenate(acc_err))
    return value, error


def shells(fn, s, far, tol_q, cauchy_tol):
    """One singular side, one shell after another.  A step of the engine
    ends when a run of three small shells could end, after 3 - k shells
    with k small ones in a row before it (fewer at the shell cap).  After
    each step the side stops once three consecutive shell integrals fell
    below ``cauchy_tol`` or once the epsilon algorithm's abserr was within
    ``cauchy_tol`` at the step end before and its abserr plus the move of
    its limit over the step is within it now."""
    span = far - s
    parts, errs = [], []
    small_run = 0
    step_left = 3
    wynn = gauge._Wynn()
    before, held = 0.0, False  # the last step end's limit, its abserr within cauchy_tol
    frac = 1.0
    for m in range(gauge.MAX_SHELLS):
        frac_in = frac * gauge.SHELL_RATIO
        x_out = s + span * frac
        x_in = s + span * frac_in
        a, b = (x_in, x_out) if x_in < x_out else (x_out, x_in)
        tol_shell = tol_q * (1.0 - gauge.SHELL_RATIO) * frac
        v, e = adaptive(fn, a, b, tol_shell)
        parts.append(v)
        errs.append(e)
        small_run = small_run + 1 if abs(v) < cauchy_tol else 0
        limit, abserr = wynn.add(v)
        frac = frac_in
        step_left -= 1
        if step_left and m + 1 < gauge.MAX_SHELLS:
            continue
        if small_run >= 3:
            return gauge.kernels.neumaier_sum(parts), gauge.kernels.neumaier_sum(errs) + cauchy_tol
        tail = abserr + abs(limit - before)
        if held and tail <= cauchy_tol:
            return limit, gauge.kernels.neumaier_sum(errs) + tail
        before, held = limit, abserr <= cauchy_tol
        step_left = 3 - small_run
    raise ToleranceNotMet(
        f"shell integrals near singular point {s} did not settle "
        f"within {gauge.MAX_SHELLS} shells",
        value=gauge.kernels.neumaier_sum(parts),
        evaluations=int(fn.evals[0]),
    )


class _OneRoot(gauge._VecFn):
    """The integrand wrapper with every panel charged to one interval."""

    def __call__(self, xs):
        return super().__call__(xs, None, np.zeros(xs.shape[0], dtype=np.intp))


def shells_loop(f, lo, hi, tol, sings):
    """Improper-mode integrals of the intervals [lo[i], hi[i]], each holding
    a singular point: one interval, side and shell after another."""
    values, errors, evals = [], [], []
    for a, b in zip(lo, hi):
        fn = _OneRoot(f, gauge.DEFAULT_MAX_EVALS)
        pairs = gauge._segments(a, b, sings)
        cauchy_tol = tol / (4.0 * len(pairs))
        parts = [
            shells(fn, s, far, 0.5 * tol * abs(far - s) / (b - a), cauchy_tol)
            for s, far in pairs
        ]
        values.append(gauge.kernels.neumaier_sum([v for v, _ in parts]))
        errors.append(gauge.kernels.neumaier_sum([e for _, e in parts]))
        evals.append(int(fn.evals[0]))
    return values, errors, evals


class _LoopFnND:
    """n-argument integrand with scalar leading coordinates and one array
    axis: the wrapper the nested loop below was written for."""

    def __init__(self, f):
        self.f = f
        self.evaluations = 0
        self.vectorized = None

    def _elementwise(self, fixed, xs):
        flat = xs.ravel()
        out = np.empty(flat.shape)
        for i, x in enumerate(flat):
            out[i] = float(self.f(*fixed, float(x)))
        return out.reshape(xs.shape)

    def call(self, fixed, xs):
        self.evaluations += xs.size
        with np.errstate(all="ignore"):
            if self.vectorized is None:
                try:
                    r = np.asarray(self.f(*fixed, xs), dtype=np.float64)
                    if r.ndim == 0:
                        r = np.broadcast_to(r, xs.shape)
                    elif r.shape != xs.shape:
                        raise ValueError
                    self.vectorized = True
                except Exception:
                    self.vectorized = False
                    r = self._elementwise(fixed, xs)
            elif self.vectorized:
                r = np.asarray(self.f(*fixed, xs), dtype=np.float64)
                if r.ndim == 0:
                    r = np.broadcast_to(r, xs.shape)
            else:
                r = self._elementwise(fixed, xs)
        return r


def _loop_axis(fnd, fixed, box, tol):
    """One Python-level adaptive integration per outer node."""
    iv = box[0]
    if len(box) == 1:
        return adaptive(lambda xs: fnd.call(fixed, xs), iv.lo, iv.hi, tol)
    w = max(iv.width, gauge._EPS)
    inner_tol = tol / (2.0 * w)

    def g(xs):
        flat = xs.ravel()
        out = np.empty(flat.shape)
        for i, x in enumerate(flat):
            out[i], _ = _loop_axis(fnd, fixed + (float(x),), box[1:], inner_tol)
        return out.reshape(xs.shape)

    v, e = adaptive(g, iv.lo, iv.hi, 0.5 * tol)
    return v, e + w * inner_tol


def loop_nd(f, box, tol):
    fnd = _LoopFnND(f)
    v, e = _loop_axis(fnd, (), list(box), tol)
    return v, e, fnd.evaluations


# ------------------------------------------------------------- 1-D lock step


def _wavy_step(xs):
    return np.where(xs < 0.3183, 1.0, 2.5) + np.sin(7.0 * xs) + np.sqrt(np.abs(xs - 0.71))


def _interval_corpus():
    rng = np.random.default_rng(7)
    n = 1300  # more than one group of intervals in flight
    lo = rng.uniform(-1.0, 1.0, n)
    hi = lo + rng.choice([0.0, 1e-3, 0.05, 0.4, 1.5], n) * rng.uniform(0.5, 1.0, n)
    hi[::97] = lo[::97]  # zero width
    tol = 10.0 ** rng.uniform(-13.0, -3.0, n)
    return lo, hi, tol


def test_adaptive_many_matches_adaptive_interval_by_interval():
    lo, hi, tol = _interval_corpus()
    counts = np.zeros(lo.size, dtype=np.int64)

    def many(seg, xs):
        np.add.at(counts, seg, xs.shape[1])
        return _wavy_step(xs)

    values, errors = gauge._adaptive_many(many, lo, hi, tol)
    assert (hi == lo).any() and (counts > 15).any()
    for i in range(lo.size):
        n = [0]

        def one(xs):
            n[0] += xs.size
            return _wavy_step(xs)

        v, e = adaptive(one, lo[i], hi[i], tol[i])
        assert counts[i] == n[0], i
        assert close(v, values[i]) and close_err(e, errors[i], v), i


@pytest.fixture
def row_by_row_gk15(monkeypatch):
    """``gk15_batch`` one panel per call, so that no panel's rounding
    depends on the panels batched with it: the BLAS products inside round
    differently with the row count, which changes the last bits of about
    two in five batched HK integrals (evaluation counts stay equal)."""
    batch = gauge.kernels.gk15_batch

    def rows(fvals, halfw):
        out = [batch(fvals[j : j + 1], halfw[j : j + 1]) for j in range(len(halfw))]
        return tuple(np.concatenate(part) for part in zip(*out))

    monkeypatch.setattr(gauge.kernels, "gk15_batch", rows)


def test_adaptive_many_matches_adaptive_on_long_runs(row_by_row_gk15):
    # Rounds in which one interval has 8 or more active panels: both loops
    # sum the errors of its panels in one order, so with a batch-independent
    # GK15 the two take the same decisions and give the same bits.
    def f(xs):
        return np.sin(60.0 * xs) * (xs > 0.41)

    lo, hi = np.array([0.0, -1.0, 0.3]), np.array([2.0, 0.5, 0.3001])
    tol = np.array([1e-12, 1e-9, 1e-13])
    counts = np.zeros(lo.size, dtype=np.int64)
    widest = [0]

    def many(seg, xs):
        np.add.at(counts, seg, xs.shape[1])
        widest[0] = max(widest[0], int(np.bincount(seg).max()))
        return f(xs)

    values, errors = gauge._adaptive_many(many, lo, hi, tol)
    assert widest[0] >= 8
    for i in range(lo.size):
        n = [0]

        def one(xs):
            n[0] += xs.size
            return f(xs)

        assert adaptive(one, lo[i], hi[i], tol[i]) == (values[i], errors[i]), i
        assert counts[i] == n[0], i


def _hk_corpus():
    rng = np.random.default_rng(11)
    n = 1100  # more than one group of intervals in flight
    lo = rng.uniform(0.9, 2.0, n)
    hi = lo + rng.choice([0.0, 1e-3, 0.05, 0.4], n) * rng.uniform(0.5, 1.0, n)
    singular = [
        (0.3, 0.9),  # singular point at the left end
        (0.1, 0.5),  # at the right end
        (0.2, 0.4),  # interior
        (0.25, 0.6),  # two interior points
        (0.3, 0.5),  # one at each end
        (0.3, 0.3),  # zero width, holding a singular point
    ]
    return np.append(lo, [a for a, _ in singular]), np.append(hi, [b for _, b in singular])


@pytest.mark.parametrize(
    "f",
    [lambda x: np.log(np.abs(x - 0.3)) + np.sin(9.0 * x) * (x > 0.37), math.sin],
    ids=["log-jump", "scalar-only"],
)
def test_hk_integrate_many_matches_hk_integrate(row_by_row_gk15, f):
    lo, hi = _hk_corpus()
    if f is math.sin:
        lo, hi = lo[-40:], hi[-40:]  # point by point is slow
    sings = (0.3, 0.5)
    values, errors, evals = hk_integrate_many(f, lo, hi, 1e-8, sings)
    assert (hi == lo).any() and (evals > 15).any()
    for i in range(lo.size):
        r = hk_integrate(f, Interval(lo[i], hi[i]), 1e-8, sings)
        assert (r.value, r.error_estimate, r.evaluations) == (
            values[i],
            errors[i],
            evals[i],
        ), i


def test_hk_integrate_many_keeps_a_budget_per_interval():
    f = lambda x: np.sin(40.0 * x) * (x > 0.37)  # noqa: E731
    lo, hi = [1.0, 0.0, 2.0], [1.5, 1.0, 2.5]
    _, _, evals = hk_integrate_many(f, lo, hi, 1e-10)
    need = int(evals[1])
    assert need > max(evals[0], evals[2])
    hk_integrate_many(f, lo, hi, 1e-10, max_evals=need)  # over it in total
    with pytest.raises(ToleranceNotMet) as info:
        hk_integrate_many(f, lo, hi, 1e-10, max_evals=need - 1)
    assert info.value.evaluations >= need - 1
    assert hk_integrate(f, Interval(0, 1), 1e-10, max_evals=need).evaluations == need


def test_hk_integrate_many_takes_a_tol_per_interval(row_by_row_gk15):
    f = lambda x: np.log(np.abs(x - 0.3)) + np.sin(9.0 * x) * (x > 0.37)  # noqa: E731
    lo, hi = _hk_corpus()
    lo, hi = lo[-60:], hi[-60:]  # plain intervals and every shelled case
    sings = (0.3, 0.5)
    scalar = hk_integrate_many(f, lo, hi, 1e-8, sings)
    equal = hk_integrate_many(f, lo, hi, np.full(lo.size, 1e-8), sings)
    assert all(np.array_equal(a, b) for a, b in zip(scalar, equal))
    tol = np.resize([1e-6, 1e-10, 1e-8], lo.size)
    values, errors, evals = hk_integrate_many(f, lo, hi, tol, sings)
    for i in range(lo.size):
        r = hk_integrate(f, Interval(lo[i], hi[i]), tol[i], sings)
        assert (r.value, r.error_estimate, r.evaluations) == (values[i], errors[i], evals[i]), i


def test_hk_integrate_many_checks_each_interval_against_its_own_tol():
    # the far unit interval is at the width floor, so its jump is
    # force-accepted with an error far above 1e-10 but below 10
    f = lambda x: (x >= 1e15 + 0.5) * 1.0  # noqa: E731
    lo, hi = [0.0, 1e15], [1.0, 1e15 + 1.0]
    hk_integrate_many(f, lo, hi, [1e-10, 10.0])
    with pytest.raises(ToleranceNotMet, match=r"exceeds tol 1e-10 on \[1000000000000000.0, "):
        hk_integrate_many(f, lo, hi, [10.0, 1e-10])


# ---------------------------------------------------------- lock-step shells


def _three_large_shells(x):
    # toward 0 on [0, 1], shell m is [2^-(m+1), 2^-m]: 1 on shells 0, 3, 5
    return ((x > 0.5) | ((x > 1 / 16) & (x <= 1 / 8)) | ((x > 1 / 64) & (x <= 1 / 32))) * 1.0


def _logs(x):
    return np.log(np.abs(x - 0.3)) + np.log(np.abs(x - 0.6))


SHELL_CASES = {
    "three-large-shells": (_three_large_shells, [0.0], [1.0], 1e-3, [0.0]),
    "power-0.9": (lambda x: x**-0.9, [0.0], [1.0], 1e-3, [0.0]),
    "sin-inv-over-x": (lambda x: np.sin(1.0 / x) / x, [0.0], [1.0], 1e-2, [0.0]),
    "two-interior-points": (_logs, [0.0], [1.0], 1e-8, [0.3, 0.6]),
    "one-at-each-end": (_logs, [0.3], [0.6], 1e-8, [0.3, 0.6]),
    # shelled intervals of different shell counts, among plain ones
    "many-intervals": (
        lambda x: np.log(np.abs(x - 0.3)) * np.cos(3.0 * x),
        [0.0, 1.0, 0.25, 0.3, 0.3, -3.0, 0.2, 0.3],
        [1.0, 2.0, 0.3, 0.3001, 0.3, 4.0, 0.5, 0.7],
        1e-7,
        [0.3],
    ),
}


@pytest.mark.parametrize("f, lo, hi, tol, sings", SHELL_CASES.values(), ids=SHELL_CASES)
def test_shells_match_the_sequential_loop(row_by_row_gk15, f, lo, hi, tol, sings):
    values, errors, evals = hk_integrate_many(f, lo, hi, tol, sings)
    held = [i for i in range(len(lo)) if lo[i] < hi[i] and any(lo[i] <= s <= hi[i] for s in sings)]
    want = shells_loop(f, [lo[i] for i in held], [hi[i] for i in held], tol, sings)
    assert (values[held].tolist(), errors[held].tolist(), evals[held].tolist()) == want


def test_shell_steps_take_only_the_shells_the_stop_rule_needs():
    # The run of small shells restarts at shell 3 and, in the middle of a
    # step, at shell 5; the sequential rule stops after shell 8.  Each shell
    # is one panel, so the calls show the shells of each step.
    calls = []

    def f(x):
        calls.append(x.shape[0])
        return _three_large_shells(x)

    r = hk_integrate(f, Interval(0, 1), 1e-3, singular_points=[0.0])
    assert calls == [3, 1, 3, 2]
    assert r.evaluations == 9 * 15
    assert r.value == pytest.approx(0.5 + 1 / 16 + 1 / 64, abs=1e-14)


@pytest.mark.parametrize("cap", [5, 8, 9])
def test_shells_match_the_sequential_loop_under_a_shell_cap(row_by_row_gk15, monkeypatch, cap):
    # the cap cuts the 3-shell step at shell 4 (cap 5) and the 2-shell step
    # at shell 7 (cap 8), where the last three partial sums are equal but
    # only two shells small; cap 9 ends where the Cauchy rule does
    monkeypatch.setattr(gauge, "MAX_SHELLS", cap)

    def outcome(integrate):
        try:
            return [list(r) for r in integrate(_three_large_shells, [0.0], [1.0], 1e-3, [0.0])]
        except ToleranceNotMet as exc:
            return str(exc), exc.value, exc.evaluations

    want = outcome(shells_loop)
    assert outcome(hk_integrate_many) == want
    assert isinstance(want, tuple) == (cap < 9)


def test_cells_holding_a_singular_point_share_integrand_calls():
    lo, hi = DualityFamily((Interval(0, 1),)).cell_bounds(1024)
    held = (lo[:, 0] <= 0.3) & (0.3 <= hi[:, 0])
    lo, hi = lo[held, 0], hi[held, 0]
    calls = [0]

    def f(x):
        calls[0] += 1
        return np.log(np.abs(x - 0.3))

    def run(lo, hi):
        calls[0] = 0
        evals = hk_integrate_many(f, lo, hi, 1e-6, [0.3])[2]
        return calls[0], evals.tolist()

    together, evals = run(lo, hi)
    alone = [run(lo[i : i + 1], hi[i : i + 1]) for i in range(lo.size)]
    assert lo.size == 10
    assert evals == [n for _, [n] in alone]
    assert together <= max(c for c, _ in alone)


# ---------------------------------------------------------------- n-D boxes

BOXES = [
    (lambda x, y: np.exp(-x - 2.0 * y), [Interval(0, 1), Interval(-0.5, 0.7)], 1e-10),
    (lambda x, y: (x + y <= 1.0) * 1.0, [Interval(0, 1), Interval(0, 1)], 1e-6),
    (lambda x, y: np.sin(3.0 * x * y) + x, [Interval(-1, 0.3), Interval(0.2, 2)], 1e-9),
    (lambda x, y: 2.0, [Interval(0, 1), Interval(0, 3)], 1e-8),
    (lambda x, y, z: np.sqrt(x * y * z), [Interval(0, 1)] * 3, 1e-2),
    (lambda x, y, z: np.abs(x - y) * z, [Interval(0, 1)] * 3, 1e-5),
    (lambda x, y, z: np.cos(x + y) * np.exp(-z * z), [Interval(0, 1), Interval(-1, 0), Interval(0, 2)], 1e-6),
    (lambda x: np.abs(x - 0.3), [Interval(0, 1)], 1e-12),
]


@pytest.mark.parametrize("f, box, tol", BOXES)
def test_integrate_nd_matches_loop_reference(f, box, tol):
    r = integrate_nd_result(f, box, tol)
    v, e, n = loop_nd(f, box, tol)
    assert r.evaluations == n
    assert close(v, r.value) and close_err(e, r.error_estimate, v)


def test_integrate_nd_scalar_only_callable():
    f = lambda x, y: math.sin(x) * math.exp(y)  # noqa: E731 - rejects arrays
    box = [Interval(0, 1), Interval(0, 0.5)]
    r = integrate_nd_result(f, box, 1e-8)
    v, e, n = loop_nd(f, box, 1e-8)
    assert r.evaluations == n and close(v, r.value)
    assert r.value == pytest.approx((1 - math.cos(1)) * (math.exp(0.5) - 1), abs=1e-8)


def test_integrate_nd_non_finite_names_the_point():
    with pytest.raises(EvaluationError, match="non-finite"):
        integrate_nd_result(lambda x, y: 1.0 / (x - y), [Interval(0, 1)] * 2, 1e-6)


def test_integrate_boxes_keeps_a_budget_per_box():
    f = lambda x, y: np.sin(5.0 * x * y)  # noqa: E731
    lo, hi = [[0.0, 0.0]] * 3, [[1.0, 1.0]] * 3
    _, _, evals = gauge.integrate_boxes(f, lo, hi, 1e-8)
    need = int(evals[0])
    assert (evals == need).all()
    gauge.integrate_boxes(f, lo, hi, 1e-8, max_evals=need)  # 3x over in total
    with pytest.raises(ToleranceNotMet):
        gauge.integrate_boxes(f, lo, hi, 1e-8, max_evals=need - 1)


# ---------------------------------------------------- per-box parameters

PARAMS = [[1.0, 0.5], [3.0, -0.25], [7.5, 2.0], [0.5, 1.0]]
PARAM_BOXES = [  # box 2 has a zero-width axis
    (
        lambda a, b, x: np.sin(a * x) + b * (x > 0.3),
        [[0.0], [-1.0], [0.2], [1.0]],
        [[1.0], [0.5], [0.2], [2.5]],
        1e-10,
    ),
    (
        lambda a, b, x, y: np.exp(-a * x - b * y),
        [[0.0, 0.0], [-0.5, 0.0], [0.0, 0.3], [1.0, 1.0]],
        [[1.0, 1.0], [0.5, 2.0], [1.0, 0.3], [1.5, 1.2]],
        1e-9,
    ),
    (
        lambda a, b, x, y, z: np.cos(a * x + y) * np.abs(z - b),
        [[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]],
        [[1.0, 1.0, 1.0], [0.0, 1.0, 2.0], [1.0, 0.5, 1.0], [0.5, 1.0, 1.5]],
        1e-6,
    ),
    (  # scalar-only: evaluated point by point
        lambda a, b, x, y: math.sin(a * x) * math.exp(b * y),
        [[0.0, 0.0], [0.0, -1.0], [2.0, 0.0], [0.0, 0.0]],
        [[1.0, 0.5], [1.0, 1.0], [2.0, 1.0], [0.25, 0.75]],
        1e-8,
    ),
]


@pytest.mark.parametrize("f, lo, hi, tol", PARAM_BOXES)
def test_integrate_boxes_params_match_one_closure_per_box(row_by_row_gk15, f, lo, hi, tol):
    values, errors, evals = gauge.integrate_boxes(f, lo, hi, tol, params=PARAMS)
    assert (values == 0.0).sum() == 1 and (evals > 0).sum() == 3
    for i, (a, b) in enumerate(PARAMS):
        v, e, n = gauge.integrate_boxes(
            lambda *xs, a=a, b=b: f(a, b, *xs), lo[i : i + 1], hi[i : i + 1], tol
        )
        assert (values[i], errors[i], evals[i]) == (v[0], e[0], n[0]), i


def test_integrate_boxes_params_keep_a_budget_per_box():
    f = lambda a, x, y: np.sin(a * x * y)  # noqa: E731
    lo, hi = [[0.0, 0.0]] * 3, [[1.0, 1.0]] * 3
    params = [[1.0], [12.0], [2.0]]
    _, _, evals = gauge.integrate_boxes(f, lo, hi, 1e-8, params=params)
    need = int(evals.max())
    assert evals[1] == need > max(evals[0], evals[2])
    gauge.integrate_boxes(f, lo, hi, 1e-8, max_evals=need, params=params)  # over it in total
    with pytest.raises(ToleranceNotMet):
        gauge.integrate_boxes(f, lo, hi, 1e-8, max_evals=need - 1, params=params)


def test_six_dimensional_integral_stays_small():
    f = lambda *xs: np.exp(-sum(xs))  # noqa: E731
    tracemalloc.start()
    try:
        r = integrate_nd_result(f, [Interval(0, 1)] * 6, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.value == pytest.approx((1 - math.exp(-1)) ** 6, abs=1e-4)
    assert peak < 16 * 2**20


# ------------------------------------------------------------- dyadic cells

WINDOWS = [
    ((Interval(-0.3, 1.7),), 1100),
    ((Interval(0.1, 0.35), Interval(-2.0, 5.0)), 300),
    ((Interval(0, 1), Interval(-1, 1), Interval(0.25, 0.3)), 600),
]


@pytest.mark.parametrize("window, K", WINDOWS)
def test_cell_bounds_match_cell(window, K):
    fam = DualityFamily(window)
    lo, hi = fam.cell_bounds(K)
    assert lo.shape == hi.shape == (K, len(window))
    for k in range(1, K + 1):
        cell = fam.cell(k)
        assert lo[k - 1].tolist() == [iv.lo for iv in cell], k
        assert hi[k - 1].tolist() == [iv.hi for iv in cell], k


def _exp_or_square(x):
    return np.where(x < 0.41, np.exp(x), -x * x)


def _log_step(x):
    return np.log(np.abs(x - 0.3)) + (x > 0.5)


def _far_step(x):
    return 3.0 * (x >= 1000.3)


def _log_step_integral(a, b):
    def anti(x):
        u = x - 0.3
        return (u * math.log(abs(u)) if u else 0.0) - x + max(x - 0.5, 0.0)

    return anti(b) - anti(a)


def _jump_2d_integral(a, b, c, d):
    def anti(x):  # of the length of {y in [c, d]: y < x}
        u, w = x - c, d - c
        return 0.0 if u <= 0 else u * u / 2 if u <= w else w * w / 2 + w * (u - w)

    return (math.cos(2 * a) - math.cos(2 * b)) / 2 * (math.exp(d) - math.exp(c)) + anti(b) - anti(a)


# name: (integrand, config, integral over the cell [a, b] x [c, d] x ...)
FUNCTIONAL_CASES = {
    # plain 1-D cells, more than one group of leaves in flight
    "plain-1d": (
        _exp_or_square,
        KpConfig(DualityFamily((Interval(-0.2, 1.3),)), truncation=1100),
        lambda a, b: (
            math.exp(min(b, 0.41)) - math.exp(min(a, 0.41))
            - (max(b, 0.41) ** 3 - max(a, 0.41) ** 3) / 3.0
        ),
    ),
    # leaves holding a singular point are integrated in shells
    "singular-1d": (
        _log_step,
        KpConfig(
            DualityFamily((Interval(0, 1),)),
            truncation=64,
            quad_tol=1e-8,
            singular_points=(0.3, 0.5),
        ),
        _log_step_integral,
    ),
    "jump-2d": (
        lambda x, y: np.sin(2.0 * x) * np.exp(y) + (x > y),
        KpConfig(DualityFamily((Interval(0, 1), Interval(-1, 0.5))), truncation=85, quad_tol=1e-8),
        _jump_2d_integral,
    ),
    # a scalar-only callable is evaluated point by point
    "scalar-only": (
        math.sin,
        KpConfig(DualityFamily((Interval(0, 2),)), truncation=24),
        lambda a, b: math.cos(a) - math.cos(b),
    ),
    # the jump's panel is force-accepted at the width floor, far above its
    # leaf's share of quad_tol but within quad_tol: no functional fails
    "far-step": (
        _far_step,
        KpConfig(DualityFamily((Interval(1000, 1001),)), truncation=1024),
        lambda a, b: 3.0 * max(b - max(a, 1000.3), 0.0),
    ),
}


def _cell_integral(exact, lo, hi):
    return exact(*np.column_stack((lo, hi)).ravel().tolist())


def _per_cell(f, cfg, k):
    """Cell k integrated on its own: the per-cell reference for the leaf pass."""
    cell = cfg.family.cell(k)
    if len(cell) == 1:
        return hk_integrate(f, cell[0], cfg.quad_tol, singular_points=cfg.singular_points)
    return integrate_nd_result(f, cell, cfg.quad_tol)


@pytest.mark.parametrize("name", FUNCTIONAL_CASES)
def test_functionals_cost_no_more_than_per_cell(name):
    f, cfg, exact = FUNCTIONAL_CASES[name]
    values, errors, evals = _functionals_pass(f, cfg)
    per_cell = [_per_cell(f, cfg, k) for k in range(1, cfg.truncation + 1)]
    assert evals <= sum(r.evaluations for r in per_cell)
    assert (errors <= cfg.quad_tol).all()
    lo, hi = cfg.family.cell_bounds(cfg.truncation)
    for k, r in enumerate(per_cell):
        want = _cell_integral(exact, lo[k], hi[k])
        # never further off than the cell integrated alone, up to its error
        bound = abs(r.value - want) + errors[k] + 1e-13 * max(1.0, abs(want))
        assert abs(values[k] - want) <= bound, k + 1


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 2: the jump at y = x falls in the blind strip "
                "past the last Kronrod node of some inner panels, so 754 inner "
                "integrals miss it while all 3,510 report errors within their share",
            ),
        )
        if name == "jump-2d"
        else name
        for name in FUNCTIONAL_CASES
    ],
)
def test_functionals_match_closed_forms(name):
    f, cfg, exact = FUNCTIONAL_CASES[name]
    values, errors, _ = _functionals_pass(f, cfg)
    lo, hi = cfg.family.cell_bounds(cfg.truncation)
    for k in range(cfg.truncation):
        want = _cell_integral(exact, lo[k], hi[k])
        assert abs(values[k] - want) <= errors[k] + 1e-13 * max(1.0, abs(want)), k + 1


# (d, K, leaves): one integration per leaf, and never more leaves than cells
LEAVES = [
    (1, 1, 1),
    (1, 4, 3),
    (1, 1024, 513),
    (2, 64, 50),
    (2, 256, 195),
    (3, 2, 2),
    (3, 10, 9),
    (3, 64, 58),
]


@pytest.mark.parametrize("d, K, leaves", LEAVES)
def test_functionals_integrate_no_more_leaves_than_cells(monkeypatch, d, K, leaves):
    name = "_hk_many" if d == 1 else "integrate_boxes"
    integrate, calls = getattr(kp, name), []

    def counted(f, lo, hi, *args):
        calls.append(len(lo))
        return integrate(f, lo, hi, *args)

    monkeypatch.setattr(kp, name, counted)
    cfg = KpConfig(DualityFamily((Interval(0, 1),) * d), truncation=K)
    values, _, evals = _functionals_pass(lambda *xs: sum(xs), cfg)
    assert calls == [leaves] and leaves <= K
    assert evals == leaves * 15**d  # one GK15 panel per axis and leaf
    lo, hi = cfg.family.cell_bounds(K)
    want = np.prod(hi - lo, axis=1) * (0.5 * (lo + hi)).sum(axis=1)
    np.testing.assert_allclose(values, want, rtol=1e-14, atol=1e-16)


def test_complex_functionals_match_closed_forms():
    cfg = KpConfig(DualityFamily((Interval(0, 1),)), truncation=40)

    def f(x):
        return np.exp(3j * x) * (x > 0.37)

    got = compute_functionals(f, cfg, complex_valued=True)
    lo, hi = cfg.family.cell_bounds(cfg.truncation)
    assert got.values.dtype == np.complex128
    for k, (z, a, b) in enumerate(zip(got.values, lo[:, 0], hi[:, 0]), start=1):
        a = max(a, 0.37)
        want = (cmath.exp(3j * b) - cmath.exp(3j * a)) / 3j if b > a else 0j
        # every functional's error is within quad_tol, or the pass raises
        assert abs(z.real - want.real) <= cfg.quad_tol, k
        assert abs(z.imag - want.imag) <= cfg.quad_tol, k
    scalar = compute_functionals(lambda x: cmath.exp(3j * x), cfg, complex_valued=True)
    assert scalar.values[0] == pytest.approx((cmath.exp(3j) - 1) / 3j, abs=1e-10)


def test_cell_error_over_tol_raises():
    # far from the origin a unit cell is already at the width floor, so its
    # jump is force-accepted with an error far above tol
    far = Interval(1e15, 1e15 + 1.0)
    cfg = KpConfig(DualityFamily((far,)), truncation=1)
    f = lambda x: (x >= 1e15 + 0.5) * 1.0  # noqa: E731
    with pytest.raises(ToleranceNotMet):
        hk_integrate(f, far, cfg.quad_tol)
    with pytest.raises(ToleranceNotMet):
        compute_functionals(f, cfg)


# ----------------------------------------------------------- blocked rounds


def gk15_round_one_call(fn, lo, hi, *args):
    """The GK15 round with all its panels in one integrand call and one
    ``gk15_batch`` call, however many there are: the reference for rounds
    evaluated in blocks of ``_MAX_IN_FLIGHT`` panels."""
    centers = 0.5 * (lo + hi)
    halfw = 0.5 * (hi - lo)
    xs = centers[:, None] + halfw[:, None] * gauge.kernels.GK15_NODES
    vals, errs = gauge.kernels.gk15_batch(fn(*args, xs), halfw)
    return centers, vals, errs


def _x2sin_derivative(x):
    return 2.0 * x * np.sin(x**-2) - (2.0 / x) * np.cos(x**-2)


WIDE_ROUNDS = {
    # shells toward 0; the widest round has 4,544 panels
    "x2sin-derivative": (
        lambda f: hk_integrate_many(f, [0.0], [1.0], 1e-3, [0.0]),
        _x2sin_derivative,
    ),
    # an outer axis of 1,200 panels, whose blocks hand the inner axis 15
    # whole groups of intervals each
    "300-param-boxes": (
        lambda f: gauge.integrate_boxes(
            f, [[0.0, 0.0]] * 300, [[1.0, 1.0]] * 300, 1e-8,
            params=np.linspace(20.0, 30.0, 300)[:, None],
        ),
        lambda p, x1, x2: np.sin(p * x1) * np.exp(x2),
    ),
}


@pytest.mark.parametrize("name", WIDE_ROUNDS)
def test_wide_rounds_run_in_blocks_with_the_one_call_answers(row_by_row_gk15, monkeypatch, name):
    integrate, f = WIDE_ROUNDS[name]
    batch = gauge.kernels.gk15_batch

    def run():
        calls, panels = [], []

        def counted_f(*cols):
            calls.append(cols[-1].shape[0])
            return f(*cols)

        def counted_batch(fvals, halfw):
            panels.append(halfw.size)
            return batch(fvals, halfw)

        with monkeypatch.context() as m:
            m.setattr(gauge.kernels, "gk15_batch", counted_batch)
            out = [a.tolist() for a in integrate(counted_f)]
        return out, max(calls), max(panels)

    blocked, widest_call, widest_batch = run()
    with monkeypatch.context() as m:
        m.setattr(gauge, "_gk15_round", gk15_round_one_call)
        want, _, widest_round = run()
    assert blocked == want
    assert widest_round > gauge._MAX_IN_FLIGHT
    assert widest_call <= gauge._MAX_IN_FLIGHT and widest_batch <= gauge._MAX_IN_FLIGHT


def test_a_non_finite_value_in_a_later_block_names_the_first_bad_point():
    # panel j is [j, j + 1]: panels 1500 (second block) and 2500 on (third) are bad
    lo = np.arange(3000.0)
    hi = lo + 1.0

    def f(x):
        return np.where(((x > 1500.0) & (x < 1501.0)) | (x > 2500.0), np.nan, x)

    def message(round_):
        fn = gauge._VecFn(f, gauge.DEFAULT_MAX_EVALS)
        with pytest.raises(EvaluationError) as info:
            round_(lambda roots, xs: fn(xs, None, roots), lo, hi, np.zeros(lo.size, np.intp))
        return str(info.value)

    got = message(gauge._gk15_round)
    assert got == message(gk15_round_one_call)
    assert f"x={float(1500.5 - 0.5 * gauge.kernels.GK15_NODES[-1])!r};" in got


def test_a_budget_that_runs_out_mid_round_is_charged_per_block(monkeypatch):
    rounds = []

    def f(x):
        rounds.append(x.shape[0])
        return _x2sin_derivative(x)

    with monkeypatch.context() as m:
        m.setattr(gauge, "_gk15_round", gk15_round_one_call)
        hk_integrate(f, Interval(0, 1), 1e-3, singular_points=[0.0])
    k = int(np.argmax(rounds))
    before, width = 15 * sum(rounds[:k]), rounds[k]
    assert width > 2 * gauge._MAX_IN_FLIGHT
    budget = before + 15 * gauge._MAX_IN_FLIGHT  # covers the round's first block only
    with pytest.raises(ToleranceNotMet, match="budget") as info:
        hk_integrate(_x2sin_derivative, Interval(0, 1), 1e-3, [0.0], max_evals=budget)
    assert budget <= info.value.evaluations < before + 15 * width
