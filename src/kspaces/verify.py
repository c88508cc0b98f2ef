"""Seeded property suites: each row checks one named library invariant.

These back the CLI ``verify`` subcommand and the acceptance tests.  Every
suite is a function of a seed returning :class:`CheckRow` records; margins
are reported so near-misses are visible, and thresholds come straight from
the documented tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import BoxSet, ElementaryProduct, box_intersect, box_union, j_interval, mu_b, vjn_measure
from .fourier import (
    FrequencyPoint,
    fourier_bound_check,
    fourier_tame,
    fourier_tame_result,
    sinc_tail,
)
from .gauge import Gauge, Interval, cousin_partition, hk_integrate, is_delta_fine, riemann_sum, uniform_partition
from .kp import DualityFamily, KpConfig, compute_functionals, kp_norm, verify_embedding
from .tame import TameFunction

_MAX_LEVEL = 4  # of random_step
# random functions per embeddings run; random pairs per minkowski and
# parallelogram run
_N_FUNCTIONS = 100
_N_PAIRS = 100

SUITE_NAMES = (
    "gauge",
    "measure",
    "embeddings",
    "minkowski",
    "parallelogram",
    "weak-strong",
    "fourier",
)


@dataclass(frozen=True)
class CheckRow:
    suite: str
    name: str
    passed: bool
    margin: float  # slack left before the threshold; negative means failed
    threshold: float
    checks: int


class StepFunction:
    """Dyadic step function on a window: 2^level equal pieces.

    Vectorized callable with exact L^q norms, which keeps the embedding
    checks' right-hand side independent of the quadrature engine.
    """

    def __init__(self, window: Interval, values):
        self.window = window
        self.values = np.asarray(values, dtype=np.float64)
        n = len(self.values)
        if n < 1 or n & (n - 1):
            raise ValueError("piece count must be a power of two")

    @property
    def pieces(self) -> int:
        return len(self.values)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        rel = (x - self.window.lo) / self.window.width
        idx = np.clip((rel * self.pieces).astype(int), 0, self.pieces - 1)
        return self.values[idx]

    def resampled(self, pieces: int) -> "StepFunction":
        if pieces % self.pieces:
            raise ValueError("can only refine to a multiple piece count")
        return StepFunction(self.window, np.repeat(self.values, pieces // self.pieces))

    def _combine(self, other, op):
        if not isinstance(other, StepFunction) or other.window != self.window:
            raise ValueError("windows must match")
        n = max(self.pieces, other.pieces)
        return StepFunction(
            self.window, op(self.resampled(n).values, other.resampled(n).values)
        )

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def scaled(self, alpha: float) -> "StepFunction":
        return StepFunction(self.window, alpha * self.values)

    def lq_norm(self, q: float) -> float:
        if q == math.inf:
            return float(np.max(np.abs(self.values)))
        w = self.window.width / self.pieces
        return float(math.fsum(w * np.abs(self.values) ** q) ** (1.0 / q))


def random_step(rng, window: Interval) -> StepFunction:
    """Random dyadic step function with at most 2^_MAX_LEVEL pieces."""
    level = int(rng.integers(1, _MAX_LEVEL + 1))
    values = rng.uniform(-1.0, 1.0, size=2**level)
    return StepFunction(window, values)


def _row(suite, name, margin, threshold, checks):
    return CheckRow(suite, name, margin >= 0.0, float(margin), float(threshold), checks)


# ---------------------------------------------------------------- gauge


def _random_gauge(rng):
    base = float(rng.uniform(0.02, 0.3))
    amp = float(rng.uniform(0.0, 0.2))
    freq = float(rng.uniform(1.0, 9.0))
    return Gauge(lambda t, b=base, a=amp, w=freq: b + a * abs(math.sin(w * t)))


def _random_smooth(rng):
    c = rng.uniform(-2.0, 2.0, size=4)
    w = float(rng.uniform(0.5, 6.0))
    return lambda x: c[0] + c[1] * x + c[2] * np.sin(w * x) + c[3] * x**2


def gauge_suite(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    iv = Interval(0.0, 1.0)

    worst = math.inf
    n = 40
    for _ in range(n):
        g = _random_gauge(rng)
        shrink = float(rng.uniform(0.3, 1.0))
        finer = Gauge(lambda t, g=g, s=shrink: s * g(t))
        p = cousin_partition(finer, iv)
        ok = is_delta_fine(p, finer) and is_delta_fine(p, g)
        worst = min(worst, 1.0 if ok else -1.0)
    rows = [_row("gauge", "refinement_preserves_fineness", worst, 0.0, n)]

    worst = math.inf
    for _ in range(n):
        g = _random_gauge(rng)
        p = cousin_partition(g, iv)
        worst = min(worst, 1.0 if is_delta_fine(p, g) else -1.0)
    rows.append(_row("gauge", "cousin_is_delta_fine", worst, 0.0, n))

    worst = math.inf
    for _ in range(15):
        f, g = _random_smooth(rng), _random_smooth(rng)
        a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        rf = hk_integrate(f, iv, 1e-10)
        rg = hk_integrate(g, iv, 1e-10)
        rc = hk_integrate(lambda x: a * f(x) + b * g(x), iv, 1e-10)
        allowed = rc.error_estimate + abs(a) * rf.error_estimate + abs(b) * rg.error_estimate
        gap = allowed + 1e-13 - abs(rc.value - a * rf.value - b * rg.value)
        worst = min(worst, gap)
    rows.append(_row("gauge", "hk_linearity", worst, 0.0, 15))

    worst = math.inf
    for _ in range(15):
        f = _random_smooth(rng)
        b = float(rng.uniform(0.2, 0.8))
        whole = hk_integrate(f, Interval(0, 1), 1e-10)
        left = hk_integrate(f, Interval(0, b), 1e-10)
        right = hk_integrate(f, Interval(b, 1), 1e-10)
        allowed = whole.error_estimate + left.error_estimate + right.error_estimate
        gap = allowed + 1e-13 - abs(whole.value - left.value - right.value)
        worst = min(worst, gap)
    rows.append(_row("gauge", "interval_additivity", worst, 0.0, 15))

    # Two partitions at the refinement level where successive Riemann sums
    # settle below tol differ by at most twice that resolution.
    tol = 1e-6
    worst = math.inf
    for _ in range(8):
        f = _random_smooth(rng)
        n_cells, prev = 8, None
        while True:
            rs = riemann_sum(f, uniform_partition(iv, n_cells, "midpoint"))
            if prev is not None and abs(rs - prev) < tol:
                break
            prev, n_cells = rs, n_cells * 2
            if n_cells > 2**22:
                break
        rs_a = riemann_sum(f, uniform_partition(iv, n_cells, "midpoint"))
        rs_b = riemann_sum(f, uniform_partition(iv, 2 * n_cells, "midpoint"))
        worst = min(worst, 2.0 * tol - abs(rs_a - rs_b))
    rows.append(_row("gauge", "two_partition_riemann_gap", worst, 2 * tol, 8))
    return rows


# --------------------------------------------------------------- measure


def _random_box(rng, dim) -> BoxSet:
    base = []
    for _ in range(dim):
        lo = float(rng.uniform(-2, 2))
        base.append(Interval(lo, lo + float(rng.uniform(0.1, 2.0))))
    return BoxSet(tuple(base))


def measure_suite(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    rows = []

    worst = math.inf
    n = 100
    for _ in range(n):
        dim = int(rng.integers(1, 4))
        a, b = _random_box(rng, dim), _random_box(rng, dim)
        parts = box_union(a, b)
        total = math.fsum(float(mu_b(p)) for p in parts)
        inter = box_intersect(a, b)
        expected = float(mu_b(a)) + float(mu_b(b)) - (float(mu_b(inter)) if inter else 0.0)
        worst = min(worst, 1e-12 - abs(total - expected))
    rows.append(_row("measure", "finite_additivity", worst, 1e-12, n))

    worst = math.inf
    for _ in range(n):
        dim = int(rng.integers(1, 4))
        a = _random_box(rng, dim)
        v = rng.uniform(-5, 5, size=dim)
        worst = min(worst, 1e-12 - abs(float(mu_b(a.translate(v))) - float(mu_b(a))))
    rows.append(_row("measure", "translation_invariance", worst, 1e-12, n))

    worst = math.inf
    for _ in range(50):
        a = _random_box(rng, int(rng.integers(1, 4)))
        worst = min(worst, 1e-15 - abs(float(mu_b(a.promote(a.dim + 1))) - float(mu_b(a))))
    rows.append(_row("measure", "promotion_consistency", worst, 1e-15, 50))

    worst = math.inf
    for _ in range(50):
        k = int(rng.integers(1, 30))
        jk = j_interval(k)
        width = jk.width * float(rng.uniform(0.1, 1.0))
        lo = float(rng.uniform(jk.lo, jk.hi - width))
        factors = ((k, Interval(lo, lo + width)),)
        ep = ElementaryProduct(factors, resolved_up_to=k)
        n_order = int(rng.integers(0, k + 1))
        before = float(vjn_measure(ep, n_order))
        shrunk = ElementaryProduct(((k, Interval(lo, lo + 0.5 * width)),), resolved_up_to=k)
        after = float(vjn_measure(shrunk, n_order))
        worst = min(worst, before - after)
    rows.append(_row("measure", "vjn_monotone_shrinkage", worst, 0.0, 50))

    worst = math.inf
    for k in list(range(1, 200)) + [10**3, 10**4, 10**6]:
        closed = 1.0 / math.log(k + 1)
        got = j_interval(k).width
        worst = min(worst, 4e-16 - abs(got - closed) / closed)
    rows.append(_row("measure", "j_interval_closed_form", worst, 4e-16, 202))

    # Rotation invariance is only checkable by Monte Carlo volume since the
    # representation is axis-aligned.
    worst = math.inf
    for _ in range(4):
        dim = int(rng.integers(2, 4))
        a = _random_box(rng, dim)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        corners = np.array(
            [[iv.lo, iv.hi] for iv in a.base], dtype=np.float64
        )
        mesh = np.stack(np.meshgrid(*corners, indexing="ij"), axis=-1).reshape(-1, dim)
        rotated = mesh @ q.T
        lo, hi = rotated.min(axis=0), rotated.max(axis=0)
        bound_vol = float(np.prod(hi - lo))
        m = 400_000
        pts = rng.uniform(lo, hi, size=(m, dim))
        back = pts @ q  # inverse rotation
        inside = np.ones(m, dtype=bool)
        for d, iv in enumerate(a.base):
            inside &= (back[:, d] >= iv.lo) & (back[:, d] <= iv.hi)
        est = bound_vol * inside.mean()
        rel = abs(est - float(mu_b(a))) / float(mu_b(a))
        worst = min(worst, 1e-2 - rel)
    rows.append(_row("measure", "rotation_invariance_mc", worst, 1e-2, 4))
    return rows


# ------------------------------------------------------------ embeddings

_DEFAULT_WINDOW = Interval(0.0, 1.0)


def default_config() -> KpConfig:
    return KpConfig(DualityFamily((_DEFAULT_WINDOW,)))


def embeddings_suite(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    cfg = default_config()
    worst = math.inf
    checks = 0
    for _ in range(_N_FUNCTIONS):
        f = random_step(rng, _DEFAULT_WINDOW)
        functionals = compute_functionals(f, cfg)
        for p in (1.0, 2.0, 4.0):
            for q in (1.0, 2.0, math.inf):
                rep = verify_embedding(functionals, q, p, cfg, f.lq_norm(q))
                worst = min(worst, rep.lq_value + rep.slack - rep.kp_value)
                checks += 1
    return [_row("embeddings", "kp_norm_le_lq_norm", worst, 1e-8, checks)]


# ------------------------------------------------------------- minkowski


def minkowski_suite(seed: int) -> list:
    rng = np.random.default_rng([seed, 4])
    cfg = default_config()
    worst_tri = math.inf
    worst_hom = math.inf
    worst_mono = math.inf
    for _ in range(_N_PAIRS):
        f = random_step(rng, _DEFAULT_WINDOW)
        g = random_step(rng, _DEFAULT_WINDOW)
        af = compute_functionals(f, cfg)
        ag = compute_functionals(g, cfg)
        asum = compute_functionals(f + g, cfg)
        for p in (1.0, 2.0, 4.0):
            nf = kp_norm(af, p, cfg).value
            ng = kp_norm(ag, p, cfg).value
            ns = kp_norm(asum, p, cfg).value
            worst_tri = min(worst_tri, nf + ng + 1e-9 - ns)

        alpha = float(rng.uniform(-3.0, 3.0))
        scaled = compute_functionals(f.scaled(alpha), cfg)
        n1 = kp_norm(scaled, 2.0, cfg).value
        n2 = abs(alpha) * kp_norm(af, 2.0, cfg).value
        worst_hom = min(worst_hom, 1e-12 - abs(n1 - n2))

        values = [kp_norm(af, p, cfg).value for p in (1.0, 2.0, 4.0, math.inf)]
        for lo_v, hi_v in zip(values[:-1], values[1:]):
            worst_mono = min(worst_mono, hi_v + 1e-12 - lo_v)
    return [
        _row("minkowski", "triangle_inequality", worst_tri, 1e-9, 3 * _N_PAIRS),
        _row("minkowski", "homogeneity", worst_hom, 1e-12, _N_PAIRS),
        _row("minkowski", "p_monotonicity", worst_mono, 1e-12, 3 * _N_PAIRS),
    ]


# --------------------------------------------------------- parallelogram


def parallelogram_suite(seed: int) -> list:
    rng = np.random.default_rng([seed, 5])
    cfg = default_config()
    worst = math.inf
    for _ in range(_N_PAIRS):
        f = random_step(rng, _DEFAULT_WINDOW)
        g = random_step(rng, _DEFAULT_WINDOW)
        nf, ng, np_, nm = (
            kp_norm(compute_functionals(h, cfg), 2.0, cfg).value for h in (f, g, f + g, f - g)
        )
        resid = abs(np_**2 + nm**2 - 2.0 * nf**2 - 2.0 * ng**2)
        worst = min(worst, 1e-9 - resid)
    return [_row("parallelogram", "parallelogram_identity", worst, 1e-9, _N_PAIRS)]


# ----------------------------------------------------------- weak-strong


def weak_strong_suite(seed: int) -> list:
    # Deterministic: the oscillatory family sin(m x) needs no randomness.
    cfg = KpConfig(DualityFamily((Interval(0.0, 2.0 * math.pi),)), quad_tol=1e-12)
    ms = [1, 2, 4, 8, 16, 32, 64]
    values = {}
    for m in ms:
        am = compute_functionals(lambda x, m=m: np.sin(m * x), cfg)
        values[m] = kp_norm(am, 2.0, cfg).value
    collapse = values[1] / 16.0 - values[64]
    worst_mono = math.inf
    for a, b in zip(ms[2:-1], ms[3:]):  # non-increasing after m = 4
        worst_mono = min(worst_mono, values[a] - values[b])
    return [
        _row("weak-strong", "oscillatory_norm_collapse", collapse, 0.0, len(ms)),
        _row("weak-strong", "eventual_monotonicity", worst_mono, 0.0, len(ms) - 3),
    ]


# --------------------------------------------------------------- fourier


def fourier_suite(seed: int) -> list:
    rng = np.random.default_rng([seed, 6])
    rows = []

    rect = TameFunction(1, lambda x: np.ones_like(x), (Interval(-0.5, 0.5),))
    ys = np.linspace(-4.0, 4.0, 64)
    points = [FrequencyPoint((float(y),)) for y in ys]
    worst = math.inf
    for y, (fv, _, _) in zip(ys, fourier_tame_result(rect, points, tol=1e-12)):
        worst = min(worst, 1e-10 - abs(fv.value - complex(np.sinc(y))))
    rows.append(_row("fourier", "rect_transform_is_sinc", worst, 1e-10, len(ys)))

    worst = math.inf
    n = 20
    window = Interval(-0.5, 0.5)
    for _ in range(n):
        step = random_step(rng, window)
        f = TameFunction(1, step, (window,))
        grid = [FrequencyPoint((float(v),)) for v in rng.uniform(-8, 8, size=64)]
        rep = fourier_bound_check(f, grid)
        worst = min(worst, rep.l1_bound + rep.slack - rep.max_abs)
    rows.append(_row("fourier", "bounded_by_core_l1", worst, 1e-8, n))

    worst = math.inf
    for _ in range(10):
        s1, s2 = random_step(rng, window), random_step(rng, window)
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combo = TameFunction(
            1, lambda x, s1=s1, s2=s2, a=a, b=b: a * s1(x) + b * s2(x), (window,)
        )
        y = FrequencyPoint((float(rng.uniform(-4, 4)),))
        lhs = fourier_tame(combo, y).value
        rhs = a * fourier_tame(TameFunction(1, s1, (window,)), y).value + b * fourier_tame(
            TameFunction(1, s2, (window,)), y
        ).value
        worst = min(worst, 1e-8 - abs(lhs - rhs))
    rows.append(_row("fourier", "linearity", worst, 1e-8, 10))

    worst = math.inf
    for _ in range(10):
        step = random_step(rng, window)
        f = TameFunction(1, step, (window,))
        y = float(rng.uniform(-4, 4))
        points = [FrequencyPoint((y,)), FrequencyPoint((-y,))]
        (plus, _, _), (minus, _, _) = fourier_tame_result(f, points)
        worst = min(worst, 1e-10 - abs(minus.value - plus.value.conjugate()))
    rows.append(_row("fourier", "conjugate_symmetry", worst, 1e-10, 10))

    worst = math.inf
    for _ in range(50):
        n_head = int(rng.integers(1, 4))
        coords = rng.uniform(-6, 6, size=int(rng.integers(0, 5)))
        y = FrequencyPoint(tuple(coords))
        v = sinc_tail(y, n_head)
        worst = min(worst, 1.0 - abs(v))
        if len(coords) <= n_head:
            worst = min(worst, 0.0 if v == 1.0 else -1.0)
    rows.append(_row("fourier", "sinc_tail_unit_bound", worst, 0.0, 50))
    return rows


SUITES = {
    "gauge": gauge_suite,
    "measure": measure_suite,
    "embeddings": embeddings_suite,
    "minkowski": minkowski_suite,
    "parallelogram": parallelogram_suite,
    "weak-strong": weak_strong_suite,
    "fourier": fourier_suite,
}


def run_suites(names, seed: int = 0) -> list:
    rows = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; have {SUITE_NAMES}")
        rows.extend(SUITES[name](seed))
    return rows
