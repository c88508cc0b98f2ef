"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from kspaces import (
    DualityFamily,
    Interval,
    KpConfig,
    NotCauchy,
    TailFamily,
    TailMeasureConfig,
    TameFunction,
    compute_functionals,
    hk_integrate,
    integrate_limit,
    integrate_tame,
    j_interval,
    k2_inner,
    kp_norm,
)
from kspaces.fourier import FrequencyPoint, fourier_bound_check, fourier_tame
from kspaces.verify import (
    embeddings_suite,
    minkowski_suite,
    parallelogram_suite,
    random_step,
)

SEED = 20240901
UNIT = Interval(0.0, 1.0)


def report(number: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{label}]: {status} ({detail})")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def unit_config(**kw) -> KpConfig:
    return KpConfig(DualityFamily((UNIT,)), **kw)


def test_criterion_1_hk_power_beyond_lebesgue():
    # F(x) = x^2 sin(x^-2), F(0) = 0; F' is HK- but not absolutely integrable
    def fprime(x):
        return 2.0 * x * np.sin(x**-2.0) - (2.0 / x) * np.cos(x**-2.0)

    t0 = time.perf_counter()
    res = hk_integrate(fprime, UNIT, tol=1e-3, singular_points=[0.0])
    elapsed = time.perf_counter() - t0
    err = abs(res.value - math.sin(1.0))
    report(
        1,
        "HK integral of F' equals sin(1)",
        err <= 1e-3 and elapsed < 60.0,
        f"value={res.value:.6f} |err|={err:.2e} time={elapsed:.2f}s evals={res.evaluations}",
    )


def test_criterion_2_embedding_inequality():
    t0 = time.perf_counter()
    rows = embeddings_suite(SEED)
    elapsed = time.perf_counter() - t0
    row = rows[0]
    report(
        2,
        "kp_norm <= L^q + tail + 1e-8 on 100x9 grid",
        row.passed and elapsed < 30.0,
        f"checks={row.checks} worst_margin={row.margin:.3e} time={elapsed:.2f}s",
    )


def test_criterion_3_reference_values():
    cfg = unit_config()

    # independent truncated-sum oracle: level-l cells integrate chi to 2^-l
    terms = [2.0**-k * (2.0 ** -math.floor(math.log2(k))) ** 2 for k in range(1, 65)]
    oracle = math.fsum(terms) ** 0.5

    norm = kp_norm(compute_functionals(lambda x: np.ones_like(x), cfg), 2.0, cfg).value
    chi_left = lambda x: ((x >= 0.0) & (x <= 0.5)).astype(float)
    chi_right = lambda x: ((x >= 0.5) & (x <= 1.0)).astype(float)
    inner = k2_inner(
        compute_functionals(chi_left, cfg), compute_functionals(chi_right, cfg), cfg
    )

    ok_norm = abs(norm - oracle) <= 1e-6 and abs(oracle - 0.77538) < 2e-5
    ok_inner = abs(inner - 0.125) <= 1e-10
    report(
        3,
        "reference norm and inner product",
        ok_norm and ok_inner,
        f"norm={norm:.10f} oracle={oracle:.10f} inner={inner:.12f}",
    )


def test_criterion_4_minkowski_and_parallelogram():
    rows = minkowski_suite(SEED) + parallelogram_suite(SEED)
    by_name = {r.name: r for r in rows}
    tri = by_name["triangle_inequality"]
    par = by_name["parallelogram_identity"]
    report(
        4,
        "Minkowski triangle + parallelogram law",
        tri.passed and par.passed,
        f"triangle_margin={tri.margin:.3e} parallelogram_margin={par.margin:.3e}",
    )


def test_criterion_5_weak_to_strong_collapse():
    cfg = KpConfig(DualityFamily((Interval(0.0, 2.0 * math.pi),)), quad_tol=1e-12)
    ms = [1, 2, 4, 8, 16, 32, 64]
    values = {
        m: kp_norm(compute_functionals(lambda x, m=m: np.sin(m * x), cfg), 2.0, cfg).value
        for m in ms
    }
    collapse = values[64] <= values[1] / 16.0
    tail = [values[m] for m in ms[2:]]  # m = 4, 8, ..., 64
    monotone = all(a >= b for a, b in zip(tail, tail[1:]))
    detail = " ".join(f"m={m}:{values[m]:.3e}" for m in ms)
    report(5, "oscillatory norms collapse", collapse and monotone, detail)


def test_criterion_6_norm_order_chain():
    cfg = unit_config()
    rng = np.random.default_rng(SEED)
    worst = math.inf
    for _ in range(100):
        f = random_step(rng, UNIT)
        a = compute_functionals(f, cfg)
        values = [kp_norm(a, p, cfg).value for p in (1.0, 2.0, 4.0, math.inf)]
        for low, high in zip(values, values[1:]):
            worst = min(worst, high - low)
    report(
        6,
        "kp_norm monotone in p at equal truncation",
        worst >= -1e-12,
        f"worst_gap={worst:.3e} (>= -1e-12 required)",
    )


def test_criterion_7_fourier_sinc_and_bound():
    rect = TameFunction(1, lambda x: np.ones_like(x), (Interval(-0.5, 0.5),))
    worst = 0.0
    for y in np.linspace(-4.0, 4.0, 64):
        got = fourier_tame(rect, FrequencyPoint((float(y),)), tol=1e-12).value
        worst = max(worst, abs(got - complex(np.sinc(y))))

    rng = np.random.default_rng(SEED)
    window = Interval(-0.5, 0.5)
    bound_ok = True
    for _ in range(20):
        f = TameFunction(1, random_step(rng, window), (window,))
        grid = [FrequencyPoint((float(v),)) for v in rng.uniform(-8, 8, size=64)]
        bound_ok = bound_ok and fourier_bound_check(f, grid).passed
    report(
        7,
        "rect transform is sinc; |Ff| <= int |f|",
        worst <= 1e-10 and bound_ok,
        f"worst_sinc_err={worst:.2e} bound_corpus_ok={bound_ok}",
    )


def test_criterion_8_measure_properties():
    from kspaces import BoxSet, box_intersect, box_union, mu_b

    rng = np.random.default_rng(SEED)
    worst = math.inf
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        boxes = []
        for _ in range(2):
            lows = rng.uniform(-2, 2, size=dim)
            widths = rng.uniform(0.1, 2.0, size=dim)
            boxes.append(
                BoxSet(tuple(Interval(l, l + w) for l, w in zip(lows, widths)))
            )
        a, b = boxes
        inter = box_intersect(a, b)
        expected = float(mu_b(a)) + float(mu_b(b)) - (
            float(mu_b(inter)) if inter else 0.0
        )
        total = math.fsum(float(mu_b(p)) for p in box_union(a, b))
        worst = min(worst, 1e-12 - abs(total - expected))

        shift = rng.uniform(-5, 5, size=dim)
        worst = min(
            worst, 1e-12 - abs(float(mu_b(a.translate(shift))) - float(mu_b(a)))
        )

    ks = np.arange(1, 1_000_001)
    closed = 1.0 / np.log(ks + 1.0)
    sampled = np.array([j_interval(int(k)).width for k in ks[:: 997]])
    rel_sampled = np.max(np.abs(sampled - closed[::997]) / closed[::997])
    # full sweep through the API on every k up to 1e6
    full_ok = all(
        j_interval(int(k)).width == pytest.approx(float(c), rel=4e-16)
        for k, c in zip(ks[::1], closed[::1])
    )
    report(
        8,
        "measure additivity/translation + j_k closed form",
        worst >= 0.0 and rel_sampled <= 4e-16 and full_ok,
        f"worst_measure_margin={worst:.3e} max_rel_jk={rel_sampled:.2e}",
    )


def test_criterion_9_infinite_integration():
    one = lambda x: np.ones_like(x)
    scaled = TameFunction(1, one, (UNIT,))
    got = integrate_tame(scaled, TailMeasureConfig(TailFamily.SCALED_J))
    ok_scaled = abs(got - 1.0 / math.log(2.0)) <= 1e-12

    core = lambda x: np.sin(3.0 * x) + x**2
    f1 = TameFunction(1, core, (UNIT,))
    f2 = TameFunction(
        2, lambda x, y: core(x) * np.ones_like(y), (UNIT, Interval(-0.5, 0.5))
    )
    cfg = TailMeasureConfig()
    promo_gap = abs(integrate_tame(f2, cfg) - integrate_tame(f1, cfg))
    ok_promo = promo_gap <= 1e-8

    def growing():
        for n in range(1, 400):
            hi = 1.0 - 1.0 / n if n > 1 else 0.0
            yield TameFunction(1, one, (Interval(0.0, hi),))

    rep = integrate_limit(growing(), cfg, tol=1e-3, max_n=399)
    ok_limit = rep.converged

    def alternating():
        for n in range(1, 50):
            s = -1.0 if n % 2 else 1.0
            yield TameFunction(1, lambda x, s=s: s * np.ones_like(x), (UNIT,))

    try:
        integrate_limit(alternating(), cfg, tol=1e-6, max_n=30)
        ok_alt = False
    except NotCauchy:
        ok_alt = True

    report(
        9,
        "infinite integration: scaled factor, promotion, limits",
        ok_scaled and ok_promo and ok_limit and ok_alt,
        f"scaled={got:.12f} promo_gap={promo_gap:.2e} "
        f"limit_converged={ok_limit} alternating_flagged={ok_alt}",
    )
