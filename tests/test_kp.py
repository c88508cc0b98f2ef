import math

import numpy as np
import pytest

from kspaces import (
    DimensionCapExceeded,
    DualityFamily,
    Functionals,
    Interval,
    KpConfig,
    MissingAbsoluteBound,
    WeightSequence,
    compile_expression,
    compute_functionals,
    geometric_weights,
    k2_inner,
    kp_norm,
    lq_norm,
    parse_expression,
    verify_embedding,
)
from kspaces.verify import random_step

UNIT_WINDOW = Interval(0.0, 1.0)


@pytest.fixture
def cfg():
    return KpConfig(DualityFamily((UNIT_WINDOW,)))


def one(x):
    return np.ones_like(x)


def chi(lo, hi):
    return lambda x: ((x >= lo) & (x <= hi)).astype(float)


def norm(f, p, cfg):
    """The K^p norm of f, from its functionals."""
    return kp_norm(compute_functionals(f, cfg), p, cfg)


# ------------------------------------------------------------ enumeration


class TestDyadicEnumeration:
    def test_level_zero_is_window(self, cfg):
        c = cfg.family.cell(1)[0]
        assert (c.lo, c.hi) == (0.0, 1.0)

    def test_level_one(self, cfg):
        assert (cfg.family.cell(2)[0].lo, cfg.family.cell(2)[0].hi) == (0.0, 0.5)
        assert (cfg.family.cell(3)[0].lo, cfg.family.cell(3)[0].hi) == (0.5, 1.0)

    def test_level_two_row_major(self, cfg):
        assert (cfg.family.cell(5)[0].lo, cfg.family.cell(5)[0].hi) == (0.25, 0.5)

    def test_1d_level_index_ranges(self, cfg):
        # level l occupies k = 2^l .. 2^(l+1)-1
        for level in range(6):
            for k in range(2**level, 2 ** (level + 1)):
                got_level, _ = cfg.family.level_of(k)
                assert got_level == level

    def test_2d_enumeration_row_major(self):
        fam = DualityFamily((Interval(0, 1), Interval(0, 1)))
        # level 1 has 4 cells at indices 2..5, last axis fastest
        cells = [fam.cell(k) for k in range(2, 6)]
        first = [(c[0].lo, c[1].lo) for c in cells]
        assert first == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]

    def test_enumeration_covers_each_level_exactly(self, cfg):
        # within each level the cells tile the window
        for level in (1, 2, 3):
            cells = [
                cfg.family.cell(k)[0] for k in range(2**level, 2 ** (level + 1))
            ]
            assert cells[0].lo == 0.0 and cells[-1].hi == 1.0
            for a, b in zip(cells, cells[1:]):
                assert a.hi == b.lo


# ------------------------------------------------------------ functionals


class TestFunctional:
    def test_indicator_on_whole_window(self, cfg):
        assert compute_functionals(one, cfg).values[0] == pytest.approx(1.0, abs=1e-12)

    def test_sine_whole_window(self, cfg):
        f = lambda x: np.sin(2 * np.pi * x)
        assert compute_functionals(f, cfg).values[0] == pytest.approx(0.0, abs=cfg.quad_tol)

    def test_sine_half_window(self, cfg):
        # antiderivative oracle: (1 - cos(pi)) / (2 pi) = 1/pi
        f = lambda x: np.sin(2 * np.pi * x)
        assert compute_functionals(f, cfg).values[1] == pytest.approx(1.0 / math.pi, abs=1e-10)

    def test_reproducibility(self, cfg):
        f = lambda x: np.exp(x) * np.sin(5 * x)
        a = compute_functionals(f, cfg)
        b = compute_functionals(f, cfg)
        # bitwise: fixed enumeration, fixed summation order
        assert a.values.tobytes() == b.values.tobytes()
        assert a.evaluations == b.evaluations


    def test_a_jump_past_every_node_of_the_window(self):
        # the jump at 0.999 lies past the last GK15 node of [0, 1]: without
        # the expression's breakpoint a_1 was 1.0, and the norm that
        # `ks norm -p 2 --expr "(x1 <= 0.999)" -K 4` prints 0.77308
        cfg = KpConfig(DualityFamily((UNIT_WINDOW,)), truncation=4)
        a = compute_functionals(compile_expression(parse_expression("(x1 <= 0.999)"), 1), cfg)
        cells = [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.0, 0.25)]
        exact = [min(v, 0.999) - u for u, v in cells]
        assert a.values == pytest.approx(exact, abs=cfg.quad_tol)
        t = [2.0**-k for k in range(1, 5)]
        expected = math.sqrt(math.fsum(w * x * x for w, x in zip(t, exact)))
        assert expected == pytest.approx(0.7723547598, abs=1e-10)
        assert kp_norm(a, 2.0, cfg).value == pytest.approx(expected, abs=1e-10)

    def test_both_passes_of_a_complex_integrand_take_its_breakpoints(self):
        def f(x):
            return np.exp(1j * x) * (x <= 0.999)

        f.breakpoints = (0.999,)
        cfg = KpConfig(DualityFamily((UNIT_WINDOW,)), truncation=4)
        a = compute_functionals(f, cfg).values[0]
        exact = (np.exp(0.999j) - 1.0) / 1j
        assert abs(a.real - exact.real) <= cfg.quad_tol
        assert abs(a.imag - exact.imag) <= cfg.quad_tol

    def test_both_passes_of_a_complex_integrand_take_its_phase(self):
        # F' = (x^2 sin x^-2)' times 1 + i; the leaf holding 0 is cut into
        # half-periods, where dyadic shells exhausted the budget
        def f(x):
            return (1 + 1j) * (2 * x * np.sin(x**-2.0) - (2 / x) * np.cos(x**-2.0))

        f.phase = (0.0, 1.0, 2.0)
        cfg = KpConfig(DualityFamily((UNIT_WINDOW,)), truncation=8, singular_points=(0.0,))
        a = compute_functionals(f, cfg)
        lo, hi = cfg.family.cell_bounds(8)
        F = lambda x: x * x * math.sin(x**-2) if x else 0.0  # noqa: E731
        exact = [F(y) - F(x) for x, y in zip(lo[:, 0], hi[:, 0])]
        assert np.abs(a.values.real - exact).max() <= cfg.quad_tol
        assert np.abs(a.values.imag - exact).max() <= cfg.quad_tol
        assert a.evaluations <= 5000


# ------------------------------------------------------------------ norms


def chi_oracle_norm(p: float, K: int = 64) -> float:
    """Truncated-sum oracle for the indicator of [0,1]: level-l cells have
    a_k equal to the cell width 2^-l; weights t_k = 2^-k."""
    terms = []
    for k in range(1, K + 1):
        level = int(math.floor(math.log2(k)))
        terms.append(2.0**-k * (2.0**-level) ** p)
    return math.fsum(terms) ** (1.0 / p)


class TestKpNorm:
    def test_zero_function(self, cfg):
        assert norm(lambda x: np.zeros_like(x), 2.0, cfg).value == 0.0

    def test_chi_p2_against_oracle(self, cfg):
        res = norm(one, 2.0, cfg)
        oracle = chi_oracle_norm(2.0)
        assert res.value == pytest.approx(oracle, abs=1e-6)
        # frozen values: the oracle itself and the displayed reference
        assert oracle == pytest.approx(0.7753682553685488, abs=1e-15)
        assert res.value == pytest.approx(0.77538, abs=2e-5)

    def test_chi_p1_and_p4_against_oracle(self, cfg):
        for p in (1.0, 4.0):
            assert norm(one, p, cfg).value == pytest.approx(
                chi_oracle_norm(p), abs=1e-8
            )

    def test_chi_p_infinity(self, cfg):
        res = norm(one, math.inf, cfg)
        assert res.value == pytest.approx(1.0, abs=1e-10)  # attained at k = 1

    def test_tail_bound_geometric(self, cfg):
        res = norm(one, 2.0, cfg)
        assert res.tail_bound == pytest.approx(2.0**-32, rel=1e-12)

    def test_functionals_recorded(self, cfg):
        a = compute_functionals(one, cfg)
        assert a.values.dtype == np.float64
        assert a.values.shape == (cfg.truncation,)
        assert a.values[0] == pytest.approx(1.0, abs=1e-12)
        assert a.evaluations > 0

    def test_conditionally_integrable_needs_bound(self, cfg):
        a = compute_functionals(one, cfg)
        with pytest.raises(MissingAbsoluteBound):
            kp_norm(a, 2.0, cfg, conditionally_integrable=True)
        res = kp_norm(a, 2.0, cfg, conditionally_integrable=True, abs_bound=1.0)
        assert res.tail_bound >= 2.0**-32

    @pytest.mark.parametrize("bound", [math.nan, -5.0, -math.inf])
    def test_abs_bound_must_be_non_negative(self, cfg, bound):
        # a bad bound used to fall back to the computed |a_k|, the heuristic
        # that conditionally_integrable forbids
        a = compute_functionals(one, cfg)
        for ci in (False, True):
            with pytest.raises(ValueError, match="abs_bound"):
                kp_norm(a, 2.0, cfg, conditionally_integrable=ci, abs_bound=bound)

    def test_abs_bound_may_be_infinite(self, cfg):
        a = compute_functionals(one, cfg)
        res = kp_norm(a, 2.0, cfg, conditionally_integrable=True, abs_bound=math.inf)
        assert res.tail_bound == math.inf
        assert kp_norm(a, 2.0, cfg, abs_bound=0.0).tail_bound == 2.0**-32

    def test_homogeneity(self, cfg):
        f = random_step(np.random.default_rng(0), UNIT_WINDOW)
        n1 = norm(lambda x: 2.5 * f(x), 2.0, cfg).value
        n2 = 2.5 * norm(f, 2.0, cfg).value
        assert abs(n1 - n2) < 1e-12

    def test_monotone_in_p_at_equal_truncation(self, cfg):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_step(rng, UNIT_WINDOW)
            a = compute_functionals(f, cfg)
            values = [kp_norm(a, p, cfg).value for p in (1.0, 2.0, 4.0, math.inf)]
            for low, high in zip(values, values[1:]):
                assert low <= high + 1e-12

    def test_invalid_p(self, cfg):
        with pytest.raises(ValueError):
            norm(one, 0.5, cfg)

    def test_complex_integrand_gives_complex_functionals(self, cfg):
        # the real pass sees complex values, so an imaginary pass follows;
        # a cast to float would keep the real part, 0, and a zero norm
        a = compute_functionals(lambda x: 1j * np.ones_like(x), cfg)
        lo, hi = cfg.family.cell_bounds(cfg.truncation)
        assert a.values.dtype == np.complex128
        np.testing.assert_allclose(a.values, 1j * (hi - lo)[:, 0], rtol=0, atol=1e-15)


class TestK2Inner:
    def test_inner_matches_norm_squared(self, cfg):
        f = random_step(np.random.default_rng(7), UNIT_WINDOW)
        a = compute_functionals(f, cfg)
        ip = k2_inner(a, a, cfg)
        n2 = kp_norm(a, 2.0, cfg).value ** 2
        assert abs(ip - n2) < 1e-10

    def test_inner_with_zero(self, cfg):
        f = random_step(np.random.default_rng(8), UNIT_WINDOW)
        zero = compute_functionals(lambda x: np.zeros_like(x), cfg)
        assert k2_inner(compute_functionals(f, cfg), zero, cfg) == 0.0

    def test_cross_indicators(self, cfg):
        # only the whole-window cell sees both halves: t_1 * (1/2) * (1/2)
        left = compute_functionals(chi(0.0, 0.5), cfg)
        got = k2_inner(left, compute_functionals(chi(0.5, 1.0), cfg), cfg)
        assert got == pytest.approx(0.125, abs=1e-10)

    def test_complex_conjugation(self, cfg):
        f = lambda x: np.exp(2j * np.pi * x)
        a = compute_functionals(f, cfg)
        assert a.values.dtype == np.complex128
        ip = k2_inner(a, a, cfg)
        assert ip.imag == pytest.approx(0.0, abs=1e-10)
        assert ip.real > 0.0

    def test_complex_exactly_when_a_factor_is(self):
        cfg = KpConfig(DualityFamily((UNIT_WINDOW,)), truncation=3)
        real = Functionals(np.array([1.0, 2.0, 3.0]), 0)
        cplx = Functionals(np.array([1.0, 2.0j, 3.0]), 0)
        assert type(k2_inner(real, real, cfg)) is float
        # t = 1/2, 1/4, 1/8; the second factor is conjugated
        assert k2_inner(real, cplx, cfg) == complex(0.5 + 9 / 8, -1.0)
        assert k2_inner(cplx, real, cfg) == complex(0.5 + 9 / 8, 1.0)

    @pytest.mark.parametrize("short", ["f", "g"])
    def test_functionals_of_the_wrong_length_are_refused(self, short):
        cfg = KpConfig(DualityFamily((UNIT_WINDOW,)), truncation=8)
        given = {"f": Functionals(np.ones(8), 0), "g": Functionals(np.ones(8), 0)}
        given[short] = Functionals(np.ones(1), 0)
        with pytest.raises(ValueError, match="truncation"):
            k2_inner(given["f"], given["g"], cfg)
        with pytest.raises(ValueError, match="truncation"):
            kp_norm(Functionals(np.ones(9), 0), 2.0, cfg)

    def test_symmetry_real(self, cfg):
        rng = np.random.default_rng(9)
        f, g = random_step(rng, UNIT_WINDOW), random_step(rng, UNIT_WINDOW)
        af, ag = compute_functionals(f, cfg), compute_functionals(g, cfg)
        assert k2_inner(af, ag, cfg) == pytest.approx(k2_inner(ag, af, cfg), abs=1e-14)


# -------------------------------------------------------------- embedding


class TestEmbedding:
    def test_chi_embeds(self, cfg):
        lq = lq_norm(one, 2.0, cfg.family.window, cfg.quad_tol)
        rep = verify_embedding(compute_functionals(one, cfg), 2.0, 2.0, cfg, lq)
        assert rep.passed
        assert rep.kp_value == pytest.approx(0.77537, abs=1e-4)
        assert rep.lq_value == pytest.approx(1.0, abs=1e-9)

    def test_zero_function(self, cfg):
        zero = lambda x: np.zeros_like(x)  # noqa: E731
        lq = lq_norm(zero, 1.0, cfg.family.window, cfg.quad_tol)
        rep = verify_embedding(compute_functionals(zero, cfg), 1.0, 2.0, cfg, lq)
        assert rep.passed and rep.kp_value == 0.0

    def test_random_step_grid(self, cfg):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_step(rng, UNIT_WINDOW)
            a = compute_functionals(f, cfg)
            for p in (1.0, 2.0, 4.0):
                for q in (1.0, 2.0, math.inf):
                    rep = verify_embedding(a, q, p, cfg, f.lq_norm(q))
                    assert rep.passed

    def test_lq_norm_quadrature_matches_exact(self, cfg):
        f = random_step(np.random.default_rng(4), UNIT_WINDOW)
        for q in (1.0, 2.0, 3.0):
            assert lq_norm(f, q, (UNIT_WINDOW,)) == pytest.approx(
                f.lq_norm(q), abs=1e-8
            )
        assert lq_norm(f, math.inf, (UNIT_WINDOW,)) == pytest.approx(
            f.lq_norm(math.inf), abs=1e-12
        )

    @pytest.mark.parametrize("q", [2.0, math.inf])
    def test_lq_norm_takes_the_modulus_of_complex_values(self, q):
        # |3 + 4i| = 5 everywhere on the unit window
        def f(x):
            return (3.0 + 4.0j) * np.ones_like(x)

        assert lq_norm(f, q, (UNIT_WINDOW,)) == pytest.approx(5.0, abs=1e-9)

    def test_lq_norm_sup_grid_is_capped(self):
        # a 3-D window would sample 4097^3 = 6.9e10 points
        def f(*xs):
            raise AssertionError("sampled past the cap")

        with pytest.raises(DimensionCapExceeded):
            lq_norm(f, math.inf, (UNIT_WINDOW,) * 3)

    @pytest.mark.parametrize("q", [0.5, math.nan])
    def test_lq_norm_refuses_q_below_1_before_integrating(self, q):
        def f(*xs):
            raise AssertionError("integrated")

        with pytest.raises(ValueError, match="q must be >= 1"):
            lq_norm(f, q, (UNIT_WINDOW,))


@pytest.mark.parametrize("K", [2.5, 64.0, "8", True])
def test_truncation_must_be_an_integer(K):
    family = DualityFamily((UNIT_WINDOW,))
    assert KpConfig(family, truncation=np.int64(8)).truncation == 8
    with pytest.raises(ValueError, match="truncation must be an integer"):
        KpConfig(family, truncation=K)


def test_singular_points_need_a_1d_family():
    KpConfig(DualityFamily((UNIT_WINDOW,)), singular_points=(0.3,))
    with pytest.raises(ValueError, match="1-D"):
        KpConfig(DualityFamily((UNIT_WINDOW, UNIT_WINDOW)), singular_points=(0.3,))


@pytest.mark.parametrize("point", [-0.5, 1.5, math.nan, math.inf])
def test_singular_points_lie_in_the_window(point):
    family = DualityFamily((UNIT_WINDOW,))
    KpConfig(family, singular_points=(0.0, 0.5, 1.0))  # the edges belong to it
    with pytest.raises(ValueError, match="window"):
        KpConfig(family, singular_points=(0.5, point))


# ------------------------------------------------------------- inequality


def test_weighted_hoelder_on_functionals(cfg):
    rng = np.random.default_rng(12)
    t = np.array([cfg.weights.term(k) for k in range(1, cfg.truncation + 1)])
    for _ in range(25):
        f = random_step(rng, UNIT_WINDOW)
        g = random_step(rng, UNIT_WINDOW)
        a = compute_functionals(f, cfg).values
        b = compute_functionals(g, cfg).values
        for p in (2.0, 4.0, 1.5):
            q = p / (p - 1.0)
            lhs = abs(float(np.sum(t * a * b)))
            rhs = float(np.sum(t * np.abs(a) ** p)) ** (1 / p) * float(
                np.sum(t * np.abs(b) ** q)
            ) ** (1 / q)
            assert lhs <= rhs + 1e-12


def test_weights_sum_to_one_analytically():
    w = geometric_weights(0.5)
    partial = math.fsum(w.term(k) for k in range(1, 65))
    assert partial + w.tail(64) == pytest.approx(1.0, rel=1e-15)
    w3 = geometric_weights(1.0 / 3.0)
    partial = math.fsum(w3.term(k) for k in range(1, 80))
    assert partial + w3.tail(79) == pytest.approx(1.0, rel=1e-14)


def test_geometric_weights_skip_only_what_underflows():
    # bit for bit (1 - r) r^(k-1), and 0 where r^(k-1) underflows, without
    # taking the slow powers there
    for r in (0.5, 0.3, 0.9, 1.0 / 3.0):
        k = np.arange(1, 200_001)
        want = (1.0 - r) * r ** (k - 1)
        assert geometric_weights(r).term(k).tobytes() == want.tobytes()


def test_weights_are_taken_in_one_array_call():
    calls = []
    ratio = geometric_weights(0.3)

    def term(k):
        calls.append(k)
        return ratio.term(k)

    cfg = KpConfig(
        DualityFamily((UNIT_WINDOW,)),
        weights=WeightSequence(term, ratio.tail),
        truncation=40,
    )
    a = tuple(float(k) for k in range(40))
    got = kp_norm(Functionals(np.array(a), 0), 2.0, cfg).value
    assert len(calls) == 1 and calls[0].tolist() == list(range(1, 41))
    want = math.fsum(ratio.term(k) * x * x for k, x in enumerate(a, start=1)) ** 0.5
    assert got == pytest.approx(want, rel=1e-15)
    k2_inner(Functionals(np.array(a), 0), Functionals(np.array(a), 0), cfg)
    assert len(calls) == 2 and calls[1].tolist() == list(range(1, 41))


def test_parallelogram_identity(cfg):
    rng = np.random.default_rng(13)
    for _ in range(10):
        f = random_step(rng, UNIT_WINDOW)
        g = random_step(rng, UNIT_WINDOW)
        nf = norm(f, 2.0, cfg).value
        ng = norm(g, 2.0, cfg).value
        ns = norm(f + g, 2.0, cfg).value
        nd = norm(f - g, 2.0, cfg).value
        assert abs(ns**2 + nd**2 - 2 * nf**2 - 2 * ng**2) < 1e-9


def test_functionals_evaluation_counts_are_pinned():
    # exact counts, fixed by the adaptive decisions alone: the 513 leaves of
    # the 1-D K = 1024 tree are read off five panel interpolants, the
    # window's, whose estimate is over its share, and its four quarters'
    # (one GK15 panel per leaf took 513 * 15); in 2-D every leaf settles in
    # its first GK15 panel per axis
    one = compile_expression(parse_expression("exp(-1.238*x1)"), 1)
    cfg = KpConfig(DualityFamily((UNIT_WINDOW,)), truncation=1024)
    assert compute_functionals(one, cfg).evaluations == 5 * 15
    two = compile_expression(
        parse_expression("(-0.665 + -1.677*x1 + -0.27*x1^2 + 0.187*x1^3)*(sin(5.738*x2))"), 2
    )
    cfg = KpConfig(DualityFamily((UNIT_WINDOW, UNIT_WINDOW)), truncation=256, quad_tol=1e-8)
    assert compute_functionals(two, cfg).evaluations == 43_875


@pytest.mark.parametrize(
    "d, K", [(1, 1), (1, 7), (1, 1024), (1, 1025), (2, 6), (2, 300), (3, 10), (3, 600)]
)
def test_tree_sums_add_children_level_by_level(d, K):
    # every a_k and its error is the sum of its children's, pairs along the
    # last axis first, down from level L's grid, bit for bit; the signed
    # zeros of the leaves stay as they were
    from kspaces.kp import _leaf_plan, _tree_sums

    family = DualityFamily((UNIT_WINDOW,) * d)
    lo, _, _, own, parents, last = _leaf_plan(family, K)
    rng = np.random.default_rng(K)
    leaves = rng.standard_normal((2, lo.shape[0])) * 10.0 ** rng.integers(-8, 8, (2, lo.shape[0]))
    leaves[:, ::5], leaves[:, 1::7] = -0.0, 0.0
    m = np.count_nonzero(own)
    grid = np.zeros((2,) + own.shape)
    grid[:, own] = leaves[:, :m]
    levels = [grid.reshape(2, -1)[:, : last + 1]]
    while grid.shape[1] > 1:
        for axis in range(d, 0, -1):
            n = grid.shape[axis]
            grid = np.take(grid, range(0, n, 2), axis) + np.take(grid, range(1, n, 2), axis)
        if len(levels) == 1:
            grid[:, parents] = leaves[:, m:]
        levels.append(grid.reshape(2, -1))
    want = np.concatenate(levels[::-1], axis=1)
    values, errors = _tree_sums(*leaves, own, parents, last)
    assert values.shape == errors.shape == (K,)
    assert values.tobytes() == want[0].tobytes() and errors.tobytes() == want[1].tobytes()


# ---------------------------------------------------------- oracle corpus


def _exp_cell(c):
    return lambda a, b: math.exp(c * a) * math.expm1(c * (b - a)) / c


def _sin_cell(m):
    return lambda a, b: 2.0 * math.sin(0.5 * m * (a + b)) * math.sin(0.5 * m * (b - a)) / m


def _cubic_cell(coef):
    # b^(i+1) - a^(i+1) = (b - a) * sum of a^j b^(i-j): no cancellation
    def cell(a, b):
        return (b - a) * math.fsum(
            c * math.fsum(a**j * b ** (i - j) for j in range(i + 1)) / (i + 1)
            for i, c in enumerate(coef)
        )

    return cell


def _stairs_cell(steps):
    return lambda a, b: math.fsum(h * max(b - max(a, p), 0.0) for p, h in steps)


STAIRS = ((0.3171, 1.5), (0.6088, 0.7), (0.8119, 2.9))

# the 1-D factor families the dyadic-kp benchmark draws, with their cell
# integrals in closed form: name: (expression, integral over [a, b])
ORACLE_1D = {
    "exp-neg": ("exp(-1.977*x1)", _exp_cell(-1.977)),
    "exp-pos": ("exp(2*x1)", _exp_cell(2.0)),
    "sin-1": ("sin(1*x1)", _sin_cell(1.0)),
    "sin-4.409": ("sin(4.409*x1)", _sin_cell(4.409)),
    "sin-6": ("sin(6*x1)", _sin_cell(6.0)),
    "cubic": ("-0.665 + -1.677*x1 + -0.27*x1^2 + 0.187*x1^3", _cubic_cell((-0.665, -1.677, -0.27, 0.187))),
    "cubic-steep": ("2 + -2*x1 + 1.9*x1^2 + -1.999*x1^3", _cubic_cell((2.0, -2.0, 1.9, -1.999))),
    "stairs": (" + ".join(f"{h}*(x1 >= {p})" for p, h in STAIRS), _stairs_cell(STAIRS)),
}


def _assert_within_errors(a, cfg, exact, ks):
    lo, hi = cfg.family.cell_bounds(cfg.truncation)
    for k in ks:
        want = exact(lo[k, 0], hi[k, 0])
        assert abs(a.values[k] - want) <= a.errors[k] + 1e-13, (k + 1, a.values[k], want)


@pytest.mark.parametrize("name", ORACLE_1D)
def test_1d_functionals_hold_their_errors(name):
    # every a_k of K = 1024 within its measured error of the exact cell
    # integral, whether read off a panel interpolant or cut at a breakpoint
    expr, exact = ORACLE_1D[name]
    f = compile_expression(parse_expression(expr), 1)
    cfg = KpConfig(DualityFamily((UNIT_WINDOW,)), truncation=1024)
    a = compute_functionals(f, cfg)
    assert a.errors.shape == (1024,) and (a.errors <= cfg.quad_tol).all()
    _assert_within_errors(a, cfg, exact, range(1024))


def test_functionals_of_2_to_the_20_cells_hold_their_errors():
    # 2^20 cells, read off a few dozen panels through the weight tables
    # applied 1024 rows at a time; sampled, with the first and last cells
    cfg = KpConfig(DualityFamily((UNIT_WINDOW,)), truncation=2**20)
    a = compute_functionals(compile_expression(parse_expression("sin(4.409*x1)"), 1), cfg)
    assert a.evaluations < 1000
    ks = [*range(64), *range(64, 2**20, 997), *range(2**20 - 64, 2**20)]
    _assert_within_errors(a, cfg, _sin_cell(4.409), ks)


def test_inner_product_functionals_hold_their_errors():
    # the two functionals records of `ks inner` a step against a cubic, and
    # the inner product within the errors they carry
    step, cubic = ORACLE_1D["stairs"], ORACLE_1D["cubic"]
    cfg = KpConfig(DualityFamily((UNIT_WINDOW,)), truncation=1024)
    af, ag = (compute_functionals(compile_expression(parse_expression(e), 1), cfg) for e, _ in (step, cubic))
    _assert_within_errors(af, cfg, step[1], range(1024))
    _assert_within_errors(ag, cfg, cubic[1], range(1024))
    lo, hi = cfg.family.cell_bounds(1024)
    exact_f = np.array([step[1](u, v) for u, v in zip(lo[:, 0], hi[:, 0])])
    exact_g = np.array([cubic[1](u, v) for u, v in zip(lo[:, 0], hi[:, 0])])
    t = cfg.weights.term(np.arange(1, 1025))
    bound = math.fsum(t * (np.abs(af.values) * ag.errors + np.abs(exact_g) * af.errors))
    exact = math.fsum(t * exact_f * exact_g)
    assert abs(k2_inner(af, ag, cfg) - exact) <= bound + 1e-13


def test_complex_functionals_hold_their_errors():
    # two passes, real then imaginary; each error the hypotenuse of theirs
    def f(x):
        return np.exp(3j * x) * (x > 0.37)

    f.breakpoints = (0.37,)
    cfg = KpConfig(DualityFamily((UNIT_WINDOW,)), truncation=1024)
    a = compute_functionals(f, cfg)
    assert a.values.dtype == np.complex128 and a.errors.dtype == np.float64

    def exact(u, v):
        u = max(u, 0.37)
        return (complex(math.cos(3 * v), math.sin(3 * v)) - complex(math.cos(3 * u), math.sin(3 * u))) / 3j if v > u else 0j

    _assert_within_errors(a, cfg, exact, range(1024))


def test_2d_functionals_carry_their_errors():
    f = compile_expression(parse_expression("exp(x1)*cos(x2)"), 2)
    cfg = KpConfig(DualityFamily((UNIT_WINDOW, UNIT_WINDOW)), truncation=64, quad_tol=1e-8)
    a = compute_functionals(f, cfg)
    lo, hi = cfg.family.cell_bounds(64)
    for k in range(64):
        want = (math.exp(hi[k, 0]) - math.exp(lo[k, 0])) * (math.sin(hi[k, 1]) - math.sin(lo[k, 1]))
        assert abs(a.values[k] - want) <= a.errors[k] + 1e-13, k + 1
    assert Functionals(a.values, 0).errors is None
