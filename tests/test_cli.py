import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

import kspaces
from kspaces.cli import _DEFAULTS, COLUMNS, run_command
from kspaces.verify import run_suites


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestIntegrate:
    def test_polynomial(self, capsys):
        code, out, _ = run(
            capsys, "integrate", "--expr", "x1^2", "--interval", "0,1"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(COLUMNS)
        assert rows[0]["quantity"] == "integral"
        assert float(rows[0]["value"]) == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert int(rows[0]["evaluations"]) > 0

    def test_improper_oscillatory(self, capsys):
        expr = "2*x1*sin(1/x1^2) - (2/x1)*cos(1/x1^2)"
        code, out, _ = run(
            capsys,
            "integrate",
            "--expr",
            expr,
            "--interval",
            "0,1",
            "--tol",
            "1e-3",
            "--singular",
            "0",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(math.sin(1.0), abs=1e-3)

    def test_inverse_sqrt_converges_at_the_default_tol(self, capsys):
        # without extrapolation its shell tols fall below their rounding
        # floor, and the request ran out of its 50M evaluations
        code, out, _ = run(
            capsys, "integrate", "--expr", "1/sqrt(x1)", "--interval", "0,1", "--singular", "0"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["value"]) - 2.0) <= float(rows[0]["error_bound"]) <= 1e-10

    def test_log_squared_converges_near_its_rounding_floor(self, capsys):
        # its deep shells' tols fall below their GK15 rounding floor unless
        # floored relative to the shells before, and then the request ran out
        # of its 50M evaluations
        code, out, _ = run(
            capsys, "integrate", "--expr", "ln(x1)^2", "--interval", "0,1", "--singular", "0",
            "--tol", "1e-12",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["value"]) - 2.0) <= float(rows[0]["error_bound"]) <= 1e-12

    def test_tame_box_scaled(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate",
            "--expr",
            "1",
            "--box",
            "0,1",
            "--tail-family",
            "scaled-j",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["quantity"] == "tame_integral"
        assert float(rows[0]["value"]) == pytest.approx(1.0 / math.log(2.0), abs=1e-10)

    def test_missing_domain_is_usage_error(self, capsys):
        code, _, err = run(capsys, "integrate", "--expr", "x1")
        assert code == 2
        assert "usage error" in err

    def test_undeclared_singularity_is_computation_error(self, capsys):
        code, _, err = run(
            capsys, "integrate", "--expr", "1/x1", "--interval=-1,1"
        )
        assert code == 1
        assert "error" in err


# HK integrable on [0, 1] but not Lebesgue integrable, with their exact
# values: sin 1, pi/2 - Si(1), sin 1 - Ci(1), and the integral of
# u^-1/2 sin u over [1, inf) (mpmath, 30 digits).
OSCILLATORY = {
    "x2sin-derivative": ("2*x1*sin(1/x1^2) - (2/x1)*cos(1/x1^2)", math.sin(1.0)),
    "sin-inv-over-x": ("sin(1/x1)/x1", 0.6247132564277136),
    "sin-inv": ("sin(1/x1)", 0.5040670619069284),
    "x^-1.5-sin-inv": ("x1^-1.5*sin(1/x1)", 0.632777533868738),
}


@pytest.mark.parametrize("tol", ["1e-4", "1e-6", "1e-8", "1e-10"])
@pytest.mark.parametrize("name", OSCILLATORY)
def test_oscillatory_singularities_meet_their_error_bound(capsys, name, tol):
    # cut at the zeros of their phase; dyadic shells took millions of
    # evaluations or exhausted the 50M budget at these tols
    expr, exact = OSCILLATORY[name]
    code, out, err = run(
        capsys, "integrate", "--expr", expr, "--interval", "0,1", "--singular", "0",
        "--tol", tol, "--format", "json",
    )
    assert code == 0, err
    row = json.loads(out)[0]
    assert abs(row["value"] - exact) <= row["error_bound"] <= float(tol)
    assert row["evaluations"] <= 1000


@pytest.mark.parametrize(
    "expr",
    [
        "x1^-2*sin(1/x1)",
        "x1^-2.5*sin(1/x1)",
        "x1^-3*cos(1/x1^2)",
        "x1^-3*cos(1/x1^2) + 10*x1^-1*cos(1/x1^2)",
        "(1+10*x1)*x1^-2*sin(1/x1)",
    ],
)
def test_oscillatory_integrals_without_a_limit_exit_1(capsys, expr):
    # their sums at the zeros of the phase converge (those of
    # x^-3 cos(x^-2) are all -sin(1)/2), but |f| over a half-period does
    # not shrink toward 0, so the integral swings without end
    code, _, err = run(
        capsys, "integrate", "--expr", expr, "--interval", "0,1", "--singular", "0",
        "--tol", "1e-6",
    )
    assert code == 1
    assert "did not settle" in err and "did not shrink" in err


def test_an_integral_whose_half_periods_grow_too_narrow_exits_1(capsys):
    # (1/c) times the integral of cos u over [c, inf) with c = 1e-6, which
    # does not exist; at the default tol the budget runs out first
    code, out, err = run(
        capsys, "integrate", "--expr", "x1^-2*cos(1e-6/x1)", "--interval", "0,1",
        "--singular", "0", "--tol", "1e-6",
    )
    assert (code, out) == (1, "")
    assert "did not settle before its half-periods grew too narrow to split" in err


@pytest.mark.parametrize("argv", [
    ["integrate", "--expr", "(x1 <= 0.999)", "--box", "0,1"],
    ["fourier", "--expr", "(x1 <= 0.999)", "--box", "0,1", "--at", "0"],
], ids=["integrate", "fourier"])
def test_one_axis_boxes_are_cut_at_their_breakpoints(capsys, argv):
    # both printed 1.0: the box quadrature read no breakpoints, where
    # --interval 0,1 gave 0.999
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    row = json.loads(out)[0]
    assert abs(row["value"] - 0.999) <= row["error_bound"] <= 1e-10


USAGE_ERRORS = {
    "interval-and-box": (
        ["integrate", "--expr", "x1", "--interval", "0,1", "--box", "0,1"],
        "give either --interval (1-d HK) or --box (tame), not both",
    ),
    "p-not-a-number": (["norm", "-p", "abc", "--expr", "x1"], "bad p 'abc'"),
    "missing-config": (
        ["norm", "-p", "2", "--expr", "x1", "--config", "no-such-config.json"],
        "cannot read config file",
    ),
}


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_errors_name_their_cause(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    argv, message = USAGE_ERRORS[name]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: " + message)


class TestNorm:
    def test_reference_value(self, capsys):
        code, out, _ = run(
            capsys, "norm", "-p", "2", "--expr", "1", "--window", "0,1", "-K", "64"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["quantity"] == "kp_norm[p=2]"
        assert float(rows[0]["value"]) == pytest.approx(0.77537, abs=1e-4)
        assert float(rows[0]["tail_bound"]) == pytest.approx(2.0**-32, rel=1e-9)

    @pytest.mark.parametrize(
        "p, expr, exact",
        [
            # 10^400 overflows: 10 (1/2 + 3/8 2^-400 + 1/16 4^-400)^(1/400)
            ("400", "10", 10.0 * (0.5 + 0.375 * 2.0**-400 + 0.0625 * 4.0**-400) ** 0.0025),
            # 1e-340 underflows to 0: 1e-170 (1/2 + 3/32 + 1/256)^(1/2)
            ("2", "1e-170", 1e-170 * math.sqrt(0.5 + 3 / 32 + 1 / 256)),
        ],
    )
    def test_powers_out_of_float_range_still_give_the_norm(self, capsys, p, expr, exact):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(
                capsys, "norm", "-p", p, "--expr", expr, "-K", "4", "--format", "json"
            )
        assert code == 0
        value = json.loads(out)[0]["value"]
        assert abs(value - exact) <= 1e-12 * exact

    def test_p_infinity(self, capsys):
        code, out, _ = run(
            capsys, "norm", "-p", "inf", "--expr", "1", "--window", "0,1"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["quantity"] == "kp_norm[p=inf]"
        assert float(rows[0]["value"]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bound", ["nan", "-5", "-inf"])
    def test_bad_abs_bound_is_a_usage_error(self, capsys, monkeypatch, bound):
        # a bad bound used to fall back to the computed |a_k|, the heuristic
        # that --conditionally-integrable forbids; it is refused before
        # anything is integrated
        def never(*args):
            raise AssertionError("integrated before the usage error")

        monkeypatch.setattr(kspaces.cli, "compute_functionals_detailed", never)
        code, out, err = run(
            capsys, "norm", "-p", "2", "--expr", "x1", "-K", "8",
            "--conditionally-integrable", f"--abs-bound={bound}",
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage error: --abs-bound:")

    def test_infinite_abs_bound_is_accepted(self, capsys):
        code, out, _ = run(
            capsys, "norm", "-p", "2", "--expr", "x1", "-K", "8",
            "--conditionally-integrable", "--abs-bound=inf",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["tail_bound"]) == math.inf

    @pytest.mark.parametrize(
        "flags, evals",
        [
            # one GK15 panel per axis for each of the 513 and the 50 leaf cells
            (["--expr", "exp(x1)", "-K", "1024"], 513 * 15),
            (["--expr", "exp(x1)*cos(x2)", "--window", "0,1;0,1", "-K", "64"], 50 * 225),
        ],
    )
    def test_evaluations_are_one_panel_per_leaf_cell(self, capsys, flags, evals):
        code, out, _ = run(capsys, "norm", "-p", "2", *flags)
        assert code == 0
        _, rows = parse_csv(out)
        assert int(rows[0]["evaluations"]) == evals

    def test_singular_point_is_integrated_in_one_leaf_cell(self, capsys):
        # integrated cell by cell, the ten cells holding 0.3 took 2,401,650;
        # in one leaf cell, with shells ended by the Cauchy rule alone, 81,675
        code, out, _ = run(
            capsys, "norm", "-p", "2", "--expr", "ln(abs(x1-0.3))", "--singular", "0.3",
            "-K", "1024",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert int(rows[0]["evaluations"]) <= 10_000

    def test_truncation_past_the_budget_fails_before_allocating(self, capsys):
        # at least 2^25 leaf cells of one GK15 panel each: 10x the budget
        t0 = time.perf_counter()
        code, out, err = run(capsys, "norm", "-p", "2", "--expr", "x1", "-K", "100000000")
        assert code == 1 and not out
        assert "503316480 evaluations" in err
        assert time.perf_counter() - t0 < 1.0

    def test_large_truncation_within_the_budget_runs(self, capsys):
        code, out, _ = run(capsys, "norm", "-p", "2", "--expr", "x1", "-K", "1000000")
        assert code == 0
        _, rows = parse_csv(out)
        assert int(rows[0]["evaluations"]) == 500_001 * 15

    def test_bad_p(self, capsys):
        code, _, err = run(capsys, "norm", "-p", "0.3", "--expr", "1")
        assert code == 2

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "norm", "-p", "2", "--expr", "2*+")
        assert code == 1 or code == 2  # ParseError is a KSError
        assert err


class TestInner:
    def test_cross_indicators(self, capsys):
        code, out, _ = run(
            capsys,
            "inner",
            "--expr",
            "(0<=x1)*(x1<=0.5)",
            "--expr2",
            "(0.5<=x1)*(x1<=1)",
            "--window",
            "0,1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(0.125, abs=1e-10)


class TestFourier:
    def test_rect_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "fourier",
            "--expr",
            "1",
            "--box=-0.5,0.5",
            "--at",
            "0;0.5;1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6  # re and im per point
        byq = {r["quantity"]: float(r["value"]) for r in rows}
        assert byq["fourier_re[y=0]"] == pytest.approx(1.0, abs=1e-10)
        assert byq["fourier_re[y=0.5]"] == pytest.approx(2.0 / math.pi, abs=1e-10)
        assert byq["fourier_re[y=1]"] == pytest.approx(0.0, abs=1e-10)

    def test_rows_carry_the_request_wall_ms(self, capsys):
        # all points come from one integration pass, timed once
        argv = ["fourier", "--expr", "x1", "--box", "0,1", "--at", "0;1.5;2,3", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        assert len({r["wall_ms"] for r in rows}) == 1 and float(rows[0]["wall_ms"]) > 0.0

    def test_non_finite_names_the_point_not_the_frequency(self, capsys):
        code, _, err = run(capsys, "fourier", "--expr", "1/x1", "--box=-1,1", "--at", "0.5")
        assert code == 1
        assert err == "error: integrand non-finite near x=0.0\n"

    def test_a_phase_that_overflows_names_the_frequency(self, capsys):
        # 2 pi x y overflows for x > 0.286: this blamed the constant core,
        # "integrand non-finite near x=0.2970774243113014"
        code, out, err = run(capsys, "fourier", "--expr", "1", "--box", "0,1", "--at", "0.5;1e308")
        assert (code, out) == (1, "")
        assert err == "error: the phase 2*pi*<x, y> overflows on the box at y=(1e+308,)\n"

    def test_parts_share_their_nodes(self, capsys):
        # the real and imaginary parts are two components of one pass, so
        # each row reports the core's 15 evaluations, not 30
        argv = ["fourier", "--expr", "1", "--box", "0,1", "--at", "0.5", "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        re, im = json.loads(out)
        assert abs(re["value"]) <= re["error_bound"]
        assert abs(im["value"] + 2.0 / math.pi) <= im["error_bound"]
        assert re["evaluations"] == im["evaluations"] == 15

    def test_a_zero_width_box_is_zero_without_evaluations(self, capsys):
        argv = ["fourier", "--expr", "1", "--box", "0,0", "--at", "0.5", "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        rows = json.loads(out)
        assert [(r["value"], r["error_bound"], r["evaluations"]) for r in rows] == [(0.0, 0.0, 0)] * 2


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "weak-strong", "--seed", "7"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r["quantity"].endswith(":pass") for r in rows)
        assert all(float(r["value"]) == 1.0 for r in rows)

    def test_rows_name_library_invariants(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "gauge", "--seed", "1")
        assert code == 0
        _, rows = parse_csv(out)
        names = {r["quantity"].split(":")[0] for r in rows}
        assert "gauge.cousin_is_delta_fine" in names
        assert "gauge.refinement_preserves_fineness" in names

    def test_measure_and_fourier_suites_pass(self):
        # in process, as `ks verify` runs them; the margins move in their
        # last digits with BLAS rounding, so only the verdicts are checked
        for seed in (0, 3):
            rows = run_suites(["measure", "fourier"], seed=seed)
            assert {r.suite for r in rows} == {"measure", "fourier"}
            assert [r.name for r in rows if not r.passed] == [], seed

    def test_failing_row_gives_exit_3(self, capsys, monkeypatch):
        from kspaces import verify as verify_mod

        def broken(seed):
            return [verify_mod.CheckRow("gauge", "synthetic", False, -1.0, 0.0, 1)]

        monkeypatch.setitem(verify_mod.SUITES, "gauge", broken)
        code, out, _ = run(capsys, "verify", "--suite", "gauge")
        assert code == 3
        _, rows = parse_csv(out)
        assert rows[0]["quantity"].endswith(":FAIL")


class TestOutputContract:
    def test_csv_header_exact(self, capsys):
        _, out, _ = run(capsys, "integrate", "--expr", "1", "--interval", "0,1")
        assert out.splitlines()[0] == "quantity,value,error_bound,tail_bound,evaluations,wall_ms"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "norm", "-p", "2", "--expr", "1", "--window", "0,1",
            "--format", "json", "--deterministic",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload[0].keys()) == list(COLUMNS)
        assert payload[0]["wall_ms"] == 0.0

    def test_deterministic_output_byte_identical(self, capsys):
        argv = [
            "verify", "--suite", "weak-strong", "--seed", "3", "--deterministic",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

        argv = [
            "norm", "-p", "2", "--expr", "sin(x1)", "--window", "0,1",
            "--deterministic",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_csv_quotes_labels_with_commas(self, capsys):
        code, out, _ = run(
            capsys, "fourier", "--expr", "1", "--box=-0.5,0.5;-0.5,0.5", "--at", "1,2"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 3
        assert all(len(row) == 6 for row in rows)
        assert [row[0] for row in rows[1:]] == ["fourier_re[y=1,2]", "fourier_im[y=1,2]"]

    def test_floats_round_trip(self, capsys):
        _, out, _ = run(
            capsys, "norm", "-p", "2", "--expr", "1", "--window", "0,1"
        )
        _, rows = parse_csv(out)
        v = float(rows[0]["value"])
        assert repr(v) == rows[0]["value"]  # shortest round-trip form


INVALID_CONFIGS = {
    "window-type": {"window": "0,1"},
    "truncation-type": {"truncation": "8"},
    "quad-tol-type": {"quad_tol": "1e-8"},
    "tol-type": {"tol": "1e-8"},
    "weights-type": {"weights": "geometric:0.5"},
    "tail-family-type": {"tail_family": 1},
    "singular-points-type": {"singular_points": 0.5},
    "format-type": {"format": 1},
    "seed-type": {"seed": "1"},
    "deterministic-type": {"deterministic": 1},
    "truncation-true": {"truncation": True},
    "tol-true": {"tol": True},
    "seed-true": {"seed": True},
    "window-entry-true": {"window": [[0, True]]},
    "singular-point-true": {"singular_points": [True]},
    "singular-point-nan": {"singular_points": [math.nan]},
    "singular-point-infinite": {"singular_points": [-math.inf]},
    "truncation-non-integral": {"truncation": 8.5},
    "seed-non-integral": {"seed": 1.5},
    "truncation-below-1": {"truncation": -3},
    "quad-tol-zero": {"quad_tol": 0},
    "tol-negative": {"tol": -1e-8},
    "tol-nan": {"tol": math.nan},
    "weights-without-name": {"weights": {"ratio": 0.25}},
    "weights-extra-key": {"weights": {"name": "geometric", "ratio": 0.25, "scale": 2}},
    "weights-unknown-name": {"weights": {"name": "harmonic"}},
    "weights-ratio-0": {"weights": {"name": "geometric", "ratio": 0}},
    "weights-ratio-1": {"weights": {"name": "geometric", "ratio": 1}},
    "format-choice": {"format": "xml"},
    "tail-family-choice": {"tail_family": "j"},
    "window-triple": {"window": [[0, 1, 2]]},
    "window-single": {"window": [[0]]},
    "window-empty": {"window": []},
    "window-reversed": {"window": [[1, 0]]},
    "window-infinite": {"window": [[0, math.inf]]},
    "top-level-list": [{"truncation": 8}],
    "unknown-key": {"truncadion": 64},
}


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = {
            "window": [[0.0, 1.0]],
            "truncation": 8,
            "format": "json",
            "deterministic": True,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(
            capsys, "norm", "-p", "2", "--expr", "1", "--config", str(path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["wall_ms"] == 0.0
        # truncation 8: tail bound is 2^-4
        assert payload[0]["tail_bound"] == pytest.approx(2.0**-4, rel=1e-12)

        code, out, _ = run(
            capsys,
            "norm", "-p", "2", "--expr", "1", "--config", str(path), "-K", "64",
        )
        payload = json.loads(out)
        assert payload[0]["tail_bound"] == pytest.approx(2.0**-32, rel=1e-12)

    def test_runs_share_no_default_they_could_change(self):
        # every run's config starts from these objects; a list or dict,
        # which one run could change in place for the next, has no hash
        for value in _DEFAULTS.values():
            hash(value)

    @pytest.mark.parametrize("name", INVALID_CONFIGS)
    def test_invalid_config_rejected(self, capsys, tmp_path, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(INVALID_CONFIGS[name]))
        code, _, err = run(
            capsys, "norm", "-p", "2", "--expr", "1", "--config", str(path)
        )
        assert code == 2
        assert err.startswith("usage error: invalid config:")

    def test_integral_float_truncation_is_an_integer(self, capsys, tmp_path):
        # JSON has one number type: 8.0 is the truncation 8
        outs = []
        for truncation in (8, 8.0):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"truncation": truncation}))
            code, out, _ = run(
                capsys, "norm", "-p", "2", "--expr", "1", "--config", str(path),
                "--deterministic",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        _, rows = parse_csv(outs[1])
        assert float(rows[0]["tail_bound"]) == pytest.approx(2.0**-4, rel=1e-12)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"truncadion": 64}))
        code, _, err = run(
            capsys, "norm", "-p", "2", "--expr", "1", "--config", str(path)
        )
        assert code == 2


    def test_cli_import_leaves_jsonschema_out(self):
        # config files are checked by the SETTINGS table, not by jsonschema
        src = os.path.dirname(os.path.dirname(kspaces.__file__))
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import kspaces.cli; "
            "print('jsonschema' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"


def test_benchmark_tracer_installs():
    # perfbench/tracer.py wraps names where cli, kp and fourier bind them,
    # so deleting one of those bindings breaks the benchmark
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    code = (
        f"import sys; sys.path[:0] = {paths!r}; "
        "from kspaces import cli; from tracer import Tracer; Tracer().install(cli); "
        "sys.exit(cli.run_command(['norm', '-p', '2', '--expr', 'x1', '-K', '8']))"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


BAD_NUMBERS = {
    "negative-tol": ["integrate", "--expr", "1", "--interval", "0,1", "--tol", "-1"],
    "reversed-interval": ["integrate", "--expr", "1", "--interval", "1,0"],
    "singular-not-a-number": ["integrate", "--expr", "x1", "--interval", "0,1", "--singular", "a"],
    "zero-truncation": ["norm", "-p", "2", "--expr", "1", "-K", "0"],
    "zero-quad-tol": ["norm", "-p", "2", "--expr", "1", "--quad-tol", "0"],
    "reversed-window": ["norm", "-p", "2", "--expr", "1", "--window", "1,0"],
    "fourier-negative-tol": ["fourier", "--expr", "1", "--box", "0,1", "--at", "1", "--tol", "-1"],
    "config-reversed-window": ["norm", "-p", "2", "--expr", "1", "--config", {"window": [[1, 0]]}],
    "p-nan": ["norm", "-p", "nan", "--expr", "1"],
    "frequency-not-a-number": ["fourier", "--expr", "1", "--box", "0,1", "--at", "1,a"],
    "empty-window": ["norm", "-p", "2", "--expr", "1", "--window", ";"],
    "empty-box": ["integrate", "--expr", "1", "--box", ";"],
    "weight-ratio-1": ["norm", "-p", "2", "--expr", "1", "--weights", "geometric:1"],
    "frequency-nan": ["fourier", "--expr", "1", "--box", "0,1", "--at", "nan"],
    "frequency-inf": ["fourier", "--expr", "1", "--box", "0,1", "--at", "0;1,inf"],
    "frequency-minus-inf": ["fourier", "--expr", "1", "--box", "0,1", "--at=-inf,2"],
}


SINGULAR_OFF_DOMAIN = {
    "integrate-nan": ["integrate", "--expr", "x1", "--interval", "0,1", "--singular", "nan"],
    "integrate-inf": ["integrate", "--expr", "x1", "--interval", "0,1", "--singular", "0,inf"],
    "integrate-outside": ["integrate", "--expr", "x1", "--interval", "0,1", "--singular", "5"],
    "integrate-outside-config": [
        "integrate", "--expr", "x1", "--interval", "0,1", "--config", {"singular_points": [-0.5]},
    ],
    "norm-outside": ["norm", "-p", "2", "--expr", "x1", "-K", "4", "--singular", "5"],
    "norm-nan": ["norm", "-p", "2", "--expr", "x1", "-K", "4", "--singular", "nan"],
    "inner-outside": [
        "inner", "--expr", "x1", "--expr2", "1", "--window", "0,2", "--singular", "0.5,2.5",
    ],
    "norm-outside-config": [
        "norm", "-p", "2", "--expr", "x1", "-K", "4", "--config", {"singular_points": [1.5]},
    ],
}


@pytest.mark.parametrize("name", SINGULAR_OFF_DOMAIN)
def test_singular_points_off_the_domain_are_usage_errors(capsys, tmp_path, name):
    # a singular point outside the 1-D domain, or not finite, is never used
    argv = list(SINGULAR_OFF_DOMAIN[name])
    if isinstance(argv[-1], dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(argv[-1]))
        argv[-1] = str(path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and "singular" in err


def test_singular_points_on_the_domain_edge_are_accepted(capsys):
    for argv in (
        ["integrate", "--expr", "x1", "--interval", "0,1", "--singular", "0,1"],
        ["norm", "-p", "2", "--expr", "x1", "-K", "4", "--singular", "0,0.5,1"],
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv


@pytest.mark.parametrize("flags", [
    ["--tail-family", "scaled-j"], ["--tail-family", "canonical-j"], ["--tail-family=scaled-j"],
    ["--tail-family", "scaled-j", "--tail-family", "canonical-j"],
])
def test_tail_flags_on_interval_are_usage_errors(capsys, flags):
    # the tail family scales only --box results
    code, out, err = run(capsys, "integrate", "--expr", "x1", "--interval", "0,1", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --tail-family applies only to --box")
    code, _, _ = run(capsys, "integrate", "--expr", "x1", "--box", "0,1", *flags)
    assert code == 0


def test_tail_settings_in_a_config_file_are_accepted_with_interval(capsys, tmp_path):
    # one config file may serve several subcommands
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tail_family": "scaled-j"}))
    argv = ["integrate", "--expr", "x1", "--interval", "0,1", "--deterministic"]
    code, with_file, _ = run(capsys, *argv, "--config", str(path))
    assert code == 0
    assert with_file == run(capsys, *argv)[1]


SINGULAR_OFF_1D = {
    "integrate-box": ["integrate", "--expr", "x1*x2", "--box", "0,1;0,1", "--singular", "0.5"],
    "norm-2d-window": ["norm", "-p", "2", "--expr", "x1", "--window", "0,1;0,1", "--singular", "0.3"],
    "inner-2d-window": [
        "inner", "--expr", "x1", "--expr2", "x2", "--window", "0,1;0,1", "--singular", "0.3",
    ],
    "norm-2d-window-config": [
        "norm", "-p", "2", "--expr", "x1", "--window", "0,1;0,1",
        "--config", {"singular_points": [0.3]},
    ],
}


@pytest.mark.parametrize("name", SINGULAR_OFF_1D)
def test_singular_points_off_1d_are_usage_errors(capsys, tmp_path, name):
    # singular points are used only by 1-D HK integrals, so elsewhere they
    # would be a setting that does nothing
    argv = list(SINGULAR_OFF_1D[name])
    if isinstance(argv[-1], dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(argv[-1]))
        argv[-1] = str(path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error: singular points apply only to")


@pytest.mark.parametrize("name", BAD_NUMBERS)
def test_bad_numbers_are_usage_errors(capsys, tmp_path, name):
    argv = list(BAD_NUMBERS[name])
    if isinstance(argv[-1], dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(argv[-1]))
        argv[-1] = str(path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error:")


class TestStdin:
    def test_expression_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x1^2"))
        code, out, _ = run(
            capsys, "integrate", "--expr", "-", "--interval", "0,1"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(1.0 / 3.0, abs=1e-9)

