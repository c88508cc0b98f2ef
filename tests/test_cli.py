import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import kspaces
from kspaces.cli import COLUMNS, run_command


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

    def test_p_infinity(self, capsys):
        code, out, _ = run(
            capsys, "norm", "-p", "inf", "--expr", "1", "--window", "0,1"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["quantity"] == "kp_norm[p=inf]"
        assert float(rows[0]["value"]) == pytest.approx(1.0, abs=1e-9)

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

    def test_invalid_config_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"truncation": -3}))
        code, _, err = run(
            capsys, "norm", "-p", "2", "--expr", "1", "--config", str(path)
        )
        assert code == 2
        assert "invalid config" in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"truncadion": 64}))
        code, _, err = run(
            capsys, "norm", "-p", "2", "--expr", "1", "--config", str(path)
        )
        assert code == 2


    def test_cli_import_leaves_jsonschema_out(self):
        # jsonschema is imported only when a --config file is read
        src = os.path.dirname(os.path.dirname(kspaces.__file__))
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import kspaces.cli; "
            "print('jsonschema' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"


class TestStdin:
    def test_expression_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x1^2"))
        code, out, _ = run(
            capsys, "integrate", "--expr", "-", "--interval", "0,1"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(1.0 / 3.0, abs=1e-9)

