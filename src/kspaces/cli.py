"""Command-line front end: ``ks`` with subcommands integrate, norm, inner,
fourier and verify.

Results are emitted as a CSV or JSON table with the columns
``quantity,value,error_bound,tail_bound,evaluations,wall_ms``.  Exit codes:
0 success, 1 computation error, 2 usage error, 3 verify-suite failure.

Configuration may be given as a JSON file (``--config``); command-line
flags override file values.  ``--deterministic`` zeroes the wall_ms column
so identical invocations produce byte-identical tables.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field

from .boxes import TailFamily
from .errors import KSError
from .expr import compile_expression, parse_expression
from .fourier import FrequencyPoint, fourier_tame_result
from .gauge import Interval, hk_integrate, integrate_nd_result
from .infinite import TailMeasureConfig
from .kp import (
    DualityFamily,
    KpConfig,
    compute_functionals_detailed,
    geometric_weights,
    k2_inner,
    kp_norm,
)
from .tame import TameFunction
from .verify import SUITE_NAMES, run_suites

COLUMNS = ("quantity", "value", "error_bound", "tail_bound", "evaluations", "wall_ms")

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "window": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
            "minItems": 1,
        },
        "truncation": {"type": "integer", "minimum": 1},
        "quad_tol": {"type": "number", "exclusiveMinimum": 0},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "weights": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["geometric"]},
                "ratio": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
            "required": ["name"],
        },
        "tail_family": {"enum": ["canonical-j", "scaled-j"]},
        "normalized": {"type": "boolean"},
        "singular_points": {"type": "array", "items": {"type": "number"}},
        "format": {"enum": ["csv", "json"]},
        "seed": {"type": "integer"},
        "deterministic": {"type": "boolean"},
    },
}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    window: list = field(default_factory=lambda: [(0.0, 1.0)])
    truncation: int = 64
    quad_tol: float = 1e-10
    tol: float = 1e-10
    weights_ratio: float = 0.5
    tail_family: str = "canonical-j"
    normalized: bool = True
    singular_points: list = field(default_factory=list)
    format: str = "csv"
    seed: int = 0
    deterministic: bool = False

    @staticmethod
    def from_sources(args) -> "RunConfig":
        cfg = RunConfig()
        if getattr(args, "config", None):
            import jsonschema  # only config files need it; keeps startup lean

            try:
                with open(args.config) as fh:
                    data = json.load(fh)
                jsonschema.validate(data, CONFIG_SCHEMA)
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read config file: {exc}") from exc
            except jsonschema.ValidationError as exc:
                raise UsageError(f"invalid config: {exc.message}") from exc
            if "window" in data:
                cfg.window = [tuple(map(float, w)) for w in data["window"]]
            cfg.truncation = data.get("truncation", cfg.truncation)
            cfg.quad_tol = data.get("quad_tol", cfg.quad_tol)
            cfg.tol = data.get("tol", cfg.tol)
            if "weights" in data:
                cfg.weights_ratio = data["weights"].get("ratio", cfg.weights_ratio)
            cfg.tail_family = data.get("tail_family", cfg.tail_family)
            cfg.normalized = data.get("normalized", cfg.normalized)
            cfg.singular_points = list(data.get("singular_points", []))
            cfg.format = data.get("format", cfg.format)
            cfg.seed = data.get("seed", cfg.seed)
            cfg.deterministic = data.get("deterministic", cfg.deterministic)

        # flags override file values
        if getattr(args, "window", None):
            cfg.window = _parse_box(args.window)
        if getattr(args, "truncation", None) is not None:
            cfg.truncation = args.truncation
        if getattr(args, "quad_tol", None) is not None:
            cfg.quad_tol = args.quad_tol
        if getattr(args, "tol", None) is not None:
            cfg.tol = args.tol
        if getattr(args, "weights", None):
            cfg.weights_ratio = _parse_weights(args.weights)
        if getattr(args, "tail_family", None):
            cfg.tail_family = args.tail_family
        if getattr(args, "normalized", None) is not None:
            cfg.normalized = args.normalized
        if getattr(args, "singular", None):
            cfg.singular_points = [float(s) for s in args.singular.split(",") if s]
        if getattr(args, "format", None):
            cfg.format = args.format
        if getattr(args, "seed", None) is not None:
            cfg.seed = args.seed
        if getattr(args, "deterministic", False):
            cfg.deterministic = True
        return cfg

    def kp_config(self) -> KpConfig:
        family = DualityFamily(tuple(Interval(a, b) for a, b in self.window))
        return KpConfig(
            family,
            weights=geometric_weights(self.weights_ratio),
            truncation=self.truncation,
            quad_tol=self.quad_tol,
            singular_points=tuple(self.singular_points),
        )

    def tail_config(self) -> TailMeasureConfig:
        fam = (
            TailFamily.CANONICAL_J
            if self.tail_family == "canonical-j"
            else TailFamily.SCALED_J
        )
        return TailMeasureConfig(fam, normalized=self.normalized)


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected 'lo,hi', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise UsageError(f"bad interval {text!r}: {exc}") from exc


def _parse_box(text: str):
    return [_parse_pair(part) for part in text.split(";") if part]


def _parse_weights(text: str):
    name, _, ratio = text.partition(":")
    if name != "geometric":
        raise UsageError(f"unknown weight family {name!r}")
    try:
        r = float(ratio) if ratio else 0.5
    except ValueError as exc:
        raise UsageError(f"bad weight ratio {ratio!r}") from exc
    if not 0.0 < r < 1.0:
        raise UsageError("weight ratio must be in (0, 1)")
    return r


def _parse_points(text: str):
    points = []
    for part in text.split(";"):
        if not part:
            continue
        points.append(tuple(float(c) for c in part.split(",")))
    if not points:
        raise UsageError("no frequency points given")
    return points


def _read_expr(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _compiled(expr_text: str, dim: int):
    try:
        ast = parse_expression(_read_expr(expr_text))
        return compile_expression(ast, dim)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fmt_num(x) -> str:
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _emit(rows, fmt: str, out) -> None:
    if fmt == "json":
        payload = [dict(zip(COLUMNS, row)) for row in rows]
        print(json.dumps(payload, indent=2), file=out)
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow(_fmt_num(v) if isinstance(v, (int, float)) else str(v) for v in row)


class _Timer:
    def __init__(self, deterministic: bool):
        self.deterministic = deterministic
        self.t0 = time.perf_counter()

    def ms(self) -> float:
        if self.deterministic:
            return 0.0
        return round(1000.0 * (time.perf_counter() - self.t0), 3)


def _cmd_integrate(args, cfg: RunConfig):
    timer = _Timer(cfg.deterministic)
    if args.interval and args.box:
        raise UsageError("give either --interval (1-d HK) or --box (tame), not both")
    if args.interval:
        lo, hi = _parse_pair(args.interval)
        f = _compiled(args.expr, 1)
        res = hk_integrate(
            f, Interval(lo, hi), tol=cfg.tol, singular_points=cfg.singular_points
        )
        return [("integral", res.value, res.error_estimate, 0.0, res.evaluations, timer.ms())]
    if args.box:
        box = [Interval(a, b) for a, b in _parse_box(args.box)]
        f = _compiled(args.expr, len(box))
        res = integrate_nd_result(f, box, tol=cfg.tol)
        factor = cfg.tail_config().tail_product(len(box))
        return [
            (
                "tame_integral",
                res.value * factor,
                res.error_estimate * factor,
                0.0,
                res.evaluations,
                timer.ms(),
            )
        ]
    raise UsageError("integrate needs --interval or --box")


def _parse_p(text: str) -> float:
    if text.lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(text)
    except ValueError as exc:
        raise UsageError(f"bad p {text!r}") from exc
    if p < 1:
        raise UsageError("p must be >= 1 or inf")
    return p


def _cmd_norm(args, cfg: RunConfig):
    timer = _Timer(cfg.deterministic)
    kcfg = cfg.kp_config()
    f = _compiled(args.expr, kcfg.family.dim)
    p = _parse_p(args.p)
    functionals, evals = compute_functionals_detailed(f, kcfg)
    res = kp_norm(
        f,
        p,
        kcfg,
        abs_bound=args.abs_bound,
        conditionally_integrable=args.conditionally_integrable,
        functionals=functionals,
    )
    label = "inf" if p == math.inf else f"{p:g}"
    return [
        (
            f"kp_norm[p={label}]",
            res.value,
            kcfg.quad_tol,
            res.tail_bound,
            evals,
            timer.ms(),
        )
    ]


def _cmd_inner(args, cfg: RunConfig):
    timer = _Timer(cfg.deterministic)
    kcfg = cfg.kp_config()
    f = _compiled(args.expr, kcfg.family.dim)
    g = _compiled(args.expr2, kcfg.family.dim)
    af, evals_f = compute_functionals_detailed(f, kcfg)
    ag, evals_g = compute_functionals_detailed(g, kcfg)
    value = k2_inner(f, g, kcfg, functionals_f=af, functionals_g=ag)
    eps = kcfg.quad_tol
    mf = max((abs(a) for a in af), default=0.0)
    mg = max((abs(a) for a in ag), default=0.0)
    err = eps * (mf + mg + eps)
    tail = kcfg.weights.tail(kcfg.truncation) * mf * mg
    return [("k2_inner", value, err, tail, evals_f + evals_g, timer.ms())]


def _cmd_fourier(args, cfg: RunConfig):
    box = [Interval(a, b) for a, b in _parse_box(args.box)] if args.box else [
        Interval(a, b) for a, b in cfg.window
    ]
    f = _compiled(args.expr, len(box))
    tame = TameFunction(len(box), f, tuple(box))
    rows = []
    for coords in _parse_points(args.at):
        timer = _Timer(cfg.deterministic)
        y = FrequencyPoint(coords)
        fv, err, evals = fourier_tame_result(tame, y, tol=cfg.tol)
        label = ",".join(f"{c:g}" for c in coords)
        ms = timer.ms()
        rows.append((f"fourier_re[y={label}]", fv.value.real, err, 0.0, evals, ms))
        rows.append((f"fourier_im[y={label}]", fv.value.imag, err, 0.0, evals, ms))
    return rows


def _cmd_verify(args, cfg: RunConfig):
    names = args.suite or list(SUITE_NAMES)
    rows = []
    any_failed = False
    for name in names:
        timer = _Timer(cfg.deterministic)
        checks = run_suites([name], seed=cfg.seed)
        ms = timer.ms()
        for c in checks:
            any_failed = any_failed or not c.passed
            rows.append(
                (
                    f"{c.suite}.{c.name}:{'pass' if c.passed else 'FAIL'}",
                    1.0 if c.passed else 0.0,
                    c.margin,
                    c.threshold,
                    c.checks,
                    ms,
                )
            )
    return rows, any_failed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``ks`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ks",
        description="Gauge integration and Kuelbs-Steadman K^p computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--deterministic", action="store_true", default=False,
                       help="zero the wall_ms column for reproducible output")

    p_int = sub.add_parser("integrate", help="1-d HK integral or tame box integral")
    p_int.add_argument("--expr", required=True, help="integrand ('-' reads stdin)")
    p_int.add_argument("--interval", help="1-d domain as 'lo,hi'")
    p_int.add_argument("--box", help="box domain as 'lo,hi;lo,hi;...'")
    p_int.add_argument("--tol", type=float, default=None)
    p_int.add_argument("--singular", help="comma-separated singular points")
    p_int.add_argument("--tail-family", choices=["canonical-j", "scaled-j"], default=None)
    normalized = p_int.add_mutually_exclusive_group()
    normalized.add_argument("--normalized", dest="normalized", action="store_true", default=None)
    normalized.add_argument("--no-normalized", dest="normalized", action="store_false")
    common(p_int)

    p_norm = sub.add_parser("norm", help="K^p norm of an expression")
    p_norm.add_argument("-p", required=True, help="exponent (>= 1 or 'inf')")
    p_norm.add_argument("--expr", required=True)
    p_norm.add_argument("--window", help="working window 'lo,hi[;lo,hi...]'")
    p_norm.add_argument("-K", "--truncation", type=int, default=None)
    p_norm.add_argument("--quad-tol", dest="quad_tol", type=float, default=None)
    p_norm.add_argument("--weights", help="weight family, e.g. geometric:0.5")
    p_norm.add_argument("--singular", help="comma-separated singular points")
    p_norm.add_argument("--abs-bound", dest="abs_bound", type=float, default=None,
                        help="bound on the integral of |f| (tightens the tail bound)")
    p_norm.add_argument("--conditionally-integrable", action="store_true", default=False)
    common(p_norm)

    p_inner = sub.add_parser("inner", help="K^2 inner product of two expressions")
    p_inner.add_argument("--expr", required=True)
    p_inner.add_argument("--expr2", required=True)
    p_inner.add_argument("--window", help="working window 'lo,hi[;lo,hi...]'")
    p_inner.add_argument("-K", "--truncation", type=int, default=None)
    p_inner.add_argument("--quad-tol", dest="quad_tol", type=float, default=None)
    p_inner.add_argument("--weights", help="weight family, e.g. geometric:0.5")
    p_inner.add_argument("--singular", help="comma-separated singular points")
    common(p_inner)

    p_f = sub.add_parser("fourier", help="Fourier transform of a tame core")
    p_f.add_argument("--expr", required=True, help="core expression")
    p_f.add_argument("--box", help="core working box 'lo,hi[;lo,hi...]'")
    p_f.add_argument("--at", required=True,
                     help="frequency points 'y1,y2;y1,y2;...' (semicolon-separated)")
    p_f.add_argument("--tol", type=float, default=None)
    common(p_f)

    p_v = sub.add_parser("verify", help="run seeded property suites")
    p_v.add_argument("--suite", action="append", choices=list(SUITE_NAMES),
                     help="suite name (repeatable; default: all)")
    p_v.add_argument("--seed", type=int, default=None)
    common(p_v)
    return parser


def run_command(argv) -> int:
    """Parse argv, run one subcommand, print the result table.

    Returns the process exit code instead of raising SystemExit so it can
    be called in-process.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = RunConfig.from_sources(args)
        if args.command == "integrate":
            rows = _cmd_integrate(args, cfg)
        elif args.command == "norm":
            rows = _cmd_norm(args, cfg)
        elif args.command == "inner":
            rows = _cmd_inner(args, cfg)
        elif args.command == "fourier":
            rows = _cmd_fourier(args, cfg)
        elif args.command == "verify":
            rows, any_failed = _cmd_verify(args, cfg)
            _emit(rows, cfg.format, sys.stdout)
            return 3 if any_failed else 0
        else:  # pragma: no cover
            raise UsageError(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except KSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _emit(rows, cfg.format, sys.stdout)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
