"""Command-line front end: ``ks`` with subcommands integrate, norm, inner,
fourier and verify.

Results are emitted as a CSV or JSON table with the columns
``quantity,value,error_bound,tail_bound,evaluations,wall_ms``.  Exit codes:
0 success, 1 computation error, 2 usage error, 3 verify-suite failure.

Configuration may be given as a JSON file (``--config``); command-line
flags override file values.  Each setting has one entry in ``SETTINGS``,
whose check applies to its flag and its config key alike.
``--deterministic`` zeroes the wall_ms column so identical invocations
produce byte-identical tables.
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

import numpy as np

from .boxes import TailFamily
from .errors import KSError
from .expr import compile_expression, parse_expression
from .fourier import FrequencyPoint, fourier_tame_result
from .gauge import Interval, hk_integrate, integrate_nd_result
from .infinite import TailMeasureConfig
from .kp import (
    DualityFamily,
    KpConfig,
    geometric_weights,
    k2_inner,
    kp_norm,
)
# bound under this name, which perfbench/tracer.py wraps
from .kp import compute_functionals as compute_functionals_detailed
from .tame import TameFunction
from .verify import SUITE_NAMES, run_suites

COLUMNS = ("quantity", "value", "error_bound", "tail_bound", "evaluations", "wall_ms")
TAIL_FAMILIES = tuple(family.value for family in TailFamily)
FORMATS = ("csv", "json")


class UsageError(Exception):
    pass


def _rule(wanted: str, test, convert=None):
    """A check that returns ``value``, through ``convert`` if given, when
    ``test(value)`` holds, and raises ValueError naming ``wanted`` if not."""

    def check(value):
        if not test(value):
            raise ValueError(f"must be {wanted}, got {value!r}")
        return value if convert is None else convert(value)

    return check


def _number(v) -> bool:
    """A JSON number: Python's bool is an int, JSON's true is not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v) -> bool:
    # JSON has one number type, so 8.0 is the integer 8
    return _number(v) and float(v).is_integer()


def _finite(v) -> bool:
    return _number(v) and math.isfinite(v)


def _pair(v) -> bool:
    return isinstance(v, list) and all(map(_finite, v)) and len(v) == 2 and v[0] <= v[1]


def _geometric(v) -> bool:
    if not (isinstance(v, dict) and v.keys() <= {"name", "ratio"}):
        return False
    ratio = v.get("ratio", 0.5)
    return v.get("name") == "geometric" and _number(ratio) and 0.0 < ratio < 1.0


def _parse_floats(text: str) -> list:
    """'a,b,...' as the list [a, b, ...]."""
    return [float(s) for s in text.split(",") if s]


def _parse_box(text: str) -> list:
    """'lo,hi;lo,hi;...' as the window [[lo, hi], [lo, hi], ...]."""
    return [_parse_floats(part) for part in text.split(";") if part]


def _parse_weights(text: str) -> dict:
    """'geometric:r' as the weights {"name": "geometric", "ratio": r}."""
    name, _, ratio = text.partition(":")
    return {"name": name, "ratio": float(ratio)} if ratio else {"name": name}


_positive = _rule("a number > 0", lambda v: _number(v) and v > 0)
_boolean = _rule("true or false", lambda v: isinstance(v, bool))
_truncation = _rule("an integer >= 1", lambda v: _integer(v) and v >= 1, int)
_interval = _rule(
    "a pair [lo, hi] of finite numbers, lo <= hi", _pair, lambda v: tuple(map(float, v))
)
_window = _rule(
    "a non-empty list", lambda v: isinstance(v, list) and v, lambda v: list(map(_interval, v))
)
_weights = _rule(
    '{"name": "geometric", "ratio": r}, 0 < r < 1', _geometric, lambda v: v.get("ratio", 0.5)
)
_points = _rule(
    "a list of finite numbers", lambda v: isinstance(v, list) and all(map(_finite, v)), list
)


def _one_of(choices: tuple):
    return _rule(f"one of {', '.join(choices)}", lambda v: v in choices)


# Each run setting: config key (also the argparse dest of its flag) ->
# (RunConfig field, check, parser from flag text to the value a config file
# holds, or None where argparse has typed the flag already).
SETTINGS = {
    "window": ("window", _window, _parse_box),
    "truncation": ("truncation", _truncation, None),
    "quad_tol": ("quad_tol", _positive, None),
    "tol": ("tol", _positive, None),
    "weights": ("weights_ratio", _weights, _parse_weights),
    "tail_family": ("tail_family", _one_of(TAIL_FAMILIES), None),
    "normalized": ("normalized", _boolean, None),
    "singular_points": ("singular_points", _points, _parse_floats),
    "format": ("format", _one_of(FORMATS), None),
    "seed": ("seed", _rule("an integer", _integer, int), None),
    "deterministic": ("deterministic", _boolean, None),
}


def _checked(label: str, check, value, parse=None):
    """check(parse(value)), with a failure reported as a usage error."""
    try:
        return check(value if parse is None else parse(value))
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"{label}: {exc}") from exc


def _read_config(path) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"invalid config: must be a JSON object, got {data!r}")
    return data


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
        """The defaults, then the ``--config`` file, then the flags given;
        every value passes the check of its SETTINGS entry."""
        cfg = RunConfig()
        for key, value in _read_config(args.config).items():
            if key not in SETTINGS:
                raise UsageError(f"invalid config: unknown key {key!r}")
            name, check, _ = SETTINGS[key]
            setattr(cfg, name, _checked(f"invalid config: {key}", check, value))
        for key, (name, check, parse) in SETTINGS.items():
            value = getattr(args, key, None)
            if value is not None:
                setattr(cfg, name, _checked(key, check, value, parse))
        return cfg

    def kp_config(self) -> KpConfig:
        family = DualityFamily(tuple(Interval(a, b) for a, b in self.window))
        try:
            return KpConfig(
                family,
                weights=geometric_weights(self.weights_ratio),
                truncation=self.truncation,
                quad_tol=self.quad_tol,
                singular_points=tuple(self.singular_points),
            )
        except ValueError as exc:  # singular points KpConfig refuses
            raise UsageError(str(exc)) from exc

    def tail_config(self) -> TailMeasureConfig:
        return TailMeasureConfig(TailFamily(self.tail_family), normalized=self.normalized)


def _box(text: str) -> list:
    """A ``--box`` domain, checked as a window is."""
    return [Interval(a, b) for a, b in _checked("--box", _window, text, _parse_box)]


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
    return str(x) if isinstance(x, int) else repr(float(x))


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
        self.t0 = None if deterministic else time.perf_counter()

    def ms(self) -> float:
        return 0.0 if self.t0 is None else round(1000.0 * (time.perf_counter() - self.t0), 3)


def _cmd_integrate(args, cfg: RunConfig):
    timer = _Timer(cfg.deterministic)
    if args.interval and args.box:
        raise UsageError("give either --interval (1-d HK) or --box (tame), not both")
    if args.interval:
        if args.tail_family is not None or args.normalized is not None:
            raise UsageError("--tail-family and --normalized apply only to --box")
        lo, hi = _checked("--interval", _interval, args.interval, _parse_floats)
        if not all(lo <= s <= hi for s in cfg.singular_points):
            raise UsageError(f"singular points must lie in the interval [{lo!r}, {hi!r}]")
        f = _compiled(args.expr, 1)
        res = hk_integrate(
            f, Interval(lo, hi), tol=cfg.tol, singular_points=cfg.singular_points
        )
        return [("integral", res.value, res.error_estimate, 0.0, res.evaluations, timer.ms())]
    if args.box:
        if cfg.singular_points:
            raise UsageError("singular points apply only to --interval, not --box")
        box = _box(args.box)
        f = _compiled(args.expr, len(box))
        res = integrate_nd_result(f, box, tol=cfg.tol)
        factor = cfg.tail_config().tail_product(len(box))
        err = res.error_estimate * factor
        return [("tame_integral", res.value * factor, err, 0.0, res.evaluations, timer.ms())]
    raise UsageError("integrate needs --interval or --box")


def _parse_p(text: str) -> float:
    try:
        p = math.inf if text.lower() == "oo" else float(text)  # float reads inf, infinity
    except ValueError as exc:
        raise UsageError(f"bad p {text!r}") from exc
    if not p >= 1:
        raise UsageError("p must be >= 1 or inf")
    return p


def _cmd_norm(args, cfg: RunConfig):
    timer = _Timer(cfg.deterministic)
    kcfg = cfg.kp_config()
    f = _compiled(args.expr, kcfg.family.dim)
    p = _parse_p(args.p)
    if args.abs_bound is not None:
        _checked("--abs-bound", _rule("a number >= 0", lambda v: v >= 0), args.abs_bound)
    a = compute_functionals_detailed(f, kcfg)
    res = kp_norm(
        a,
        p,
        kcfg,
        abs_bound=args.abs_bound,
        conditionally_integrable=args.conditionally_integrable,
    )
    row = (f"kp_norm[p={p:g}]", res.value, kcfg.quad_tol, res.tail_bound, a.evaluations,
           timer.ms())
    return [row]


def _cmd_inner(args, cfg: RunConfig):
    timer = _Timer(cfg.deterministic)
    kcfg = cfg.kp_config()
    f = _compiled(args.expr, kcfg.family.dim)
    g = _compiled(args.expr2, kcfg.family.dim)
    af = compute_functionals_detailed(f, kcfg)
    ag = compute_functionals_detailed(g, kcfg)
    value = k2_inner(af, ag, kcfg)
    eps = kcfg.quad_tol
    mf = float(np.abs(af.values).max())
    mg = float(np.abs(ag.values).max())
    err = eps * (mf + mg + eps)
    tail = kcfg.weights.tail(kcfg.truncation) * mf * mg
    return [("k2_inner", value, err, tail, af.evaluations + ag.evaluations, timer.ms())]


def _cmd_fourier(args, cfg: RunConfig):
    timer = _Timer(cfg.deterministic)
    box = _box(args.box) if args.box else [Interval(a, b) for a, b in cfg.window]
    f = _compiled(args.expr, len(box))
    tame = TameFunction(len(box), f, tuple(box))
    points = _rule("a non-empty list", bool, lambda v: list(map(FrequencyPoint, v)))
    ys = _checked("--at", points, args.at, _parse_box)  # FrequencyPoint refuses nan, inf
    results = fourier_tame_result(tame, ys, tol=cfg.tol)
    ms = timer.ms()
    rows = []
    for y, (fv, err, evals) in zip(ys, results):
        label = ",".join(f"{c:g}" for c in y.coords)
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
            quantity = f"{c.suite}.{c.name}:{'pass' if c.passed else 'FAIL'}"
            rows.append((quantity, float(c.passed), c.margin, c.threshold, c.checks, ms))
    return rows, any_failed


_COMMANDS = {
    "integrate": _cmd_integrate,
    "norm": _cmd_norm,
    "inner": _cmd_inner,
    "fourier": _cmd_fourier,
}


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
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--deterministic", action="store_true", default=None,
                       help="zero the wall_ms column for reproducible output")

    def kp_settings(p):
        p.add_argument("--window", help="working window 'lo,hi[;lo,hi...]'")
        p.add_argument("-K", "--truncation", type=int, default=None)
        p.add_argument("--quad-tol", dest="quad_tol", type=float, default=None)
        p.add_argument("--weights", help="weight family, e.g. geometric:0.5")
        p.add_argument("--singular", dest="singular_points",
                       help="comma-separated singular points inside a 1-D window")

    p_int = sub.add_parser("integrate", help="1-d HK integral or tame box integral")
    p_int.add_argument("--expr", required=True, help="integrand ('-' reads stdin)")
    p_int.add_argument("--interval", help="1-d domain as 'lo,hi'")
    p_int.add_argument("--box", help="box domain as 'lo,hi;lo,hi;...'")
    p_int.add_argument("--tol", type=float, default=None)
    p_int.add_argument("--singular", dest="singular_points",
                       help="comma-separated singular points inside --interval")
    p_int.add_argument("--tail-family", choices=TAIL_FAMILIES, default=None)
    normalized = p_int.add_mutually_exclusive_group()
    normalized.add_argument("--normalized", dest="normalized", action="store_true", default=None)
    normalized.add_argument("--no-normalized", dest="normalized", action="store_false")
    common(p_int)

    p_norm = sub.add_parser("norm", help="K^p norm of an expression")
    p_norm.add_argument("-p", required=True, help="exponent (>= 1 or 'inf')")
    p_norm.add_argument("--expr", required=True)
    kp_settings(p_norm)
    p_norm.add_argument("--abs-bound", dest="abs_bound", type=float, default=None,
                        help="bound on the integral of |f| (tightens the tail bound)")
    p_norm.add_argument("--conditionally-integrable", action="store_true", default=False)
    common(p_norm)

    p_inner = sub.add_parser("inner", help="K^2 inner product of two expressions")
    p_inner.add_argument("--expr", required=True)
    p_inner.add_argument("--expr2", required=True)
    kp_settings(p_inner)
    common(p_inner)

    p_f = sub.add_parser("fourier", help="Fourier transform of a tame core")
    p_f.add_argument("--expr", required=True, help="core expression")
    p_f.add_argument("--box", help="core working box 'lo,hi[;lo,hi...]'")
    p_f.add_argument("--at", required=True,
                     help="finite frequency points 'y1,y2;y1,y2;...' (semicolon-separated)")
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
        if args.command == "verify":
            rows, any_failed = _cmd_verify(args, cfg)
        else:
            rows, any_failed = _COMMANDS[args.command](args, cfg), False
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except KSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _emit(rows, cfg.format, sys.stdout)
    return 3 if any_failed else 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
