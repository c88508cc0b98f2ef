"""Integrand expression grammar: parser, evaluator, pretty-printer.

Grammar (whitespace-insensitive, positions reported 1-based):

    expression := sum (CMP sum)?          CMP in < <= > >= ==  (value 0/1)
    sum        := product (("+"|"-") product)*
    product    := unary (("*"|"/") unary)*
    unary      := "-" unary | power
    power      := atom ("^" unary)?       right-associative, tighter than
                                          unary minus; exponent must be
                                          constant
    atom       := NUMBER | "pi" | "e" | x1..x9 | FUNC "(" expression ")"
                | "(" expression ")"
    FUNC       := sin cos exp ln abs sqrt

Comparisons evaluate to 1.0/0.0, which is how piecewise integrands (step
functions, indicators) are written: ``(0 <= x1) * (x1 <= 0.5)``.  A compiled
one-variable expression lists where such a comparison flips as its
``breakpoints``, and the phase of sin and cos terms that oscillate without
end toward a point as its ``phase`` (:func:`compile_expression`).

Evaluation is NumPy-vectorized: compiled expressions accept arrays for the
variables and broadcast.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

FUNCTIONS = ("sin", "cos", "exp", "ln", "abs", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, x1..x9


@dataclass(frozen=True)
class Unary:
    op: str  # neg sin cos exp ln abs sqrt
    arg: object


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Compare:
    op: str  # < <= > >= ==
    lhs: object
    rhs: object


_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|[-+*/^()<>])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", pos + 1,
                expected=("number", "identifier", "operator"),
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start() + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, value, pos = self.peek()
        got = "end of input" if kind == "end" else repr(value)
        raise ParseError(
            f"expected {' or '.join(expected)}, found {got}", pos, expected=expected
        )

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind == "op" and value == op:
            return self.advance()
        self.fail((f"'{op}'",))

    def parse(self):
        node = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(
                f"unexpected trailing input {value!r}", pos, expected=("end of input",)
            )
        return node

    def expression(self):
        node = self.sum_()
        kind, value, _ = self.peek()
        if kind == "op" and value in _COMPARE_FN:
            self.advance()
            return Compare(value, node, self.sum_())
        return node

    def sum_(self):
        return self.joined(("+", "-"), lambda: self.joined(("*", "/"), self.unary))

    def joined(self, ops, operand):
        """Operands parsed by ``operand`` joined by the operators ``ops``,
        grouped from the left."""
        node = operand()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                return node
            self.advance()
            node = Binary(value, node, operand())

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            arg = self.unary()
            if isinstance(arg, Num):
                return Num(-arg.value)
            return Unary("neg", arg)
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.unary()
            if variables(exponent):
                raise ParseError(
                    "exponent must be a constant expression", pos, expected=("constant",)
                )
            return Binary("^", node, exponent)
        return node

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "number":
            return Num(float(value))
        if kind == "ident":
            if value in CONSTANTS:
                return Num(CONSTANTS[value])
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return Unary(value, arg)
            m = re.fullmatch(r"x([1-9])", value)
            if m:
                return Var(int(m.group(1)))
            raise ParseError(
                f"unknown identifier {value!r}", pos,
                expected=("x1..x9", "pi", "e") + FUNCTIONS,
            )
        if kind == "op" and value == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        self.i -= 1
        self.fail(("number", "identifier", "'('", "'-'"))


def parse_expression(text: str):
    """Parse expression text into an AST; raises :class:`ParseError`."""
    return _Parser(text).parse()


def variables(node) -> set:
    """Set of variable indices used by the expression."""
    if isinstance(node, Var):
        return {node.index}
    if isinstance(node, Unary):
        return variables(node.arg)
    if isinstance(node, (Binary, Compare)):
        return variables(node.lhs) | variables(node.rhs)
    return set()


_UNARY_FN = {
    "neg": np.negative,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "ln": np.log,
    "abs": np.abs,
    "sqrt": np.sqrt,
}
# operator's functions, not ufuncs, for + - * /: a constant 1/0 then raises
# ZeroDivisionError on Python floats, which _affine catches
_BINARY_FN = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": np.power,
}
_COMPARE_FN = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
}


def _build(node):
    if isinstance(node, Num):
        v = node.value
        return lambda env: v
    if isinstance(node, Var):
        i = node.index - 1
        return lambda env: env[i]
    if isinstance(node, Unary):
        fn = _UNARY_FN[node.op]
        arg = _build(node.arg)
        return lambda env: fn(arg(env))
    if isinstance(node, Binary):
        fn, lhs, rhs = _BINARY_FN[node.op], _build(node.lhs), _build(node.rhs)
        return lambda env: fn(lhs(env), rhs(env))
    if isinstance(node, Compare):
        fn, lhs, rhs = _COMPARE_FN[node.op], _build(node.lhs), _build(node.rhs)
        return lambda env: fn(lhs(env), rhs(env)).astype(np.float64)
    raise TypeError(f"not an AST node: {node!r}")


def _affine(node):
    """(a, c) with ``node`` = a x1 + c, or None if it is not affine in x1
    alone."""
    if not variables(node):
        try:
            with np.errstate(all="ignore"):
                return 0.0, float(_build(node)(()))
        except ZeroDivisionError:  # Python floats, as the callable raises too
            return None
    if isinstance(node, Var):
        return (1.0, 0.0) if node.index == 1 else None
    if isinstance(node, Unary) and node.op == "neg":
        arg = _affine(node.arg)
        return None if arg is None else (-arg[0], -arg[1])
    if not (isinstance(node, Binary) and node.op in "+-*/"):
        return None
    lhs, rhs = _affine(node.lhs), _affine(node.rhs)
    if lhs is None or rhs is None:
        return None
    (a, c), (b, d) = lhs, rhs
    if node.op in "+-":
        fn = _BINARY_FN[node.op]
        return fn(a, b), fn(c, d)
    if node.op == "*" and not (a and b):
        return a * d + b * c, c * d
    if node.op == "/" and not b and d:
        return a / d, c / d
    return None


def _breakpoints(node) -> tuple:
    """The sorted, finite roots of every comparison in ``node`` whose two
    sides differ by a x1 + c with a != 0: the points where a one-variable
    expression may jump."""
    points = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Unary):
            stack.append(node.arg)
        elif isinstance(node, (Binary, Compare)):
            stack += [node.lhs, node.rhs]
            if isinstance(node, Compare):
                lhs, rhs = _affine(node.lhs), _affine(node.rhs)
                if lhs is not None and rhs is not None and lhs[0] != rhs[0]:
                    points.add((rhs[1] - lhs[1]) / (lhs[0] - rhs[0]))
    return tuple(sorted(p for p in points if math.isfinite(p)))


def _monomial(node):
    """(c, s, p) with ``node`` = c (x1 - s)^p and p != 0; (c, None, 0) if
    ``node`` is the constant c; else None.  Affine nodes are read by
    :func:`_affine`, and products, quotients and constant powers of such
    factors combine when their points s agree."""
    line = _affine(node)
    if line is not None:
        a, b = line
        return (b, None, 0.0) if not a else (a, 0.0 - b / a, 1.0)
    if isinstance(node, Unary) and node.op == "neg":
        m = _monomial(node.arg)
        return None if m is None else (-m[0], m[1], m[2])
    if not (isinstance(node, Binary) and node.op in "*/^"):
        return None
    lhs = _monomial(node.lhs)
    if lhs is None:
        return None
    c, s, p = lhs
    if node.op == "^":
        q = _affine(node.rhs)  # the parser allows only constant exponents
        if q is None or (c < 0.0 and not q[1].is_integer()):
            return None
        try:
            return (c ** q[1], s, p * q[1]) if q[1] else (1.0, None, 0.0)
        except (OverflowError, ZeroDivisionError):
            return None
    rhs = _monomial(node.rhs)
    if rhs is None:
        return None
    d, t, q = rhs
    if node.op == "/":
        if not d:
            return None
        d, q = 1.0 / d, -q
    if p and q and s != t:
        return None
    return c * d, (s if p else t) if p + q else None, p + q


def _trig_free(node) -> bool:
    """Whether ``node`` holds no sin and no cos."""
    if isinstance(node, Unary):
        return node.op not in ("sin", "cos") and _trig_free(node.arg)
    if isinstance(node, (Binary, Compare)):
        return _trig_free(node.lhs) and _trig_free(node.rhs)
    return True


def _phase(node):
    """(s, c, k) if ``node`` is a sum of terms, each a sin or cos of
    c (x1 - s)^-k with k > 0 times or over factors free of sin and cos,
    with one (s, c, k) for every sin and cos; else None."""
    phases = set()

    def swings(node):
        if isinstance(node, Unary) and node.op in ("sin", "cos"):
            m = _monomial(node.arg)
            if m is None or not m[2] < 0.0:
                return False
            c, s, p = m
            phases.add((s, c, -p))
            return True
        if isinstance(node, Unary) and node.op == "neg":
            return swings(node.arg)
        if not isinstance(node, Binary):
            return False
        if node.op in "+-":
            return swings(node.lhs) and swings(node.rhs)
        if node.op == "*" and _trig_free(node.lhs):
            return swings(node.rhs)
        return node.op in "*/" and _trig_free(node.rhs) and swings(node.lhs)

    if not swings(node) or len(phases) != 1:
        return None
    s, c, k = phases.pop()
    return (s, c, k) if c and all(map(math.isfinite, (s, c, k))) else None


def compile_expression(node, dim: int):
    """Compile an AST to a vectorized callable of ``dim`` array arguments.

    The callable's ``breakpoints`` attribute lists, for ``dim`` = 1, the
    points where its value may jump: the sorted, finite root of every
    comparison, at any depth (``sin(3*(x1 <= 0.3) + x1)`` too), whose two
    sides differ by a x1 + c with a != 0, such as ``x1 <= c``, ``c > x1``
    or ``2*x1 - 1 >= 0.002``.  :func:`kspaces.gauge.hk_integrate_many`
    splits its intervals there, and :func:`kspaces.gauge.integrate_boxes`
    its boxes of one axis.  Other jumps are not found: a comparison of
    a non-affine side (``x1^2 <= 0.5``), and every jump of an expression of
    two or more variables (a guard such as ``x1 + x2 <= 1``), whose
    ``breakpoints`` are empty.

    Its ``phase`` attribute is (s, c, k) where the expression oscillates
    without end toward s: it is a sum of terms, each a sin or cos of
    c (x1 - s)^-k with k > 0 times or over factors free of sin and cos,
    and every sin and cos takes that one (s, c, k).  Constant factors are
    seen through, so ``8*(2*x1*sin(1/x1^2) - (2/x1)*cos(1/x1^2))`` has
    (0, 1, 2), and ``cos(3/(x1-0.3))`` has (0.3, 3, 1).  Otherwise, and for
    ``dim`` > 1, it is None: ``sin(x1)``, ``sin(1/x1) + sin(2/x1)`` (two
    phases), ``sin(1/x1)*cos(x1)``, and ``sin(1/x1) + x1^-0.5``, whose
    second term does not oscillate.  :func:`kspaces.gauge.hk_integrate_many`
    cuts a side toward s at the zeros of the phase.
    """
    used = variables(node)
    if used and max(used) > dim:
        raise ValueError(
            f"expression uses x{max(used)} but the declared dimension is {dim}"
        )
    body = _build(node)

    def f(*args):
        if len(args) != dim:
            raise TypeError(f"expected {dim} arguments, got {len(args)}")
        with np.errstate(all="ignore"):
            out = body(args)
        return np.asarray(out, dtype=np.float64)

    f.breakpoints = _breakpoints(node) if dim == 1 else ()
    f.phase = _phase(node) if dim == 1 else None
    return f


_PREC_ATOM = 5
_PREC_POW = 4
_PREC_UNARY = 3
_PREC_MUL = 2
_PREC_ADD = 1
_PREC_CMP = 0


def _prec(node) -> int:
    if isinstance(node, Num):
        # a negative literal renders with a leading '-', so it binds like a
        # unary minus, not like an atom (e.g. as the base of '^')
        return _PREC_UNARY if math.copysign(1.0, node.value) < 0 else _PREC_ATOM
    if isinstance(node, Var):
        return _PREC_ATOM
    if isinstance(node, Unary):
        return _PREC_UNARY if node.op == "neg" else _PREC_ATOM
    if isinstance(node, Binary):
        if node.op == "^":
            return _PREC_POW
        return _PREC_MUL if node.op in ("*", "/") else _PREC_ADD
    return _PREC_CMP


def _fmt(node, min_prec: int) -> str:
    p = _prec(node)
    if isinstance(node, Num):
        s = repr(node.value)
    elif isinstance(node, Var):
        s = f"x{node.index}"
    elif isinstance(node, Unary):
        if node.op == "neg":
            s = f"-{_fmt(node.arg, _PREC_UNARY)}"
        else:
            s = f"{node.op}({_fmt(node.arg, 0)})"
    elif isinstance(node, Binary):
        if node.op == "^":
            s = f"{_fmt(node.lhs, _PREC_ATOM)}^{_fmt(node.rhs, _PREC_UNARY)}"
        elif node.op in ("*", "/"):
            s = f"{_fmt(node.lhs, _PREC_MUL)} {node.op} {_fmt(node.rhs, _PREC_UNARY)}"
        else:
            s = f"{_fmt(node.lhs, _PREC_ADD)} {node.op} {_fmt(node.rhs, _PREC_MUL)}"
    elif isinstance(node, Compare):
        s = f"{_fmt(node.lhs, _PREC_ADD)} {node.op} {_fmt(node.rhs, _PREC_ADD)}"
    else:
        raise TypeError(f"not an AST node: {node!r}")
    return f"({s})" if p < min_prec else s


def pretty_print(node) -> str:
    """Render an AST to text that re-parses to an identical AST."""
    return _fmt(node, 0)
