import math

import numpy as np
import pytest

from kspaces import ParseError, compile_expression, parse_expression, pretty_print
from kspaces.expr import Binary, Compare, Num, Unary, Var, variables


class TestParseAndEval:
    def test_sine_example(self):
        f = compile_expression(parse_expression("sin(2*pi*x1)"), 1)
        assert float(f(np.array(0.25))) == pytest.approx(1.0, abs=1e-15)

    def test_power(self):
        f = compile_expression(parse_expression("x1^2"), 1)
        assert float(f(0.3)) == pytest.approx(0.09)

    def test_malformed_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("2*+")
        assert err.value.position == 3
        assert err.value.expected  # non-empty expected-token set

    def test_constants(self):
        f = compile_expression(parse_expression("e^2 - pi"), 1)
        assert float(f(0.0)) == pytest.approx(math.e**2 - math.pi)

    def test_precedence_pins(self):
        cases = {
            "2+3*4": 14.0,
            "2*3^2": 18.0,
            "-3^2": -9.0,  # ^ binds tighter than unary minus
            "2^-2": 0.25,
            "8/4/2": 1.0,  # left associative
            "2-3-4": -5.0,
            "2^1^2": 2.0,  # right associative: 2^(1^2)
            "-2*3": -6.0,
        }
        for text, expected in cases.items():
            f = compile_expression(parse_expression(text), 1)
            assert float(f(0.0)) == pytest.approx(expected), text

    def test_comparisons_are_indicators(self):
        f = compile_expression(parse_expression("(0 <= x1)*(x1 <= 0.5)"), 1)
        np.testing.assert_array_equal(
            f(np.array([-0.1, 0.2, 0.5, 0.9])), [0.0, 1.0, 1.0, 0.0]
        )

    def test_unary_functions(self):
        f = compile_expression(parse_expression("abs(x1) + sqrt(x2) + ln(e)"), 2)
        assert float(f(-2.0, 4.0)) == pytest.approx(5.0)

    def test_whitespace_insensitive(self):
        a = parse_expression("1+2 * sin( x1 )")
        b = parse_expression("1+2*sin(x1)")
        assert a == b

    def test_variable_beyond_dimension(self):
        with pytest.raises(ValueError):
            compile_expression(parse_expression("x3"), 2)

    def test_exponent_must_be_constant(self):
        with pytest.raises(ParseError):
            parse_expression("2^x1")
        # constant subexpressions are allowed
        parse_expression("x1^(1+1)")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_expression("foo(x1)")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_expression("sin(x1")
        with pytest.raises(ParseError):
            parse_expression("(1+2))")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expression("")

    def test_vectorized_over_arrays(self):
        f = compile_expression(parse_expression("x1*x2 + 1"), 2)
        x = np.linspace(0, 1, 7)
        np.testing.assert_allclose(f(x, x), x * x + 1)


BREAKPOINTS = {
    "x1 <= 0.999": (0.999,),
    "0.3 > x1": (0.3,),
    "2*x1 - 1 >= 0.002": (0.501,),
    "(1 - x1)/4 < x1/4": (0.5,),
    "sin(3*(x1 <= 0.3) + x1)": (0.3,),
    "(x1 <= 0.7) + 2*(x1 > 0.2)*x1 + (0.2 == x1)": (0.2, 0.7),
    "x1 <= ln(2)/pi": (math.log(2) / math.pi,),
    "x1 + 0.25 <= 1": (0.75,),
    "-x1 >= -0.5": (0.5,),
    # not affine in x1, no root, or a root that is not finite
    "x1^2 <= 0.5": (),
    "exp(x1) < 2": (),
    "0*x1 <= 1": (),
    "x1 <= 1/0": (),
    "x1 <= 10^400": (),
    "sin(x1)": (),
}


@pytest.mark.parametrize("text, points", BREAKPOINTS.items(), ids=list(BREAKPOINTS))
def test_breakpoints_are_the_roots_of_affine_comparisons(text, points):
    f = compile_expression(parse_expression(text), 1)
    assert f.breakpoints == points


def test_expressions_of_two_variables_have_no_breakpoints():
    assert compile_expression(parse_expression("(x1 <= 0.5)*x2"), 2).breakpoints == ()


PHASES = {
    "sin(1/x1)": (0.0, 1.0, 1.0),
    "8*(2*x1*sin(1/x1^2) - (2/x1)*cos(1/x1^2))": (0.0, 1.0, 2.0),
    "cos(3/(x1-0.3))": (0.3, 3.0, 1.0),
    "x1^-2*sin(x1^-1)": (0.0, 1.0, 1.0),
    "sin(1/x1)/x1 - (x1 <= 0.5)*cos(x1^-1)": (0.0, 1.0, 1.0),
    "sin((2*x1 - 0.6)^-2)": (0.3, 0.25, 2.0),
    "sin(-x1^-2)": (0.0, -1.0, 2.0),
    # one shared phase missing, or a term that does not oscillate
    "sin(x1)": None,
    "sin(1/x1) + sin(2/x1)": None,
    "sin(1/x1)*cos(x1)": None,
    "1/x1^2": None,
    "sin(1/x1) + x1^-0.5": None,
    "sin(1/x1)^2": None,
    "sin(1/x1)*sin(1/x1)": None,
    "abs(sin(1/x1))": None,
    "sin(1/(x1*(x1 - 1)))": None,
}


@pytest.mark.parametrize("text, phase", PHASES.items(), ids=list(PHASES))
def test_phase_is_the_one_phase_of_a_sum_of_oscillating_terms(text, phase):
    assert compile_expression(parse_expression(text), 1).phase == phase


def test_expressions_of_two_variables_have_no_phase():
    assert compile_expression(parse_expression("sin(1/x1)*x2"), 2).phase is None
    assert compile_expression(parse_expression("sin(1/x1)"), 2).phase is None


HANDCRAFTED = [
    "sin(2*pi*x1)",
    "x1^2",
    "-x1^2",
    "x1^-2",
    "2 - -3*x1",
    "(x1+1)*(x2-2)/3",
    "(0 <= x1)*(x1 <= 0.5)",
    "abs(x1)-sqrt(abs(x2))",
    "ln(e)^2^3",
    "-(x1+2)",
    "1/(1+x1^2)",
    "x1 < x2",
    "cos(x1)*exp(-x1^2)",
    "pi*e",
    "x1/x2/x3",
    "x1-x2-x3",
    "1e-3 + 2.5E2*x1",
    ".5*x1",
    "x1 == x2",
    "sqrt(x1^2 + x2^2)",
]


def _random_ast(rng, depth, dim=3):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.5:
            return Num(float(np.round(rng.uniform(-10, 10), 3)))
        return Var(int(rng.integers(1, dim + 1)))
    if roll < 0.45:
        op = rng.choice(["neg", "sin", "cos", "exp", "ln", "abs", "sqrt"])
        return Unary(str(op), _random_ast(rng, depth - 1, dim))
    if roll < 0.85:
        op = str(rng.choice(["+", "-", "*", "/"]))
        return Binary(op, _random_ast(rng, depth - 1, dim), _random_ast(rng, depth - 1, dim))
    if roll < 0.93:
        return Binary("^", _random_ast(rng, depth - 1, dim), Num(float(rng.integers(0, 4))))
    op = str(rng.choice(["<", "<=", ">", ">=", "=="]))
    return Compare(op, _random_ast(rng, depth - 1, dim), _random_ast(rng, depth - 1, dim))


def _normalize(node):
    """Fold neg(Num) like the parser does, so generated ASTs are comparable."""
    if isinstance(node, Unary):
        arg = _normalize(node.arg)
        if node.op == "neg" and isinstance(arg, Num):
            return Num(-arg.value)
        return Unary(node.op, arg)
    if isinstance(node, Binary):
        return Binary(node.op, _normalize(node.lhs), _normalize(node.rhs))
    if isinstance(node, Compare):
        return Compare(node.op, _normalize(node.lhs), _normalize(node.rhs))
    return node


class TestRoundTrip:
    def test_handcrafted_corpus(self):
        for text in HANDCRAFTED:
            ast = parse_expression(text)
            printed = pretty_print(ast)
            assert parse_expression(printed) == ast, (text, printed)

    def test_random_corpus_of_fifty(self):
        rng = np.random.default_rng(20240601)
        count = 0
        while count < 50:
            ast = _normalize(_random_ast(rng, depth=4))
            printed = pretty_print(ast)
            reparsed = parse_expression(printed)
            assert reparsed == ast, printed
            # and printing is a fixed point after one round
            assert pretty_print(reparsed) == printed
            count += 1

    def test_variables_collection(self):
        ast = parse_expression("x1 + sin(x3)*x1")
        assert variables(ast) == {1, 3}
