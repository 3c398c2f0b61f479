"""Parser, evaluator, and symbolic-derivative checks."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaqm import expr
from etaqm.expr import DomainError, ParseError, derive, evaluate, evaluate_on, parse, to_source, tokenize


def test_tokens_reproduce_input_up_to_whitespace():
    src = "-3*sech(x)^2 + i*2 / (1.5e-2 + cosh(x))"
    joined = "".join(t.lexeme for t in tokenize(src))
    assert joined == src.replace(" ", "")


def test_token_positions_point_into_source():
    src = "2 + tanh(x)"
    for tok in tokenize(src):
        assert src[tok.pos: tok.pos + len(tok.lexeme)] == tok.lexeme


def test_parse_examples():
    assert evaluate(parse("sech(x)^2"), 0.0) == pytest.approx(1 + 0j)
    assert evaluate(parse("-3*sech(x)^2 + i*2"), 0.0) == pytest.approx(-3 + 2j)
    assert evaluate(parse("i*tanh(x)"), 0.0) == pytest.approx(0j)


def test_precedence_and_associativity():
    assert evaluate(parse("2+3*4"), 0.0).real == 14
    assert evaluate(parse("2^3^1"), 0.0).real == 8
    # ^ binds above unary minus; * / above + -
    assert evaluate(parse("-2^2"), 0.0).real == -4
    assert evaluate(parse("2*-3"), 0.0).real == -6
    assert evaluate(parse("8/4/2"), 0.0).real == 1  # left associativity
    assert evaluate(parse("2-3-4"), 0.0).real == -5


def test_integer_exponent_restriction():
    assert evaluate(parse("x^(-2)"), 2.0) == pytest.approx(0.25)
    with pytest.raises(ParseError):
        parse("x^0.5")
    with pytest.raises(ParseError):
        parse("2^x")


@pytest.mark.parametrize("src,pos_max", [
    ("(1 + 2", 7), ("1 + ", 5), ("sech(x", 7), ("2 $ 3", 3), ("foo(x)", 1), ("", 1),
])
def test_syntax_errors_carry_positions(src, pos_max):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert 0 <= exc.value.position <= max(pos_max, len(src) + 1)


@pytest.mark.parametrize("src,pos", [("1e999*x", 0), ("x + 2.5E+400", 4), ("-1e309", 1)])
def test_overflowing_number_literal_is_a_parse_error(src, pos):
    with pytest.raises(ParseError, match="overflows") as exc:
        parse(src)
    assert exc.value.position == pos


def test_eval_examples():
    assert evaluate(parse("tanh(x)"), 0.5) == pytest.approx(0.46211715726000974)
    assert evaluate(parse("exp(i*x)"), 0.0) == pytest.approx(1 + 0j)
    with pytest.raises(DomainError) as exc:
        evaluate(parse("1/x"), 0.0)
    assert "1 / x" in exc.value.subterm or "x" in exc.value.subterm


def test_domain_error_names_subterm():
    with pytest.raises(DomainError) as exc:
        evaluate(parse("tanh(x) + ln(x - 1)"), 1.0)
    assert "ln" in exc.value.subterm


def test_vectorized_matches_closed_forms():
    e = parse("exp(i*x)*sech(x) - tanh(x)^3/(2 + cos(x))")
    xs = np.linspace(-5, 5, 101)
    vec = evaluate_on(e, xs)
    for j in (0, 17, 50, 100):
        x = xs[j]
        want = cmath.exp(1j * x) / cmath.cosh(x) - cmath.tanh(x) ** 3 / (2 + cmath.cos(x))
        assert vec[j] == pytest.approx(want, rel=1e-14)
        assert evaluate(e, x) == vec[j]  # the one-point case of the same path


def test_an_overflowing_intermediate_with_a_finite_result_is_not_an_error():
    e = parse("1/exp(x)")
    assert evaluate(e, 1000.0) == 0
    np.testing.assert_array_equal(evaluate_on(e, np.array([0.0, 999.0, 1000.0])), [1, 0, 0])


@pytest.mark.parametrize("src,x,subterm", [
    ("ln(x - 1)", 1.0, "ln(x - 1.0)"),
    ("1/x", 0.0, "1.0 / x"),
    ("x^(-2)", 0.0, "x^(-2)"),
    ("exp(x)", 1000.0, "exp(x)"),
    ("tanh(x) + 2*exp(x)", 1000.0, "exp(x)"),  # the innermost non-finite subterm
])
def test_domain_error_names_the_innermost_non_finite_subterm(src, x, subterm):
    for evaluated in (lambda e: evaluate(e, x), lambda e: evaluate_on(e, np.array([-1.5, x]))):
        with pytest.raises(DomainError, match=f"at x={x}") as exc:
            evaluated(parse(src))
        assert exc.value.subterm == subterm


def test_vectorized_domain_error():
    with pytest.raises(DomainError):
        evaluate_on(parse("1/x"), np.linspace(-1, 1, 21))  # hits x = 0
    with pytest.raises(DomainError, match="'1.0 / x'"):
        evaluate_on(parse("1/x"), 0.0)  # a 0-d array of points


def test_derive_examples():
    x = 1.0
    d_sech = evaluate(derive(parse("sech(x)")), x)
    expected = -(1 / cmath.cosh(x)) * cmath.tanh(x)
    assert d_sech == pytest.approx(expected)
    assert evaluate(derive(parse("tanh(x)")), 0.0) == pytest.approx(1.0)
    assert evaluate(derive(parse("x^3")), 2.0) == pytest.approx(12.0)


_SAMPLE_EXPRESSIONS = [
    "sech(x)^2",
    "tanh(x)",
    "2.5*sech(x)*tanh(x)",
    "exp(i*x)",
    "-x^3 + 2*x - 7",
    "ln(cosh(x))",
    "sqrt(1 + x^2)",
    "sin(x)*cos(2*x)",
    "sinh(x)/(2 + cosh(x))",
    "exp(-x^2/4)",
    "(1 + i*tanh(x))^3",
    "sech(2*x - 1)",
    "x/(1 + x^2)",
    "i*2*sech(x) - tanh(x)^2",
]


@pytest.mark.parametrize("src", _SAMPLE_EXPRESSIONS)
def test_derivative_matches_centered_differences(src):
    # |d(e)(x) - FD(e, x)| <= 1e-6 (1 + |d(e)(x)|) on 100 random points
    e = parse(src)
    de = derive(e)
    h = 1e-5
    rng = np.random.default_rng(42)
    for x in rng.uniform(-5.0, 5.0, size=100):
        sym = evaluate(de, x)
        fd = (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h)
        assert abs(sym - fd) <= 1e-6 * (1 + abs(sym))


def test_second_derivative_composes():
    e = parse("sech(x)")
    d2 = derive(derive(e))
    # sech'' = sech (tanh^2 - sech^2)
    for x in (-1.3, 0.2, 2.7):
        s, t = 1 / np.cosh(x), np.tanh(x)
        assert evaluate(d2, x) == pytest.approx(s * (t * t - s * s), rel=1e-12)


def test_odd_function_probe():
    e = parse("tanh(x)")
    rng = np.random.default_rng(3)
    for x in rng.uniform(-5.0, 5.0, size=100):
        assert evaluate(e, -x) == pytest.approx(-evaluate(e, x), abs=1e-14)


@pytest.mark.parametrize("src", _SAMPLE_EXPRESSIONS)
def test_print_parse_round_trip(src):
    e = parse(src)
    back = parse(to_source(e))
    xs = np.linspace(-4.7, 4.7, 37)
    np.testing.assert_allclose(evaluate_on(back, xs), evaluate_on(e, xs), rtol=1e-13, atol=1e-15)


def test_round_trip_of_programmatic_constants():
    # complex constants print parenthesized and survive the round trip
    e = expr.mul(expr.const(-1.5 + 2.0j), expr.call("sech", expr.var()))
    back = parse(to_source(e))
    assert evaluate(back, 0.7) == pytest.approx(evaluate(e, 0.7), rel=1e-14)


_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_LEAVES = st.one_of(
    st.just(expr.var()),
    _FINITE.map(expr.const),
    st.builds(complex, _FINITE, _FINITE).map(expr.const),
)


def _extend(children):
    binary = st.sampled_from([expr.add, expr.sub, expr.mul, expr.div])
    return st.one_of(
        children.map(expr.neg),
        st.builds(expr.power, children, st.integers(-3, 3)),
        st.builds(expr.call, st.sampled_from(sorted(expr._FUNCTIONS)), children),
        st.builds(lambda op, a, b: op(a, b), binary, children, children),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _extend, max_leaves=8))
def test_print_parse_round_trip_of_generated_trees(e):
    back = parse(to_source(e))
    xs = np.linspace(-4.7, 4.7, 37)
    try:
        want = evaluate_on(e, xs)
    except DomainError:
        with pytest.raises(DomainError):
            evaluate_on(back, xs)
        return
    got = evaluate_on(back, xs)
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included


def test_expressions_are_immutable():
    e = parse("tanh(x)")
    with pytest.raises(Exception):
        e.func = "cosh"  # frozen dataclass
