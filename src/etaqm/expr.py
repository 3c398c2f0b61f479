"""Closed-form complex functions of one real variable.

Potentials V(x), gauge fields nu(x) and metric coefficients g(x), a(x) enter
the toolkit as small symbolic expressions: they are parsed once, evaluated on
grids, and differentiated symbolically (so that nu', g', a', a'' are exact up
to rounding rather than finite-difference approximations).

Grammar (all binary operators left-associative; precedence low to high):

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' atom)*      # exponent must be a constant integer
    atom    := number | 'i' | 'x' | name '(' sum ')' | '(' sum ')'

``i`` is the reserved imaginary unit, ``x`` the only variable.  Supported
functions: sech, tanh, cosh, sinh, exp, sin, cos, ln, sqrt.  ``^`` takes only
integer constant exponents, which keeps complex powers single-valued.

One evaluator, numpy complex arithmetic on an array of points, serves every
caller: `evaluate(e, x)` is its one-point case, and the parser's check of a
constant exponent goes through it too.  Only a non-finite result is an error:
intermediate values may overflow (1/exp(x) at x = 1000 is 0).  The DomainError
then names the innermost subterm that is non-finite at the first offending
point, as `to_source` prints it: 'ln(x - 1.0)' at x = 1, 'exp(x)' at x = 1000.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "BinOp", "Pow", "Neg", "Call", "Token",
    "ParseError", "DomainError",
    "tokenize", "parse", "evaluate", "evaluate_on", "derive", "to_source",
    "add", "sub", "mul", "div", "neg", "const", "var", "call", "power",
]


class ParseError(ValueError):
    """Syntax or lexical error, with the offending source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ArithmeticError):
    """Evaluation hit a pole, branch point, or overflow; carries the subterm."""

    def __init__(self, message: str, subterm: str):
        super().__init__(f"{message} in subterm '{subterm}'")
        self.subterm = subterm


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class BinOp:
    op: str  # one of '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Const | Var | BinOp | Pow | Neg | Call

_X = Var()


# Convenience constructors, used when building expressions programmatically
# (e.g. the named potential families and SUSY partners).

def const(value: complex) -> Const:
    return Const(complex(value))


def var() -> Var:
    return _X


def add(a: Expr, b: Expr) -> BinOp:
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> BinOp:
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> BinOp:
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> BinOp:
    return BinOp("/", a, b)


def neg(a: Expr) -> Neg:
    return Neg(a)


def call(name: str, arg: Expr) -> Call:
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function '{name}'")
    return Call(name, arg)


def power(base: Expr, exponent: int) -> Pow:
    return Pow(base, int(exponent))


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'ident' | 'op' | 'paren'
    lexeme: str
    pos: int


_OPERATORS = set("+-*/^")


def tokenize(source: str) -> list[Token]:
    """Split source into tokens; lexeme concatenation reproduces the input
    up to whitespace."""
    tokens: list[Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(Token("op", c, i))
            i += 1
        elif c in "()":
            tokens.append(Token("paren", c, i))
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                seen_dot = seen_dot or source[j] == "."
                j += 1
            # optional exponent part: e/E [+-] digits
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            lexeme = source[i:j]
            if lexeme == ".":
                raise ParseError("lone '.' is not a number", i)
            tokens.append(Token("number", lexeme, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("ident", source[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.source))
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        node = self.sum()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.lexeme!r}", tok.pos)
        return node

    def sum(self) -> Expr:
        node = self.product()
        while (tok := self.peek()) is not None and tok.lexeme in "+-" and tok.kind == "op":
            self.next()
            node = BinOp(tok.lexeme, node, self.product())
        return node

    def product(self) -> Expr:
        node = self.unary()
        while (tok := self.peek()) is not None and tok.lexeme in "*/" and tok.kind == "op":
            self.next()
            node = BinOp(tok.lexeme, node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.lexeme == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while (tok := self.peek()) is not None and tok.kind == "op" and tok.lexeme == "^":
            self.next()
            exp_tok = self.peek()
            exp = self.atom()
            node = Pow(node, self._const_int(exp, exp_tok))
        return node

    def _const_int(self, e: Expr, tok: Token | None) -> int:
        pos = tok.pos if tok is not None else len(self.source)
        if _contains_var(e):
            raise ParseError("exponent must be a constant integer", pos)
        value = evaluate(e, 0.0)
        if value.imag != 0.0 or value.real != round(value.real):
            raise ParseError("exponent must be a constant integer", pos)
        return int(round(value.real))

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            value = float(tok.lexeme)
            if not np.isfinite(value):
                raise ParseError(f"number {tok.lexeme!r} overflows a float", tok.pos)
            return Const(complex(value))
        if tok.kind == "ident":
            if tok.lexeme == "i":
                return Const(1j)
            if tok.lexeme == "x":
                return _X
            if tok.lexeme in _FUNCTIONS:
                opening = self.peek()
                if opening is None or opening.lexeme != "(":
                    raise ParseError(f"function '{tok.lexeme}' needs parentheses", tok.pos)
                self.next()
                arg = self.sum()
                closing = self.peek()
                if closing is None or closing.lexeme != ")":
                    raise ParseError("unbalanced parentheses", tok.pos)
                self.next()
                return Call(tok.lexeme, arg)
            raise ParseError(f"unknown identifier '{tok.lexeme}'", tok.pos)
        if tok.lexeme == "(":
            node = self.sum()
            closing = self.peek()
            if closing is None or closing.lexeme != ")":
                raise ParseError("unbalanced parentheses", tok.pos)
            self.next()
            return node
        if tok.lexeme == ")":
            raise ParseError("unbalanced parentheses", tok.pos)
        raise ParseError(f"dangling operator '{tok.lexeme}'", tok.pos)


def parse(source: str) -> Expr:
    """Parse source text into an expression tree."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source).parse()


def _children(e: Expr) -> tuple:
    match e:
        case Neg(child) | Pow(child, _) | Call(_, child):
            return (child,)
        case BinOp(_, left, right):
            return (left, right)
    return ()


def _contains_var(e: Expr) -> bool:
    return isinstance(e, Var) or any(map(_contains_var, _children(e)))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_FUNCTIONS = {
    "sech": lambda z: 1.0 / np.cosh(z),  # sech defined once, via cosh
    "tanh": np.tanh,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "ln": np.log,
    "sqrt": np.sqrt,
}


def evaluate(e: Expr, x: float) -> complex:
    """`evaluate_on` at the single real point x."""
    return complex(evaluate_on(e, np.array([x], dtype=float))[0])


def evaluate_on(e: Expr, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an array of real points.

    A non-finite result raises DomainError at the first offending point,
    naming the innermost subterm that is non-finite there.
    """
    xs = np.asarray(xs, dtype=float)
    out = np.broadcast_to(_ev_safe(e, xs), xs.shape).astype(complex)
    bad = ~np.isfinite(out)
    if bad.any():
        x_bad = xs.flat[np.argmax(bad)]  # xs may be 0-d
        raise DomainError(f"non-finite value at x={float(x_bad)}",
                          to_source(_innermost_non_finite(e, x_bad[None])))
    return out


def _ev_safe(e: Expr, xs: np.ndarray):
    try:
        with np.errstate(all="ignore"):
            return np.asarray(_ev_np(e, xs), dtype=complex)
    except (ZeroDivisionError, OverflowError):  # a constant subterm, in Python complex
        return np.full(xs.shape, np.nan, dtype=complex)


def _innermost_non_finite(e: Expr, x: np.ndarray) -> Expr:
    """The innermost subterm of e that is non-finite at x, on the path of the
    first non-finite child."""
    for child in _children(e):
        if not np.all(np.isfinite(_ev_safe(child, x))):
            return _innermost_non_finite(child, x)
    return e


def _ev_np(e: Expr, xs: np.ndarray):
    match e:
        case Const(value):
            return value
        case Var():
            return xs.astype(complex)
        case Neg(child):
            return -_ev_np(child, xs)
        case BinOp("+", left, right):
            return _ev_np(left, xs) + _ev_np(right, xs)
        case BinOp("-", left, right):
            return _ev_np(left, xs) - _ev_np(right, xs)
        case BinOp("*", left, right):
            return _ev_np(left, xs) * _ev_np(right, xs)
        case BinOp("/", left, right):
            return _ev_np(left, xs) / _ev_np(right, xs)
        case Pow(base, exponent):
            return _ev_np(base, xs) ** exponent
        case Call(func, arg):
            return _FUNCTIONS[func](_ev_np(arg, xs))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Symbolic derivative
# ---------------------------------------------------------------------------

def derive(e: Expr) -> Expr:
    """Symbolic derivative; agrees with centered finite differences to O(h^2)."""
    match e:
        case Const(_):
            return Const(0)
        case Var():
            return Const(1)
        case Neg(child):
            return Neg(derive(child))
        case BinOp("+", left, right):
            return BinOp("+", derive(left), derive(right))
        case BinOp("-", left, right):
            return BinOp("-", derive(left), derive(right))
        case BinOp("*", left, right):
            return BinOp("+", BinOp("*", derive(left), right),
                         BinOp("*", left, derive(right)))
        case BinOp("/", left, right):
            num = BinOp("-", BinOp("*", derive(left), right),
                        BinOp("*", left, derive(right)))
            return BinOp("/", num, Pow(right, 2))
        case Pow(base, exponent):
            if exponent == 0:
                return Const(0)
            return BinOp("*", Const(exponent),
                         BinOp("*", Pow(base, exponent - 1), derive(base)))
        case Call(func, arg):
            return BinOp("*", _chain_factor(func, arg), derive(arg))
    raise TypeError(f"not an expression node: {e!r}")


def _chain_factor(func: str, u: Expr) -> Expr:
    if func == "sech":
        return Neg(BinOp("*", Call("sech", u), Call("tanh", u)))
    if func == "tanh":
        return Pow(Call("sech", u), 2)
    if func == "cosh":
        return Call("sinh", u)
    if func == "sinh":
        return Call("cosh", u)
    if func == "exp":
        return Call("exp", u)
    if func == "sin":
        return Call("cos", u)
    if func == "cos":
        return Neg(Call("sin", u))
    if func == "ln":
        return BinOp("/", Const(1), u)
    if func == "sqrt":
        return BinOp("/", Const(1), BinOp("*", Const(2), Call("sqrt", u)))
    raise ValueError(f"unknown function '{func}'")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def to_source(e: Expr) -> str:
    """Render back to parseable text; parse(to_source(e)) evaluates like e
    when every constant of e is finite, as in every tree that `parse` builds."""
    text, _ = _fmt(e)
    return text


def _fmt_const(value: complex) -> tuple[str, int]:
    """Text that parses back to value bit for bit.  Signed zeros count: they
    pick the side of a branch cut (ln(-1 + 0i) = i pi, ln(-1 - 0i) = -i pi).
    "a" parses to (a, +0), "-a" to (-a, -0) and "b*i" to (+0, b)."""
    re_, im = value.real, value.imag
    if im == 0 and np.signbit(re_) == np.signbit(im):
        return repr(re_), _PREC_UNARY if np.signbit(re_) else _PREC_ATOM
    if re_ == 0 and not np.signbit(re_):
        return ("i", _PREC_ATOM) if im == 1 else (f"{im!r}*i", _PREC_PROD)
    if re_ != 0 and im != 0:
        return f"({re_!r} {'-' if im < 0 else '+'} {abs(im)!r}*i)", _PREC_ATOM
    if np.signbit(re_):  # (re, -0) - (+0, -im) is exact for every im
        return f"({float(re_)!r} - {-float(im)!r}*i)", _PREC_ATOM
    return "-" + _fmt_const(-value)[0], _PREC_UNARY  # im is -0.0


def _fmt(e: Expr) -> tuple[str, int]:
    match e:
        case Const(value):
            return _fmt_const(value)
        case Var():
            return "x", _PREC_ATOM
        case Neg(child):
            cs = _wrap(child, _PREC_UNARY)
            return f"-{cs}", _PREC_UNARY
        case BinOp(op, left, right):
            prec = _PREC_SUM if op in "+-" else _PREC_PROD
            ls = _wrap(left, prec)
            rs = _wrap(right, prec + 1)  # left-associative
            return f"{ls} {op} {rs}", prec
        case Pow(base, exponent):
            bs = _wrap(base, _PREC_POW + 1)
            if exponent < 0:
                return f"{bs}^({exponent})", _PREC_POW
            return f"{bs}^{exponent}", _PREC_POW
        case Call(func, arg):
            return f"{func}({to_source(arg)})", _PREC_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e: Expr, min_prec: int) -> str:
    text, prec = _fmt(e)
    if prec < min_prec:
        return f"({text})"
    return text
