"""Arithmetic expressions over x/y variables with exact derivatives.

The grammar covers the usual scalar arithmetic (+, -, *, /, ^, unary minus),
the functions sin, cos, exp, log, sqrt, numeric literals, and variables named
``x1..xn`` / ``y1..ym``.  ``^`` only accepts constant integer exponents >= 0
or the literal 0.5; ``abs`` is deliberately not part of the grammar (it would
break the smoothness assumptions of the solvers downstream).

Derivatives are symbolic: :func:`derivative` turns an expression into its
partial derivative, built from the same node types, and the one evaluator
:func:`eval_value` evaluates values and derivatives alike, so compiled fields
are exact to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
_BIN_OPS = ("+", "-", "*", "/", "^")


class SpecParseError(ValueError):
    """Syntax or semantic error in an expression, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class DomainError(ArithmeticError):
    """An expression was evaluated outside its differentiable domain."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str   # 'x' or 'y'
    index: int  # 1-based, as written in the source


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, Bin, Call]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str   # NUM, IDENT, OP, LPAREN, RPAREN, EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < len(text) and text[j] in "eE":
                k = j + 1
                if k < len(text) and text[k] in "+-":
                    k += 1
                if k < len(text) and text[k].isdigit():
                    j = k
                    while j < len(text) and text[j].isdigit():
                        j += 1
            tokens.append(_Token("NUM", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _BIN_OPS:
            tokens.append(_Token("OP", ch, line, start_col))
        elif ch == "(":
            tokens.append(_Token("LPAREN", ch, line, start_col))
        elif ch == ")":
            tokens.append(_Token("RPAREN", ch, line, start_col))
        else:
            raise SpecParseError(f"unexpected character {ch!r}", line, start_col)
        i += 1
        col += 1
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    """Recursive descent over the token stream."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise SpecParseError(message, tok.line, tok.col)

    def parse(self) -> Expression:
        expr = self.parse_sum()
        tok = self.peek()
        if tok.kind != "EOF":
            self.error(f"unexpected {tok.text!r}")
        return expr

    def parse_sum(self) -> Expression:
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expression:
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_primary()
        if self.peek().kind == "OP" and self.peek().text == "^":
            op_tok = self.advance()
            exponent = self.parse_unary()
            if not isinstance(exponent, Num):
                self.error("exponent must be a numeric constant", op_tok)
            val = exponent.value
            if val != 0.5 and not (float(val).is_integer() and val >= 0):
                self.error("exponent must be a nonnegative integer or 0.5", op_tok)
            return Bin("^", base, exponent)
        return base

    def parse_primary(self) -> Expression:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if name in FUNCTIONS:
                open_tok = self.peek()
                if open_tok.kind != "LPAREN":
                    self.error(f"expected '(' after {name}", open_tok)
                self.advance()
                arg = self.parse_sum()
                if self.peek().kind != "RPAREN":
                    # point at the unmatched opening parenthesis
                    self.error("unclosed '('", open_tok)
                self.advance()
                return Call(name, arg)
            if name[0] in "xy" and name[1:].isdigit():
                index = int(name[1:])
                if index < 1:
                    self.error(f"variable index must start at 1: {name!r}", tok)
                return Var(name[0], index)
            self.error(f"unknown identifier {name!r} (abs is not supported)", tok)
        if tok.kind == "LPAREN":
            open_tok = self.advance()
            node = self.parse_sum()
            if self.peek().kind != "RPAREN":
                self.error("unclosed '('", open_tok)
            self.advance()
            return node
        if tok.kind == "RPAREN":
            self.error("unmatched ')'", tok)
        if tok.kind == "EOF":
            # anchor at the token an operand was expected after, not at EOF
            prev = self.tokens[self.pos - 1] if self.pos else tok
            self.error("unexpected end of expression", prev)
        self.error(f"unexpected {tok.text!r}", tok)


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an AST; raises :class:`SpecParseError` on bad input."""
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Printing (round-trips through parse_expression to an identical AST)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _print(node: Expression, parent_prec: int, right_side: bool) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"{node.kind}{node.index}"
    if isinstance(node, Call):
        return f"{node.fn}({_print(node.arg, 0, False)})"
    if isinstance(node, Neg):
        inner = _print(node.arg, _PREC["neg"], False)
        text = f"-{inner}"
        if parent_prec > _PREC["neg"] or (right_side and parent_prec == _PREC["neg"]):
            return f"({text})"
        return text
    prec = _PREC[node.op]
    # the parser groups left to right and takes only a literal exponent, so
    # a same-precedence right operand and a power as a base need parentheses
    left = _print(node.left, prec, node.op == "^")
    right = _print(node.right, prec, True)
    text = f"{left} {node.op} {right}" if node.op != "^" else f"{left}^{right}"
    if prec < parent_prec or (right_side and prec == parent_prec):
        return f"({text})"
    return text


def to_string(expr: Expression) -> str:
    return _print(expr, 0, False)


def variables(expr: Expression) -> set:
    """All (kind, index) pairs appearing in the expression."""
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Var):
        return {(expr.kind, expr.index)}
    if isinstance(expr, (Neg, Call)):
        return variables(expr.arg)
    return variables(expr.left) | variables(expr.right)


# ---------------------------------------------------------------------------
# Evaluation (scalar or numpy-broadcast) and derivatives built as expressions
# ---------------------------------------------------------------------------

def eval_value(expr: Expression, env):
    """Evaluate with ``env[(kind, index)]`` giving scalars or numpy arrays;
    out-of-domain points give nan or inf, never an error or a complex."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return env[(expr.kind, expr.index)]
    if isinstance(expr, Neg):
        return -eval_value(expr.arg, env)
    if isinstance(expr, Call):
        arg = eval_value(expr.arg, env)
        with np.errstate(divide="ignore", invalid="ignore"):
            return getattr(np, expr.fn)(arg)
    left = eval_value(expr.left, env)
    if expr.op == "^":
        with np.errstate(invalid="ignore"):
            if expr.right.value == 0.5:
                return np.sqrt(left)
            return left ** expr.right.value
    right = eval_value(expr.right, env)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    with np.errstate(divide="ignore", invalid="ignore"):
        return left / right


_ZERO = Num(0.0)


def _is(node: Expression, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _neg(a):
    return a if _is(a, 0.0) else Neg(a)


def _add(a, b):
    return b if _is(a, 0.0) else a if _is(b, 0.0) else Bin("+", a, b)


def _sub(a, b):
    return _neg(b) if _is(a, 0.0) else a if _is(b, 0.0) else Bin("-", a, b)


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    return b if _is(a, 1.0) else a if _is(b, 1.0) else Bin("*", a, b)


# f'(u) as an expression, given the call node f(u)
_OUTER = {"sin": lambda e: Call("cos", e.arg),
          "cos": lambda e: Neg(Call("sin", e.arg)),
          "exp": lambda e: e,
          "log": lambda e: Bin("/", Num(1.0), e.arg),
          "sqrt": lambda e: Bin("/", Num(0.5), e)}


def derivative(expr: Expression, var: tuple) -> Expression:
    """Partial derivative of ``expr`` in the variable ``var = (kind, index)``.

    Product, quotient and chain rules, with only the exact simplifications
    ``a + 0``, ``a * 1`` and ``a * 0`` (a zero numerator counts as ``a * 0``).
    """
    if isinstance(expr, Num):
        return _ZERO
    if isinstance(expr, Var):
        return Num(1.0) if (expr.kind, expr.index) == var else _ZERO
    if isinstance(expr, Neg):
        return _neg(derivative(expr.arg, var))
    if isinstance(expr, Call):
        return _mul(_OUTER[expr.fn](expr), derivative(expr.arg, var))
    u, w = expr.left, expr.right
    du = derivative(u, var)
    if expr.op == "^":
        p = w.value
        if p == 0.5:
            return _mul(_OUTER["sqrt"](expr), du)
        if p == 0.0:
            return _ZERO
        if p == 1.0:
            return du
        # p * u^(p-1) * du, with u^1 written as u
        return _mul(_mul(w, u if p == 2.0 else Bin("^", u, Num(p - 1.0))), du)
    dw = derivative(w, var)
    if expr.op == "+":
        return _add(du, dw)
    if expr.op == "-":
        return _sub(du, dw)
    if expr.op == "*":
        return _add(_mul(u, dw), _mul(w, du))
    # (du - (u / w) * dw) / w
    quotient = _sub(du, _mul(expr, dw))
    return _ZERO if _is(quotient, 0.0) else Bin("/", quotient, w)


def _domain_checks(expr: Expression) -> list:
    """``(argument, operation)`` of every log, sqrt, ``^0.5`` and division in
    ``expr``, in the order an evaluation reaches them."""
    if isinstance(expr, (Num, Var)):
        return []
    if isinstance(expr, Neg):
        return _domain_checks(expr.arg)
    if isinstance(expr, Call):
        own = [(expr.arg, expr.fn)] if expr.fn in ("log", "sqrt") else []
        return _domain_checks(expr.arg) + own
    own = []
    if expr.op == "/":
        own = [(expr.right, "/")]
    elif expr.op == "^" and expr.right.value == 0.5:
        own = [(expr.left, "sqrt")]
    return _domain_checks(expr.left) + _domain_checks(expr.right) + own


def derivative_tables(expr: Expression, keys: list) -> list:
    """Gradient and Hessian of ``expr`` in the variables ``keys``, each as a
    table ``(shape, nonzero (positions, expression) entries, domain checks)``.
    The Hessian's upper triangle is mirrored, so it is exactly symmetric."""
    d = len(keys)
    checks = tuple(_domain_checks(expr))
    grad = [derivative(expr, key) for key in keys]
    hess = [(((i, j), (j, i)), derivative(grad[i], keys[j]))
            for i in range(d) for j in range(i, d)]
    return [((d,), tuple(((i,), e) for i, e in enumerate(grad)
                         if not _is(e, 0.0)), checks),
            ((d, d), tuple(p for p in hess if not _is(p[1], 0.0)), checks)]


def eval_taylor2(table: tuple, env: dict) -> np.ndarray:
    """Evaluate a table of :func:`derivative_tables` at the scalar point
    ``env``; raise :class:`DomainError` at its first failing domain check.
    (``perfbench/tracing.py`` times derivative evaluation under this name.)"""
    shape, entries, checks = table
    for arg, op in checks:
        v = eval_value(arg, env)
        if v == 0.0 or (v < 0.0 and op != "/"):
            raise DomainError("division by zero" if op == "/"
                              else f"{op} of a nonpositive value")
    out = np.zeros(shape)
    for positions, e in entries:
        v = eval_value(e, env)
        for pos in positions:
            out[pos] = v
    return out
