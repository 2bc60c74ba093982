"""Arithmetic expressions over x/y variables with exact derivatives.

The grammar covers the usual scalar arithmetic (+, -, *, /, ^, unary minus),
the functions sin, cos, exp, log, sqrt, numeric literals, and variables named
``x1..xn`` / ``y1..ym``.  ``^`` only accepts constant integer exponents >= 0
or the literal 0.5; ``abs`` is deliberately not part of the grammar (it would
break the smoothness assumptions of the solvers downstream).

Derivatives are symbolic: :func:`derivative` turns an expression into its
partial derivative, built from the same node types, so derivatives are exact
to rounding.  :func:`compile_functions` turns an expression and its
derivative tables into Python functions once; the generated source is built
from the AST alone (numbers by ``repr``, the names ``x1..xn`` / ``y1..ym``,
the four operators, constant powers and the whitelisted numpy functions).
Their ``value_and_gradient_batch`` evaluates the value and the gradient at
every row of an array in one call: the values with the bits of
``value_batch``, the gradients with those of the pointwise gradient row by
row.
:func:`eval_value` and :func:`eval_taylor2` walk the AST instead; they are
the reference that the compiled functions must match bit for bit.
"""
from __future__ import annotations

import math
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
    out-of-domain points give nan or inf, never an error or a complex.
    Numbers are numpy floats, so constants such as ``2 / 0.0`` do so too."""
    if isinstance(expr, Num):
        return np.float64(expr.value)
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

    The reference for the functions of :func:`compile_functions`, which no
    solve calls.  ``perfbench/tracing.py`` still hooks this name (and
    ``eval_value``) in ``specfile``, so its ``expressions.*`` counters read 0."""
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


# ---------------------------------------------------------------------------
# Compilation to Python functions
# ---------------------------------------------------------------------------

#: The only globals of generated code; ``inf`` and ``nan`` are the ``repr``
#: of ``1e400`` and of a folded constant such as ``0.0 / 0.0``.
_GLOBALS = {"np": np, "DomainError": DomainError, "inf": math.inf,
            "nan": math.nan}


def _has_power(node: Expression, memo: dict) -> bool:
    """Whether ``node`` holds a power other than ``^0.5`` (``memo`` by id)."""
    key = id(node)
    if key not in memo:
        if isinstance(node, (Num, Var)):
            memo[key] = False
        elif isinstance(node, (Neg, Call)):
            memo[key] = _has_power(node.arg, memo)
        else:
            memo[key] = ((node.op == "^" and node.right.value != 0.5)
                         or _has_power(node.left, memo)
                         or _has_power(node.right, memo))
    return memo[key]


def _function(name: str, keys: list, expr: Expression, table, guard: bool,
              batch: bool) -> str:
    """Source of one function of a point ``z``, or with ``batch`` of the
    rows of an ``(N, d)`` array ``Z``: the value of ``expr`` when ``expr``
    is given, ``table`` filled after its domain checks as
    :func:`eval_taylor2` does when ``table`` is given, and ``(value,
    table)`` when both are.  Each AST node gets its own assignment, so no
    nesting limit of the Python parser applies, and a node object that the
    value and the tables share is computed once.  A binary operation
    without variables is folded to its :func:`eval_value`.

    A batch value has the bits of an array's ``**``.  A batch table gives
    each row the bits of the pointwise function: its powers are
    ``np.float_power``, the libm ``pow`` that a float64 scalar's ``**``
    calls (an array's ``**`` may round otherwise), so a node that holds a
    power is computed once for the value and once for the table; and when
    a domain check fails on any row the rows go one by one through the
    pointwise ``gradient``, which raises that function's error."""
    lines, names, used, powers = [], {}, {}, {}
    exact_powers = False    # set for the table of a batch function

    def operand(node) -> str:
        if isinstance(node, Num) and isinstance(node.value, float):
            text = repr(node.value)
            return f"({text})" if text.startswith("-") else text
        if isinstance(node, Var) and node.kind in ("x", "y") and type(node.index) is int:
            used[f"{node.kind}{node.index}"] = keys.index((node.kind, node.index))
            return f"{node.kind}{node.index}"
        key = (id(node), exact_powers and _has_power(node, powers))
        if key in names:
            return names[key][0]
        if isinstance(node, Bin) and not variables(node):
            # Python's float arithmetic raises on two literals (2.0 / 0.0,
            # 1e300 ** 2.0); numpy's, which eval_value uses, gives inf or nan
            with np.errstate(all="ignore"):
                return operand(Num(float(eval_value(node, {}))))
        if isinstance(node, Neg):
            text = f"-{operand(node.arg)}"
        elif isinstance(node, Call) and node.fn in FUNCTIONS:
            text = f"np.{node.fn}({operand(node.arg)})"
        elif isinstance(node, Bin) and node.op == "^" and node.right.value == 0.5:
            text = f"np.sqrt({operand(node.left)})"
        elif isinstance(node, Bin) and node.op == "^" and exact_powers:
            text = f"np.float_power({operand(node.left)}, {operand(node.right)})"
        elif isinstance(node, Bin) and node.op in _BIN_OPS:
            op = "**" if node.op == "^" else node.op
            text = f"{operand(node.left)} {op} {operand(node.right)}"
        else:
            raise ValueError(f"not an expression node: {node!r}")
        names[key] = (f"t{len(names)}", node)     # the node stays alive
        lines.append(f"{names[key][0]} = {text}")
        return names[key][0]

    results = []
    if expr is not None:
        value = operand(expr)
        if batch and not variables(expr):
            value = f"np.full(len(Z), {value})"
        results.append(value)
    if table is not None:
        exact_powers = batch
        shape, entries, checks = table
        for check, op in checks:
            v = operand(check)
            if not batch:
                lines += [f"if {v} == 0.0:" if op == "/" else f"if {v} == 0.0 or {v} < 0.0:",
                          "    raise DomainError('division by zero')" if op == "/"
                          else f"    raise DomainError('{op} of a nonpositive value')"]
            else:   # a check without variables is one float for all rows
                fails = f"{v} == 0.0" if op == "/" else f"{v} <= 0.0"
                pointwise = f"np.array([gradient(z) for z in Z]).reshape(len(Z), *{shape!r})"
                lines += [f"if ({fails}).any():" if variables(check) else f"if {fails}:",
                          f"    return {', '.join(results + [pointwise])}"]
        lines.append(f"out = np.zeros((len(Z), *{shape!r}))" if batch
                     else f"out = np.zeros({shape!r})")
        for positions, e in entries:
            targets = [f"out[{':, ' * batch}{pos!r}]" for pos in positions]
            lines.append(" = ".join(targets + [operand(e)]))
        results.append("out")
    column = "[:, {}]" if batch else "[{}]"
    arg = "Z" if batch else "z"
    body = [f"{v} = {arg}{column.format(i)}" for v, i in used.items()]
    body += lines + [f"return {', '.join(results)}"]
    if guard:
        body = (["with np.errstate(divide='ignore', invalid='ignore'):"]
                + ["    " + b for b in body])
    return "\n".join([f"def {name}({arg}):"] + ["    " + b for b in body])


def compile_functions(expr: Expression, keys: list, label: str = "field"):
    """``(value, gradient, hessian, value_batch, value_and_gradient_batch)``
    of ``expr`` over the variables ``keys`` (``z[i]`` holds ``keys[i]``):
    Python functions that give the same floats as :func:`eval_value` and
    :func:`eval_taylor2` on the tables of :func:`derivative_tables`, and
    raise :class:`DomainError` where that does.  The batch functions take
    an ``(N, len(keys))`` array.  ``value_and_gradient_batch`` returns
    ``value_batch``'s values (the bits of an array's ``**``, which may
    differ from ``value``'s in the last bit where ``expr`` has an integer
    power) and the ``(N, len(keys))`` gradients, row k with the bits of
    ``gradient`` at row k; it raises where ``gradient`` does on some row.
    Only an expression with a log, sqrt, ``^0.5`` or division is evaluated
    under ``np.errstate`` (1.3 us a call with numpy 2.4 on a 2-vCPU x86-64
    host)."""
    grad, hess = derivative_tables(expr, keys)
    guard = bool(grad[2])
    functions = (("value", expr, None, False), ("gradient", None, grad, False),
                 ("hessian", None, hess, False),
                 ("value_batch", expr, None, True),
                 ("value_and_gradient_batch", expr, grad, True))
    source = "\n".join(_function(name, keys, value, table, guard, batch)
                       for name, value, table, batch in functions)
    namespace = dict(_GLOBALS)
    exec(compile(source, f"<{label}>", "exec"), namespace)
    return tuple(namespace[name] for name, _, _, _ in functions)
