"""Immutable symbolic expression trees with exact differentiation.

Expressions are built from number literals, named constants (``pi``,
``euler_gamma``), free variables, the arithmetic operators ``+ - * / ^``
(with ``^`` right-associative), unary minus, and the elementary functions
``exp``, ``ln``, ``sqrt``, ``sin``, ``cos``.

The text grammar accepted by :func:`parse`::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | factor
    factor := base ("^" unary)?
    base   := NUMBER | IDENT | CONST | FUNC "(" expr ")" | "(" expr ")"

Unary minus binds tighter than addition but looser than exponentiation,
so ``-t^2`` is ``-(t^2)``.  Identifiers that are not function or constant
names are free variables.

Equality of expressions in this package is certified by randomized
pointwise evaluation, not by reduction to a canonical form;
:func:`simplify` only applies cheap local rewrites.  The companion
numeric oracle is :func:`finite_difference`, a central-difference scheme
with one Richardson extrapolation level.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

EULER_GAMMA = 0.57721566490153286

#: Named constants admitted by the grammar.
CONSTANTS: dict[str, float] = {"pi": math.pi, "euler_gamma": EULER_GAMMA}

#: Function names admitted by the grammar.
FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos")


class ExpressionError(Exception):
    """Base class for all expression-level failures."""


class ParseError(ExpressionError):
    """Malformed input text; carries the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownFunctionError(ParseError):
    pass


class UnknownConstantError(ExpressionError):
    pass


class UnboundVariableError(ExpressionError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainError(ExpressionError):
    """Evaluation left the real domain; carries the offending subtree."""

    def __init__(self, message: str, subtree: "Expr"):
        super().__init__(f"{message} in '{to_text(subtree)}'")
        self.subtree = subtree


class _Node:
    """Operator sugar shared by every node type."""

    __slots__ = ()

    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Sub(self, _coerce(other))

    def __rsub__(self, other):
        return Sub(_coerce(other), self)

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, other):
        return Pow(self, _coerce(other))

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True, slots=True)
class Num(_Node):
    value: float


@dataclass(frozen=True, slots=True)
class Const(_Node):
    name: str


@dataclass(frozen=True, slots=True)
class Var(_Node):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Add(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Sub(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Mul(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Div(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Pow(_Node):
    base: "Expr"
    exponent: "Expr"


@dataclass(frozen=True, slots=True)
class Call(_Node):
    func: str
    arg: "Expr"


Expr = Union[Num, Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call]
Bindings = Mapping[str, float]

ZERO = Num(0.0)
ONE = Num(1.0)


def _coerce(value) -> Expr:
    if isinstance(value, _Node):
        return value
    if isinstance(value, (int, float)):
        return Num(float(value))
    raise TypeError(f"cannot use {value!r} as an expression")


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

_OPERATOR_CHARS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "−":  # typographic minus sign, treated as "-"
            tokens.append(("op", "-", i))
            i += 1
            continue
        if c in _OPERATOR_CHARS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(("num", text[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
            continue
        raise ParseError(f"unexpected character '{c}'", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        kind, value, position = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected '{symbol}'", position)
        self.advance()

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.factor()

    def factor(self) -> Expr:
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Pow(node, self.unary())
        return node

    def base(self) -> Expr:
        kind, value, position = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function '{value}'", position)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            if value in CONSTANTS:
                return Const(value)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token '{value or 'end of input'}'", position)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` (with offset) on malformed input and
    :class:`UnknownFunctionError` when an identifier is applied like a
    function but is not one of ``exp``, ``ln``, ``sqrt``, ``sin``, ``cos``.
    """
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    kind, value, position = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input '{value}'", position)
    return node


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Precedence levels used by the printer; parentheses are inserted whenever
# a child would bind looser than its context requires.
_ATOM, _POW, _NEG, _MULDIV, _ADDSUB = 5, 4, 3, 2, 1


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _ADDSUB
    if isinstance(e, (Mul, Div)):
        return _MULDIV
    if isinstance(e, Neg):
        return _NEG
    if isinstance(e, Num) and (e.value < 0 or math.copysign(1.0, e.value) < 0):
        return _NEG
    if isinstance(e, Pow):
        return _POW
    return _ATOM


def _fmt_number(value: float) -> str:
    if math.isfinite(value) and value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _render(e: Expr, min_prec: int) -> str:
    text: str
    if isinstance(e, Num):
        text = _fmt_number(e.value)
    elif isinstance(e, (Const, Var)):
        text = e.name
    elif isinstance(e, Neg):
        text = "-" + _render(e.arg, _NEG)
    elif isinstance(e, Add):
        text = _render(e.left, _ADDSUB) + " + " + _render(e.right, _ADDSUB + 1)
    elif isinstance(e, Sub):
        text = _render(e.left, _ADDSUB) + " - " + _render(e.right, _ADDSUB + 1)
    elif isinstance(e, Mul):
        text = _render(e.left, _MULDIV) + "*" + _render(e.right, _MULDIV + 1)
    elif isinstance(e, Div):
        text = _render(e.left, _MULDIV) + "/" + _render(e.right, _MULDIV + 1)
    elif isinstance(e, Pow):
        # exponent is a grammar "unary", so Neg needs no parentheses there
        text = _render(e.base, _ATOM) + "^" + _render(e.exponent, _NEG)
    elif isinstance(e, Call):
        return e.func + "(" + _render(e.arg, 0) + ")"
    else:  # pragma: no cover
        raise TypeError(f"not an expression: {e!r}")
    if _prec(e) < min_prec:
        return "(" + text + ")"
    return text


def to_text(e: Expr) -> str:
    """Render ``e`` in the input grammar; parsing the result reproduces
    the tree produced by :func:`parse` structurally."""
    return _render(e, 0)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def free_variables(e: Expr) -> frozenset[str]:
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, (Neg, Call)):
            stack.append(node.arg)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Pow):
            stack.append(node.base)
            stack.append(node.exponent)
    return frozenset(out)


def _is_integral(value: float) -> bool:
    return abs(value) < 1e15 and value == int(value)


def evaluate(e: Expr, bindings: Bindings) -> float:
    """Evaluate to an IEEE double.

    Every free variable must be bound (:class:`UnboundVariableError`
    otherwise).  Arguments outside a function's real domain, division by
    zero, and overflow raise :class:`DomainError` carrying the offending
    subtree.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if isinstance(e, Const):
        try:
            return CONSTANTS[e.name]
        except KeyError:
            raise UnknownConstantError(f"unknown named constant '{e.name}'") from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, bindings)
    if isinstance(e, Add):
        return evaluate(e.left, bindings) + evaluate(e.right, bindings)
    if isinstance(e, Sub):
        return evaluate(e.left, bindings) - evaluate(e.right, bindings)
    if isinstance(e, Mul):
        return evaluate(e.left, bindings) * evaluate(e.right, bindings)
    if isinstance(e, Div):
        denom = evaluate(e.right, bindings)
        if denom == 0.0:
            raise DomainError("division by zero", e)
        return evaluate(e.left, bindings) / denom
    if isinstance(e, Pow):
        base = evaluate(e.base, bindings)
        expo = evaluate(e.exponent, bindings)
        if base == 0.0 and expo < 0.0:
            raise DomainError("zero raised to a negative power", e)
        if base < 0.0 and not _is_integral(expo):
            raise DomainError("negative base with non-integer exponent", e)
        try:
            return float(base ** expo)
        except OverflowError:
            raise DomainError("overflow", e) from None
    if isinstance(e, Call):
        value = evaluate(e.arg, bindings)
        if e.func == "exp":
            try:
                return math.exp(value)
            except OverflowError:
                raise DomainError("overflow in exp", e) from None
        if e.func == "ln":
            if value <= 0.0:
                raise DomainError("ln of non-positive value", e)
            return math.log(value)
        if e.func == "sqrt":
            if value < 0.0:
                raise DomainError("sqrt of negative value", e)
            return math.sqrt(value)
        if e.func == "sin":
            return math.sin(value)
        if e.func == "cos":
            return math.cos(value)
        raise UnknownFunctionError(f"unknown function '{e.func}'", 0)
    raise TypeError(f"not an expression: {e!r}")


# -- compiled evaluation -----------------------------------------------------

def _tape_pow(base: float, expo: float) -> float:
    if base < 0.0 and not _is_integral(expo):
        raise ValueError("negative base with non-integer exponent")
    return base ** expo


#: Instruction per operator, keyed by node type or function name.
_TAPE_OPS: dict = {
    Neg: operator.neg,
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: operator.truediv,
    Pow: _tape_pow,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
}


class _Untapeable(Exception):
    """A node the tape has no instruction for; the tree walk handles it."""


def _operands(node: Expr) -> tuple:
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, (Add, Sub, Mul, Div)):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base, node.exponent)
    return ()


def _tape_key(node: Expr, operands: list[int]) -> tuple:
    """Structural key of a node whose operands already have value numbers."""
    if isinstance(node, Num):
        return (Num, struct.pack("<d", node.value))  # 0.0 and -0.0 stay apart
    if isinstance(node, Var) or (isinstance(node, Const) and node.name in CONSTANTS):
        return (type(node), node.name)
    op = node.func if isinstance(node, Call) else type(node)
    if op not in _TAPE_OPS:
        raise _Untapeable
    return (op, *operands)


def _value_number(exprs: tuple[Expr, ...]) -> tuple[list[tuple], list[int]]:
    """Keys of the distinct subexpressions in dependency order, and the
    value number of each root.

    The walk is iterative and remembers nodes by identity, so a subtree
    shared by reference is visited once; equal subtrees that are distinct
    objects still share a number through their keys.
    """
    numbers: dict[tuple, int] = {}
    number_of: dict[int, int] = {}
    roots = []
    for root in exprs:
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in number_of:
                stack.pop()
                continue
            children = _operands(node)
            pending = [c for c in children if id(c) not in number_of]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            key = _tape_key(node, [number_of[id(c)] for c in children])
            number_of[id(node)] = numbers.setdefault(key, len(numbers))
        roots.append(number_of[id(root)])
    return list(numbers), roots


def compile_family(exprs: Sequence[Expr]) -> Callable[[Bindings], tuple[float, ...]]:
    """Compile expressions into one instruction tape with shared subexpressions.

    The returned callable maps bindings to the same floats, bit for bit, as
    ``tuple(evaluate(e, bindings) for e in exprs)``: every distinct
    subexpression gets one slot and is computed once, in dependency order,
    with the operations :func:`evaluate` uses.  When an instruction raises
    or a guard trips (a negative base with a non-integral exponent), the
    call re-runs :func:`evaluate`, so every error and the subtree it
    carries are the tree walk's own.
    """
    exprs = tuple(exprs)

    def walk(bindings: Bindings) -> tuple[float, ...]:
        return tuple(evaluate(e, bindings) for e in exprs)

    try:
        keys, roots = _value_number(exprs)
    except _Untapeable:
        return walk
    template: list = [None] * len(keys)
    names = []
    tape = []
    for slot, (op, *args) in enumerate(keys):
        if op is Var:
            names.append((slot, args[0]))
        elif op is Num:
            template[slot] = struct.unpack("<d", args[0])[0]
        elif op is Const:
            template[slot] = CONSTANTS[args[0]]
        else:
            tape.append((slot, _TAPE_OPS[op], args[0], args[1] if len(args) > 1 else -1))
    tape = tuple(tape)

    def run(bindings: Bindings) -> tuple[float, ...]:
        try:
            values = template[:]
            for slot, name in names:
                values[slot] = float(bindings[name])
            for slot, fn, a, b in tape:
                values[slot] = fn(values[a]) if b < 0 else fn(values[a], values[b])
            return tuple([values[r] for r in roots])
        except Exception:
            return walk(bindings)

    return run


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Replace every occurrence of variable ``name`` by ``replacement``."""
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, (Num, Const)):
        return e
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, name, replacement))
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, name, replacement))
    if isinstance(e, Add):
        return Add(substitute(e.left, name, replacement), substitute(e.right, name, replacement))
    if isinstance(e, Sub):
        return Sub(substitute(e.left, name, replacement), substitute(e.right, name, replacement))
    if isinstance(e, Mul):
        return Mul(substitute(e.left, name, replacement), substitute(e.right, name, replacement))
    if isinstance(e, Div):
        return Div(substitute(e.left, name, replacement), substitute(e.right, name, replacement))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, name, replacement), substitute(e.exponent, name, replacement))
    raise TypeError(f"not an expression: {e!r}")


def substitute_all(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    for name, replacement in mapping.items():
        e = substitute(e, name, replacement)
    return e


# -- differentiation ---------------------------------------------------------

def _is_num(e: Expr, value: float) -> bool:
    return isinstance(e, Num) and e.value == value


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return ZERO
    if _is_num(b, 1.0):
        return a
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return ONE
    return Pow(a, b)


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to variable ``name``.

    The result folds away trivial zero and unit factors but is otherwise
    unsimplified; it always evaluates correctly.  For a constant exponent
    the power rule is used (valid for negative bases), otherwise the
    logarithmic form ``b^p (p' ln b + p b'/b)``.
    """
    if isinstance(e, (Num, Const)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg, name))
    if isinstance(e, Add):
        return _add(differentiate(e.left, name), differentiate(e.right, name))
    if isinstance(e, Sub):
        return _sub(differentiate(e.left, name), differentiate(e.right, name))
    if isinstance(e, Mul):
        return _add(
            _mul(differentiate(e.left, name), e.right),
            _mul(e.left, differentiate(e.right, name)),
        )
    if isinstance(e, Div):
        return _div(
            _sub(
                _mul(differentiate(e.left, name), e.right),
                _mul(e.left, differentiate(e.right, name)),
            ),
            _pow(e.right, Num(2.0)),
        )
    if isinstance(e, Pow):
        db = differentiate(e.base, name)
        if isinstance(e.exponent, Num):
            return _mul(_mul(e.exponent, _pow(e.base, Num(e.exponent.value - 1.0))), db)
        if isinstance(e.exponent, Const):
            return _mul(_mul(e.exponent, _pow(e.base, _sub(e.exponent, ONE))), db)
        dp = differentiate(e.exponent, name)
        return _mul(
            e,
            _add(_mul(dp, Call("ln", e.base)), _div(_mul(e.exponent, db), e.base)),
        )
    if isinstance(e, Call):
        da = differentiate(e.arg, name)
        if e.func == "exp":
            return _mul(e, da)
        if e.func == "ln":
            return _div(da, e.arg)
        if e.func == "sqrt":
            return _div(da, _mul(Num(2.0), e))
        if e.func == "sin":
            return _mul(Call("cos", e.arg), da)
        if e.func == "cos":
            return _neg(_mul(Call("sin", e.arg), da))
        raise UnknownFunctionError(f"unknown function '{e.func}'", 0)
    raise TypeError(f"not an expression: {e!r}")


# -- simplification ----------------------------------------------------------

def _simplify_node(e: Expr) -> Expr:
    if isinstance(e, Neg):
        if isinstance(e.arg, Num):
            return Num(-e.arg.value)
        if isinstance(e.arg, Neg):
            return e.arg.arg
        return e
    if isinstance(e, Add):
        if _is_num(e.left, 0.0):
            return e.right
        if _is_num(e.right, 0.0):
            return e.left
        if isinstance(e.left, Num) and isinstance(e.right, Num):
            return Num(e.left.value + e.right.value)
        return e
    if isinstance(e, Sub):
        if _is_num(e.right, 0.0):
            return e.left
        if _is_num(e.left, 0.0):
            return Neg(e.right)
        if isinstance(e.left, Num) and isinstance(e.right, Num):
            return Num(e.left.value - e.right.value)
        if e.left == e.right:
            return ZERO
        return e
    if isinstance(e, Mul):
        if _is_num(e.left, 0.0) or _is_num(e.right, 0.0):
            return ZERO
        if _is_num(e.left, 1.0):
            return e.right
        if _is_num(e.right, 1.0):
            return e.left
        if isinstance(e.left, Num) and isinstance(e.right, Num):
            return Num(e.left.value * e.right.value)
        return e
    if isinstance(e, Div):
        if _is_num(e.left, 0.0) and not _is_num(e.right, 0.0):
            return ZERO
        if _is_num(e.right, 1.0):
            return e.left
        if isinstance(e.left, Num) and isinstance(e.right, Num) and e.right.value != 0.0:
            return Num(e.left.value / e.right.value)
        return e
    if isinstance(e, Pow):
        if _is_num(e.exponent, 1.0):
            return e.base
        if _is_num(e.exponent, 0.0):
            return ONE
        if isinstance(e.base, Num) and isinstance(e.exponent, Num):
            try:
                return Num(evaluate(e, {}))
            except ExpressionError:
                return e
        # (b^m)^n with integral m, n collapses to b^(m n)
        if (
            isinstance(e.base, Pow)
            and isinstance(e.base.exponent, Num)
            and isinstance(e.exponent, Num)
            and _is_integral(e.base.exponent.value)
            and _is_integral(e.exponent.value)
        ):
            return Pow(e.base.base, Num(e.base.exponent.value * e.exponent.value))
        return e
    if isinstance(e, Call) and isinstance(e.arg, Num):
        try:
            return Num(evaluate(e, {}))
        except ExpressionError:
            return e
    return e


def simplify(e: Expr) -> Expr:
    """Apply local rewrite rules bottom-up until a fixpoint.

    Only value-preserving rules are used (zero and unit elimination,
    constant folding, power collapsing); the result evaluates identically
    to the input at every binding in the input's domain.
    """
    for _ in range(16):
        if isinstance(e, Neg):
            rebuilt: Expr = Neg(simplify(e.arg))
        elif isinstance(e, Call):
            rebuilt = Call(e.func, simplify(e.arg))
        elif isinstance(e, Add):
            rebuilt = Add(simplify(e.left), simplify(e.right))
        elif isinstance(e, Sub):
            rebuilt = Sub(simplify(e.left), simplify(e.right))
        elif isinstance(e, Mul):
            rebuilt = Mul(simplify(e.left), simplify(e.right))
        elif isinstance(e, Div):
            rebuilt = Div(simplify(e.left), simplify(e.right))
        elif isinstance(e, Pow):
            rebuilt = Pow(simplify(e.base), simplify(e.exponent))
        else:
            rebuilt = e
        reduced = _simplify_node(rebuilt)
        if reduced == e:
            return reduced
        e = reduced
    return e


# -- finite-difference oracle ------------------------------------------------

_EPS = sys.float_info.epsilon

_STENCILS: dict[int, tuple[tuple[float, float], ...]] = {
    # order -> ((offset multiple of h, coefficient multiple of 1/h^order), ...)
    1: ((1.0, 0.5), (-1.0, -0.5)),
    2: ((1.0, 1.0), (0.0, -2.0), (-1.0, 1.0)),
    3: ((2.0, 0.5), (1.0, -1.0), (-1.0, 1.0), (-2.0, -0.5)),
}


# step ladder exponents: 4*base down to base/8, halving between levels
_LADDER = tuple(2.0 ** k for k in range(2, -4, -1))


def finite_difference(e: Expr, name: str, bindings: Bindings, order: int) -> float:
    """Numeric derivative of order 1..3 at the bound point.

    Central differences of base accuracy O(h^2) are combined with one
    Richardson level, giving O(h^4).  Steps run down a halving ladder
    around ``max(1, |x|) * eps^(1/(order+4))``; every level is judged by
    its worst disagreement with a neighboring level and the most
    self-consistent one is returned.  The ladder keeps both
    singularity-hugging points (truncation-limited) and flat or smooth
    directions (rounding-limited) well inside 1e-6 relative accuracy.
    Coarse levels whose stencils leave the expression's domain are
    skipped; :class:`DomainError` is raised only when no usable pair of
    levels remains.
    """
    if order not in _STENCILS:
        raise ValueError(f"unsupported derivative order {order}")
    point = float(bindings[name])
    scale = max(1.0, abs(point))
    base = scale * _EPS ** (1.0 / (order + 4))
    varied = dict(bindings)

    def stencil(step: float) -> float:
        total = 0.0
        for offset, coeff in _STENCILS[order]:
            varied[name] = point + offset * step
            total += coeff * evaluate(e, varied)
        return total / step ** order

    stencils: list[float] = []
    first_error: DomainError | None = None
    for factor in _LADDER:
        try:
            value = stencil(base * factor)
        except DomainError as exc:
            if stencils:
                # a finer level already worked, so a coarser one cannot;
                # treat any later failure as fatal
                raise
            first_error = exc
            continue
        stencils.append(value)
    if len(stencils) < 2:
        if first_error is not None:
            raise first_error
        raise DomainError("stencil does not fit inside the domain", e)

    extrapolated = [
        (4.0 * stencils[k + 1] - stencils[k]) / 3.0 for k in range(len(stencils) - 1)
    ]
    best = extrapolated[0]
    best_estimate = math.inf
    for k, value in enumerate(extrapolated):
        gaps = []
        if k > 0:
            gaps.append(abs(value - extrapolated[k - 1]))
        if k + 1 < len(extrapolated):
            gaps.append(abs(value - extrapolated[k + 1]))
        estimate = max(gaps)
        if estimate < best_estimate:
            best_estimate = estimate
            best = value
    return best


# -- residuals ---------------------------------------------------------------

def worst_residual(residuals: Iterable[float]) -> float:
    """Largest residual (0.0 for none), or NaN when any residual is NaN.

    Plain ``max`` keeps a NaN only when it comes first, which would let a
    check pass on a point where nothing could be computed.
    """
    values = list(residuals)
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=0.0)
