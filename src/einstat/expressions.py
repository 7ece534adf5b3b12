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

import contextvars
import functools
import math
import operator
import struct
import sys
from collections.abc import MutableMapping
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

EULER_GAMMA = 0.57721566490153286

#: Named constants admitted by the grammar.
CONSTANTS: dict[str, float] = {"pi": math.pi, "euler_gamma": EULER_GAMMA}

#: Function names admitted by the grammar.
FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos")

#: Inputs each per-input cache keeps (in ``geometry`` and ``jets``); a
#: long-lived process that meets new inputs holds the symbolic work of this
#: many at most.
CACHED_INPUTS = 64


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
    """Operator sugar shared by every node type.

    The operators build through the rewrite rules, as :func:`simplify`
    does: on simplified operands they return a simplified tree.  The
    node classes themselves build raw nodes, as :func:`parse` does.
    """

    __slots__ = ()

    def __add__(self, other):
        return _add(self, _coerce(other))

    def __radd__(self, other):
        return _add(_coerce(other), self)

    def __sub__(self, other):
        return _sub(self, _coerce(other))

    def __rsub__(self, other):
        return _sub(_coerce(other), self)

    def __mul__(self, other):
        return _mul(self, _coerce(other))

    def __rmul__(self, other):
        return _mul(_coerce(other), self)

    def __truediv__(self, other):
        return _div(self, _coerce(other))

    def __rtruediv__(self, other):
        return _div(_coerce(other), self)

    def __pow__(self, other):
        return _pow(self, _coerce(other))

    def __neg__(self):
        return _neg(self)

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


def _operands(node: Expr) -> tuple:
    """The node's operand trees, in order; none for a leaf."""
    if isinstance(node, (Add, Sub, Mul, Div)):
        return (node.left, node.right)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base, node.exponent)
    return ()


def _op(node: Expr):
    """The key of the node's operator in the tables of instructions and
    rules: its type, or its function name for a ``Call``."""
    return node.func if isinstance(node, Call) else type(node)


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

#: Symbol and precedence of each infix operator.
_INFIX: dict = {
    Add: (" + ", _ADDSUB),
    Sub: (" - ", _ADDSUB),
    Mul: ("*", _MULDIV),
    Div: ("/", _MULDIV),
    Pow: ("^", _POW),
}


def _prec(e: Expr) -> int:
    if type(e) in _INFIX:
        return _INFIX[type(e)][1]
    if isinstance(e, Neg) or (isinstance(e, Num) and math.copysign(1.0, e.value) < 0):
        return _NEG
    return _ATOM


def _fmt_number(value: float) -> str:
    if math.isfinite(value) and value == int(value) and abs(value) < 1e16:
        return f"{value:.0f}"  # "-0" for -0.0, which _prec parenthesizes as negative
    return repr(value)


def _render(e: Expr, min_prec: int) -> str:
    text: str
    if isinstance(e, Num):
        text = _fmt_number(e.value)
    elif isinstance(e, (Const, Var)):
        text = e.name
    elif isinstance(e, Neg):
        text = "-" + _render(e.arg, _NEG)
    elif isinstance(e, Call):
        return e.func + "(" + _render(e.arg, 0) + ")"
    else:
        symbol, prec = _INFIX[type(e)]
        left, right = _operands(e)
        if isinstance(e, Pow):
            # right-associative, and the exponent is a grammar "unary", so
            # Neg needs no parentheses there
            text = _render(left, _ATOM) + symbol + _render(right, _NEG)
        else:
            text = _render(left, prec) + symbol + _render(right, prec + 1)
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
        else:
            stack.extend(_operands(node))
    return frozenset(out)


#: A number's bits, which key it in a tape and in an intern table, so 0.0
#: and -0.0 stay apart.
_bits = struct.Struct("<d").pack


def _is_integral(value: float) -> bool:
    return abs(value) < 1e15 and value == int(value)


def _tape_pow(base: float, expo: float) -> float:
    """``base ** expo`` in the real domain: Python gives a complex number
    for a negative base with a non-integral exponent, and infinity for
    ``0.0 ** -inf``."""
    if base < 0.0 and not _is_integral(expo):
        raise ValueError
    if base == 0.0 and expo < 0.0:
        raise ZeroDivisionError
    return base ** expo


#: Instruction per operator, keyed by node type or function name; the tape
#: runs them, and so do the tree walk and constant folding (:func:`_apply`).
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

#: :class:`DomainError` message per operator and the exception its
#: instruction raises.
_DOMAIN_MESSAGES: dict = {
    (Div, ZeroDivisionError): "division by zero",
    (Pow, ZeroDivisionError): "zero raised to a negative power",
    (Pow, ValueError): "negative base with non-integer exponent",
    (Pow, OverflowError): "overflow",
    ("exp", OverflowError): "overflow in exp",
    ("ln", ValueError): "ln of non-positive value",
    ("sqrt", ValueError): "sqrt of negative value",
    ("sin", ValueError): "sin of infinite value",
    ("cos", ValueError): "cos of infinite value",
}


def _apply(e: Expr, operands: Sequence[float]) -> float:
    """``e``'s instruction at its operands' values.  An exception it
    raises is the :class:`DomainError` of ``_DOMAIN_MESSAGES``, and a
    non-finite value of finite operands an overflow: ``inf - inf`` would
    make it a NaN that no check downstream can tell from a computed one."""
    op = _op(e)
    fn = _TAPE_OPS.get(op)
    if fn is None:
        raise UnknownFunctionError(f"unknown function '{op}'", 0)
    try:
        value = fn(*operands)
    except (ArithmeticError, ValueError) as exc:
        raise DomainError(_DOMAIN_MESSAGES[op, type(exc)], e) from None
    if math.isfinite(value) or not all(map(math.isfinite, operands)):
        return value
    raise DomainError("overflow", e)


def evaluate(e: Expr, bindings: Bindings) -> float:
    """Evaluate to an IEEE double, operands left to right.

    Every free variable must be bound (:class:`UnboundVariableError`
    otherwise).  Arguments outside a function's real domain, division by
    zero, and overflow raise :class:`DomainError` carrying the offending
    subtree.
    """
    return _evaluate_all((e,), bindings)[0]


def _evaluate_all(exprs: Iterable[Expr], bindings: Bindings) -> list[float]:
    """:func:`evaluate` of each tree, in one fold over the family: a
    subtree shared by reference is evaluated once, and the first error in
    the order of the roots, then of the operands, is raised."""

    def value(node: Expr, operands: list[float]) -> float:
        if operands:
            return _apply(node, operands)
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            try:
                return float(bindings[node.name])
            except KeyError:
                raise UnboundVariableError(node.name) from None
        if isinstance(node, Const):
            try:
                return CONSTANTS[node.name]
            except KeyError:
                raise UnknownConstantError(f"unknown named constant '{node.name}'") from None
        return _apply(node, operands)  # not an expression: raises, naming its type

    return _post_order(exprs, value)


# -- compiled evaluation -----------------------------------------------------

def _undefined(*operands: float) -> float:
    """The instruction of a name the grammar lacks: the walk reports it."""
    raise LookupError


def _post_order(roots: Iterable[Expr], visit: Callable[[Expr, list], object]) -> list:
    """Fold ``visit(node, operand_results)`` over the trees bottom-up, and
    return the result at each root.

    Nodes are visited in post-order, root by root and operands left to
    right.  The walk is iterative, so depth is bounded only by memory, and
    it remembers nodes by identity: a subtree shared by reference is
    visited once, even across roots.
    """
    done: dict[int, object] = {}
    results = []
    for root in roots:
        stack: list = [root]
        while stack:
            item = stack.pop()
            if type(item) is tuple:  # a revisit: every operand is done
                node, children = item
                done[id(node)] = visit(node, [done[id(c)] for c in children])
            elif id(item) not in done:
                children = _operands(item)
                if children:
                    # revisit the node once everything pushed above it is done
                    stack.append((item, children))
                    stack.extend(children[::-1])
                else:
                    done[id(item)] = visit(item, [])
        results.append(done[id(root)])
    return results


def compile_family(exprs: Sequence[Expr]) -> Callable[[Bindings], tuple[float, ...]]:
    """Compile expressions into one instruction tape with shared subexpressions.

    The returned callable maps bindings to the same floats, bit for bit, as
    ``tuple(evaluate(e, bindings) for e in exprs)``: every distinct
    subexpression gets one slot and is computed once, in dependency order,
    with the instructions :func:`evaluate` runs.  When an instruction
    raises (a function or constant the grammar does not name always does)
    or any slot ends non-finite (which is where :func:`evaluate` may have
    raised on an overflow), the call evaluates the family again by one tree
    walk, so every error and the subtree it carries are the walk's own.

    Its ``columns`` attribute evaluates the family over a whole set of
    points (see :func:`_column_run`); nothing is built for that until it
    is called.
    """
    exprs = tuple(exprs)
    # slots in dependency order, one per structural key, so equal subtrees
    # that are distinct objects share one
    slots: dict[tuple, int] = {}
    template: list = []
    names = []
    tape = []

    def number(node: Expr, operands: list[int]) -> int:
        value = None
        if operands:
            key = (_op(node), *operands)
        elif isinstance(node, Num):  # keyed by its bits, so 0.0 and -0.0 stay apart
            key, value = (Num, _bits(node.value)), node.value
        elif isinstance(node, Var):
            key = (Var, node.name)
        else:
            key, value = (Const, node.name), CONSTANTS.get(node.name)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(template)
            template.append(value)
            if isinstance(node, Var):
                names.append((slot, node.name))
            elif value is None:  # an operator, or a constant the grammar lacks
                second = operands[1] if len(operands) > 1 else -1
                fn = _TAPE_OPS.get(key[0], _undefined)
                exponent = template[second] if fn is _tape_pow else None
                if exponent is not None and _is_integral(exponent):
                    # with a constant integral exponent, ``**`` raises and
                    # returns what _tape_pow does: no complex result to refuse
                    fn = operator.pow
                tape.append((slot, fn, operands[0] if operands else slot, second))
        return slot

    roots = _post_order(exprs, number)
    tape = tuple(tape)
    leaves = [slot for slot, value in enumerate(template) if value is not None]
    leaves = np.array(leaves + [slot for slot, _ in names], dtype=np.intp)

    def run(bindings: Bindings) -> tuple[float, ...]:
        try:
            values = template[:]
            for slot, name in names:
                values[slot] = float(bindings[name])
            for slot, fn, a, b in tape:
                values[slot] = fn(values[a]) if b < 0 else fn(values[a], values[b])
            # the sum is finite only when every slot is; a walk that raises
            # no overflow returns these same values
            if math.isfinite(sum(values)):
                return tuple([values[r] for r in roots])
        except Exception:
            pass
        return tuple(_evaluate_all(exprs, bindings))

    # a partial of a module function: the tape holds no reference to itself,
    # so it is freed as soon as it is dropped
    run.columns = functools.partial(_column_run, exprs, (template, names, tape, roots, leaves))
    return run


#: Column instruction for each scalar one that numpy computes with the same
#: IEEE operation.  numpy's ``exp``, ``log`` and ``**`` differ from ``math``
#: in the last bits, so those, and ``sin``/``cos``, run element by element.
_COLUMN_UFUNCS: dict = {
    operator.neg: np.negative,
    operator.add: np.add,
    operator.sub: np.subtract,
    operator.mul: np.multiply,
    operator.truediv: np.divide,
    math.sqrt: np.sqrt,
}


def _elementwise(fn: Callable, *args: list) -> list:
    """``fn`` at each row of the argument lists, NaN where it raises."""
    try:
        return list(map(fn, *args))
    except Exception:
        out = []
        for row in zip(*args):
            try:
                out.append(fn(*row))
            except Exception:
                out.append(math.nan)
        return out


class RowErrors(MutableMapping):
    """The :class:`ExpressionError` of each failed row of a column run
    (:func:`_column_run`), keyed by row; the run adds them in row order.

    A row the run proves to fail is a key at once, and its error, the tree
    walk's at that row, is built the first time it is read, and kept: a
    caller that reads only the keys, or only the first error, walks no
    other row.  The walk reads the run's columns then, so they must not
    change in between.
    """

    def __init__(self, exprs: tuple[Expr, ...], columns: Mapping[str, np.ndarray]):
        self._exprs = exprs
        self._columns = dict(columns)
        self._errors: dict[int, ExpressionError | None] = {}  # None: not built yet

    def _defer(self, row: int) -> None:
        self._errors[row] = None

    def _walk(self, row: int) -> list[float] | None:
        """The tree walk's values at the row, or None once its error is kept."""
        try:
            return _evaluate_all(self._exprs, {n: c[row] for n, c in self._columns.items()})
        except ExpressionError as exc:
            # kept without traceback and context: both reach this frame, and
            # so this map, a cycle that would hold the columns until the
            # collector's oldest generation runs
            exc.__traceback__ = exc.__context__ = None
            self._errors[row] = exc
            return None

    def __getitem__(self, row: int) -> ExpressionError:
        error = self._errors[row]
        if error is None:
            if self._walk(row) is not None:
                raise RuntimeError(f"row {row} was proved to fail, yet evaluates")
            error = self._errors[row]
        return error

    def __setitem__(self, row: int, error: ExpressionError) -> None:
        self._errors[row] = error

    def __delitem__(self, row: int) -> None:
        del self._errors[row]

    def __contains__(self, row) -> bool:
        return row in self._errors

    def __iter__(self):
        return iter(self._errors)

    def __len__(self) -> int:
        return len(self._errors)


def _column_run(
    exprs: tuple[Expr, ...], program: tuple, columns: Mapping[str, np.ndarray]
) -> tuple[np.ndarray, RowErrors]:
    """The values of ``exprs`` at every row of ``columns`` (one array per
    variable, all of one length), as a ``(len(exprs), rows)`` array, and
    the :class:`RowErrors` of the rows where :func:`evaluate` raises.

    ``program`` is the family's tape as ``(template, names, instructions,
    roots, leaves)``, where ``leaves`` are the slots of its constants and
    inputs.  Each instruction runs once over the whole column: as a numpy
    ufunc where numpy computes the same IEEE operation, or element by
    element through the scalar instruction (NaN where it raises).

    A row where every slot ends finite holds the scalar loop's values.  A
    row where one does not, but every leaf is finite, fails, and is only
    marked: the walk runs the same instructions, so the first slot in its
    order that ends non-finite is an instruction of finite operands that
    raises, or whose non-finite result :func:`_apply` raises on.  The walk
    evaluates every other row where a slot ends non-finite, as it may
    return values there.  So each value and each error is the scalar loop's
    own.  A failed row holds NaN.
    """
    template, names, tape, roots, leaves = program
    rows = len(next(iter(columns.values()), ()))
    values = np.empty((len(template), rows))
    slot_values = list(values)
    try:
        for slot, name in names:
            slot_values[slot][:] = columns[name]
    except KeyError:  # an unbound name: no leaf is finite, so the walk takes every row
        values[:] = math.nan
        suspect = np.arange(rows)
    else:
        for slot, value in enumerate(template):
            if value is not None:
                slot_values[slot][:] = value
        with np.errstate(all="ignore"):
            for slot, fn, a, b in tape:
                ufunc = _COLUMN_UFUNCS.get(fn)
                if ufunc is None:
                    args = [slot_values[a].tolist()]
                    if b >= 0:
                        args.append(slot_values[b].tolist())
                    slot_values[slot][:] = _elementwise(fn, *args)
                elif b < 0:
                    ufunc(slot_values[a], out=slot_values[slot])
                else:
                    ufunc(slot_values[a], slot_values[b], out=slot_values[slot])
            # the sum is finite only where every slot is
            suspect = np.flatnonzero(~np.isfinite(values.sum(axis=0)))
    out = values[list(roots)]
    errors = RowErrors(exprs, columns)
    if suspect.size:
        finite = np.isfinite(values[:, suspect])
        nonfinite = ~finite.all(axis=0)
        proved = finite[leaves][:, nonfinite].all(axis=0).tolist()
        failed = suspect[nonfinite].tolist()
        out[:, failed] = math.nan
        for row, known in zip(failed, proved):
            if known:
                errors._defer(row)
            else:
                walked = errors._walk(row)
                if walked is not None:
                    out[:, row] = walked
    return out, errors


def substitute(e: Expr, replacements: Mapping[str, Expr]) -> Expr:
    """Replace every variable named in ``replacements`` by its tree.

    One iterative pass rebuilds every other node as it was, without the
    rewrite rules; a node none of whose operands changed is returned itself.
    """

    def rebuild(node: Expr, operands: list) -> Expr:
        if not operands:
            return replacements.get(node.name, node) if isinstance(node, Var) else node
        if all(map(operator.is_, operands, _operands(node))):
            return node
        if isinstance(node, Call):
            return Call(node.func, *operands)
        return type(node)(*operands)

    return _post_order((e,), rebuild)[0]


# -- rewrite rules -----------------------------------------------------------
#
# One smart constructor per node type holds every rewrite rule, and
# differentiate, simplify and the operators build through them.  Each
# returns an operand, a number, or a node none of whose operands can be
# rewritten further, so one bottom-up pass through them reaches a fixpoint.

#: The intern table of the running :class:`Differentiator`, or None outside
#: one, per thread; only ``Differentiator.__call__`` sets it, and resets it.
_interned: contextvars.ContextVar[dict | None] = contextvars.ContextVar("interned", default=None)
_active_table = _interned.get


def _node(kind: type, *fields) -> Expr:
    """``kind(*fields)``, or, while a :class:`Differentiator` runs, the
    node of its intern table with the same type and fields by identity."""
    table = _active_table()
    if table is None:
        return kind(*fields)
    key = (kind, *map(id, fields))
    node = table.get(key)
    if node is None:
        node = table[key] = kind(*fields)
    return node


def _num(value: float) -> Num:
    """``Num(value)``, or the number of the running intern table with the
    same bits, as :func:`_node`."""
    table = _active_table()
    if table is None:
        return Num(value)
    key = _bits(value)  # bytes: never equal to a node's tuple key
    node = table.get(key)
    if node is None:
        node = table[key] = Num(value)
    return node


def _is_num(e: Expr, value: float) -> bool:
    return isinstance(e, Num) and e.value == value


def _fold(e: Expr) -> Expr:
    """``e``, whose operands are numbers, as a number unless it cannot be
    evaluated."""
    try:
        return _num(_apply(e, [o.value for o in _operands(e)]))
    except ExpressionError:
        return e


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold(_node(Add, a, b))
    return _node(Add, a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold(_node(Sub, a, b))
    return _node(Sub, a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold(_node(Mul, a, b))
    return _node(Mul, a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return ZERO
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold(_node(Div, a, b))
    return _node(Div, a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return _num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return _node(Neg, a)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return ONE
    if isinstance(a, Num) and isinstance(b, Num):
        return _fold(_node(Pow, a, b))
    # (c^m)^n with integral m, n and m n collapses to c^(m n); a product
    # past the integral range would make a negative c leave the domain
    if (
        isinstance(a, Pow)
        and isinstance(a.exponent, Num)
        and isinstance(b, Num)
        and _is_integral(a.exponent.value)
        and _is_integral(b.value)
        and _is_integral(a.exponent.value * b.value)
    ):
        return _pow(a.base, _num(a.exponent.value * b.value))
    return _node(Pow, a, b)


def _call(func: str, arg: Expr) -> Expr:
    if isinstance(arg, Num):
        return _fold(_node(Call, func, arg))
    return _node(Call, func, arg)


# -- differentiation ---------------------------------------------------------

def _power_rule(e: Pow, name: str, memo: dict) -> Expr:
    """For a constant exponent the power rule (valid for negative bases),
    otherwise the logarithmic form ``b^p (p' ln b + p b'/b)``."""
    b, p = e.base, e.exponent
    db = _derive(b, name, memo)
    if isinstance(p, Num):
        return _mul(_mul(p, _pow(b, _num(p.value - 1.0))), db)
    if isinstance(p, Const):
        return _mul(_mul(p, _pow(b, _sub(p, ONE))), db)
    dp = _derive(p, name, memo)
    return _mul(e, _add(_mul(dp, _call("ln", b)), _div(_mul(p, db), b)))


#: Derivative rule per operator, keyed as ``_TAPE_OPS``: the node's
#: derivative by a variable, differentiating the operands it needs by
#: :func:`_derive` through the memo it is given.
_DERIVATIVES: dict = {
    Neg: lambda e, v, m: _neg(_derive(e.arg, v, m)),
    Add: lambda e, v, m: _add(_derive(e.left, v, m), _derive(e.right, v, m)),
    Sub: lambda e, v, m: _sub(_derive(e.left, v, m), _derive(e.right, v, m)),
    Mul: lambda e, v, m: _add(
        _mul(_derive(e.left, v, m), e.right), _mul(e.left, _derive(e.right, v, m))
    ),
    Div: lambda e, v, m: _div(
        _sub(_mul(_derive(e.left, v, m), e.right), _mul(e.left, _derive(e.right, v, m))),
        _pow(e.right, _num(2.0)),
    ),
    Pow: _power_rule,
    "exp": lambda e, v, m: _mul(e, _derive(e.arg, v, m)),
    "ln": lambda e, v, m: _div(_derive(e.arg, v, m), e.arg),
    "sqrt": lambda e, v, m: _div(_derive(e.arg, v, m), _mul(_num(2.0), e)),
    "sin": lambda e, v, m: _mul(_call("cos", e.arg), _derive(e.arg, v, m)),
    "cos": lambda e, v, m: _neg(_mul(_call("sin", e.arg), _derive(e.arg, v, m))),
}


class Differentiator:
    """:func:`differentiate` over a family of trees, with one memo: each
    distinct operator node (by identity) is differentiated once per
    variable, however many trees or derivatives share it.

    A derivative reuses its input's subtrees by reference, so derivatives
    are DAGs, and a walk without the memo would differentiate a subtree
    once per path to it.  The memo keeps every node it has differentiated,
    so no id is reused while it lives.

    Beside the memo it keeps an intern table, for as long as it lives.
    While one of its calls runs, and only then, the smart constructors
    return the node the table holds for the same type and operand objects
    (a number by its bits), and add the nodes it lacks.  So a structure
    the rules build again and again, such as ``Num(2.0)`` or ``b^2``, is
    one object over the family, which the memo and :func:`compile_family`'s
    walk each meet once.  The table holds its nodes, and they their
    operands, so no id in a key is reused while it lives.  Neither the
    memo nor the table refers back to the differentiator, so it makes no
    reference cycle and is freed as soon as its builder drops it.
    """

    __slots__ = ("_memos", "_table")

    def __init__(self) -> None:
        # per variable: id(node) -> (node, derivative)
        self._memos: dict[str, dict[int, tuple[Expr, Expr]]] = {}
        # (type, id of each field) -> node, and a number's bits -> number
        self._table: dict = {}

    def __call__(self, e: Expr, name: str) -> Expr:
        token = _interned.set(self._table)
        try:
            return _derive(e, name, self._memos.setdefault(name, {}))
        finally:
            _interned.reset(token)


def _derive(e: Expr, name: str, memo: dict) -> Expr:
    """``e``'s derivative by ``name``, through ``memo``, the
    :class:`Differentiator`'s memo of ``name``."""
    kind = type(e)  # the node types are final: no subclass to test for
    if kind is Var:
        return ONE if e.name == name else ZERO
    if kind is Num or kind is Const:
        return ZERO
    done = memo.get(id(e))
    if done is not None:
        return done[1]
    rule = _DERIVATIVES.get(_op(e))
    if rule is None:
        if isinstance(e, Call):
            raise UnknownFunctionError(f"unknown function '{e.func}'", 0)
        raise TypeError(f"not an expression: {e!r}")
    result = rule(e, name, memo)
    memo[id(e)] = (e, result)
    return result


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to variable ``name``.

    The result is built through the rewrite rules of :func:`simplify`,
    one node at a time, from new nodes and subtrees of ``e``.  So the
    derivative of a simplified tree is simplified: :func:`simplify` would
    return an equal tree, and it need not be walked again.  An operator
    node's derivative is its rule in ``_DERIVATIVES``.

    It is one call of a fresh :class:`Differentiator`, so each distinct
    node of ``e`` is differentiated once per call; a builder of a family
    of derivatives shares one :class:`Differentiator` over the family.
    Either way the result is a pure function of the structure of ``e``.
    """
    return Differentiator()(e, name)


# -- simplification ----------------------------------------------------------

#: Smart constructor per operator node type, except ``Call``'s.
_BUILD: dict = {Neg: _neg, Add: _add, Sub: _sub, Mul: _mul, Div: _div, Pow: _pow}


def _rebuild(node: Expr, operands: list) -> Expr:
    if isinstance(node, Call):
        return _call(node.func, *operands)
    build = _BUILD.get(type(node))
    return node if build is None else build(*operands)


def simplify(e: Expr) -> Expr:
    """Rebuild ``e`` bottom-up through the rewrite rules, in one pass.

    The rules (zero and unit elimination, constant folding, power
    collapsing) are the smart constructors :func:`differentiate` builds
    with.  An iterative walk rebuilds each distinct node object once, from
    its simplified operands, so depth costs no recursion.  Wherever ``e``
    evaluates to a finite number, the result evaluates to the same number,
    up to the rounding of a collapsed power.

    Run it where a tree enters from outside: :func:`differentiate` of a
    simplified tree, and any tree the operators build from simplified
    trees, is already simplified.
    """
    return _post_order((e,), _rebuild)[0]


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
