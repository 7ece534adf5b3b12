"""Jet-space calculus and point-symmetry verification.

Jet coordinates are the independent variables ``t, x``, the dependent
variable ``u``, and derivative coordinates named ``u_t``, ``u_x``,
``u_tt``, ``u_tx``, ... with index letters sorted t-before-x, up to
:data:`MAX_JET_ORDER`.

A point generator ``X = xi_t d/dt + xi_x d/dx + eta d/du`` has the
characteristic ``Q = eta - xi_t u_t - xi_x u_x``; its prolongation
carries the coefficient ``D_J(Q) + xi_t u_{J,t} + xi_x u_{J,x}`` on the
``u_J`` slot.  ``X`` is a symmetry of ``F = 0`` exactly when the
prolonged action of ``X`` on ``F`` vanishes on the solution set.  The
on-shell check here is numeric: sample a jet point, solve ``F = 0`` for
the leading coordinate (``F`` must be affine in it), substitute, and
evaluate the prolonged action.  Coordinates of order above ``F``'s
cancel between the two halves of the coefficient formula, so their
sampled values never matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Callable, Union

import numpy as np

from .expressions import (
    CACHED_INPUTS,
    Expr,
    ExpressionError,
    Num,
    Var,
    compile_family,
    differentiate,
    evaluate,
    free_variables,
    parse,
    simplify,
    substitute,
    worst_residual,
)

MAX_JET_ORDER = 4

MultiIndex = tuple[int, int]  # (t-count, x-count)


class OrderOverflowError(ExpressionError):
    pass


class UnsupportedEquationError(ExpressionError):
    pass


def jet_name(index: MultiIndex) -> str:
    jt, jx = index
    if jt == 0 and jx == 0:
        return "u"
    return "u_" + "t" * jt + "x" * jx


def parse_jet_name(name: str) -> MultiIndex | None:
    """Multi-index of a jet coordinate name, or None for other names."""
    if name == "u":
        return (0, 0)
    if not name.startswith("u_"):
        return None
    suffix = name[2:]
    jt = 0
    while jt < len(suffix) and suffix[jt] == "t":
        jt += 1
    jx = len(suffix) - jt
    if suffix != "t" * jt + "x" * jx or not suffix:
        return None
    return (jt, jx)


def multi_indices(order: int) -> list[MultiIndex]:
    """All multi-indices with 1 <= |J| <= order, by total order then t-count."""
    out = []
    for total in range(1, order + 1):
        for jt in range(total, -1, -1):
            out.append((jt, total - jt))
    return out


def jet_variables(order: int) -> list[str]:
    return ["t", "x", "u"] + [jet_name(j) for j in multi_indices(order)]


def validate_jet_expression(e: Expr, max_order: int = MAX_JET_ORDER) -> int:
    """Check coordinate names and return the highest derivative order used."""
    top = 0
    for name in free_variables(e):
        if name in ("t", "x"):
            continue
        index = parse_jet_name(name)
        if index is None:
            raise UnsupportedEquationError(f"'{name}' is not a jet coordinate")
        order = index[0] + index[1]
        if order > max_order:
            raise OrderOverflowError(f"'{name}' exceeds jet order {max_order}")
        top = max(top, order)
    return top


def total_derivative(e: Expr, direction: str) -> Expr:
    """Total derivative: d/d(direction) plus transport through every
    jet coordinate present in the expression."""
    if direction not in ("t", "x"):
        raise ValueError("direction must be 't' or 'x'")
    result = differentiate(e, direction)
    for name in sorted(free_variables(e)):
        index = parse_jet_name(name)
        if index is None:
            continue
        bumped = (index[0] + 1, index[1]) if direction == "t" else (index[0], index[1] + 1)
        if bumped[0] + bumped[1] > MAX_JET_ORDER:
            raise OrderOverflowError(
                f"total derivative of '{name}' exceeds jet order {MAX_JET_ORDER}"
            )
        partial = differentiate(e, name)
        result = result + partial * Var(jet_name(bumped))
    return result


@dataclass(frozen=True)
class GeneratorField:
    """Point generator with coefficients depending on (t, x, u) only,
    simplified by :meth:`create` and kept so by the operators."""

    name: str
    xi_t: Expr
    xi_x: Expr
    eta: Expr

    def __post_init__(self):
        for label, coeff in (("xi_t", self.xi_t), ("xi_x", self.xi_x), ("eta", self.eta)):
            extra = free_variables(coeff) - {"t", "x", "u"}
            if extra:
                raise ValueError(
                    f"{label} of '{self.name}' depends on {sorted(extra)}; "
                    "point generators admit only t, x, u"
                )

    @classmethod
    def create(
        cls,
        name: str,
        xi_t: Union[str, Expr] = "0",
        xi_x: Union[str, Expr] = "0",
        eta: Union[str, Expr] = "0",
    ) -> "GeneratorField":
        def conv(v):
            return parse(v) if isinstance(v, str) else v

        given = cls(name, conv(xi_t), conv(xi_x), conv(eta))  # checks the names as given
        return cls(name, simplify(given.xi_t), simplify(given.xi_x), simplify(given.eta))

    def __add__(self, other: "GeneratorField") -> "GeneratorField":
        return GeneratorField(
            f"{self.name}+{other.name}",
            self.xi_t + other.xi_t,
            self.xi_x + other.xi_x,
            self.eta + other.eta,
        )

    def __rmul__(self, factor: float) -> "GeneratorField":
        c = Num(float(factor))
        return GeneratorField(
            f"{factor}*{self.name}",
            c * self.xi_t,
            c * self.xi_x,
            c * self.eta,
        )


def parse_generator(text: str, name: str = "custom") -> GeneratorField:
    """Parse ``"xi_t = ...; xi_x = ...; eta = ..."`` (parts optional)."""
    parts: dict[str, str] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"expected 'key = expression' in {chunk!r}")
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in ("xi_t", "xi_x", "eta"):
            raise ValueError(f"unknown generator coefficient '{key}'")
        parts[key] = value.strip()
    return GeneratorField.create(
        name, parts.get("xi_t", "0"), parts.get("xi_x", "0"), parts.get("eta", "0")
    )


def characteristic(gen: GeneratorField) -> Expr:
    """``Q = eta - xi_t u_t - xi_x u_x``."""
    return gen.eta - gen.xi_t * Var("u_t") - gen.xi_x * Var("u_x")


@dataclass
class ProlongedGenerator:
    base: GeneratorField
    order: int
    coefficients: dict[MultiIndex, Expr] = field(default_factory=dict)


def prolong(gen: GeneratorField, order: int) -> ProlongedGenerator:
    """Prolong the generator to the given jet order.

    The coefficient attached to ``u_J`` is ``D_J(Q) + xi_t u_{J,t} +
    xi_x u_{J,x}``; for ``|J| = 0`` it is ``eta``.
    """
    if order < 1 or order + 1 > MAX_JET_ORDER:
        raise ValueError(f"prolongation order must be within 1..{MAX_JET_ORDER - 1}")
    q = characteristic(gen)
    # D_J(Q) built incrementally: t-derivatives first, then x-derivatives
    dq: dict[MultiIndex, Expr] = {(0, 0): q}
    for jt in range(1, order + 1):
        dq[(jt, 0)] = total_derivative(dq[(jt - 1, 0)], "t")
    for jt in range(0, order + 1):
        for jx in range(1, order + 1 - jt):
            dq[(jt, jx)] = total_derivative(dq[(jt, jx - 1)], "x")
    coeffs: dict[MultiIndex, Expr] = {(0, 0): gen.eta}
    for index in multi_indices(order):
        jt, jx = index
        transport = gen.xi_t * Var(jet_name((jt + 1, jx))) + gen.xi_x * Var(
            jet_name((jt, jx + 1))
        )
        coeffs[index] = dq[index] + transport
    return ProlongedGenerator(gen, order, coeffs)


def prolonged_action_terms(gen: GeneratorField, equation: Expr) -> list[tuple[Expr, Expr]]:
    """Pairs (coefficient, dF/dcoordinate) whose products sum to pr X (F)."""
    order = validate_jet_expression(equation, MAX_JET_ORDER - 1)
    prolonged = prolong(gen, max(order, 1))
    equation = simplify(equation)
    terms: list[tuple[Expr, Expr]] = []
    for name, coeff in (("t", gen.xi_t), ("x", gen.xi_x)):
        partial = differentiate(equation, name)
        if partial != Num(0.0):
            terms.append((coeff, partial))
    for index, coeff in prolonged.coefficients.items():
        partial = differentiate(equation, jet_name(index))
        if partial != Num(0.0):
            terms.append((coeff, partial))
    return terms


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class LscReport:
    generator: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool


@dataclass
class InvarianceReport:
    generator: str
    samples: int
    evaluated: int
    skipped: int
    max_residual: float
    tolerance: float
    passed: bool


_SAMPLE_RANGE = (-2.0, 2.0)
_LEADING_FLOOR = 1e-3
_RESAMPLE_LIMIT = 64
#: the most samples whose solved columns are kept between calls: with
#: CACHED_INPUTS inputs, at most about 4.6 MB of lsc_check's columns
_KEPT_SAMPLES = 500


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: numpy's ``SeedSequence`` hash constants and the ``PCG64`` multiplier
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: the stream of ``lsc_check``'s affinity probe, ``[seed, 0xAFF1]``
_PROBE_STREAM = 0xAFF1


def _uint32_words(n: int) -> list[int]:
    """``n`` as numpy's ``SeedSequence`` reads an integer: its 32-bit words,
    least significant first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The ``SeedSequence`` hash constants of ``calls`` hashes in a row, as a
    column: hash ``k`` xors by row ``k`` and multiplies by row ``k + 1``."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _halves(values) -> np.ndarray:
    """128-bit integers as a ``(2, len)`` uint64 array: high halves, then low."""
    return np.array([[v >> 64 for v in values], [v & _MASK64 for v in values]], dtype=np.uint64)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``a * b`` of uint64 arrays,
    from the four products of their 32-bit limbs (no sum below overflows)."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    upper = a1 * b0 + (a0 * b0 >> 32)
    middle = (upper & _MASK32) + a0 * b1
    return a1 * b1 + (upper >> 32) + (middle >> 32)


def _mul(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a * b mod 2**128`` on (high, low) pairs of uint64 arrays."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    return _mulhi(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a + b mod 2**128`` on (high, low) pairs of uint64 arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


#: ``M**n`` and ``1 + M + ... + M**(n - 1)`` mod 2**128 for ``n`` below its
#: length, with ``M`` the ``PCG64`` multiplier, as a ``(2, 2, length)``
#: uint64 array of their (high, low) halves; built by :func:`_jumps` on
#: first use and rebuilt longer when a draw needs it.  It only ever holds
#: these constants, so no call sees another's effect but its speed.
_JUMP_TABLE = np.zeros((2, 2, 0), dtype=np.uint64)


def _jumps(first: int, end: int) -> np.ndarray:
    """The jump constants of ``n = first .. end - 1`` steps.

    A state ``s`` steps to ``M * s + inc``, so ``n`` steps take it to
    ``M**n * s + (1 + M + ... + M**(n - 1)) * inc``.  The table's length is
    a power of two, at least 256, so it is rebuilt a few times at most.
    """
    global _JUMP_TABLE
    if _JUMP_TABLE.shape[-1] < end:
        powers, sums = [], []
        power, total = 1, 0
        for _ in range(max(256, 1 << (end - 1).bit_length())):
            powers.append(power)
            sums.append(total)
            power, total = power * _PCG64_MULT & _MASK128, total + power & _MASK128
        _JUMP_TABLE = np.stack([_halves(powers), _halves(sums)])
    return _JUMP_TABLE[..., first:end]


def _stream_states(seed: int, indices) -> np.ndarray:
    """The ``PCG64`` ``(state, inc)`` of ``np.random.default_rng([seed, i])``
    for every ``i`` of ``indices``, as a ``(2, 2, len(indices))`` uint64
    array: the state's (high, low) halves, then the increment's.

    This is numpy's ``SeedSequence`` pool hashing, over a uint32 column per
    pool word, then ``pcg64_set_seed`` on each ``generate_state(4, uint64)``
    in 128-bit column arithmetic.  Each index must lie in ``[0, 2**32)``,
    one ``SeedSequence`` word, or ``ValueError`` is raised.
    """
    indices = np.asarray(indices)
    if indices.size and (
        indices.dtype.kind not in "iu" or indices.min() < 0 or indices.max() > _MASK32
    ):
        raise ValueError("stream indices must be integers in [0, 2**32)")
    pool_size = 4  # numpy's default
    words = _uint32_words(seed) + [indices.astype(np.uint32)]
    entropy = np.zeros((max(len(words), pool_size), indices.size), dtype=np.uint32)
    for row, word in enumerate(words):
        entropy[row] = word

    def hashmix(value, consts):
        value = (value ^ consts[:-1]) * consts[1:]
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    # numpy's mix_entropy, its hashes of one source word into the other pool
    # words done at once: a hash's constants depend only on its position
    consts = _hash_constants(_HASH_INIT_A, _HASH_MULT_A, pool_size * len(entropy))
    pool = hashmix(entropy[:pool_size], consts[:pool_size + 1])
    calls = pool_size
    for src in range(pool_size):
        others = [dst for dst in range(pool_size) if dst != src]
        pool[others] = mix(pool[others], hashmix(pool[src], consts[calls:calls + pool_size]))
        calls += pool_size - 1
    for word in entropy[pool_size:]:
        pool = mix(pool, hashmix(word, consts[calls:calls + pool_size + 1]))
        calls += pool_size
    # generate_state(4, uint64): eight words, cycling through the pool
    state = hashmix(pool[np.arange(8) % pool_size], _hash_constants(_HASH_INIT_B, _HASH_MULT_B, 8))
    # little-endian pairs of words make the four uint64 of the seed: the
    # initial state's halves, then the stream's
    state = state.astype(np.uint64)
    generated = state[0::2] | state[1::2] << 32
    initial = generated[:2]
    inc = (generated[2] << 1 | generated[3] >> 63, generated[3] << 1 | 1)
    # from state 0: step (to inc), add the initial state, step
    state = _add(_mul(_halves([_PCG64_MULT]), _add(inc, initial)), inc)
    return np.array([state, inc])


def _stream_block(streams: np.ndarray, first: int, count: int) -> np.ndarray:
    """Draws ``first .. first + count - 1`` of each stream of ``streams``
    (as :func:`_stream_states` gives them), one row per stream, as
    ``np.random.default_rng([seed, i]).uniform(-2.0, 2.0, first + count)[first:]``
    gives them, bit for bit.

    Draw ``k`` is the output of the state ``k + 1`` steps on, reached in one
    jump (:func:`_jumps`) for every (stream, draw) pair at once.  The
    output is ``PCG64``'s XSL-RR, the high half xor the low one rotated
    right by the state's top six bits, and the double is numpy's
    ``r = (out >> 11) * 2**-53`` scaled as ``uniform`` scales it,
    ``low + (high - low) * r``; ``high - low = 4`` is a power of two, so
    ``(out >> 11) * 2**-51`` is that product exactly.
    """
    power, total = _jumps(first + 1, first + count + 1)
    state, inc = streams[..., None]  # (stream, draw) grids by broadcasting
    high, low = _add(_mul(power, state), _mul(total, inc))
    out = high ^ low
    turn = high >> 58
    out = out >> turn | out << (64 - turn & 63)
    lower, upper = _SAMPLE_RANGE
    return lower + (out >> 11) * ((upper - lower) * 2.0**-53)


def _stream_draws(seed: int, indices, count: int) -> np.ndarray:
    """``np.random.default_rng([seed, i]).uniform(-2.0, 2.0, count)`` for
    every ``i`` of ``indices``, one row each, bit for bit, computed in
    closed form over the whole (stream, draw) grid: no ``numpy.random``
    generator is built."""
    return _stream_block(_stream_states(seed, indices), 0, count)


def _relative_actions(values: np.ndarray) -> np.ndarray:
    """``|sum c*p| / max(1, sum |c*p|)`` at every column, over the row pairs
    ``c, p``, summed in pair order."""
    total = np.zeros(values.shape[1])
    magnitude = np.zeros(values.shape[1])
    with np.errstate(all="ignore"):
        for coeff, partial in zip(values[::2], values[1::2]):
            product = coeff * partial
            total += product
            magnitude += np.abs(product)
        # fmax, as Python's max(1.0, nan) is 1.0
        return np.abs(total) / np.fmax(1.0, magnitude)


def _check_samples(samples: int) -> None:
    if not isinstance(samples, int) or samples < 1:
        raise ValueError(f"samples must be a positive integer (got {samples!r})")


def _plan_cache(build: Callable) -> Callable:
    """``build`` behind an ``lru_cache`` of :data:`CACHED_INPUTS` inputs,
    keyed by the arguments and their ``repr``.

    ``Num(0.0) == Num(-0.0)``, but a plan built from one zero names it in
    its errors: after ``eta = ln(-0)``, ``eta = ln(0)`` would raise
    "division by zero in '0/-0'" from the first one's plan.
    """
    cache = lru_cache(maxsize=CACHED_INPUTS)(lambda text, *args: build(*args))

    @wraps(build)
    def cached(*args):
        return cache(repr(args), *args)

    cached.cache_info, cached.cache_clear = cache.cache_info, cache.cache_clear
    return cached


def _sample_cache(build: Callable) -> Callable:
    """``build(..., samples, seed)`` behind :func:`_plan_cache` for at most
    :data:`_KEPT_SAMPLES` samples; a larger set is built on every call, so
    that none stays resident."""
    kept = _plan_cache(build)

    @wraps(build)
    def cached(*args):
        return (kept if args[-2] <= _KEPT_SAMPLES else build)(*args)

    cached.cache_info, cached.cache_clear = kept.cache_info, kept.cache_clear
    return cached


@_plan_cache
def _leading_plan(equation: Expr, leading: str) -> tuple[Expr, Expr, Callable, Callable]:
    """The simplified equation, its second derivative by the leading
    coordinate (zero when it is affine there), and the tapes of the leading
    coefficient and of the base, the equation at ``leading = 0``."""
    equation = simplify(equation)
    coeff_expr = differentiate(equation, leading)
    second = differentiate(coeff_expr, leading)
    base = substitute(equation, {leading: Num(0.0)})
    return equation, second, compile_family([coeff_expr]), compile_family([base])


@_plan_cache
def _action_tape(gen: GeneratorField, equation: Expr) -> Callable:
    """The tape of the :func:`prolonged_action_terms` pairs, coefficient
    then partial."""
    return compile_family([e for pair in prolonged_action_terms(gen, equation) for e in pair])


@_plan_cache
def _invariance_tape(gen: GeneratorField, function: Expr) -> Callable:
    """The tape of the pairs (coefficient, partial of the function) whose
    products sum to ``X(f)``, then of the function itself: a point where
    ``f`` is undefined is no evidence, though its partials may be defined
    there (``ln(-1) + t``)."""
    extra = free_variables(function) - {"t", "x", "u"}
    if extra:
        raise ValueError(f"invariant candidate depends on {sorted(extra)}")
    function = simplify(function)
    return compile_family(
        [
            gen.xi_t, differentiate(function, "t"),
            gen.xi_x, differentiate(function, "x"),
            gen.eta, differentiate(function, "u"),
            function,
        ]
    )


@_sample_cache
def _on_shell_samples(
    equation: Expr, leading: str, samples: int, seed: int
) -> tuple[Expr, bool, dict[str, np.ndarray], int, ExpressionError | None]:
    """What :func:`lsc_check` computes before any generator enters: the
    simplified equation; whether the affinity probe finds it affine; and, if
    so, the jet columns of the samples before the first one whose leading
    coefficient fails, with the leading coordinate solved (read-only); and
    the first failing sample with its error (the base tape's, its leading
    coefficient's, or exhaustion), or ``samples`` and None."""
    equation, second, leading_tape, base_tape = _leading_plan(equation, leading)
    names = jet_variables(MAX_JET_ORDER)
    width = len(names)
    # the samples' streams, then the probe's, derived together
    streams = _stream_states(seed, np.append(np.arange(samples), _PROBE_STREAM))
    # eight points of the probe's stream probe that F is affine
    probe = _stream_block(streams[..., samples:], 0, 8 * width)
    for point in probe.reshape(8, width).tolist():
        if abs(evaluate(second, dict(zip(names, point)))) > 1e-9:
            return equation, False, {}, samples, None

    draws = np.empty((samples, width))
    a = np.empty(samples)
    failures = {}  # failed sample -> the errors of its draw and its row there
    pending = np.arange(samples)
    for depth in range(_RESAMPLE_LIMIT):
        # draw number depth of each stream still pending, and only that one
        draws[pending] = _stream_block(streams[..., pending], width * depth, width)
        values, errors = leading_tape.columns(dict(zip(names, draws[pending].T)))
        a[pending] = values[0]
        failures.update((int(pending[j]), (errors, j)) for j in errors)
        redraw = ~(np.abs(values[0]) >= _LEADING_FLOOR)
        redraw[list(errors)] = False
        pending = pending[redraw]
        if not pending.size:
            break
    # samples past the first failed one are never reached
    first = min([*failures, *pending.tolist()], default=samples)
    draws.flags.writeable = False
    columns = dict(zip(names, draws[:first].T))
    (b0,), base_errors = base_tape.columns(columns)
    with np.errstate(all="ignore"):
        columns[leading] = -b0 / a[:first]
    columns[leading].flags.writeable = False
    if base_errors:  # each before the first failed leading coefficient
        first = min(base_errors)
        failure = base_errors[first]
    elif first in failures:
        errors, j = failures[first]
        failure = errors[j]
    elif first < samples:
        failure = UnsupportedEquationError(
            f"leading coefficient stayed below {_LEADING_FLOOR} while resampling"
        )
    else:
        failure = None
    return equation, True, columns, first, failure


def _fresh(exc: Exception) -> Exception:
    """A new error with a kept one's type, arguments and attributes.  The
    kept one is never raised itself, so that no raise carries the
    traceback, context or notes of another."""
    fresh = type(exc).__new__(type(exc), *exc.args)
    fresh.__dict__.update(exc.__dict__)
    return fresh


def lsc_check(
    gen: GeneratorField,
    equation: Expr,
    leading: str,
    samples: int = 200,
    seed: int = 42,
    tolerance: float = 1e-7,
) -> LscReport:
    """On-shell check that ``pr X(F)`` vanishes on solutions of ``F = 0``.

    ``F`` must be affine in the leading coordinate; each sample solves for
    it, substitutes, and evaluates the prolonged action.  Residuals are
    reported relative to ``max(1, sum of |term|)`` so cancellation depth
    is what is measured.  Sample ``i`` draws its jet point from
    ``np.random.default_rng([seed, i])``, and a sample whose leading
    coefficient is smaller than ``1e-3`` is redrawn from the same stream;
    eight points of the stream ``[seed, 0xAFF1]`` first probe that ``F`` is
    affine.  The streams' states are derived together, and each redraw
    computes only its own block of draws (:func:`_stream_block`), so no
    ``numpy.random`` generator is built.  Every sample is evaluated at once,
    one column run per tape; the error raised is that of the first failing
    sample.  The symbolic plan is built once per input, and the solved
    samples once per ``(equation, leading, samples, seed)``
    (:func:`_on_shell_samples`) up to :data:`_KEPT_SAMPLES` samples: in one
    process, checking another generator on them runs only its own action
    tape.
    """
    _check_samples(samples)
    if parse_jet_name(leading) is None:
        raise UnsupportedEquationError(f"'{leading}' is not a jet coordinate")
    equation, affine, columns, failed, failure = _on_shell_samples(
        equation, leading, samples, seed
    )
    if not affine:
        raise UnsupportedEquationError(
            f"equation is not affine in leading coordinate '{leading}'"
        )
    # built after the probe, so an order overflow never comes before "not affine"
    values, errors = _action_tape(gen, equation).columns(columns)
    first = min(errors, default=failed)
    if first < failed:  # at one sample, the base's error comes first
        raise _fresh(errors[first])
    if failure is not None:
        raise _fresh(failure)
    worst = worst_residual(_relative_actions(values).tolist())
    return LscReport(gen.name, samples, worst, tolerance, worst < tolerance)


@_sample_cache
def _invariance_draws(samples: int, seed: int) -> np.ndarray:
    """The ``(t, x, u)`` of every sample of :func:`invariance_check`, one
    row each (read-only)."""
    draws = _stream_draws(seed, np.arange(samples), 3)
    draws.flags.writeable = False
    return draws


def invariance_check(
    gen: GeneratorField,
    function: Expr,
    samples: int = 200,
    seed: int = 42,
    tolerance: float = 1e-9,
) -> InvarianceReport:
    """Check ``X(f) = 0`` for a function of (t, x, u) at random points.

    Sample ``i`` is ``np.random.default_rng([seed, i]).uniform(-2, 2, 3)``,
    computed in closed form for all samples at once (:func:`_stream_draws`)
    and kept per ``(samples, seed)`` as the solved samples of
    :func:`lsc_check` are, and every sample is evaluated in one
    column run.  Domain failures (for instance square roots of negative
    samples) are skipped and counted rather than raised.
    """
    _check_samples(samples)
    tape = _invariance_tape(gen, function)
    names = ("t", "x", "u")
    draws = _invariance_draws(samples, seed)
    values, errors = tape.columns(dict(zip(names, draws.T)))
    # the last row is f's own: where it fails, the sample is skipped
    residuals = np.delete(_relative_actions(values[:-1]), list(errors)).tolist()
    evaluated = len(residuals)
    worst = worst_residual(residuals)
    passed = evaluated > 0 and worst < tolerance
    return InvarianceReport(gen.name, samples, evaluated, len(errors), worst, tolerance, passed)


# ---------------------------------------------------------------------------
# Built-in equations and generator catalogs
# ---------------------------------------------------------------------------

def heat_equation() -> Expr:
    """``u_t - u_xx``; leading coordinate ``u_t``."""
    return parse("u_t - u_xx")


def constant_curvature_equation(lam: float) -> Expr:
    """Third-order constant-curvature equation for the potential ``u(t, x)``.

    Affine in ``u_ttt`` with coefficient ``u_xx u_txx - u_tx u_xxx``.
    """
    text = (
        "u_tt*(u_ttx*u_xxx - u_txx^2)"
        " - u_tx*(u_ttt*u_xxx - u_ttx*u_txx)"
        " + u_xx*(u_ttt*u_txx - u_ttx^2)"
        f" - 4*({lam!r})*(u_tt*u_xx - u_tx^2)^2"
    )
    return parse(text)


PDE_LEADING = {"heat": "u_t", "txpeq": "u_ttt"}


def equation_for(pde: str, lam: float = 1.0) -> tuple[Expr, str]:
    """Equation expression and leading coordinate for a named PDE."""
    if pde == "heat":
        return heat_equation(), PDE_LEADING["heat"]
    if pde == "txpeq":
        return constant_curvature_equation(lam), PDE_LEADING["txpeq"]
    raise ValueError(f"unknown PDE '{pde}' (expected 'heat' or 'txpeq')")


def _gen(name: str, xi_t="0", xi_x="0", eta="0") -> GeneratorField:
    return GeneratorField.create(name, xi_t, xi_x, eta)


#: Symmetry algebra of the heat equation.
HEAT_GENERATORS: dict[str, GeneratorField] = {
    "H1": _gen("H1", xi_x="1"),
    "H2": _gen("H2", xi_t="1"),
    "H3": _gen("H3", eta="u"),
    "H4": _gen("H4", xi_t="2*t", xi_x="x"),
    "H5": _gen("H5", xi_x="2*t", eta="-(x*u)"),
    "H6": _gen("H6", xi_t="4*t^2", xi_x="4*t*x", eta="-(x^2 + 2*t)*u"),
}

#: Symmetry algebra of the constant-curvature equation.
CURVATURE_GENERATORS: dict[str, GeneratorField] = {
    "X1": _gen("X1", xi_t="1"),
    "X2": _gen("X2", xi_x="1"),
    "X3": _gen("X3", eta="1"),
    "X4": _gen("X4", xi_t="t"),
    "X5": _gen("X5", xi_x="x"),
    "X6": _gen("X6", xi_t="x"),
    "X7": _gen("X7", xi_x="t"),
    "X8": _gen("X8", eta="t"),
    "X9": _gen("X9", eta="x"),
}

GENERATORS: dict[str, GeneratorField] = {**HEAT_GENERATORS, **CURVATURE_GENERATORS}


def generator_by_name(name: str) -> GeneratorField:
    try:
        return GENERATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown generator '{name}' (expected H1..H6, X1..X9, or a "
            "'xi_t = ...; xi_x = ...; eta = ...' definition)"
        ) from None
