"""Plain value semantics: operators, builtins, equality, canonical keys.

Values are represented by host types: int, float, bool, str, and tuple
(for immutable lists). `None` is the unit value produced by a bare
`return` or by falling off a function end.

Semantics pinned here:
  - ints are 64-bit signed; overflow raises a runtime error
  - `+` building a string or list longer than `MAX_SIZE` overflows too
  - `/` is true division producing a float; `//` floors; `%` is floor-mod
  - bitwise/shift operators reject floats
  - bools are not arithmetic operands
  - `and`/`or` take bool operands and evaluate both sides

`OPERATORS` maps every binary operator token to a function `fn(a, b)`. All
but `and`/`or`, which are `bool_op` itself, are kernels with a fast path for
the operand types that reach them:
  - `+ - * // %`: int/int when the result is in 64-bit range; float/float
    and mixed int/float when the result is finite (`r - r == 0`), and for
    `// %` only when the divisor is nonzero
  - `/`: int or float operands, nonzero divisor, finite result
  - comparisons: int and float operands in any mix
  - `| ^ &`: int/int; `<<`: int/int with a count of 0-127 and the result in
    range; `>>`: int/int with a count >= 0
`type(x) is int` leaves bools out. A fast path returns only what the
generic function would return; every other case goes to `binary_op` /
`compare_op`, so each error kind and message comes from one place.
"""

from __future__ import annotations

import math
import operator
import struct
from functools import partial

from .errors import MiniRuntimeError

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1
MAX_SIZE = 65_536  # the length of the longest string or list `+` builds

# the mutation catalogs: their order numbers the mutants (see `mutate`)
ARITH_OPS = ("+", "-", "*", "/", "%", "<<", ">>", "|", "^", "&", "//")
COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")


def type_name(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, float):
        return "float"
    if isinstance(v, str):
        return "str"
    if isinstance(v, tuple):
        return "list"
    raise TypeError(f"not a mini-language value: {v!r}")


def _check_int_range(n: int):
    if n < INT_MIN or n > INT_MAX:
        raise MiniRuntimeError("overflow", f"integer result {n} out of 64-bit range")
    return n


def is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def plain_eq(a, b) -> bool:
    """Deep structural equality; type-sensitive, floats bit-exact."""
    ta = type(a)
    if ta is not type(b):
        return False
    if ta is float:
        if a == b:
            if a:
                return True  # equal nonzero floats have the same bits
        elif a == a or b == b:
            return False     # unequal, and not both nan
        return struct.pack("<d", a) == struct.pack("<d", b)
    if ta is tuple:
        return len(a) == len(b) and all(plain_eq(x, y) for x, y in zip(a, b))
    return a == b


def canon_key(v):
    """Hashable canonical form used for memo call keys (bit-exact floats),
    dispatched on the exact type."""
    t = type(v)
    if t is int:
        return ("i", v)
    if t is float:
        return ("f", struct.pack("<d", v))
    if t is tuple:
        return ("l", tuple(map(canon_key, v)))
    if t is bool:
        return ("b", v)
    if t is str:
        return ("s", v)
    if v is None:
        return ("n", None)
    raise TypeError(f"not a mini-language value: {v!r}")


def binary_op(op: str, a, b):
    """Apply a binary arithmetic operator; raises MiniRuntimeError on
    type errors, division by zero, int overflow and a concatenation longer
    than `MAX_SIZE`. Every NaN result is `math.nan`: values are keyed by
    their bits, and CPython picks a NaN operand's bits unpredictably."""
    if op in ("<<", ">>", "|", "^", "&"):
        if not (isinstance(a, int) and isinstance(b, int)
                and not isinstance(a, bool) and not isinstance(b, bool)):
            raise MiniRuntimeError(
                "type", f"{op!r} requires ints, got {type_name(a)} and {type_name(b)}")
        if op == "<<":
            if b < 0:
                raise MiniRuntimeError("value", "negative shift count")
            if b > 127:
                if a != 0:
                    raise MiniRuntimeError("overflow", "shift result out of range")
                return 0
            return _check_int_range(a << b)
        if op == ">>":
            if b < 0:
                raise MiniRuntimeError("value", "negative shift count")
            return a >> min(b, 127)
        return {"|": a | b, "^": a ^ b, "&": a & b}[op]

    if op == "+" and type(a) is type(b) and type(a) in (str, tuple):
        if len(a) + len(b) > MAX_SIZE:
            raise MiniRuntimeError(
                "overflow", f"{type_name(a)} result longer than {MAX_SIZE}")
        return a + b
    if not (is_num(a) and is_num(b)):
        raise MiniRuntimeError(
            "type", f"{op!r} requires numbers, got {type_name(a)} and {type_name(b)}")

    if op == "/":
        if b == 0:
            raise MiniRuntimeError("zero-division", "division by zero")
        r = float(a) / float(b)
        return math.nan if r != r else r
    if op in ("//", "%"):
        if b == 0:
            raise MiniRuntimeError("zero-division", f"{op!r} by zero")
        r = a // b if op == "//" else a % b
    elif op == "+":
        r = a + b
    elif op == "-":
        r = a - b
    elif op == "*":
        r = a * b
    else:
        raise MiniRuntimeError("type", f"unknown operator {op!r}")
    if isinstance(r, int):
        return _check_int_range(r)
    if isinstance(r, float) and (math.isinf(r) or math.isnan(r)):
        if not (isinstance(a, float) and (math.isinf(a) or math.isnan(a))) and \
           not (isinstance(b, float) and (math.isinf(b) or math.isnan(b))):
            raise MiniRuntimeError("overflow", "float result not finite")
        if r != r:
            return math.nan
    return r


def compare_op(op: str, a, b):
    if op in ("==", "!="):
        if is_num(a) and is_num(b):
            eq = a == b
        else:
            eq = plain_eq(a, b)
        return eq if op == "==" else not eq
    ok = (is_num(a) and is_num(b)) or (isinstance(a, str) and isinstance(b, str))
    if not ok:
        raise MiniRuntimeError(
            "type", f"{op!r} not supported between {type_name(a)} and {type_name(b)}")
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def unary_op(op: str, a):
    if op == "-":
        if not is_num(a):
            raise MiniRuntimeError("type", f"unary '-' requires a number, got {type_name(a)}")
        r = -a
        return _check_int_range(r) if isinstance(r, int) else r
    if op == "not":
        if not isinstance(a, bool):
            raise MiniRuntimeError("type", f"'not' requires a bool, got {type_name(a)}")
        return not a
    raise MiniRuntimeError("type", f"unknown unary operator {op!r}")


def bool_op(op: str, a, b):
    if not isinstance(a, bool) or not isinstance(b, bool):
        raise MiniRuntimeError(
            "type", f"{op!r} requires bools, got {type_name(a)} and {type_name(b)}")
    return (a and b) if op == "and" else (a or b)


def _arith(op: str, fn, divides: bool = False):
    """Kernel for `+ - * // %`; `divides` skips the fast path on a zero
    divisor."""
    def kernel(a, b):
        ta, tb = type(a), type(b)
        if ta is int and tb is int:
            if b or not divides:
                r = fn(a, b)
                if INT_MIN <= r <= INT_MAX:
                    return r
        elif ((ta is float or ta is int) and (tb is float or tb is int)
              and (b or not divides)):
            r = fn(a, b)
            if r - r == 0:
                return r
        return binary_op(op, a, b)
    return kernel


def _truediv(a, b):
    ta, tb = type(a), type(b)
    if (ta is int or ta is float) and (tb is int or tb is float) and b:
        r = float(a) / float(b)
        if r - r == 0:
            return r
    return binary_op("/", a, b)


def _bitwise(op: str, fn):
    def kernel(a, b):
        if type(a) is int and type(b) is int:
            return fn(a, b)
        return binary_op(op, a, b)
    return kernel


def _lshift(a, b):
    if type(a) is int and type(b) is int and 0 <= b <= 127:
        r = a << b
        if INT_MIN <= r <= INT_MAX:
            return r
    return binary_op("<<", a, b)


def _rshift(a, b):
    if type(a) is int and type(b) is int and b >= 0:
        return a >> (b if b < 127 else 127)
    return binary_op(">>", a, b)


def _compare(op: str, fn):
    def kernel(a, b):
        ta, tb = type(a), type(b)
        if (ta is int or ta is float) and (tb is int or tb is float):
            return fn(a, b)
        return compare_op(op, a, b)
    return kernel


OPERATORS = {
    "+": _arith("+", operator.add),
    "-": _arith("-", operator.sub),
    "*": _arith("*", operator.mul),
    "//": _arith("//", operator.floordiv, divides=True),
    "%": _arith("%", operator.mod, divides=True),
    "/": _truediv,
    "|": _bitwise("|", operator.or_),
    "^": _bitwise("^", operator.xor),
    "&": _bitwise("&", operator.and_),
    "<<": _lshift,
    ">>": _rshift,
    "and": partial(bool_op, "and"),
    "or": partial(bool_op, "or"),
}
OPERATORS.update({op: _compare(op, fn) for op, fn in zip(
    COMPARE_OPS, (operator.eq, operator.ne, operator.lt, operator.le,
                  operator.gt, operator.ge))})


def require_bool(v, what: str, loc=None):
    if not isinstance(v, bool):
        raise MiniRuntimeError(
            "type", f"{what} must be a bool, got {type_name(v)}", loc)
    return v


# --- builtins ---

def _bi_len(a):
    if isinstance(a, (str, tuple)):
        return len(a)
    raise MiniRuntimeError("type", f"len() takes a string or list, got {type_name(a)}")


def _bi_ord(a):
    if isinstance(a, str) and len(a) == 1:
        return ord(a)
    raise MiniRuntimeError("type", "ord() takes a one-character string")


def _bi_chr(a):
    if isinstance(a, int) and not isinstance(a, bool) and 0 <= a < 0x110000:
        return chr(a)
    raise MiniRuntimeError("value", "chr() argument out of range")


def _bi_abs(a):
    if not is_num(a):
        raise MiniRuntimeError("type", "abs() takes a number")
    r = abs(a)
    return _check_int_range(r) if isinstance(r, int) else r


def _numeric_args(name, args):
    vals = args[0] if len(args) == 1 and isinstance(args[0], tuple) else args
    if not vals or not all(is_num(v) for v in vals):
        raise MiniRuntimeError("type", f"{name}() takes numbers or a non-empty list")
    return vals


def _bi_min(*args):
    return min(_numeric_args("min", args))


def _bi_max(*args):
    return max(_numeric_args("max", args))


def _bi_sqrt(a):
    if not is_num(a) or a < 0:
        raise MiniRuntimeError("value", "sqrt() takes a non-negative number")
    return math.sqrt(a)


def _bi_log(a):
    if not is_num(a) or a <= 0:
        raise MiniRuntimeError("value", "log() takes a positive number")
    return math.log(a)


def _bi_int(a):
    if is_num(a) or isinstance(a, str):
        try:
            return _check_int_range(int(a))
        except (ValueError, OverflowError):    # bad text, nan, inf
            raise MiniRuntimeError("value", f"cannot convert {a!r} to int") from None
    raise MiniRuntimeError("type", f"int() cannot convert {type_name(a)}")


def _bi_float(a):
    if is_num(a):
        return float(a)
    if isinstance(a, str):
        try:
            return float(a)
        except ValueError:
            raise MiniRuntimeError("value", f"cannot convert {a!r} to float") from None
    raise MiniRuntimeError("type", f"float() cannot convert {type_name(a)}")


def _bi_print(*args):
    return None  # output sink is a no-op


BUILTINS = {
    "len": (_bi_len, 1, 1),
    "ord": (_bi_ord, 1, 1),
    "chr": (_bi_chr, 1, 1),
    "abs": (_bi_abs, 1, 1),
    "min": (_bi_min, 1, None),
    "max": (_bi_max, 1, None),
    "sqrt": (_bi_sqrt, 1, 1),
    "log": (_bi_log, 1, 1),
    "int": (_bi_int, 1, 1),
    "float": (_bi_float, 1, 1),
    "print": (_bi_print, 0, None),
}


def index_value(base, idx):
    if not isinstance(base, (str, tuple)):
        raise MiniRuntimeError("type", f"cannot index {type_name(base)}")
    if not isinstance(idx, int) or isinstance(idx, bool):
        raise MiniRuntimeError("type", "index must be an int")
    if idx < -len(base) or idx >= len(base):
        raise MiniRuntimeError("index", f"index {idx} out of range")
    return base[idx]
