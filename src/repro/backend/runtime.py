"""Runtime support for emitted Python code.

Every helper here mirrors one arm of the :mod:`repro.vm.machine`
evaluation loop bit-for-bit: the backend's correctness contract is that
a compiled residual function and the IR VM produce identical results,
traps, and printed output, so the rare/complex opcodes (trapping
division, float edge cases, sign extension) are implemented once, next
to each other, instead of being re-derived inline by the emitter.

The emitted code executes with :data:`BACKEND_GLOBALS` as its module
globals, so these helpers (and the trap exception types) are reachable
as plain global names without per-call imports.
"""

from __future__ import annotations

import math
import struct

from repro.ir.instructions import MASK64, to_signed
from repro.vm.machine import GuardFailed, OutOfFuel, VMTrap

__all__ = ["BACKEND_GLOBALS", "GuardFailed", "OutOfFuel", "VMTrap"]


def _idiv_s(a: int, b: int) -> int:
    a = to_signed(a)
    b = to_signed(b)
    if b == 0:
        raise VMTrap("integer divide by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q & MASK64


def _idiv_u(a: int, b: int) -> int:
    if b == 0:
        raise VMTrap("integer divide by zero")
    return a // b


def _irem_s(a: int, b: int) -> int:
    a = to_signed(a)
    b = to_signed(b)
    if b == 0:
        raise VMTrap("integer remainder by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return (a - q * b) & MASK64


def _irem_u(a: int, b: int) -> int:
    if b == 0:
        raise VMTrap("integer remainder by zero")
    return a % b


def _ishr_s(a: int, s: int) -> int:
    return (to_signed(a) >> (s & 63)) & MASK64


def _itof(a: int) -> float:
    return float(to_signed(a))


def _ftoi(a: float) -> int:
    if math.isnan(a) or math.isinf(a):
        raise VMTrap("invalid float-to-int conversion")
    return int(a) & MASK64


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        return (math.nan if a == 0.0
                else math.copysign(math.inf, a) * math.copysign(1.0, b))
    return a / b


def _fsqrt(a: float) -> float:
    return math.sqrt(a) if a >= 0.0 else math.nan


def _ffloor(a: float) -> float:
    return float(math.floor(a))


# NaN-box bit-casts: emitted code inlines ``_uq(_pd(x))[0]`` (f64 bits
# to i64) and ``_ud(_pq(x & MASK64))[0]`` (i64 bits to f64) through these
# precompiled structs.  Each pack returns fresh bytes, so there is no
# shared scratch buffer for concurrent callers to race on.
_STRUCT_Q = struct.Struct("<Q")
_STRUCT_D = struct.Struct("<d")


def _bits_itof(a: int) -> float:
    """Non-finite ``fconst`` literals (see ``emitter._float_literal``)."""
    return _STRUCT_D.unpack(_STRUCT_Q.pack(a & MASK64))[0]


def _sext(raw: int, bits: int) -> int:
    if raw >= 1 << (bits - 1):
        raw -= 1 << bits
    return raw & MASK64


def _exhaust(vm, name: str) -> None:
    """Depth-limit trap for the compiled-callee prologue (PR 10).

    The prologue has already incremented ``vm._call_depth`` but has not
    entered the ``try`` whose ``finally`` decrements it, so the
    roll-back happens here — mirroring ``VM._dispatch``'s
    increment/check/decrement order and trap message exactly.
    """
    vm._call_depth -= 1
    raise VMTrap(f"call stack exhausted in {name}")


# The global namespace for emitted code (copied per compiled function so
# nothing can leak between modules).
BACKEND_GLOBALS = {
    "VMTrap": VMTrap,
    "OutOfFuel": OutOfFuel,
    "GuardFailed": GuardFailed,
    "_idiv_s": _idiv_s,
    "_idiv_u": _idiv_u,
    "_irem_s": _irem_s,
    "_irem_u": _irem_u,
    "_ishr_s": _ishr_s,
    "_itof": _itof,
    "_ftoi": _ftoi,
    "_fdiv": _fdiv,
    "_fsqrt": _fsqrt,
    "_ffloor": _ffloor,
    "_bits_itof": _bits_itof,
    "_pq": _STRUCT_Q.pack,
    "_uq": _STRUCT_Q.unpack,
    "_pd": _STRUCT_D.pack,
    "_ud": _STRUCT_D.unpack,
    "_sext": _sext,
    "_exhaust": _exhaust,
    "_upf": struct.unpack_from,
    "_pki": struct.pack_into,
    "_abs": abs,
}
