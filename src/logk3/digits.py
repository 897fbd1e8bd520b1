"""Decimal digits of huge non-negative integers in subquadratic time.

``str(int)`` is quadratic in the number of digits before CPython 3.12, which
makes printing an exact bound of a few hundred thousand digits take seconds.
``decimal_str`` splits the integer on its bits, converts both halves
recursively and joins them as ``lo + hi * 2**w`` in ``decimal``, whose
multiplication is subquadratic for big operands (libmpdec).  Every operation
runs in an exact context, so the result is the integer itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from decimal import Decimal

# up to this many bits (2467 digits) ``str`` is as fast as the recursion,
# and it stays under the default int-to-str digit limit (4300 digits)
DIRECT_BITS = 8192

# halves at most this wide are handed to ``Decimal`` directly
LEAF_BITS = 512


def decimal_str(n: int) -> str:
    """``str(n)`` for an int ``n >= 0``, in subquadratic time."""
    if n < 0:
        raise ValueError("decimal_str takes a non-negative integer")
    if n.bit_length() <= DIRECT_BITS:
        return str(n)
    # imported here: only the printing of huge bound values needs it
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        # an integer-valued Decimal with exponent 0 prints as plain digits
        return str(_convert(n, n.bit_length(), {}, decimal.Decimal))


# module-level, not closures: a recursive closure is a reference cycle, which
# would keep every cached power alive until the cyclic garbage collector ran


def _convert(x: int, w: int, powers: dict[int, Decimal], D: type[Decimal]) -> Decimal:
    """``D(x)`` for ``0 <= x < 2**w``; ``powers`` caches ``D(2**k)`` by k."""
    if w <= LEAF_BITS:
        return D(x)
    half = w >> 1
    hi = x >> half
    lo = _convert(x - (hi << half), half, powers, D)
    return lo + _convert(hi, w - half, powers, D) * _pow2(half, powers, D)


def _pow2(w: int, powers: dict[int, Decimal], D: type[Decimal]) -> Decimal:
    value = powers.get(w)
    if value is None:
        if w <= LEAF_BITS:
            value = D(1 << w)
        else:
            half = w >> 1
            value = _pow2(half, powers, D) * _pow2(w - half, powers, D)
        powers[w] = value
    return value
