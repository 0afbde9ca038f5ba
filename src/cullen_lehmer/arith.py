"""Arbitrary-precision integer primitives shared by every other module:
2-adic valuations, integer roots that say whether they are exact,
primality by trial division (exact below 65537^2, a ValueError at or
above), the prime table (a uint32 array, so primes stay below 2**32),
modular Cullen residues, and factoring by trial division (bounded_factor),
which leaves in a cofactor any part of at least 65537^2 that has no prime
factor below 2^16.

Everything here is pure Python.  The sieve moves its primes out of each
segment as byte planes, with no Python step per odd number (cold, about
0.04 s to 10^7 and 0.31 s to 2^26 - 1 on a 2-core machine; see _sieve).

bounded_factor and is_prime sieve primes_up_to(1 << 16) only for an x of
at least _SMALL_PRIMES_FINISH_BELOW, so the cascade, and the screen of every
n <= 2^14 and of every n = 2^a*3^b below 200,000, never build that table.

All functions are pure; the only state here is the cache of the prime
table, which every caller in the process shares and none modifies.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache, partial
from operator import add, mul
from typing import NamedTuple

# Odd numbers per segment of the prime sieve, one byte each; a whole
# number of _BLOCKs.  Against 1 << 17 it halves the slice assignments
# that cross off: a cold sieve to 10^7 is about 8% faster, for about
# 0.3 MB more peak RSS in a process that sieves to 10^7.
SIEVE_SEGMENT = 1 << 18

# The sieve's read-out follows the bytes of a uint32 prime: the odd numbers
# of a run of _RUN share bits 8-31 of their value, and those of a block of
# _BLOCK share bits 16-31.
_RUN = 128
_BLOCK = 1 << 15
_BYTE = [bytes((r,)) for r in range(256)]
_ZERO_TO_TWO = bytes.maketrans(b"\0", b"\2")
_ONE_TO_TWO = bytes.maketrans(b"\1", b"\2")

# Where bytes 0 and 1 of a uint32, least significant first, sit in memory.
_LOW_LANE, _RUN_LANE = (0, 1) if sys.byteorder == "little" else (3, 2)

@lru_cache(maxsize=8)
def primes_up_to(limit: int) -> array:
    """All primes <= limit, ascending, as an array('I') of 4 bytes per prime.

    The array is cached and shared by every caller; do not modify it.
    Raises ValueError for limit >= 2**32, before allocating anything.
    """
    if limit >= 1 << 32:
        raise ValueError(f"primes_up_to requires limit < 2**32, got {limit}")
    return _sieve(limit)


def _sieve(limit: int) -> array:
    """primes_up_to(limit), uncached: an odd-only sieve in segments of
    SIEVE_SEGMENT odd numbers, crossed off by the odd primes up to
    isqrt(limit) (found by the same sieve).

    The primes leave each segment as bytes, one byte plane of the uint32
    table at a time, with no Python step per odd number.  A segment starts
    as the low bytes of its odd numbers, which are odd, and crossing off
    writes 0, so deleting the zeros leaves the low byte of each prime, in
    order.  The odd numbers of a block of _BLOCK share bits 16-31, the
    block's index; those of a run of _RUN share bits 8-15, the run's index
    in its block, which is written once per prime of the run.  To count the
    primes of each run, the run's first byte (1 if the run's first odd
    number is prime, else 0) is made nonzero before the zeros go: a 0
    there becomes a 2.  No other byte is 1 or 2, so what is left splits
    into one piece per run.  Each prime of a block starts as the uint32 of
    the block's bits 16-31, and strided slice assignment writes the low and
    the run planes into it, at the lanes _LOW_LANE and _RUN_LANE take from
    sys.byteorder; the block's primes join the table as one buffer.  Only
    the little-endian lanes have been run: no big-endian host was at hand.

    Measured in fresh interpreters on a 2-core machine (CPython 3.11.7,
    medians of 9 runs), a sieve to 10^7 takes 0.039 s cold, and one to
    2^26 - 1 0.31-0.32 s.
    """
    table = array("I")
    if limit < 2:
        return table
    table.append(2)
    odd_primes = _sieve(math.isqrt(limit))[1:]
    half = (limit + 1) // 2
    # segment[j] is the low byte of the odd number 2*(lo + j) + 1, or 0
    # once that number is crossed off
    lows_of_block = bytearray(range(1, 256, 2)) * (_BLOCK // _RUN)
    for lo in range(0, half, SIEVE_SEGMENT):
        hi = min(lo + SIEVE_SEGMENT, half)
        segment = lows_of_block * -(-(hi - lo) // _BLOCK)
        del segment[hi - lo :]
        if lo == 0:
            segment[0] = 0
        for p in odd_primes:
            # the odd multiples of p are the indices i = p // 2 (mod p);
            # cross off from p^2, at index p^2 // 2
            start = p * p // 2
            if start >= hi:
                break
            if start < lo:
                start = lo + (start - lo) % p
            segment[start - lo :: p] = bytearray(len(range(start, hi, p)))
        for b in range(0, hi - lo, _BLOCK):
            block = segment[b : b + _BLOCK]
            firsts = block[::_RUN]
            block[::_RUN] = firsts.translate(_ZERO_TO_TWO)
            marked = block.translate(None, b"\0")
            lows = marked.translate(None, b"\2")
            # each run's piece holds its primes but the run's first odd number
            runs = marked.translate(_ONE_TO_TWO).split(b"\2")[1:]
            counts = map(add, map(len, runs), firsts)
            # each prime of the block starts as the block's bits 16-31
            unit = bytearray(array("I", [(lo + b) // _BLOCK << 16])) * len(lows)
            unit[_LOW_LANE::4] = lows
            unit[_RUN_LANE::4] = b"".join(map(mul, _BYTE, counts))
            table.frombytes(unit)
    return table


_SMALL_PRIMES = tuple(primes_up_to(1000))
_SMALL_PRIMES_FINISH_BELOW = 1009**2  # no prime in [1000, 1009): below this, _SMALL_PRIMES finish x
_TABLE_FINISHES_BELOW = 65537**2  # 65537 is the least prime above 2^16
# primes_up_to(1 << 16) through the cache, bound here so that is_prime calls
# no module attribute a tracer may wrap (perfbench counts is_prime as a leaf)
_primes_below_2_16 = partial(primes_up_to, 1 << 16)


def v2(x: int) -> int:
    """Largest e with 2^e dividing x (x >= 1)."""
    if x < 1:
        raise ValueError("v2 requires x >= 1")
    return (x & -x).bit_length() - 1


def odd_part(x: int) -> int:
    """x with every factor of 2 removed."""
    if x < 1:
        raise ValueError("odd_part requires x >= 1")
    return x >> v2(x)


def int_nth_root(x: int, w: int) -> tuple[int, bool]:
    """(floor(x^(1/w)), exact?) for x >= 1, w >= 2.

    Integer Newton iteration from the over-estimate 2^ceil(bits/w), which
    descends to the floor, then checked by exact powers.
    """
    if x < 1:
        raise ValueError("int_nth_root requires x >= 1")
    if w < 2:
        raise ValueError("int_nth_root requires w >= 2")
    if x == 1:
        return 1, True
    if w >= x.bit_length():
        # 2^w > x, so the root can only be 1
        return 1, False
    r = 1 << -(-x.bit_length() // w)
    while True:
        t = ((w - 1) * r + x // r ** (w - 1)) // w
        if t >= r:
            break
        r = t
    while r**w > x:
        r -= 1
    while (r + 1) ** w <= x:
        r += 1
    return r, r**w == x


def is_prime(x: int) -> bool:
    """Primality of x < 65537^2, exact, by trial division that stops at the
    first p with p*p > x: by the primes below 1000 for x < 1009^2, by the
    cached primes_up_to(1 << 16) otherwise, the table rule of
    bounded_factor.  A composite x has a prime factor at most isqrt(x),
    which is below 65537, the least prime above 2^16, so the table holds
    it.  Raises ValueError for x >= 65537^2, without writing out x, which
    may be past Python's int/str digit limit.
    """
    if x >= _TABLE_FINISHES_BELOW:
        raise ValueError("is_prime decides only x < 65537**2, by trial division")
    if x < 2:
        return False
    for p in _SMALL_PRIMES if x < _SMALL_PRIMES_FINISH_BELOW else _primes_below_2_16():
        if p * p > x:
            return True
        # p*p <= x, so x is not p itself
        if x % p == 0:
            return False
    return True


def cullen_mod(n: int, q: int) -> int:
    """(n * 2^n + 1) mod q without materializing the Cullen number."""
    if n < 1:
        raise ValueError("cullen_mod requires n >= 1")
    if q < 2:
        raise ValueError("cullen_mod requires q >= 2")
    return (n % q * pow(2, n, q) + 1) % q


class FactorResult(NamedTuple):
    """Outcome of bounded_factor.

    factors maps prime -> exponent; cofactor is 1 exactly when the
    factorization is complete, and otherwise the part left unfactored: at
    least 65537^2, with every prime factor above 2^16, and not known to be
    prime or composite.
    """

    factors: dict[int, int]
    cofactor: int


def bounded_factor(x: int) -> FactorResult:
    """Factor x by trial division, leaving in the cofactor a part it
    cannot finish.

    x < _SMALL_PRIMES_FINISH_BELOW is divided by the primes below 1000,
    any larger x by the cached primes_up_to(1 << 16), so a smaller x
    never sieves that table.  The division runs in ascending order and
    stops at the first p with p*p > x; the part left then is 1 or a prime.
    A part left after the whole table has no prime factor below the least
    prime above the table, 1009 or 65537 = 2^16 + 1, so it is 1 or a prime
    when below that prime's square; the whole smaller table runs only for
    an x below 1009^2.  A part of at least 65537^2 stays in the cofactor,
    prime or not: no primality test runs here.
    """
    if x < 1:
        raise ValueError("bounded_factor requires x >= 1")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES if x < _SMALL_PRIMES_FINISH_BELOW else primes_up_to(1 << 16):
        if p * p > x:
            break
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
    else:
        if x >= _TABLE_FINISHES_BELOW:
            return FactorResult(factors, x)
    if x > 1:
        factors[x] = 1
    return FactorResult(factors, 1)
