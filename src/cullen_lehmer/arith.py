"""Arbitrary-precision integer primitives shared by every other module:
2-adic valuations, integer roots that say whether they are exact,
primality (proven: deterministic Miller-Rabin below about 3.3e24, Proth's
theorem for Proth numbers above, a ValueError for any other number above),
the prime table (a uint32 array, so primes stay below 2**32), modular
Cullen residues and the prime divisors of C_n in a prime table, and
factoring by trial division (bounded_factor), which leaves any part it
cannot finish in a cofactor whose prime factors all exceed 2^16.

cullen_divisors scans the prime table in numpy: binary powering of 2^n mod
q over blocks of primes, in float64 with balanced residues, exact for every
prime below FLOAT_BELOW = 2**26, the bound it checks on its limit.

numpy is imported inside the functions that use it, never at module level,
and only by cullen_divisors, for a table that is not empty; the sieve is
pure Python at every limit, and moves its primes out of each segment as
byte planes, with no Python step per odd number (cold, about 0.04 s to
10^7 and 0.31 s to 2^26 - 1 on a 2-core machine; see _sieve).  So a
process that scans no C_n never pays numpy's memory.  screen_set runs
the residue scan only for an n whose count bound does not refute C_n, so
a screen of n whose count bounds all refute never imports numpy.

bounded_factor sieves primes_up_to(1 << 16) only for an x of at least
_SMALL_PRIMES_FINISH_BELOW, so the cascade, and the screen of every
n <= 2^14 and of every n = 2^a*3^b below 200,000, never build that table.

All functions are pure; the only state here is the cache of the prime
table, which every caller in the process shares and none modifies.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Iterator
from functools import lru_cache
from operator import add, mul
from typing import NamedTuple

# Below this limit the first thirteen prime bases give a deterministic
# Miller-Rabin answer (Sorenson & Webster); it comfortably covers 2**64.
_DET_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_DET_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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

# cullen_divisors takes a limit below this, so the numpy kernel runs every
# prime in float64: balanced residues |x| <= (q+1)/2 <= 2**25 keep every
# doubled square 2*x^2 <= 2**51 below 2**53, exact in a double.
FLOAT_BELOW = 1 << 26

# The numpy kernel's powering starts at 2^lead for a leading bit-prefix of n
# with value lead <= LEAD_MAX, which keeps the start value within the kernel's
# 2**51 bound and its quotient within 2**25 + 1.
LEAD_MAX = 25


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
    medians of 9 runs), a sieve to 10^7 takes 0.039 s cold and 0.045 s
    with numpy already imported, and one to 2^26 - 1 0.31-0.32 s.
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


def _mr_witness(x: int, a: int, d: int, s: int) -> bool:
    """False when base a proves x composite by the strong test, for
    x - 1 = d * 2^s."""
    a %= x
    if a == 0:
        return True
    t = pow(a, d, x)
    if t == 1 or t == x - 1:
        return True
    for _ in range(s - 1):
        t = t * t % x
        if t == x - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _provable(x: int) -> bool:
    """Whether x >= 2 lies where is_prime proves primality by a test: below
    _DET_MR_LIMIT, or a Proth number x = k*2^e + 1 with k odd and k < 2^e."""
    if x < _DET_MR_LIMIT:
        return True
    e = v2(x - 1)
    return (x - 1) >> e < 1 << e


def is_prime(x: int) -> bool:
    """Primality with a proof: trial division by the primes below 1000,
    which stops at the first p with p*p > x, then Miller-Rabin with the
    first thirteen prime bases below _DET_MR_LIMIT (about 3.3e24), where
    they are deterministic, then Proth's theorem (Proth 1878).

    Above the limit a perfect square is composite, and any other x must be
    a Proth number (see _provable): with the least prime a < 1000 of
    Jacobi symbol (a/x) = -1, x is prime exactly when
    a^((x-1)/2) = -1 (mod x).  Raises ValueError for any other x above the
    limit, and for one with no such a.
    """
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > x:
            return True
        # p*p <= x, so x is not p itself
        if x % p == 0:
            return False
    if x < _SMALL_PRIMES_FINISH_BELOW:
        return True
    if x < _DET_MR_LIMIT:
        d = x - 1
        s = v2(d)
        d >>= s
        return all(_mr_witness(x, a, d, s) for a in _DET_MR_BASES)
    if math.isqrt(x) ** 2 == x:
        return False
    if not _provable(x):
        raise ValueError(f"is_prime proves primality above {_DET_MR_LIMIT} only for Proth numbers")
    a = next((a for a in _SMALL_PRIMES if _jacobi(a, x) == -1), None)
    if a is None:
        raise ValueError("is_prime found no prime a < 1000 with Jacobi symbol (a/x) = -1")
    return pow(a, x >> 1, x) == x - 1


def cullen_mod(n: int, q: int) -> int:
    """(n * 2^n + 1) mod q without materializing the Cullen number."""
    if n < 1:
        raise ValueError("cullen_mod requires n >= 1")
    if q < 2:
        raise ValueError("cullen_mod requires q >= 2")
    return (n % q * pow(2, n, q) + 1) % q


def cullen_divisors(n: int, limit: int) -> Iterator[int]:
    """The primes q <= limit with q | C_n, ascending, each once, by the
    numpy kernel _cullen_divisors_vec.

    Raises ValueError for limit >= FLOAT_BELOW before sieving anything.
    The iterator scans lazily, so a caller that stops at the first witness
    stops the scan there.  An empty table (limit < 2) yields nothing and
    imports nothing.
    """
    if n < 1:
        raise ValueError("cullen_divisors requires n >= 1")
    if limit >= FLOAT_BELOW:
        raise ValueError(f"cullen_divisors requires limit < 2**26, got {limit}")
    primes = primes_up_to(limit)
    return _cullen_divisors_vec(n, primes) if primes else iter(())


def _cullen_divisors_vec(n: int, primes: array) -> Iterator[int]:
    """cullen_divisors over whole blocks of a table of primes below
    FLOAT_BELOW = 2**26 in numpy.

    Blocks start at 1024 primes and double up to 2**16, so an n with a
    small witness costs little and the temporaries stay small.  n mod q is
    n itself in a block whose smallest prime exceeds n; in any other block
    it comes from Horner's rule over the 32-bit limbs of n in uint64 (each
    step is below q * 2**32 < 2**58), so every n >= 1 works.  2^n mod q
    comes from left-to-right binary powering that starts at 2^lead, for
    the longest leading bit-prefix of n whose value lead is at most
    LEAD_MAX = 25, reduced once; then C_n mod q = 2^n * (n mod q) + 1
    mod q.

    Every step runs in float64 with balanced residues |x| <= (q+1)/2 <=
    2**25, reduced by x - rint(x * fl(1/q)) * q (Shoup's floating-point
    quotient, as in NTL's MulMod), and every step is exact.  The start
    value 2^lead <= 2**25 and each square or doubled square s have
    |s| <= 2**51 < 2**53 (for the squares, |s| <= 2*((q+1)/2)^2).
    s * fl(1/q) is within relative 2**-52 of s/q, where |s/q| < 2**25 + 1
    (for the start value because q >= 2), so the rint quotient est is the
    integer nearest s/q, or, where s/q lies within about 2**-27 of a
    half-integer, the other neighbour; either way the integer s - est*q is
    below q/2 + 1 in magnitude, so at most (q+1)/2.  And |est*q| < 2**53
    and |x * (n mod q)| < 2**51, so every product and difference is exact.
    """
    import numpy as np

    table = np.frombuffer(primes, dtype=np.uint32)
    bits = bin(n)[2:]
    cut = 5 if int(bits[:5], 2) <= LEAD_MAX else 4
    lead, bits = int(bits[:cut], 2), bits[cut:]
    limbs = [n >> shift & 0xFFFFFFFF for shift in range((n.bit_length() - 1) & ~31, -1, -32)]
    start, size = 0, 1024
    while start < len(table):
        block = table[start : start + size]
        # n mod q = n needs every q of the block above n: n mod n is 0
        if int(block[0]) > n:
            n_mod_q = n
        else:
            q = block.astype(np.uint64)
            n_mod_q = 0
            for limb in limbs:
                n_mod_q = ((n_mod_q << 32) + limb) % q
        hit = _cullen_zero(lead, bits, block.astype(np.float64), n_mod_q)
        yield from block[hit].tolist()
        start += size
        size = min(2 * size, 1 << 16)


def _cullen_zero(lead: int, bits: str, q, n_mod_q):
    """C_n mod q == 0 for each prime q < FLOAT_BELOW of a float64 array, n
    given by its leading prefix value lead <= LEAD_MAX, the bits after that
    prefix, and n mod q; see _cullen_divisors_vec for why every step is
    exact."""
    import numpy as np

    inv = 1.0 / q
    est = np.empty_like(q)

    def reduce(x, out=None):
        np.multiply(x, inv, out=est)
        np.rint(est, out=est)
        np.multiply(est, q, out=est)
        return np.subtract(x, est, out=out)

    x = reduce(2.0**lead)
    for bit in bits:
        np.multiply(x, x, out=x)
        if bit == "1":
            np.add(x, x, out=x)
        reduce(x, out=x)
    np.multiply(x, n_mod_q, out=x)
    reduce(x, out=x)
    # |x| <= (q+1)/2, so -1 mod q is x = -1, or x = q - 1 for q <= 3
    x += 1
    return (x == 0) | (x == q)


class FactorResult(NamedTuple):
    """Outcome of bounded_factor.

    factors maps prime -> exponent; cofactor is 1 exactly when the
    factorization is complete, and otherwise the part left unfactored.
    Every prime factor of that part exceeds 2^16, and the part is
    composite or a prime outside the range of _provable, which is_prime
    cannot prove.
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
    an x below 1009^2.  A part of at least 65537^2
    counts as one prime when is_prime proves it prime, and stays in the
    cofactor otherwise.
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
        if x >= 65537**2 and not (_provable(x) and is_prime(x)):
            return FactorResult(factors, x)
    if x > 1:
        factors[x] = 1
    return FactorResult(factors, 1)
