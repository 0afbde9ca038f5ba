"""Arbitrary-precision integer primitives shared by every other module:
2-adic valuations, integer roots, perfect-power detection, primality
(proven: deterministic Miller-Rabin below about 3.3e24, Proth's theorem for
Proth numbers above, a ValueError for any other number above), the prime
table (a uint32 array, so primes stay below 2**32), modular
Cullen residues and the prime divisors of C_n in a prime table, and
Brent-cycle factoring.

cullen_divisors scans the prime table in numpy: binary powering of 2^n mod
q over blocks of primes, in float64 with balanced residues for blocks of
primes below FLOAT_BELOW = 2**26, in uint64 for blocks holding a larger one.

numpy is imported inside the functions that use it, never at module level:
by cullen_divisors, for a table that is not empty, and by primes_up_to for
a limit above VECTOR_ABOVE, whose sieve reads its primes out with numpy.  So
a process that scans no C_n and sieves no further than VECTOR_ABOVE never
pays numpy's memory.  screen_set runs the residue scan only for an n whose
count bound does not refute C_n, so a screen of n whose count bounds all
refute never imports numpy.

random is imported only by rho (_brent_rho), to seed its walk.
bounded_factor reaches rho only for a part above 1009^2 = 1,018,081 that
is_prime cannot prove prime, so the cascade, and the screen of every
n <= 2^14 and of every n = 2^a*3^b below 200,000, never import it.

All functions are pure; the only state here is the cache of the prime
table, which every caller in the process shares and none modifies.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

DEFAULT_RHO_BUDGET = 10**6

# Below this limit the first thirteen prime bases give a deterministic
# Miller-Rabin answer (Sorenson & Webster); it comfortably covers 2**64.
_DET_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_DET_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


# Above this limit the sieve reads its primes out with numpy, which a scan
# of such a table imports anyway.  It is the default trial limit, so the
# default table, like every smaller one, is built without importing numpy,
# which adds about 12 MB to a process.
VECTOR_ABOVE = 10**6

# Odd numbers per segment of the prime sieve, one byte each.
SIEVE_SEGMENT = 1 << 17

# Blocks of the numpy kernel whose largest prime is below this run in
# float64: balanced residues |x| <= (q+1)/2 <= 2**25 keep every doubled
# square 2*x^2 <= 2**51 below 2**53, exact in a double.  Blocks holding a
# larger prime (the table reaches 2**32) run in uint64.
FLOAT_BELOW = 1 << 26

# The numpy kernel's powering starts at 2^lead for a leading bit-prefix of n
# with value lead <= LEAD_MAX, which keeps the start value within the float64
# path's 2**51 bound and its quotient within 2**25 + 1.
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

    Each segment's primes are read out with itertools.compress, or, for a
    limit above VECTOR_ABOVE, with numpy, which every residue scan of the
    table runs anyway; compress would spend most of the sieve's time
    building one int per odd number.
    """
    table = array("I")
    if limit < 2:
        return table
    table.append(2)
    odd_primes = _sieve(math.isqrt(limit))[1:]
    # segment[j] stands for the odd number 2*(lo + j) + 1
    half = (limit + 1) // 2
    for lo in range(0, half, SIEVE_SEGMENT):
        hi = min(lo + SIEVE_SEGMENT, half)
        segment = bytearray(b"\x01") * (hi - lo)
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
            segment[start - lo :: p] = bytes(len(range(start, hi, p)))
        if limit > VECTOR_ABOVE:
            table.frombytes(_numpy_readout(segment, lo))
        else:
            table.extend(compress(range(2 * lo + 1, 2 * hi, 2), segment))
    return table


def _numpy_readout(segment: bytearray, lo: int) -> bytes:
    """The odd numbers 2*(lo + j) + 1 with segment[j] set, as uint32 bytes.

    A function of its own so that its arrays are freed before the next
    segment is allocated: kept alive across segments they fragment the
    heap and raise the peak RSS of the process.
    """
    import numpy as np

    # every number of the table is below 2**32, so uint32 holds it
    found = np.flatnonzero(np.frombuffer(segment, dtype=np.uint8)).astype(np.uint32)
    return (2 * found + (2 * lo + 1)).tobytes()


_SMALL_PRIMES = tuple(primes_up_to(1000))


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

    Exact integer arithmetic throughout; the float fast path is corrected
    so boundary cases cannot leak through.
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
    if x < (1 << 53):
        r = int(round(x ** (1.0 / w)))
        r = max(r, 1)
    else:
        # Newton iteration from an over-estimate; converges to the floor
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


class PowerSignature(NamedTuple):
    """Maximal representation x = base**exponent with base not a power itself."""

    base: int
    exponent: int


def power_signature(x: int) -> PowerSignature:
    """Canonical perfect-power form of x >= 2; exponent 1 iff x is not a power.

    Tries the prime exponents p < base.bit_length() in ascending order (a
    p-th root of a base >= 2 needs 2^p <= base) and descends into every
    exact root, multiplying the exponent by p, before moving to the next
    prime.  A base that is no p-th power for any prime p is no power at all,
    so the base left at the end is not a power and the exponent is maximal.
    The primes come from the table up to the least power of two above
    x.bit_length(), and at least 2^10: one table serves every x below
    2^1024, and the few table sizes cannot crowd a trial-limit table out of
    primes_up_to's cache.
    """
    if x < 2:
        raise ValueError("power_signature requires x >= 2")
    base, exponent = x, 1
    for p in primes_up_to(1 << max(10, x.bit_length().bit_length())):
        if p >= base.bit_length():
            break
        root, exact = int_nth_root(base, p)
        while exact:
            base, exponent = root, exponent * p
            root, exact = int_nth_root(base, p)
    return PowerSignature(base, exponent)


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
    then Miller-Rabin with the first thirteen prime bases below
    _DET_MR_LIMIT (about 3.3e24), where they are deterministic, then
    Proth's theorem (Proth 1878).

    Above the limit a perfect square is composite, and any other x must be
    a Proth number (see _provable): with the least prime a < 1000 of
    Jacobi symbol (a/x) = -1, x is prime exactly when
    a^((x-1)/2) = -1 (mod x).  Raises ValueError for any other x above the
    limit, and for one with no such a.
    """
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x == p:
            return True
        if x % p == 0:
            return False
    if x < 1_002_001:
        # trial division by primes < 1001 is complete here
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

    A generator, so a caller that stops at the first witness stops the scan
    there.  An empty table (limit < 2) yields nothing and imports nothing.
    """
    if n < 1:
        raise ValueError("cullen_divisors requires n >= 1")
    primes = primes_up_to(limit)
    if primes:
        yield from _cullen_divisors_vec(n, primes)


def _cullen_divisors_vec(n: int, primes: array) -> Iterator[int]:
    """cullen_divisors over whole blocks of the table in numpy.

    Blocks start at 1024 primes and double up to 2**16, so an n with a
    small witness costs little and the temporaries stay small.  n mod q is
    n itself in a block whose smallest prime exceeds n; in any other block
    it comes from Horner's rule over the 32-bit limbs of n in uint64 (each
    step is below q * 2**32 <= 2**64), so every n >= 1 works.  2^n mod q
    comes from left-to-right binary powering that starts at 2^lead, for
    the longest leading bit-prefix of n whose value lead is at most
    LEAD_MAX = 25, reduced once; then C_n mod q = 2^n * (n mod q) + 1
    mod q, on one of two paths:

    - A block whose largest prime is below FLOAT_BELOW = 2**26 runs in
      float64 with balanced residues |x| <= (q+1)/2 <= 2**25, reduced by
      x - rint(x * fl(1/q)) * q (Shoup's floating-point quotient, as in
      NTL's MulMod).  Every step is exact.  The start value 2^lead <= 2**25
      and each square or doubled square s have |s| <= 2**51 < 2**53
      (for the squares, |s| <= 2*((q+1)/2)^2).  s * fl(1/q) is within
      relative 2**-52 of s/q, where |s/q| < 2**25 + 1 (for the start value
      because q >= 2), so the rint quotient est is the integer nearest s/q,
      or, where s/q lies within about 2**-27 of a half-integer, the other
      neighbour; either way the integer s - est*q is below q/2 + 1 in
      magnitude, so at most (q+1)/2.  And |est*q| < 2**53 and
      |x * (n mod q)| < 2**51, so every product and difference is exact.
    - Any other block runs in uint64 with residues below q < 2**32, so every
      product is below 2**64; each step is one hardware % per element.
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
        in_float = block[-1] < FLOAT_BELOW
        # n mod q = n needs every q of the block above n: n mod n is 0
        n_below = int(block[0]) > n
        q = None if in_float and n_below else block.astype(np.uint64)
        if n_below:
            n_mod_q = n
        else:
            n_mod_q = 0
            for limb in limbs:
                n_mod_q = ((n_mod_q << 32) + limb) % q
        if in_float:
            hit = _cullen_zero_float(lead, bits, block.astype(np.float64), n_mod_q)
        else:
            hit = _cullen_zero_uint64(lead, bits, q, n_mod_q)
        yield from block[hit].tolist()
        start += size
        size = min(2 * size, 1 << 16)


def _cullen_zero_float(lead: int, bits: str, q, n_mod_q):
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


def _cullen_zero_uint64(lead: int, bits: str, q, n_mod_q):
    """C_n mod q == 0 for each prime q < 2**32 of a uint64 array, n given by
    its leading prefix value lead <= LEAD_MAX, the bits after that prefix,
    and n mod q."""
    import numpy as np

    x = np.uint64(1 << lead) % q
    for bit in bits:
        x = x * x % q
        if bit == "1":
            x = (x << 1) % q
    return (x * n_mod_q + 1) % q == 0


def _brent_rho(x: int, budget: int) -> tuple[int | None, int]:
    """Brent-cycle factor attempt; returns (factor or None, iterations used).

    Starting points and polynomial offsets are drawn from an RNG seeded by
    x itself, so repeated runs walk the identical sequence.  The seed is the
    integer x << 1 | 1, not a decimal string, which has a size limit.
    """
    import random

    if x % 2 == 0:
        return (2 if x > 2 else None), 0
    rng = random.Random(x << 1 | 1)
    used = 0
    while used < budget:
        y = rng.randrange(1, x)
        c = rng.randrange(1, x)
        m = 128
        g = r = q = 1
        xs = ys = y
        while g == 1 and used < budget:
            xs = y
            advance = min(r, budget - used)
            for _ in range(advance):
                y = (y * y + c) % x
            used += advance
            if advance < r:
                break
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                steps = min(m, r - k, budget - used)
                for _ in range(steps):
                    y = (y * y + c) % x
                    q = q * abs(xs - y) % x
                used += steps
                g = math.gcd(q, x)
                k += steps
            r *= 2
        if g == x:
            # batched gcd overshot; replay one step at a time
            g = 1
            while g == 1 and used < budget:
                ys = (ys * ys + c) % x
                used += 1
                g = math.gcd(abs(xs - ys), x)
        if 1 < g < x:
            return g, used
    return None, used


def pollard_rho(x: int, budget: int = DEFAULT_RHO_BUDGET) -> int | None:
    """A nontrivial factor of composite x, or None once the budget is spent.

    Callers are expected to have ruled x prime out already; a prime input
    simply exhausts the budget.
    """
    if x < 4:
        return None
    factor, _ = _brent_rho(x, budget)
    return factor


class FactorResult(NamedTuple):
    """Outcome of a budgeted factorization.

    factors maps prime -> exponent, each prime proven by is_prime; cofactor
    is 1 exactly when the factorization is complete, otherwise the part
    left unfactored.  That part holds what rho did not split within the
    budget: composites, and any number outside the range of _provable,
    prime or not, since is_prime is asked only inside it.
    """

    factors: dict[int, int]
    cofactor: int
    rho_used: int

    @property
    def complete(self) -> bool:
        return self.cofactor == 1


def bounded_factor(
    x: int,
    trial_primes: tuple[int, ...] = _SMALL_PRIMES,
    rho_budget: int = DEFAULT_RHO_BUDGET,
) -> FactorResult:
    """Factor x by trial division then Brent rho, within an iteration budget.

    Trial division runs over trial_primes, by default the primes below
    1000 in ascending order, and stops at the first p with p*p > x.  Each
    part left then goes to is_prime, and to rho, which spends the budget,
    only where is_prime cannot prove it prime.  With the default primes the
    part left by an early stop is 1 or a prime, and so is any part below
    1009^2 = 1,018,081 after the whole loop, so rho sees only a larger part.
    """
    if x < 1:
        raise ValueError("bounded_factor requires x >= 1")
    factors: dict[int, int] = {}
    for p in trial_primes:
        if p * p > x:
            break
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
    rho_used = 0
    leftovers = 1
    stack = [x] if x > 1 else []
    while stack:
        t = stack.pop()
        if t == 1:
            continue
        if _provable(t) and is_prime(t):
            factors[t] = factors.get(t, 0) + 1
            continue
        remaining = rho_budget - rho_used
        if remaining <= 0:
            leftovers *= t
            continue
        f, used = _brent_rho(t, remaining)
        rho_used += used
        if f is None:
            leftovers *= t
        else:
            stack.append(f)
            stack.append(t // f)
    return FactorResult(factors, leftovers, rho_used)
