"""Cullen numbers C_n = n*2^n + 1 and the structures the Lehmer condition
acts on: the shape m * 2^a + 1 of an odd prime, the divisibility test
(p - 1) | C_n - 1 expressed through that shape, and the count bound.
"""

from __future__ import annotations

from typing import NamedTuple

from . import arith

# C_n above this needs an explicit opt-in; inner loops must use cullen_mod.
DEFAULT_CN_CAP = 300_000

# The exclusion arguments assume n >= 3; smaller n are allowed but flagged.
MIN_ANALYSIS_N = 3


def cullen_value(n: int, cap: int = DEFAULT_CN_CAP) -> int:
    """Exact C_n = n * 2^n + 1 for n up to the materialization cap."""
    if n < 1:
        raise ValueError("cullen_value requires n >= 1")
    if n > cap:
        raise ValueError(
            f"refusing to materialize C_{n}: n exceeds the materialization cap {cap}; "
            "use cullen_mod for residue work"
        )
    return (n << n) + 1


# A NamedTuple class cannot define __new__, so each record that validates
# its fields is a subclass of a NamedTuple of those fields.
class _PrimeShapeFields(NamedTuple):
    p: int
    m: int
    a: int


class PrimeShape(_PrimeShapeFields):
    """An odd prime written p = m * 2^a + 1 with m odd, a >= 1.

    Structural consistency is enforced here; the prime_shape factory also
    checks that p is prime, for callers that do not already know it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PrimeShape:
        self = super().__new__(cls, *args, **kwargs)
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError("shape multiplier m must be odd and positive")
        if self.a < 1:
            raise ValueError("shape exponent a must be >= 1")
        if self.m * (1 << self.a) + 1 != self.p:
            raise ValueError("shape does not reconstruct p")
        return self


def prime_shape(p: int) -> PrimeShape:
    """Shape of an odd prime p; rejects p = 2 and composites."""
    if p == 2:
        raise ValueError("p = 2 has no odd-prime shape")
    if not arith.is_prime(p):
        raise ValueError(f"prime_shape requires a prime, got {p}")
    return PrimeShape(p, arith.odd_part(p - 1), arith.v2(p - 1))


def shape_divides(shape: PrimeShape, n: int) -> bool:
    """Whether p - 1 divides C_n - 1 = n * 2^n, read off the shape.

    With n = 2^alpha * n1 (n1 odd), p - 1 = m * 2^a divides n1 * 2^(n + alpha)
    exactly when m | n1 and a <= n + alpha, and m | n1 iff m | n as m is odd.
    """
    return n % shape.m == 0 and shape.a <= n + arith.v2(n)


class CountBound(NamedTuple):
    """The count step at one n: a Lehmer C_n has at most
    n1_omega + len(gammas) distinct prime factors."""

    n1_omega: int
    gammas: tuple[int, ...]

    @property
    def bound(self) -> int:
        return self.n1_omega + len(self.gammas)


def count_bound(n: int) -> CountBound:
    """Bound the number of distinct primes of a Lehmer C_n by
    Omega(n1) + #{gamma : F_gamma | C_n}.

    Proof.  Let N = C_n and N - 1 = n*2^n = n1*2^(n+alpha).  For each
    prime p | N write p - 1 = m_p*2^(i_p) with m_p odd.  The Lehmer
    property phi(N) | N - 1, with prod(p - 1) | phi(N) over the distinct
    primes (squarefree or not), gives prod(m_p) | n1.  So at most
    Omega(n1) of the primes have m_p > 1.  A prime with m_p = 1 is
    2^i + 1, so i = 2^gamma and p = F_gamma = 2^(2^gamma) + 1.  No fact
    about which F_gamma are prime is used.

    Only gamma with L = 2^gamma <= n.bit_length() can have F_gamma | C_n.
    For such a gamma, 2^L = -1 (mod F_gamma), so 2 has order 2L modulo
    F_gamma and 2^n = 2^(n mod 2L): each test reduces n modulo F_gamma,
    which is at most 2n + 1, and takes at most gamma + 1 squarings, where
    pow(2, n, F_gamma) would take n.bit_length().  For
    L > n.bit_length(), so n < 2^(L-1), let F = F_gamma: 2^L = -1 (mod F)
    gives 2^n = e*2^s with s = n mod L, e = +-1, and 2^-s = -2^(L-s), so
    F | C_n means n = e*2^(L-s) (mod F).  For s = 0 that is n = 2^L (too
    large) or n = 1 (but then s = 1).  For s >= 1 and e = -1 it is
    n = 2^L - 2^(L-s) + 1 > 2^(L-1), too large.  For e = 1 it is n = 2^k
    with 1 <= k = L - s < L; k >= gamma would give s = 0, so s = 2^k and
    2^gamma = k + 2^k, impossible since 2^gamma - 2^k >= 2^k > k.

    n1_omega bounds Omega(n1) from above, by arith.bounded_factor: each
    prime it finds counts with its exponent, exact whenever it factors n1
    completely, as for any n1 < arith._SMALL_PRIMES_FINISH_BELOW.  A
    cofactor c it leaves counts (c.bit_length() - 1) // 16.  Every prime
    factor of c exceeds 2^16, so if c has k >= 1 of them, counted with
    multiplicity, then 2^(16k) < c < 2^c.bit_length(), that is
    k <= (c.bit_length() - 1) // 16; and c = 1 counts 0.
    """
    split = arith.bounded_factor(arith.odd_part(n))
    omega = sum(split.factors.values()) + (split.cofactor.bit_length() - 1) // 16
    span = n.bit_length().bit_length()
    gammas = []
    for g in range(span):
        f = (1 << (1 << g)) + 1
        if (n % f * pow(2, n % (2 << g), f) + 1) % f == 0:
            gammas.append(g)
    return CountBound(omega, tuple(gammas))
