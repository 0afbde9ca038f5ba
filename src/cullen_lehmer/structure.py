"""Cullen numbers C_n = n*2^n + 1 and the structures the Lehmer condition
acts on: the split n = 2^alpha * n1 with n1 odd, the shape m * 2^a + 1 of an
odd prime, and the divisibility test (p - 1) | C_n - 1 expressed through
that shape.
"""

from __future__ import annotations

from typing import NamedTuple

from . import arith
from .arith import PowerSignature

# C_n above this needs an explicit opt-in; inner loops must use cullen_mod.
DEFAULT_CN_CAP = 300_000

# The exclusion arguments assume n >= 3; smaller n are allowed but flagged.
MIN_ANALYSIS_N = 3


class CullenInstance(NamedTuple):
    """n together with its even/odd split and the power form of the odd part.

    n1_signature is None exactly when n1 == 1 (pure power of two), since a
    power signature is undefined there.
    """

    n: int
    alpha: int
    n1: int
    n1_signature: PowerSignature | None

    @property
    def small_n(self) -> bool:
        """True for n < 3, outside the range the exclusion arguments cover."""
        return self.n < MIN_ANALYSIS_N


def decompose(n: int) -> CullenInstance:
    """Split n >= 1 as 2^alpha * n1 (n1 odd) and attach the signature of n1."""
    if n < 1:
        raise ValueError("decompose requires n >= 1")
    alpha = arith.v2(n)
    n1 = n >> alpha
    sig = arith.power_signature(n1) if n1 >= 2 else None
    return CullenInstance(n, alpha, n1, sig)


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


def shape_divides(shape: PrimeShape, inst: CullenInstance) -> bool:
    """Whether p - 1 divides C_n - 1 = n * 2^n, read off the shape.

    Equivalent to m | n1 and a <= n + alpha because m is odd.
    """
    return inst.n1 % shape.m == 0 and shape.a <= inst.n + inst.alpha


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

    Only gamma with L = 2^gamma <= n.bit_length() can have F_gamma | C_n,
    so each test is a cullen_mod with a modulus of at most 2n + 1.  For
    L > n.bit_length(), so n < 2^(L-1), let F = F_gamma: 2^L = -1 (mod F)
    gives 2^n = e*2^s with s = n mod L, e = +-1, and 2^-s = -2^(L-s), so
    F | C_n means n = e*2^(L-s) (mod F).  For s = 0 that is n = 2^L (too
    large) or n = 1 (but then s = 1).  For s >= 1 and e = -1 it is
    n = 2^L - 2^(L-s) + 1 > 2^(L-1), too large.  For e = 1 it is n = 2^k
    with 1 <= k = L - s < L; k >= gamma would give s = 0, so s = 2^k and
    2^gamma = k + 2^k, impossible since 2^gamma - 2^k >= 2^k > k.

    n1_omega is Omega(n1) from arith.bounded_factor with its defaults:
    trial division by the primes below 1000, which alone factors every
    n1 < 1009^2 = 1,018,081 (so no such n1 reaches rho), then Brent rho
    within the default budget on the part left.  A cofactor c it leaves
    unfactored counts c.bit_length(), an upper bound on its prime factors:
    a composite rho did not split, or a part above the range where
    arith.is_prime proves primality (above about 3.3e24 and not a Proth
    number), prime or not.
    """
    split = arith.bounded_factor(arith.odd_part(n))
    omega = sum(split.factors.values()) + (0 if split.complete else split.cofactor.bit_length())
    span = n.bit_length().bit_length()
    gammas = tuple(g for g in range(span) if arith.cullen_mod(n, (1 << (1 << g)) + 1) == 0)
    return CountBound(omega, gammas)
