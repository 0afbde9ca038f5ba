"""Cullen numbers C_n = n*2^n + 1 and the structures the Lehmer condition
acts on: the split n = 2^alpha * n1 with n1 odd, the shape m * 2^a + 1 of an
odd prime, and the divisibility test (p - 1) | C_n - 1 expressed through
that shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arith
from .arith import PowerSignature

# C_n above this needs an explicit opt-in; inner loops must use cullen_mod.
DEFAULT_CN_CAP = 300_000

# The exclusion arguments assume n >= 3; smaller n are allowed but flagged.
MIN_ANALYSIS_N = 3


@dataclass(frozen=True)
class CullenInstance:
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


@dataclass(frozen=True)
class PrimeShape:
    """An odd prime written p = m * 2^a + 1 with m odd, a >= 1.

    Structural consistency is enforced here; the prime_shape factory also
    checks that p is prime, for callers that do not already know it.
    """

    p: int
    m: int
    a: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError("shape multiplier m must be odd and positive")
        if self.a < 1:
            raise ValueError("shape exponent a must be >= 1")
        if self.m * (1 << self.a) + 1 != self.p:
            raise ValueError("shape does not reconstruct p")


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
