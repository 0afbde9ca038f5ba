"""Cullen numbers C_n = n*2^n + 1 and the structures the Lehmer condition
acts on: the shape m * 2^a + 1 of an odd prime, and the two lemmas the
screen applies, the count bound and the totient-ratio walk.
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
            f"refusing to materialize C_n: n exceeds the materialization cap {cap}; "
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
    """Shape of an odd prime p; rejects p = 2, composites and, through
    arith.is_prime, any p >= 65537^2."""
    if p == 2:
        raise ValueError("p = 2 has no odd-prime shape")
    if not arith.is_prime(p):
        raise ValueError(f"prime_shape requires a prime, got {p}")
    return PrimeShape(p, arith.odd_part(p - 1), arith.v2(p - 1))


class CountBound(NamedTuple):
    """The count step at one n: split is arith.bounded_factor(n1), and a
    Lehmer C_n has at most n1_omega + len(gammas) distinct prime factors."""

    split: arith.FactorResult
    gammas: tuple[int, ...]

    @property
    def n1_omega(self) -> int:
        return sum(self.split.factors.values()) + (self.split.cofactor.bit_length() - 1) // 16

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
    completely, as for any n1 < 65537^2.  A cofactor c it leaves, at least
    65537^2 and prime or not, counts (c.bit_length() - 1) // 16.  Every
    prime factor of c exceeds 2^16, so if c has k >= 1 of them, counted
    with multiplicity, then 2^(16k) < c < 2^c.bit_length(), that is
    k <= (c.bit_length() - 1) // 16; and c = 1 counts 0.  The split is
    kept in the record, and ratio_walk reads it there.
    """
    split = arith.bounded_factor(arith.odd_part(n))
    span = n.bit_length().bit_length()
    gammas = []
    for g in range(span):
        f = (1 << (1 << g)) + 1
        if (n % f * pow(2, n % (2 << g), f) + 1) % f == 0:
            gammas.append(g)
    return CountBound(split, tuple(gammas))


class RatioWalk(NamedTuple):
    """The totient-ratio walk at one n: the primes it found to divide C_n,
    ascending; the X it stopped at; t, the most primes a Lehmer C_n can
    have besides the found ones, each above X; and the rule that refutes
    C_n there, or "" when none does up to the budget."""

    x: int
    found: tuple[int, ...]
    t: int
    rule: str


def _floor6(num: int, den: int) -> str:
    """num/den rounded down to 6 decimals, for reasons only."""
    q = num * 10**6 // den
    return f"{q // 10**6}.{q % 10**6:06d}"


def ratio_walk(n: int, limit: int, count: CountBound) -> RatioWalk:
    """Walk the admissible primes p <= limit of C_n in ascending order and
    refute a Lehmer C_n by bounding N/phi(N); count is count_bound(n),
    whose split of n1 the walk reads (a superset of its gammas only makes
    t larger).

    Proof.  Let N = C_n be a Lehmer number, n = 2^alpha*n1 with n1 odd.
    Admissibility: as in count_bound, every prime p | N is p = m*2^a + 1
    with m odd, m | n1 and 1 <= a <= n + alpha; prod(m_p) | n1 over the
    distinct p; and m = 1 only for p = F_gamma with gamma in count.gammas.
    The walk tests these p in ascending order, each by is_prime and
    cullen_mod, the m > 1 coming from the divisors of the split part of
    n1.  is_prime is exact trial division below 65537^2 and raises at or
    above it; the screen's trial limit is below 2^26, so no p it reaches
    raises.  Before it tests p it sets X = p - 1; after the last p <= limit,
    X = limit.  Every prime of N at most X has then been tested, so each
    prime of N it has not found exceeds X.  N is odd, so X = 2 holds
    before any test.

    t.  The found primes use up prod(m_found) of n1, so at most
    Omega(n1/prod(m_found)) unfound primes have m > 1, each using a factor
    m > 1 of what is left; and the only unfound primes with m = 1 are the
    F_gamma not yet tested.  t adds the two counts, and starts at
    count.bound.  With P = prod p/(p - 1) over the found p, and
    p/(p - 1) <= (X + 1)/X for each unfound p,
    N/phi(N) <= U = P*((X + 1)/X)^t.

    Lehmer (1932): N/phi(N) = K + 1/phi(N), with the integer
    K = (N - 1)/phi(N) >= 2.  So the walk refutes C_n when
    - U < 2, as N/phi(N) > 2;
    - P > 2, U < 3 and prod(found) != N (the two-sided rule).  U < 3
      gives K = 2.  With A = prod p and D = prod(p - 1) over the found p,
      P = A/D > 2 gives A >= 2D + 1, so N/phi(N) >= P >= 2 + 1/D and
      phi(N) <= D.  D | phi(N), so phi(N) = D, which leaves N no other
      prime and no square factor: N = A;
    - a found p has an m that does not divide n1/prod(m_found), against
      prod(m_p) | n1.
    Each comparison is in cross-multiplied ints.  N is never built: N has
    n + n.bit_length() bits, so A != N whenever the bit lengths differ,
    and A is compared with N only when they do not.

    The cofactor cut.  When the split leaves a cofactor c of n1, every
    prime of c exceeds 2^16, so an m that involves one is at least 65537
    and gives p > 2*65537.  So the divisors of the split part list
    every admissible p <= 2*65537, the walk's budget is min(limit,
    2*65537), and c counts toward t as in count_bound.
    """
    alpha = arith.v2(n)
    n1 = n >> alpha
    if count.split.cofactor > 1:
        limit = min(limit, 2 * 65537)
    # (m, Omega(m)) for the odd m | n1 with 2m + 1 <= limit
    divisors = [(1, 0)]
    for q, e in count.split.factors.items():
        divisors = [
            (m * q**k, w + k) for m, w in divisors for k in range(e + 1) if 2 * m * q**k < limit
        ]
    candidates = [((1 << (1 << g)) + 1, 1, 0) for g in count.gammas]
    for m, w in divisors[1:]:
        a = 1
        while a <= n + alpha and m << a < limit:
            candidates.append(((m << a) + 1, m, w))
            a += 1
    candidates = sorted(c for c in candidates if c[0] <= limit)
    t = count.bound
    num = den = used = 1
    found: list[int] = []

    def bound(x: int) -> RatioWalk:
        # the rules on U = P*((X + 1)/X)^t, P = num/den, at this X
        up, down = num * (x + 1) ** t, den * x**t
        rule = ""
        if up < 2 * down:
            rule = f"U = {_floor6(up, down)} < 2"
        elif (
            num > 2 * den
            and up < 3 * down
            and (num.bit_length() != n + n.bit_length() or num != (n << n) + 1)
        ):
            rule = (
                f"2 < P = {_floor6(num, den)} and U = {_floor6(up, down)} < 3 force "
                f"C_n = {'*'.join(map(str, found))}, which it is not"
            )
        return RatioWalk(x, tuple(found), t, rule)

    for p, m, w in candidates:
        walk = bound(p - 1)
        if walk.rule:
            return walk
        if m == 1:
            t -= 1
        if not (arith.is_prime(p) and arith.cullen_mod(n, p) == 0):
            continue
        found.append(p)
        if n1 // used % m:
            rule = f"{p} = {m}*2^{arith.v2(p - 1)} + 1, and m = {m} does not divide n1/{used}"
            return RatioWalk(p - 1, tuple(found), t, rule)
        used *= m
        t -= w
        num *= p
        den *= p - 1
    return bound(max(limit, 2))
