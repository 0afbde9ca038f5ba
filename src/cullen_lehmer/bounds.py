"""The inequality engine behind the exclusion cascade.

Writing k for the number of distinct prime factors of C_n = n * 2^n + 1,
two bounds collide once n is large:

    k > 1 + sqrt(n) / (9 * sqrt(ln n))      (size of the prime factors)
    k < 2.4 * ln n                          (premise from the prior estimate)

Their crossover, together with caps on Fermat-prime factors and on factors
whose shape multiplier m exceeds 1, drives n down in stages to the final
form n = 2^alpha * 3^beta with n < 200,000 and k <= 15.  All logarithms are
natural; comparisons that land near a boundary are re-evaluated with
50-digit Decimal arithmetic, and everything that can be compared in exact
integers is.  No comparison of the cascade itself lands that near, so
decimal is imported only by the near-boundary branch.

The two-thirds step, n * 2^n / ((n * 2^n)^(1/3) + 1) > 2^(2n/3), is a
lemma rather than a computation: it holds exactly for n >= 2, and
check_two_thirds carries the proof.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import arith

# Distinct-prime-factor lower bound for any Lehmer number (Cohen & Hagis).
LEHMER_MIN_OMEGA = 14

# Largest gamma with 2^(2^gamma) + 1 known prime.
KNOWN_FERMAT_GAMMA_CAP = 4

# Rounded constants the cascade must stay under, step by step.
STATED_CROSSOVER = 1_400_000
STATED_N_AT_K17 = 260_000
STATED_N_AT_K15 = 200_000
STATED_LOG3_AT_CROSSOVER = 12.9
STATED_LOG3_AT_260K = 11.4
STATED_LOG5_AT_260K = 7.8
STATED_Q5_CAP = 9.8

_REL_TOL = 1e-9


def _n_exceeds_log_poly(n: int, num: int, den: int, power: int) -> bool:
    """Exact-minded test of n * den > num * (ln n)^power.

    Uses floats away from the boundary and 50-digit Decimals within a
    relative 1e-9 band of it, so the cascade cannot flip on rounding noise.
    decimal is imported on that branch alone.
    """
    lhs = n * den
    rhs = num * math.log(n) ** power
    if abs(lhs - rhs) > _REL_TOL * max(abs(lhs), abs(rhs), 1.0):
        return lhs > rhs
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        return Decimal(lhs) > Decimal(num) * Decimal(n).ln() ** power


def _least_n_satisfying(predicate, lo: int, hi_start: int) -> int:
    """Least n >= lo with predicate(n) true, assuming predicate is monotone
    (false then true) on [lo, inf)."""
    hi = hi_start
    while not predicate(hi):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def k_lower(n: int) -> float:
    """Lower bound 1 + sqrt(n) / (9 * sqrt(ln n)) on the distinct-prime
    count of a Lehmer C_n."""
    if n < 3:
        raise ValueError("k_lower requires n >= 3")
    return 1.0 + math.sqrt(n) / (9.0 * math.sqrt(math.log(n)))


def k_upper(n: int) -> float:
    """Upper bound 2.4 * ln n on the same count; the premise the
    refinement starts from."""
    if n < 3:
        raise ValueError("k_upper requires n >= 3")
    return 2.4 * math.log(n)


def k_crossover() -> int:
    """Least N from which sqrt(n)/(9*sqrt(ln n)) >= 2.4*ln n for all n >= N.

    Equivalent to 25*n > 11664*(ln n)^3, monotone for n > e^3; every
    surviving n lies strictly below the returned value.
    """
    predicate = lambda n: _n_exceeds_log_poly(n, 11664, 25, 3)
    return _least_n_satisfying(predicate, 32, 1 << 17)


def n_threshold(k_max: int) -> int:
    """Least N with k_lower(n) > k_max for every n >= N.

    sqrt(n/ln n) is strictly increasing for n >= 3, so bisection on
    n > 81*(k_max-1)^2 * ln n is sound.
    """
    if k_max < 2:
        raise ValueError("n_threshold requires k_max >= 2")
    coeff = 81 * (k_max - 1) ** 2
    predicate = lambda n: _n_exceeds_log_poly(n, coeff, 1, 1)
    return _least_n_satisfying(predicate, 3, 4096)


def _fermat_fits(gamma: int, n_bound: int) -> bool:
    """2^(2^gamma) <= n_bound * 2^n_bound + 1, compared without giant ints."""
    e = 1 << gamma
    if e <= n_bound:
        return True
    return e - n_bound <= 64 and (1 << (e - n_bound)) <= n_bound


def fermat_gamma_cap(n_bound: int) -> tuple[int, int]:
    """(size cap, effective cap) on gamma for Fermat-prime factors of C_n
    with n <= n_bound.

    The size cap is the largest gamma whose Fermat number fits below
    C_{n_bound}; the effective cap additionally respects that only
    gamma <= 4 are known to give primes.
    """
    if n_bound < 3:
        raise ValueError("fermat_gamma_cap requires n_bound >= 3")
    gamma = 0
    while _fermat_fits(gamma + 1, n_bound):
        gamma += 1
    return gamma, min(gamma, KNOWN_FERMAT_GAMMA_CAP)


def nonfermat_factor_cap(n_bound: int, min_m: int) -> int:
    """Cap on the number of distinct prime factors of C_n whose shape
    multiplier m exceeds 1, i.e. floor(log(n_bound) / log(min_m)).

    Those multipliers are distinct odd divisors >= min_m whose product is
    bounded by the odd part of n < n_bound.  The floor is counted by exact
    integer powers.
    """
    if n_bound < 2 or min_m < 3 or min_m % 2 == 0:
        raise ValueError("nonfermat_factor_cap requires n_bound >= 2 and odd min_m >= 3")
    f = 0
    while min_m ** (f + 1) <= n_bound:
        f += 1
    return f


def q5_exclusion_cap(n_bound: int, q: int) -> float | None:
    """Cap 3 + ln(n_bound / q^3) / ln 3 on m > 1 factors when a prime
    q >= 5 divides n and the odd part of n is a cube or higher power.

    Returns None when q^3 > n_bound: no such n exists at all, so the case
    is vacuous rather than bounded.
    """
    if q < 5 or not arith.is_prime(q):
        raise ValueError("q5_exclusion_cap requires a prime q >= 5")
    if q**3 > n_bound:
        return None
    return 3.0 + math.log(n_bound / q**3) / math.log(3)


def check_two_thirds(n: int) -> bool:
    """Whether n * 2^n / ((n * 2^n)^(1/3) + 1) > 2^(2n/3); true exactly
    for n >= 2.

    Lemma.  Write T = n * 2^n and f = T^(1/3).  Since f >= 1, f + 1 <= 2f,
    so T / (f + 1) >= T^(2/3) / 2 = n^(2/3) * 2^(2n/3) / 2, which exceeds
    2^(2n/3) once n^(2/3) > 2, i.e. n^2 > 8: every n >= 3.  For n = 2,
    T = 8 and f = 2, and the claim 8/3 > 2^(4/3) cubes to 512 > 432.  For
    n = 1, T = 2 and the claim 2 / (2^(1/3) + 1) > 2^(2/3) rearranges to
    2 > 2^(2/3) + 2, which is false.
    """
    if n < 1:
        raise ValueError("check_two_thirds requires n >= 1")
    return n >= 2


class BoundStep(NamedTuple):
    """One stage of the cascade: the bounds in force after it ran.

    n_bound and k_bound are the computed values; the stated_* fields carry
    the rounded constants the computation must stay under.
    """

    label: str
    assumptions: tuple[str, ...]
    k_bound: int | None
    n_bound: int | None
    stated_n_bound: int | None
    anchor: str
    detail: str


class FinalForm(NamedTuple):
    form: str
    n_max: int
    n_max_computed: int
    k_max: int


class BoundChain(NamedTuple):
    steps: tuple[BoundStep, ...]
    final_form: FinalForm


def refine_chain() -> BoundChain:
    """Run the whole cascade under the hypothesis that some C_n is a Lehmer
    number, so has at least LEHMER_MIN_OMEGA distinct prime factors (read
    when called).  A side case is refuted by its k bound falling below that
    constant.  Every check raises RuntimeError naming its step when it does
    not hold: a computed value over the stated constant it relies on, or a
    side case whose k bound reaches LEHMER_MIN_OMEGA."""
    steps: list[BoundStep] = []
    assumptions = ("lehmer C_n", "n1 = rho^w, w >= 3")
    n_bound = stated = k_bound = None
    fermat = cap3 = 0

    def add(anchor, label, k, detail, extra=(), quoted=()):
        """The one place a BoundStep is built.  Raises if the n bound, or a
        (value, stated, strict) in quoted, goes over its stated constant."""
        for value, limit, strict in ((n_bound, stated, False), *quoted):
            if value > limit or (strict and value == limit):
                rel = "<" if strict else "<="
                raise RuntimeError(f"cascade step {anchor}: {value} is not {rel} stated {limit}")
        steps.append(BoundStep(label, assumptions + extra, k, n_bound, stated, anchor, detail))

    def threshold(anchor, label, constant):
        nonlocal n_bound, stated
        if k_bound is None:
            n_bound, claim = k_crossover(), ">= 2.4 ln n"
        else:
            n_bound, claim = n_threshold(k_bound), f"> {k_bound - 1}"
        stated = constant
        detail = (
            f"sqrt(n)/(9 sqrt(ln n)) {claim} from n = {n_bound}; "
            f"surviving n < {n_bound} (stated {stated})"
        )
        add(anchor, label.format(k=k_bound), k_bound, detail)

    def fermat_cap(anchor, label, _constant):
        nonlocal fermat
        size_cap, eff_cap = fermat_gamma_cap(stated)
        fermat = eff_cap + 1
        detail = (
            f"2^(2^gamma)+1 <= C_n forces gamma <= {size_cap}; known primes force gamma "
            f"<= {eff_cap}, so at most {fermat} Fermat-prime factors"
        )
        add(anchor, label, None, detail)

    def count(anchor, label, stated_log):
        """k bound: Fermat primes plus factors with m >= 3 (or the 3 | n step)."""
        nonlocal fermat, cap3, k_bound, assumptions
        quoted = ()
        if stated_log is None:
            fermat -= 1  # 3 | n makes C_n = 1 mod 3
            assumptions += ("3 | n",)
            reason = "3 | n gives C_n = 1 mod 3, so the Fermat prime 3 is excluded:"
        else:
            log3 = math.log(stated) / math.log(3)
            cap3 = nonfermat_factor_cap(stated, 3)
            quoted = ((log3, stated_log, False),)
            reason = (
                f"ln({stated})/ln 3 = {log3:.4f} (stated <= {stated_log}) "
                f"caps m>1 factors at {cap3};"
            )
        k_bound = fermat + cap3
        detail = f"{reason} k <= {fermat}+{cap3} = {k_bound}"
        add(anchor, label, k_bound, detail, quoted=quoted)

    def side_case(anchor, label, constant):
        """A case off the main line, refuted by its k bound being below
        LEHMER_MIN_OMEGA; checked as a strict stated constant like its cap."""
        if anchor == "case-3-coprime":
            value, cap = math.log(stated) / math.log(5), nonfermat_factor_cap(stated, 5)
            case, conclusion = "3 does not divide n", "3 | n"
            k = fermat + cap
            detail = (
                f"m odd, m | n1, 3 excluded, so m >= 5: ln({stated})/ln 5 = {value:.4f} "
                f"(stated < {constant}) caps m>1 factors at {cap}; k <= {fermat}+{cap} = {k}"
            )
        else:
            value = q5_exclusion_cap(stated, 5)
            case, conclusion = "q >= 5 divides n", "no q >= 5 divides n"
            k = int(value) + fermat
            detail = (
                f"q^3 | n1 then caps m>1 factors at 3 + ln({stated}/125)/ln 3 = {value:.4f} "
                f"(stated < {constant}); worst case q = 5, larger q only shrink it, and "
                f"q >= 59 has q^3 > {stated}; k <= {int(value)}+{fermat} = {k}"
            )
        detail += f" < {LEHMER_MIN_OMEGA}: contradiction, hence {conclusion}"
        quoted = ((value, constant, True), (k, LEHMER_MIN_OMEGA, True))
        add(anchor, label, k, detail, (case,), quoted)

    # the cascade in order, each step with the stated constant it relies on
    cascade = (
        (threshold, "k-crossover", "crossover of the k bounds", STATED_CROSSOVER),
        (fermat_cap, "fermat-cap", "Fermat-prime cap", None),
        (count, "count-m3", "factor count, m >= 3", STATED_LOG3_AT_CROSSOVER),
        (threshold, "threshold-k17", "n threshold at k <= {k}", STATED_N_AT_K17),
        (count, "count-m3-refresh", "factor count refreshed", STATED_LOG3_AT_260K),
        (side_case, "case-3-coprime", "side case: 3 does not divide n", STATED_LOG5_AT_260K),
        (count, "three-divides", "3 divides n", None),
        (threshold, "threshold-k15", "n threshold at k <= {k}", STATED_N_AT_K15),
        (side_case, "case-q5", "side case: some prime q >= 5 divides n", STATED_Q5_CAP),
    )
    for run, anchor, label, constant in cascade:
        run(anchor, label, constant)

    detail = f"n = 2^a*3^b, n < {stated} (computed {n_bound}), k <= {k_bound}"
    add("final-form", "final form", k_bound, detail)
    return BoundChain(tuple(steps), FinalForm("2^a*3^b", stated, n_bound, k_bound))
