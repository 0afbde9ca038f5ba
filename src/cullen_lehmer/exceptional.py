"""The exceptional-prime analysis for C_n = n * 2^n + 1.

A prime factor p of C_n escapes the generic size bound only when the odd
part of n is a perfect odd power, n1 = rho^w with w >= 3 odd dividing
n + alpha, and then p = rho * 2^((n+alpha)/w) + 1 = (n * 2^n)^(1/w) + 1.
This module enumerates those candidates and proves that at most one of
them per n can be prime: the largest candidate w is a multiple of every
other, so every candidate but the largest-w one has the form Y^lam + 1
with lam odd and > 1, and Y + 1 divides it.  Uniqueness is that
certificate, checked for every n of a range; no candidate is tested for
primality.  A scan lists the odd powers n1 = t^w of the range and visits
only their multiples n1 * 2^a, the only n that can carry a candidate.
"""

from __future__ import annotations

from typing import NamedTuple

from . import arith


class ExceptionalCandidate(NamedTuple):
    """One admissible (w, rho) pair and the value p it produces.

    Invariants: rho**w == n1, w | (n + alpha), (p - 1)**w == n * 2^n.
    With w >= 3 and p - 1 >= 2 the last gives (p - 1)**3 <= n * 2^n, so
    every candidate meets the bound p <= (n * 2^n)^(1/3) + 1.
    """

    w: int
    rho: int
    exponent: int
    p: int


class CompositenessCertificate(NamedTuple):
    """Witness that candidate p = Y^lam + 1 is divisible by Y + 1."""

    w: int
    p: int
    lam: int
    divisor: int
    cofactor: int


def exceptional_candidates(n: int) -> list[ExceptionalCandidate]:
    """All exceptional-prime candidates for n >= 1, ascending in w.

    A candidate is an odd w >= 3 dividing n + alpha with n1 an exact w-th
    power.  Its root rho is odd and > 1, so rho >= 3 and 3^w <= n1 bounds
    the w tried.  Empty when n1 == 1, the all-Fermat-prime branch.
    """
    alpha = arith.v2(n)
    n1 = n >> alpha
    total = n + alpha
    out = []
    w = 3
    while 3**w <= n1:
        if total % w == 0:
            rho, exact = arith.int_nth_root(n1, w)
            if exact:
                exponent = total // w
                out.append(ExceptionalCandidate(w, rho, exponent, rho * (1 << exponent) + 1))
        w += 2
    return out


def odd_power_cofactor(x: int, u: int) -> tuple[int, int]:
    """Split x^u + 1 as (x + 1) * cofactor for odd u >= 3; both parts > 1.

    This is what makes any candidate with a spare odd exponent composite.
    The cofactor x^(u-1) - x^(u-2) + ... - x + 1 is summed by Horner's
    rule, with no big-int division.
    """
    if u < 3 or u % 2 == 0:
        raise ValueError("odd_power_cofactor requires odd u >= 3")
    if x < 2:
        raise ValueError("odd_power_cofactor requires x >= 2")
    cofactor = 1
    for _ in range(u - 1):
        cofactor = 1 - x * cofactor
    return x + 1, cofactor


def certify_smaller_composite(
    n: int, cands: list[ExceptionalCandidate]
) -> list[CompositenessCertificate]:
    """For n with several candidates, certify every non-maximal-w candidate
    composite by exhibiting the Y + 1 divisor of p = Y^lam + 1.

    Here Y = p_max - 1 = (n * 2^n)^(1/w_max) comes from the largest-w
    candidate and lam = w_max / w, because w divides w_max.  Proof: W =
    lcm(w, w_max) is odd, divides n + alpha, and n1 = rho^w = rho_max^w_max
    is a perfect W-th power, as every exponent in its factorisation is a
    multiple of both w and w_max.  So W is a candidate too, W <= w_max by
    maximality, hence W = w_max.  Then p - 1 = (n * 2^n)^(1/w) = Y^lam with
    lam odd and > 1.  A w that does not divide w_max, or a split that does
    not multiply back to p, raises RuntimeError.
    """
    if len(cands) < 2:
        raise ValueError("certification needs at least two candidates")
    top = max(cands, key=lambda c: c.w)
    y = top.p - 1
    certs = []
    for cand in cands:
        if cand is top:
            continue
        lam, rem = divmod(top.w, cand.w)
        if rem:
            raise RuntimeError(f"n={n}: w={cand.w} does not divide w_max={top.w}")
        divisor, cofactor = odd_power_cofactor(y, lam)
        if divisor * cofactor != cand.p or not 1 < divisor < cand.p:
            raise RuntimeError(f"n={n}: cofactor split failed for w={cand.w}")
        certs.append(CompositenessCertificate(cand.w, cand.p, lam, divisor, cofactor))
    return certs


# One scan_exceptional row: an n and its exceptional-prime candidates.
ScanRow = tuple[int, list[ExceptionalCandidate]]


def scan_exceptional(n_lo: int, n_hi: int) -> list[ScanRow]:
    """(n, candidates) for every n in [n_lo, n_hi] with candidates,
    ascending in n.

    Only the n = n1 * 2^a with n1 = t^w <= n_hi (t >= 3 odd and w >= 3
    odd) are visited, about n_hi^(1/3) / 2 bases t.  That is complete: a
    candidate needs n1 = rho^w with rho >= 3 odd and w >= 3 odd, which is a
    listed power.
    """
    powers, t = set(), 3
    while t**3 <= n_hi:
        x = t**3
        while x <= n_hi:
            powers.add(x)
            x *= t * t
        t += 2
    ns = (n1 << a for n1 in powers for a in range((n_hi // n1).bit_length()))
    rows = []
    for n in sorted(n for n in ns if n >= n_lo):
        cands = exceptional_candidates(n)
        if cands:
            rows.append((n, cands))
    return rows


def uniqueness_violations(rows: list[ScanRow]) -> list[int]:
    """The n among scan_exceptional rows with two or more candidates whose
    smaller-w candidates are not all certified composite by
    certify_smaller_composite.  An n whose certification raises counts as a
    violation; without one, at most one candidate of each n can be prime."""
    violations = []
    for n, cands in rows:
        if len(cands) < 2:
            continue
        try:
            certify_smaller_composite(n, cands)
        except RuntimeError:
            violations.append(n)
    return violations


def uniqueness_scan(n_max: int) -> list[int]:
    """All n in [3, n_max] whose exceptional candidates are not proven to
    leave at most one prime (see uniqueness_violations).

    The lcm(w1, w2) argument predicts an empty list for every n_max; whatever
    is found is returned.
    """
    if n_max < 3:
        raise ValueError("uniqueness_scan requires n_max >= 3")
    return uniqueness_violations(scan_exceptional(3, n_max))
