"""The exceptional-prime analysis for C_n = n * 2^n + 1.

A prime factor p of C_n escapes the generic size bound only when the odd
part of n is a perfect odd power, n1 = rho^w with w >= 3 odd dividing
n + alpha, and then p = rho * 2^((n+alpha)/w) + 1 = (n * 2^n)^(1/w) + 1.
This module enumerates those candidates and proves that at most one of
them per n can be prime: every candidate but the largest-w one has the form
Y^lam + 1 with lam odd and > 1, so Y + 1 divides it.  Uniqueness is that
certificate, checked for every n of a range; no candidate is tested for
primality.  A scan lists the odd powers n1 = t^w of the range and visits
only their multiples n1 * 2^a, the only n that can carry a candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import structure
from .structure import CullenInstance


@dataclass(frozen=True)
class ExceptionalCandidate:
    """One admissible (w, rho) pair and the value p it produces.

    Invariants: rho**w == n1, w | (n + alpha), (p - 1)**w == n * 2^n.
    With w >= 3 and p - 1 >= 2 the last gives (p - 1)**3 <= n * 2^n, so
    every candidate meets the bound p <= (n * 2^n)^(1/3) + 1.
    """

    w: int
    rho: int
    exponent: int
    p: int


@dataclass(frozen=True)
class CompositenessCertificate:
    """Witness that candidate p = Y^lam + 1 is divisible by Y + 1."""

    w: int
    p: int
    lam: int
    divisor: int
    cofactor: int


def exceptional_candidates(inst: CullenInstance) -> list[ExceptionalCandidate]:
    """All exceptional-prime candidates for this n, ascending in w.

    Empty when n1 == 1 (the all-Fermat-prime branch) and when no odd
    w >= 3 divides both the signature exponent of n1 and n + alpha.
    """
    if inst.n1 == 1:
        return []
    sig = inst.n1_signature
    assert sig is not None
    total = inst.n + inst.alpha
    out = []
    for w in range(3, sig.exponent + 1, 2):
        if sig.exponent % w or total % w:
            continue
        rho = sig.base ** (sig.exponent // w)
        exponent = total // w
        out.append(ExceptionalCandidate(w, rho, exponent, rho * (1 << exponent) + 1))
    return out


def odd_power_cofactor(x: int, u: int) -> tuple[int, int]:
    """Split x^u + 1 as (x + 1) * cofactor for odd u >= 3; both parts > 1.

    This is what makes any candidate with a spare odd exponent composite.
    """
    if u < 3 or u % 2 == 0:
        raise ValueError("odd_power_cofactor requires odd u >= 3")
    if x < 2:
        raise ValueError("odd_power_cofactor requires x >= 2")
    total = x**u + 1
    divisor = x + 1
    return divisor, total // divisor


def certify_smaller_composite(
    inst: CullenInstance, cands: list[ExceptionalCandidate]
) -> list[CompositenessCertificate]:
    """For n with several candidates, certify every non-maximal-w candidate
    composite by exhibiting the Y + 1 divisor of p = Y^lam + 1.

    lam = lcm(w, w_max) / w is odd and > 1 whenever w < w_max, so the split
    is always available; each certificate is verified before being returned,
    and a failed check raises RuntimeError.
    """
    if len(cands) < 2:
        raise ValueError("certification needs at least two candidates")
    sig = inst.n1_signature
    assert sig is not None
    total = inst.n + inst.alpha
    w_max = max(c.w for c in cands)
    certs = []
    for cand in cands:
        if cand.w == w_max:
            continue
        joint = math.lcm(cand.w, w_max)
        lam = joint // cand.w
        if lam % 2 == 0 or lam <= 1:
            raise RuntimeError(f"n={inst.n}: lambda={lam} is not odd > 1")
        y = sig.base ** (sig.exponent // joint) * (1 << (total // joint))
        divisor, cofactor = odd_power_cofactor(y, lam)
        if divisor * cofactor != cand.p or not 1 < divisor < cand.p:
            raise RuntimeError(f"n={inst.n}: cofactor split failed for w={cand.w}")
        certs.append(CompositenessCertificate(cand.w, cand.p, lam, divisor, cofactor))
    return certs


# One scan_exceptional row: an n and its exceptional-prime candidates.
ScanRow = tuple[CullenInstance, list[ExceptionalCandidate]]


def scan_exceptional(n_lo: int, n_hi: int) -> list[ScanRow]:
    """(instance, candidates) for every n in [n_lo, n_hi] with candidates,
    ascending in n.

    Only the n = n1 * 2^a with n1 = t^w <= n_hi (t >= 3 and w >= 3 odd) are
    visited, about n_hi^(1/3) / 2 bases t.  That is complete: candidates
    need an odd w >= 3 dividing the signature exponent e of n1 = base^e,
    and then base >= 3 is odd, so n1 = (base^(e/w))^w is a listed power.
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
        inst = structure.decompose(n)
        cands = exceptional_candidates(inst)
        if cands:
            rows.append((inst, cands))
    return rows


def uniqueness_violations(rows: list[ScanRow]) -> list[int]:
    """The n among scan_exceptional rows with two or more candidates whose
    smaller-w candidates are not all certified composite by
    certify_smaller_composite.  An n whose certification raises counts as a
    violation; without one, at most one candidate of each n can be prime."""
    violations = []
    for inst, cands in rows:
        if len(cands) < 2:
            continue
        try:
            certify_smaller_composite(inst, cands)
        except RuntimeError:
            violations.append(inst.n)
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
