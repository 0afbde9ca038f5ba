"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured runtimes next to their budgets.
"""

import math
import random
import time
from fractions import Fraction

import sympy

from cullen_lehmer import arith, bounds, exceptional, screen, structure


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_criterion_1_bound_chain_reproduction(capsys):
    from cullen_lehmer import cli

    t0 = time.perf_counter()
    exit_code = cli.main(["bounds"])
    cmd_out = capsys.readouterr().out
    chain = bounds.refine_chain()
    crossover = bounds.k_crossover()
    t17 = bounds.n_threshold(17)
    t15 = bounds.n_threshold(15)
    caps = (
        bounds.nonfermat_factor_cap(1_400_000, 3),
        bounds.nonfermat_factor_cap(260_000, 3),
        bounds.nonfermat_factor_cap(260_000, 5),
    )
    size_cap, _ = bounds.fermat_gamma_cap(1_400_000)
    q5 = bounds.q5_exclusion_cap(200_000, 5)
    elapsed = time.perf_counter() - t0

    ok = (
        exit_code == 0
        and "n = 2^α·3^β, n < 200,000, k ≤ 15" in cmd_out
        and crossover <= 1_400_000
        and t17 <= 260_000
        and t15 <= 200_000
        and caps == (12, 11, 7)
        and size_cap == 20
        and q5 is not None
        and q5 < 9.8
        and chain.final_form.form == "2^a*3^b"
        and chain.final_form.n_max == 200_000
        and chain.final_form.k_max == 15
        and elapsed < 1.0
    )
    _verdict(
        "criterion 1 (bound-chain reproduction)",
        ok,
        f"cmd_bounds exit={exit_code}, crossover={crossover}<=1.4e6, n(17)={t17}<=260000, "
        f"n(15)={t15}<=200000, caps={caps}, fermat size cap={size_cap}, q5={q5:.4f}<9.8, "
        f"final={chain.final_form}, {elapsed:.3f}s < 1s",
    )


def test_criterion_2_uniqueness_property():
    t0 = time.perf_counter()
    violations = exceptional.uniqueness_scan(200_000)
    rows = exceptional.scan_exceptional(3, 200_000)
    for n, cands in rows:
        for c in cands:
            assert (c.p - 1) ** c.w == n << n
    multi = [(n, cands) for n, cands in rows if len(cands) >= 2]
    certified = 0
    for n, cands in multi:
        certs = exceptional.certify_smaller_composite(n, cands)
        assert len(certs) == len(cands) - 1
        certified += len(certs)
    # 19683 = 3^9, the smallest n with two candidates, is the only one in
    # range; check its certificate directly as well
    cands = exceptional.exceptional_candidates(19683)
    certs = exceptional.certify_smaller_composite(19683, cands)
    cert_ok = len(certs) == 1 and certs[0].p % certs[0].divisor == 0
    elapsed = time.perf_counter() - t0

    ok = violations == [] and cert_ok and elapsed < 300
    _verdict(
        "criterion 2 (uniqueness scan to 2*10^5)",
        ok,
        f"violations={violations}, multi-candidate n in range={[n for n, _ in multi]}, "
        f"in-range certificates={certified}, 19683 certified={cert_ok}, "
        f"{elapsed:.1f}s < 300s",
    )


def test_criterion_3_two_thirds_inequality():
    t0 = time.perf_counter()
    failures = [n for n in range(3, 10_001) if not bounds.check_two_thirds(n)]
    elapsed = time.perf_counter() - t0
    ok = failures == [] and elapsed < 60
    _verdict(
        "criterion 3 (two-thirds inequality, closed-form lemma)",
        ok,
        f"n=3..10000 all hold={not failures} (failures={failures[:5]}), {elapsed:.1f}s < 60s",
    )


def _oracle_walk(n: int, cn: int, limit: int):
    """The totient-ratio walk from definitions, on the materialized C_n:
    the admissible primes p <= limit (p = m*2^a + 1 with m | n1 from
    sympy.divisors and a <= n + alpha, or F_gamma | C_n) in ascending
    order, each tested by sympy.isprime and division of C_n, with
    N/phi(N) <= U = P*((X + 1)/X)^t bounded in Fractions.

    Returns ((status, X), found): REFUTED_RATIO when U < 2, when P > 2 and
    U < 3 but C_n is not the product of the found primes, or when a found
    m overruns n1; UNDECIDED at the budget.
    """
    alpha = (n & -n).bit_length() - 1
    n1 = n >> alpha
    fermat = [2 ** 2**g + 1 for g in range((n + alpha).bit_length()) if cn % (2 ** 2**g + 1) == 0]
    shaped = {m * 2**a + 1 for m in sympy.divisors(n1)[1:] for a in range(1, n + alpha + 1)}
    t = sum(sympy.factorint(n1).values()) + len(fermat)
    ratio, used, found = Fraction(1), 1, []
    for p in [*sorted(q for q in {*fermat, *shaped} if q <= limit), limit + 1]:
        x = max(p - 1, 2)
        bound = ratio * Fraction(x + 1, x) ** t
        if bound < 2 or (ratio > 2 and bound < 3 and math.prod(found) != cn):
            return ("REFUTED_RATIO", x), found
        if p > limit:
            return ("UNDECIDED", None), found
        m = (p - 1) >> ((p - 1) & (1 - p)).bit_length() - 1
        t -= m == 1
        if not (sympy.isprime(p) and cn % p == 0):
            continue
        found.append(p)
        if n1 // used % m:
            return ("REFUTED_RATIO", x), found
        used *= m
        t -= sum(sympy.factorint(m).values())
        ratio *= Fraction(p, p - 1)


def _oracle_verdict(n: int, trial_limit: int):
    """Independent route: materialize C_n and apply the necessary
    conditions straight from definitions, in the screen's order: the count
    bound, then the ratio walk (_oracle_walk).

    Returns the ladder's (status, witness) and _oracle_walk's result, which
    is computed whatever the count bound gives.
    """
    cn = n * 2**n + 1
    walk = _oracle_walk(n, cn, trial_limit)
    # a Lehmer C_n has at most Omega(n1) primes p with p - 1 not a power of
    # two, since prod(odd part of p - 1) | n1; every other one is a Fermat
    # number F_gamma | C_n with 2^gamma <= n + alpha
    alpha = (n & -n).bit_length() - 1
    omega_n1 = sum(sympy.factorint(n >> alpha).values())
    fermat = sum(cn % (2 ** 2**g + 1) == 0 for g in range((n + alpha).bit_length()))
    if omega_n1 + fermat < bounds.LEHMER_MIN_OMEGA:
        return ("REFUTED_COUNT", omega_n1 + fermat), walk
    return walk[0], walk


def test_criterion_4_oracle_equivalence():
    # the count bound decides every n <= 300, so the ratio walk is compared
    # on its own as well: structure.ratio_walk must stop at the oracle's X
    # with the primes the oracle finds by dividing the materialized C_n
    t0 = time.perf_counter()
    mismatches = []
    for n in range(1, 301):
        v = screen.witness_search(n)
        verdict, ((status, x), found) = _oracle_verdict(n, v.trial_limit_used)
        if (v.status, v.witness) != verdict:
            mismatches.append((n, (v.status, v.witness), verdict))
        walk = structure.ratio_walk(n, v.trial_limit_used, structure.count_bound(n).gammas)
        if (bool(walk.rule), walk.x, list(walk.found)) != (status == "REFUTED_RATIO", x, found):
            mismatches.append((n, "walk", walk, (status, x, found)))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120
    _verdict(
        "criterion 4 (oracle equivalence, n <= 300)",
        ok,
        f"mismatches={mismatches[:5]}, {elapsed:.1f}s < 120s",
    )


def test_criterion_5_desk_scale_finishing_run():
    t0 = time.perf_counter()
    values = screen.enumerate_2a3b(3000)
    report = screen.screen_set(values, screen.ScreenConfig())
    elapsed = time.perf_counter() - t0
    allowed = screen.STATUSES
    stray = [v.n for v in report.verdicts if v.status not in allowed]
    ok = not stray and not report.undecided and len(report.verdicts) == len(values)
    _verdict(
        "criterion 5 (desk-scale screen of 2^a*3^b <= 3000)",
        ok,
        f"{len(values)} values, counts={report.counts}, "
        f"UNDECIDED count={len(report.undecided)} at n={report.undecided}, "
        f"stray statuses={stray}, {elapsed:.0f}s "
        f"(the full n < 200,000 run is a CI step, see README)",
    )


def test_criterion_6_arithmetic_invariants():
    t0 = time.perf_counter()

    rng = random.Random(99)
    for _ in range(10_000):
        x = rng.randrange(1, 10**18)
        assert arith.odd_part(x) << arith.v2(x) == x

    primes_10k = tuple(sympy.sieve.primerange(2, 10_001))
    for n in range(1, 2001):
        cn = structure.cullen_value(n)
        for q in primes_10k:
            assert arith.cullen_mod(n, q) == cn % q
        for _ in range(1000):
            q = rng.randrange(2, 10**6)
            assert arith.cullen_mod(n, q) == cn % q

    sieve = bytearray(b"\x01") * 1_000_001
    sieve[0:2] = b"\x00\x00"
    for p in range(2, 1001):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    for x in range(1_000_001):
        assert arith.is_prime(x) == bool(sieve[x]), x

    odd_primes = [p for p in primes_10k if p > 2]
    for p in odd_primes:
        s = structure.prime_shape(p)
        assert s.m * 2**s.a + 1 == p

    for n in range(3, 100_001, 3):
        assert arith.cullen_mod(n, 3) == 1

    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    _verdict(
        "criterion 6 (arith/structure invariant suites)",
        ok,
        f"odd-part/residue/primality/shape/Fermat-residue invariants all hold, "
        f"{elapsed:.1f}s < 120s",
    )
