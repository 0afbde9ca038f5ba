import math
import random

import pytest
import sympy

from cullen_lehmer import arith, exceptional


def test_candidates_for_27():
    cands = exceptional.exceptional_candidates(27)
    assert len(cands) == 1
    c = cands[0]
    assert (c.w, c.rho, c.exponent, c.p) == (3, 3, 9, 1537)
    assert 1537 % 29 == 0  # 1537 = 29 * 53


def test_candidates_empty_cases():
    # n1 = 3 is not a perfect power
    assert exceptional.exceptional_candidates(12) == []
    # n1 = 243 = 3^5 but 5 does not divide n + alpha = 243
    assert exceptional.exceptional_candidates(243) == []
    # n1 = 1: the all-Fermat-prime branch never yields candidates
    for alpha in range(1, 14):
        assert exceptional.exceptional_candidates(2**alpha) == []


def test_candidate_power_identity_over_range():
    rows = exceptional.scan_exceptional(3, 10_000)
    assert sum(len(cands) for _, cands in rows) == 16
    for n, cands in rows:
        for c in cands:
            assert c.rho**c.w == arith.odd_part(n)
            assert (c.p - 1) ** c.w == n << n
            assert c.w % 2 == 1 and c.w >= 3
            # the identity with w >= 3 puts p under (n * 2^n)^(1/3) + 1
            assert (c.p - 1) ** 3 <= n << n


def test_bound_equality_at_w3_strict_above():
    c = exceptional.exceptional_candidates(27)[0]
    root, exact = arith.int_nth_root(27 << 27, 3)
    assert exact and c.p == root + 1  # equality case

    (c,) = exceptional.exceptional_candidates(3125)  # n1 = 5^5, w = 5 admissible
    assert c.w == 5
    root, _ = arith.int_nth_root(3125 << 3125, 3)
    assert c.p < root + 1


@pytest.mark.parametrize("x,u,expected", [(4, 3, (5, 13)), (2, 5, (3, 11))])
def test_odd_power_cofactor_examples(x, u, expected):
    d, c = exceptional.odd_power_cofactor(x, u)
    assert (d, c) == expected
    assert d * c == x**u + 1


def test_odd_power_cofactor_random():
    rng = random.Random(12)
    for _ in range(2000):
        x = rng.randrange(2, 10**6)
        u = rng.choice([3, 5, 7, 9, 11])
        d, c = exceptional.odd_power_cofactor(x, u)
        assert d > 1 and c > 1 and d * c == x**u + 1


def test_odd_power_cofactor_rejects_even_or_small():
    with pytest.raises(ValueError):
        exceptional.odd_power_cofactor(4, 2)
    with pytest.raises(ValueError):
        exceptional.odd_power_cofactor(4, 1)
    with pytest.raises(ValueError):
        exceptional.odd_power_cofactor(1, 3)


def test_uniqueness_scan_small_range_empty():
    assert exceptional.uniqueness_scan(3) == []
    assert exceptional.uniqueness_scan(2000) == []
    with pytest.raises(ValueError):
        exceptional.uniqueness_scan(2)


def test_uniqueness_scan_through_first_multi_candidate():
    # 19683 lies inside this range, so the scan itself runs the in-scan
    # compositeness cross-check on a real multi-candidate n
    assert exceptional.uniqueness_scan(20_000) == []


@pytest.mark.parametrize("n", [19683, 10077696])
def test_multi_candidate_certification(n):
    # 19683 = 3^9 (alpha 0) is the smallest n with two admissible w (3 and
    # 9), and 6^9 = 10077696 = 3^9 * 2^9 the first with alpha > 0; the
    # smaller-w candidate must be certified composite via the Y + 1 divisor
    cands = exceptional.exceptional_candidates(n)
    assert [c.w for c in cands] == [3, 9]
    certs = exceptional.certify_smaller_composite(n, cands)
    assert len(certs) == 1
    cert = certs[0]
    assert cert.w == 3 and cert.lam == 3
    # Y = p_max - 1, so the divisor Y + 1 is the largest-w candidate itself
    assert cert.divisor == cands[-1].p
    assert 1 < cert.divisor < cert.p and 1 < cert.cofactor
    assert cert.divisor * cert.cofactor == cert.p


def test_certification_requires_two_candidates():
    cands = exceptional.exceptional_candidates(27)
    with pytest.raises(ValueError):
        exceptional.certify_smaller_composite(27, cands)


def test_certification_rejects_w_not_dividing_w_max():
    # w_max is a multiple of every candidate w; a pair that is not cannot
    # be certified, and that raises
    cands = [
        exceptional.ExceptionalCandidate(3, 3, 9, 3 * 2**9 + 1),
        exceptional.ExceptionalCandidate(5, 3, 9, 3 * 2**9 + 1),
    ]
    with pytest.raises(RuntimeError, match="does not divide"):
        exceptional.certify_smaller_composite(27, cands)


def test_candidates_match_factorint():
    # an independent oracle: n1 = prod q^e is an exact w-th power exactly
    # when w divides every e, so the candidates are the odd w >= 3 dividing
    # both gcd(e) and n + alpha
    for n in range(3, 30_001):
        alpha = arith.v2(n)
        n1 = n >> alpha
        g = math.gcd(*sympy.factorint(n1).values()) if n1 > 1 else 0
        expected = [w for w in range(3, g + 1, 2) if g % w == 0 and (n + alpha) % w == 0]
        assert [c.w for c in exceptional.exceptional_candidates(n)] == expected, n


def _scan_every_n(n_lo, n_hi):
    """The scan by definition: the candidates of every n."""
    rows = []
    for n in range(n_lo, n_hi + 1):
        cands = exceptional.exceptional_candidates(n)
        if cands:
            rows.append((n, cands))
    return rows


@pytest.mark.parametrize("n_lo,n_hi", [(3, 30_000), (19_000, 20_000), (27, 27), (28, 26)])
def test_scan_exceptional_matches_every_n_scan(n_lo, n_hi):
    def key(rows):
        return [
            (n, [(c.w, c.rho, c.exponent, c.p) for c in cands])
            for n, cands in rows
        ]

    expected = _scan_every_n(n_lo, n_hi)
    assert key(exceptional.scan_exceptional(n_lo, n_hi)) == key(expected)
    if n_lo <= 19683 <= n_hi:
        # the first n with two admissible w (3 and 9) is in the window
        assert any(n == 19683 and len(cands) == 2 for n, cands in expected)
    assert exceptional.uniqueness_violations(expected) == []


def test_uniqueness_needs_no_primality_test(monkeypatch):
    # the Y + 1 certificate alone proves uniqueness over the whole range the
    # cascade leaves, n < 200,000, whose largest candidate has 64,897 bits
    def no_primality(x):
        raise AssertionError("uniqueness must not test primality")

    monkeypatch.setattr(arith, "is_prime", no_primality)
    assert exceptional.uniqueness_scan(200_000) == []
    rows = exceptional.scan_exceptional(3, 200_000)
    assert len(rows) == 48
    assert sum(len(cands) for _, cands in rows) == 49
    assert [n for n, cands in rows if len(cands) > 1] == [19683]


def test_failed_certificate_is_a_violation(monkeypatch):
    def broken(n, cands):
        raise RuntimeError("cofactor split failed")

    monkeypatch.setattr(exceptional, "certify_smaller_composite", broken)
    assert exceptional.uniqueness_violations(exceptional.scan_exceptional(3, 20_000)) == [19683]
