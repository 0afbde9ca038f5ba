import random

import pytest

from cullen_lehmer import arith, exceptional, structure


def test_relation_holds_for_n3_hypothetical_shape():
    # n = 3: alpha = 0, n1 = 3 = rho^1; the shape p = 3*2^3 + 1 = 25 is not
    # prime, but the arithmetic identity itself holds with a = 3
    inst = structure.decompose(3)
    shape = structure.PrimeShape(p=25, m=3, a=3)
    assert exceptional.exceptional_relation(inst, shape, rho=3, u=1, w=1) is True


def test_relation_fails_when_exponent_perturbed():
    inst = structure.decompose(3)
    shape = structure.PrimeShape(p=3 * 2**4 + 1, m=3, a=4)
    assert exceptional.exceptional_relation(inst, shape, rho=3, u=1, w=1) is False


def test_relation_w1_u1_forces_p_equal_cn():
    # with w = u = 1 the relation pins a = n + alpha, which makes the shape
    # value m*2^a + 1 equal to C_n itself
    for rho, alpha in [(3, 0), (5, 1), (7, 2), (9, 3)]:
        n = rho << alpha
        inst = structure.decompose(n)
        a = n + alpha
        shape = structure.PrimeShape(p=rho * 2**a + 1, m=rho, a=a)
        assert exceptional.exceptional_relation(inst, shape, rho=rho, u=1, w=1)
        assert shape.p == structure.cullen_value(n)
        bad = structure.PrimeShape(p=rho * 2 ** (a + 1) + 1, m=rho, a=a + 1)
        assert not exceptional.exceptional_relation(inst, bad, rho=rho, u=1, w=1)


def test_relation_precondition_rejections():
    inst = structure.decompose(27)
    shape = structure.PrimeShape(p=25, m=3, a=3)
    with pytest.raises(ValueError, match="rho"):
        exceptional.exceptional_relation(inst, shape, rho=4, u=1, w=3)
    with pytest.raises(ValueError, match="multiplier"):
        exceptional.exceptional_relation(inst, shape, rho=5, u=1, w=3)
    with pytest.raises(ValueError, match="odd part"):
        exceptional.exceptional_relation(inst, shape, rho=3, u=1, w=2)
    big = structure.PrimeShape(p=243 * 2**5 + 1, m=243, a=5)
    with pytest.raises(ValueError, match="u exceeds"):
        exceptional.exceptional_relation(inst, big, rho=3, u=5, w=3)


def test_candidates_for_27():
    cands = exceptional.exceptional_candidates(structure.decompose(27))
    assert len(cands) == 1
    c = cands[0]
    assert (c.w, c.rho, c.exponent, c.p) == (3, 3, 9, 1537)
    assert c.is_prime is False  # 1537 = 29 * 53
    assert c.bound_ok is True


def test_candidates_empty_cases():
    # n1 = 3 is not a perfect power
    assert exceptional.exceptional_candidates(structure.decompose(12)) == []
    # n1 = 243 = 3^5 but 5 does not divide n + alpha = 243
    assert exceptional.exceptional_candidates(structure.decompose(243)) == []
    # n1 = 1: the all-Fermat-prime branch never yields candidates
    for alpha in range(1, 14):
        assert exceptional.exceptional_candidates(structure.decompose(2**alpha)) == []


def test_candidate_power_identity_over_range():
    for inst, cands in exceptional.scan_exceptional(3, 3000):
        for c in cands:
            assert c.rho**c.w == inst.n1
            assert (c.p - 1) ** c.w == inst.n << inst.n
            assert c.w % 2 == 1 and c.w >= 3


def test_bound_equality_at_w3_strict_above():
    inst = structure.decompose(27)
    c = exceptional.exceptional_candidates(inst)[0]
    root, exact = arith.int_nth_root(27 << 27, 3)
    assert exact and c.p == root + 1  # equality case

    inst = structure.decompose(3125)  # n1 = 5^5, w = 5 admissible
    (c,) = exceptional.exceptional_candidates(inst)
    assert c.w == 5
    root, _ = arith.int_nth_root(3125 << 3125, 3)
    assert c.p < root + 1 and c.bound_ok


def test_bound_ok_matches_floor_cube_root():
    rows = exceptional.scan_exceptional(3, 10_000)
    assert sum(len(cands) for _, cands in rows) == 16
    for inst, cands in rows:
        root, _ = arith.int_nth_root(inst.n << inst.n, 3)
        for c in cands:
            assert c.bound_ok == (c.p <= root + 1), (inst.n, c.w)


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


def test_uniqueness_scan_worker_parity():
    assert exceptional.uniqueness_scan(5000, workers=2) == exceptional.uniqueness_scan(5000)


def test_uniqueness_scan_through_first_multi_candidate():
    # 19683 lies inside this range, so the scan itself runs the in-scan
    # compositeness cross-check on a real multi-candidate n
    assert exceptional.uniqueness_scan(20_000) == []


def test_multi_candidate_certification_at_19683():
    # 19683 = 3^9 is the smallest n with two admissible w (3 and 9); the
    # smaller-w candidate must be certified composite via the Y + 1 divisor
    inst = structure.decompose(19683)
    cands = exceptional.exceptional_candidates(inst)
    assert [c.w for c in cands] == [3, 9]
    assert all(not c.is_prime for c in cands)
    certs = exceptional.certify_smaller_composite(inst, cands)
    assert len(certs) == 1
    cert = certs[0]
    assert cert.w == 3 and cert.lam == 3
    assert cert.p % cert.divisor == 0 and 1 < cert.divisor < cert.p
    assert cert.divisor * cert.cofactor == cert.p


def test_certification_requires_two_candidates():
    inst = structure.decompose(27)
    cands = exceptional.exceptional_candidates(inst)
    with pytest.raises(ValueError):
        exceptional.certify_smaller_composite(inst, cands)


def test_scan_exceptional_worker_parity():
    def key(rows):
        return [(inst.n, [(c.w, c.p, c.is_prime) for c in cands]) for inst, cands in rows]

    serial = exceptional.scan_exceptional(3, 3000)
    assert key(exceptional.scan_exceptional(3, 3000, workers=2)) == key(serial)
    assert exceptional.uniqueness_violations(serial) == []
