import random

import pytest

from cullen_lehmer import arith, structure


def test_decompose_examples():
    inst = structure.decompose(12)
    assert (inst.alpha, inst.n1) == (2, 3)
    assert inst.n1_signature == arith.PowerSignature(3, 1)

    inst = structure.decompose(27)
    assert (inst.alpha, inst.n1) == (0, 27)
    assert inst.n1_signature == arith.PowerSignature(3, 3)

    inst = structure.decompose(16)
    assert (inst.alpha, inst.n1) == (4, 1)
    assert inst.n1_signature is None


def test_decompose_flags_small_n():
    assert structure.decompose(1).small_n
    assert structure.decompose(2).small_n
    assert not structure.decompose(3).small_n


def test_decompose_reconstructs():
    rng = random.Random(10)
    for _ in range(2000):
        n = rng.randrange(1, 10**9)
        inst = structure.decompose(n)
        assert inst.n1 % 2 == 1
        assert inst.n1 << inst.alpha == n


def test_cullen_value_examples():
    assert structure.cullen_value(1) == 3
    assert structure.cullen_value(6) == 385
    assert structure.cullen_value(6) % 2 == 1


def test_cullen_value_cap_refusal():
    with pytest.raises(ValueError, match="300000"):
        structure.cullen_value(300_001)
    assert structure.cullen_value(300_001, cap=300_001) == (300_001 << 300_001) + 1


def test_c141_is_prime():
    c = structure.cullen_value(141)
    assert arith.is_prime(c)
    assert c.bit_length() == 149


def test_bit_length_matches_materialized_and_odd():
    for n in list(range(1, 300)) + [5000, 12345]:
        cn = structure.cullen_value(n)
        # n*2^n is even with odd part >= 1, so +1 never carries into a new bit
        assert cn.bit_length() == n + n.bit_length()
        assert cn % 2 == 1


@pytest.mark.parametrize("p,m,a", [(97, 3, 5), (11, 5, 1), (65537, 1, 16), (3, 1, 1)])
def test_prime_shape_examples(p, m, a):
    s = structure.prime_shape(p)
    assert (s.m, s.a) == (m, a)


def test_prime_shape_rejects():
    with pytest.raises(ValueError):
        structure.prime_shape(2)
    with pytest.raises(ValueError):
        structure.prime_shape(25)


def test_prime_shape_round_trip(primes_10k):
    for p in primes_10k:
        if p == 2:
            continue
        s = structure.prime_shape(p)
        assert s.m * 2**s.a + 1 == p
        assert s.m % 2 == 1 and s.a >= 1


def test_shape_structural_validation():
    # hypothetical shapes are allowed as long as they reconstruct
    s = structure.PrimeShape(p=25, m=3, a=3)
    assert s.m * 2**s.a + 1 == 25
    with pytest.raises(ValueError):
        structure.PrimeShape(p=25, m=6, a=2)
    with pytest.raises(ValueError):
        structure.PrimeShape(p=24, m=3, a=3)


def test_shape_divides_examples():
    inst6 = structure.decompose(6)
    assert structure.shape_divides(structure.prime_shape(11), inst6) is False
    assert structure.shape_divides(structure.prime_shape(7), inst6) is True
    # m = 1 divides everything once the exponent fits
    s3 = structure.prime_shape(3)
    for n in (1, 2, 17, 100):
        assert structure.shape_divides(s3, structure.decompose(n))


def test_shape_divides_matches_bigint(primes_10k):
    rng = random.Random(11)
    odd_primes = [p for p in primes_10k if p > 2]
    for _ in range(4000):
        n = rng.randrange(1, 501)
        p = odd_primes[rng.randrange(len(odd_primes))]
        inst = structure.decompose(n)
        direct = (n * 2**n) % (p - 1) == 0
        assert structure.shape_divides(structure.prime_shape(p), inst) == direct


def test_cullen_one_mod_three_when_three_divides_n():
    for n in range(3, 30_000, 3):
        assert arith.cullen_mod(n, 3) == 1
