import math
import random
import time

import pytest
import sympy

from cullen_lehmer import arith, screen, structure


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


def test_cullen_one_mod_three_when_three_divides_n():
    for n in range(3, 30_000, 3):
        assert arith.cullen_mod(n, 3) == 1


def _count_oracle(n):
    """(Omega(n1), gammas) from sympy.factorint and C_n % F_gamma on the
    materialized C_n."""
    alpha = (n & -n).bit_length() - 1
    cn = (n << n) + 1
    omega = sum(sympy.factorint(n >> alpha).values())
    span = (n + alpha).bit_length()
    return omega, tuple(g for g in range(span) if cn % ((1 << (1 << g)) + 1) == 0)


def test_count_bound_matches_bigint_oracle():
    pow23 = screen.enumerate_2a3b(199_999)
    for n in [*range(1, 3001), *pow23, *(1 << k for k in range(21))]:
        got = structure.count_bound(n)
        assert (got.n1_omega, got.gammas) == _count_oracle(n), n
    # the count step at n refutes every candidate the cascade leaves
    bounds = {n: structure.count_bound(n).bound for n in pow23}
    assert len(bounds) == 113 and max(bounds.values()) == 11


def test_no_n_up_to_two_to_fourteen_reaches_the_residue_scan():
    # no n <= 2^14 reaches screen.witness_search's second stage (once the
    # residue scan, now the ratio walk); its proof: Omega(n1) <= floor(log_3 n) = 8 once n1
    # is factored completely, and at most 4 gammas are tested, so the bound
    # is at most 12 < 14; this checks the complete factoring for each n,
    # by trial division alone
    for n in range(1, (1 << 14) + 1):
        got = structure.count_bound(n)
        assert got.n1_omega <= math.log(n, 3) + 1e-9 and len(got.gammas) <= 4, n
        assert got.bound <= 12, n
    # the first 2^a*3^b the bound leaves: 3^13, with F_1 = 5 | C_n
    first = next(n for n in screen.enumerate_2a3b(2 * 10**6) if structure.count_bound(n).bound >= 14)
    c = structure.count_bound(first)
    assert first == 3**13 and (c.n1_omega, c.gammas) == (13, (1,))


@pytest.mark.parametrize("base", [1 << 64, 1 << 100], ids=["2^64", "2^100"])
def test_count_bound_far_past_uint64(base):
    # F_gamma | C_n for gamma <= 14 against cullen_mod on the built F_gamma;
    # count_bound tests only the gamma with 2^gamma <= n.bit_length(), here
    # gamma <= 6, and the lemma says no larger one divides
    rng = random.Random(base.bit_length())
    ns = [base, base + 1, base - 1, 3 * (base >> 2)]
    ns += [base + rng.getrandbits(40) for _ in range(20)]
    for n in ns:
        start = time.perf_counter()
        got = structure.count_bound(n)
        assert time.perf_counter() - start < 1.0, n
        want = tuple(g for g in range(15) if arith.cullen_mod(n, (1 << (1 << g)) + 1) == 0)
        assert got.gammas == want, n
        if base == 1 << 64:
            # n1_omega bounds Omega(n1), exactly when n1 factors completely
            omega = sum(sympy.factorint(arith.odd_part(n)).values())
            if arith.bounded_factor(arith.odd_part(n)).cofactor == 1:
                assert got.n1_omega == omega, n
            else:
                assert got.n1_omega >= omega, n
    # C_(2^64) = 2^(2^64 + 64) + 1 with 2^64 + 64 = 64 * odd, so F_6 divides it
    assert structure.count_bound(1 << 64).gammas == (6,)


@pytest.mark.parametrize("g", range(7))
def test_two_has_order_two_to_the_gamma_plus_one_modulo_f_gamma(g):
    # 2^(2^g) = -1 (mod F_g), so count_bound may reduce the exponent n
    # modulo 2^(g + 1)
    f = (1 << (1 << g)) + 1
    rng = random.Random(g)
    ns = [*range(1, 5001), *range(1, 2 << g)]
    ns += [rng.getrandbits(rng.randrange(1, 4001)) for _ in range(200)]
    for n in ns:
        assert pow(2, n, f) == pow(2, n % (2 << g), f), (g, n)


def test_count_bound_of_a_fourteen_thousand_bit_n():
    # (10^4301 - 1) // 3 is 4301 threes, 14,288 bits, so count_bound tests
    # gamma <= 13; pow(2, n, F_13) alone would take 14,288 squarings of
    # 8193-bit numbers, about 2 s
    n = (10**4301 - 1) // 3
    assert n % 2 == 1 and n.bit_length().bit_length() == 14
    start = time.perf_counter()
    got = structure.count_bound(n)
    assert time.perf_counter() - start < 0.5
    want = tuple(g for g in range(14) if arith.cullen_mod(n, (1 << (1 << g)) + 1) == 0)
    assert got.gammas == want == (2,)


@pytest.mark.parametrize(
    ("n", "past_1009_squared"),
    [(3 * 1009, False), (3**5 * 5 * 7 * 1013, False), (1009 * 1013, True)],
)
def test_count_bound_past_trial_division(n, past_1009_squared):
    # a prime above 1000 is left by the early stop of trial division; two
    # of them make a part of n1 above 1009^2, which the primes below 1000
    # cannot finish, and the primes below 2^16 factor exactly
    n1 = arith.odd_part(n)
    factors = sympy.factorint(n1)
    large = math.prod(p**e for p, e in factors.items() if p > 1000)
    assert (large >= 1009**2) == past_1009_squared
    assert arith.bounded_factor(n1) == (factors, 1)
    assert structure.count_bound(n).n1_omega == sum(factors.values())


def test_count_bound_is_sound_on_known_factorisations():
    # n1 = the product of each row: n1_omega >= Omega(n1), with equality
    # when n1 factors completely, and also when every prime is in
    # (2^16, 65543]: a cofactor of k of them lies in (2^(16k), 2^(16k + 1))
    small, mid, above = [3, 5, 997], [1009, 7919, 65521], [65537, 65539]
    beyond = [
        next(sympy.primerange(65521**2, 65537**2)),  # left by the whole table, below 65537^2
        2**61 - 1,  # proven by Miller-Rabin
        2**127 - 1,  # prime, but not provable by is_prime
        (1 << 40) + 15,
        (1 << 48) + 21,
    ]
    rows = [[p] for p in small + mid + above + beyond]
    rows += [[65537] * k for k in (2, 3, 5)]
    rows += [[3, 3, 997, 65521], [7919, 65521], [65521, 65521], [3, 65537, 65537]]
    rows += [[65537, 65539], [65537, 65539, 65543], [65539, 65539, 65537, 65543]]
    rows += [[65537] * k + [65539] * k for k in (2, 3)]
    rows += [[997, 1009, 65537, 65539], [(1 << 40) + 15, (1 << 48) + 21]]
    rows += [[2**61 - 1, 65537], [2**127 - 1, 3], [5, 7919, (1 << 40) + 15, (1 << 40) + 15]]
    for primes in rows:
        assert all(sympy.isprime(p) for p in primes), primes
        n1 = math.prod(primes)
        exact = arith.bounded_factor(n1).cofactor == 1 or max(primes) <= 65543
        for n in (n1, n1 << 3):
            got = structure.count_bound(n).n1_omega
            assert got == len(primes) if exact else got >= len(primes), (primes, n)


@pytest.mark.parametrize("n1", [3**12, 3**5 * 5**2 * 7, 3 * 5 * 7 * 11 * 13])
def test_count_lemma_holds_on_its_premise(n1):
    # any product N of distinct primes with prod(p - 1) | n1*2^E has at most
    # Omega(n1) primes with p - 1 not a power of two; the rest are Fermat
    # primes; no Cullen number here
    exponent = 1000
    divisors = [m for m in range(3, n1 + 1, 2) if n1 % m == 0]
    fermat = [3, 5, 17, 257, 65537]
    shaped = [p for m in divisors for i in range(1, 200) if sympy.isprime(p := m * 2**i + 1)]
    omega = sum(sympy.factorint(n1).values())
    rng = random.Random(n1)
    sharp = 0
    for trial in range(200):
        if trial % 2:
            # the least multipliers first: the bound is reached when each
            # prime of n1 goes to its own p
            pool = sorted(fermat + shaped, key=lambda p: (arith.odd_part(p - 1), rng.random()))
        else:
            pool = fermat + rng.sample(shaped, 40)
            rng.shuffle(pool)
        picked = []
        for p in pool:
            # greedily keep every prime the premise still allows
            if (n1 << exponent) % math.prod(q - 1 for q in [*picked, p]) == 0:
                picked.append(p)
        assert (n1 << exponent) % math.prod(p - 1 for p in picked) == 0
        powers = [p for p in picked if (p - 1) & (p - 2) == 0]
        assert all(p in fermat for p in powers)
        assert len(picked) - len(powers) <= omega, picked
        sharp += len(picked) - len(powers) == omega
    assert sharp > 0
