import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

from cullen_lehmer import arith


@pytest.mark.parametrize("x,expected", [(48, 4), (1, 0), (2**20, 20), (6, 1), (7, 0)])
def test_v2(x, expected):
    assert arith.v2(x) == expected


@pytest.mark.parametrize("x,expected", [(48, 3), (7, 7), (2**10, 1), (12, 3)])
def test_odd_part(x, expected):
    assert arith.odd_part(x) == expected


def test_v2_odd_part_reject_zero():
    with pytest.raises(ValueError):
        arith.v2(0)
    with pytest.raises(ValueError):
        arith.odd_part(0)


def test_odd_part_times_two_power_reconstructs():
    rng = random.Random(1)
    for _ in range(10_000):
        x = rng.randrange(1, 10**18)
        assert arith.odd_part(x) << arith.v2(x) == x


@pytest.mark.parametrize(
    "x,w,expected",
    [
        (1000, 3, (10, True)),
        (1001, 3, (10, False)),
        (3**6 * 2**18, 3, (576, True)),
        (1, 5, (1, True)),
        (2**100, 4, (2**25, True)),
    ],
)
def test_int_nth_root_examples(x, w, expected):
    assert arith.int_nth_root(x, w) == expected


def test_int_nth_root_random():
    rng = random.Random(2)
    for _ in range(3000):
        w = rng.randrange(2, 10)
        x = rng.randrange(1, 1 << rng.randrange(4, 200))
        root, exact = arith.int_nth_root(x, w)
        assert root**w <= x < (root + 1) ** w
        assert exact == (root**w == x)
    with pytest.raises(ValueError):
        arith.int_nth_root(0, 3)
    with pytest.raises(ValueError):
        arith.int_nth_root(10, 1)


@pytest.mark.parametrize("x,expected", [(1537, False), (65537, True), (1, False), (2, True)])
def test_is_prime_examples(x, expected):
    assert arith.is_prime(x) is expected


def test_is_prime_matches_sieve_small():
    limit = 30_000
    sieve = set(sympy.sieve.primerange(2, limit))
    for x in range(limit):
        assert arith.is_prime(x) == (x in sieve), x


def test_is_prime_pseudoprime_battery():
    # Carmichael numbers and strong pseudoprimes to few bases
    for x in (
        561,
        1105,
        41041,
        3215031751,
        2152302898747,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,
    ):
        assert not arith.is_prime(x), x
    # the deterministic limit itself and a Mersenne prime are above the
    # limit and not Proth numbers, so is_prime cannot prove either answer
    for x in (arith._DET_MR_LIMIT, 2**127 - 1):
        with pytest.raises(ValueError):
            arith.is_prime(x)


def test_is_prime_below_1009_squared_needs_no_miller_rabin(monkeypatch):
    # no prime lies in [1000, 1009), so trial division by the primes below
    # 1000 settles every x below 1009^2, here checked from 1001^2 on
    monkeypatch.setattr(arith, "_mr_witness", lambda *args: pytest.fail("Miller-Rabin ran"))
    for x in range(1001**2, 1009**2):
        assert arith.is_prime(x) == sympy.isprime(x), x


def test_is_prime_matches_sympy_large():
    rng = random.Random(3)
    for _ in range(60):
        x = rng.getrandbits(64) | 1
        assert arith.is_prime(x) == sympy.isprime(x), x
    # Proth numbers k*2^e + 1 (k odd, k < 2^e) above the deterministic limit
    primes = 0
    for _ in range(500):
        e = rng.randrange(42, 160)
        k = rng.getrandbits(e) | 1 << (e - 1) | 1
        x = k << e | 1
        assert x > arith._DET_MR_LIMIT
        answer = arith.is_prime(x)
        assert answer == sympy.isprime(x), x
        primes += answer
    assert primes >= 5
    # a Proth square, Fermat numbers F_7 and F_8 (composite), C_141 (prime)
    for x in ((2**50 + 1) ** 2, 2**128 + 1, 2**256 + 1, (141 << 141) + 1):
        assert arith.is_prime(x) == sympy.isprime(x), x


def test_seeding_never_builds_a_decimal_string():
    # C_3075 (925 digits) is composite with no factor below 1000, so is_prime
    # reaches Proth's test; a limit of 640 digits makes any int -> str
    # conversion of it raise
    cn = (3075 << 3075) + 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert arith.is_prime(cn) is False
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("n,q,expected", [(6, 11, 0), (3, 3, 1), (1, 5, 3)])
def test_cullen_mod_examples(n, q, expected):
    assert arith.cullen_mod(n, q) == expected


def test_cullen_mod_matches_bigint(primes_10k):
    rng = random.Random(4)
    for _ in range(2000):
        n = rng.randrange(1, 2001)
        q = primes_10k[rng.randrange(len(primes_10k))]
        assert arith.cullen_mod(n, q) == (n * 2**n + 1) % q


def _read_out_edges():
    # the sieve reads its primes out byte plane by byte plane: a run of 128
    # odd numbers ends below 256*k + 1, a block of 2^15 below 65536*k + 1,
    # and the segment k below 2*k*SIEVE_SEGMENT + 1.  Limits around run
    # edges (at 513 = 27*19 the short last run holds no prime), block edges
    # (65537 is a prime, the first odd number of a block), a run edge past
    # the fourth block edge, and the first two segment edges
    runs = [256 * k + d for k in (1, 2, 8, 24) for d in (-1, 0, 1)]
    blocks = [65535, 65537, 65539, 262143, 262144, 262145, 262144 + 2049, 20 * 65536 + 1]
    segment = 2 * arith.SIEVE_SEGMENT
    segments = [segment * k + d for k in (1, 2) for d in (-1, 0, 1)]
    return sorted({*runs, *blocks, *segments, 2 * segment + 2})


# 1009 is the largest prime sieving a table to 1009^2
@pytest.mark.parametrize(
    "limit",
    [
        *(0, 1, 2, 3, 100, 7919, 30_000),
        *_read_out_edges(),
        10**6 + 1,
        1009**2,
        2_000_003,
    ],
)
def test_primes_up_to_is_a_uint32_table(limit):
    table = arith.primes_up_to(limit)
    assert table.typecode == "I" and table.itemsize == 4
    assert list(table) == list(sympy.sieve.primerange(2, limit + 1))


def _naive_primes(limit):
    # marks every composite, even ones included, up to limit
    composite = [False] * (limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        for m in range(p * p, limit + 1, p):
            composite[m] = True
    return [x for x in range(2, limit + 1) if not composite[x]]


def test_primes_up_to_matches_naive_sieve():
    for limit in [*range(301), 10**6]:
        assert list(arith.primes_up_to(limit)) == _naive_primes(limit), limit


def test_primes_up_to_ten_million_imports_no_numpy():
    # the sieve reads every segment out in pure Python, so the 10^7 table
    # the benchmark's residue set-up sieves needs no numpy.  The sum of
    # the primes below 10^7 (OEIS A046731) also catches a wrong byte in a
    # single prime, which the length and the last prime alone do not
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(arith.__file__).resolve().parent.parent)!r})\n"
        "from cullen_lehmer import arith\n"
        "table = arith.primes_up_to(10**7)\n"
        "print(len(table), table[-1], sum(table), 'numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.split() == ["664579", "9999991", "3203324994356", "False"]


def test_primes_up_to_rejects_limits_past_uint32():
    # raises before the sieve is allocated; at 2**32 that would be 4 GiB
    for limit in (2**32, 5 * 10**9):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            arith.primes_up_to(limit)


def test_bounded_factor_complete_and_partial():
    # below 1009^2 the primes below 1000 finish x; above it the primes below
    # 2^16 find 7919, and the part the early stop leaves, 104729, is prime
    assert arith.bounded_factor(3**5 * 997) == ({3: 5, 997: 1}, 1)
    x = 2**4 * 3**3 * 7919 * 104729
    assert arith.bounded_factor(x) == ({2: 4, 3: 3, 7919: 1, 104729: 1}, 1)

    hard = (2**89 - 1) * (2**107 - 1)  # both prime, far above 2^16
    assert arith.bounded_factor(hard * 9) == ({3: 2}, hard)


def test_bounded_factor_leaves_an_unprovable_prime_unfactored():
    # 2^127 - 1 is prime but not a Proth number, so is_prime cannot prove
    # it, and it stays in the cofactor
    assert arith.bounded_factor(2**127 - 1) == ({}, 2**127 - 1)
