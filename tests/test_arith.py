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
    # Carmichael numbers and strong pseudoprimes to few bases: below 65537^2
    # trial division finds a factor; at or above it is_prime decides nothing
    for x in (561, 1105, 41041, 3215031751):
        assert not arith.is_prime(x), x
    for x in (
        2152302898747,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,
        2**127 - 1,
    ):
        with pytest.raises(ValueError):
            arith.is_prime(x)


def test_is_prime_below_1009_squared_reads_only_the_primes_below_1000(monkeypatch):
    # no prime lies in [1000, 1009), so trial division by the primes below
    # 1000 settles every x below 1009^2, here checked from 1001^2 on
    monkeypatch.setattr(
        arith, "_primes_below_2_16", lambda: pytest.fail("the primes below 2^16 were read")
    )
    for x in range(1001**2, 1009**2):
        assert arith.is_prime(x) == sympy.isprime(x), x


def test_is_prime_matches_sympy_large():
    # seeded samples of [1009^2, 65537^2), where the primes below 2^16 finish
    # x, and the squares and near-squares of the primes at the table's ends
    rng = random.Random(3)
    xs = [rng.randrange(1009**2, 65537**2) for _ in range(2000)]
    xs += [1009**2, 1009 * 1013, 65521**2, 65519 * 65521, 65521 * 65537]
    for x in xs:
        assert arith.is_prime(x) == sympy.isprime(x), x


def test_is_prime_matches_sympy_below_65537_squared():
    # the last 10,000 integers it decides, the primes among them reaching
    # the end of the table below 2^16
    for x in range(65537**2 - 10_000, 65537**2):
        assert arith.is_prime(x) == sympy.isprime(x), x


def test_is_prime_refuses_65537_squared_and_calls_no_traced_function(monkeypatch):
    # the table below 2^16 does not reach 65537, so at 65537^2 trial division
    # proves nothing; the table comes from the cache, not arith.primes_up_to,
    # which perfbench wraps, as it counts is_prime as a function calling none
    monkeypatch.setattr(arith, "primes_up_to", lambda limit: pytest.fail("primes_up_to called"))
    monkeypatch.setattr(arith, "bounded_factor", lambda x: pytest.fail("bounded_factor called"))
    # the largest prime below 65537^2 reads the whole table
    assert arith.is_prime(4295098349) and sympy.prevprime(65537**2) == 4295098349
    with pytest.raises(ValueError, match="65537"):
        arith.is_prime(65537**2)


def test_seeding_never_builds_a_decimal_string():
    # C_3075 (925 digits) is past 65537^2, so is_prime raises; a limit of
    # 640 digits makes any int -> str conversion of it raise too, so the
    # message shows that the refusal never writes out x
    cn = (3075 << 3075) + 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError, match="^is_prime decides only x < 65537"):
            arith.is_prime(cn)
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
    # a prime part of at least 65537^2 left after the whole table is not
    # tested for primality: 2^61 - 1, 2^127 - 1 and the Proth prime
    # 3*2^276 + 1 all stay in the cofactor; the largest prime below 65537^2
    # is finished by the table
    for p in (2**61 - 1, 2**127 - 1, 3 * 2**276 + 1):
        assert sympy.isprime(p)
        assert arith.bounded_factor(p) == ({}, p)
        assert arith.bounded_factor(9 * p) == ({3: 2}, p)
    assert arith.bounded_factor(4295098349) == ({4295098349: 1}, 1)
