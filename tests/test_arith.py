import itertools
import math
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
import sympy

from cullen_lehmer import arith, screen


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
    # the sieve reads every segment out in pure Python, so a table the
    # size of a residue scan's is built without numpy's 13 MB.  The sum of
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


def _kernel_edge_ns(table, block_starts):
    """n at the edges of the numpy kernel's start value and of its n mod q:
    leading bit-prefix values 12, 24, 25 (LEAD_MAX), 26 and 27; 2^k and
    2^k - 1; n equal to a table prime (n mod q = 0 for that q), among them
    the first prime of each block starting at an index of block_starts; and
    an n between the first and last prime of each such block."""
    ns = {12, 24, 25, 26, 27}
    ns |= {(v << s) + low for v in ns for s in (1, 7, 40) for low in (0, (1 << s) - 1)}
    ns |= {2**k + d for k in (1, 4, 5, 6, 17, 32, 33, 64) for d in (0, -1)}
    ns |= {table[i] for i in (0, 1, 2, 1023, -1, *block_starts)}
    ns |= {table[i + 500] + 1 for i in block_starts}
    return ns


def test_vector_kernel_matches_cullen_mod():
    # 17984 primes: blocks of 1024, 2048, 4096 and 8192, then a partial one;
    # for each prime on either side of a block edge, the least n it divides
    primes = arith.primes_up_to(200_000)
    edges = [primes[i] for i in (1023, 1024, 3071, 3072, 7167, 7168, 15359, 15360, -1)]
    rng = random.Random(6)
    ns = {1, 2, 3, *screen.enumerate_2a3b(12_000), *(rng.randrange(1, 200_001) for _ in range(50))}
    ns |= {next(n for n in itertools.count(1) if arith.cullen_mod(n, q) == 0) for q in edges}
    # n mod q comes from the 32-bit limbs of n, never from a machine integer
    ns |= {2**63 + 1, 2**64, 2**64 + 1}
    ns |= _kernel_edge_ns(primes, (1024, 3072))
    for n in sorted(ns):
        want = [q for q in primes if arith.cullen_mod(n, q) == 0]
        assert list(arith._cullen_divisors_vec(n, primes)) == want, n


def test_vector_kernel_exact_at_the_top_of_its_range(monkeypatch):
    # one 1024-prime block ending at the largest prime below FLOAT_BELOW,
    # so float64 runs at the top of its range
    cut = arith.FLOAT_BELOW
    below = list(sympy.primerange(cut - 30_000, cut))
    assert len(below) > 1024
    table = array("I", below[-1024:])
    # q | C_(q-2) for every odd prime q, so the top prime must be reported
    rng = random.Random(26)
    # 2**64 - 59 has two 32-bit limbs, 2**64 + 1 three
    ns = {1, 2, 3, 96, 139968, 2**64 - 59, 2**64 + 1}
    ns |= {rng.randrange(1, 2**33) for _ in range(10)}
    ns |= {below[-1] - 2}
    found = set()
    for n in sorted(ns | _kernel_edge_ns(table, (0,))):
        want = [q for q in table if arith.cullen_mod(n, q) == 0]
        assert list(arith._cullen_divisors_vec(n, table)) == want, n
        found.update(want)
    assert below[-1] in found
    # a limit at the cut is refused at the call, before any table is sieved
    monkeypatch.setattr(arith, "primes_up_to", lambda limit: pytest.fail("sieved"))
    for limit in (cut, 2**32):
        with pytest.raises(ValueError, match="2\\*\\*26"):
            arith.cullen_divisors(96, limit)


def _cullen_divisors_loop(n, limit):
    return [q for q in arith.primes_up_to(limit) if (n % q * pow(2, n, q) + 1) % q == 0]


def test_cullen_divisors_matches_cullen_mod_loop():
    # 2262 primes: blocks of 1024 and 2048 primes, the second one partial;
    # for every n here below 20011, the first prime past the first block,
    # n mod q is n itself in every later block
    limit = 20_000
    for n in sorted({*range(1, 601), *screen.enumerate_2a3b(1 << 14)}):
        assert list(arith.cullen_divisors(n, limit)) == _cullen_divisors_loop(n, limit), n


def test_cullen_divisors_finds_primes_on_block_edges():
    # q | C_(q-2) for every odd prime q, so some n < q has q | C_n; take
    # the least, for the primes on either side of the first block edges of
    # the default table; 2, the first prime of all, never divides C_n
    primes = arith.primes_up_to(10**6)
    edges = [primes[i] for i in (1, 1023, 1024, 3071, 3072, 7167, 7168)]
    for q in edges:
        n = next(n for n in itertools.count(1) if (n % q * pow(2, n, q) + 1) % q == 0)
        found = list(arith.cullen_divisors(n, 10**6))
        assert q in found and found == _cullen_divisors_loop(n, 10**6), (q, n)


@pytest.mark.parametrize("n,q", [(4374, 7), (8192, 3)])
def test_cullen_divisors_yields_a_square_factor_once(n, q):
    cn = (n << n) + 1
    assert cn % (q * q) == 0
    found = list(arith.cullen_divisors(n, 10**6))
    assert found.count(q) == 1
    assert found == _cullen_divisors_loop(n, 10**6)


def test_cullen_divisors_of_an_empty_table_imports_nothing():
    # below 2 the table is empty: no scan runs, and numpy is never needed
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(arith.__file__).resolve().parent.parent)!r})\n"
        "from cullen_lehmer import arith\n"
        "assert list(arith.cullen_divisors(6, 1)) == []\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "False"


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
