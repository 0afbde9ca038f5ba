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


@pytest.mark.parametrize(
    "x,base,exp",
    [(729, 3, 6), (27, 3, 3), (15, 15, 1), (4, 2, 2), (2**20, 2, 20), (36, 6, 2)],
)
def test_power_signature_examples(x, base, exp):
    assert arith.power_signature(x) == arith.PowerSignature(base, exp)


def test_power_signature_rejects_one():
    with pytest.raises(ValueError):
        arith.power_signature(1)


def _power_signature_descending(x):
    """The signature by trying every exponent from x.bit_length() - 1 down;
    the first exact root has the maximal exponent."""
    for w in range(x.bit_length() - 1, 1, -1):
        root, exact = arith.int_nth_root(x, w)
        if exact:
            return arith.PowerSignature(root, w)
    return arith.PowerSignature(x, 1)


def test_power_signature_matches_descending_exponents():
    # 2^2003 and 3^1009 have prime exponents above 1000, 6^35 a root taken twice
    for x in [*range(2, 200_001), 2**2003, 3**1009, 6**35]:
        assert arith.power_signature(x) == _power_signature_descending(x), x


def test_power_signature_exhaustive_small():
    for x in range(2, 50_000):
        sig = arith.power_signature(x)
        assert sig.base**sig.exponent == x
        if sig.exponent > 1:
            assert arith.power_signature(sig.base).exponent == 1


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
    # reaches Proth's test and pollard_rho its seeded walk; a limit of 640
    # digits makes any int -> str conversion of it raise
    cn = (3075 << 3075) + 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert arith.is_prime(cn) is False
        assert arith.pollard_rho(cn, 10) is None
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


def _segment_edges_past_vector_above():
    # the sieve's segments start at the odd numbers 2*k*SIEVE_SEGMENT + 1
    span = 2 * arith.SIEVE_SEGMENT
    edge = -(-arith.VECTOR_ABOVE // span) * span
    return [edge - 1, edge, edge + 1, edge + 2, edge + span + 1]


# past VECTOR_ABOVE each segment's primes are read out with numpy; 1009 is
# the largest prime sieving a table to 1009^2
@pytest.mark.parametrize(
    "limit",
    [
        *(0, 1, 2, 3, 100, 7919, 30_000),
        arith.VECTOR_ABOVE + 1,
        *_segment_edges_past_vector_above(),
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


def test_vector_kernel_exact_on_both_sides_of_the_float_cut():
    # tables[0] is one 1024-prime block ending at the largest prime below
    # FLOAT_BELOW, so it runs in float64 at the top of its range; tables[1]
    # has a float64 block of 1024 primes below the cut, then a uint64 block
    # that mixes the next 400 with primes above the cut and the largest
    # primes below 2**32
    cut = arith.FLOAT_BELOW
    below = list(sympy.primerange(cut - 30_000, cut))
    above = list(sympy.primerange(cut, cut + 10_000))
    top = list(sympy.primerange(2**32 - 8_000, 2**32))
    assert len(below) > 1024 + 400 and above and top
    tables = [array("I", below[-1024:]), array("I", below[-1424:] + above + top)]
    # q | C_(q-2) for every odd prime q, so each path must report a hit: the
    # first two in float64, the rest in uint64
    hit_primes = [below[-1424 + 1023], below[-1], above[0], above[-1], top[-1]]
    rng = random.Random(26)
    ns = {1, 2, 3, 96, 139968, 2**64 + 1, *(rng.randrange(1, 2**33) for _ in range(10))}
    ns |= {q - 2 for q in hit_primes}
    hits = [set(), set()]
    for table, found, block_starts in zip(tables, hits, [(0,), (0, 1024)]):
        # for tables[1], the n mod q edges fall on both paths
        for n in sorted(ns | _kernel_edge_ns(table, block_starts)):
            want = [q for q in table if arith.cullen_mod(n, q) == 0]
            assert list(arith._cullen_divisors_vec(n, table)) == want, n
            found.update(want)
    assert below[-1] in hits[0] and set(hit_primes) <= hits[1]


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


@pytest.mark.parametrize("x,factors", [(1537, {29, 53}), (4609, {11, 419}), (25, {5})])
def test_pollard_rho_examples(x, factors):
    assert arith.pollard_rho(x) in factors


def test_pollard_rho_factor_divides():
    rng = random.Random(5)
    for _ in range(300):
        x = rng.randrange(4, 10**12)
        if arith.is_prime(x):
            continue
        f = arith.pollard_rho(x, budget=10**5)
        if f is not None:
            assert 1 < f < x and x % f == 0


def test_pollard_rho_deterministic():
    x = 10**20 + 39  # composite
    assert arith.pollard_rho(x) == arith.pollard_rho(x)


def test_pollard_rho_budget_exhaustion_is_none():
    # a semiprime with ~2^36 smallest factor cannot fall to a budget of 50
    p, q = 68720001023, 68718952447
    assert arith.pollard_rho(p * q, budget=50) is None


def test_bounded_factor_complete_and_partial():
    x = 2**4 * 3**3 * 7919 * 104729
    res = arith.bounded_factor(x, arith.primes_up_to(100))
    assert res.complete and res.rho_used >= 0
    assert res.factors == {2: 4, 3: 3, 7919: 1, 104729: 1}

    hard = (2**89 - 1) * (2**107 - 1)  # both prime, far beyond any rho budget here
    res = arith.bounded_factor(hard * 9, arith.primes_up_to(10), rho_budget=100)
    assert not res.complete
    assert res.factors[3] == 2
    assert res.cofactor == hard
    assert res.rho_used <= 100


def test_bounded_factor_leaves_an_unprovable_prime_unfactored():
    # 2^127 - 1 is prime but not a Proth number, so is_prime cannot prove
    # it; rho cannot split it, and it stays in the cofactor
    res = arith.bounded_factor(2**127 - 1, rho_budget=100)
    assert not res.complete
    assert res.factors == {}
    assert res.cofactor == 2**127 - 1
