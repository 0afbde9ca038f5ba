import functools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

from cullen_lehmer import arith, screen, structure


def test_enumerate_examples():
    assert screen.enumerate_2a3b(20) == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]
    assert screen.enumerate_2a3b(1) == [1]
    with pytest.raises(ValueError):
        screen.enumerate_2a3b(0)


def test_enumerate_matches_strip_oracle():
    got = set(screen.enumerate_2a3b(20_000))
    for n in range(1, 20_001):
        m = n
        while m % 2 == 0:
            m //= 2
        while m % 3 == 0:
            m //= 3
        assert (m == 1) == (n in got)
    assert screen.enumerate_2a3b(20_000) == sorted(got)


def test_enumerate_count_at_final_bound():
    # frozen regression value, fixed by the brute-force strip oracle above
    assert len(screen.enumerate_2a3b(200_000)) == 113


def test_status_space_cannot_express_success():
    assert screen.STATUSES == {
        "REFUTED_SHAPE",
        "REFUTED_SQUARE",
        "REFUTED_OMEGA",
        "REFUTED_FERMAT",
        "REFUTED_LEAST_PRIME",
        "PRIME_CN",
        "UNDECIDED",
    }
    with pytest.raises(ValueError):
        screen.Verdict(1, "LEHMER_HOLDS", None, "", 0, 0, 0.0)


@pytest.mark.parametrize(
    "n,status,witness",
    [
        (1, "PRIME_CN", None),
        (2, "REFUTED_SQUARE", 3),
        (3, "REFUTED_SQUARE", 5),
        (4, "REFUTED_SHAPE", 13),
        (6, "REFUTED_SHAPE", 11),
        (9, "REFUTED_SHAPE", 11),
        (12, "REFUTED_SHAPE", 19),
        # C_141 is prime, but it cannot have 14 prime factors
        (141, "REFUTED_LEAST_PRIME", 5),
    ],
)
def test_witness_search_examples(n, status, witness):
    v = screen.witness_search(n)
    assert (v.status, v.witness) == (status, witness)


@functools.cache
def _primes_to(limit):
    return tuple(sympy.sieve.primerange(2, limit + 1))


def _recheck_least_prime(v):
    """Re-derive a REFUTED_LEAST_PRIME verdict from its definition: F by
    plain trial division, R = C_n / prod(F), I = R.bit_length() // j."""
    n, a = v.n, v.witness
    cn = n * 2**n + 1
    found = [q for q in _primes_to(v.trial_limit_used) if cn % q == 0]
    assert all(cn % (q * q) and (cn - 1) % (q - 1) == 0 for q in found), n
    rest = cn // math.prod(found)
    j = 14 - len(found)
    i = rest.bit_length() // j
    n1 = n
    while n1 % 2 == 0:
        n1 //= 2
    assert sympy.jacobi_symbol(a, cn) == -1
    assert math.gcd(pow(a, n1 << i, cn) - 1, rest) == 1, n
    # the record alone names I, j and the primes divided out
    assert f"{a}^(n1*2^{i}) - 1" in v.reason and f"= {j} or more" in v.reason
    assert (f"C_{n} / ({'*'.join(map(str, found))})" if found else f"R = C_{n} and") in v.reason


def test_refuted_witnesses_verify_in_bigint(verdicts_500):
    for n, v in verdicts_500.items():
        cn = structure.cullen_value(n)
        assert v.status != "UNDECIDED", n
        if v.status == "REFUTED_SHAPE":
            assert cn % v.witness == 0
            assert (cn - 1) % (v.witness - 1) != 0
        elif v.status == "REFUTED_SQUARE":
            assert cn % (v.witness * v.witness) == 0
        elif v.status == "REFUTED_FERMAT":
            assert math.gcd(v.witness, cn) == 1
            assert pow(v.witness, cn - 1, cn) != 1
        elif v.status == "REFUTED_LEAST_PRIME":
            _recheck_least_prime(v)
        elif v.status == "PRIME_CN":
            assert n == 1 and "proven" in v.reason


def test_undecided_accounts_for_budget(verdicts_500):
    for n, v in verdicts_500.items():
        assert v.status in screen.STATUSES
        assert v.trial_limit_used == screen.DEFAULT_TRIAL_LIMIT
        assert v.rho_budget_used <= arith.DEFAULT_RHO_BUDGET
        if v.status == "UNDECIDED" and "unfactored" in v.reason:
            assert v.rho_budget_used == arith.DEFAULT_RHO_BUDGET


def test_omega_reason_carries_verified_factorization(monkeypatch):
    # with every power of the Proth chain reading 1, the least-prime gcd is R
    # and C_n passes the Fermat stage, so factoring has to decide; the shape
    # witnesses it learns must not be thrown away
    monkeypatch.setattr(arith, "cullen_squarings", lambda n, t, k: 1)
    for n in (37, 62, 96, 100, 104, 108, 122, 124, 132, 158, 196):
        v = screen.witness_search(n)
        cn = structure.cullen_value(n)
        assert v.status == "REFUTED_SHAPE", n
        q = v.witness
        assert q > screen.DEFAULT_TRIAL_LIMIT and cn % q == 0
        assert (cn - 1) % (q - 1) != 0 and sympy.isprime(q)
        assert f"{arith.prime_certainty(q)} prime found by factoring" in v.reason

    v = screen.witness_search(132, rho_budget=10)
    assert (v.status, v.rho_budget_used) == ("UNDECIDED", 10)
    assert "unfactored after 10 rho iterations" in v.reason

    v = screen.witness_search(141)
    assert v.status == "REFUTED_OMEGA"
    assert "(probable primes)" in v.reason
    product = 1
    terms = v.reason.split(" = ", 1)[1].split(" has ")[0]
    for term in terms.split("*"):
        if "^" in term:
            p, e = term.split("^")
            product *= int(p) ** int(e)
        else:
            product *= int(term)
    assert product == structure.cullen_value(141)


def test_screen_set_orders_ascending():
    report = screen.screen_set([12, 6, 9])
    assert [v.n for v in report.verdicts] == [6, 9, 12]
    assert report.counts == {"REFUTED_SHAPE": 3}
    assert report.undecided == []


def test_screen_set_runs_largest_n_first(tmp_path):
    # the results file is in completion order, which serially is the
    # execution order; the report stays ascending
    out = tmp_path / "results.jsonl"
    report = screen.screen_set([6, 12, 9], screen.ScreenConfig(trial_limit=100), output_path=out)
    assert [json.loads(line)["n"] for line in out.read_text().splitlines()] == [12, 9, 6]
    assert [v.n for v in report.verdicts] == [6, 9, 12]


def test_screen_set_persists_and_resumes(tmp_path):
    out = tmp_path / "results.jsonl"
    cfg = screen.ScreenConfig(trial_limit=10_000)
    first = screen.screen_set([1, 2, 3, 4, 6], cfg, output_path=out)
    blob = out.read_bytes()
    assert first.computed == 5 and first.reused == 0

    # a completed run resumes without recomputation and leaves bytes intact
    second = screen.screen_set([1, 2, 3, 4, 6], cfg, output_path=out, resume=True)
    assert second.computed == 0 and second.reused == 5
    assert out.read_bytes() == blob
    assert [v.n for v in second.verdicts] == [1, 2, 3, 4, 6]
    assert {v.n: v.status for v in first.verdicts} == {
        v.n: v.status for v in second.verdicts
    }


def test_screen_set_resume_fills_missing(tmp_path):
    out = tmp_path / "results.jsonl"
    cfg = screen.ScreenConfig(trial_limit=10_000)
    screen.screen_set([2, 4], cfg, output_path=out)
    report = screen.screen_set([2, 3, 4, 6], cfg, output_path=out, resume=True)
    assert report.reused == 2 and report.computed == 2
    assert [v.n for v in report.verdicts] == [2, 3, 4, 6]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert sorted(r["n"] for r in records) == [2, 3, 4, 6]
    assert len({r["config_hash"] for r in records}) == 1


def test_resume_ignores_other_configs_and_torn_lines(tmp_path):
    out = tmp_path / "results.jsonl"
    cfg_a = screen.ScreenConfig(trial_limit=10_000)
    cfg_b = screen.ScreenConfig(trial_limit=20_000)
    screen.screen_set([6], cfg_a, output_path=out)
    with open(out, "a") as fh:
        fh.write('{"n": 9, "status": "REFUTED_SH')  # torn write from a crash
    loaded = screen.load_records(out, screen.config_hash(cfg_a))
    assert set(loaded) == {6}
    report = screen.screen_set([6], cfg_b, output_path=out, resume=True)
    assert report.computed == 1  # other config's record is not reused


# valid JSON that is not a record: not an object, and an object without a status
@pytest.mark.parametrize(
    "line", ["5", '{{"config_hash": "{cfg_hash}", "n": 9}}'], ids=["not-an-object", "no-status"]
)
def test_resume_skips_lines_that_are_not_records(tmp_path, line):
    out = tmp_path / "results.jsonl"
    cfg = screen.ScreenConfig(trial_limit=10_000)
    screen.screen_set([6], cfg, output_path=out)
    cfg_hash = screen.config_hash(cfg)
    with open(out, "a") as fh:
        fh.write(line.format(cfg_hash=cfg_hash) + "\n")
    assert set(screen.load_records(out, cfg_hash)) == {6}
    report = screen.screen_set([6, 9], cfg, output_path=out, resume=True)
    assert report.reused == 1 and report.computed == 1
    assert set(screen.load_records(out, cfg_hash)) == {6, 9}


def test_resume_seals_torn_line_before_appending(tmp_path):
    out = tmp_path / "results.jsonl"
    cfg = screen.ScreenConfig(trial_limit=10_000)
    screen.screen_set([6], cfg, output_path=out)
    with open(out, "a") as fh:
        fh.write('{"n": 9, "status": "REFUTED_SH')
    screen.screen_set([6, 9], cfg, output_path=out, resume=True)
    # the record written after the torn fragment must parse on its own line
    loaded = screen.load_records(out, screen.config_hash(cfg))
    assert set(loaded) == {6, 9}
    again = screen.screen_set([6, 9], cfg, output_path=out, resume=True)
    assert again.computed == 0 and again.reused == 2


def test_persistence_failure_aborts_clearly():
    with pytest.raises(RuntimeError, match="cannot open results file"):
        screen.screen_set([6], output_path="/nonexistent-dir/results.jsonl")


def test_verdicts_independent_of_worker_count():
    ns = screen.enumerate_2a3b(200)
    cfg = screen.ScreenConfig(trial_limit=50_000, rho_budget=20_000)
    solo = screen.screen_set(ns, cfg, workers=1)
    duo = screen.screen_set(ns, cfg, workers=3)
    strip = lambda report: [
        (v.n, v.status, v.witness, v.reason, v.trial_limit_used, v.rho_budget_used)
        for v in report.verdicts
    ]
    assert strip(solo) == strip(duo)


def test_config_hash_tracks_fields():
    a = screen.ScreenConfig()
    b = screen.ScreenConfig(trial_limit=10**5)
    assert screen.config_hash(a) != screen.config_hash(b)
    assert screen.config_hash(a) == screen.config_hash(screen.ScreenConfig())


def test_resume_skips_records_of_other_algorithm_versions(tmp_path, monkeypatch):
    out = tmp_path / "results.jsonl"
    cfg = screen.ScreenConfig(trial_limit=10_000)
    screen.screen_set([6, 9], cfg, output_path=out)
    assert set(screen.load_records(out, screen.config_hash(cfg))) == {6, 9}
    monkeypatch.setattr(screen, "ALGORITHM_VERSION", screen.ALGORITHM_VERSION + 1)
    assert screen.load_records(out, screen.config_hash(cfg)) == {}
    report = screen.screen_set([6, 9], cfg, output_path=out, resume=True)
    assert report.computed == 2 and report.reused == 0


def test_fermat_witnesses_recheck_in_bigint():
    # the least-prime stage decides every C_n the residue scan leaves in
    # (3000, 8000]; re-derive each verdict with plain pow and trial division
    ns = [n for n in screen.enumerate_2a3b(8000) if n > 3000]
    report = screen.screen_set(ns, screen.ScreenConfig(rho_budget=0))
    least = [v for v in report.verdicts if v.status == "REFUTED_LEAST_PRIME"]
    assert [v.n for v in least] == [3072, 3888, 6144, 6912, 7776]
    for v in least:
        _recheck_least_prime(v)


# the Fermat witnesses of the ladder without the least-prime stage
_FERMAT_WITNESSES = {3072: 5, 3888: 13, 6144: 7, 6912: 5, 7776: 5}


def test_least_prime_stage_inconclusive_falls_back_to_fermat(monkeypatch):
    monkeypatch.setattr(screen, "_least_prime_squarings", lambda rest, j, steps: None)
    ns = [n for n in screen.enumerate_2a3b(8000) if n > 3000]
    report = screen.screen_set(ns, screen.ScreenConfig(rho_budget=0))
    fermat = {v.n: v.witness for v in report.verdicts if v.status == "REFUTED_FERMAT"}
    assert fermat == _FERMAT_WITNESSES
    for n, a in fermat.items():
        cn = structure.cullen_value(n)
        assert math.gcd(a, cn) == 1
        assert pow(a, cn - 1, cn) != 1, n
    v = screen.witness_search(141)
    assert v.status == "PRIME_CN" and "proven" in v.reason


@pytest.mark.parametrize("n", [3072, 6144])
def test_inconclusive_gcd_continues_the_same_chain(monkeypatch, n):
    # with no trial division, the small compatible prime of C_n (7 = 3*2 + 1
    # for 3072, 5 = 4 + 1 for 6144) stays in R and divides the early gcd, so
    # the chain must run on from its checkpoint to the Fermat test
    calls = []
    squarings = arith.cullen_squarings
    monkeypatch.setattr(
        arith, "cullen_squarings", lambda m, t, k: calls.append(k) or squarings(m, t, k)
    )
    v = screen.witness_search(n, trial_limit=0)
    assert (v.status, v.witness) == ("REFUTED_FERMAT", _FERMAT_WITNESSES[n])
    cn = structure.cullen_value(n)
    i = cn.bit_length() // 14
    steps = n + arith.v2(n) - 1
    assert calls == [i, steps - i]
    assert math.gcd(pow(v.witness, (n >> arith.v2(n)) << i, cn) - 1, cn) > 1
    assert pow(v.witness, cn - 1, cn) != 1


@pytest.mark.parametrize("found_count", [0, 1, 5, 13])
def test_least_prime_lemma_never_fires_on_its_premise(found_count):
    # any squarefree N = prod(F) * R, with R a product of at least
    # j = 14 - |F| distinct primes r = 3^e*2^i + 1 (e <= 12, so m | n1 = 3^12),
    # has the least prime of R in gcd(a^(n1*2^I) - 1, R) for every base a
    # coprime to N, with I from the screen's own bound; no Cullen number here
    rng = random.Random(found_count)
    n1 = 3**12
    shaped = sorted(
        r
        for e in range(13)
        for i in range(1, 300)
        if (r := 3**e * 2**i + 1) > 3 and sympy.isprime(r)
    )
    small = [r for r in shaped if r < 2**16]
    large = [r for r in shaped if r >= 2**16]
    j = 14 - found_count
    for trial in range(12):
        found = rng.sample(small, found_count)
        size = j + rng.randrange(3)
        if trial % 2:
            # neighbours in size keep the least prime's i close to I
            start = rng.randrange(len(large) - size)
            picked = large[start : start + size]
        else:
            picked = rng.sample(large, size)
        rest = math.prod(picked)
        big_n = math.prod(found) * rest
        k = screen._least_prime_squarings(rest, j, 10**9)
        assert k == rest.bit_length() // j
        least = min(picked)
        assert arith.v2(least - 1) <= k
        bases = [a for a in sympy.primerange(2, 60) if big_n % a][:5]
        assert len(bases) == 5
        for a in bases:
            g = math.gcd(pow(a, n1 << k, big_n) - 1, rest)
            assert g > 1 and g % least == 0, (found_count, trial, a)


# Residue-only verdicts at trial limit 10^7 for all 113 n = 2^a*3^b < 200,000,
# pinned from the uint64-only numpy kernel: n -> least witness
_RESIDUE_SHAPE = {
    4: 13, 6: 11, 8: 683, 9: 11, 12: 19, 16: 61681, 18: 11, 24: 11, 27: 29, 32: 1777,
    48: 379, 54: 29, 72: 41, 81: 83, 144: 53, 162: 11, 192: 11383, 216: 937, 243: 59,
    256: 97, 288: 379, 384: 246223, 432: 2953, 486: 971, 512: 501203, 576: 1117,
    972: 362293, 1024: 397, 1152: 11, 1296: 41, 1458: 108643, 1536: 59, 1944: 251, 2048: 59,
    2187: 439, 2304: 101, 3456: 31, 4096: 504337, 4608: 137, 5184: 92693, 6144: 1763857,
    6561: 11, 8748: 32719, 9216: 6841, 12288: 307, 13122: 4457, 13824: 31, 15552: 52501,
    16384: 13, 17496: 11, 19683: 11, 20736: 281, 23328: 21577, 24576: 35339, 27648: 31,
    31104: 79, 32768: 1049057, 34992: 132511, 52488: 11, 55296: 50363, 62208: 231067,
    65536: 5441, 69984: 11, 73728: 465163, 78732: 31, 82944: 12049, 93312: 4153, 98304: 103,
    104976: 9137, 110592: 3511, 118098: 6571, 124416: 11, 131072: 43, 147456: 4801,
    165888: 89, 177147: 11, 186624: 29, 196608: 37,
}
_RESIDUE_SQUARE = {
    2: 3, 3: 5, 36: 37, 64: 5, 128: 3, 864: 5, 1728: 7, 4374: 7, 5832: 19, 8192: 3,
    11664: 5, 36864: 5, 39366: 5, 59049: 17, 157464: 5,
}
_RESIDUE_UNDECIDED = [
    1, 96, 108, 324, 648, 729, 768, 2592, 2916, 3072, 3888, 6912, 7776, 10368, 18432, 26244,
    41472, 46656, 49152, 139968,
]


def test_residue_only_verdicts_at_ten_million():
    # a table past VECTOR_ABOVE: every scan runs the numpy kernel, in two
    # workers forked after the parent imported numpy
    want = {n: (screen.REFUTED_SHAPE, q) for n, q in _RESIDUE_SHAPE.items()}
    want |= {n: (screen.REFUTED_SQUARE, q) for n, q in _RESIDUE_SQUARE.items()}
    want |= {n: (screen.UNDECIDED, None) for n in _RESIDUE_UNDECIDED}
    assert (len(_RESIDUE_SHAPE), len(_RESIDUE_SQUARE), len(want)) == (78, 15, 113)
    cfg = screen.ScreenConfig(trial_limit=10**7, cn_cap=0)
    report = screen.screen_set(screen.enumerate_2a3b(199_999), cfg, workers=2)
    assert {v.n: (v.status, v.witness) for v in report.verdicts} == want


@pytest.mark.parametrize(
    "n,status,witness",
    [(6144, "REFUTED_SHAPE", 1763857), (32768, "REFUTED_SHAPE", 1049057), (96, "UNDECIDED", None)],
)
def test_witnesses_only_the_vector_kernel_reaches(n, status, witness):
    # no witness for these n lies below the default trial limit, so only
    # the numpy kernel of cullen_divisors scans far enough to find one
    v = screen.witness_search(n, 2 * 10**6, cn_cap=0)
    assert (v.status, v.witness) == (status, witness)
    if witness is not None:
        assert witness > screen.DEFAULT_TRIAL_LIMIT
        assert ((n << n) + 1) % witness == 0
        assert (n << n) % (witness - 1) != 0


def test_trial_limit_must_fit_uint32():
    for limit in (-1, 2**32):
        with pytest.raises(ValueError, match="trial limit"):
            screen.ScreenConfig(trial_limit=limit)
    assert screen.ScreenConfig(trial_limit=2**32 - 1).trial_limit == 2**32 - 1


def test_default_screen_never_imports_numpy():
    # importing numpy adds about 12 MB to a process; a screen at the default
    # trial limit with every n <= GCD_MAX_N stays on the gcd kernel and must
    # not pay that
    src = Path(screen.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from cullen_lehmer import screen\n"
        "report = screen.screen_set(screen.enumerate_2a3b(3000), screen.ScreenConfig())\n"
        "assert len(report.verdicts) == 52\n"
        "big = [n for n in screen.enumerate_2a3b(12000) if n > 3000]\n"
        "report = screen.screen_set(big, screen.ScreenConfig(rho_budget=0))\n"
        "assert len(report.verdicts) == 17\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, check=True
    )
    assert out.stdout.strip() == "False"
