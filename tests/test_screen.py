import json
import multiprocessing
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from cullen_lehmer import arith, bounds, screen, structure


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
        "REFUTED_COUNT",
        "UNDECIDED",
    }
    with pytest.raises(ValueError):
        screen.Verdict(1, "LEHMER_HOLDS", None, "", 0, 0.0)


def _residue_witness(n, limit):
    """(status, q) for the first prime q from arith.cullen_divisors(n, limit)
    that fails the shape or the squarefree condition, each q re-checked in
    plain big ints; None when every q passes both."""
    cn = (n << n) + 1
    for q in arith.cullen_divisors(n, limit):
        assert cn % q == 0, (n, q)
        if (n << n) % (q - 1):
            return "REFUTED_SHAPE", q
        if cn % (q * q) == 0:
            return "REFUTED_SQUARE", q
    return None


@pytest.mark.parametrize(
    "n,status,witness",
    [
        # C_1 = 3 = F_0 and n1 = 1: at most one prime factor
        (1, "REFUTED_COUNT", 1),
        (2, "REFUTED_SQUARE", 3),
        (3, "REFUTED_SQUARE", 5),
        (4, "REFUTED_SHAPE", 13),
        (6, "REFUTED_SHAPE", 11),
        (9, "REFUTED_SHAPE", 11),
        (12, "REFUTED_SHAPE", 19),
        # C_141 is prime; n1 = 3*47 and no F_gamma divides it, so at most 2
        (141, "REFUTED_COUNT", 2),
    ],
)
def test_witness_search_examples(n, status, witness):
    # the count bound refutes every n here before any residue scan; the
    # least residue witness below 10^6 of the n that have one is kept as
    # data, and 1 and 141 have none
    v = screen.witness_search(n)
    assert v.status == "REFUTED_COUNT"
    _recheck_count(v)
    if status == "REFUTED_COUNT":
        assert v.witness == witness
        assert _residue_witness(n, 10**6) is None
    else:
        assert _residue_witness(n, 10**6) == (status, witness)


def test_witness_search_flags_small_n():
    # n < 3 lies outside the range the exclusion arguments cover, and the
    # verdict's reason says so; from n = 3 on it does not
    note = "n < 3 is outside the exclusion arguments"
    assert note in screen.witness_search(1).reason
    assert note in screen.witness_search(2).reason
    assert note not in screen.witness_search(3).reason


def _omega(x):
    """Omega(x), the prime factors of x >= 1 with multiplicity, by trial
    division."""
    k, p = 0, 2
    while p * p <= x:
        while x % p == 0:
            x //= p
            k += 1
        p += 1
    return k + (x > 1)


def _recheck_count(v):
    """Re-derive a REFUTED_COUNT verdict from its definition, never through
    structure.count_bound: Omega(n1) by trial division, and F_gamma | C_n by
    pow(2, n, F_gamma) for every F_gamma <= C_n."""
    n = v.n
    alpha = arith.v2(n)
    omega = _omega(n >> alpha)
    gammas = []
    for g in range((n + alpha).bit_length()):
        f = (1 << (1 << g)) + 1
        if (n % f * pow(2, n, f) + 1) % f == 0:
            gammas.append(g)
    assert v.status == "REFUTED_COUNT", n
    assert v.witness == omega + len(gammas) < 14, n
    # the record alone names Omega(n1) and the gammas counted
    assert f"<= {omega} + {len(gammas)} = {v.witness} < 14" in v.reason, n
    assert v.reason.split(";")[0].endswith(f"gamma = {', '.join(map(str, gammas)) or 'none'}"), n


def test_refuted_witnesses_verify_in_bigint(verdicts_500):
    for n, v in verdicts_500.items():
        cn = structure.cullen_value(n)
        assert v.status != "UNDECIDED", n
        if v.status == "REFUTED_SHAPE":
            assert cn % v.witness == 0
            assert (cn - 1) % (v.witness - 1) != 0
        elif v.status == "REFUTED_SQUARE":
            assert cn % (v.witness * v.witness) == 0
        else:
            _recheck_count(v)


def test_undecided_accounts_for_budget(verdicts_500):
    for n, v in verdicts_500.items():
        assert v.status in screen.STATUSES
        assert v.trial_limit_used == screen.DEFAULT_TRIAL_LIMIT


def test_screen_set_orders_ascending():
    report = screen.screen_set([12, 6, 9])
    assert [v.n for v in report.verdicts] == [6, 9, 12]
    assert report.counts == {"REFUTED_COUNT": 3}
    assert report.undecided == []


def test_results_file_is_ascending(tmp_path):
    # verdicts are made, written and reported one at a time in ascending n,
    # count verdicts and residue scans (1594323, 7971615: bound 14) alike
    out = tmp_path / "results.jsonl"
    ns = [7971615, 6, 1594323, 12, 9]
    seen = []
    report = screen.screen_set(
        ns,
        screen.ScreenConfig(trial_limit=100),
        output_path=out,
        progress=lambda k, total, v: seen.append((k, total, v.n)),
    )
    want = sorted(ns)
    assert [json.loads(line)["n"] for line in out.read_text().splitlines()] == want
    assert seen == [(k, 5, n) for k, n in enumerate(want, 1)]
    assert [v.n for v in report.verdicts] == want


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


def test_resume_skips_records_whose_n_is_no_int(tmp_path):
    # true == 1 and 5.0 == 5, but a record must name its n as an int, as
    # ScreenConfig requires of trial_limit; otherwise the screen would show
    # n=True and n=5.0
    out = tmp_path / "results.jsonl"
    cfg = screen.ScreenConfig(trial_limit=10_000)
    cfg_hash = screen.config_hash(cfg)
    lines = []
    for n, alias in ((1, True), (5, 5.0)):
        d = screen.record_dict(screen.witness_search(n, cfg), cfg_hash)
        lines.append(json.dumps({**d, "n": alias}) + "\n")
    out.write_text("".join(lines))
    assert screen.load_records(out, cfg_hash) == {}
    report = screen.screen_set([1, 5], cfg, output_path=out, resume=True)
    assert (report.reused, report.computed) == (0, 2)
    assert [type(v.n) for v in report.verdicts] == [int, int]
    assert set(screen.load_records(out, cfg_hash)) == {1, 5}


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


def _strip(report):
    return [(v.n, v.status, v.witness, v.reason, v.trial_limit_used) for v in report.verdicts]


def test_verdicts_independent_of_worker_count(monkeypatch):
    # screen_set keeps workers only because the benchmark harness passes
    # it; the screen runs in this process whatever its value
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    cfg = screen.ScreenConfig(trial_limit=50_000)
    # 1594323 and 7971615 have count bound 14, so they reach the residue scan
    ns = [*screen.enumerate_2a3b(200), 1594323, 7971615]
    solo = _strip(screen.screen_set(ns, cfg))
    for workers in (1, 2, 64):
        assert _strip(screen.screen_set(ns, cfg, workers=workers)) == solo


def test_count_bound_taken_once_per_value(tmp_path, monkeypatch):
    # logged to a file, so a call in any process counts; 1594323 and
    # 7971615 reach the residue scan, 6 does not
    log = tmp_path / "calls"
    real = structure.count_bound

    def logged(n):
        with open(log, "a") as fh:
            fh.write(f"{n}\n")
        return real(n)

    monkeypatch.setattr(structure, "count_bound", logged)
    ns = [6, 1594323, 7971615]
    screen.screen_set(ns, screen.ScreenConfig(trial_limit=100), workers=2)
    assert sorted(map(int, log.read_text().split())) == ns


def test_failed_table_build_leaves_results_file_unchanged(tmp_path, monkeypatch):
    out = tmp_path / "results.jsonl"
    cfg = screen.ScreenConfig(trial_limit=100)
    screen.screen_set([6], cfg, output_path=out)
    before = out.read_bytes()

    def broken(limit):
        raise ValueError("no table")

    monkeypatch.setattr(arith, "primes_up_to", broken)
    # 1594323 has count bound 14, so it reaches the scan and needs the table
    with pytest.raises(ValueError, match="no table"):
        screen.screen_set([6, 1594323], cfg, output_path=out)
    assert out.read_bytes() == before


def test_config_hash_tracks_fields():
    a = screen.ScreenConfig()
    b = screen.ScreenConfig(trial_limit=10**5)
    assert screen.config_hash(a) != screen.config_hash(b)
    assert screen.config_hash(a) == screen.config_hash(screen.ScreenConfig())


def test_retired_factoring_budgets_accept_only_zero():
    # the benchmark harness still spells its configs with these two names
    for budget in ({"rho_budget": 1}, {"cn_cap": 1}):
        with pytest.raises(ValueError, match="factoring budget"):
            screen.ScreenConfig(**budget)
    cfg, h = screen.ScreenConfig, screen.config_hash
    assert h(cfg(rho_budget=0)) == h(cfg())
    assert h(cfg(cn_cap=0, trial_limit=10**7)) == h(cfg(trial_limit=10**7))


def test_records_carry_no_rho_budget_used():
    v = screen.witness_search(6)
    assert v.rho_budget_used == 0
    assert "rho_budget_used" not in screen.record_dict(v, "hash")


def test_resume_skips_a_version_4_results_file(tmp_path):
    # a record written by algorithm version 4, which had the factoring stage
    out = tmp_path / "results.jsonl"
    out.write_text(
        '{"config_hash": "c8185f75c654", "elapsed": 7.4e-05, "n": 6, "reason": "11 | C_6 but '
        'q - 1 = 5*2^1 does not divide n*2^n: m = 5 does not divide n1 = 3", '
        '"rho_budget_used": 0, "status": "REFUTED_SHAPE", "trial_limit_used": 10000, '
        '"witness": 11}\n'
    )
    cfg = screen.ScreenConfig(trial_limit=10_000)
    assert screen.load_records(out, screen.config_hash(cfg)) == {}
    report = screen.screen_set([6], cfg, output_path=out, resume=True)
    assert report.computed == 1 and report.reused == 0


def test_resume_skips_records_of_other_algorithm_versions(tmp_path, monkeypatch):
    out = tmp_path / "results.jsonl"
    cfg = screen.ScreenConfig(trial_limit=10_000)
    screen.screen_set([6, 9], cfg, output_path=out)
    assert set(screen.load_records(out, screen.config_hash(cfg))) == {6, 9}
    monkeypatch.setattr(screen, "ALGORITHM_VERSION", screen.ALGORITHM_VERSION + 1)
    assert screen.load_records(out, screen.config_hash(cfg)) == {}
    report = screen.screen_set([6, 9], cfg, output_path=out, resume=True)
    assert report.computed == 2 and report.reused == 0


@pytest.mark.parametrize(
    "ns", [screen.enumerate_2a3b(199_999), range(1, 3001)], ids=["pow23-200000", "range-3000"]
)
def test_count_verdicts_recheck_independently(ns):
    # the full run and every n <= 3000, as the CLI's --set pow23 and
    # --set range screen them: the count bound decides every value, with
    # C_n never built and n1 factored by trial division alone, and each
    # verdict re-derives from its definition
    report = screen.screen_set(list(ns))
    assert report.counts == {"REFUTED_COUNT": len(ns)}
    for v in report.verdicts:
        _recheck_count(v)


@pytest.mark.parametrize("n", [7_971_615, 19_131_876])
def test_count_bound_of_fourteen_stays_undecided(n):
    # 3^13*5 and 4*3^14 have Omega(n1) = 14, the Lehmer minimum, and no
    # residue witness below the default trial limit
    assert structure.count_bound(n).bound == 14
    v = screen.witness_search(n)
    assert v.status == "UNDECIDED"
    assert v.reason == "no witness below 1000000 and count bound 14 >= 14"


@pytest.mark.parametrize(
    "n,divisors,reason",
    [
        (
            1594323,
            [5, 367019],
            "367019 | C_1594323 but q - 1 = 183509*2^1 does not divide n*2^n: "
            "m = 183509 does not divide n1 = 1594323",
        ),
        (
            97261323672455430408,
            [6563],
            "6563 | C_97261323672455430408 but q - 1 = 3281*2^1 does not divide n*2^n: "
            "m = 3281 does not divide n1 = 12157665459056928801",
        ),
    ],
    ids=["3^13", "3^40*8"],
)
def test_residue_scan_tests_each_divisor_by_shape_divides(monkeypatch, n, divisors, reason):
    # 3^13 and 3^40*8 pass the count stage; the scan tests every divisor it
    # yields by structure.shape_divides.  5 = 1*2^2 + 1 passes the shape
    # test for 3^13 and 25 does not divide its C_n, so the scan goes on
    yielded, shaped = [], []

    def divisors_seen(*args):
        for q in real_divisors(*args):
            yielded.append(q)
            yield q

    def shape_seen(shape, n):
        shaped.append(shape.p)
        return real_shape(shape, n)

    real_divisors, real_shape = arith.cullen_divisors, structure.shape_divides
    monkeypatch.setattr(arith, "cullen_divisors", divisors_seen)
    monkeypatch.setattr(structure, "shape_divides", shape_seen)
    v = screen.witness_search(n)
    assert (v.status, v.witness, v.reason) == ("REFUTED_SHAPE", divisors[-1], reason)
    assert yielded == shaped == divisors


def test_unprovable_prime_n1_is_refuted_by_count():
    # an 82-bit prime above the deterministic Miller-Rabin limit that is not
    # a Proth number: its primality is not proven, so it stays in the
    # cofactor, whose prime factors all exceed 2^16, and counts
    # (82 - 1) // 16 = 5; no F_gamma divides its C_n
    n = 3317044064679887385962561
    v = screen.witness_search(n)
    assert (v.status, v.witness) == ("REFUTED_COUNT", 5)
    assert v.reason == (
        f"a Lehmer C_{n} has at most Omega(n1) + #{{gamma : F_gamma | C_{n}}} <= 5 + 0 = 5 < 14 "
        f"distinct prime factors: n1 = {n}, gamma = none"
    )


def test_proth_prime_n1_is_refuted_by_count():
    # a 278-bit Proth prime: only Proth's theorem in is_prime proves it
    # prime, so it counts 1 and, with F_0 = 3 | C_n, gives bound 2; left
    # unproven it would count (278 - 1) // 16 = 17, bound 18 >= 14, and go on
    # to the residue scan
    n = 3 * 2**276 + 1
    assert n > arith._DET_MR_LIMIT and arith.is_prime(n)
    assert structure.count_bound(n) == structure.CountBound(1, (0,))
    v = screen.witness_search(n)
    assert (v.status, v.witness) == ("REFUTED_COUNT", 2)
    assert v.reason.endswith(f"<= 1 + 1 = 2 < 14 distinct prime factors: n1 = {n}, gamma = 0")


# n -> count bound of all 113 n = 2^a*3^b < 200,000, from sympy.factorint
# and C_n % F_gamma in big ints; at most 11, so every one is REFUTED_COUNT
_COUNT_BOUND = {
    1: 1, 2: 1, 3: 2, 4: 1, 6: 2, 8: 1, 9: 2, 12: 1, 16: 1, 18: 2, 24: 2, 27: 3, 32: 1, 36: 2,
    48: 1, 54: 3, 64: 1, 72: 2, 81: 4, 96: 1, 108: 3, 128: 1, 144: 3, 162: 4, 192: 1, 216: 3,
    243: 6, 256: 1, 288: 3, 324: 6, 384: 2, 432: 3, 486: 6, 512: 1, 576: 2, 648: 4, 729: 6, 768: 1,
    864: 4, 972: 5, 1024: 1, 1152: 2, 1296: 4, 1458: 6, 1536: 1, 1728: 3, 1944: 6, 2048: 1,
    2187: 7, 2304: 3, 2592: 4, 2916: 6, 3072: 1, 3456: 3, 3888: 5, 4096: 1, 4374: 7, 4608: 2,
    5184: 6, 5832: 6, 6144: 2, 6561: 8, 6912: 3, 7776: 5, 8192: 1, 8748: 7, 9216: 2, 10368: 4,
    11664: 7, 12288: 1, 13122: 8, 13824: 4, 15552: 5, 16384: 1, 17496: 7, 18432: 2, 19683: 10,
    20736: 4, 23328: 6, 24576: 1, 26244: 9, 27648: 3, 31104: 6, 32768: 1, 34992: 7, 36864: 3,
    39366: 10, 41472: 4, 46656: 6, 49152: 1, 52488: 8, 55296: 3, 59049: 11, 62208: 5, 65536: 1,
    69984: 8, 73728: 3, 78732: 9, 82944: 5, 93312: 7, 98304: 2, 104976: 8, 110592: 3, 118098: 10,
    124416: 5, 131072: 1, 139968: 7, 147456: 2, 157464: 10, 165888: 4, 177147: 11, 186624: 7,
    196608: 1,
}


def test_residue_only_verdicts_at_ten_million():
    # a trial limit past VECTOR_ABOVE changes no verdict: the count bound
    # refutes all 113 values before any residue scan, so no scan and no
    # worker runs
    assert len(_COUNT_BOUND) == 113
    cfg = screen.ScreenConfig(trial_limit=10**7)
    report = screen.screen_set(screen.enumerate_2a3b(199_999), cfg)
    want = {n: (screen.REFUTED_COUNT, k) for n, k in _COUNT_BOUND.items()}
    assert {v.n: (v.status, v.witness) for v in report.verdicts} == want


def test_default_verdicts_up_to_twenty_thousand():
    want = {n: (screen.REFUTED_COUNT, k) for n, k in _COUNT_BOUND.items() if n <= 20_000}
    assert len(want) == 77
    report = screen.screen_set(screen.enumerate_2a3b(20_000), screen.ScreenConfig())
    assert {v.n: (v.status, v.witness) for v in report.verdicts} == want


# The residue witnesses of the n = 2^a*3^b: n -> the first prime q from
# arith.cullen_divisors that fails the shape or squarefree condition.  The
# ladder decides every one of these n by its count bound before a scan
# runs, so these are kept as checked data: a second refutation of each,
# which rests on phi(C_n) | C_n - 1 alone, not on omega >= 14.  At trial
# limit 10^6 for the 77 n <= 20000 (16 have none) ...
_DEFAULT_SHAPE = {
    4: 13, 6: 11, 8: 683, 9: 11, 12: 19, 16: 61681, 18: 11, 24: 11, 27: 29, 32: 1777, 48: 379,
    54: 29, 72: 41, 81: 83, 144: 53, 162: 11, 192: 11383, 216: 937, 243: 59, 256: 97, 288: 379,
    384: 246223, 432: 2953, 486: 971, 512: 501203, 576: 1117, 972: 362293, 1024: 397, 1152: 11,
    1296: 41, 1458: 108643, 1536: 59, 1944: 251, 2048: 59, 2187: 439, 2304: 101, 3456: 31,
    4096: 504337, 4608: 137, 5184: 92693, 6561: 11, 8748: 32719, 9216: 6841, 12288: 307,
    13122: 4457, 13824: 31, 15552: 52501, 16384: 13, 17496: 11, 19683: 11,
}
_DEFAULT_SQUARE = {
    2: 3, 3: 5, 36: 37, 64: 5, 128: 3, 864: 5, 1728: 7, 4374: 7, 5832: 19, 8192: 3, 11664: 5,
}
# ... and at trial limit 10^7 for all 113 n < 200,000 (20 have none)
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


@pytest.mark.parametrize(
    "limit,n_max,shape,square",
    [
        (10**6, 20_000, _DEFAULT_SHAPE, _DEFAULT_SQUARE),
        (10**7, 199_999, _RESIDUE_SHAPE, _RESIDUE_SQUARE),
    ],
    ids=["1e6", "1e7"],
)
def test_residue_witnesses_are_kept_as_checked_data(limit, n_max, shape, square):
    want = {n: ("REFUTED_SHAPE", q) for n, q in shape.items()}
    want |= {n: ("REFUTED_SQUARE", q) for n, q in square.items()}
    ns = screen.enumerate_2a3b(n_max)
    assert (len(ns), len(want)) == {10**6: (77, 61), 10**7: (113, 93)}[limit]
    assert {n: _residue_witness(n, limit) for n in ns} == {n: want.get(n) for n in ns}


@pytest.mark.parametrize(
    "n,status,witness",
    [(6144, "REFUTED_SHAPE", 1763857), (32768, "REFUTED_SHAPE", 1049057), (96, "REFUTED_COUNT", 1)],
)
def test_witnesses_only_the_vector_kernel_reaches(n, status, witness):
    # no residue witness for these n lies below the default trial limit;
    # a scan to 2*10^6 finds one for 6144 and 32768, none for 96.  The
    # screen at that limit decides each by its count bound all the same
    limit = 2 * 10**6
    v = screen.witness_search(n, screen.ScreenConfig(trial_limit=limit))
    assert (v.status, v.witness) == ("REFUTED_COUNT", _COUNT_BOUND[n])
    if status == "REFUTED_SHAPE":
        assert witness > screen.DEFAULT_TRIAL_LIMIT
        assert _residue_witness(n, limit) == (status, witness)
    else:
        assert v.witness == witness and _residue_witness(n, limit) is None


def test_trial_limit_must_fit_uint32():
    # the residue kernel is exact in float64 only for primes below 2**26
    for limit in (-1, 2**26, 2**32):
        with pytest.raises(ValueError, match="trial limit"):
            screen.ScreenConfig(trial_limit=limit)
    assert screen.ScreenConfig(trial_limit=2**26 - 1).trial_limit == 2**26 - 1


def _loaded_after(modules: tuple[str, ...], run: str, *flags: str) -> list[str]:
    """Those of modules that a fresh interpreter, started with flags, has in
    sys.modules after run, with screen imported."""
    src = Path(screen.__file__).resolve().parent.parent
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from cullen_lehmer import screen\n"
        f"{run}"
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"
    )
    argv = [sys.executable, *flags, "-c", code]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _imported_after(module: str, run: str) -> bool:
    """Whether a fresh interpreter has module in sys.modules after run,
    with screen imported."""
    return _loaded_after((module,), run) == [module]


def test_default_screen_never_imports_numpy():
    # importing numpy adds about 12 MB to a process; the count bound decides
    # the default full run before any residue scan, so it must not pay that
    assert not _imported_after(
        "numpy",
        "report = screen.screen_set(screen.enumerate_2a3b(199_999), screen.ScreenConfig())\n"
        "assert report.counts == {'REFUTED_COUNT': 113}\n",
    )


def test_no_screen_imports_multiprocessing():
    # the screen runs in one process, so it never pays multiprocessing's
    # import, whether or not a value reaches the residue scan
    assert not _imported_after(
        "multiprocessing",
        "import cullen_lehmer.cli\n"
        "report = screen.screen_set(screen.enumerate_2a3b(199_999), screen.ScreenConfig())\n"
        "assert len(report.verdicts) == 113\n",
    )
    # 1594323 and 7971615 have count bound 14, so both reach the scan; at
    # trial limit 0 the scan is empty and both stay undecided
    for limit in (0, 100):
        assert not _imported_after(
            "multiprocessing",
            "report = screen.screen_set([1594323, 7971615],"
            f" screen.ScreenConfig(trial_limit={limit}), workers=2)\n"
            "assert len(report.verdicts) == 2\n",
        )


# Modules no cascade or default screen needs: dataclasses imports inspect,
# random is imported by no module of the package, hashlib loads OpenSSL's
# libcrypto, and decimal serves only near-boundary comparisons, which the
# cascade never makes.
COLD_START_UNUSED = ("dataclasses", "inspect", "random", "csv", "hashlib", "_hashlib", "decimal")


def test_cold_start_imports_no_unused_module(tmp_path):
    # -S leaves out site, whose .pth files may import random at start-up
    # on their own; the guard is about what the package imports.  Writing
    # and resuming a results file builds and compares the config key
    out = str(tmp_path / "results.jsonl")
    run = (
        "import contextlib, io\n"
        "from cullen_lehmer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['bounds']) == 0\n"
        "    assert cli.main(['exceptional', '--n-max', '200000']) == 0\n"
        "ns = screen.enumerate_2a3b(199_999)\n"
        f"report = screen.screen_set(ns, output_path={out!r})\n"
        "assert report.counts == {'REFUTED_COUNT': 113}\n"
        f"report = screen.screen_set(ns, output_path={out!r}, resume=True)\n"
        "assert (report.reused, report.computed) == (113, 0)\n"
    )
    assert _loaded_after(COLD_START_UNUSED, run, "-S") == []
    # a comparison inside the relative 1e-9 band (test_bounds covers its
    # value) loads decimal: its import is deferred to that branch
    run = (
        "import math\n"
        "from cullen_lehmer import bounds, cli\n"
        "assert 'decimal' not in sys.modules\n"
        "num = int(10**18 / math.log(10**6) ** 3)\n"
        "bounds._n_exceeds_log_poly(10**6, num, 10**12, 3)\n"
    )
    assert _loaded_after(COLD_START_UNUSED, run, "-S") == ["decimal"]
    # 1009 * 1013 is above 1009^2 and composite, so its count step divides
    # by the primes below 2^16, which loads none of them either
    run = (
        "from cullen_lehmer import cli, structure\n"
        "assert structure.count_bound(1009 * 1013).n1_omega == 2\n"
    )
    assert _loaded_after(COLD_START_UNUSED, run, "-S") == []


def test_screens_of_small_n_never_sieve_the_primes_below_two_to_sixteen():
    # every n1 of the 113 values and of n <= 2^14 is below 1009^2, so the
    # primes below 1000 factor it; sieving to 2^16 would cost more than
    # the whole screen.  3^13 is past 1009^2 and asks for the table
    run = (
        "from cullen_lehmer import arith, structure\n"
        "asked = []\n"
        "table = arith.primes_up_to\n"
        "arith.primes_up_to = lambda limit: asked.append(limit) or table(limit)\n"
        "for ns in (screen.enumerate_2a3b(199_999), range(1, (1 << 14) + 1)):\n"
        "    assert screen.screen_set(list(ns)).counts == {'REFUTED_COUNT': len(ns)}\n"
        "assert asked == [], asked\n"
        "assert structure.count_bound(3**13).n1_omega == 13\n"
        "assert asked == [1 << 16], asked\n"
    )
    _loaded_after((), run)


@pytest.mark.parametrize(
    "trial_limit, key",
    [
        (None, "algorithm=9,trial_limit=1000000"),
        (10**7, "algorithm=9,trial_limit=10000000"),
        (10_000, "algorithm=9,trial_limit=10000"),
        (0, "algorithm=9,trial_limit=0"),
    ],
)
def test_config_hash_is_pinned(trial_limit, key):
    # results files written under these configs must still resume, so the
    # key of each is fixed
    cfg = screen.ScreenConfig() if trial_limit is None else screen.ScreenConfig(trial_limit)
    assert screen.config_hash(cfg) == key


@pytest.mark.parametrize("trial_limit", [5.0, True, "5"])
def test_config_rejects_a_trial_limit_that_is_no_int(trial_limit):
    # 5.0 == 5 and True == 1, yet each would key as its own string, so a
    # record written under it would never resume under the equal int
    with pytest.raises(ValueError, match="must be an int"):
        screen.ScreenConfig(trial_limit)


def test_config_fields_are_ints():
    # config_hash joins k=v pairs with ","; an int holds neither "," nor
    # "=", so no two configs share a key
    fields = typing.get_type_hints(screen.ScreenConfig)
    assert fields == {name: int for name in screen.ScreenConfig._fields}
    assert all(type(v) is int for v in screen.ScreenConfig()._asdict().values())


def test_resume_recomputes_a_record_of_the_hashed_key(tmp_path):
    # written while config_hash was a 12-hex sha256 prefix: 54b1f01522d5 was
    # the default config's; such a record is recomputed, and its line kept
    out = tmp_path / "results.jsonl"
    old = (
        '{"config_hash": "54b1f01522d5", "elapsed": 6.6e-05, "n": 6, "reason": "a Lehmer '
        "C_6 has at most Omega(n1) + #{gamma : F_gamma | C_6} <= 1 + 1 = 2 < 14 distinct "
        'prime factors: n1 = 3, gamma = 1", "status": "REFUTED_COUNT", '
        '"trial_limit_used": 1000000, "witness": 2}\n'
    )
    out.write_text(old)
    report = screen.screen_set([6], output_path=out, resume=True)
    assert (report.reused, report.computed) == (0, 1)
    lines = out.read_text().splitlines(keepends=True)
    assert lines[0] == old and len(lines) == 2
    assert json.loads(lines[1])["config_hash"] == "algorithm=9,trial_limit=1000000"


def test_records_are_frozen_and_round_trip(tmp_path):
    records = [
        (screen.witness_search(6), "status"),
        (screen.ScreenConfig(), "trial_limit"),
        (structure.count_bound(6), "n1_omega"),
        (structure.prime_shape(13), "m"),
        (bounds.refine_chain().steps[0], "k_bound"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 0
    out = tmp_path / "results.jsonl"
    cfg = screen.ScreenConfig(trial_limit=100)
    report = screen.screen_set([1, 6, 1594323], cfg, output_path=out)
    loaded = screen.load_records(out, screen.config_hash(cfg))
    assert list(loaded.values()) == report.verdicts
    assert all(type(v) is screen.Verdict for v in loaded.values())
