import json
import math
import multiprocessing
import random
import subprocess
import sys
import typing
from pathlib import Path

import pytest
import sympy

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
    assert screen.STATUSES == {"REFUTED_COUNT", "REFUTED_RATIO", "UNDECIDED"}
    with pytest.raises(ValueError):
        screen.Verdict(1, "LEHMER_HOLDS", None, "", 0, 0.0)


def _residue_witness(n, limit):
    """(status, q) for the least prime q <= limit of sympy-factored C_n
    that fails the shape condition (q - 1) | n*2^n or the squarefree one;
    None when every such q passes both."""
    cn = (n << n) + 1
    for q in sorted(q for q in sympy.factorint(cn) if q <= limit):
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
    # the count bound refutes every n here; the least witness below 10^6
    # of the old residue conditions (every q | C_n has (q - 1) | n*2^n and
    # q^2 not dividing C_n) is kept as data, a second refutation of each n
    # that has one, and 1 and 141 have none
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


def _split_n1(n1):
    """(prime -> exponent, Omega bound of the rest) for odd n1: sympy's
    factorint up to 64 bits; above, trial division by the primes below
    2^16, with a rest below 2^256 that sympy calls prime kept as a prime
    and any other rest counted one prime per 16 bits, as every prime of it
    exceeds 2^16.  Above the count of structure.count_bound only for a
    prime rest of 256 bits or more that is_prime proves: none in these
    tests."""
    if n1.bit_length() <= 64:
        return sympy.factorint(n1), 0
    factors = {}
    for q in sympy.sieve.primerange(3, 1 << 16):
        while n1 % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n1 //= q
    if 1 < n1 < 1 << 256 and sympy.isprime(n1):
        factors[n1], n1 = 1, 1
    return factors, (n1.bit_length() - 1) // 16


def _recheck_ratio(v):
    """Re-derive a REFUTED_RATIO verdict from the definition, never through
    package code: list the admissible candidates p = m*2^a + 1 up to the
    witness X (m > 1 an odd divisor of n1 with a <= n + alpha, or
    F_gamma | C_n), test each by sympy.isprime and C_n mod p, and redo t,
    U = P*((X + 1)/X)^t and the rule in ints.  An m that overruns n1 is
    named by a found p = X + 1.  A smaller t than the screen's only makes
    the rule easier to meet, and every t here is at most the screen's."""
    n, x = v.n, v.witness
    assert v.status == "REFUTED_RATIO", n
    alpha = (n & -n).bit_length() - 1
    n1 = n >> alpha
    factors, rest = _split_n1(n1)
    divisors = [1]
    for q, e in factors.items():
        divisors = [d * q**k for d in divisors for k in range(e + 1) if d * q**k <= x]
    # only F_gamma with 2^gamma <= n.bit_length() can divide C_n (count_bound)
    fermat = [(1 << (1 << g)) + 1 for g in range(n.bit_length().bit_length())]
    fermat = [f for f in fermat if (n % f * pow(2, n, f) + 1) % f == 0]
    shape = {f: 1 for f in fermat}
    for m in divisors[1:]:
        for a in range(1, min(n + alpha, x.bit_length()) + 1):
            shape[(m << a) + 1] = m
    overrun = "does not divide n1/" in v.reason
    found = [
        p
        for p in sorted(shape)
        if p <= x + overrun and sympy.isprime(p) and (n % p * pow(2, n, p) + 1) % p == 0
    ]
    assert v.reason.startswith(f"{', '.join(map(str, found)) or 'no prime'} found dividing"), n
    used = math.prod(shape[p] for p in found)
    if overrun:
        assert found[-1] == x + 1 and n1 % (used // shape[found[-1]]) == 0 and n1 % used, n
        return
    t = sum(factors.values()) + rest
    t -= sum(sum(sympy.factorint(shape[p]).values()) for p in found)
    t += sum(f > x for f in fermat)
    num, den = math.prod(found), math.prod(p - 1 for p in found)
    up, down = num * (x + 1) ** t, den * x**t
    cn_bits = n + n.bit_length()
    two_sided = num > 2 * den and up < 3 * down
    assert up < 2 * down or (
        two_sided and (num.bit_length() != cn_bits or num != (n << n) + 1)
    ), n


def test_refuted_witnesses_verify_in_bigint(verdicts_500):
    for n, v in verdicts_500.items():
        assert v.status != "UNDECIDED", n
        if v.status == "REFUTED_RATIO":
            _recheck_ratio(v)
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
    # count verdicts and walks (1594323, 7971615: bound 14) alike
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


def test_resume_reports_every_verdict_ascending(tmp_path):
    # a resumed run reports reused and fresh verdicts alike, once each and
    # in ascending n, and appends only the fresh ones, ascending
    out = tmp_path / "results.jsonl"
    cfg = screen.ScreenConfig(trial_limit=100)
    screen.screen_set([12, 1594323], cfg, output_path=out)
    seen = []
    ns = [7971615, 6, 1594323, 12, 9]
    report = screen.screen_set(
        ns, cfg, output_path=out, resume=True,
        progress=lambda k, total, v: seen.append((k, total, v.n)),
    )
    want = sorted(ns)
    assert seen == [(k, 5, n) for k, n in enumerate(want, 1)]
    assert (report.reused, report.computed) == (2, 3)
    assert [json.loads(line)["n"] for line in out.read_text().splitlines()] == [
        12, 1594323, 6, 9, 7971615
    ]


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
    # 1594323 and 7971615 have count bound 14, so they reach the walk
    ns = [*screen.enumerate_2a3b(200), 1594323, 7971615]
    solo = _strip(screen.screen_set(ns, cfg))
    for workers in (1, 2, 64):
        assert _strip(screen.screen_set(ns, cfg, workers=workers)) == solo


def test_count_bound_taken_once_per_value(tmp_path, monkeypatch):
    # logged to a file, so a call in any process counts; 1594323 and
    # 7971615 reach the walk, 6 does not
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


@pytest.mark.parametrize("n", [3**13, 19_131_876])
def test_one_split_per_n(n, monkeypatch):
    # both reach the walk, which reads the count stage's split of n1, so
    # n1 is factored once; counted through the module attribute, as a
    # wrapper set there sees every call
    calls = []
    real = arith.bounded_factor

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(arith, "bounded_factor", counted)
    assert screen.witness_search(n).status == "REFUTED_RATIO"
    assert calls == [arith.odd_part(n)]


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


@pytest.mark.parametrize(
    "n,x,u", [(7_971_615, 20, "1.979931"), (19_131_876, 24, "1.770935")], ids=["7971615", "19131876"]
)
def test_count_bound_of_fourteen_is_refuted_by_the_walk(n, x, u):
    # 3^13*5 and 4*3^14 have Omega(n1) = 14, the Lehmer minimum; no prime
    # up to X divides C_n, so the 14 primes a Lehmer C_n would need each
    # exceed X and N/phi(N) < ((X + 1)/X)^14 < 2.  The residue scan left
    # both undecided, 19131876 even at trial limit 10^7
    c = structure.count_bound(n)
    assert (c.n1_omega, c.gammas) == (14, ())
    for limit in (screen.DEFAULT_TRIAL_LIMIT, 10**7):
        v = screen.witness_search(n, screen.ScreenConfig(trial_limit=limit))
        assert (v.status, v.witness) == ("REFUTED_RATIO", x)
        _recheck_ratio(v)
    assert v.reason == (
        "no prime found dividing C_n, and a Lehmer C_n has at most t = 14 more "
        f"primes, each above X = {x}: U = {u} < 2"
    )


def _forced(n, limit=screen.DEFAULT_TRIAL_LIMIT):
    """witness_search(n) with the Lehmer minimum set to 0, so that any n
    reaches the walk, which starts from n's true count bound."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(screen, "LEHMER_MIN_OMEGA", 0)
        return screen.witness_search(n, screen.ScreenConfig(trial_limit=limit))


def test_walk_finds_every_admissible_divisor_up_to_x():
    # the count bound decides every n <= 300, so the walk is called on its
    # own: it refutes each n, and what it found is exactly the admissible
    # primes up to X (up to X + 1 where an m overruns) that divide the
    # built C_n by trial division
    for n in range(1, 301):
        walk = structure.ratio_walk(n, screen.DEFAULT_TRIAL_LIMIT, structure.count_bound(n))
        alpha = (n & -n).bit_length() - 1
        n1, cn = n >> alpha, (n << n) + 1
        top = walk.x + ("does not divide" in walk.rule)
        want = []
        for q in sympy.sieve.primerange(3, top + 1):
            a = ((q - 1) & (1 - q)).bit_length() - 1
            if cn % q == 0 and n1 % ((q - 1) >> a) == 0 and a <= n + alpha:
                want.append(q)
        assert walk.rule and walk.found == tuple(want), n
        v = _forced(n)
        assert (v.status, v.witness) == ("REFUTED_RATIO", walk.x), n
        _recheck_ratio(v)


def test_walk_two_sided_rule_at_15806():
    # the first n that needs the two-sided rule: at X = 56, 3, 5, 17 and
    # 29 divide C_n, so P = 2.063 > 2 while U < 3.  Then K = 2 and a Lehmer
    # C_n would be 3*5*17*29
    walk = structure.ratio_walk(15806, 10**6, structure.count_bound(15806))
    assert (walk.x, walk.found, walk.t) == (56, (3, 5, 17, 29), 1)
    assert walk.rule == (
        "2 < P = 2.063337 and U = 2.100182 < 3 force C_n = 3*5*17*29, which it is not"
    )
    _recheck_ratio(_forced(15806))


def test_walk_overrun_rule_at_636(monkeypatch):
    # n1 = 3*53, and 7 = 3*2 + 1 and 13 = 3*4 + 1 both divide C_636: two
    # primes with m = 3 against prod(m_p) | n1.  With its true gammas the
    # walk refutes 636 by U < 2 first, as every n <= 200,000 but the two-
    # sided ones; a superset of the gammas only raises t, which keeps the
    # walk sound and U >= 2 until 13 is found
    count = structure.count_bound(636)._replace(gammas=tuple(range(8)))
    walk = structure.ratio_walk(636, 10**6, count)
    assert (walk.x, walk.found, walk.t) == (12, (7, 13), 7)
    assert walk.rule == "13 = 3*2^2 + 1, and m = 3 does not divide n1/3"
    monkeypatch.setattr(structure, "count_bound", lambda n: count)
    monkeypatch.setattr(screen, "LEHMER_MIN_OMEGA", 0)
    v = screen.witness_search(636)
    assert (v.status, v.witness) == ("REFUTED_RATIO", 12)
    _recheck_ratio(v)


def test_walk_past_three_five_seventeen_and_257_at_262124():
    # 3, 5, 17 and 257 divide C_n, with P = 2 - 2^-15 just below 2; the
    # walk climbs to X = 155,648 before U drops below 2
    walk = structure.ratio_walk(262124, 10**6, structure.count_bound(262124))
    assert (walk.x, walk.found, walk.rule) == (155_648, (3, 5, 17, 257), "U = 1.999995 < 2")
    assert math.prod(walk.found) == 2 * math.prod(p - 1 for p in walk.found) - 1
    _recheck_ratio(_forced(262124))


def test_walk_on_a_partial_split_of_a_4301_digit_n():
    # bounded_factor leaves a cofactor of n1, so only divisors of the split
    # part give candidates, the budget drops to 2*65537, and the cofactor
    # counts one prime per 16 bits toward t.  n is past Python's default
    # 4300-digit int/str limit, which no reason needs lifted
    n = (10**4301 - 1) // 3
    assert arith.bounded_factor(n).cofactor > 1
    v = screen.witness_search(n)
    assert (v.status, v.witness) == ("REFUTED_RATIO", 2026)
    assert v.reason.startswith("7, 17 found dividing C_n, ")
    _recheck_ratio(v)
    # a budget below X = 2026 ends the walk at the budget, which
    # refutes from 1867 on; the residue scan found 89 from 89 on
    budget = {L: screen.witness_search(n, screen.ScreenConfig(trial_limit=L)) for L in (1866, 1867)}
    assert budget[1866].status == "UNDECIDED"
    assert (budget[1867].status, budget[1867].witness) == ("REFUTED_RATIO", 1867)


def test_a_4301_digit_n_screens_at_the_default_int_digit_limit():
    # a fresh interpreter keeps the 4300-digit int/str limit, which no
    # reason trips, as none writes out n or n1, nor cullen_value's refusal
    run = (
        "sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)\n"
        "n = (10**4301 - 1) // 3\n"
        "v = screen.witness_search(n)\n"
        "assert (v.status, v.witness) == ('REFUTED_RATIO', 2026), v.status\n"
        "report = screen.screen_set([n])\n"
        "assert [w[:5] for w in report.verdicts] == [v[:5]]\n"
        "try:\n"
        "    screen.structure.cullen_value(10**4301)\n"
        "except ValueError as exc:\n"
        "    assert str(exc).startswith('refusing to materialize C_n: '), exc\n"
        "else:\n"
        "    raise AssertionError('C_n materialized past the cap')\n"
    )
    _loaded_after((), run)


def test_walk_with_too_small_a_budget_stays_undecided():
    # 3^13: F_1 = 5 is found, and U = (5/4)*((X + 1)/X)^13 first drops
    # below 2 at X = 28
    n = 1594323
    for limit, status, witness in ((10, "UNDECIDED", None), (27, "UNDECIDED", None),
                                   (28, "REFUTED_RATIO", 28), (10**6, "REFUTED_RATIO", 36)):
        v = screen.witness_search(n, screen.ScreenConfig(trial_limit=limit))
        assert (v.status, v.witness) == (status, witness), limit
    assert screen.witness_search(n, screen.ScreenConfig(trial_limit=10)).reason == (
        "no ratio refutation up to X = 10 and count bound 14 >= 14"
    )


def test_walk_refutes_every_pow23_value_up_to_ten_to_the_twelve_the_count_leaves():
    # the count stage leaves 122 of the 534 values 2^a*3^b <= 10^12, and
    # the residue scan left 29 of those undecided; the walk refutes all
    ns = screen.enumerate_2a3b(10**12)
    report = screen.screen_set(ns)
    assert len(ns) == 534 and report.counts == {"REFUTED_COUNT": 412, "REFUTED_RATIO": 122}
    for v in report.verdicts:
        if v.status == "REFUTED_RATIO":
            _recheck_ratio(v)


def test_walk_refutes_random_n_the_count_leaves():
    # the first 60 of 3,000 odd n of 20-4000 bits (seed 7); the count stage
    # leaves 2,853 of the 3,000, and the walk refutes every one
    rng = random.Random(7)
    ns = [rng.getrandbits(rng.randrange(20, 4001)) | 1 for _ in range(3000)][:60]
    report = screen.screen_set(ns)
    assert report.counts == {"REFUTED_COUNT": 3, "REFUTED_RATIO": 57}
    for v in report.verdicts:
        if v.status == "REFUTED_RATIO":
            _recheck_ratio(v)


def test_walk_refutes_the_file_values_past_the_count_stage():
    # 3^13 and 3^40*8 (67 bits) reach the walk
    for n, x in ((1594323, 36), (97261323672455430408, 72)):
        v = screen.witness_search(n)
        assert (v.status, v.witness) == ("REFUTED_RATIO", x), n
        _recheck_ratio(v)


def test_unprovable_prime_n1_is_refuted_by_count():
    # an 82-bit prime above the deterministic Miller-Rabin limit that is not
    # a Proth number: its primality is not proven, so it stays in the
    # cofactor, whose prime factors all exceed 2^16, and counts
    # (82 - 1) // 16 = 5; no F_gamma divides its C_n
    n = 3317044064679887385962561
    v = screen.witness_search(n)
    assert (v.status, v.witness) == ("REFUTED_COUNT", 5)
    assert v.reason == (
        "a Lehmer C_n has at most Omega(n1) + #{gamma : F_gamma | C_n} <= 5 + 0 = 5 < 14 "
        "distinct prime factors: gamma = none"
    )


def test_proth_prime_n1_is_refuted_by_count():
    # a 278-bit Proth prime: only Proth's theorem in is_prime proves it
    # prime, so it counts 1 and, with F_0 = 3 | C_n, gives bound 2; left
    # unproven it would count (278 - 1) // 16 = 17, bound 18 >= 14, and go on
    # to the walk
    n = 3 * 2**276 + 1
    assert n > arith._DET_MR_LIMIT and arith.is_prime(n)
    c = structure.count_bound(n)
    assert (c.n1_omega, c.gammas) == (1, (0,))
    v = screen.witness_search(n)
    assert (v.status, v.witness) == ("REFUTED_COUNT", 2)
    assert v.reason.endswith("<= 1 + 1 = 2 < 14 distinct prime factors: gamma = 0")


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
    # a trial limit ten times the default changes no verdict: the count
    # bound refutes all 113 values, so no walk runs
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


def test_trial_limit_must_fit_uint32():
    # a trial limit is an int in [0, 2**26), checked before any screen runs
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
    # importing numpy adds about 12 MB to a process, and no stage needs it:
    # not the count bound, which decides the default full run, and not the
    # walk, which 3^13 and 3^40*8 reach
    assert not _imported_after(
        "numpy",
        "report = screen.screen_set(screen.enumerate_2a3b(199_999), screen.ScreenConfig())\n"
        "assert report.counts == {'REFUTED_COUNT': 113}\n"
        "report = screen.screen_set([1594323, 97261323672455430408])\n"
        "assert report.counts == {'REFUTED_RATIO': 2}\n",
    )


def test_no_screen_imports_multiprocessing():
    # the screen runs in one process, so it never pays multiprocessing's
    # import, whether or not a value reaches the walk
    assert not _imported_after(
        "multiprocessing",
        "import cullen_lehmer.cli\n"
        "report = screen.screen_set(screen.enumerate_2a3b(199_999), screen.ScreenConfig())\n"
        "assert len(report.verdicts) == 113\n",
    )
    # 1594323 and 7971615 have count bound 14, so both reach the walk; at
    # trial limit 0 it tests no prime
    for limit in (0, 100):
        assert not _imported_after(
            "multiprocessing",
            "report = screen.screen_set([1594323, 7971615],"
            f" screen.ScreenConfig(trial_limit={limit}), workers=2)\n"
            "assert len(report.verdicts) == 2\n",
        )


# Modules no cascade or default screen needs: dataclasses imports inspect,
# random and csv are imported by no module of the package, hashlib loads
# OpenSSL's libcrypto, and decimal serves only near-boundary comparisons,
# which the cascade never makes.
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
        (None, "algorithm=10,trial_limit=1000000"),
        (10**7, "algorithm=10,trial_limit=10000000"),
        (10_000, "algorithm=10,trial_limit=10000"),
        (0, "algorithm=10,trial_limit=0"),
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
    assert json.loads(lines[1])["config_hash"] == "algorithm=10,trial_limit=1000000"


def test_records_are_frozen_and_round_trip(tmp_path):
    records = [
        (screen.witness_search(6), "status"),
        (screen.ScreenConfig(), "trial_limit"),
        (structure.count_bound(6), "split"),
        (structure.prime_shape(13), "m"),
        (structure.ratio_walk(1594323, 100, structure.count_bound(1594323)), "x"),
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
