import math

import mpmath
import pytest

from cullen_lehmer import arith, bounds


def test_k_lower_values():
    assert bounds.k_lower(1_400_000) == pytest.approx(35.947, abs=0.01)
    assert bounds.k_lower(260_000) == pytest.approx(17.045, abs=0.01)
    assert bounds.k_lower(3) == pytest.approx(1 + math.sqrt(3) / (9 * math.sqrt(math.log(3))))
    with pytest.raises(ValueError):
        bounds.k_lower(2)


def test_k_upper_values():
    assert bounds.k_upper(1_400_000) == pytest.approx(2.4 * math.log(1_400_000))
    assert bounds.k_upper(1_400_000) == pytest.approx(33.965, abs=0.01)
    assert bounds.k_upper(260_000) == pytest.approx(29.92, abs=0.01)
    with pytest.raises(ValueError):
        bounds.k_upper(2)


def test_crossover_below_stated():
    n0 = bounds.k_crossover()
    assert n0 <= 1_400_000
    f = lambda n: math.sqrt(n) / (9 * math.sqrt(math.log(n)))
    assert f(n0) >= 2.4 * math.log(n0)
    assert f(n0 - 1) < 2.4 * math.log(n0 - 1)


def test_n_threshold_bisection_consistency():
    for k in range(3, 41):
        t = bounds.n_threshold(k)
        assert bounds.k_lower(t) > k
        assert bounds.k_lower(t - 1) <= k


def test_n_thresholds_below_stated():
    assert bounds.n_threshold(17) <= 260_000
    assert bounds.n_threshold(15) <= 200_000
    with pytest.raises(ValueError):
        bounds.n_threshold(1)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("den", [10**12, 10**30])
def test_near_boundary_comparison_matches_mpmath(den, offset):
    # num * (ln n)^3 is within one step of n * den, inside the relative 1e-9
    # band, so the comparison falls to the 50-digit Decimal branch.  At
    # den = 10^30 a step is below the rounding error of floats, which get
    # some of these cases wrong
    n, power = 10**6, 3
    with mpmath.workdps(60):
        ln_pow = mpmath.log(n) ** power
        num = int(mpmath.nint(n * den / ln_pow)) + offset
        expected = n * den > num * ln_pow
    assert abs(n * den - num * math.log(n) ** power) <= bounds._REL_TOL * n * den
    assert bounds._n_exceeds_log_poly(n, num, den, power) == expected
    if offset:
        assert expected == (offset < 0)


def test_sqrt_n_over_ln_monotone_grid():
    f = lambda n: math.sqrt(n / math.log(n))
    prev = f(3)
    for n in range(4, 200_000, 97):
        cur = f(n)
        assert cur > prev
        prev = cur


@pytest.mark.parametrize(
    "n_bound,size_cap,eff_cap",
    [(1_400_000, 20, 4), (260_000, 17, 4), (15, 4, 4), (1_000_000_000, 29, 4)],
)
def test_fermat_gamma_cap(n_bound, size_cap, eff_cap):
    assert bounds.fermat_gamma_cap(n_bound) == (size_cap, eff_cap)


def test_fermat_gamma_cap_matches_bigint_oracle():
    for n_bound in (3, 15, 100, 5000, 20000):
        cn = n_bound * 2**n_bound + 1
        expected = 0
        while 2 ** (2 ** (expected + 1)) <= cn:
            expected += 1
        assert bounds.fermat_gamma_cap(n_bound)[0] == expected


@pytest.mark.parametrize(
    "n_bound,min_m,expected",
    [(1_400_000, 3, 12), (260_000, 5, 7), (260_000, 3, 11), (200_000, 3, 11)],
)
def test_nonfermat_factor_cap(n_bound, min_m, expected):
    assert bounds.nonfermat_factor_cap(n_bound, min_m) == expected
    assert min_m**expected <= n_bound < min_m ** (expected + 1)


def test_q5_exclusion_cap():
    cap = bounds.q5_exclusion_cap(200_000, 5)
    assert cap == pytest.approx(3 + math.log(1600) / math.log(3))
    assert cap < 9.8
    # monotone decreasing in q, vacuous once q^3 exceeds the bound
    assert bounds.q5_exclusion_cap(200_000, 7) < cap
    assert bounds.q5_exclusion_cap(200_000, 59) is None  # 59^3 = 205379
    assert bounds.q5_exclusion_cap(205_379, 59) is not None
    with pytest.raises(ValueError):
        bounds.q5_exclusion_cap(200_000, 9)


def _two_thirds_oracle(n: int) -> bool:
    # independent high-precision route for the same inequality
    with mpmath.workdps(60):
        t = mpmath.mpf(n) * mpmath.power(2, n)
        lhs = t / (mpmath.cbrt(t) + 1)
        rhs = mpmath.power(2, mpmath.mpf(2 * n) / 3)
        return lhs > rhs


def test_check_two_thirds_small_cases():
    assert bounds.check_two_thirds(1) is False
    # n = 2 holds: cubing gives 512/27 > 16, i.e. 512 > 432, in exact integers
    assert bounds.check_two_thirds(2) is True
    assert bounds.check_two_thirds(3) is True
    assert bounds.check_two_thirds(100) is True
    with pytest.raises(ValueError):
        bounds.check_two_thirds(0)


def test_check_two_thirds_matches_highprec_oracle():
    for n in range(1, 400):
        assert bounds.check_two_thirds(n) == _two_thirds_oracle(n), n


def _two_thirds_fine_only(n: int) -> bool:
    # exact-integer reference: cubing reduces the inequality to
    # D > E * (f^2 + f) with f = cbrt(T), T = n * 2^n, D = T^3 - 2^(2n) * (T + 1)
    # and E = 3 * 2^(2n); f is caged in [r, r + 1) / 2^s with
    # r = floor(cbrt(T * 2^(3s))), refining s until the cage decides
    t = n << n
    d = t**3 - ((t + 1) << (2 * n))
    if d <= 0:
        return False
    e = 3 << (2 * n)
    s = 0
    while True:
        r, _ = arith.int_nth_root(t << (3 * s), 3)
        hi = (r + 1) ** 2 + ((r + 1) << s)
        lo = r * r + (r << s)
        lhs = d << (2 * s)
        if lhs > e * hi:
            return True
        if lhs <= e * lo:
            return False
        s += 8


def test_check_two_thirds_matches_fine_only_cage():
    # small n, a stride over 1..10000 and the top of the final-form range n < 200000
    ns = {1, 2, 3, *range(85, 100), *range(1, 10_001, 13), 10_000, 139_968, 196_608, 199_999}
    for n in sorted(ns):
        assert bounds.check_two_thirds(n) == _two_thirds_fine_only(n), n


def test_refine_chain_default_reaches_final_form():
    chain = bounds.refine_chain()
    assert chain.complete
    ff = chain.final_form
    assert ff.form == "2^a*3^b"
    assert ff.n_max == 200_000 and ff.k_max == 15
    assert ff.n_max_computed <= 200_000
    anchors = [s.anchor for s in chain.steps]
    assert anchors == [
        "k-crossover",
        "fermat-cap",
        "count-m3",
        "threshold-k17",
        "count-m3-refresh",
        "case-3-coprime",
        "three-divides",
        "threshold-k15",
        "case-q5",
        "final-form",
    ]


def test_refine_chain_n_bounds_nonincreasing_and_below_stated():
    chain = bounds.refine_chain()
    prev = None
    for step in chain.steps:
        assert step.n_bound is not None and step.stated_n_bound is not None
        assert step.n_bound <= step.stated_n_bound
        if prev is not None:
            assert step.n_bound <= prev
        prev = step.n_bound


def test_refine_chain_branch_bounds():
    chain = bounds.refine_chain()
    by_anchor = {s.anchor: s for s in chain.steps}
    assert by_anchor["count-m3"].k_bound == 17
    assert by_anchor["count-m3-refresh"].k_bound == 16
    assert by_anchor["case-3-coprime"].k_bound == 12
    assert by_anchor["three-divides"].k_bound == 15
    assert by_anchor["case-q5"].k_bound == 13


def test_refine_chain_high_threshold_halts():
    chain = bounds.refine_chain(99)
    assert not chain.complete
    assert chain.final_form is None
    assert chain.steps[-1].anchor == "halt"


def test_refine_chain_low_threshold_stops_at_branch():
    # with the gate set below the branch bounds no contradiction ever fires,
    # so 3 | n can not be concluded and the final form is unreachable
    chain = bounds.refine_chain(5)
    assert not chain.complete
    assert chain.steps[-1].anchor == "case-3-coprime"


# (anchor, k_bound, n_bound, stated_n_bound, detail) of every default step,
# so a reworded or renumbered step shows up here
DEFAULT_CHAIN = [
    (
        "k-crossover",
        None,
        1302191,
        1400000,
        "sqrt(n)/(9 sqrt(ln n)) >= 2.4 ln n from n = 1302191; "
        "surviving n < 1302191 (stated 1400000)",
    ),
    (
        "fermat-cap",
        None,
        1302191,
        1400000,
        "2^(2^gamma)+1 <= C_n forces gamma <= 20; known primes force gamma <= 4, "
        "so at most 5 Fermat-prime factors",
    ),
    (
        "count-m3",
        17,
        1302191,
        1400000,
        "ln(1400000)/ln 3 = 12.8817 (stated <= 12.9) caps m>1 factors at 12; k <= 5+12 = 17",
    ),
    (
        "threshold-k17",
        17,
        258420,
        260000,
        "sqrt(n)/(9 sqrt(ln n)) > 16 from n = 258420; surviving n < 258420 (stated 260000)",
    ),
    (
        "count-m3-refresh",
        16,
        258420,
        260000,
        "ln(260000)/ln 3 = 11.3493 (stated <= 11.4) caps m>1 factors at 11; k <= 5+11 = 16",
    ),
    (
        "case-3-coprime",
        12,
        258420,
        260000,
        "m odd, m | n1, 3 excluded, so m >= 5: ln(260000)/ln 5 = 7.7471 (stated < 7.8) "
        "caps m>1 factors at 7; k <= 5+7 = 12 < 14: contradiction, hence 3 | n",
    ),
    (
        "three-divides",
        15,
        258420,
        260000,
        "3 | n gives C_n = 1 mod 3, so the Fermat prime 3 is excluded: k <= 4+11 = 15",
    ),
    (
        "threshold-k15",
        15,
        193238,
        200000,
        "sqrt(n)/(9 sqrt(ln n)) > 14 from n = 193238; surviving n < 193238 (stated 200000)",
    ),
    (
        "case-q5",
        13,
        193238,
        200000,
        "q^3 | n1 then caps m>1 factors at 3 + ln(200000/125)/ln 3 = 9.7155 (stated < 9.8); "
        "worst case q = 5, larger q only shrink it, and q >= 59 has q^3 > 200000; "
        "k <= 9+4 = 13 < 14: contradiction, hence no q >= 5 divides n",
    ),
    (
        "final-form",
        15,
        193238,
        200000,
        "n = 2^a*3^b, n < 200000 (computed 193238), k <= 15",
    ),
]


def test_refine_chain_golden_steps():
    steps = bounds.refine_chain().steps
    got = [(s.anchor, s.k_bound, s.n_bound, s.stated_n_bound, s.detail) for s in steps]
    assert got == DEFAULT_CHAIN


@pytest.mark.parametrize(
    "min_omega,last_anchor",
    [(5, "case-3-coprime"), (13, "case-q5"), (16, "halt"), (99, "halt")],
)
def test_refine_chain_last_anchor(min_omega, last_anchor):
    assert bounds.refine_chain(min_omega).steps[-1].anchor == last_anchor


@pytest.mark.parametrize(
    "name,value,anchor",
    [
        ("STATED_N_AT_K17", 250_000, "threshold-k17"),
        ("STATED_Q5_CAP", 9.7, "case-q5"),
        ("STATED_LOG3_AT_CROSSOVER", 12.8, "count-m3"),
        ("STATED_LOG3_AT_260K", 11.3, "count-m3-refresh"),
        ("STATED_LOG5_AT_260K", 7.7, "case-3-coprime"),
        # the side-case caps are strict: reaching the constant already breaks it
        ("STATED_LOG5_AT_260K", math.log(260_000) / math.log(5), "case-3-coprime"),
    ],
)
def test_refine_chain_raises_on_broken_stated_constant(monkeypatch, name, value, anchor):
    monkeypatch.setattr(bounds, name, value)
    with pytest.raises(RuntimeError, match=f"step {anchor}:"):
        bounds.refine_chain()


def test_refine_chain_log3_constant_is_not_strict(monkeypatch):
    monkeypatch.setattr(bounds, "STATED_LOG3_AT_CROSSOVER", math.log(1_400_000) / math.log(3))
    assert bounds.refine_chain().complete
