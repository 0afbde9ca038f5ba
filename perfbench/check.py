"""Independent checks of what the benchmark jobs report.

Uses plain big-int arithmetic and never imports cullen_lehmer, so a defect
in the package cannot also hide in its checker.  Runs outside every timed
region.  C_n is built here as (n << n) + 1 and never turned into a string.
"""

from __future__ import annotations

import hashlib

UNDECIDED = "UNDECIDED"
REFUTED_SHAPE = "REFUTED_SHAPE"
REFUTED_SQUARE = "REFUTED_SQUARE"
PRIME_CN = "PRIME_CN"
# Statuses with a screen.decided.<STATUS> metric; any other goes to
# screen.decided.other.
KNOWN_STATUSES = (REFUTED_SHAPE, REFUTED_SQUARE, "REFUTED_OMEGA", PRIME_CN, UNDECIDED)


def _isprime(x: int) -> bool:
    import sympy  # test-only dependency of the package; only the checker needs it

    return bool(sympy.isprime(x))


def screen_verdicts(expected_ns: set[int], verdicts: list) -> tuple[list[str], int]:
    """(errors, unverified) for screen verdicts [n, status, witness, ...].

    REFUTED_SHAPE needs a prime q with q | C_n and (q - 1) not dividing
    n * 2^n; REFUTED_SQUARE needs q^2 | C_n; PRIME_CN needs C_n prime.
    Any other decided status is counted as unverified, not failed.
    """
    errors = []
    unverified = 0
    seen = [v[0] for v in verdicts]
    if sorted(seen) != sorted(expected_ns):
        errors.append(f"verdicts cover {len(set(seen))} n of {len(expected_ns)} (or repeat one)")
    for n, status, q, *_ in verdicts:
        if status == UNDECIDED:
            continue
        cn = (n << n) + 1
        if status == REFUTED_SHAPE:
            ok = isinstance(q, int) and q > 2 and cn % q == 0
            ok = ok and (n << n) % (q - 1) != 0 and _isprime(q)
        elif status == REFUTED_SQUARE:
            ok = isinstance(q, int) and q > 1 and cn % (q * q) == 0
        elif status == PRIME_CN:
            ok = _isprime(cn)
        else:
            unverified += 1
            continue
        if not ok:
            errors.append(f"n={n}: {status} with witness {q} does not check")
    return errors, unverified


def screen_counts(verdicts: list) -> dict:
    """The exact counts of one screen run, which must repeat on every run."""
    counts = {"decided": sum(v[1] != UNDECIDED for v in verdicts)}
    for status in KNOWN_STATUSES:
        counts[f"screen.decided.{status}"] = sum(v[1] == status for v in verdicts)
    counts["screen.decided.other"] = sum(v[1] not in KNOWN_STATUSES for v in verdicts)
    counts["arith.rho_iters"] = sum(v[3] for v in verdicts)
    digest = hashlib.sha256(repr(sorted((v[0], v[1], v[2]) for v in verdicts)).encode())
    counts["verdicts_sha"] = digest.hexdigest()[:16]
    return counts


def cascade(result: dict, n_count: int) -> list[str]:
    """The proof half: complete chain to n < 200,000 with k <= 15, both CLI
    commands clean, no uniqueness violation, every two-thirds check True."""
    errors = []
    if result["final_form"] != [200_000, 15]:
        errors.append(f"bound chain final form {result['final_form']}, want [200000, 15]")
    if result["cli_exit"] != [0, 0]:
        errors.append(f"cli exit codes {result['cli_exit']}, want [0, 0]")
    if result["violations"] != 0:
        errors.append(f"uniqueness scan reports {result['violations']} violations")
    if result["two_thirds_true"] != n_count:
        errors.append(f"check_two_thirds True for {result['two_thirds_true']} of {n_count} n")
    return errors


def probes(found: dict) -> list[str]:
    """A probe that returned must have said 'composite', and base 3 must
    be a Fermat witness that C_n is composite."""
    errors = []
    for label, p in found.items():
        if "error" in p:
            continue
        cn = (p["n"] << p["n"]) + 1
        if p["prime"] or pow(3, cn - 1, cn) == 1:
            errors.append(f"probe {label}: is_prime(C_{p['n']}) = {p['prime']}, want False")
    return errors
