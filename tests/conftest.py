import pytest
import sympy


@pytest.fixture(scope="session")
def primes_10k() -> tuple[int, ...]:
    return tuple(sympy.sieve.primerange(2, 10_000))


@pytest.fixture(scope="session")
def verdicts_500():
    """witness_search over 1..500 with default budgets, shared by tests."""
    from cullen_lehmer import screen

    return {n: screen.witness_search(n) for n in range(1, 501)}

