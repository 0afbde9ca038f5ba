"""Computational screening of Cullen numbers C_n = n * 2^n + 1 against the
Lehmer totient condition phi(N) | N - 1."""

from .arith import (
    bounded_factor,
    cullen_mod,
    int_nth_root,
    is_prime,
    odd_part,
    v2,
)
from .bounds import (
    BoundChain,
    BoundStep,
    check_two_thirds,
    fermat_gamma_cap,
    k_crossover,
    k_lower,
    k_upper,
    n_threshold,
    nonfermat_factor_cap,
    q5_exclusion_cap,
    refine_chain,
)
from .exceptional import (
    ExceptionalCandidate,
    certify_smaller_composite,
    exceptional_candidates,
    odd_power_cofactor,
    uniqueness_scan,
)
from .screen import (
    ScreenConfig,
    Verdict,
    enumerate_2a3b,
    screen_set,
    witness_search,
)
from .structure import (
    CountBound,
    PrimeShape,
    RatioWalk,
    count_bound,
    cullen_value,
    prime_shape,
    ratio_walk,
)

__version__ = "0.1.0"
