"""The finishing computation: enumerate n = 2^a * 3^b below the final bound
and refute the Lehmer necessary conditions on C_n.

The ladder has two stages.  First the count step: a Lehmer C_n has at
most structure.count_bound(n) distinct prime factors, and at least
LEHMER_MIN_OMEGA (Cohen & Hagis 1980), so a bound below that refutes C_n
without building it.  Only an n the bound leaves reaches the totient-ratio
walk (structure.ratio_walk), which tests the admissible primes
p = m*2^a + 1, m | n1, up to the trial limit and bounds N/phi(N) below 2,
or below 3 with C_n not the product of the primes found; it rests on the
definition of a Lehmer number alone.
There is deliberately no status meaning "the Lehmer property holds": the
screen can only refute or leave a value undecided.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from . import structure
from .bounds import LEHMER_MIN_OMEGA

REFUTED_COUNT = "REFUTED_COUNT"
REFUTED_RATIO = "REFUTED_RATIO"
UNDECIDED = "UNDECIDED"

STATUSES = frozenset({REFUTED_COUNT, REFUTED_RATIO, UNDECIDED})

DEFAULT_TRIAL_LIMIT = 10**6

# Part of every config key, so --resume never mixes verdicts of two ladders.
ALGORITHM_VERSION = 11


# A NamedTuple class cannot define __new__, so each record that validates
# its fields is a subclass of a NamedTuple of those fields.
class _VerdictFields(NamedTuple):
    n: int
    status: str
    witness: int | None
    reason: str
    trial_limit_used: int
    elapsed: float


class Verdict(_VerdictFields):
    __slots__ = ()
    rho_budget_used = 0  # perfbench/job.py reads it; goes with ROADMAP item 1

    def __new__(cls, *args, **kwargs) -> Verdict:
        self = super().__new__(cls, *args, **kwargs)
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        return self


class _ScreenConfigFields(NamedTuple):
    trial_limit: int


class ScreenConfig(_ScreenConfigFields):
    """Everything that can change a verdict; keyed into each record."""

    __slots__ = ()

    def __new__(
        cls,
        trial_limit: int = DEFAULT_TRIAL_LIMIT,
        rho_budget: int = 0,  # perfbench/run.py's bigcn passes 0; goes with ROADMAP item 1
        cn_cap: int = 0,  # perfbench/run.py's residue passes 0; goes with ROADMAP item 1
    ) -> ScreenConfig:
        retired = (rho_budget, cn_cap)
        if any(retired):
            raise ValueError(f"no screen stage reads a factoring budget; pass 0, got {retired}")
        # checked here, so a bad config fails before anything is opened or
        # computed; an equal float or bool would key differently, so only
        # an int is taken.  Below 2^26, every candidate p <= trial_limit of
        # the walk is below 65537^2, where arith.is_prime decides by trial
        # division, so it never raises in the walk
        if type(trial_limit) is not int:
            raise ValueError(f"trial limit must be an int, got {trial_limit!r}")
        if not 0 <= trial_limit < 1 << 26:
            raise ValueError(f"trial limit must be in [0, 2**26), got {trial_limit}")
        return super().__new__(cls, trial_limit)


def config_hash(cfg: ScreenConfig) -> str:
    """The exact key of cfg and ALGORITHM_VERSION, as sorted k=v pairs
    joined by ",": "algorithm=11,trial_limit=1000000" for the default.

    Every field is an int, so no value holds "," or "=" and two configs
    share a key only when they are equal.  A record is reused only under
    this exact key, so records of earlier key formats are recomputed.
    """
    fields = {"algorithm": ALGORITHM_VERSION, **cfg._asdict()}
    return ",".join(f"{k}={v}" for k, v in sorted(fields.items()))


def enumerate_2a3b(n_max: int) -> list[int]:
    """All n = 2^a * 3^b <= n_max (a, b >= 0), ascending, starting at 1."""
    if n_max < 1:
        raise ValueError("enumerate_2a3b requires n_max >= 1")
    out = []
    p3 = 1
    while p3 <= n_max:
        v = p3
        while v <= n_max:
            out.append(v)
            v *= 2
        p3 *= 3
    out.sort()
    return out


def witness_search(n: int, cfg: ScreenConfig = ScreenConfig()) -> Verdict:
    """Deterministic verdict for one n under cfg.

    Order: the count bound of structure.count_bound, which refutes C_n when
    it is below LEHMER_MIN_OMEGA (REFUTED_COUNT, witness the bound); then,
    only for an n it leaves, structure.ratio_walk over the admissible
    primes up to cfg.trial_limit (REFUTED_RATIO, witness the walk's X),
    from the count's own split of n1.  UNDECIDED is the honest fallback
    when neither stage refutes.  elapsed covers both stages.  No reason
    writes out n, which may be past Python's int/str digit limit.

    No n <= 2^14 ever reaches the walk.  n1 is odd, so each of its prime
    factors is at least 3 and Omega(n1) <= floor(log_3 n) <= floor(log_3
    2^14) = 8, as count_bound counts it once n1 is factored completely.
    The primes below 1000 alone do that for every n1 below
    arith._SMALL_PRIMES_FINISH_BELOW, so the table of primes below 2^16 is
    never built.  And count_bound tests only the gamma below
    n.bit_length().bit_length() = 4.  So the bound is at most 12, below
    LEHMER_MIN_OMEGA = 14.  The first 2^a*3^b to reach the walk is
    3^13 = 1,594,323, with bound 13 + 1 = 14 (F_1 = 5 divides its C_n).
    """
    if n < 1:
        raise ValueError("witness_search requires n >= 1")
    start = time.perf_counter()
    note = "; n < 3 is outside the exclusion arguments" if n < structure.MIN_ANALYSIS_N else ""
    count = structure.count_bound(n)
    bound = count.bound
    if bound < LEHMER_MIN_OMEGA:
        listed = ", ".join(map(str, count.gammas)) or "none"
        status, witness = REFUTED_COUNT, bound
        reason = (
            "a Lehmer C_n has at most Omega(n1) + #{gamma : F_gamma | C_n} <= "
            f"{count.n1_omega} + {len(count.gammas)} = {bound} < {LEHMER_MIN_OMEGA} "
            f"distinct prime factors: gamma = {listed}"
        )
    else:
        walk = structure.ratio_walk(n, cfg.trial_limit, count)
        if walk.rule:
            found = ", ".join(map(str, walk.found)) or "no prime"
            status, witness = REFUTED_RATIO, walk.x
            reason = (
                f"{found} found dividing C_n, and a Lehmer C_n has at most t = {walk.t} "
                f"more primes, each above X = {walk.x}: {walk.rule}"
            )
        else:
            status, witness = UNDECIDED, None
            reason = (
                f"no ratio refutation up to X = {walk.x} and count bound {bound} "
                f">= {LEHMER_MIN_OMEGA}"
            )
    return Verdict(
        n, status, witness, reason + note, cfg.trial_limit, time.perf_counter() - start
    )


class ScreenReport(NamedTuple):
    verdicts: list[Verdict]
    counts: dict[str, int]
    undecided: list[int]
    config_hash: str
    reused: int = 0
    computed: int = 0
    elapsed: float = 0.0


def record_dict(v: Verdict, cfg_hash: str) -> dict:
    d = v._asdict()
    d["config_hash"] = cfg_hash
    return d


def _verdict_from_record(d: dict) -> Verdict:
    return Verdict(**{name: d[name] for name in Verdict._fields})


def load_records(path: Path, cfg_hash: str) -> dict[int, Verdict]:
    """Verdicts already persisted for this config; torn trailing lines
    (from a crash mid-write) and lines that are not records are ignored,
    complete records stay valid."""
    found: dict[int, Verdict] = {}
    if not path.exists():
        return found
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                # true == 1 and 5.0 == 5, but only an int is an n: the
                # exact-int rule ScreenConfig applies to trial_limit
                if (
                    isinstance(d, dict)
                    and d.get("config_hash") == cfg_hash
                    and type(d["n"]) is int
                ):
                    found[d["n"]] = _verdict_from_record(d)
            except (KeyError, TypeError, ValueError):
                continue  # not JSON, or JSON missing a field or of the wrong type
    return found


def screen_set(
    n_values: list[int],
    cfg: ScreenConfig = ScreenConfig(),
    *,
    workers: int = 1,  # perfbench/job.py passes it; goes with ROADMAP item 1
    output_path: str | Path | None = None,
    resume: bool = False,
    progress: Callable[[int, int, Verdict], None] | None = None,
) -> ScreenReport:
    """Screen every n in n_values, one at a time in this process, in
    ascending n: each verdict is reused or made by witness_search, written
    and reported before the next n is taken.

    With output_path each fresh verdict is appended as one JSONL record and
    flushed as soon as it is done, so the fresh records are ascending in n;
    resume=True first reloads records whose config key matches and
    recomputes nothing for them.  progress(k, total, verdict) is called for
    the k-th verdict of the total wanted, reused or fresh, ascending in n.
    """
    start = time.perf_counter()
    wanted = sorted(set(n_values))
    cfg_hash = config_hash(cfg)
    path = Path(output_path) if output_path is not None else None

    have: dict[int, Verdict] = {}
    if path is not None and resume:
        have = load_records(path, cfg_hash)

    sink = None
    if path is not None:
        try:
            if resume and path.exists() and path.stat().st_size > 0:
                with open(path, "rb") as fh:
                    fh.seek(-1, 2)
                    if fh.read(1) != b"\n":
                        # seal a line torn by a crash so appends stay parseable
                        with open(path, "a", encoding="utf-8") as seal:
                            seal.write("\n")
            sink = open(path, "a" if resume else "w", encoding="utf-8")
        except OSError as exc:
            raise RuntimeError(f"cannot open results file {path}: {exc}") from None

    verdicts: list[Verdict] = []
    computed = 0
    try:
        for k, n in enumerate(wanted, 1):
            v = have.get(n)
            if v is None:
                # looked up at call time, so a wrapper set on the module
                # attribute sees every call
                v = witness_search(n, cfg)
                computed += 1
                if sink is not None:
                    try:
                        sink.write(json.dumps(record_dict(v, cfg_hash), sort_keys=True) + "\n")
                        sink.flush()
                    except OSError as exc:
                        raise RuntimeError(
                            f"cannot append result for n={n}: {exc}; earlier lines remain valid"
                        ) from None
            verdicts.append(v)
            if progress is not None:
                progress(k, len(wanted), v)
    finally:
        if sink is not None:
            sink.close()

    counts: dict[str, int] = {}
    for v in verdicts:
        counts[v.status] = counts.get(v.status, 0) + 1
    return ScreenReport(
        verdicts=verdicts,
        counts=counts,
        undecided=[v.n for v in verdicts if v.status == UNDECIDED],
        config_hash=cfg_hash,
        reused=len(verdicts) - computed,
        computed=computed,
        elapsed=time.perf_counter() - start,
    )
