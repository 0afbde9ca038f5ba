"""The finishing computation: enumerate n = 2^a * 3^b below the final bound
and refute the Lehmer necessary conditions on C_n.

The ladder has two stages.  First the count step: a Lehmer C_n has at
most structure.count_bound(n) distinct prime factors, and at least
LEHMER_MIN_OMEGA (Cohen & Hagis 1980), so a bound below that refutes C_n
without building it.  Only an n the bound leaves reaches the residue scan:
every prime factor q of a Lehmer C_n must satisfy (q - 1) | n * 2^n, and
C_n must be squarefree, which the prime divisors of C_n up to the trial
limit, from arith.cullen_divisors, are tested against.
There is deliberately no status meaning "the Lehmer property holds": the
screen can only refute or leave a value undecided.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections.abc import Callable
from dataclasses import InitVar, asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import ClassVar

from . import arith, structure
from .bounds import LEHMER_MIN_OMEGA

REFUTED_SHAPE = "REFUTED_SHAPE"
REFUTED_SQUARE = "REFUTED_SQUARE"
REFUTED_COUNT = "REFUTED_COUNT"
UNDECIDED = "UNDECIDED"

STATUSES = frozenset(
    {
        REFUTED_SHAPE,
        REFUTED_SQUARE,
        REFUTED_COUNT,
        UNDECIDED,
    }
)

DEFAULT_TRIAL_LIMIT = 10**6

# Hashed into every config, so --resume never mixes verdicts of two ladders.
ALGORITHM_VERSION = 7


@dataclass(frozen=True)
class Verdict:
    n: int
    status: str
    witness: int | None
    reason: str
    trial_limit_used: int
    elapsed: float
    rho_budget_used: ClassVar[int] = 0  # perfbench/job.py reads it; goes with ROADMAP item 1

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


@dataclass(frozen=True)
class ScreenConfig:
    """Everything that can change a verdict; hashed into each record."""

    trial_limit: int = DEFAULT_TRIAL_LIMIT
    rho_budget: InitVar[int] = 0  # perfbench/run.py's bigcn passes 0; goes with ROADMAP item 1
    cn_cap: InitVar[int] = 0  # perfbench/run.py's residue passes 0; goes with ROADMAP item 1

    def __post_init__(self, *retired: int) -> None:
        if any(retired):
            raise ValueError(f"no screen stage reads a factoring budget; pass 0, got {retired}")
        # checked here, not only in the sieve, so a bad config fails before
        # anything is opened or computed
        if not 0 <= self.trial_limit < 1 << 32:
            raise ValueError(f"trial limit must be in [0, 2**32), got {self.trial_limit}")


def config_hash(cfg: ScreenConfig) -> str:
    payload = json.dumps({"algorithm": ALGORITHM_VERSION, **asdict(cfg)}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


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


def witness_search(
    n: int, cfg: ScreenConfig = ScreenConfig(), *, count: structure.CountBound | None = None
) -> Verdict:
    """Deterministic verdict for one n under cfg.

    Order: the count bound of structure.count_bound, which refutes C_n when
    it is below LEHMER_MIN_OMEGA (REFUTED_COUNT, witness the bound); then,
    only for an n it leaves, ascending prime divisors of C_n up to
    cfg.trial_limit, testing the shape and squarefree conditions.
    UNDECIDED is the honest fallback when neither stage refutes.  count,
    when given, is structure.count_bound(n), already computed by the
    caller (screen_set, to choose where n runs); elapsed then leaves out
    its time.

    No n <= 2^14 ever reaches the scan.  n1 is odd, so each of its prime
    factors is at least 3 and Omega(n1) <= floor(log_3 n) <= floor(log_3
    2^14) = 8, as count_bound counts it once bounded_factor factors n1
    completely, which it does for every n1 below 2^14 (a test checks each
    one).  And count_bound tests only the gamma below
    n.bit_length().bit_length() = 4.  So the bound is at most 12, below
    LEHMER_MIN_OMEGA = 14.  The first 2^a*3^b to reach the scan is
    3^13 = 1,594,323, with bound 13 + 1 = 14 (F_1 = 5 divides its C_n).
    """
    if n < 1:
        raise ValueError("witness_search requires n >= 1")
    start = time.perf_counter()
    inst = structure.decompose(n)
    note = "; n < 3 is outside the exclusion arguments" if inst.small_n else ""

    def done(status, witness, reason):
        return Verdict(
            n=n,
            status=status,
            witness=witness,
            reason=reason + note,
            trial_limit_used=cfg.trial_limit,
            elapsed=time.perf_counter() - start,
        )

    if count is None:
        count = structure.count_bound(n)
    if count.bound < LEHMER_MIN_OMEGA:
        gammas = ", ".join(map(str, count.gammas)) or "none"
        return done(
            REFUTED_COUNT,
            count.bound,
            f"a Lehmer C_{n} has at most Omega(n1) + #{{gamma : F_gamma | C_{n}}} <= "
            f"{count.n1_omega} + {len(count.gammas)} = {count.bound} < {LEHMER_MIN_OMEGA} "
            f"distinct prime factors: n1 = {inst.n1}, gamma = {gammas}",
        )

    for q in arith.cullen_divisors(n, cfg.trial_limit):
        shape = structure.PrimeShape(q, arith.odd_part(q - 1), arith.v2(q - 1))
        if not structure.shape_divides(shape, inst):
            why = (
                f"m = {shape.m} does not divide n1 = {inst.n1}"
                if inst.n1 % shape.m
                else f"a = {shape.a} exceeds n + alpha = {inst.n + inst.alpha}"
            )
            return done(
                REFUTED_SHAPE,
                q,
                f"{q} | C_{n} but q - 1 = {shape.m}*2^{shape.a} does not divide n*2^n: {why}",
            )
        if arith.cullen_mod(n, q * q) == 0:
            return done(REFUTED_SQUARE, q, f"{q}^2 divides C_{n}: not squarefree")
    return done(
        UNDECIDED,
        None,
        f"no witness below {cfg.trial_limit} and count bound {count.bound} >= {LEHMER_MIN_OMEGA}",
    )


@dataclass
class ScreenReport:
    verdicts: list[Verdict]
    counts: dict[str, int]
    undecided: list[int]
    config_hash: str
    reused: int = 0
    computed: int = 0
    elapsed: float = 0.0


def record_dict(v: Verdict, cfg_hash: str) -> dict:
    d = asdict(v)
    d["config_hash"] = cfg_hash
    return d


def _verdict_from_record(d: dict) -> Verdict:
    return Verdict(**{f.name: d[f.name] for f in fields(Verdict)})


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
                if isinstance(d, dict) and d.get("config_hash") == cfg_hash:
                    found[d["n"]] = _verdict_from_record(d)
            except (KeyError, TypeError, ValueError):
                continue  # not JSON, or JSON missing a field or of the wrong type
    return found


def screen_set(
    n_values: list[int],
    cfg: ScreenConfig = ScreenConfig(),
    *,
    workers: int = 1,
    output_path: str | Path | None = None,
    resume: bool = False,
    progress: Callable[[int, int, Verdict], None] | None = None,
) -> ScreenReport:
    """Screen every n in n_values; verdicts come back ascending in n
    regardless of execution order, which is largest n first, so the
    longest residue scan does not start last.

    The count bound of every value to compute is taken here, once, and a
    value it refutes is decided here too.  Only when some value reaches the
    residue scan is the prime table sieved and numpy imported, before any
    worker starts, so forked workers inherit both.  workers >= 1 is an
    upper bound: worker processes start only for the values that reach the
    scan, and only when there are two or more of them; each worker takes
    the count bound of its value again.
    With output_path each fresh verdict is appended as one JSONL record and
    flushed as soon as it is done, so the file is in completion order;
    resume=True first reloads records whose config hash matches and
    recomputes nothing for them.  progress(k, total, verdict) is called for
    the k-th fresh verdict of total, in completion order.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    start = time.perf_counter()
    wanted = sorted(set(n_values))
    wanted_set = set(wanted)
    cfg_hash = config_hash(cfg)
    path = Path(output_path) if output_path is not None else None

    have: dict[int, Verdict] = {}
    if path is not None and resume:
        have = {n: v for n, v in load_records(path, cfg_hash).items() if n in wanted_set}

    todo = [n for n in reversed(wanted) if n not in have]
    count = {n: structure.count_bound(n) for n in todo}
    scan = [n for n in todo if count[n].bound >= LEHMER_MIN_OMEGA]
    if scan:
        # built before the results file is opened, so a failed build leaves
        # it as it was
        arith.prepare_cullen_divisors(cfg.trial_limit)
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

    # witness_search is looked up here, at call time, so a wrapper set on
    # the module attribute sees every call
    search = functools.partial(witness_search, cfg=cfg)
    processes = min(workers, len(scan))
    pooled = set(scan) if processes > 1 else set()
    here = (search(n, count=count[n]) for n in todo if n not in pooled)
    try:
        if pooled:
            # imported here, so a process that never pools never pays for it
            from multiprocessing import Pool

            with Pool(processes) as pool:
                computed = pool.imap_unordered(search, scan, chunksize=1)
                # the count verdicts are made here while the workers scan
                fresh = _drain(chain(here, computed), sink, cfg_hash, progress, len(todo))
        else:
            fresh = _drain(here, sink, cfg_hash, progress, len(todo))
    finally:
        if sink is not None:
            sink.close()

    have.update(fresh)
    verdicts = [have[n] for n in wanted]
    counts: dict[str, int] = {}
    for v in verdicts:
        counts[v.status] = counts.get(v.status, 0) + 1
    return ScreenReport(
        verdicts=verdicts,
        counts=counts,
        undecided=[v.n for v in verdicts if v.status == UNDECIDED],
        config_hash=cfg_hash,
        reused=len(have) - len(fresh),
        computed=len(fresh),
        elapsed=time.perf_counter() - start,
    )


def _drain(verdict_iter, sink, cfg_hash, progress, total) -> dict[int, Verdict]:
    fresh: dict[int, Verdict] = {}
    for v in verdict_iter:
        fresh[v.n] = v
        if sink is not None:
            try:
                sink.write(json.dumps(record_dict(v, cfg_hash), sort_keys=True) + "\n")
                sink.flush()
            except OSError as exc:
                raise RuntimeError(
                    f"cannot append result for n={v.n}: {exc}; earlier lines remain valid"
                ) from None
        if progress is not None:
            progress(len(fresh), total, v)
    return fresh
