"""Screening benchmark for cullen_lehmer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from its src/.
Each workload is a batch job: one client, closed loop, every call run to
completion in a fresh interpreter (perfbench/job.py).  --trace 0 prints
the end-to-end metrics of untraced runs; --trace 1 prints the per-layer
metrics of a traced run.  --workload all runs both modes of every
workload.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

The seed only permutes the n values handed to the program; verdicts must
not depend on it.  This process never imports the package: every verdict
is re-checked by perfbench/check.py in plain big-int arithmetic.  Exact
counts are kept per source tree in .perfbench/exact_counts.json, and a
count that differs from an earlier run of the same code fails the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import check  # noqa: E402

# A run must end within 180 s; stop starting work well before that.
RUN_LIMIT_S = 170.0
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 6


def pow23(lo: int, hi: int) -> list[int]:
    """Every n = 2^a * 3^b with lo <= n <= hi, ascending."""
    out = []
    p3 = 1
    while p3 <= hi:
        n = p3
        while n <= hi:
            if n >= lo:
                out.append(n)
            n *= 2
        p3 *= 3
    return sorted(out)


@dataclass(frozen=True)
class Workload:
    kind: str  # "screen" or "cascade"
    ns: list[int]
    cfg: dict | None  # ScreenConfig fields; None for the cascade
    workers: int
    probes: bool = False


# Why each workload exists is in BENCHMARK.json; in short:
WORKLOADS = {
    # rho and factoring: 1e6-iteration rho on n=2592 and n=2916 is ~80 of ~90 CPU-s
    "desk": Workload("screen", pow23(1, 3000), {}, 2),
    # modexp on 3-12 kbit C_n, rho off; n=18432 would raise, so the range stops below it
    "bigcn": Workload("screen", pow23(3001, 12000), {"rho_budget": 0}, 2, probes=True),
    # sieve to 1e7 and ~13M cullen_mod calls; C_n is never built
    "residue": Workload("screen", pow23(1, 199_999), {"cn_cap": 0, "trial_limit": 10**7}, 2),
    # the proof half, serial; no screen code runs
    "cascade": Workload("cascade", list(range(3, 10_001)), None, 1),
}

class BenchError(Exception):
    """The benchmark itself could not complete a run."""


# Process groups of the jobs in flight, killed if this process is stopped.
_running: set[int] = set()


def _stop(signum, frame):
    for pgid in list(_running):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    raise SystemExit(128 + signum)


def run_job(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run perfbench/job.py on spec in a fresh interpreter and its own
    process group; returns (its JSON result, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    _running.add(proc.pid)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # the job and any pool workers it forked share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{spec['kind']} job ran past the {RUN_LIMIT_S:.0f} s run limit") from None
        raise
    finally:
        _running.discard(proc.pid)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{spec['kind']} job exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    return (json.loads(lines[-1]) if lines else {}), wall


def run_jobs(specs: list[dict], deadline: float) -> list[tuple[dict, float]]:
    """Run several jobs at once, one thread waiting on each."""
    with ThreadPoolExecutor(len(specs)) as pool:
        futures = [pool.submit(run_job, s, deadline) for s in specs]
        return [f.result() for f in futures]


def job_spec(w: Workload, ns: list[int], *, workers: int, traced: bool) -> dict:
    return {"kind": w.kind, "ns": ns, "cfg": w.cfg, "workers": workers, "traced": traced}


class Run:
    """Accumulates one run's checks, exact counts and call accounting."""

    def __init__(self, name: str, w: Workload):
        self.name, self.w = name, w
        self.errors: list[str] = []
        self.counts: dict = {}
        self.unverified = 0
        self.attempted = 0
        self.failed = 0
        self.failure_types: dict[str, int] = {}

    def take(self, res: dict, label: str) -> None:
        """Check one job's outputs and fold in its counts and failures."""
        self.attempted += res["attempted"]
        for kind, k in res["errors"].items():
            self.failed += k
            self.failure_types[kind] = self.failure_types.get(kind, 0) + k
        if self.w.kind == "screen":
            errors, self.unverified = check.screen_verdicts(set(self.w.ns), res["verdicts"])
            counts = check.screen_counts(res["verdicts"])
        else:
            errors = check.cascade(res, len(self.w.ns))
            counts = {"decided": res["two_thirds_true"], "exceptional.candidate_n": res["candidate_n"]}
        self.errors += [f"{label}: {e}" for e in errors]
        self.merge_counts(counts, label)

    def merge_counts(self, counts: dict, label: str) -> None:
        for k, v in counts.items():
            if k in self.counts and self.counts[k] != v:
                self.errors.append(f"{label}: exact count {k} = {v}, earlier job {self.counts[k]}")
            self.counts.setdefault(k, v)

    def compare_with_earlier_runs(self, digest: str) -> None:
        """Flag exact counts that differ from an earlier run of the same code."""
        path = STATE / "exact_counts.json"
        state = json.loads(path.read_text()) if path.exists() else {}
        earlier = state.setdefault(f"{self.name}:{digest}", {})
        for k, v in self.counts.items():
            if k in earlier and earlier[k] != v:
                self.errors.append(f"exact count {k} = {v}, an earlier run of this code had {earlier[k]}")
            earlier.setdefault(k, v)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        os.replace(tmp, path)


def end_to_end(run: Run, rng: random.Random, seconds: int, deadline: float) -> tuple[dict, dict]:
    w = run.w
    setup = {"kind": "setup", "cfg": w.cfg}
    run_job(setup, deadline)  # warm-up: writes bytecode caches, fills the page cache
    # Half the set-up samples before the solve and half after, so that one
    # slow spell of a shared machine does not move them all.
    setups = [run_job(setup, deadline)[1] for _ in range(SETUP_RUNS // 2)]

    reps = []
    began = time.monotonic()
    while not reps or time.monotonic() - began < seconds:
        ns = w.ns[:]
        rng.shuffle(ns)
        res, wall = run_job(job_spec(w, ns, workers=w.workers, traced=False), deadline)
        run.take(res, f"rep {len(reps) + 1}")
        reps.append(res)
        if time.monotonic() + 1.5 * wall > deadline:
            break
    setups += [run_job(setup, deadline)[1] for _ in range(SETUP_RUNS - len(setups))]
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(r["solve_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "decided": run.counts["decided"],
        "ok_frac": 1.0 - run.failed / run.attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }, {"setup_walls": setups, "reps": len(reps)}


def _spans_named(spans: list, name: str) -> list[float]:
    return [s[3] - s[2] for s in spans if s[1] == name]


def per_layer(run: Run, rng: random.Random, deadline: float) -> tuple[dict, dict]:
    """Untraced run at the workload's worker count, then the traced run.

    The traced run of a screen workload is split over `workers` traced
    processes, each screening an interleaved share of the n values with
    workers=1, so every span stays in the process that made it and the
    traced run takes about as long as the untraced one.
    """
    w = run.w
    ns = w.ns[:]
    rng.shuffle(ns)
    untraced, _ = run_job(job_spec(w, ns, workers=w.workers, traced=False), deadline)
    run.take(untraced, "untraced")

    shards = [sorted(w.ns)[i :: w.workers] for i in range(w.workers)] if w.kind == "screen" else [ns]
    traced = [r for r, _ in run_jobs([job_spec(w, s, workers=1, traced=True) for s in shards], deadline)]
    merged = {
        "attempted": sum(r["attempted"] for r in traced),
        "errors": {},
        "spans": [s for r in traced for s in r["spans"]],
        "hot": {},
    }
    for r in traced:
        for kind, k in r["errors"].items():
            merged["errors"][kind] = merged["errors"].get(kind, 0) + k
        for name, stat in r["hot"].items():
            acc = merged["hot"].setdefault(name, [0, 0.0, 0.0])
            merged["hot"][name] = [a + b for a, b in zip(acc, stat)]
    if w.kind == "screen":
        merged["verdicts"] = sorted((v for r in traced for v in r["verdicts"]), key=lambda v: v[0])
    else:
        merged.update({k: v for k, v in traced[0].items() if k not in merged})
    run.take(merged, "traced")

    spans, hot = merged["spans"], merged["hot"]

    def hot_stat(name: str) -> list:
        return hot.get(name, [0, 0.0, 0.0])

    m = {}
    m["arith.primes_up_to.s"] = sum(_spans_named(spans, "arith.primes_up_to"))
    m["arith.cullen_mod.calls"] = hot_stat("arith.cullen_mod")[0]
    m["arith.cullen_mod.s"] = hot_stat("arith.cullen_mod")[1]
    m["arith.is_prime.calls"] = hot_stat("arith.is_prime")[0]
    m["arith.is_prime.s"] = hot_stat("arith.is_prime")[2]
    probes = {}
    if w.probes:
        probes = run_job({"kind": "probes"}, deadline)[0]["probes"]
        run.errors += [f"probes: {e}" for e in check.probes(probes)]
    for label in ("3k", "6k", "10k"):
        m[f"arith.is_prime_cn_{label}.s"] = probes.get(label, {}).get("s", 0.0)
    m["arith.is_prime_cn_18k.failed"] = int("error" in probes.get("18k", {}))
    factor = _spans_named(spans, "arith.bounded_factor")
    m["arith.bounded_factor.calls"] = len(factor)
    m["arith.bounded_factor.s"] = sum(factor)
    m["arith.rho_iters"] = run.counts.get("arith.rho_iters", 0)
    # rho runs inside bounded_factor; its self time excludes the is_prime calls
    rho_s = sum(s[6] for s in spans if s[1] == "arith.bounded_factor")
    m["arith.rho_iters_per_s"] = m["arith.rho_iters"] / rho_s if m["arith.rho_iters"] else 0.0
    m["arith.int_nth_root.calls"] = hot_stat("arith.int_nth_root")[0]
    m["arith.int_nth_root.s"] = hot_stat("arith.int_nth_root")[1]
    m["structure.prime_shape.calls"] = hot_stat("structure.prime_shape")[0]
    m["structure.prime_shape.s"] = hot_stat("structure.prime_shape")[1]
    cullen = _spans_named(spans, "structure.cullen_value")
    m["structure.cullen_value.calls"] = len(cullen)
    m["structure.cullen_value.s"] = sum(cullen)
    searches = _spans_named(spans, "screen.witness_search")
    m["screen.witness_search.calls"] = len(searches)
    m["screen.witness_search.p50_s"] = statistics.median(searches) if searches else 0.0
    m["screen.witness_search.max_s"] = max(searches, default=0.0)
    for status in check.KNOWN_STATUSES + ("other",):
        m[f"screen.decided.{status}"] = run.counts.get(f"screen.decided.{status}", 0)
    verdicts = merged.get("verdicts", [])
    ran = [v for v in verdicts if v[3] > 0]
    m["screen.rho.ran"] = len(ran)
    m["screen.rho.useful_frac"] = sum(v[1] != check.UNDECIDED for v in ran) / len(ran) if ran else 0.0
    busy = sum(v[4] for v in untraced.get("verdicts", []))
    m["screen.pool.efficiency"] = busy / (w.workers * untraced["solve_s"]) if busy else 0.0
    m["screen.verdicts_unverified"] = run.unverified
    m["bounds.refine_chain.s"] = sum(_spans_named(spans, "bounds.refine_chain"))
    two_thirds = _spans_named(spans, "bounds.check_two_thirds")
    m["bounds.check_two_thirds.calls"] = len(two_thirds)
    m["bounds.check_two_thirds.s"] = sum(two_thirds)
    scans = _spans_named(spans, "exceptional.scan_exceptional")
    m["exceptional.scan_exceptional.calls"] = len(scans)
    m["exceptional.scan_exceptional.s"] = sum(scans)
    m["exceptional.uniqueness_scan.s"] = sum(_spans_named(spans, "exceptional.uniqueness_scan"))
    m["exceptional.candidate_n"] = run.counts.get("exceptional.candidate_n", 0)
    m["cli.bounds.s"] = sum(_spans_named(spans, "cli.bounds"))
    m["cli.exceptional.s"] = sum(_spans_named(spans, "cli.exceptional"))
    # The untraced single-worker baseline: per-n compute time of the
    # untraced run for a screen, the whole serial solve for the cascade.
    serial = busy if w.kind == "screen" else untraced["solve_s"]
    traced_busy = sum(v[4] for v in verdicts) if w.kind == "screen" else traced[0]["solve_s"]
    m["bench.serial_s"] = serial
    m["bench.trace_overhead_frac"] = traced_busy / serial - 1.0 if serial else 0.0
    run.counts.update(
        {
            "arith.cullen_mod.calls": m["arith.cullen_mod.calls"],
            "structure.prime_shape.calls": m["structure.prime_shape.calls"],
        }
    )
    return m, {"spans": spans, "hot": hot, "probes": probes}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for the given mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_digest() -> str:
    """Hash of the package and benchmark sources: exact counts are keyed by it."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "cullen_lehmer", HERE):
        for path in sorted(base.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    w = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    digest = source_digest()
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "source_digest": digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "workers": w.workers,
        "traced_workers": 1,
        "gmpy2_importable": find_spec("gmpy2") is not None,
    }
    run = Run(name, w)
    rng = random.Random(seed)
    if trace:
        metrics, extra = per_layer(run, rng, deadline)
    else:
        metrics, extra = end_to_end(run, rng, seconds, deadline)
    run.compare_with_earlier_runs(digest)
    record.update(
        loadavg_end=os.getloadavg(),
        failure_types=run.failure_types,
        errors=run.errors,
        **{k: v for k, v in extra.items() if k not in ("spans", "hot")},
    )
    (STATE / f"{name}-trace{trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics, **extra})
    )
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    return {
        "record": record,
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def show(result: dict) -> None:
    rec = result["record"]
    print(f"== {rec['workload']} (trace {rec['trace']}, seed {rec['seed']})")
    print("record " + json.dumps(rec, sort_keys=True))
    for k, m in result["metrics"].items():
        print(f"  {k:36s} {m['value']:>16.6g} {m['unit']}")
    for e in rec["errors"]:
        print(f"  CHECK FAILED: {e}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cullen_lehmer" / "__init__.py").is_file():
        print(f"no cullen_lehmer package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    if args.workload != "all":
        try:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        show(result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    # Every workload in both modes; one that cannot complete is reported
    # and the others still run.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    broken = []
    for name in WORKLOADS:
        for trace in (0, 1):
            try:
                result = run_workload(name, args.seed, args.seconds, trace)
            except BenchError as exc:
                print(f"== {name} (trace {trace}): benchmark error: {exc}")
                broken.append(name)
                continue
            show(result)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for k, m in result["metrics"].items():
                total["metrics"][f"{name}.{k}"] = m
    print(json.dumps(total))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
