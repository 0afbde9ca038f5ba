"""One benchmark job in a fresh interpreter: import cullen_lehmer from the
checkout's src/, do the set-up, run the workload's calls, report.

Reads a JSON spec on stdin and prints one JSON object as the last line of
stdout.  Spec keys:
  kind     "setup" | "screen" | "cascade" | "probes"
  ns       the n values, in the order handed to the program
  cfg      ScreenConfig fields (screen and setup)
  workers  worker processes for screen_set
  traced   install the tracer (perfbench/tracer.py) before the set-up

Only the solve is timed; set-up happens before the clock starts and the
data the checker needs is gathered after it stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# n whose C_n is composite with no prime factor below 1000, so is_prime
# reaches Miller-Rabin and the first round is one modexp on C_n.  C_3072
# and C_6144 have the factors 7 and 5, so the probes at those sizes use the
# next n without a factor below 1000.
PROBE_NS = {"3k": 3075, "6k": 6147, "10k": 10368, "18k": 18432}


def _import_package():
    sys.path.insert(0, str(SRC))
    import cullen_lehmer
    from cullen_lehmer import arith, bounds, cli, exceptional, screen, structure

    if Path(cullen_lehmer.__file__).resolve().parent != SRC / "cullen_lehmer":
        raise SystemExit(f"cullen_lehmer imported from {cullen_lehmer.__file__}, not {SRC}")
    return {
        "arith": arith,
        "bounds": bounds,
        "cli": cli,
        "exceptional": exceptional,
        "screen": screen,
        "structure": structure,
    }


def _cpu_seconds() -> float:
    """CPU of this process plus every child it has waited for (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest RSS of this process and of the children it has waited for.

    For this process it reads VmHWM: ru_maxrss of RUSAGE_SELF carries over
    the RSS of the process that spawned this interpreter.  Forked pool
    workers start their own count, so their ru_maxrss is theirs.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # both in KiB


class Calls:
    """Runs workload calls, counting the attempted ones and the exception
    type of each that raised."""

    def __init__(self):
        self.attempted = 0
        self.errors: dict[str, int] = {}

    def run(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a measured failure, not a crash
            kind = type(exc).__name__
            self.errors[kind] = self.errors.get(kind, 0) + 1
            return False, None


def _screen(m, spec, calls):
    screen = m["screen"]
    cfg = screen.ScreenConfig(**spec["cfg"])
    ok, report = calls.run(screen.screen_set, spec["ns"], cfg, workers=spec["workers"])

    def gather():
        if not ok:
            return {"verdicts": []}
        return {
            "verdicts": [
                [v.n, v.status, v.witness, v.rho_budget_used, v.elapsed] for v in report.verdicts
            ]
        }

    return gather


def _cascade(m, spec, calls):
    cli, bounds = m["cli"], m["bounds"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _, bounds_exit = calls.run(cli.main, ["bounds"])
        _, exc_exit = calls.run(cli.main, ["exceptional", "--n-max", str(max(spec["ns"]))])
    true_count = 0
    for n in spec["ns"]:
        ok, holds = calls.run(bounds.check_two_thirds, n)
        true_count += ok and holds is True

    def gather():
        lines = out.getvalue().splitlines()
        violations = [int(s.split()[0]) for s in lines if "uniqueness violations" in s]
        candidate_n = {s.split(":")[0] for s in lines if s.startswith("n=")}
        final = bounds.refine_chain().final_form
        return {
            "cli_exit": [bounds_exit, exc_exit],
            "violations": violations[0] if violations else None,
            "candidate_n": len(candidate_n),
            "final_form": None if final is None else [final.n_max, final.k_max],
            "two_thirds_true": true_count,
        }

    return gather


def _probes(m):
    """One arith.is_prime call per probe size; returns seconds or the
    exception type per size.  C_n is never converted to a string here."""
    arith = m["arith"]
    small = arith.primes_up_to(1000)
    out = {}
    for label, n in PROBE_NS.items():
        cn = (n << n) + 1
        if any(cn % p == 0 for p in small):
            raise SystemExit(f"probe C_{n} has a prime factor below 1000")
        start = time.perf_counter()
        try:
            answer = arith.is_prime(cn)
        except Exception as exc:  # recorded as the probe's failure
            out[label] = {"n": n, "error": type(exc).__name__}
            continue
        out[label] = {"n": n, "s": time.perf_counter() - start, "prime": answer}
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    m = _import_package()
    if spec["kind"] == "probes":
        print(json.dumps({"probes": _probes(m)}))
        return 0

    tracer = None
    if spec.get("traced"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer(m)
        tracer.install()
    if spec["kind"] in ("setup", "screen") and spec.get("cfg") is not None:
        m["arith"].primes_up_to(m["screen"].ScreenConfig(**spec["cfg"]).trial_limit)
    if spec["kind"] == "setup":
        return 0

    calls = Calls()
    run = _screen if spec["kind"] == "screen" else _cascade
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    gather = run(m, spec, calls)
    solve_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()

    result = gather()
    result.update(
        solve_s=solve_s,
        cpu_s=cpu_s,
        peak_rss_mb=_peak_rss_mb(),
        attempted=calls.attempted,
        errors=calls.errors,
    )
    if tracer is not None:
        result["spans"] = tracer.spans
        result["hot"] = tracer.hot
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
