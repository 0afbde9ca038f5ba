"""Command-line entry points for the three verification workflows.

    cullen-lehmer bounds       run the exclusion cascade, print each step
    cullen-lehmer exceptional  enumerate exceptional-prime candidates and
                               check uniqueness over a range of n
    cullen-lehmer screen       refute the Lehmer necessary conditions on a
                               set of n by count bound and totient-ratio walk

Each record is printed once, on stdout, as it is made: a human line, or
under --format jsonl a JSON object, with the summary lines on stderr so
the record stream stays machine-readable.  --output is screen's results file.

Exit codes: 0 clean, 1 a check failed (uniqueness violation, a cascade
check that does not hold, undecided n), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bounds, exceptional, screen

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cullen-lehmer",
        description="Screens Cullen numbers n*2^n + 1 against the Lehmer totient condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format",
            choices=("human", "jsonl"),
            default="human",
            help="report format (default human)",
        )

    p_bounds = sub.add_parser("bounds", help="run the exclusion cascade")
    common(p_bounds)

    p_exc = sub.add_parser("exceptional", help="exceptional-prime candidates and uniqueness")
    common(p_exc)
    p_exc.add_argument(
        "--n-max", type=int, default=10_000, help="scan 3 <= n <= n_max (default 10000)"
    )

    p_scr = sub.add_parser("screen", help="witness-search a set of n")
    common(p_scr)
    p_scr.add_argument(
        "--set",
        dest="which_set",
        choices=("pow23", "range", "file"),
        default="pow23",
        help="pow23: n = 2^a*3^b <= n-max; range: 1..n-max; file: one decimal n per line",
    )
    p_scr.add_argument("--n-max", type=int, help="cap of --set pow23 or range (default 3000)")
    p_scr.add_argument("--n-file", help="file of n values, read only with --set file")
    p_scr.add_argument(
        "--trial-limit",
        type=int,
        default=screen.DEFAULT_TRIAL_LIMIT,
        help="largest prime the totient-ratio walk tries as a divisor of C_n (default 10^6);"
        " below 2^26, so every prime tried is below 65537^2 and proven by trial division;"
        " read only for n whose count bound reaches 14",
    )
    p_scr.add_argument("--output", help="append each verdict to this resumable results file")
    p_scr.add_argument(
        "--resume", action="store_true", help="reuse matching records already in --output"
    )
    p_scr.add_argument(
        "--allow-undecided",
        action="store_true",
        help="exit 0 even when some n stay undecided",
    )
    return parser


def _config_line(args) -> str:
    """The full effective run configuration, embedded in every report so
    runs can be matched to their settings."""
    shown = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items()))
    return f"run config: {shown}"


def _record(fmt: str, d: dict, human: str) -> None:
    print(json.dumps(d, sort_keys=True) if fmt == "jsonl" else human, flush=True)


def _summary(fmt: str, text: str) -> None:
    print(text, file=sys.stdout if fmt == "human" else sys.stderr, flush=True)


def cmd_bounds(args) -> int:
    try:
        chain = bounds.refine_chain()
    except RuntimeError as exc:
        # a cascade check that does not hold is a failed proof, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    _summary(args.format, _config_line(args))
    for step in chain.steps:
        d = step._asdict()
        d["assumptions"] = list(step.assumptions)
        _record(
            args.format,
            d,
            f"[{step.anchor}] {step.label}: {step.detail}"
            + (
                f"  (n_bound {step.n_bound} <= stated {step.stated_n_bound})"
                if step.n_bound and step.stated_n_bound
                else ""
            )
            + f"  [assuming: {', '.join(step.assumptions)}]",
        )
    ff = chain.final_form
    _summary(
        args.format,
        f"final form: n = 2^α·3^β, n < {ff.n_max:,}, k ≤ {ff.k_max} "
        f"(computed n < {ff.n_max_computed:,})",
    )
    return EXIT_OK


def cmd_exceptional(args) -> int:
    if args.n_max < 3:
        print("--n-max must be >= 3", file=sys.stderr)
        return EXIT_USAGE
    _summary(args.format, _config_line(args))
    rows = exceptional.scan_exceptional(3, args.n_max)
    for n, cands in rows:
        for c in cands:
            d = {
                "n": n,
                "w": c.w,
                "rho": c.rho,
                "exponent": c.exponent,
                "p_bits": c.p.bit_length(),
            }
            _record(
                args.format,
                d,
                f"n={n}: w={c.w} rho={c.rho} p={c.rho}*2^{c.exponent}+1 "
                f"({c.p.bit_length()} bits)",
            )
    violations = exceptional.uniqueness_violations(rows)
    _summary(
        args.format,
        f"{len(violations)} uniqueness violations in 3..{args.n_max}"
        + (f": {violations}" if violations else ""),
    )
    return EXIT_CHECK_FAILED if violations else EXIT_OK


def cmd_screen(args) -> int:
    if args.which_set == "file":
        if not args.n_file:
            print("--set file requires --n-file", file=sys.stderr)
            return EXIT_USAGE
        if args.n_max is not None:
            print("--n-max is read only with --set pow23 or range", file=sys.stderr)
            return EXIT_USAGE
        try:
            text = Path(args.n_file).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"cannot read {args.n_file}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        n_values = []
        for number, line in enumerate(text.split("\n"), 1):
            digits = line.strip()
            if not digits:
                continue
            if not (digits.isascii() and digits.isdigit()):
                print(
                    f"{args.n_file}:{number}: want one decimal n per line: {line!r}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            n_values.append(int(digits))
    elif args.n_file:
        print("--n-file is read only with --set file", file=sys.stderr)
        return EXIT_USAGE
    else:
        # defaulted here, not by argparse, so --set file can tell a given
        # --n-max; the run config line shows the cap applied
        if args.n_max is None:
            args.n_max = 3000
        if args.which_set == "range":
            n_values = list(range(1, args.n_max + 1))
        else:
            n_values = screen.enumerate_2a3b(args.n_max)
    if not n_values or min(n_values) < 1:
        print("no valid n to screen (need n >= 1)", file=sys.stderr)
        return EXIT_USAGE
    if args.resume and not args.output:
        print("--resume requires --output", file=sys.stderr)
        return EXIT_USAGE

    cfg = screen.ScreenConfig(trial_limit=args.trial_limit)
    cfg_hash = screen.config_hash(cfg)

    def show(k: int, total: int, v: screen.Verdict) -> None:
        # called in ascending n as each verdict is made or reused; the config
        # line leads, once the results file is open, so a usage error prints
        # nothing on stdout
        if k == 1:
            _summary(args.format, _config_line(args))
        _record(
            args.format,
            screen.record_dict(v, cfg_hash),
            f"n={v.n}: {v.status}"
            + (f" witness={v.witness}" if v.witness else "")
            + f"  ({v.reason})"
            + f"  [trial<={v.trial_limit_used}, {v.elapsed:.2f}s]",
        )

    report = screen.screen_set(
        n_values, cfg, output_path=args.output, resume=args.resume, progress=show
    )
    _summary(
        args.format,
        f"screened {len(report.verdicts)} values (config {report.config_hash}, "
        f"{report.reused} reused, {report.computed} computed, {report.elapsed:.1f}s)",
    )
    for status in sorted(report.counts):
        _summary(args.format, f"  {status}: {report.counts[status]}")
    _summary(args.format, f"undecided n: {report.undecided or 'none'}")
    if report.undecided and not args.allow_undecided:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already; normalize --help's 0
        return int(exc.code or 0)
    handlers = {"bounds": cmd_bounds, "exceptional": cmd_exceptional, "screen": cmd_screen}
    try:
        return handlers[args.command](args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    # a file n of more than 4300 digits passes through int/str conversion
    # when read, in its human line and in its JSON record; lifted only in
    # this process, not in main, which library callers run inside their own
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        sys.exit(main())
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)


if __name__ == "__main__":
    console_main()
