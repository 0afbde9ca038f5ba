import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cullen_lehmer import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_default_final_line(capsys):
    code, out, _ = run_cli(capsys, "bounds")
    assert code == 0
    assert "n = 2^α·3^β, n < 200,000, k ≤ 15" in out


def test_bounds_jsonl_one_step_per_line(capsys):
    code, out, err = run_cli(capsys, "bounds", "--format", "jsonl")
    assert code == 0
    steps = [json.loads(line) for line in out.strip().splitlines()]
    assert [s["anchor"] for s in steps][:2] == ["k-crossover", "fermat-cap"]
    assert steps[-1]["anchor"] == "final-form"
    assert all(s["n_bound"] <= s["stated_n_bound"] for s in steps)
    assert "final form" in err  # summary stays off the record stream


def test_exceptional_small_range(capsys):
    code, out, _ = run_cli(capsys, "exceptional", "--n-max", "30", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 1
    assert rows[0]["n"] == 27 and (rows[0]["rho"], rows[0]["exponent"]) == (3, 9)
    assert "certainty" not in rows[0]


@pytest.mark.parametrize("fmt", ["jsonl"])
def test_exceptional_whole_reduction_range(capsys, fmt):
    # p is left out of the records: its decimal string would pass Python's
    # 4300-digit limit (the largest candidate below 200,000 has 64,897 bits)
    code, out, err = run_cli(capsys, "exceptional", "--n-max", "200000", "--format", fmt)
    assert code == 0
    assert "0 uniqueness violations in 3..200000" in err
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 49 and len({r["n"] for r in rows}) == 48
    for r in rows:
        n1 = r["n"] >> ((r["n"] & -r["n"]).bit_length() - 1)
        assert r["rho"] ** r["w"] == n1
        assert r["p_bits"] == (r["rho"] << r["exponent"]).bit_length()
        assert "p" not in r and "is_prime" not in r


def test_exceptional_failed_certificate_exits_1(capsys, monkeypatch):
    from cullen_lehmer import exceptional

    def broken(n, cands):
        raise RuntimeError("cofactor split failed")

    monkeypatch.setattr(exceptional, "certify_smaller_composite", broken)
    code, out, _ = run_cli(capsys, "exceptional", "--n-max", "20000")
    assert code == 1
    assert "1 uniqueness violations in 3..20000: [19683]" in out


def test_exceptional_empty_range(capsys):
    code, out, err = run_cli(capsys, "exceptional", "--n-max", "3")
    assert code == 0
    assert "0 uniqueness violations" in out + err


def test_exceptional_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "exceptional", "--n-max", "2")
    assert code == 2


def test_screen_range_matches_module(capsys):
    from cullen_lehmer import screen

    code, out, _ = run_cli(capsys, "screen", "--set", "range", "--n-max", "12", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["n"] for r in rows] == list(range(1, 13))
    for r in rows:
        v = screen.witness_search(r["n"])
        assert (r["status"], r["witness"]) == (v.status, v.witness)


def test_screen_prints_each_verdict_once_on_stdout(tmp_path, capsys):
    out_file = tmp_path / "res.jsonl"
    argv = ("screen", "--set", "pow23", "--n-max", "30", "--trial-limit", "10000",
            "--format", "jsonl", "--output", str(out_file))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    # stderr carries the four summary lines and no per-verdict line
    summary = err.splitlines()
    assert len(summary) == 4 and summary[0].startswith("run config: ")
    assert summary[3] == "undecided n: none"
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [json.loads(line) for line in out_file.read_text().splitlines()]
    assert [r["n"] for r in records] == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27]
    # a resumed run prints the same lines in the same order: a reused
    # record carries its stored elapsed
    code, resumed, err = run_cli(capsys, *argv, "--resume")
    assert code == 0 and "12 reused, 0 computed" in err
    assert resumed == out


def test_screen_run_config_line_comes_first(tmp_path, capsys):
    # human: the first stdout line, before any verdict; jsonl: the first
    # stderr line, off the record stream; and a results file that cannot
    # be opened prints nothing on stdout
    code, out, _ = run_cli(capsys, "screen", "--n-max", "12")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("run config: ") and lines[1].startswith("n=1: ")
    code, out, err = run_cli(capsys, "screen", "--n-max", "12", "--format", "jsonl")
    assert code == 0 and err.splitlines()[0].startswith("run config: ")
    assert json.loads(out.splitlines()[0])["n"] == 1
    bad = tmp_path / "missing-dir" / "x.jsonl"
    code, out, err = run_cli(capsys, "screen", "--n-max", "12", "--output", str(bad))
    assert (code, out) == (2, "") and err.startswith("error: cannot open results file")


def test_screen_prints_each_verdict_as_it_is_made(monkeypatch, capsys):
    from cullen_lehmer import screen

    search = screen.witness_search
    out = []

    def checked(n, cfg):
        out.append(capsys.readouterr().out)
        # the k - 1 verdicts made before the k-th are already on stdout
        assert "".join(out).count("\n") == len(out) - 1, n
        return search(n, cfg)

    monkeypatch.setattr(screen, "witness_search", checked)
    assert cli.main(["screen", "--set", "range", "--n-max", "5", "--format", "jsonl"]) == 0
    out.append(capsys.readouterr().out)
    assert [json.loads(line)["n"] for line in "".join(out).splitlines()] == [1, 2, 3, 4, 5]


def test_screen_file_set(tmp_path, capsys):
    nf = tmp_path / "ns.txt"
    nf.write_text("6\n9\n12\n")
    code, out, _ = run_cli(capsys, "screen", "--set", "file", "--n-file", str(nf))
    assert code == 0
    assert out.index("n=6") < out.index("n=9") < out.index("n=12")


def test_screen_file_set_takes_n_past_uint64(tmp_path, capsys):
    # n = 3^40*8 has 67 bits and count bound 40, so it reaches the walk: no
    # admissible prime up to X = 72 divides C_n, so each of the at most 40
    # primes of a Lehmer C_n exceeds 72, and (73/72)^40 < 2.  2^64 is
    # refuted by its count bound alone: n1 = 1, and F_6 = 2^64 + 1 divides
    # C_(2^64) = 2^(2^64 + 64) + 1
    n = 3**40 * 8
    assert n == 97261323672455430408 and n.bit_length() == 67
    assert 73**40 < 2 * 72**40
    nf = tmp_path / "ns.txt"
    nf.write_text(f"{n}\n{2**64}\n")
    code, out, _ = run_cli(capsys, "screen", "--set", "file", "--n-file", str(nf))
    assert code == 0
    assert f"n={n}: REFUTED_RATIO witness=72  (no prime found dividing C_n, " in out
    assert f"n={2**64}: REFUTED_COUNT witness=1" in out


def test_console_script_screens_an_n_past_the_int_digit_limit(tmp_path):
    # Python refuses int/str conversion past 4300 digits by default; the
    # process entry point lifts that limit, so a file n of 4301 digits is
    # screened: the walk finds 7 and 17 and refutes C_n at X = 2026
    nf = tmp_path / "ns.txt"
    nf.write_text("3" * 4301 + "\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "cullen_lehmer.cli", "screen", "--set", "file", "--n-file", str(nf)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert ": REFUTED_RATIO witness=2026  (7, 17 found dividing C_" in out.stdout


@pytest.mark.parametrize("bad", ["1_000", "+5", "5 7", "-5", "0x10", "٣"])
def test_screen_file_set_reads_one_decimal_n_per_line(tmp_path, capsys, bad):
    nf = tmp_path / "ns.txt"
    nf.write_text("6\n\n 9 \r\n\n")
    code, out, _ = run_cli(capsys, "screen", "--set", "file", "--n-file", str(nf))
    assert code == 0 and "n=6:" in out and "n=9:" in out
    nf.write_text(f"6\n\n{bad}\n9\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "screen", "--set", "file", "--n-file", str(nf))
    assert (code, out) == (2, "")
    assert f"{nf}:3: want one decimal n per line: {bad!r}" in err


def test_screen_file_set_requires_file(capsys):
    code, _, err = run_cli(capsys, "screen", "--set", "file")
    assert code == 2
    assert "--n-file" in err


def test_screen_n_file_without_file_set_exits_2(tmp_path, capsys):
    nf = tmp_path / "ns.txt"
    nf.write_text("7\n")
    code, out, err = run_cli(capsys, "screen", "--n-file", str(nf), "--n-max", "10")
    assert (code, out) == (2, "")
    assert "--set file" in err


def test_screen_file_set_rejects_n_max(tmp_path, capsys):
    nf = tmp_path / "ns.txt"
    nf.write_text("7\n")
    argv = ("screen", "--set", "file", "--n-file", str(nf), "--n-max", "5")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--n-max is read only with --set pow23 or range" in err


def test_screen_run_config_shows_the_n_max_applied(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "screen", "--set", "range", "--trial-limit", "100")
    assert code == 0 and "n_max=3000" in out and "n=3000:" in out
    nf = tmp_path / "ns.txt"
    nf.write_text("7\n")
    code, out, _ = run_cli(capsys, "screen", "--set", "file", "--n-file", str(nf))
    assert code == 0 and "n_max=None" in out


def test_screen_undecided_exit_codes(tmp_path, capsys):
    # n = 3^13 has count bound 14, and with a budget of 10 the walk cannot
    # reach X = 28, where it would refute C_n, so it stays undecided
    nf = tmp_path / "ns.txt"
    nf.write_text("1594323\n")
    args = ("screen", "--set", "file", "--n-file", str(nf), "--trial-limit", "10")
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert (
        "n=1594323: UNDECIDED  (no ratio refutation up to X = 10 and count bound 14 >= 14)"
        "  [trial<=10, " in out
    )
    code, _, _ = run_cli(capsys, *args, "--allow-undecided")
    assert code == 0


def test_screen_resume_via_cli(tmp_path, capsys):
    out_file = tmp_path / "res.jsonl"
    argv = ("screen", "--set", "pow23", "--n-max", "30", "--output", str(out_file),
            "--trial-limit", "10000")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    blob = out_file.read_bytes()
    code, out, _ = run_cli(capsys, *argv, "--resume")
    assert code == 0
    assert out_file.read_bytes() == blob
    assert "12 reused, 0 computed" in out


@pytest.mark.parametrize(
    "line", ["5", '{{"config_hash": "{cfg_hash}", "n": 6}}'], ids=["not-an-object", "no-status"]
)
def test_screen_resume_skips_lines_that_are_not_records(tmp_path, capsys, line):
    from cullen_lehmer import screen

    out_file = tmp_path / "res.jsonl"
    argv = ("screen", "--set", "pow23", "--n-max", "30", "--output", str(out_file),
            "--trial-limit", "10000")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    cfg_hash = screen.config_hash(screen.ScreenConfig(trial_limit=10_000))
    with open(out_file, "a") as fh:
        fh.write(line.format(cfg_hash=cfg_hash) + "\n")
    code, out, err = run_cli(capsys, *argv, "--resume")
    assert (code, err) == (0, "")
    assert "12 reused, 0 computed" in out


def test_cullen_environment_variables_are_ignored(monkeypatch, capsys):
    from cullen_lehmer import screen

    monkeypatch.setenv("CULLEN_N_MAX", "20")
    monkeypatch.setenv("CULLEN_FORMAT", "xml")
    monkeypatch.setenv("CULLEN_WORKERS", "0")
    code, out, _ = run_cli(capsys, "screen", "--set", "pow23")
    assert code == 0
    ns = [int(m) for m in re.findall(r"^n=(\d+):", out, re.M)]
    assert ns == screen.enumerate_2a3b(3000) and len(ns) == 52


def test_usage_error_exit_code(capsys):
    assert cli.main(["bogus-command"]) == 2


def test_bounds_broken_stated_constant_exits_1(monkeypatch, capsys):
    from cullen_lehmer import bounds

    monkeypatch.setattr(bounds, "STATED_N_AT_K17", 250_000)
    code, out, err = run_cli(capsys, "bounds")
    assert code == 1
    assert out == ""
    assert err.startswith("error: cascade step threshold-k17: ")


def test_bounds_records_carry_no_config_hash(capsys):
    code, out, err = run_cli(capsys, "bounds", "--format", "jsonl")
    assert code == 0
    assert all("config_hash" not in json.loads(line) for line in out.strip().splitlines())
    assert "hash" not in err


def test_flags_only_where_read(capsys):
    assert cli.main(["bounds", "--workers", "2"]) == 2
    assert cli.main(["bounds", "--min-omega", "14"]) == 2
    assert cli.main(["exceptional", "--min-omega", "3"]) == 2
    assert cli.main(["screen", "--min-omega", "3"]) == 2
    assert cli.main(["screen", "--mr-rounds", "8"]) == 2
    assert cli.main(["exceptional", "--workers", "2"]) == 2
    assert cli.main(["screen", "--cn-cap", "0"]) == 2
    assert cli.main(["screen", "--rho-budget", "5"]) == 2
    assert cli.main(["screen", "--workers", "2"]) == 2
    assert cli.main(["bounds", "--output", "x"]) == 2
    assert cli.main(["exceptional", "--output", "x"]) == 2
    assert cli.main(["screen", "--format", "csv"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["screen"])
def test_unopenable_output_exits_2(tmp_path, capsys, command):
    path = tmp_path / "missing-dir" / "x.jsonl"
    code, _, err = run_cli(capsys, command, "--output", str(path))
    assert code == 2
    assert err.startswith("error: cannot open results file") and str(path) in err


@pytest.mark.parametrize("limit", ["-1", "67108864", "4294967296", "5000000000"])
def test_screen_trial_limit_outside_uint32_exits_2(capsys, limit):
    code, _, err = run_cli(capsys, "screen", "--n-max", "10", "--trial-limit", limit)
    assert code == 2
    assert err.startswith("error: ") and "2**26" in err
