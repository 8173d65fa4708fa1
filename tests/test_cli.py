"""End-to-end checks of the command-line interface.

Most tests drive ``main`` in process and inspect captured stdout/stderr;
one smoke test spawns the installed console script. JSON output is parsed
rather than string-matched, except where byte-identical reruns are the
point being tested.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from lucasprod import (
    FactorCache,
    NotFoundWithinBound,
    SeparationLawViolation,
    class_of,
    cli,
    factoring,
    primitive,
    solver,
)
from lucasprod.cli import main
from lucasprod.factoring import factorize, power_free_part
from lucasprod.lucas import lucas_u, validate_params

from _oracles import lucas_values, reference_parser

FIB = ["--p", "1", "--q", "1"]
# A cache file holds only |N| >= 10^10, so a record a run reads is at least
# that big: U_60 of Fibonacci is the first such term the tests read.
U60 = 1548008755920
U60_PRIMES = "3^2 5^1 11^1 31^1 41^1 61^1 2521^1"  # and 2^4


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_prints_indexed_terms(capsys):
    code, out, err = run_cli(capsys, ["seq", *FIB, "--max", "7"])
    assert code == 0
    assert err == ""
    assert out.splitlines() == ["1 1", "2 1", "3 2", "4 3", "5 5", "6 8", "7 13"]


def test_seq_json_record(capsys):
    code, out, _ = run_cli(capsys, ["seq", *FIB, "--max", "5", "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "seq"
    assert record["params"] == {"p": 1, "q": 1, "a": None, "k": 2}
    assert record["results"] == [
        {"n": 1, "value": "1"},
        {"n": 2, "value": "1"},
        {"n": 3, "value": "2"},
        {"n": 4, "value": "3"},
        {"n": 5, "value": "5"},
    ]


@pytest.mark.parametrize("max_index", [1, 2, 300])
@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (3, -1), (-3, -1), (-1, 1), (1000, 1)])
def test_seq_matches_recurrence_oracle(capsys, p, q, max_index):
    argv = ["seq", "--p", str(p), "--q", str(q), "--max", str(max_index)]
    want = lucas_values(p, q, max_index)[1:]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"{n} {v}" for n, v in enumerate(want, 1)]
    code, out, _ = run_cli(capsys, [*argv, "--json"])
    assert code == 0
    assert json.loads(out)["results"] == [{"n": n, "value": str(v)} for n, v in enumerate(want, 1)]


class _CountingSink:
    """A stdout that counts the characters written to it and keeps none."""

    size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("extra, bound", [([], 0.25), (["--json"], 3)])
def test_seq_peak_memory_is_a_fraction_of_its_output(extra, bound):
    """seq writes each term as it steps to it: holding all 4,000 Fibonacci
    terms as strings before printing them takes about 3x the 1.7 MB of text
    output and 5x the JSON output."""
    with contextlib.redirect_stdout(_CountingSink()):
        main(["seq", *FIB, "--max", "1", *extra])  # argparse's one-time setup, outside the trace
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["seq", *FIB, "--max", "4000", *extra]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 1_600_000
    assert peak < bound * sink.size


def test_classify_reports_power_free_parts(capsys):
    code, out, _ = run_cli(capsys, ["classify", *FIB, "--max", "12"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n value e s class"
    assert len(lines) == 13
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    assert rows["6"] == ["6", "8", "2", "2", "2"]
    assert rows["12"] == ["12", "144", "1", "12", "1"]


def test_classify_class_is_the_square_class_of_each_term(capsys):
    for p, q in ((1, 1), (2, 1), (3, -1), (3, 1), (4, 1), (6, 1)):
        params, cache = validate_params(p, q), FactorCache()
        for k in (2, 3):
            argv = ["classify", "--p", str(p), "--q", str(q), "--max", "40", "--k", str(k), "--json"]
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            rows = json.loads(out)["results"]
            assert [row["n"] for row in rows] == list(range(1, 41))
            for row in rows:
                value = lucas_u(params, row["n"])
                assert row["value"] == str(value)
                assert int(row["class"]) == class_of(value, cache=cache).value(), (p, q, k, row["n"])


def test_solve_lists_certificates(capsys):
    code, out, _ = run_cli(capsys, ["solve", *FIB, "--a", "5", "--max", "50", "--r", "2"])
    assert code == 0
    assert sorted(out.splitlines()) == [
        "indices=2,5 y=1",
        "indices=5 y=1",
        "indices=5,12 y=12",
    ]


def test_solve_without_solutions_still_exits_zero(capsys):
    code, out, err = run_cli(capsys, ["solve", *FIB, "--a", "7", "--max", "20", "--r", "1"])
    assert code == 0
    assert out == ""
    assert err == ""
    code, out, _ = run_cli(capsys, ["solve", *FIB, "--a", "7", "--max", "20", "--r", "1", "--json"])
    assert code == 0
    assert json.loads(out)["results"] == []


def test_solve_json_certificates(capsys):
    code, out, _ = run_cli(
        capsys, ["solve", *FIB, "--a", "5", "--max", "50", "--r", "2", "--json"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["params"] == {"p": 1, "q": 1, "a": 5, "k": 2}
    by_indices = {tuple(c["indices"]): c for c in record["results"]}
    assert set(by_indices) == {(2, 5), (5,), (5, 12)}
    big = by_indices[(5, 12)]
    assert big["y"] == "12"
    assert big["valuations"] == {
        "2": [{"index": 12, "exponent": 4}],
        "3": [{"index": 12, "exponent": 2}],
        "5": [{"index": 5, "exponent": 1}],
    }


def test_solve_marks_trivial_certificates(capsys):
    code, out, _ = run_cli(capsys, ["solve", *FIB, "--a", "1", "--k", "3", "--max", "10", "--r", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert "indices= y=1 trivial" in lines
    assert "indices=2 y=1" in lines
    assert "indices=6 y=2" in lines


def test_verify_accepts_unsorted_indices(capsys):
    code, out, _ = run_cli(capsys, ["verify", *FIB, "--a", "5", "--indices", "12,5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verified indices=5,12 y=12"
    assert lines[1:] == ["  2: (12,4)", "  3: (12,2)", "  5: (5,1)"]


def test_verify_rejection_text(capsys):
    code, out, err = run_cli(capsys, ["verify", *FIB, "--a", "1", "--indices", "4,5"])
    assert code == 1
    assert out.startswith("rejected:")
    assert err == ""


def test_verify_rejection_json_error(capsys):
    code, out, _ = run_cli(capsys, ["verify", *FIB, "--a", "1", "--indices", "4,5", "--json"])
    assert code == 1
    record = json.loads(out)
    assert record["results"] == []
    assert record["error"]["type"] == "ClassMismatch"
    assert record["error"]["message"]


def test_rank_reports_z(capsys):
    code, out, _ = run_cli(capsys, ["rank", *FIB, "--prime", "11"])
    assert code == 0
    assert out.strip() == "z(11) = 10"
    code, out, _ = run_cli(capsys, ["rank", *FIB, "--prime", "11", "--json"])
    assert code == 0
    assert json.loads(out)["results"] == [{"p": 11, "z": 10}]


def test_rank_rejects_composite(capsys):
    code, out, err = run_cli(capsys, ["rank", *FIB, "--prime", "4"])
    assert code == 2
    assert out == ""
    assert "parameter error" in err


def test_strong_pseudoprime_to_twelve_bases_is_composite(capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the bases 2 .. 37.
    psi12 = "318665857834031151167461"
    assert run_cli(capsys, ["rank", *FIB, "--prime", psi12]) == (
        2, "", f"parameter error: {psi12} is not prime\n"
    )
    code, out, _ = run_cli(capsys, ["verify", *FIB, "--a", psi12, "--k", "3", "--indices", "2"])
    assert (code, out) == (
        1, "rejected: product is not divisible by the coefficient: deficit at prime 399165290221\n"
    )


def test_rank_of_composite_is_not_found(capsys, monkeypatch):
    # 91 = 7 * 13 passes the primality gate here; the law of apparition still catches it.
    real = primitive.is_probable_prime
    monkeypatch.setattr(primitive, "is_probable_prime", lambda n: n == 91 or real(n))
    code, out, err = run_cli(capsys, ["rank", *FIB, "--prime", "91"])
    assert (code, err) == (1, "")
    assert out.startswith("not found: 91 does not divide U_")
    code, out, err = run_cli(capsys, ["rank", *FIB, "--prime", "91", "--json"])
    assert (code, err, out.count("\n")) == (1, "", 1)
    record = json.loads(out)
    assert record["results"] == []
    assert record["error"]["type"] == "NotFoundWithinBound"
    assert record["error"]["message"].startswith("91 does not divide U_")


def test_rejection_from_any_runner_is_mapped_once(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise NotFoundWithinBound(91, 90)

    monkeypatch.setattr(cli, "obstruction_filter", refuse)
    argv = ["primitive", *FIB, "--n", "10", "--a", "5"]
    code, out, err = run_cli(capsys, [*argv, "--json"])
    assert (code, err, out.count("\n")) == (1, "", 1)
    record = json.loads(out)
    assert record["command"] == "primitive"
    assert record["params"] == {"p": 1, "q": 1, "a": 5, "k": 2}
    assert record["results"] == []
    assert record["error"] == {"type": "NotFoundWithinBound", "message": str(NotFoundWithinBound(91, 90))}
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (1, "")
    assert out == f"not found: {NotFoundWithinBound(91, 90)}\n"


def test_rank_budget_reaches_factoring_of_p_minus_symbol(capsys):
    # p - (5/p) = 24 * 100000000003 * 100000000019: rho needs ~3e5 steps for it.
    prime = "240000000052800000001369"
    code, out, err = run_cli(capsys, ["rank", *FIB, "--prime", prime, "--budget", "1000"])
    assert code == 3
    assert out == ""
    assert "budget exhausted" in err and "10000000002200000000057" in err
    code, out, _ = run_cli(capsys, ["rank", *FIB, "--prime", prime])
    assert code == 0
    assert out.strip() == f"z({prime}) = 20000000004400000000114"


def test_rank_and_seq_never_load_the_cache(tmp_path, capsys):
    bad = tmp_path / "bad.cache"
    rank = ["rank", *FIB, "--prime", "10000000019", "--cache", str(bad)]
    for text, complaint in (
        # classify --max 60 reads U_60 and rank would read 10000000019 - 1.
        (f"{U60} 1 2^1\n10000000018 1 3^1\n", f"bad.cache:1: record does not reconstruct {U60}"),
        ("not a line\n", "bad.cache:1: malformed cache line"),  # fails at the first file lookup
    ):
        bad.write_text(text, encoding="ascii")
        assert run_cli(capsys, rank)[:2] == (0, "z(10000000019) = 10000000018\n")
        assert run_cli(capsys, ["seq", *FIB, "--max", "2", "--cache", str(bad)])[:2] == (0, "1 1\n2 1\n")
        assert bad.read_text(encoding="ascii") == text
        code, _, err = run_cli(capsys, ["classify", *FIB, "--max", "60", "--cache", str(bad)])
        assert code == 2 and complaint in err


def test_unread_corrupt_record_does_not_stop_a_run(tmp_path, capsys):
    argv = ["classify", *FIB, "--max", "59"]
    honest = run_cli(capsys, argv)
    assert honest[0] == 0
    path = tmp_path / "stale.cache"
    path.write_text(f"{U60} 1 2^1\n", encoding="ascii")  # classify --max 59 indexes the file, never reads U_60
    assert run_cli(capsys, [*argv, "--cache", str(path)]) == honest
    code, _, err = run_cli(capsys, ["admissible", *FIB, "--a", "6", "--max", "60", "--cache", str(path)])
    assert code == 2 and f"stale.cache:1: record does not reconstruct {U60}" in err
    # A record below 10^10 is never read: admissible --a 6 factors A = 6 itself.
    path.write_text("6 1 2^1\n", encoding="ascii")
    argv = ["admissible", *FIB, "--a", "6", "--max", "5"]
    assert run_cli(capsys, [*argv, "--cache", str(path)]) == run_cli(capsys, argv) == (0, "2 3 4\n", "")
    assert path.read_text(encoding="ascii") == "6 1 2^1\n"


def test_internal_inconsistency_is_not_a_rejection(capsys, monkeypatch):
    def broken_table(*args):
        raise SeparationLawViolation(5, "injected")

    monkeypatch.setattr(solver, "_valuation_table", broken_table)
    code, out, err = run_cli(capsys, ["verify", *FIB, "--a", "5", "--indices", "5,12"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: valuation table breaks a separation law at prime 5")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["seq", "--p", "1", "--q", "3", "--max", "5"], "q must be +1 or -1, got 3"),
        (["seq", "--p", "1", "--q", "-1", "--max", "5"], "discriminant p^2 + 4q = -3 is not positive"),
        (["seq", "--p", "0", "--q", "1", "--max", "5"], "discriminant 4 is a perfect square (degenerate)"),
        (["solve", *FIB, "--a", "0", "--max", "5"], "coefficient a must be nonzero"),
        (["rank", *FIB, "--prime", "91"], "91 is not prime"),
    ],
    ids=["bad-q", "nonpositive-discriminant", "square-discriminant", "zero-a", "composite-prime"],
)
def test_bad_input_is_usage_error(capsys, argv, message):
    assert run_cli(capsys, argv) == (2, "", f"parameter error: {message}\n")


def test_nonpositive_max_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["seq", *FIB, "--max", "0"])
    assert code == 2
    assert "parameter error" in err


@pytest.mark.parametrize("indices", ["", ",", "5,x"])
def test_malformed_indices_are_usage_errors(capsys, indices):
    code, out, err = run_cli(capsys, ["verify", *FIB, "--a", "5", "--indices", indices])
    assert (code, out) == (2, "")
    assert err.startswith("parameter error: indices must be a")


def test_classify_rejects_k_below_two(capsys):
    code, out, err = run_cli(capsys, ["classify", *FIB, "--max", "5", "--k", "1"])
    assert (code, out) == (2, "")
    assert err == "parameter error: k must be >= 2, got 1\n"


def test_bad_q_is_rejected_before_the_cache_file(tmp_path, capsys):
    bad = tmp_path / "bad.cache"
    bad.write_text("x 1 2^1\n", encoding="ascii")
    for path in (bad, tmp_path):  # a malformed record, then a directory
        argv = ["classify", "--p", "1", "--q", "2", "--max", "5", "--cache", str(path)]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), path
        assert err == "parameter error: q must be +1 or -1, got 2\n", path


def test_negative_budget_is_rejected(capsys):
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        FactorCache(budget=-1)
    for argv in (
        ["classify", *FIB, "--max", "20"],
        ["rank", *FIB, "--prime", "1000003"],
        ["primitive", *FIB, "--n", "67", "--a", "5"],
    ):
        code, out, err = run_cli(capsys, [*argv, "--budget", "-1"])
        assert (code, out) == (2, ""), argv
        assert err == "parameter error: budget must be >= 0, got -1\n", argv
    # A budget of 0 leaves all but rho; trial division splits every U_n up to 20.
    assert run_cli(capsys, ["classify", *FIB, "--max", "20", "--budget", "0"]) == run_cli(
        capsys, ["classify", *FIB, "--max", "20"]
    )


def test_bad_k_is_rejected_before_the_cache_file(tmp_path, capsys):
    path = tmp_path / "f.cache"
    for argv in (
        ["classify", *FIB, "--max", "6"],
        ["abc-quality", *FIB, "--from", "10", "--to", "12"],
        ["primitive", *FIB, "--n", "10", "--a", "5"],
        ["primitive", *FIB, "--n", "10"],
    ):
        code, out, err = run_cli(capsys, [*argv, "--k", "1", "--cache", str(path)])
        assert (code, out) == (2, ""), argv
        assert err == "parameter error: k must be >= 2, got 1\n", argv
        assert not path.exists(), argv


def test_unusable_cache_path_exits_two(tmp_path, capsys):
    # A directory fails when the file is indexed, a missing directory at the first append.
    for path in (tmp_path, tmp_path / "missing" / "f.cache"):
        code, out, err = run_cli(capsys, ["classify", *FIB, "--max", "60", "--cache", str(path)])
        assert (code, out) == (2, ""), path
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err
        # A run that needs no record of 10^10 or more never opens the file.
        argv = ["classify", *FIB, "--max", "5"]
        assert run_cli(capsys, [*argv, "--cache", str(path)]) == run_cli(capsys, argv)


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate", "--p", "1", "--q", "1"]) == 2
    capsys.readouterr()


SUBCOMMANDS = ("seq", "classify", "admissible", "solve", "verify", "rank", "primitive", "abc-quality")
SHARED_FLAGS = ["--p", "--q", "--json", "--cache", "--budget"]


def test_help_lists_the_shared_options_once_before_each_commands_own(capsys):
    code, out, err = run_cli(capsys, ["--help"])
    assert (code, err) == (0, "")
    assert all(name in out for name in SUBCOMMANDS)
    for name in SUBCOMMANDS:
        code, out, err = run_cli(capsys, [name, "--help"])
        assert (code, err) == (0, ""), name
        assert out.startswith(f"usage: lucasprod {name} "), name
        # The first flag of each line of the options section.
        flags = re.findall(r"^  (-[-\w]+)", out, flags=re.MULTILINE)
        assert flags[:6] == ["-h", *SHARED_FLAGS], name
        own = flags[6:]
        assert own and not set(own) & set(SHARED_FLAGS), name


def test_no_state_leaks_between_main_calls(capsys):
    """One process runs a sequence of calls across subcommands; each call's
    code, stdout and stderr equal those of the same call in a new process."""
    sequence = [
        ["primitive", *FIB, "--n", "10", "--a", "5", "--k", "3", "--json"],
        ["classify", *FIB, "--max", "12"],  # k = 2: e = 1 and s = 12 for U_12 = 144
        ["classify", *FIB, "--max", "77", "--budget", "100"],
        ["verify", *FIB, "--a", "5", "--k", "2", "--indices", "77"],
    ]
    in_process = [run_cli(capsys, argv) for argv in sequence]
    assert json.loads(in_process[0][1])["params"]["k"] == 3
    assert in_process[1][1].splitlines()[-1] == "12 144 1 12 1"
    assert in_process[2][0] == 3 and in_process[3][0] != 3
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv, got in zip(sequence, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "lucasprod.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv


def test_one_terminal_read_per_call(capsys, monkeypatch):
    """Every parser of a call shares one help width, so the terminal is read
    once per call, not once per HelpFormatter argparse builds."""
    reads = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: reads.append(a) or size(*a))
    argv = ["verify", *FIB, "--a", "5", "--indices", "5"]
    assert run_cli(capsys, argv)[0] == 0
    assert len(reads) == 1
    reads.clear()
    code, out, _ = run_cli(capsys, ["verify", "--help"])
    assert (code, len(reads)) == (0, 1)
    assert out.startswith("usage: lucasprod verify ")


# A valid call of each subcommand; every argv built from these below exits
# inside argparse, with help or a usage error.
VALID_CALLS = {
    "seq": ["--max", "5"],
    "classify": ["--max", "5"],
    "admissible": ["--a", "5", "--max", "5"],
    "solve": ["--a", "5", "--max", "5"],
    "verify": ["--a", "5", "--indices", "5"],
    "rank": ["--prime", "7"],
    "primitive": ["--n", "5"],
    "abc-quality": ["--from", "1", "--to", "3"],
}
ARGPARSE_EXITS = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate", *FIB],
    *(
        shape
        for name, valid in VALID_CALLS.items()
        for shape in (
            [name, "-h"],
            [name, "--help"],
            [name],
            [name, "--p"],
            [name, *FIB, "-h"],
            [name, *FIB, *valid, "--bogus"],
        )
    ),
]


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_usage_and_errors_match_the_reference_parser(capsys, monkeypatch, columns):
    """Help, usage and error text, and the exit code, equal those of a parser
    in which each subparser builds its own -h and argparse derives the
    subcommand prefix."""
    monkeypatch.setenv("COLUMNS", columns)
    for argv in ARGPARSE_EXITS:
        got = run_cli(capsys, argv)
        with pytest.raises(SystemExit) as exc:
            reference_parser().parse_args(argv)
        captured = capsys.readouterr()
        assert got == (exc.value.code or 0, captured.out, captured.err), argv
        assert got[0] in (0, 2) and (got[1] or got[2]), argv


def test_one_build_makes_27_add_argument_calls_and_10_parsers(capsys, monkeypatch):
    """The top parser, the shared parent and the 8 subparsers are the 10
    parsers. -h comes once from the shared parent, so the 27 add_argument
    calls are the top parser's -h, the parent's -h and 5 options, and the 20
    options of the subcommands' own; each subparser building its own -h made
    34."""
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(argparse._ActionsContainer, "add_argument")
    counted(argparse.ArgumentParser, "__init__")
    assert run_cli(capsys, ["verify", *FIB, "--a", "5", "--indices", "5"])[0] == 0
    assert (calls["add_argument"], calls["__init__"]) == (27, 10)


def test_help_width_is_read_per_call(capsys, monkeypatch):
    """A COLUMNS change between two calls in one process reaches the second
    call's help text, which equals that of a new process."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    helps = []
    for columns in ("50", "140"):
        monkeypatch.setenv("COLUMNS", columns)
        got = run_cli(capsys, ["verify", "--help"])
        proc = subprocess.run(
            [sys.executable, "-m", "lucasprod.cli", "verify", "--help"],
            capture_output=True,
            text=True,
            env={**env, "COLUMNS": columns},
            timeout=60,
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr), columns
        assert (got[0], got[2]) == (0, ""), columns
        helps.append(got[1])
    assert helps[0] != helps[1]


def test_budget_exhaustion_names_the_composite(capsys):
    code, out, err = run_cli(capsys, ["classify", *FIB, "--max", "77", "--budget", "100"])
    assert code == 3
    assert "budget exhausted" in err
    assert re.search(r"composite \d{8,}", err)
    # --budget reaches every subcommand that factors. Trial division leaves
    # 4777821694801 = 988681 * 4832521 of U_77; both p - 1 divide
    # lcm(1..2000), so the p-1 step gathers both primes at once and rho gets it.
    u77 = "4777821694801"
    for argv, composite in (
        (["classify", *FIB, "--max", "77"], u77),
        (["admissible", *FIB, "--a", "5", "--max", "77"], u77),
        (["solve", *FIB, "--a", "5", "--max", "77"], u77),
        (["verify", *FIB, "--a", u77, "--indices", "77"], u77),  # stuck on A itself
        (["primitive", *FIB, "--n", "77", "--a", "5"], u77),
        (["abc-quality", *FIB, "--from", "77", "--to", "77"], u77),
    ):
        code, out, err = run_cli(capsys, [*argv, "--budget", "100"])
        assert (code, out) == (3, ""), argv
        assert f"budget exhausted at composite {composite}" in err, argv
    # verify still says no on a stuck term: with the primes of A divided out,
    # |U_n| has no exact k-th root, so the index is not admissible.
    for argv, n in (
        ([*FIB, "--a", "5", "--indices", "77", "--budget", "100"], 77),
        ([*FIB, "--a", "5", "--indices", "139", "--budget", "100000"], 139),
        (["--p", "6", "--q", "1", "--a", "2", "--indices", "59", "--budget", "100000"], 59),
    ):
        code, out, err = run_cli(capsys, ["verify", *argv])
        assert (code, err) == (1, ""), argv
        assert out.startswith(f"rejected: U_{n} with the primes of a="), argv


def test_pm1_step_runs_on_whole_terms_and_primitive_parts_alike(capsys):
    # Trial division leaves 167083904137 = 116849 * 1429913 of U_67, and
    # 116849 - 1 = 2^4 * 67 * 109 divides lcm(1..2000) while 1429913 - 1 =
    # 2^3 * 11 * 16249 does not: the step splits it, with or without the split
    # of U_67, so every command completes where rho alone runs out of budget.
    u67 = lucas_u(validate_params(1, 1), 67)
    assert u67 == 269 * 116849 * 1429913
    assert factoring._PM1_L % 116848 == 0 and factoring._PM1_L % 1429912 != 0
    for argv in (
        ["classify", *FIB, "--max", "67"],
        ["admissible", *FIB, "--a", "5", "--max", "67"],
        ["solve", *FIB, "--a", "5", "--max", "67"],
        ["verify", *FIB, "--a", str(u67), "--indices", "67"],
        ["primitive", *FIB, "--n", "67", "--a", "5"],
        ["abc-quality", *FIB, "--from", "67", "--to", "67"],
    ):
        code, out, err = run_cli(capsys, [*argv, "--budget", "100"])
        assert (code, err) == (0, ""), argv
        assert run_cli(capsys, argv) == (0, out, ""), argv
    # A rejection of U_67 is reached too: it needs the whole table of U_67.
    code, out, err = run_cli(capsys, ["verify", *FIB, "--a", "5", "--indices", "67", "--budget", "100"])
    assert (code, out, err) == (1, "rejected: U_67 has prime 269 to exponent not divisible by 2 outside the support of a=5\n", "")


def test_budget_counts_rho_alone_on_pell_71(capsys):
    # Rho needs 99,838 iterations for the 80-bit composite
    # 934149528852691975402289 of U_71, just within a budget of 10^5.
    code, out, err = run_cli(capsys, ["classify", "--p", "2", "--q", "1", "--max", "71", "--budget", "100000"])
    assert (code, err) == (0, "")
    fac = factorize(lucas_u(validate_params(2, 1), 71))
    e, s = fac.power_free(2)
    assert out.splitlines()[-1] == f"71 {fac.value()} {e.value()} {s.value()} {e.value()}"


def test_primitive_never_factors_the_coefficient(capsys):
    # A = 988681 * 4832521 needs rho (the p-1 step gathers both primes at
    # once), but the filter only divides A by the primes of U_10.
    argv = ["primitive", *FIB, "--n", "10", "--a", "4777821694801"]
    code, out, err = run_cli(capsys, [*argv, "--budget", "100"])
    assert (code, err) == (0, "")
    assert run_cli(capsys, argv) == (0, out, "")
    assert out.splitlines()[-1].startswith("verdict=excluded reason=primitive prime 11")


def test_primitive_rejects_zero_coefficient(capsys):
    code, out, err = run_cli(capsys, ["primitive", *FIB, "--n", "10", "--a", "0"])
    assert (code, out) == (2, "")
    assert err == "parameter error: coefficient a must be nonzero\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["primitive", "--n", "10"],
        ["admissible", "--max", "10"],
        ["solve", "--max", "10"],
        ["verify", "--indices", "2"],
    ],
)
def test_zero_coefficient_is_rejected_before_the_cache_file(tmp_path, capsys, argv):
    path = tmp_path / "F"
    code, out, err = run_cli(capsys, [*argv, *FIB, "--a", "0", "--cache", str(path)])
    assert (code, out) == (2, "")
    assert err == "parameter error: coefficient a must be nonzero\n"
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["admissible", "--a", "5", "--max", "100001"],
        ["solve", "--a", "5", "--max", "100001"],
        ["verify", "--a", "5", "--indices", "100001"],
        ["classify", "--max", "100001"],
        ["abc-quality", "--from", "1", "--to", "100001"],
        ["seq", "--max", "100001"],
        ["primitive", "--n", "100001"],
    ],
)
def test_index_past_the_cap_is_rejected_before_the_cache_file(tmp_path, capsys, argv):
    path = tmp_path / "F"
    argv = [*argv, *FIB, "--budget", "100000", "--cache", str(path)]
    assert run_cli(capsys, argv) == (2, "", "parameter error: index 100001 exceeds the cap 100000\n")
    assert not path.exists()
    # A malformed record would fail as soon as the file is indexed.
    path.write_bytes(b"x 1 2^1\n")
    assert run_cli(capsys, argv) == (2, "", "parameter error: index 100001 exceeds the cap 100000\n")
    assert path.read_bytes() == b"x 1 2^1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--max", "0"], "--max must be >= 1, got 0"),
        (["abc-quality", "--from", "0", "--to", "5"], "--from must be >= 1, got 0"),
        (["abc-quality", "--from", "5", "--to", "3"], "--to must be >= --from (5), got 3"),
        (["admissible", "--a", "5", "--max", "1"], "max_index must be >= 2, got 1"),
        (["solve", "--a", "5", "--max", "10", "--r", "0"], "max_factors must be >= 1, got 0"),
        (["primitive", "--n", "-1"], "index must be >= 1, got -1"),
        (["verify", "--a", "5", "--indices", "0"], "indices must be >= 1, got (0,)"),
    ],
    ids=["classify", "abc-quality", "abc-quality-to", "admissible", "solve", "primitive", "verify"],
)
def test_index_below_its_bound_is_rejected_before_the_cache_file(tmp_path, capsys, argv, message):
    path = tmp_path / "F"
    path.write_bytes(b"x 1 2^1\n")  # a malformed record fails as soon as the file is indexed
    assert run_cli(capsys, [*argv, *FIB, "--cache", str(path)]) == (2, "", f"parameter error: {message}\n")
    assert path.read_bytes() == b"x 1 2^1\n"


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (3, -1), (3, 1), (4, 1), (6, 1)])
def test_abc_quality_table_depends_only_on_abs_p(capsys, p, q):
    """U_n(-P) = (-1)^(n+1) U_n(P), so a negated card prints the same table."""
    argv = ["abc-quality", "--q", str(q), "--from", "1", "--to", "40", "--budget", "100000"]
    positive = run_cli(capsys, [*argv, "--p", str(p)])
    assert positive[0] == 0
    assert run_cli(capsys, [*argv, "--p", str(-p)]) == positive


def test_primitive_filter_below_index_two_is_rejected_before_the_cache_file(tmp_path, capsys):
    path = tmp_path / "F"
    code, out, err = run_cli(capsys, ["primitive", *FIB, "--n", "1", "--a", "5", "--cache", str(path)])
    assert (code, out) == (2, "")
    assert err == "parameter error: index must be >= 2, got 1\n"
    assert not path.exists()


def test_primitive_report_and_verdict(capsys):
    code, out, _ = run_cli(capsys, ["primitive", *FIB, "--n", "10", "--a", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "U_10 = 55"
    assert "prime=5 multiplicity=1 primitive=no" in lines
    assert "prime=11 multiplicity=1 primitive=yes" in lines
    assert lines[-1].startswith("verdict=excluded")

    code, out, _ = run_cli(capsys, ["primitive", *FIB, "--n", "10", "--a", "5", "--json"])
    assert code == 0
    body = json.loads(out)["results"][0]
    assert body["value"] == "55"
    assert body["verdict"]["admissible"] is False
    assert body["verdict"]["prime"] == 11


def test_abc_quality_table(capsys):
    code, out, _ = run_cli(capsys, ["abc-quality", *FIB, "--from", "12", "--to", "12"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n height radical quality lower_slack upper_slack_term"
    assert lines[1] == "12 5.774542 2.596478 2.223990 0.000000 0.111572"


def test_abc_quality_json_rounding(capsys):
    code, out, _ = run_cli(capsys, ["abc-quality", *FIB, "--from", "12", "--to", "12", "--json"])
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["n"] == 12
    assert row["height"] == pytest.approx(5.774542, abs=1e-9)
    assert row["radical"] == pytest.approx(2.596478, abs=1e-9)
    assert row["quality"] == pytest.approx(2.223990, abs=1e-9)


def test_reruns_are_byte_identical(capsys):
    for argv in (
        ["solve", *FIB, "--a", "5", "--max", "50", "--r", "2", "--json"],
        ["abc-quality", *FIB, "--from", "2", "--to", "20"],
    ):
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
        assert second == first
        assert first[0] == 0


def test_cache_flag_persists_factorizations(tmp_path, capsys):
    path = tmp_path / "facts.txt"
    assert run_cli(capsys, ["classify", *FIB, "--max", "15", "--cache", str(path)])[0] == 0
    assert not path.exists()  # U_15 = 610: trial division settles every term
    first = run_cli(capsys, ["classify", *FIB, "--max", "60", "--cache", str(path)])
    assert first[0] == 0
    assert path.exists()
    assert path.read_text(encoding="ascii")
    second = run_cli(capsys, ["classify", *FIB, "--max", "60", "--cache", str(path)])
    assert second == first


def _recording_factorize(monkeypatch):
    """The list of every integer factorize gets, as primitive and factoring call it."""
    factored = []
    real_factorize = factoring.factorize

    def recording_factorize(n, *args, **kwargs):
        factored.append(n)
        return real_factorize(n, *args, **kwargs)

    for module in (primitive, factoring):
        monkeypatch.setattr(module, "factorize", recording_factorize)
    return factored


def test_primitive_builds_the_prime_table_once(capsys, monkeypatch):
    """primitive --a judges the filter from the table it prints: one split of
    U_60, no residue of a Lucas term and no factorization of A."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name != "factor_term" or args[1] == 60:  # not its recursion on U_60's sub-terms
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("primitive_divisors", "factor_term", "lucas_u_mod"):
        wrapper = counting(name, getattr(primitive, name))
        monkeypatch.setattr(primitive, name, wrapper)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, wrapper)
    factored = _recording_factorize(monkeypatch)
    code, out, err = run_cli(capsys, ["primitive", *FIB, "--n", "60", "--a", "7"])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "U_60 = 1548008755920",
        "prime=2 multiplicity=4 primitive=no",
        "prime=3 multiplicity=2 primitive=no",
        "prime=5 multiplicity=1 primitive=no",
        "prime=11 multiplicity=1 primitive=no",
        "prime=31 multiplicity=1 primitive=no",
        "prime=41 multiplicity=1 primitive=no",
        "prime=61 multiplicity=1 primitive=no",
        "prime=2521 multiplicity=1 primitive=yes",
        "verdict=excluded reason=primitive prime 2521 divides U_60 to multiplicity 1 and does not divide a=7",
    ]
    assert calls == {"primitive_divisors": 1, "factor_term": 1}
    assert calls["lucas_u_mod"] == 0
    assert factored and 7 not in factored


def test_obstruction_filter_factors_no_p_minus_symbol(capsys, monkeypatch):
    # 13 - (5/13) = 14: z(13) = 7. The filter factors neither A = 13 nor 14.
    factored = _recording_factorize(monkeypatch)
    code, out, _ = run_cli(capsys, ["primitive", *FIB, "--n", "10", "--a", "13"])
    assert code == 0 and out.splitlines()[-1].startswith("verdict=excluded")
    assert factored and 13 not in factored and 14 not in factored


def test_environment_names_no_cache_file(tmp_path, capsys, monkeypatch):
    """Only --cache names a cache file. The environment variable that once
    named one, pointed at a corrupt record the run would read, neither
    changes the answer nor gets the run's records."""
    path = tmp_path / "env.cache"
    record = f"{U60} 1 16^1 {U60_PRIMES}\n"
    path.write_text(record, encoding="ascii")
    monkeypatch.setenv("LUCAS_FACTOR_CACHE", str(path))
    argv = ["admissible", *FIB, "--a", "2", "--k", "3", "--max", "60"]
    assert run_cli(capsys, argv) == (0, "2 3 6\n", "")
    assert path.read_text(encoding="ascii") == record


def test_console_script_smoke():
    exe = shutil.which("lucasprod")
    if exe is not None:
        argv = [exe, "seq", *FIB, "--max", "5"]
    else:
        argv = [sys.executable, "-m", "lucasprod.cli", "seq", *FIB, "--max", "5"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1 1", "2 1", "3 2", "4 3", "5 5"]


def test_terms_past_the_default_int_digit_limit_print(capsys):
    # U_1500 of (1000, 1) has 4,498 digits; the default int-to-str limit is 4,300.
    code, out, err = run_cli(capsys, ["seq", "--p", "1000", "--q", "1", "--max", "1500"])
    assert (code, err) == (0, "")
    index, digits = out.splitlines()[-1].split()
    assert (index, len(digits)) == ("1500", 4498)
    # Read back in two pieces, each within the limit that int() applies too.
    assert int(digits[:-4000]) * 10 ** 4000 + int(digits[-4000:]) == lucas_u(validate_params(1000, 1), 1500)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit in this interpreter")
def test_main_leaves_the_int_digit_limit_as_it_found_it(capsys):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever an earlier call left
    try:
        for argv, status in (
            (["seq", "--p", "1000", "--q", "1", "--max", "1500"], 0),
            (["seq", "--p", "1", "--q", "2", "--max", "5"], 2),
            (["seq", "--p", "1"], 2),
        ):
            assert run_cli(capsys, argv)[0] == status
            assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)


def test_console_main_exits_with_the_code_of_main(capsys, monkeypatch):
    """The installed ``lucasprod`` script is ``lucasprod.cli:main``: with no
    argv, main reads sys.argv, and the script's wrapper exits with the code
    main returns."""
    for q, status in (("1", 0), ("2", 2)):
        monkeypatch.setattr(sys, "argv", ["lucasprod", "seq", "--p", "1", "--q", q, "--max", "5"])
        assert cli.main() == status
        out = capsys.readouterr().out
        assert out.splitlines() == (["1 1", "2 1", "3 2", "4 3", "5 5"] if status == 0 else [])
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^\[project\.scripts\]\nlucasprod = "lucasprod\.cli:main"$', pyproject, re.M)


def test_corrupt_cache_record_is_refused(tmp_path, capsys):
    admissible_6 = ["admissible", *FIB, "--a", "6", "--k", "3", "--max", "60"]
    admissible_2 = ["admissible", *FIB, "--a", "2", "--k", "3", "--max", "60"]
    verify_u60 = ["verify", *FIB, "--a", "2", "--k", "3", "--indices", "60"]
    rejected_u60 = "rejected: U_60 has prime 3 to exponent not divisible by 3 outside the support of a=2\n"
    bad = tmp_path / "bad.cache"
    for record, argv, honest, complaint in (
        # 3 * U_60/3 = U_60, but 3 is not a sign.
        (f"{U60} 3 2^4 3^1 5^1 11^1 31^1 41^1 61^1 2521^1", admissible_6, (0, "2 3 4 6 12\n"), "sign 3"),
        # Read as U_60's factorization, 16^1 in place of 2^4 passes 16 off as a prime outside A = 2.
        (f"{U60} 1 16^1 {U60_PRIMES}", admissible_2, (0, "2 3 6\n"), "base 16 is not prime"),
        # verify reads U_60 too, also once admissible no longer factors terms.
        (f"{U60} 1 16^1 {U60_PRIMES}", verify_u60, (1, rejected_u60), "base 16 is not prime"),
        # Read as the factorization of A = 15 * 10^10, it puts U_5 = 5 outside Supp(A).
        (
            "150000000000 1 150000000000^1",
            ["verify", *FIB, "--a", "150000000000", "--indices", "5"],
            (1, "rejected: product class 5 differs from the coefficient class 15\n"),
            "base 150000000000 is not prime",
        ),
        # 2^(10^12) would take far more memory than the run has; the record is refused first.
        (f"{U60} 1 2^1000000000000", admissible_2, (0, "2 3 6\n"), f"record exceeds |{U60}| at 2^1000000000000"),
        (f"{U60} 1 2^1000000000000", verify_u60, (1, rejected_u60), f"record exceeds |{U60}| at 2^1000000000000"),
        # A non-ASCII byte makes the record malformed, named like any other.
        (f"{U60} 1 2^4 3^\u00e9", admissible_6, (0, "2 3 4 6 12\n"), "malformed"),
    ):
        assert run_cli(capsys, argv)[:2] == honest
        bad.write_text(record + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, [*argv, "--cache", str(bad)])
        assert (code, out) == (2, ""), record
        assert f"bad.cache:1: {complaint}" in err


def test_corrupt_cache_record_below_ten_to_the_ten_is_never_read(tmp_path, capsys):
    verify_u6 = ["verify", *FIB, "--a", "2", "--k", "3", "--indices", "6"]
    not_a_cube = "rejected: quotient is not a perfect 3-th power\n"
    bad = tmp_path / "bad.cache"
    # Each record, read, would change the answer or be refused; trial division settles
    # its N at once, so the run neither reads nor writes it and prints the honest answer.
    for record, argv, honest in (
        ("6 3 2^1", ["admissible", *FIB, "--a", "6", "--k", "3", "--max", "30"], (0, "2 3 4 6 12\n")),
        ("8 1 8^1", ["admissible", *FIB, "--a", "2", "--k", "3", "--max", "12"], (0, "2 3 6\n")),
        ("8 1 8^1", verify_u6, (1, not_a_cube)),
        (
            "15 1 15^1",
            ["verify", *FIB, "--a", "15", "--indices", "5"],
            (1, "rejected: product class 5 differs from the coefficient class 15\n"),
        ),
        ("8 1 2^1000000000000", ["admissible", *FIB, "--a", "2", "--k", "3", "--max", "12"], (0, "2 3 6\n")),
        ("8 1 2^1000000000000", verify_u6, (1, not_a_cube)),
        ("6 1 2^1 3^\u00e9", ["admissible", *FIB, "--a", "6", "--k", "3", "--max", "30"], (0, "2 3 4 6 12\n")),
    ):
        assert run_cli(capsys, argv)[:2] == honest
        bad.write_text(record + "\n", encoding="utf-8")
        assert run_cli(capsys, [*argv, "--cache", str(bad)]) == (*honest, ""), record
        assert bad.read_text(encoding="utf-8") == record + "\n"


def test_no_cache_named_writes_no_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["classify", *FIB, "--max", "20"],
        ["solve", *FIB, "--a", "5", "--max", "20"],
        ["verify", *FIB, "--a", "5", "--indices", "5,12"],
        ["primitive", *FIB, "--n", "10", "--a", "5"],
        ["abc-quality", *FIB, "--from", "10", "--to", "12"],
        ["rank", *FIB, "--prime", "11"],
    ):
        assert run_cli(capsys, argv)[0] == 0, argv
    assert list(tmp_path.iterdir()) == []


# One CLI run per entry: (argv, card, budget, indices whose terms it factors).
_RUN_CACHE_CASES = [
    (["classify", "--p", "6", "--q", "1", "--max", "30", "--k", "3"], (6, 1), factoring.DEFAULT_RHO_BUDGET, range(1, 31)),
    (["abc-quality", "--p", "6", "--q", "1", "--from", "46", "--to", "53", "--budget", "100000"], (6, 1), 100_000, range(46, 54)),
    (["primitive", *FIB, "--n", "60", "--a", "5"], (1, 1), factoring.DEFAULT_RHO_BUDGET, [60]),
    (["primitive", *FIB, "--n", "77", "--a", "5"], (1, 1), factoring.DEFAULT_RHO_BUDGET, [77]),
]


class _CountedModulus(int):
    """A modulus that counts the reductions taken by it, rho's work."""

    def __rmod__(self, other):
        self.reductions += 1
        return int(other) % int(self)


def test_run_cache_factors_each_term_once(capsys, monkeypatch):
    """No composite reaches rho twice in a run, and a run spends at most the
    rho work (reductions mod the composite) of factoring each of its terms
    bare; on the deep (6,1) window, where the split by strong divisibility
    removes the primes of U_{n/l} before rho, it spends less."""
    rho_work = []
    real_rho = factoring._brent_rho

    def recording_rho(c, budget):
        counted = _CountedModulus(c)
        counted.reductions = 0
        divisor = real_rho(counted, budget)
        rho_work.append((c, counted.reductions))
        return divisor

    monkeypatch.setattr(factoring, "_brent_rho", recording_rho)
    for argv, (p, q), budget, indices in _RUN_CACHE_CASES:
        rho_work.clear()
        assert run_cli(capsys, argv)[0] == 0
        assert max(Counter(c for c, _ in rho_work).values(), default=1) == 1, argv
        run_total = sum(used for _, used in rho_work)
        rho_work.clear()
        params = validate_params(p, q)
        for value in {lucas_u(params, n) for n in indices}:
            factorize(value, FactorCache(budget=budget))
        bare_total = sum(used for _, used in rho_work)
        assert run_total <= bare_total, argv
        if argv[0] == "abc-quality":
            assert run_total < bare_total, argv


def test_partial_split_exits_without_factoring_the_term_again(capsys, monkeypatch):
    """A report whose split of U_n stops partial exits 3 on it, instead of
    spending the budget a second time on the whole term. When a sub-term
    U_d, d | n, is the one stuck, the exit names d and rho never sees its
    leftover composite again in a term above it."""
    rho_work = []
    real_rho = factoring._brent_rho

    def recording_rho(c, budget):
        rho_work.append(budget)  # the iterations a call may spend
        return real_rho(c, budget)

    monkeypatch.setattr(factoring, "_brent_rho", recording_rho)
    cases = [
        (["abc-quality", *FIB, "--from", "139", "--to", "139"], (1, 1), 139),
        (["primitive", "--p", "3", "--q", "-1", "--n", "94"], (3, -1), 47),
        (["primitive", *FIB, "--n", "278"], (1, 1), 139),
        (["primitive", "--p", "2", "--q", "1", "--n", "158"], (2, 1), 79),
    ]
    for argv, card, index in cases:
        rho_work.clear()
        code, out, err = run_cli(capsys, [*argv, "--budget", "100000"])
        assert (code, out) == (3, ""), argv
        assert len(rho_work) == 1 and rho_work[0] <= 100_000, argv
        composite = int(re.search(r"composite (\d+)", err).group(1))
        assert composite > 1 and lucas_u(validate_params(*card), index) % composite == 0, argv
        assert f"at index {index}\n" in err, argv


def _without_primes_of(value: int, other: int) -> int:
    """value with every prime of other divided out, by gcds alone."""
    g = math.gcd(value, other)
    while g > 1:
        value //= g
        g = math.gcd(value, g)
    return value


def test_cache_file_gets_every_record_the_run_holds(tmp_path, capsys, monkeypatch):
    path = tmp_path / "facts.cache"
    argv = ["abc-quality", "--p", "6", "--q", "1", "--from", "46", "--to", "53", "--budget", "100000"]
    caches = []

    def run_cache(*args, **kwargs):
        caches.append(FactorCache(*args, **kwargs))
        return caches[-1]

    monkeypatch.setattr(cli, "FactorCache", run_cache)
    assert run_cli(capsys, [*argv, "--cache", str(path)])[0] == 0
    (cache,) = caches
    text = path.read_text(encoding="ascii")
    records = [int(line.split()[0]) for line in text.splitlines()]
    # Each N is written once, and the file's N are exactly the cache's entries of 10^10 or more.
    assert len(records) == len(set(records))
    reloaded = FactorCache(str(path))
    assert all(reloaded.get(n) == cache.get(n) is not None for n in records)
    assert run_cli(capsys, [*argv, "--cache", str(path)])[0] == 0
    assert path.read_text(encoding="ascii") == text  # a rerun appends nothing
    params = validate_params(6, 1)
    # The entries are the terms U_d, d | n, with each index d and each term's
    # primitive part, the part the split sends to factorize: U_d without the
    # primes of any U_{d/l}. U_1 = 1 and a prime index's primitive part is
    # U_d itself. Then delta, and the e and s the triples read off U_n.
    indices = {d for n in range(46, 54) for d in range(1, n + 1) if n % d == 0}
    held = {params.delta} | indices
    for d in indices:
        part = lucas_u(params, d)
        for l in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
            if d % l == 0:
                part = _without_primes_of(part, lucas_u(params, d // l))
        held.update((lucas_u(params, d), part))
    for n in range(46, 54):
        held.update(power_free_part(lucas_u(params, n), 2))
    assert len(cache) == len(held) and all(cache.get(n) is not None for n in held)
    assert set(records) == {n for n in held if abs(n) >= 10 ** 10}
    assert all(reloaded.get(n) is None for n in held.difference(records))


def test_no_integer_is_stored_twice_in_one_run(capsys, monkeypatch):
    stored = Counter()
    add = FactorCache.add

    def counting_add(self, n, fac):
        before = len(self)
        add(self, n, fac)
        if len(self) > before:
            stored[n] += 1

    monkeypatch.setattr(FactorCache, "add", counting_add)
    for argv in (
        ["primitive", *FIB, "--n", "60", "--a", "7"],
        ["abc-quality", "--p", "6", "--q", "1", "--from", "46", "--to", "53", "--budget", "100000"],
        ["classify", *FIB, "--max", "60"],
        ["verify", *FIB, "--a", "5", "--indices", "5,12"],
        ["solve", *FIB, "--a", "5", "--max", "40"],
    ):
        stored.clear()
        assert run_cli(capsys, argv)[0] == 0, argv
        assert stored, argv
        assert [n for n, count in stored.items() if count > 1] == [], argv


def test_stdout_same_without_memory_and_file_cache(tmp_path, capsys, monkeypatch):
    path = tmp_path / "shared.cache"
    for argv in (
        ["classify", "--p", "6", "--q", "1", "--max", "30", "--k", "3"],
        ["abc-quality", "--p", "6", "--q", "1", "--from", "40", "--to", "45", "--json"],
        ["primitive", *FIB, "--n", "60", "--a", "5"],
        ["verify", *FIB, "--a", "5", "--indices", "5,12"],
        ["verify", *FIB, "--a", "5", "--k", "3", "--indices", "5,12", "--json"],
        ["solve", *FIB, "--a", "5", "--max", "40"],
    ):
        with monkeypatch.context() as patch:
            # The runners get no cache at all, as library calls with cache=None.
            patch.setattr(cli, "FactorCache", lambda *args, **kwargs: None)
            no_cache = run_cli(capsys, argv)[:2]
        in_memory = run_cli(capsys, argv)[:2]
        cold_file = run_cli(capsys, [*argv, "--cache", str(path)])[:2]
        warm_file = run_cli(capsys, [*argv, "--cache", str(path)])[:2]
        assert no_cache[1]
        assert no_cache == in_memory == cold_file == warm_file, argv
