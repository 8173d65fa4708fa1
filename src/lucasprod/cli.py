"""Command-line front end.

Every subcommand prints either a fixed-order text report or one JSON record
``{command, params: {p, q, a, k}, results: [...]}``; identical inputs give
byte-identical output. Exit codes separate the outcomes: 0 success, 1 a
mathematical rejection (including a --prime proved composite), 2 bad usage,
an unusable --cache file or an internal error, 3 factorization budget exhausted.

Each ``main`` call builds its own parser. Every subparser takes -h, --p,
--q, --json, --cache and --budget from one parent parser built in that call,
and binds its runner with ``set_defaults``. Every parser of a call shares one
HelpFormatter width, read from the terminal once per call: argparse would
read it in each of the 27 formatters one build creates, and a new read per
call still follows a changed terminal or COLUMNS. A runner reads the argparse
namespace, the validated LucasParams and the run's FactorCache and returns
``(json_results, text_lines)``, two iterables that seq fills lazily; ``run``
prints the lines, or writes the one JSON record row by row, as they come.
``run`` is also the one place where rejections become exit 1: a
VerificationError or NotFoundWithinBound raised by any runner prints
``rejected: ...`` or ``not found: ...``, or under --json a record with empty
``results`` and an ``error`` field. ``main`` prints every ValueError, the
one type of bad input, as ``parameter error: ...`` and exits 2; it maps the
other errors to exit 2 or 3 on stderr.

Each run builds one FactorCache, its only factoring context: it carries the
--budget, in rho iterations per composite, and holds every factorization the
run computes or derives, so each integer is factored once per run. It is
backed by the --cache file, else by nothing (no environment variable names a
file); seq and rank never load the file. The file holds only integers of
10^10 or more, which trial division cannot settle, and is read on the first
lookup or store of one, so a run that needs none never opens it. A --k below
2, an --a of 0, a bad --p or --q, a negative --budget, an index past the cap
100000 (--max, --to, --n, --indices), an index or count below its bound
and a --to below --from exit 2 before the file is read or written. A file
record is checked when the run first reads it, so a corrupt record that the
run reads exits 2 naming ``file:line``, and one it never reads is neither
checked nor reported. The file receives every complete factorization of
10^10 or more the run holds, each once, and nothing partial.

classify, abc-quality and primitive factor each term U_n with
``primitive.factor_term``, which divides out the primes of every U_{n/l} (l
a prime of n) before the p-1 step and rho; classify reads e, s and the
square class off its result, and abc-quality reads U_n back from the cache.
The first U_d, d | n, whose primitive part stops partial exits 3 in
``factor_term``, naming d and its leftover composite, so rho meets that
composite once. Their file thus also receives each term U_d, d | n, that
the split factors, with its index d and its primitive part, from 10^10 up;
primitive --a adds no record for A and judges the obstruction filter from
the prime table it prints. solve, admissible and verify factor whole terms, through the same
``factorize``.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
from collections.abc import Iterable, Iterator

from .abc_evidence import quality_report
from .errors import IncompleteFactorization, LucasProdError, NotFoundWithinBound, VerificationError
from .factoring import DEFAULT_RHO_BUDGET, FactorCache
from .lucas import DEFAULT_INDEX_CAP, LucasParams, lucas_u, validate_params
from .primitive import factor_term, obstruction_filter, primitive_divisors, rank_of_apparition
from .solver import (
    ProductEquation,
    SolutionCertificate,
    admissible_indices,
    enumerate_solutions,
    verify_solution,
)

_Output = tuple[Iterable[dict], Iterable[str]]


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        parsed = tuple(int(piece) for piece in text.split(",") if piece.strip())
    except ValueError:
        raise ValueError(f"indices must be a comma-separated integer list, got {text!r}")
    if not parsed:
        raise ValueError("indices must be a nonempty comma-separated integer list")
    return parsed


def _certificate_json(cert: SolutionCertificate) -> dict:
    return {
        "indices": list(cert.indices),
        "y": str(cert.y),
        "valuations": {
            str(p): [{"index": n, "exponent": v} for n, v in entries]
            for p, entries in sorted(cert.valuation_table.items())
        },
    }


def _certificate_line(cert: SolutionCertificate) -> str:
    joined = ",".join(str(n) for n in cert.indices)
    suffix = " trivial" if cert.trivial else ""
    return f"indices={joined} y={cert.y}{suffix}"


def _seq_terms(params: LucasParams, count: int) -> Iterator[tuple[int, str]]:
    u, u_next = 1, params.p  # U_1, U_2
    for n in range(1, count + 1):
        yield n, str(u)
        u, u_next = u_next, params.p * u_next + params.q * u


def _run_seq(args: argparse.Namespace, params: LucasParams, cache: FactorCache | None) -> _Output:
    if args.max_index < 1:
        raise ValueError(f"--max must be >= 1, got {args.max_index}")
    # Lazy rows, one term at a time: run prints or encodes each as it comes,
    # so a long run never holds all N decimal strings.
    return (
        ({"n": n, "value": v} for n, v in _seq_terms(params, args.max_index)),
        (f"{n} {v}" for n, v in _seq_terms(params, args.max_index)),
    )


def _run_classify(args: argparse.Namespace, params: LucasParams, cache: FactorCache | None) -> _Output:
    if args.max_index < 1:
        raise ValueError(f"--max must be >= 1, got {args.max_index}")
    rows = []
    for n in range(1, args.max_index + 1):
        fac = factor_term(params, n, cache=cache)
        e, s = fac.power_free(args.k)
        cls = fac.power_free(2)[0]  # the signed 2-free part
        rows.append((n, *map(str, (fac.value(), e.value(), s.value(), cls.value()))))
    return (
        [dict(zip(("n", "value", "e", "s", "class"), row)) for row in rows],
        ["n value e s class", *(" ".join(map(str, row)) for row in rows)],
    )


def _run_admissible(args: argparse.Namespace, params: LucasParams, cache: FactorCache | None) -> _Output:
    eq = ProductEquation(params, args.a, args.k, args.max_index, 1)
    indices = admissible_indices(eq, cache=cache).indices
    return list(indices), [" ".join(str(n) for n in indices)]


def _run_solve(args: argparse.Namespace, params: LucasParams, cache: FactorCache | None) -> _Output:
    eq = ProductEquation(params, args.a, args.k, args.max_index, args.max_factors)
    certs = enumerate_solutions(eq, cache=cache)
    return [_certificate_json(c) for c in certs], [_certificate_line(c) for c in certs]


def _run_verify(args: argparse.Namespace, params: LucasParams, cache: FactorCache | None) -> _Output:
    indices = args.indices  # run parsed them to check the cap
    eq = ProductEquation(params, args.a, args.k, max(max(indices), 2), len(indices))
    cert = verify_solution(eq, indices, cache=cache)
    lines = ["verified " + _certificate_line(cert)]
    for p, entries in sorted(cert.valuation_table.items()):
        joined = " ".join(f"({n},{v})" for n, v in entries)
        lines.append(f"  {p}: {joined}")
    return [_certificate_json(cert)], lines


def _run_rank(args: argparse.Namespace, params: LucasParams, cache: FactorCache | None) -> _Output:
    rank = rank_of_apparition(params, args.prime, cache=cache)
    return [{"p": rank.p, "z": rank.z}], [f"z({rank.p}) = {rank.z}"]


def _run_primitive(args: argparse.Namespace, params: LucasParams, cache: FactorCache | None) -> _Output:
    if args.a is not None and args.n < 2:  # the filter's check, before the split writes the file
        raise ValueError(f"index must be >= 2, got {args.n}")
    report = primitive_divisors(params, args.n, cache=cache)
    verdict = None
    if args.a is not None:
        verdict = obstruction_filter(args.a, report)
    value = str(lucas_u(params, args.n))
    body = {
        "n": report.n,
        "value": value,
        "entries": [
            {"prime": e.prime, "multiplicity": e.multiplicity, "primitive": e.primitive}
            for e in report.entries
        ],
        "verdict": None
        if verdict is None
        else {"admissible": verdict.admissible, "reason": verdict.reason, "prime": verdict.prime},
    }
    lines = [f"U_{report.n} = {value}"]
    lines += [
        f"prime={e.prime} multiplicity={e.multiplicity} primitive={'yes' if e.primitive else 'no'}"
        for e in report.entries
    ]
    if verdict is not None:
        state = "admissible" if verdict.admissible else "excluded"
        lines.append(f"verdict={state} reason={verdict.reason}")
    return [body], lines


_QUALITY_COLUMNS = ("height", "radical", "quality", "lower_slack", "upper_slack_term")


def _run_abc_quality(args: argparse.Namespace, params: LucasParams, cache: FactorCache | None) -> _Output:
    if args.from_n < 1:
        raise ValueError(f"--from must be >= 1, got {args.from_n}")
    if args.to_n < args.from_n:
        raise ValueError(f"--to must be >= --from ({args.from_n}), got {args.to_n}")
    results, lines = [], ["n " + " ".join(_QUALITY_COLUMNS)]
    for n in range(args.from_n, args.to_n + 1):
        factor_term(params, n, cache=cache)  # the split; quality_report reads U_n from the cache
        report = quality_report(params, n, args.k, cache=cache)
        cells = [f"{getattr(report, column):.6f}" for column in _QUALITY_COLUMNS]
        # JSON floats are the printed 6-decimal values, read back.
        results.append({"n": n, **{column: float(c) for column, c in zip(_QUALITY_COLUMNS, cells)}})
        lines.append(f"{n} " + " ".join(cells))
    return results, lines


def _build_parser() -> argparse.ArgumentParser:
    # One build makes 27 add_argument calls, each with its own HelpFormatter,
    # and each formatter given no width reads the terminal. Read it once, as
    # HelpFormatter does (columns - 2), and give that width to every parser
    # of this call.
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="lucasprod",
        description="Reduce A*y^k = products of Lucas terms to checkable conditions.",
        formatter_class=formatter,
    )
    # A given prog spares the HelpFormatter argparse would build to derive it.
    sub = parser.add_subparsers(dest="subcommand", required=True, prog="lucasprod")
    # The options every subcommand takes, -h included, defined once: each
    # add_argument builds a HelpFormatter, so eight copies would cost eight
    # times as much.
    common = argparse.ArgumentParser(formatter_class=formatter)
    common.add_argument("--p", type=int, required=True, help="recurrence coefficient P")
    common.add_argument("--q", type=int, required=True, help="recurrence coefficient Q, +1 or -1")
    common.add_argument("--json", action="store_true", dest="as_json", help="emit one JSON record")
    common.add_argument("--cache", default=None, help="factor cache file")
    common.add_argument("--budget", type=int, default=DEFAULT_RHO_BUDGET, help="rho iterations per composite")

    def command(name: str, runner, help: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help, parents=[common], add_help=False, formatter_class=formatter)
        # a and k are in every JSON record's params, also where no flag sets them.
        sp.set_defaults(runner=runner, a=None, k=2)
        return sp

    sp = command("seq", _run_seq, "print U_1..U_N")
    sp.add_argument("--max", type=int, required=True, dest="max_index", help="largest index N")

    sp = command("classify", _run_classify, "k-power-free parts and square classes of U_1..U_N")
    sp.add_argument("--max", type=int, required=True, dest="max_index")
    sp.add_argument("--k", type=int, help="power-free exponent (default 2)")

    sp = command("admissible", _run_admissible, "indices whose k-free part is supported on the primes of A")
    sp.add_argument("--a", type=int, required=True, help="coefficient A")
    sp.add_argument("--k", type=int)
    sp.add_argument("--max", type=int, required=True, dest="max_index")

    sp = command("solve", _run_solve, "all solutions of A*y^k = U_{n_1}...U_{n_r}")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--max", type=int, required=True, dest="max_index")
    sp.add_argument("--r", type=int, default=2, dest="max_factors", help="largest factor count (default 2)")

    sp = command("verify", _run_verify, "check one index tuple and print its certificate")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--indices", type=str, required=True, help="comma-separated indices, e.g. 5,12")

    sp = command("rank", _run_rank, "rank of apparition z(p)")
    sp.add_argument("--prime", type=int, required=True)

    sp = command("primitive", _run_primitive, "prime divisors of U_n with primitivity marks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", type=int, help="also run the obstruction filter for this A")
    sp.add_argument("--k", type=int)

    sp = command("abc-quality", _run_abc_quality, "height/radical quality table over an index range")
    sp.add_argument("--k", type=int)
    sp.add_argument("--from", type=int, required=True, dest="from_n", help="first index")
    sp.add_argument("--to", type=int, required=True, dest="to_n", help="last index")

    return parser


def run(args: argparse.Namespace) -> int:
    """Run a parsed invocation and print its output; rejections exit 1 here."""
    # Before the cache exists, so a bad --k or --a 0 writes no file.
    if args.k < 2:
        raise ValueError(f"k must be >= 2, got {args.k}")
    if args.a == 0:
        raise ValueError("coefficient a must be nonzero")
    # seq factors nothing and rank one number, so neither loads the file.
    path = None if args.subcommand in ("seq", "rank") else args.cache or None
    params = validate_params(args.p, args.q)  # before the cache file is read
    # Every index the call names meets the cap before the file is read, too.
    indices = [getattr(args, dest) for dest in ("max_index", "to_n", "n") if dest in args]
    if args.subcommand == "verify":
        args.indices = _parse_indices(args.indices)
        indices += args.indices
    if max(indices, default=0) > DEFAULT_INDEX_CAP:
        raise ValueError(f"index {max(indices)} exceeds the cap {DEFAULT_INDEX_CAP}")
    cache = FactorCache(path, budget=args.budget)
    code, error = 0, None
    try:
        results, lines = args.runner(args, params, cache)
    except (VerificationError, NotFoundWithinBound) as exc:
        code, results, error = 1, [], {"type": type(exc).__name__, "message": str(exc)}
        prefix = "not found" if isinstance(exc, NotFoundWithinBound) else "rejected"
        lines = [f"{prefix}: {exc}"]
    if args.as_json:
        # The bytes of json.dumps(record), written row by row: results may be
        # lazy (seq), and a long one is never held whole.
        head = json.dumps(
            {"command": args.subcommand, "params": {"p": args.p, "q": args.q, "a": args.a, "k": args.k}}
        )
        sys.stdout.write(head[:-1] + ', "results": [')
        for i, row in enumerate(results):
            sys.stdout.write((", " if i else "") + json.dumps(row))
        tail = "" if error is None else ', "error": ' + json.dumps(error)
        sys.stdout.write("]" + tail + "}\n")
    else:
        for line in lines:
            print(line)
    return code


def main(argv: list[str] | None = None) -> int:
    """Run one invocation (``sys.argv`` when argv is None) and return its exit code."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:  # terms and --prime may pass 4,300 digits
        sys.set_int_max_str_digits(0)
    try:
        return run(_build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except IncompleteFactorization as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (LucasProdError, OSError) as exc:  # OSError: an unusable --cache file, named in exc
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:  # the caller's interpreter keeps its own limit
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
