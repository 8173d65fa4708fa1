"""Command-line front end.

Every subcommand prints either a fixed-order text report or one JSON record
``{command, params: {p, q, a, k}, results: [...]}``; identical inputs give
byte-identical output. Exit codes separate the outcomes: 0 success, 1 a
mathematical rejection (including a --prime proved composite), 2 bad usage
or an internal error, 3 factorization budget exhausted.

Each run builds one FactorCache, its only factoring context: it carries the
--budget and holds every factorization the run computes, so each integer is
factored once per run. It is backed by the --cache file, else the file named
by LUCAS_FACTOR_CACHE, else by nothing and dies with the run; seq and rank
never load the file. The k-free parts and roots derived from a factorization
are held in memory only; the file receives only the records that factoring
computed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .abc_evidence import quality_report
from .errors import (
    BadQ,
    IncompleteFactorization,
    LucasProdError,
    NonpositiveDiscriminant,
    NotFoundWithinBound,
    NotPrime,
    SquareDiscriminant,
    VerificationError,
    ZeroInput,
)
from .factoring import DEFAULT_RHO_BUDGET, FactorCache, power_free_part
from .lucas import lucas_range, lucas_u, validate_params
from .primitive import obstruction_filter, primitive_divisors, rank_of_apparition
from .solver import (
    ProductEquation,
    SolutionCertificate,
    admissible_indices,
    enumerate_solutions,
    verify_solution,
)
from .square_class import class_of

CACHE_ENV_VAR = "LUCAS_FACTOR_CACHE"


@dataclass
class RunConfig:
    """Parsed invocation: subcommand plus every flag it may consume."""

    subcommand: str
    p: int
    q: int
    a: int | None = None
    k: int = 2
    max_index: int | None = None
    max_factors: int | None = None
    as_json: bool = False
    cache_path: str | None = None
    budget: int = DEFAULT_RHO_BUDGET
    indices: tuple[int, ...] | None = None
    prime: int | None = None
    n: int | None = None
    from_n: int | None = None
    to_n: int | None = None


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _json_float(x: float) -> float:
    return float(_fmt(x))


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        parsed = tuple(int(piece) for piece in text.split(",") if piece.strip())
    except ValueError:
        raise ValueError(f"indices must be a comma-separated integer list, got {text!r}")
    if not parsed:
        raise ValueError("indices must be a nonempty comma-separated integer list")
    return parsed


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, required=True, help="recurrence coefficient P")
    sp.add_argument("--q", type=int, required=True, help="recurrence coefficient Q, +1 or -1")
    sp.add_argument("--json", action="store_true", dest="as_json", help="emit one JSON record")
    sp.add_argument("--cache", default=None, help="factor cache file (overrides LUCAS_FACTOR_CACHE)")
    sp.add_argument("--budget", type=int, default=DEFAULT_RHO_BUDGET, help="rho iteration budget per composite")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucasprod",
        description="Reduce A*y^k = products of Lucas terms to checkable conditions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("seq", help="print U_1..U_N")
    _add_common(sp)
    sp.add_argument("--max", type=int, required=True, dest="max_index", help="largest index N")

    sp = sub.add_parser("classify", help="k-power-free parts and square classes of U_1..U_N")
    _add_common(sp)
    sp.add_argument("--max", type=int, required=True, dest="max_index")
    sp.add_argument("--k", type=int, default=2, help="power-free exponent (default 2)")

    sp = sub.add_parser("admissible", help="indices whose k-free part is supported on the primes of A")
    _add_common(sp)
    sp.add_argument("--a", type=int, required=True, help="coefficient A")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--max", type=int, required=True, dest="max_index")

    sp = sub.add_parser("solve", help="all solutions of A*y^k = U_{n_1}...U_{n_r}")
    _add_common(sp)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--max", type=int, required=True, dest="max_index")
    sp.add_argument("--r", type=int, default=2, dest="max_factors", help="largest factor count (default 2)")

    sp = sub.add_parser("verify", help="check one index tuple and print its certificate")
    _add_common(sp)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--indices", type=str, required=True, help="comma-separated indices, e.g. 5,12")

    sp = sub.add_parser("rank", help="rank of apparition z(p)")
    _add_common(sp)
    sp.add_argument("--prime", type=int, required=True)

    sp = sub.add_parser("primitive", help="prime divisors of U_n with primitivity marks")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", type=int, default=None, help="also run the obstruction filter for this A")
    sp.add_argument("--k", type=int, default=2)

    sp = sub.add_parser("abc-quality", help="height/radical quality table over an index range")
    _add_common(sp)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--from", type=int, required=True, dest="from_n", help="first index")
    sp.add_argument("--to", type=int, required=True, dest="to_n", help="last index")

    return parser


def parse_args(argv: list[str] | None = None) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    indices = _parse_indices(ns.indices) if getattr(ns, "indices", None) else None
    return RunConfig(
        subcommand=ns.subcommand,
        p=ns.p,
        q=ns.q,
        a=getattr(ns, "a", None),
        k=getattr(ns, "k", 2),
        max_index=getattr(ns, "max_index", None),
        max_factors=getattr(ns, "max_factors", None),
        as_json=ns.as_json,
        cache_path=ns.cache,
        budget=ns.budget,
        indices=indices,
        prime=getattr(ns, "prime", None),
        n=getattr(ns, "n", None),
        from_n=getattr(ns, "from_n", None),
        to_n=getattr(ns, "to_n", None),
    )


def _emit_json(config: RunConfig, results: list, error: dict | None = None) -> None:
    record = {
        "command": config.subcommand,
        "params": {"p": config.p, "q": config.q, "a": config.a, "k": config.k},
        "results": results,
    }
    if error is not None:
        record["error"] = error
    print(json.dumps(record))


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


def _run_seq(config: RunConfig, cache: FactorCache | None) -> int:
    params = validate_params(config.p, config.q)
    if config.max_index < 1:
        raise ValueError(f"--max must be >= 1, got {config.max_index}")
    terms = lucas_range(params, config.max_index)
    if config.as_json:
        _emit_json(config, [{"n": n, "value": str(terms[n])} for n in range(1, config.max_index + 1)])
    else:
        for n in range(1, config.max_index + 1):
            print(f"{n} {terms[n]}")
    return 0


def _run_classify(config: RunConfig, cache: FactorCache | None) -> int:
    params = validate_params(config.p, config.q)
    if config.max_index < 1:
        raise ValueError(f"--max must be >= 1, got {config.max_index}")
    terms = lucas_range(params, config.max_index)
    rows = []
    for n in range(1, config.max_index + 1):
        dec = power_free_part(terms[n], config.k, cache=cache)
        cls = class_of(terms[n], cache=cache)
        rows.append((n, terms[n], dec.e, dec.s, cls.as_integer()))
    if config.as_json:
        _emit_json(
            config,
            [
                {"n": n, "value": str(v), "e": str(e), "s": str(s), "class": str(c)}
                for n, v, e, s, c in rows
            ],
        )
    else:
        print("n value e s class")
        for n, v, e, s, c in rows:
            print(f"{n} {v} {e} {s} {c}")
    return 0


def _equation(config: RunConfig, max_index: int, max_factors: int) -> ProductEquation:
    params = validate_params(config.p, config.q)
    return ProductEquation(
        params=params,
        a=config.a,
        k=config.k,
        max_index=max_index,
        max_factors=max_factors,
    )


def _run_admissible(config: RunConfig, cache: FactorCache | None) -> int:
    eq = _equation(config, config.max_index, 1)
    adm = admissible_indices(eq, cache=cache)
    if config.as_json:
        _emit_json(config, list(adm.indices))
    else:
        print(" ".join(str(n) for n in adm.indices))
    return 0


def _run_solve(config: RunConfig, cache: FactorCache | None) -> int:
    eq = _equation(config, config.max_index, config.max_factors)
    certs = enumerate_solutions(eq, cache=cache)
    if config.as_json:
        _emit_json(config, [_certificate_json(c) for c in certs])
    else:
        for cert in certs:
            print(_certificate_line(cert))
    return 0


def _run_verify(config: RunConfig, cache: FactorCache | None) -> int:
    eq = _equation(config, max(max(config.indices), 2), len(config.indices))
    try:
        cert = verify_solution(eq, config.indices, cache=cache)
    except VerificationError as exc:
        if config.as_json:
            _emit_json(config, [], error={"type": type(exc).__name__, "message": str(exc)})
        else:
            print(f"rejected: {exc}")
        return 1
    if config.as_json:
        _emit_json(config, [_certificate_json(cert)])
    else:
        print("verified " + _certificate_line(cert))
        for p, entries in sorted(cert.valuation_table.items()):
            joined = " ".join(f"({n},{v})" for n, v in entries)
            print(f"  {p}: {joined}")
    return 0


def _run_rank(config: RunConfig, cache: FactorCache | None) -> int:
    params = validate_params(config.p, config.q)
    try:
        rank = rank_of_apparition(params, config.prime, cache=cache)
    except NotFoundWithinBound as exc:
        if config.as_json:
            _emit_json(config, [], error={"type": type(exc).__name__, "message": str(exc)})
        else:
            print(f"not found: {exc}")
        return 1
    if config.as_json:
        _emit_json(config, [{"p": rank.p, "z": rank.z}])
    else:
        print(f"z({rank.p}) = {rank.z}")
    return 0


def _run_primitive(config: RunConfig, cache: FactorCache | None) -> int:
    params = validate_params(config.p, config.q)
    report = primitive_divisors(params, config.n, cache=cache)
    verdict = None
    if config.a is not None:
        verdict = obstruction_filter(params, config.a, config.n, k=config.k, cache=cache)
    value = lucas_u(params, config.n)
    if config.as_json:
        body = {
            "n": report.n,
            "value": str(value),
            "entries": [
                {"prime": e.prime, "multiplicity": e.multiplicity, "primitive": e.primitive}
                for e in report.entries
            ],
            "verdict": None
            if verdict is None
            else {
                "admissible": verdict.admissible,
                "reason": verdict.reason,
                "prime": verdict.prime,
            },
        }
        _emit_json(config, [body])
    else:
        print(f"U_{report.n} = {value}")
        for e in report.entries:
            mark = "yes" if e.primitive else "no"
            print(f"prime={e.prime} multiplicity={e.multiplicity} primitive={mark}")
        if verdict is not None:
            state = "admissible" if verdict.admissible else "excluded"
            print(f"verdict={state} reason={verdict.reason}")
    return 0


def _run_abc_quality(config: RunConfig, cache: FactorCache | None) -> int:
    params = validate_params(config.p, config.q)
    if config.from_n < 1:
        raise ValueError(f"--from must be >= 1, got {config.from_n}")
    rows = []
    for n in range(config.from_n, config.to_n + 1):
        report = quality_report(params, n, config.k, cache=cache)
        rows.append((n, report))
    if config.as_json:
        _emit_json(
            config,
            [
                {
                    "n": n,
                    "height": _json_float(r.height),
                    "radical": _json_float(r.radical),
                    "quality": _json_float(r.quality),
                    "lower_slack": _json_float(r.lower_slack),
                    "upper_slack_term": _json_float(r.upper_slack_term),
                }
                for n, r in rows
            ],
        )
    else:
        print("n height radical quality lower_slack upper_slack_term")
        for n, r in rows:
            print(
                f"{n} {_fmt(r.height)} {_fmt(r.radical)} {_fmt(r.quality)} "
                f"{_fmt(r.lower_slack)} {_fmt(r.upper_slack_term)}"
            )
    return 0


_RUNNERS = {
    "seq": _run_seq,
    "classify": _run_classify,
    "admissible": _run_admissible,
    "solve": _run_solve,
    "verify": _run_verify,
    "rank": _run_rank,
    "primitive": _run_primitive,
    "abc-quality": _run_abc_quality,
}


def run(config: RunConfig) -> int:
    """Dispatch a parsed invocation; exceptions map to the exit-code contract."""
    path = None
    # seq factors nothing and rank one number, so neither loads the file.
    if config.subcommand not in ("seq", "rank"):
        path = config.cache_path or os.environ.get(CACHE_ENV_VAR) or None
    return _RUNNERS[config.subcommand](config, FactorCache(path, budget=config.budget))


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (BadQ, NonpositiveDiscriminant, SquareDiscriminant, NotPrime, ZeroInput, ValueError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except IncompleteFactorization as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (VerificationError, NotFoundWithinBound) as exc:
        # Fallback; the verify and rank runners normally report these themselves.
        print(f"rejected: {exc}")
        return 1
    except LucasProdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
