"""Self-tests of the benchmark's own parts, and golden recording.

    python3 bench/selftest.py counters       # tracer counts vs an independent profiler
    python3 bench/selftest.py determinism    # seeded generators are reproducible
    python3 bench/selftest.py checker        # the checker accepts real outputs, rejects altered ones
    python3 bench/selftest.py record-goldens # rewrite goldens.json for DEFAULT_SEED

Run from the root of a source checkout. Each command exits 0 on success.
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import sys

import run
import workloads
from check import OK, REFUSED, WRONG, Checker
from tracer import Tracer

DEFAULT_SEED = 1

# factorize (calls, distinct inputs) at the seed commit, from the ROADMAP
# baseline: the count a one-factorization-per-integer change would lower.
SEED_FACTORIZE_COUNTS = {
    "verify_solution Fib A=5 (5,12)": (9, 2),
    "enumerate_solutions Fib A=5 N=50": (75, 49),
    "quality_report Pell n=60": (5, 4),
}


def _program():
    if str(run.SOURCE) not in sys.path:
        sys.path.insert(0, str(run.SOURCE))
    run.import_program()
    import lucasprod
    return lucasprod


def counters() -> list[str]:
    """Tracer counts must equal a sys.setprofile count of the same calls, and
    reproduce the seed-commit baseline."""
    lp = _program()
    fib, pell = lp.validate_params(1, 1), lp.validate_params(2, 1)
    cases = {
        "verify_solution Fib A=5 (5,12)": lambda: lp.solver.verify_solution(lp.ProductEquation(fib, 5, 2, 12, 2), (5, 12)),
        "enumerate_solutions Fib A=5 N=50": lambda: lp.solver.enumerate_solutions(lp.ProductEquation(fib, 5, 2, 50, 2)),
        "quality_report Pell n=60": lambda: lp.abc_evidence.quality_report(pell, 60, 2),
    }
    target = lp.factoring.factorize.__code__
    problems = []
    tracer = Tracer()
    for name, call in cases.items():
        seen = []

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code is target:
                seen.append(frame.f_locals["n"])

        tracer.reset()
        tracer.install()
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
            tracer.uninstall()
        summary = tracer.summary()
        traced = (summary["factoring.factorize.calls"], summary["factoring.factorize.distinct"])
        profiled = (len(seen), len(set(seen)))
        print(f"{name}: traced calls/distinct {traced}, profiled {profiled}, seed baseline {SEED_FACTORIZE_COUNTS[name]}")
        if traced != profiled:
            problems.append(f"{name}: tracer {traced} != profiler {profiled}")
        if traced != SEED_FACTORIZE_COUNTS[name]:
            problems.append(f"{name}: {traced} differs from the seed baseline {SEED_FACTORIZE_COUNTS[name]}")
    return problems


def determinism() -> list[str]:
    problems = []
    for name in workloads.GENERATORS:
        a, b, c = workloads.build(name, 7), workloads.build(name, 7), workloads.build(name, 8)
        if a.ops != b.ops or a.cache != b.cache:
            problems.append(f"{name}: seed 7 gave two different inputs")
        if a.ops == c.ops:
            problems.append(f"{name}: seeds 7 and 8 gave the same operation list")
        if len(a.ops) < 100:
            problems.append(f"{name}: {len(a.ops)} operations, p90 needs at least 100")
        print(f"{name}: {len(a.ops)} operations, cache {len(a.cache or b'')} bytes, deterministic")
    checker = Checker()
    for outcome, cases in workloads.VERIFY_CATALOGUE.items():
        for p, q, a, k, indices in cases:
            derived = checker.verify_outcome(p, q, a, k, list(indices))
            if derived != outcome:
                problems.append(f"verify catalogue {(p, q, a, k, indices)} is listed as {outcome}, derives {derived}")
    return problems


def _run_once(name: str, seed: int):
    """One untimed pass of a workload; returns (workload, outputs)."""
    _program()
    workload = workloads.build(name, seed)
    workdir = run.ROOT / ".bench_work" / f"selftest-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        harness = run.Harness(workload, workdir)
        harness.setup()
        return workload, harness.run_pass()[2]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def checker() -> list[str]:
    """Every command's real output is judged correct; raising one number in
    it makes it wrong."""
    problems = []
    judge = Checker()
    for name in workloads.GENERATORS:
        workload, outputs = _run_once(name, DEFAULT_SEED)
        tried = set()
        for op, (code, out, err) in zip(workload.ops, outputs):
            status, reason = judge.judge(op, code, out, err)
            if status == WRONG:
                problems.append(f"real output judged wrong: {run.op_key(op)}: {reason}")
            key = (op[0], code)
            altered = _alter(out) if status == OK and key not in tried else None
            if altered is None:
                continue
            tried.add(key)
            if judge.judge(op, code, altered, err)[0] != WRONG:
                problems.append(f"altered output judged correct: {run.op_key(op)}")
        print(f"{name}: checked {len(outputs)} outputs, altered one of each of {sorted(tried)}")
    return problems


def _alter(out: str) -> str | None:
    """The output with the last number in its results raised by one."""
    record = json.loads(out)
    text = json.dumps(record["results"])
    numbers = list(re.finditer(r"\d+(?:\.\d+)?", text))
    if not numbers:
        return None
    last = numbers[-1]
    raised = str(float(last.group()) + 1) if "." in last.group() else str(int(last.group()) + 1)
    changed = text[:last.start()] + raised + text[last.end():]
    return json.dumps({**record, "results": json.loads(changed)})


def record_goldens() -> list[str]:
    goldens, problems = {}, []
    judge = Checker()
    for name in workloads.GENERATORS:
        workload, outputs = _run_once(name, DEFAULT_SEED)
        goldens[name] = {}
        for op, (code, out, err) in zip(workload.ops, outputs):
            status, reason = judge.judge(op, code, out, err)
            if status not in (OK, REFUSED):
                problems.append(f"not recording a wrong output: {run.op_key(op)}: {reason}")
            goldens[name][run.op_key(op)] = run.digest(code, out)
        print(f"{name}: {len(goldens[name])} goldens")
    if not problems:
        run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return problems


COMMANDS = {"counters": counters, "determinism": determinism, "checker": checker, "record-goldens": record_goldens}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in COMMANDS:
        print(__doc__, file=sys.stderr)
        return 2
    problems = COMMANDS[argv[0]]()
    for problem in problems:
        print("FAIL", problem)
    print("FAIL" if problems else "PASS", argv[0])
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
