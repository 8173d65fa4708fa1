"""lucasprod benchmark.

    python3 bench/run.py --workload solve-cold --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; lucasprod is imported from ./src.
One client drives a closed loop: each operation is one in-process
``lucasprod.cli.main(argv)`` call with stdout and stderr captured, and the
next starts only when it returns. The seeded operation list (see
workloads.py) is run as a pass, again and again until ``--seconds`` have
elapsed; see end_to_end for how the passes become figures. Outputs are
checked outside the timed region by check.py and against goldens.json.

``--trace 0`` prints the end-to-end metrics of untraced passes. ``--trace 1``
alternates untraced and traced passes and prints per-layer metrics from the
traced ones (see tracer.py). The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every output is correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from check import OK, REFUSED, WRONG, Checker
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens.json"
SETUP_REPEATS = 5
WARMUP_OPS = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ok_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "complete_frac": "ratio",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import lucasprod.cli afresh from ./src, as a new process would."""
    for name in [m for m in sys.modules if m == "lucasprod" or m.startswith("lucasprod.")]:
        del sys.modules[name]
    cli = importlib.import_module("lucasprod.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SOURCE):
        raise ImportError(f"lucasprod was imported from {cli.__file__}, not from {SOURCE}")
    return cli


def op_key(op) -> str:
    return " ".join(op)


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


class Harness:
    """One workload in one process: set-up, timed passes, checks."""

    def __init__(self, workload: workloads.Workload, workdir: Path):
        self.workload = workload
        self.cache_path = workdir / "factors.cache" if workload.cache is not None else None
        self.cli = None

    def setup(self) -> float:
        """Import the program and restore the preloaded cache; returns seconds."""
        start = time.perf_counter()
        self.cli = import_program()
        self.restore_cache()
        return time.perf_counter() - start

    def restore_cache(self) -> None:
        if self.cache_path is not None:
            self.cache_path.write_bytes(self.workload.cache)

    def argv(self, op) -> list[str]:
        return list(op) + (["--cache", str(self.cache_path)] if self.cache_path else [])

    def run_pass(self, tracer: Tracer | None = None, warmup: bool = False):
        """Run every operation once; returns (wall_s, latencies, outputs).

        A warm-up pass runs only the first WARMUP_OPS operations, so the
        interpreter's specializations are in place before anything is timed.
        """
        self.restore_cache()
        gc.collect()
        latencies, outputs = [], []
        clock = time.perf_counter
        begin = clock()
        for op in self.workload.ops[:WARMUP_OPS] if warmup else self.workload.ops:
            argv = self.argv(op)
            out, err = io.StringIO(), io.StringIO()
            if tracer:
                tracer.begin_op()
            start = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            latencies.append(clock() - start)
            outputs.append((code, out.getvalue(), err.getvalue()))
        return clock() - begin, latencies, outputs


def judge(workload: workloads.Workload, passes_outputs: list) -> tuple[list[str], list[str]]:
    """Status of every operation of the first pass, plus problems found.

    Later passes (and traced passes) must repeat the first pass byte for
    byte; operations listed in goldens.json must match their digest.
    """
    checker = Checker()
    first = passes_outputs[0]
    statuses, problems = [], []
    for op, (code, out, err) in zip(workload.ops, first):
        status, reason = checker.judge(op, code, out, err)
        statuses.append(status)
        if status == WRONG:
            problems.append(f"wrong: {op_key(op)}: {reason}")
    for other in passes_outputs[1:]:
        for i, ((code, out, _), (code0, out0, _)) in enumerate(zip(other, first)):
            if (code, out) != (code0, out0):
                statuses[i] = WRONG
                problems.append(f"output differs between passes: {op_key(workload.ops[i])}")
    golden = json.loads(GOLDENS.read_text()).get(workload.name, {}) if GOLDENS.exists() else {}
    for i, (op, (code, out, _)) in enumerate(zip(workload.ops, first)):
        want = golden.get(op_key(op))
        if want is not None and want != digest(code, out):
            statuses[i] = WRONG
            problems.append(f"differs from golden: {op_key(op)}")
    return statuses, problems


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * fraction)) - 1]


def measure(workload: workloads.Workload, harness: Harness, seconds: float, trace: bool) -> dict:
    # Set-up is timed before and after the passes, so its median does not
    # hang on one slow spell of the machine.
    setups = [harness.setup() for _ in range(SETUP_REPEATS)]
    tracer = Tracer() if trace else None
    harness.run_pass(warmup=True)
    walls, traced_walls, latencies, outputs, summaries = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or (trace and not traced_walls) or time.perf_counter() < deadline:
        if trace and len(traced_walls) < len(walls):
            tracer.reset()
            tracer.install()
            try:
                wall, _, out = harness.run_pass(tracer)
            finally:
                tracer.uninstall()
            summaries.append(tracer.summary())
            traced_walls.append(wall)
        else:
            wall, lat, out = harness.run_pass()
            walls.append(wall)
            latencies.append(lat)
        outputs.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += [harness.setup() for _ in range(SETUP_REPEATS)]
    statuses, problems = judge(workload, outputs)
    return dict(
        setups=setups, walls=walls, traced_walls=traced_walls, latencies=latencies,
        statuses=statuses, problems=problems, summaries=summaries, peak_rss_mb=peak_rss_mb,
        passes=len(outputs),
    )


def fastest_repeats(workload: workloads.Workload, latencies_by_pass: list[list[float]]) -> list[float]:
    """Each operation's fastest latency over the passes.

    Equal operations run in the same state and pool their samples: all of
    them in a cold workload; with a cache, all but the first in the list,
    which may miss where the later ones hit.
    """
    keys, seen = [], set()
    for i, op in enumerate(workload.ops):
        keys.append((op, i) if workload.cache is not None and op not in seen else (op, "repeat"))
        seen.add(op)
    best: dict = {}
    for latencies in latencies_by_pass:
        for key, latency in zip(keys, latencies):
            best[key] = min(latency, best.get(key, latency))
    return [best[key] for key in keys]


def end_to_end(workload: workloads.Workload, m: dict) -> dict[str, float]:
    """The machine's speed drifts by tens of percent over seconds, and a slow
    spell only ever adds time. So each operation's latency is its fastest
    repeat; p50 and p90 are taken over the operations of the list and wall_s
    is their sum, the time of the list at that speed."""
    ok = m["statuses"].count(OK)
    best = sorted(fastest_repeats(workload, m["latencies"]))
    wall = sum(best)
    return {
        "setup_s": statistics.median(m["setups"]),
        "wall_s": wall,
        "ok_ops_per_s": ok / wall,
        "latency_p50_ms": 1000 * percentile(best, 0.5),
        "latency_p90_ms": 1000 * percentile(best, 0.9),
        "complete_frac": ok / len(m["statuses"]),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def per_layer(m: dict) -> dict[str, tuple[float, str]]:
    out = {}
    for name in m["summaries"][0]:
        value = statistics.median(s[name] for s in m["summaries"])
        unit = "s" if name.endswith("_s") or "_s." in name else "ratio" if name.endswith("ratio") else "count"
        out[name] = (value, unit)
    overhead = min(m["traced_walls"]) / min(m["walls"]) - 1
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "lucasprod" / "__init__.py").is_file():
        print(f"error: no lucasprod sources under {SOURCE}", file=sys.stderr)
        return 2
    os.environ.pop("LUCAS_FACTOR_CACHE", None)  # cold workloads must not pick up a cache
    sys.path.insert(0, str(SOURCE))

    workload = workloads.build(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        m = measure(workload, Harness(workload, workdir), args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    statuses = m["statuses"]
    per_pass = len(workload.ops)
    print(
        f"workload={workload.name} seed={args.seed} trace={args.trace} passes={m['passes']} "
        f"ops_per_pass={per_pass} latency_samples={per_pass} (fastest of {len(m['latencies'])} untraced passes; "
        f"{per_pass - math.ceil(0.9 * per_pass)} beyond p90) "
        f"complete={statuses.count(OK)} budget_exhausted={statuses.count(REFUSED)} wrong={statuses.count(WRONG)} "
        f"failed_frac={1 - statuses.count(OK) / per_pass:.6f}"
    )
    print("pass_walls_s=" + ",".join(f"{w:.3f}" for w in m["walls"]) + " traced=" + ",".join(f"{w:.3f}" for w in m["traced_walls"]))
    for problem in m["problems"][:20]:
        print(problem)
    if args.trace:
        metrics = per_layer(m)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end(workload, m).items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.9g} {unit}")
    correct = not m["problems"]
    attempted = per_pass * m["passes"]
    failed = statuses.count(WRONG) * m["passes"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
