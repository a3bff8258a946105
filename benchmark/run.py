"""smoothci benchmark: one workload, measured end to end or traced per layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  The workload's operations run in this one process, with
BLAS and OpenMP pools capped at one thread.  The run repeats the
workload's list of operations until ``--seconds`` have passed, checks
every output, and prints one JSON object as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs and output files, inside the checkout.
RUN_DIR = ROOT / ".bench_run"
#: Fresh interpreters timed for set-up; the median is reported.
SETUP_PROBES = 5
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import smoothci.gauss\n"
    "smoothci.gauss.quadrature_rule()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def listed_metrics(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def measure_setup() -> float:
    """Median time to import smoothci and build the first quadrature rule."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def warm_allocator() -> None:
    """Put glibc's allocator in the state a long-running process reaches.

    glibc serves blocks above its mmap threshold (128 KiB at start) by
    mmap, and raises the threshold to the size of the largest such
    block freed so far (up to 32 MiB).  Until then every large numpy
    temporary costs fresh page faults; the 400 x 400 kernel matrices of
    the SD path run about 30 % slower.  Freeing one 16 MiB block before
    the first round makes every round start from the same state,
    whatever the workload's first operation allocates.
    """
    import numpy as np

    block = np.ones(2 << 20)
    del block


def fresh_state() -> None:
    """Empty the package's memo caches and collect garbage.

    Every operation then starts as it would in a fresh CLI process:
    no cached quadrature rules, and no garbage left by the operations
    before it to be collected at a moment that depends on their order.
    """
    for name, module in list(sys.modules.items()):
        if name == "smoothci" or name.startswith("smoothci."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def execute(op):
    """Run one operation through the package's public entry points."""
    from smoothci import cli, oracle
    from smoothci.intervals import IntervalRule, Scenario
    from smoothci.kernel import PretestSpec

    if op.kind == "oracle":
        p = op.plan
        plan = oracle.SimPlan(
            replications=p["replications"], seed=p["seed"],
            scenario=Scenario(p["gamma"], p["rho"]),
            spec=PretestSpec.from_size(p["pretest_size"]),
            alpha=p["alpha"], bootstrap_B=p["bootstrap_B"],
        )
        return workloads.Result(value=oracle.run(plan, IntervalRule(p["rule"])))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op.argv)
    return workloads.Result(rc=rc, stdout=out.getvalue(), stderr=err.getvalue())


def run_round(ops, tracer):
    """One pass over the operations: (result, seconds) per operation."""
    records = []
    for op in ops:
        for path in op.out_files:
            if os.path.exists(path):
                os.remove(path)
        fresh_state()
        start = time.perf_counter()
        try:
            result = execute(op)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            result = workloads.Result(rc=-1, stderr=traceback.format_exc())
        elapsed = time.perf_counter() - start
        for path in op.out_files:
            if os.path.exists(path):
                with open(path) as handle:
                    result.files.append(handle.read())
        if tracer is not None:
            tracer.end_operation()
            tracer.counts["cli.output_bytes"] += (
                len(result.stdout.encode()) + sum(len(f.encode()) for f in result.files))
        records.append((result, elapsed))
    return records


def judge(ops, records) -> list[list[str]]:
    """Problems per operation of one round; empty lists passed."""
    results = {op.name: result for op, (result, _) in zip(ops, records)}
    verdicts = []
    for op, (result, _) in zip(ops, records):
        problems = []
        if result.rc != 0:
            problems.append(f"{op.name}: exit code {result.rc}: {result.stderr.strip()[-300:]}")
        else:
            try:
                problems += op.check(result, results)
            except Exception as exc:  # a malformed output fails its operation
                problems.append(f"{op.name}: unreadable output ({exc!r})")
        verdicts.append(problems)
    return verdicts


def unexpected(ops, verdicts) -> list[str]:
    """The problems of all rounds that no known fault accounts for.

    A known-fault operation may fail only by inaccuracy: it exits 0,
    its output parses, its mirror image matches, and every problem is a
    value off the reference.  Any other problem on it is unexpected.
    """
    return [p for round_verdicts in verdicts for op, problems in zip(ops, round_verdicts)
            for p in problems if not (op.known_fault and isinstance(p, checks.Inaccuracy))]


def end_to_end(ops, rounds) -> dict[str, float]:
    def median_over_rounds(kinds, work):
        rates = []
        for records in rounds:
            picked = [(op, t) for op, (_, t) in zip(ops, records) if op.kind in kinds]
            rates.append(sum(work(op) for op, _ in picked) / sum(t for _, t in picked))
        return statistics.median(rates)

    per_op = [(op, t) for records in rounds for op, (_, t) in zip(ops, records)]
    return {
        "wall_s": statistics.median(sum(t for _, t in records) for records in rounds),
        "cmin_s": statistics.median(t / op.rules for op, t in per_op if op.kind == "cmin"),
        "curve_points_per_s": median_over_rounds(("curve", "figure1"), lambda op: op.values),
        "mc_reps_per_s": median_over_rounds(("oracle",), lambda op: op.reps),
        "fit_s": statistics.median(t for op, t in per_op if op.kind == "fit"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smoothci" / "__init__.py").is_file():
        print(f"benchmark: no smoothci package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    listed = listed_metrics("per_layer" if args.trace else "end_to_end")
    setup_s = measure_setup() if args.trace == 0 else None
    import smoothci.cli  # noqa: F401  (imports every layer)

    warm_allocator()

    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        rounds, layer_rounds = [], []
        began = time.perf_counter()
        try:
            # Whole rounds only; another starts if it should end in time.
            while True:
                start = time.perf_counter()
                rounds.append(run_round(ops, tracer))
                if tracer is not None:
                    layer_rounds.append(tracer.take_round(listed))
                now = time.perf_counter()
                if now - began + (now - start) > args.seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        verdicts = [judge(ops, records) for records in rounds]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()

    failed = sum(bool(p) for round_verdicts in verdicts for p in round_verdicts)
    surprises = unexpected(ops, verdicts)
    for op, problems in zip(ops, verdicts[0]):
        for line in problems[:3]:
            tag = "known fault" if line not in surprises else "FAILED"
            print(f"[{tag}] {line}", file=sys.stderr)
    wall = [sum(t for _, t in records) for records in rounds]
    print(f"benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} ops/round={len(ops)} failed={failed} "
          f"wall_s per round={[round(w, 4) for w in wall]}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": statistics.median(r[name] for r in layer_rounds), "unit": unit}
                   for name, unit in listed.items()}
    else:
        values = {"setup_s": setup_s, **end_to_end(ops, rounds)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in listed.items()}
    print(json.dumps({
        "correct": not surprises,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
