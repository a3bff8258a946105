"""Compare the benchmark on two versions of the package, in alternating pairs.

    python3 tools/bench_compare.py --parent REV --change REV \
        --workload exact_sd:10 --workload delta_pms:3 --workload monte_carlo:3 \
        --control 2 --seed 6001 --out BENCH_6.json

Each side is exported into its own temporary directory by ``git
archive``: of the revision, or for ``--change WORKTREE`` of a tree of
the working tree's tracked and untracked, not ignored, files, written
through a temporary index so that the repository's own index is left
alone.  Every run executes the command BENCHMARK.json gives, from that
directory, for its ``run_seconds``.  Pair i of a workload runs both sides on seed
``--seed + i``; even pairs run the parent first, odd pairs the change.
The output file records the machine, both versions, every run (with
the CPUs it could use and the load average at its start and end, since
a threaded gain reads only against the cores a run had), and per
workload and end-to-end metric the median and quartiles of each side,
the pairs the change won (ties count for neither side) and whether the
gain rule holds: at least nine tenths of the pairs won and the medians
farther apart than the parent's quartiles.  ``--control N`` gives
each workload a noise floor: N more pairs, interleaved with the
others, run the parent against a second export of the parent, on seeds
after the workload's own.  They are summarized the same way under the
workload's ``control``, and each metric records the control's
absolute median change as ``noise_floor`` and whether its own median
change is larger (``beyond_noise``).  It also records each
side's ``correct`` and share of failed operations, and each side's
accuracy block: over gamma 0 to 12 in steps of 0.05, the pretest of
size 0.1 and rho in {0.7, 0.99, 0.999}, the largest distance of the
side's SD, SD_DELTA and PMS coverages and SD and SD_DELTA scaled
lengths from the independent quadrature ``tests/helpers.h_quadrature``
of this tool's own checkout, so that both sides are measured with one
yardstick.  That oracle reads each rule from ``kernel.RULES[rule].terms``,
so both sides must have it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, check=True,
                          env=env).stdout


def export(rev: str, into: pathlib.Path) -> dict:
    """Write version ``rev`` of the repository into ``into``; describe it."""
    into.mkdir(parents=True)
    if rev == "WORKTREE":
        env = {**os.environ, "GIT_INDEX_FILE": str(into.with_name(into.name + ".index"))}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        treeish = git("write-tree", env=env).decode().strip()
        base = git("rev-parse", "HEAD").decode().strip()
        dirty = git("status", "--porcelain", "--untracked-files=all").decode().splitlines()
        described = {"rev": "WORKTREE", "base": base, "tree": treeish,
                     "changed_files": len(dirty)}
    else:
        treeish = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
        described = {"rev": rev, "commit": treeish}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", treeish))) as tar:
        tar.extractall(into)
    return described


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count()


def host_load() -> dict:
    """The CPUs a run may use and the machine's 1, 5 and 15 minute load."""
    return {"usable_cpus": usable_cpus(), "loadavg": list(os.getloadavg())}


def run_once(side: pathlib.Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    start = host_load()
    done = subprocess.run(argv, cwd=side, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {side.name} exited {done.returncode}:"
                           f"\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["host"] = {"start": start, "end": host_load()}
    return result


def quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, pairs won, the gain rule."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        lost = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        row = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
               "parent": quartiles(parent), "change": quartiles(change),
               "pairs": len(pairs), "pairs_won": won, "pairs_lost": lost}
        gap = row["change"]["median"] - row["parent"]["median"]
        spread = row["parent"]["q3"] - row["parent"]["q1"]
        row["median_change"] = gap / row["parent"]["median"] if row["parent"]["median"] else None
        row["gain_rule_holds"] = (won >= 0.9 * len(pairs)
                                  and (-gap if lower else gap) > spread)
        worse = gap if lower else -gap
        row["within_bound"] = worse <= metric["bound"] * abs(row["parent"]["median"])
        out[name] = row
    return out


def with_noise_floor(metrics: dict, control: dict) -> None:
    """Record each metric's noise floor from the control's summary."""
    for name, row in metrics.items():
        floor = control[name]["median_change"]
        row["noise_floor"] = None if floor is None else abs(floor)
        row["beyond_noise"] = (None if floor is None or row["median_change"] is None
                               else abs(row["median_change"]) > abs(floor))


def run_pair(sides: dict, command: list[str], workload: str, label: str, i: int, seed: int,
             seconds: float) -> dict:
    """Pair i of a workload on one seed; even pairs run the parent first."""
    names = list(sides)
    order = names if i % 2 == 0 else names[::-1]
    pair = {"seed": seed, "first": order[0]}
    for side in order:
        pair[side] = run_once(sides[side], command, workload, seed, seconds)
        print(f"{label} pair {i} seed {seed} {side}: "
              f"correct={pair[side]['correct']} failed={pair[side]['failed']}",
              file=sys.stderr, flush=True)
    return pair


def side_outcome(runs: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"correct": all(r["correct"] for r in runs), "attempted": attempted,
            "failed": failed, "failed_share": failed / attempted if attempted else None}


ACCURACY_RHOS = (0.7, 0.99, 0.999)
#: The yardstick of the accuracy block, taken from this tool's checkout.
REFINED = "tests/helpers.h_quadrature"


def print_accuracy() -> None:
    """Print the accuracy block of the smoothci on sys.path as JSON.

    Runs inside a side's directory, with its ``src`` and this tool's
    ``tests`` on the path, so each side's code is measured against one
    oracle.
    """
    import helpers
    import numpy as np
    from smoothci import intervals
    from smoothci.kernel import IntervalRule, PretestSpec

    spec, alpha = PretestSpec.from_size(0.1), 0.05
    gammas = np.arange(241) * 0.05
    block = {}
    for rho in ACCURACY_RHOS:
        grid = intervals.Scenario(gammas, rho)
        row = {}
        for rule, cov, sel in (
                (IntervalRule.SD, intervals.coverage_sd, "sel_sd"),
                (IntervalRule.SD_DELTA, intervals.coverage_sd_delta, "sel_sd_delta")):
            c_min = intervals.min_coverage(rho, spec, alpha, rule).c_min
            cp, length = helpers.h_quadrature(gammas, rho, spec, alpha, rule, c_min=c_min)
            row[cov.__name__] = np.max(np.abs(cov(grid, spec, alpha) - cp))
            got = intervals._scaled_length(grid, spec, alpha, c_min, rule)
            row[sel] = np.max(np.abs(got - length))
        cp, _ = helpers.h_quadrature(gammas, rho, spec, alpha, IntervalRule.PMS)
        row["coverage_pms"] = np.max(np.abs(intervals.coverage_pms(grid, spec, alpha) - cp))
        block[repr(rho)] = {name: float(err) for name, err in row.items()}
    refined = {"oracle": REFINED, "panels_per_unit": helpers.H_PANELS_PER_UNIT,
               "order": helpers.H_ORDER}
    print(json.dumps({"gammas": "0 to 12 step 0.05", "pretest_size": 0.1, "alpha": alpha,
                      "refined": refined, "max_abs_error": block}))


def accuracy(side: pathlib.Path) -> dict:
    """The accuracy block of one side, measured in a fresh interpreter."""
    path = os.pathsep.join(str(p) for p in (side / "src", ROOT / "tests", ROOT / "tools"))
    done = subprocess.run([sys.executable, "-c", "import bench_compare as b; b.print_accuracy()"],
                          cwd=side, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise RuntimeError(f"accuracy in {side.name} exited {done.returncode}:"
                           f"\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD~1", help="revision of the parent side")
    parser.add_argument("--change", default="HEAD",
                        help="revision of the change side, or WORKTREE")
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME:PAIRS, repeatable")
    parser.add_argument("--control", type=int, default=0,
                        help="parent-against-parent pairs per workload, for its noise floor")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="output JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = []
    for item in args.workload:
        name, _, count = item.partition(":")
        plan.append((name, int(count or 1)))

    with tempfile.TemporaryDirectory(prefix="bench_compare_") as tmp:
        sides = {"parent": pathlib.Path(tmp) / "parent", "change": pathlib.Path(tmp) / "change"}
        described = {side: export(rev, sides[side])
                     for side, rev in (("parent", args.parent), ("change", args.change))}
        # The control compares the parent with a copy of itself, exported
        # apart so that each run has a fresh directory, as the others do.
        controls = {"parent": sides["parent"], "change": pathlib.Path(tmp) / "control"}
        if args.control:
            export(args.parent, controls["change"])
        workloads = {}
        result = {
            "machine": {"platform": platform.platform(), "machine": platform.machine(),
                        "processor": platform.processor(), "cpu_count": os.cpu_count(),
                        "usable_cpus": usable_cpus()},
            "versions": versions(),
            "parent": described["parent"],
            "change": described["change"],
            "run_seconds": spec["run_seconds"],
            "accuracy": {side: accuracy(sides[side]) for side in ("parent", "change")},
            "workloads": workloads,
        }
        for name, count in plan:
            pairs, control = [], []
            for i in range(max(count, args.control)):
                if i < count:
                    pairs.append(run_pair(sides, spec["command"], name, name, i,
                                          args.seed + i, spec["run_seconds"]))
                if i < args.control:
                    control.append(run_pair(controls, spec["command"], name, f"{name} control",
                                            i, args.seed + count + i, spec["run_seconds"]))
            workloads[name] = {
                "metrics": summarize(pairs, spec["end_to_end"]),
                "outcome": {side: side_outcome([p[side] for p in pairs])
                            for side in ("parent", "change")},
                "runs": pairs,
            }
            if control:
                # The control's "change" side is the parent's copy.
                workloads[name]["control"] = {
                    "metrics": summarize(control, spec["end_to_end"]),
                    "runs": control,
                }
                with_noise_floor(workloads[name]["metrics"],
                                 workloads[name]["control"]["metrics"])
            # Written after every workload, so a long comparison that is
            # cut short keeps the workloads it finished.
            pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
