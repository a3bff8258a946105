"""Compare what the command line does on two versions of the package.

    python3 tools/cli_diff.py --parent HEAD --change WORKTREE

Both sides are exported as ``tools/bench_compare.py`` exports them
(``--change WORKTREE`` takes the working tree's tracked and untracked,
not ignored, files).  Each side then runs the fixed argv corpus CORPUS
through its own ``smoothci.cli.main``, all of it in one fresh
interpreter per side.  Every argv runs in an empty working directory
that holds only the ``fit`` inputs, copied from this checkout's
``tests/data``, ``quoted.csv``, a design whose second record ends on
its third line, ``wide.csv``, whose first cell is one character
longer than the csv module's default field limit of 131,072, and
``collinear.csv``, a design whose fitted rho, -0.999999985, is past
the cap the SD rule accepts.  Relative
paths keep each side's messages free of its export directory.

The tool prints every argv whose exit code, stdout, stderr or written
files differ between the sides, with a line diff of each part that
differs, and exits 1 if any do, 0 if none do.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

from bench_compare import ROOT, export

#: The fit inputs every argv's working directory holds.
FIT_INPUTS = ("design.csv", "response.csv", "theta_vec.csv", "tau_vec.csv")
QUOTED = '"1\n",2\n3,x\n'
WIDE = "x" * 131073 + ",1\n"
COLLINEAR = "".join(f"1,{i},{i}.{'001' if i % 2 else '000'}\n" for i in range(1, 11))
#: fit's file flags after --design.
FIT_REST = ["--response", "response.csv", "--theta-vec", "theta_vec.csv",
            "--tau-vec", "tau_vec.csv"]
FIT = ["fit", "--design", "design.csv", *FIT_REST]
CMIN = ["cmin", "--rho", "0.7"]
CURVE = ["curve", "--quantity", "cp", "--rho", "0"]

#: Each help text, a small valid call of every subcommand, calls whose
#: normal quantiles lie in the body and the far tails, calls that reach
#: the narrow lattices of |rho| near 1 and of large cutoffs at small
#: alpha, the closed-form PMS coverage, the flat coverage curves of
#: rho = 0, the merge of a prepared curve's kept span and the coverages
#: a later array reuses, and each argument and validation error, grids
#: too large to build, CSV fields too long to read, a fit whose rho no
#: smoothed rule accepts and a sigma whose square overflows included.
CORPUS = [
    ["-h"],
    *([name, "-h"] for name in ("curve", "figure1", "cmin", "fit", "verify")),
    ["curve", "--quantity", "cp_delta", "--rho", "0.7", "--gamma-max", "1", "--step", "0.25"],
    ["curve", "--quantity", "sel", "--rho", "-0.4", "--cutoff-d", "2", "--gamma-max", "1",
     "--step", "0.5", "--out", "curve.csv"],
    ["figure1", "--rho", "0.3", "--gamma-max", "1", "--step", "0.5"],
    CMIN,
    [*CMIN, "--rules", "pms, sd_delta", "--alpha", "0.1", "--out", "cmin.csv"],
    ["cmin", "--rho", "0.5", "--pretest-size", "0.999"],
    # Every rule's coverage is flat; pms's argmin falls on its last bits.
    ["cmin", "--rho", "0"],
    [*CMIN, "--alpha", "0.98"],
    [*CMIN, "--alpha", "1e-15"],
    [*CMIN, "--pretest-size", "1e-15"],
    ["cmin", "--rho", "-0.999", "--pretest-size", "0.05", "--rules", "sd_delta,pms"],
    # Large cutoffs and small alpha, where the lattice follows the speed
    # of the interval's ends.
    ["cmin", "--rho", "0.9", "--cutoff-d", "10", "--alpha", "1e-8"],
    ["curve", "--quantity", "cp_delta", "--rho", "0.99", "--cutoff-d", "10", "--alpha", "1e-14",
     "--gamma-max", "18", "--step", "1.5"],
    ["curve", "--quantity", "cp_pms", "--rho", "0.9", "--gamma-max", "3", "--step", "0.05"],
    # The sel grid reaches past the minimizer's, so the SD curve's kept
    # span grows by a merge.
    ["curve", "--quantity", "sel", "--rho", "0.99", "--gamma-max", "14", "--step", "0.5"],
    # At the default grid the minimizer's grid reuses 201 of its 241
    # coverages from the sd_delta curve, and its span grows by a merge.
    ["figure1", "--rho", "0.7"],
    [*FIT, "--sigma", "1"],
    [*FIT, "--sigma", "0.5", "--pretest-size", "0.2"],
    # sigma^2 is past the largest double.
    [*FIT, "--sigma", "1.4e154"],
    ["verify", "--reps", "2000", "--seed", "9", "--tolerance", "50"],
    ["verify", "--reps", "2000", "--seed", "9", "--tolerance", "0.001"],
    [],
    ["frobnicate", "--rho", "0.7"],
    ["--rho", "0.7", "cmin"],
    ["fit", "--design", "design.csv"],
    ["verify", "--reps", "many"],
    [*CURVE, "--pretest-size", "0.1", "--cutoff-d", "1.6"],
    [*CMIN, "extra"],
    [*CMIN, "--alpha", "1"],
    [*CMIN, "--alpha", "1e-17"],
    [*CMIN, "--cutoff-d", "-1"],
    [*CMIN, "--cutoff-d", "40"],
    [*CMIN, "--pretest-size", "0"],
    [*CMIN, "--pretest-size", "0.9999999999999999"],
    [*CURVE, "--step", "0"],
    [*CURVE, "--step", "nan"],
    [*CURVE, "--gamma-max", "inf"],
    ["curve", "--quantity", "cp", "--rho", "0.5", "--gamma-max", "1e9", "--step", "1e-9"],
    ["curve", "--quantity", "cp", "--rho", "0.5", "--gamma-max", "1e300", "--step", "1e-10"],
    ["figure1", "--step", "0.05", "--gamma-max", "0.01"],
    ["cmin", "--rho", "1.5"],
    [*CMIN, "--rules", ",,"],
    [*CMIN, "--rules", ""],
    [*CMIN, "--rules", "full_model"],
    [*CMIN, "--rules", "zz"],
    ["verify", "--reps", "0"],
    ["verify", "--seed", "-1"],
    ["verify", "--tolerance", "0"],
    [*FIT, "--sigma", "0"],
    [*FIT, "--sigma", "1", "--header"],
    ["fit", "--design", "quoted.csv", *FIT_REST, "--sigma", "1"],
    ["fit", "--design", "wide.csv", *FIT_REST, "--sigma", "1"],
    ["fit", "--design", "collinear.csv", *FIT_REST, "--sigma", "1"],
    ["fit", "--design", "missing.csv", *FIT_REST, "--sigma", "1"],
]


def print_outcomes() -> None:
    """Run CORPUS through the smoothci on sys.path; print the outcomes as JSON.

    An outcome maps ``exit``, ``stdout``, ``stderr`` and ``file NAME``,
    for each file the call wrote, to its text.  An exception that
    escapes ``main`` is recorded as the exit, so that one side's crash
    reads as a difference.
    """
    from smoothci import cli

    inputs = {name: (ROOT / "tests" / "data" / name).read_bytes() for name in FIT_INPUTS}
    inputs["quoted.csv"] = QUOTED.encode()
    inputs["wide.csv"] = WIDE.encode()
    inputs["collinear.csv"] = COLLINEAR.encode()
    outcomes = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        for i, argv in enumerate(CORPUS):
            work = pathlib.Path(tmp) / str(i)
            work.mkdir()
            for name, data in inputs.items():
                (work / name).write_bytes(data)
            os.chdir(work)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # -h exits from inside argparse
                    code = exc.code
                except Exception as exc:  # noqa: BLE001 - reported as the outcome
                    code = f"raised {exc!r}"
            os.chdir(home)
            outcome = {"exit": str(code), "stdout": out.getvalue(), "stderr": err.getvalue()}
            for path in sorted(work.iterdir()):
                if path.name not in inputs:
                    outcome[f"file {path.name}"] = path.read_text()
            outcomes.append(outcome)
    print(json.dumps(outcomes))


def outcomes(side: pathlib.Path) -> list[dict]:
    """The outcomes of one side, from a fresh interpreter."""
    path = os.pathsep.join(str(p) for p in (side / "src", ROOT / "tools"))
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80", "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", "import cli_diff; cli_diff.print_outcomes()"],
                          cwd=side, env=env, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise RuntimeError(f"the corpus in {side.name} exited {done.returncode}:"
                           f"\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def differences(parent: dict, change: dict) -> list[str]:
    """A line diff of each part of one argv's outcome that differs."""
    lines = []
    for part in sorted(parent.keys() | change.keys()):
        old, new = parent.get(part), change.get(part)
        if old == new:
            continue
        lines.append(f"  {part}:")
        lines += (f"    {line}" for line in difflib.unified_diff(
            ("<absent>\n" if old is None else old).splitlines(keepends=True) or ["\n"],
            ("<absent>\n" if new is None else new).splitlines(keepends=True) or ["\n"],
            "parent", "change", n=1, lineterm=""))
    return [line.rstrip("\n") for line in lines]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="revision of the parent side")
    parser.add_argument("--change", default="WORKTREE",
                        help="revision of the change side, or WORKTREE")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        sides = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            export(rev, pathlib.Path(tmp) / side)
            sides[side] = outcomes(pathlib.Path(tmp) / side)
    differ = 0
    for call, parent, change in zip(CORPUS, sides["parent"], sides["change"]):
        lines = differences(parent, change)
        if lines:
            differ += 1
            print(f"smoothci {shlex.join(call)}")
            print("\n".join(lines))
    print(f"{differ} of {len(CORPUS)} argvs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
