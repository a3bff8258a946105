"""The three workloads: generated inputs, the operations run on them,
and the check each operation's output must pass.

An operation is one ``smoothci.cli.main(argv)`` call or one
``smoothci.oracle.run`` call.  A workload is a fixed list of operations
built from the seed; a run repeats the whole list (a round) until its
time is up, so every round does the same work and fails the same
operations.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import reference as ref

ALPHA = 0.05
DEFAULT_SIZE = 0.1
#: Pretest sizes of the delta_pms sweep.  Fixed, so that the per-layer
#: counts (quadrature rules keyed on the cutoff) repeat exactly.
SWEEP_SIZES = (0.05, 0.1, 0.2)
#: Strata of the delta_pms rho sweep; one seeded rho is drawn in each.
SWEEP_RHO_STRATA = ((0.3, 0.45), (0.45, 0.6), (0.6, 0.75), (0.75, 0.9))
#: Sample gammas checked per curve column.
CURVE_SAMPLES = 3
#: Seeded gammas at which each c_min is checked not to lie above the curve.
CMIN_SAMPLES = 3
#: The common fit set.  FIT_SMALL seeded datasets have the shape of the
#: package's own fit fixture (``tests/data/design.csv``: an intercept and
#: two regressors, 10 rows); fit_s, a median over the set, measures
#: them.  One more dataset has the shape FIT_LARGE_SHAPE, a size assumed
#: rather than taken from a source, so that the CSV parse in
#: ``load_dataset`` shows in wall_s and in the linmod per-layer metrics.
FIT_SMALL = 8
FIT_SMALL_SHAPE = (10, 3)
FIT_LARGE_SHAPE = (4000, 8)
#: The verify grid of the command line's simulation cross-check.
VERIFY_GAMMAS = (0.0, 1.0, 3.0)
VERIFY_RHOS = (0.0, 0.4, 0.7)
MC_REPS = 1_000_000
FINITE_B = 100
FINITE_B_REPS = 20_000
SD_REPS = 100_000
#: exact_sd curve grid: 81 points, so that a round stays near 12 s.
SD_GAMMA_MAX = 8.0
SD_STEP = 0.1


@dataclass
class Result:
    """What one operation produced."""

    rc: int = 0
    stdout: str = ""
    stderr: str = ""
    files: list[str] = field(default_factory=list)
    value: object = None


@dataclass
class Op:
    """One operation and the check its output must pass.

    ``check(result, results)`` sees this operation's result and those
    of every operation of the same round, by name.
    """

    name: str
    kind: str  # cmin, curve, figure1, fit, oracle
    check: Callable[[Result, dict], list[str]]
    argv: list[str] | None = None
    plan: dict | None = None
    out_files: tuple[str, ...] = ()
    known_fault: bool = False
    rules: int = 0
    values: int = 0
    reps: int = 0


class Reference:
    """Memoized reference values, shared by every round of a run.

    Coverage and scaled length are even in rho, and so is the reference
    (``test_reference_properties``), so a -rho operation is checked
    against the values computed for +rho.
    """

    def __init__(self) -> None:
        self._memo: dict = {}

    def _get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def coverage(self, rule, gamma, rho, d):
        rho = abs(rho)
        return self._get(("cov", rule, gamma, rho, d),
                         lambda: ref.coverage(rule, gamma, rho, d, ALPHA))

    def scaled_length(self, rule, gamma, rho, d, c_min):
        rho = abs(rho)
        return self._get(("sel", rule, gamma, rho, d, c_min),
                         lambda: ref.scaled_length(rule, gamma, rho, d, ALPHA, c_min))

    def oracle(self, rule, gamma, rho, d, B):
        return self._get(("mc", rule, gamma, rho, d, B),
                         lambda: ref.oracle_summary(rule, gamma, rho, d, ALPHA, B))

    def fit(self, paths, sigma, d):
        def compute():
            X, y, a, b = (np.loadtxt(p, delimiter=",", ndmin=2) for p in paths)
            summary = ref.fit_summary(X, y.ravel(), a.ravel(), b.ravel(), sigma)
            return summary, ref.intervals(summary, d, ALPHA)
        return self._get(("fit", paths, sigma, d), compute)


def _num(x: float) -> str:
    return repr(float(x))


class Builder:
    """Accumulates one workload's operations from its seeded generator."""

    def __init__(self, seed: int, salt: int, workdir: str) -> None:
        self.rng = np.random.default_rng([salt, seed])
        self.workdir = workdir
        self.ref = Reference()
        self.ops: list[Op] = []

    def add(self, op: Op) -> Op:
        if any(o.name == op.name for o in self.ops):
            raise ValueError(f"duplicate operation name {op.name}")
        self.ops.append(op)
        return op

    def sample(self, n_points: int, k: int) -> list[int]:
        return sorted(self.rng.choice(n_points, size=k, replace=False).tolist())

    # -- analytic commands ------------------------------------------------

    def cmin(self, name, rho, size, rules, *, samples=None, known_fault=False,
             mirror_of=None):
        """cmin over ``rules``; each c_min checked at its argmin and against samples.

        ``samples`` defaults to seeded gammas in [0, 6]; the argmin +-
        0.02 are always added.  ``mirror_of`` names the +rho operation
        whose output this -rho one must reproduce exactly.
        """
        d = ref.cutoff(size)
        if samples is None:
            samples = sorted(self.rng.uniform(0.0, 6.0, CMIN_SAMPLES).tolist())
        argv = ["cmin", "--rho", _num(rho), "--pretest-size", _num(size),
                "--rules", ",".join(rules)]

        def check(result, results):
            reports = checks.parse_cmin(result.stdout)
            if sorted(reports) != sorted(rules):
                return [f"{name}: rules {sorted(reports)} != {sorted(rules)}"]
            problems = []
            if mirror_of is not None:
                problems += checks.check_same(name, result.stdout, results[mirror_of].stdout)
            for rule in rules:
                rep = reports[rule]
                g0 = rep["argmin_gamma"]
                pts = list(samples) + [max(g0 - 0.02, 0.0), g0 + 0.02]
                sampled = [(g, self.ref.coverage(rule, g, rho, d)) for g in pts]
                problems += checks.check_cmin(f"{name} {rule}", rep,
                                              self.ref.coverage(rule, g0, rho, d), sampled)
            return problems

        return self.add(Op(name, "cmin", argv=argv, check=check, known_fault=known_fault,
                           rules=len(rules)))

    def c_min_reference(self, results, cmin_name, rule, rho, d) -> float:
        """Reference coverage at the argmin a cmin operation reported."""
        argmin = checks.parse_cmin(results[cmin_name].stdout)[rule]["argmin_gamma"]
        return self.ref.coverage(rule, argmin, rho, d)

    def curve(self, name, quantity, rho, size, *, gamma_max=10.0, step=0.05,
              samples=None, cmin_name=None, known_fault=False, flat=False):
        """One curve; ``flat`` checks the rho = 0 property instead of samples."""
        d = ref.cutoff(size)
        gammas = checks.grid(gamma_max, step)
        if samples is None:
            samples = self.sample(gammas.size, min(CURVE_SAMPLES, gammas.size))
        argv = ["curve", "--quantity", quantity, "--rho", _num(rho),
                "--pretest-size", _num(size), "--gamma-max", _num(gamma_max),
                "--step", _num(step)]

        def check(result, results):
            cols = checks.parse_curve(result.stdout, gammas)
            meta = set(cols["quantity"]) == {quantity} and all(
                np.all(np.abs(cols[col] - want) <= checks.PRINT_SLACK)
                for col, want in (("rho", rho), ("alpha", ALPHA), ("pretest_size", size)))
            problems = [] if meta else [f"{name}: metadata columns do not match the flags"]
            values = cols["value"]
            if flat:
                return problems + checks.check_flat(name, values, 1.0 - ALPHA)
            reference = self._curve_reference(quantity, rho, d, results, cmin_name)
            return problems + checks.check_values(name, values, gammas, quantity,
                                                  samples, reference)

        return self.add(Op(name, "curve", argv=argv, check=check, known_fault=known_fault,
                           values=gammas.size))

    def _curve_reference(self, quantity, rho, d, results, cmin_name):
        rule = {"cp": ref.SD, "cp_delta": ref.SD_DELTA, "cp_pms": ref.PMS,
                "sel": ref.SD, "sel_delta": ref.SD_DELTA}[quantity]
        if quantity in checks.COVERAGE_QUANTITIES:
            return lambda g: self.ref.coverage(rule, g, rho, d)
        c_min = self.c_min_reference(results, cmin_name, rule, rho, d)
        return lambda g: self.ref.scaled_length(rule, g, rho, d, c_min)

    def figure1(self, name, rho, size, cmin_name, *, mirror_of=None):
        """figure1; its columns checked at samples, or against its +rho mirror."""
        d = ref.cutoff(size)
        gammas = checks.grid(10.0, 0.05)
        prefix = os.path.join(self.workdir, name.replace(" ", "_").replace("=", ""))
        samples = {col: self.sample(gammas.size, CURVE_SAMPLES)
                   for col in ("cp_delta", "cp_pms", "sel_delta")}
        argv = ["figure1", "--rho", _num(rho), "--pretest-size", _num(size), "--out", prefix]

        def check(result, results):
            top_text, bottom_text = result.files
            if mirror_of is not None:
                mirror_top, mirror_bottom = results[mirror_of].files
                return (checks.check_same(name + " top", top_text, mirror_top)
                        + checks.check_same(name + " bottom", bottom_text, mirror_bottom))
            cols = checks.parse_columns(top_text, "gamma,cp_delta,cp_pms", gammas)
            cols.update(checks.parse_columns(bottom_text, "gamma,sel_delta", gammas))
            problems = []
            for col in ("cp_delta", "cp_pms", "sel_delta"):
                reference = self._curve_reference(col, rho, d, results, cmin_name)
                problems += checks.check_values(f"{name} {col}", cols[col], gammas, col,
                                                samples[col], reference)
            return problems

        return self.add(Op(name, "figure1", argv=argv, check=check, values=3 * gammas.size,
                           out_files=(prefix + "_top.csv", prefix + "_bottom.csv")))

    # -- simulation -------------------------------------------------------

    def oracle(self, name, rule, gamma, rho, size, reps, B=0):
        d = ref.cutoff(size)
        plan = dict(replications=reps, seed=int(self.rng.integers(2**63)), gamma=gamma,
                    rho=rho, pretest_size=size, alpha=ALPHA, bootstrap_B=B, rule=rule)

        def check(result, results):
            reference = self.ref.oracle(rule, gamma, rho, d, B)
            return checks.check_oracle(name, result.value, reference, reps)

        return self.add(Op(name, "oracle", plan=plan, check=check, reps=reps))

    # -- data -------------------------------------------------------------

    def fit_set(self) -> None:
        for index in range(FIT_SMALL):
            self.fit(f"fit {index}", *FIT_SMALL_SHAPE)
        self.fit("fit large", *FIT_LARGE_SHAPE)

    def fit(self, name: str, n: int, p: int) -> None:
        """An intercept and p - 1 regressors, laid out as in the fit fixture.

        theta is the first slope and tau the second; their regressors
        correlate, so rho is far from 0.
        """
        rng = self.rng
        c = rng.uniform(0.3, 0.8)
        sigma = float(np.round(rng.uniform(0.5, 2.0), 6))
        X = rng.standard_normal((n, p))
        X[:, 0] = 1.0
        X[:, 2] = c * X[:, 1] + math.sqrt(1.0 - c * c) * X[:, 2]
        a = np.zeros(p)
        b = np.zeros(p)
        a[1] = 1.0
        b[2] = 1.0
        beta = rng.uniform(-1.0, 1.0, p)
        # Put the standardized restriction statistic near a seeded value.
        beta[2] = rng.uniform(0.0, 3.0) * sigma / math.sqrt(n * (1.0 - c * c))
        y = X @ beta + sigma * rng.standard_normal(n)
        base = os.path.join(self.workdir, name.replace(" ", ""))
        paths = []
        for tag, arr in (("X", X), ("y", y[:, None]), ("a", a[None, :]), ("b", b[None, :])):
            path = f"{base}_{tag}.csv"
            np.savetxt(path, arr, fmt="%+.17e", delimiter=",")
            paths.append(path)
        paths = tuple(paths)
        argv = ["fit", "--design", paths[0], "--response", paths[1], "--theta-vec", paths[2],
                "--tau-vec", paths[3], "--sigma", _num(sigma)]

        def check(result, results):
            got = checks.parse_fit(result.stdout)
            summary, intervals = self.ref.fit(paths, sigma, ref.cutoff(DEFAULT_SIZE))
            return checks.check_fit(name, got, summary, intervals, ALPHA)

        self.add(Op(name, "fit", argv=argv, check=check))


def interleaved(ops: list[Op]) -> list[Op]:
    """The operations with each kind spread evenly through the round.

    Host speed drifts over seconds; spreading each kind's operations over
    the whole round keeps a metric's samples from sharing one slow or
    fast stretch.  Checks run after the round, so order does not matter
    to them.
    """
    counts: dict[str, int] = {}
    seen: dict[str, int] = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    keys = []
    for op in ops:
        seen[op.kind] = seen.get(op.kind, 0) + 1
        keys.append((seen[op.kind] - 0.5) / counts[op.kind])
    return [op for _, op in sorted(zip(keys, ops), key=lambda pair: pair[0])]


def delta_pms(seed: int, workdir: str) -> list[Op]:
    """The paper's sweep for the two closed-form-kernel rules."""
    b = Builder(seed, 1, workdir)
    cells = []
    for lo, hi in SWEEP_RHO_STRATA:
        rho = round(float(b.rng.uniform(lo, hi)), 6)
        for size in SWEEP_SIZES:
            cmin = b.cmin(f"cmin rho={rho} size={size}", rho, size, ("sd_delta", "pms"))
            fig = b.figure1(f"figure1 rho={rho} size={size}", rho, size, cmin.name)
            cells.append((rho, size, fig.name))
    # The mirror cell keeps the default size whatever the seed, so the
    # count of distinct quadrature rules stays the same.
    rho, size, fig_name = [c for c in cells if c[1] == DEFAULT_SIZE][int(b.rng.integers(4))]
    b.figure1(f"figure1 rho={-rho} size={size}", -rho, size, None, mirror_of=fig_name)
    b.curve("curve cp_delta rho=0", "cp_delta", 0.0, DEFAULT_SIZE, flat=True)
    b.curve("curve cp_pms rho=0", "cp_pms", 0.0, DEFAULT_SIZE, flat=True)
    for _ in range(2):
        rho, size, _ = cells[int(b.rng.integers(len(cells)))]
        gamma = round(float(b.rng.uniform(0.0, 3.0)), 6)
        for rule in ("sd_delta", "pms"):
            b.oracle(f"oracle {rule} gamma={gamma} rho={rho} size={size}", rule, gamma, rho,
                     size, MC_REPS)
    # Cells past the default rule's resolution (ROADMAP item 5).  Their
    # inputs and sample gammas are fixed so that they fail identically
    # on every seed.
    fixed = (0.5, 1.0, 2.0, 4.0)
    b.curve("curve cp_delta rho=0.99", "cp_delta", 0.99, 0.05,
            samples=[10, 30, 45, 60], known_fault=True)
    b.curve("curve cp_pms rho=0.999", "cp_pms", 0.999, 0.05,
            samples=[10, 40, 80], known_fault=True)
    b.cmin("cmin rho=0.999", 0.999, 0.05, ("sd_delta", "pms"), samples=fixed,
           known_fault=True)
    b.cmin("cmin rho=-0.999", -0.999, 0.05, ("sd_delta", "pms"), samples=fixed,
           known_fault=True, mirror_of="cmin rho=0.999")
    b.fit_set()
    return interleaved(b.ops)


def exact_sd(seed: int, workdir: str) -> list[Op]:
    """The same tasks for the exact-SD rule at rho = 0.7."""
    b = Builder(seed, 2, workdir)
    rho, size = 0.7, DEFAULT_SIZE
    cmin = b.cmin("cmin sd", rho, size, ("sd",))
    # The -rho twin checks evenness for the SD rule and gives cmin_s a
    # second sample per round.
    b.cmin("cmin sd rho=-0.7", -rho, size, ("sd",), samples=[], mirror_of=cmin.name)
    b.curve("curve cp", "cp", rho, size, gamma_max=SD_GAMMA_MAX, step=SD_STEP)
    b.curve("curve sel", "sel", rho, size, gamma_max=SD_GAMMA_MAX, step=SD_STEP,
            cmin_name=cmin.name)
    gamma = float(b.rng.uniform(0.0, 3.0))
    b.oracle(f"oracle sd gamma={gamma:.4f}", "sd", gamma, rho, size, SD_REPS)
    b.fit_set()
    return interleaved(b.ops)


def monte_carlo(seed: int, workdir: str) -> list[Op]:
    """The simulation cross-check for the rules that never call r."""
    b = Builder(seed, 3, workdir)
    size = DEFAULT_SIZE
    for rho in VERIFY_RHOS:
        for gamma in VERIFY_GAMMAS:
            for rule in ("sd_delta", "pms", "full_model"):
                b.oracle(f"oracle {rule} gamma={gamma} rho={rho}", rule, gamma, rho, size,
                         MC_REPS)
    for gamma, rho in ((1.0, 0.4), (1.0, 0.7), (3.0, 0.7)):
        b.oracle(f"oracle sd_delta B={FINITE_B} gamma={gamma} rho={rho}", "sd_delta", gamma,
                 rho, size, FINITE_B_REPS, B=FINITE_B)
    # Curves on gamma 0 to 3 at step 0.05; the verify gammas are always
    # among the checked points.
    verify_points = [int(round(g / 0.05)) for g in VERIFY_GAMMAS]
    for rho in VERIFY_RHOS:
        if rho == 0.0:
            for quantity in ("cp_delta", "cp_pms"):
                b.curve(f"curve {quantity} rho=0", quantity, 0.0, size, gamma_max=3.0,
                        flat=True)
            continue
        cmin = b.cmin(f"cmin rho={rho}", rho, size, ("sd_delta", "pms"))
        for quantity in ("cp_delta", "cp_pms", "sel_delta"):
            samples = sorted(set(verify_points + b.sample(61, CURVE_SAMPLES)))
            b.curve(f"curve {quantity} rho={rho}", quantity, rho, size, gamma_max=3.0,
                    samples=samples, cmin_name=cmin.name)
    b.fit_set()
    return interleaved(b.ops)


WORKLOADS = {"delta_pms": delta_pms, "exact_sd": exact_sd, "monte_carlo": monte_carlo}
