"""End-to-end acceptance checks, one test per advertised guarantee.

Each test certifies a package-level property at its stated tolerance
through the public API (plus the command line for the fit round trip).
These are slower than the unit tests: the Monte Carlo agreement check
alone runs eighteen million-replication simulations, so the whole file
takes a few minutes.  Run with -v to get one pass/fail line per
criterion; -s additionally shows the measured numbers.
"""

import csv
import math
import pathlib
import subprocess
import sys

import numpy as np

from conftest import src_env
from smoothci import oracle
from smoothci.gauss import z_quantile
from smoothci.intervals import (
    IntervalRule,
    Scenario,
    build_interval,
    coverage_pms,
    coverage_sd,
    coverage_sd_delta,
    min_coverage,
    sel_sd,
    sel_sd_delta,
)
from smoothci.kernel import FittedModel, PretestSpec, k, q, r, smoothed_estimate
from smoothci.linmod import Dataset, fit, load_dataset

ALPHA = 0.05
SPEC = PretestSpec.from_size(0.10)
DATA_DIR = pathlib.Path(__file__).parent / "data"

# Reference values computed once from the verified build and frozen to
# guard against silent regressions.  The qualitative assertions alongside
# them are the actual acceptance conditions.
FROZEN_CMIN_SD_DELTA = 0.9232553022852901
FROZEN_ARGMIN_SD_DELTA = 1.8742818856519716
FROZEN_CMIN_PMS = 0.7892494699264629
FROZEN_ARGMIN_PMS = 1.8151462671480598
FROZEN_SEL_DELTA_AT_ZERO = 0.9796619312917455
FROZEN_SEL_DELTA_MAX = 1.1824525235085541
FROZEN_SEL_DELTA_ARGMAX = 2.75
FROZEN_CP_DELTA_FAR = 0.9500000021495221
FROZEN_SEL_MAXIMA_BY_RHO = (
    1.0181329569914246,
    1.066693074351602,
    1.1824525235085541,
    1.4600901804403006,
)


def test_c1_rho_zero_collapse():
    """With uncorrelated estimates every rule reduces to the plain interval."""
    gammas = np.arange(0.0, 10.5, 0.5)
    for g in gammas:
        sc = Scenario(gamma=float(g), rho=0.0)
        assert abs(coverage_sd(sc, SPEC, ALPHA) - 0.95) <= 1e-9
        assert abs(coverage_sd_delta(sc, SPEC, ALPHA) - 0.95) <= 1e-9
        assert abs(coverage_pms(sc, SPEC, ALPHA) - 0.95) <= 1e-9

    c_sd = min_coverage(0.0, SPEC, ALPHA, IntervalRule.SD).c_min
    c_delta = min_coverage(0.0, SPEC, ALPHA, IntervalRule.SD_DELTA).c_min
    for g in gammas:
        sc = Scenario(gamma=float(g), rho=0.0)
        assert abs(sel_sd(sc, SPEC, ALPHA, c_sd) - 1.0) <= 1e-9
        assert abs(sel_sd_delta(sc, SPEC, ALPHA, c_delta) - 1.0) <= 1e-9

    for g in (0.0, 0.5, 1.3, 2.0, 4.0):
        fm = FittedModel(theta_hat=0.3, gamma_hat=g, sigma=1.2,
                         v_theta=0.49, v_tau=1.0, rho=0.0)
        base = build_interval(fm, SPEC, ALPHA, IntervalRule.FULL_MODEL)
        for rule in (IntervalRule.SD, IntervalRule.SD_DELTA):
            rep = build_interval(fm, SPEC, ALPHA, rule)
            assert abs(rep.lower - base.lower) <= 1e-9
            assert abs(rep.upper - base.upper) <= 1e-9
    print("c1: coverage, scaled length and endpoints all collapse at rho=0")


def test_c2_evenness_in_gamma_and_rho():
    gammas = (0.0, 0.7, 1.9, 4.2)
    rhos = (0.2, 0.7, 0.95)

    # The whole coverage computation is even in rho, so the minimum-
    # coverage calibration constant is too; certify that once per rule
    # and reuse the positive-rho search for both signs.
    plus = min_coverage(0.7, SPEC, ALPHA, IntervalRule.SD_DELTA)
    minus = min_coverage(-0.7, SPEC, ALPHA, IntervalRule.SD_DELTA)
    assert plus.c_min == minus.c_min and plus.argmin_gamma == minus.argmin_gamma
    plus = min_coverage(0.2, SPEC, ALPHA, IntervalRule.SD)
    minus = min_coverage(-0.2, SPEC, ALPHA, IntervalRule.SD)
    assert plus.c_min == minus.c_min and plus.argmin_gamma == minus.argmin_gamma

    cmin = {
        (rule, rho): min_coverage(rho, SPEC, ALPHA, rule).c_min
        for rule in (IntervalRule.SD, IntervalRule.SD_DELTA)
        for rho in rhos
    }

    def functionals(g: float, rho: float) -> tuple[float, float, float, float]:
        sc = Scenario(gamma=g, rho=rho)
        return (
            coverage_sd(sc, SPEC, ALPHA),
            coverage_sd_delta(sc, SPEC, ALPHA),
            sel_sd(sc, SPEC, ALPHA, cmin[(IntervalRule.SD, abs(rho))]),
            sel_sd_delta(sc, SPEC, ALPHA, cmin[(IntervalRule.SD_DELTA, abs(rho))]),
        )

    worst = 0.0
    for rho in rhos:
        for g in gammas:
            base = functionals(g, rho)
            neg_g = functionals(-g, rho)
            neg_r = functionals(g, -rho)
            for got, a, b in zip(("cp", "cp_delta", "sel", "sel_delta"), base, neg_g):
                assert abs(a - b) <= 1e-9, f"{got} not even in gamma at ({g}, {rho})"
            for got, a, b in zip(("cp", "cp_delta", "sel", "sel_delta"), base, neg_r):
                assert abs(a - b) <= 1e-9, f"{got} not even in rho at ({g}, {rho})"
            worst = max(worst, max(abs(a - b) for a, b in zip(base, neg_g)),
                        max(abs(a - b) for a, b in zip(base, neg_r)))
    print(f"c2: 4 functionals even in gamma and rho on 12-point grid, worst |diff| = {worst:.3g}")


def test_c3_kernel_identities():
    # Independent quadrature of the defining truncated-mean integral:
    # the mean of z over [-d, d] under a unit normal centered at gamma.
    d = SPEC.d
    nodes, weights = np.polynomial.legendre.leggauss(200)
    z = d * nodes
    w = d * weights

    def k_direct(g: float) -> float:
        dens = np.exp(-0.5 * (z - g) ** 2) / math.sqrt(2.0 * math.pi)
        return float(np.sum(w * z * dens))

    gammas = np.arange(-5.0, 5.25, 0.25)
    worst_k = max(abs(k(float(g), SPEC) - k_direct(float(g))) for g in gammas)
    assert worst_k <= 1e-9

    h = 1e-5
    worst_q = max(
        abs(q(float(g), SPEC) - (k(float(g) + h, SPEC) - k(float(g) - h, SPEC)) / (2 * h))
        for g in gammas
    )
    assert worst_q <= 1e-7

    for g in gammas:
        assert abs(k(float(g), SPEC) + k(float(-g), SPEC)) <= 1e-12
        assert abs(q(float(g), SPEC) - q(float(-g), SPEC)) <= 1e-12
    print(f"c3: kernel vs direct integral {worst_k:.3g}, derivative match {worst_q:.3g}")


def mc_z(diff: float, se: float, analytic: float) -> float:
    """diff in Monte Carlo standard errors, widened by 1e-12 (relative
    above 1) for rounding.  A statistic with no spread, like the length
    at rho = 0, has se 0, and its mean over a million doubles still
    carries last-digit rounding."""
    return diff / math.hypot(se, 1e-12 * max(1.0, abs(analytic)))


def test_c4_monte_carlo_oracle_agreement():
    """Million-replication simulation agrees with quadrature at 3 MC SEs."""
    master = 20260816
    cells = [(g, rho) for rho in (0.0, 0.4, 0.7) for g in (0.0, 1.0, 3.0)]
    rules = (IntervalRule.SD, IntervalRule.SD_DELTA)
    seeds = np.random.SeedSequence(master).generate_state(
        len(cells) * len(rules), dtype=np.uint64
    )
    cmins: dict[tuple[float, IntervalRule], float] = {}
    worst = 0.0
    for ci, (g, rho) in enumerate(cells):
        sc = Scenario(gamma=g, rho=rho)
        for ri, rule in enumerate(rules):
            key = (rho, rule)
            if key not in cmins:
                cmins[key] = min_coverage(rho, SPEC, ALPHA, rule).c_min
            c = cmins[key]
            cp = (coverage_sd if rule is IntervalRule.SD else coverage_sd_delta)(
                sc, SPEC, ALPHA
            )
            sd_true = float(r(g, rho, SPEC))
            sel = (sel_sd if rule is IntervalRule.SD else sel_sd_delta)(sc, SPEC, ALPHA, c)
            plan = oracle.SimPlan(
                replications=1_000_000,
                seed=int(seeds[ci * 2 + ri]),
                scenario=sc,
                spec=SPEC,
                alpha=ALPHA,
            )
            summary = oracle.run(plan, rule)
            denom = 2.0 * z_quantile(0.5 * (1 + c))
            zs = (
                mc_z(summary.empirical_coverage - cp,
                     summary.standard_errors.empirical_coverage, cp),
                mc_z(summary.sd_estimate - sd_true, summary.standard_errors.sd_estimate,
                     sd_true),
                mc_z(summary.mean_length / denom - sel,
                     summary.standard_errors.mean_length / denom, sel),
            )
            print(
                f"c4: gamma={g} rho={rho} rule={rule.value} "
                f"z=({zs[0]:+.2f}, {zs[1]:+.2f}, {zs[2]:+.2f})"
            )
            for stat, zval in zip(("coverage", "sd", "length"), zs):
                assert abs(zval) <= 3.0, (
                    f"{stat} off by {zval:+.2f} MC standard errors "
                    f"at gamma={g} rho={rho} rule={rule.value}"
                )
            worst = max(worst, max(abs(zv) for zv in zs))
    print(f"c4: worst |z| = {worst:.3f} over 54 comparisons at 1e6 replications")


#: The Monte Carlo corner sweep: |rho| near RHO_MAX, a narrow and the
#: default cutoff, an extreme and a central alpha, gamma at and off 0.
CORNER_RHOS = (-0.999, -0.99, 0.99, 0.999)
CORNER_CUTOFFS = (0.3, 1.645)
CORNER_ALPHAS = (0.001, 0.5)
CORNER_GAMMAS = (0.0, 1.5)
#: Replications per run: the exact-SD rule is the slow one.
CORNER_REPS = {IntervalRule.SD: 50_000, IntervalRule.SD_DELTA: 200_000,
               IntervalRule.PMS: 200_000}
CORNER_COVERAGE = {IntervalRule.SD: coverage_sd, IntervalRule.SD_DELTA: coverage_sd_delta,
                   IntervalRule.PMS: coverage_pms}


def corner_sweep_zs(master: int) -> list[tuple[str, float]]:
    """Every corner comparison as (label, z in Monte Carlo standard errors).

    Coverage is compared for the SD, SD_DELTA and PMS rules, with the
    binomial se taken from the analytic p, since the empirical one can
    be 1; the smoothed rules' sd is compared against r.
    """
    cells = [(rho, d, alpha) for rho in CORNER_RHOS for d in CORNER_CUTOFFS
             for alpha in CORNER_ALPHAS]
    seeds = iter(np.random.SeedSequence(master).generate_state(
        len(cells) * len(CORNER_GAMMAS) * len(CORNER_REPS), dtype=np.uint64))
    out = []
    for rho, d, alpha in cells:
        spec = PretestSpec.from_cutoff(d)
        grid = Scenario(np.array(CORNER_GAMMAS), rho)
        sd_true = r(grid.gamma, rho, spec)
        analytic = {rule: cov(grid, spec, alpha) for rule, cov in CORNER_COVERAGE.items()}
        for gi, gamma in enumerate(CORNER_GAMMAS):
            for rule, reps in CORNER_REPS.items():
                plan = oracle.SimPlan(replications=reps, seed=int(next(seeds)),
                                      scenario=Scenario(gamma, rho), spec=spec, alpha=alpha)
                summary = oracle.run(plan, rule)
                label = f"gamma={gamma} rho={rho} d={d} alpha={alpha} rule={rule.value}"
                p = float(analytic[rule][gi])
                se = math.sqrt(p * (1.0 - p) / reps)
                out.append((f"{label} coverage", (summary.empirical_coverage - p) / se))
                if rule is not IntervalRule.PMS:
                    out.append((f"{label} sd", (summary.sd_estimate - float(sd_true[gi]))
                                / summary.standard_errors.sd_estimate))
    return out


def test_c4_monte_carlo_corner_sweep():
    """The oracle agrees with the coverage and sd formulas at the domain's corners.

    rho in {+-0.99, +-0.999}, d in {0.3, 1.645}, alpha in {0.001, 0.5},
    gamma in {0, 1.5}: 160 comparisons against one Bonferroni bound, for
    a family-wise false alarm rate of 1e-3.  Left out: the cutoff d = 10
    and the lengths.  At |rho| near 1 the width factor rises steeply in
    |h| outside the cutoff (at d = 10, rho = 0.999, r_delta climbs from
    sqrt(1 - rho^2) = 0.0447 to 0.56 near h = 8), so the mean length and
    the d = 10 summaries rest on a rare heavy tail that runs of these
    sizes barely sample, and their Monte Carlo se is not reliable.
    """
    zs = corner_sweep_zs(master=7)
    assert len(zs) == 160
    bound = z_quantile(1.0 - 1e-3 / (2 * len(zs)))
    label, worst = max(zs, key=lambda item: abs(item[1]))
    print(f"c4 corners: worst |z| = {abs(worst):.3f} at {label}, bound {bound:.3f}")
    assert abs(worst) <= bound, f"{label}: z = {worst:+.2f} beyond {bound:.2f}"


def test_c5_reference_curves_at_rho_07():
    rep_delta = min_coverage(0.7, SPEC, ALPHA, IntervalRule.SD_DELTA)
    rep_pms = min_coverage(0.7, SPEC, ALPHA, IntervalRule.PMS)

    # (a) the smoothed interval genuinely undercovers somewhere
    assert rep_delta.c_min < 0.95
    # (b) but dips less than the discontinuous select-then-estimate interval
    assert rep_pms.c_min < rep_delta.c_min
    # (c) at gamma=0 it is only slightly longer-calibrated than the plain one
    sel0 = sel_sd_delta(Scenario(gamma=0.0, rho=0.7), SPEC, ALPHA, rep_delta.c_min)
    assert 0.9 < sel0 < 1.0
    # (d) and somewhere it pays a real length premium
    grid = np.arange(0, 201) * 0.05
    sels = np.array(
        [sel_sd_delta(Scenario(gamma=float(g), rho=0.7), SPEC, ALPHA, rep_delta.c_min)
         for g in grid]
    )
    imax = int(np.argmax(sels))
    assert sels[imax] > 1.0
    # (e) far beyond the cutoff the coverage has rejoined the nominal level
    cp_far = coverage_sd_delta(Scenario(gamma=10.0, rho=0.7), SPEC, ALPHA)
    assert abs(cp_far - 0.95) < 1e-3

    assert abs(rep_delta.c_min - FROZEN_CMIN_SD_DELTA) <= 1e-9
    assert abs(rep_delta.argmin_gamma - FROZEN_ARGMIN_SD_DELTA) <= 1e-6
    assert abs(rep_pms.c_min - FROZEN_CMIN_PMS) <= 1e-9
    assert abs(rep_pms.argmin_gamma - FROZEN_ARGMIN_PMS) <= 1e-6
    assert abs(sel0 - FROZEN_SEL_DELTA_AT_ZERO) <= 1e-9
    assert abs(float(sels[imax]) - FROZEN_SEL_DELTA_MAX) <= 1e-9
    assert float(grid[imax]) == FROZEN_SEL_DELTA_ARGMAX
    assert abs(cp_far - FROZEN_CP_DELTA_FAR) <= 1e-9
    print(
        f"c5: c_min delta={rep_delta.c_min:.6f} pms={rep_pms.c_min:.6f} "
        f"sel(0)={sel0:.6f} max sel={float(sels[imax]):.6f} cp(10)={cp_far:.10f}"
    )


def test_c6_sel_maxima_increase_with_rho():
    grid = np.arange(0, 201) * 0.05
    maxima = []
    for rho in (0.3, 0.5, 0.7, 0.9):
        c = min_coverage(rho, SPEC, ALPHA, IntervalRule.SD_DELTA).c_min
        vals = [
            sel_sd_delta(Scenario(gamma=float(g), rho=rho), SPEC, ALPHA, c)
            for g in grid
        ]
        maxima.append(max(vals))
    assert all(x < y for x, y in zip(maxima, maxima[1:]))
    for got, want in zip(maxima, FROZEN_SEL_MAXIMA_BY_RHO):
        assert abs(got - want) <= 1e-9
    print("c6: max scaled length by rho:", " < ".join(f"{m:.6f}" for m in maxima))


def test_c7_finite_resample_convergence_rate():
    """The finite-resample average approaches its limit at the root-B rate."""
    scenario = Scenario(gamma=1.0, rho=0.7)
    reps = 400
    bs = (100, 1_000, 10_000, 100_000)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    rms = []
    for B in bs:
        sq = 0.0
        for _ in range(reps):
            th, gh = oracle.simulate_pair(scenario, rng, size=1)
            ideal = smoothed_estimate(
                FittedModel(theta_hat=float(th[0]), gamma_hat=float(gh[0]), sigma=1.0,
                            v_theta=1.0, v_tau=1.0, rho=0.7),
                SPEC,
            )
            fb = float(oracle._centers_finite_B(th, gh, 0.7, SPEC, B, rng)[0])
            sq += (fb - ideal) ** 2
        rms.append(math.sqrt(sq / reps))
    slope = float(np.polyfit(np.log(bs), np.log(rms), 1)[0])
    assert -0.6 <= slope <= -0.4
    print(f"c7: rms by B {['%.5f' % v for v in rms]}, fitted slope {slope:+.4f}")


def test_c8_linear_model_round_trip(tmp_path):
    data = load_dataset(
        str(DATA_DIR / "design.csv"),
        str(DATA_DIR / "response.csv"),
        str(DATA_DIR / "theta_vec.csv"),
        str(DATA_DIR / "tau_vec.csv"),
        sigma=0.4,
    )
    XtX = data.X.T @ data.X
    wa = np.linalg.solve(XtX, data.theta_vec)
    wb = np.linalg.solve(XtX, data.tau_vec)
    rho_analytic = float(data.theta_vec @ wb) / math.sqrt(
        float(data.theta_vec @ wa) * float(data.tau_vec @ wb)
    )

    n_sets = 100_000
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    beta0 = np.array([0.5, 1.0, -0.25])
    mu = data.X @ beta0
    # Row i is the i-th response vector of the stream, as n_sets draws
    # of len(mu) in turn would give it; one least-squares solve fits all.
    ys = mu + data.sigma * rng.standard_normal((n_sets, len(mu)))
    betas = np.linalg.lstsq(data.X, ys.T, rcond=None)[0]
    theta_hats = data.theta_vec @ betas
    tau_hats = data.tau_vec @ betas
    for i in range(1000):
        fm = fit(Dataset(X=data.X, y=ys[i], sigma=data.sigma,
                         theta_vec=data.theta_vec, tau_vec=data.tau_vec))
        assert abs(fm.theta_hat - theta_hats[i]) <= 1e-12
        assert abs(fm.gamma_hat * fm.sigma * math.sqrt(fm.v_tau) - tau_hats[i]) <= 1e-12
    corr = float(np.corrcoef(theta_hats, tau_hats)[0, 1])
    se = (1.0 - rho_analytic**2) / math.sqrt(n_sets)
    assert abs(corr - rho_analytic) <= 3.0 * se

    proc = subprocess.run(
        [
            sys.executable, "-m", "smoothci", "fit",
            "--design", str(DATA_DIR / "design.csv"),
            "--response", str(DATA_DIR / "response.csv"),
            "--theta-vec", str(DATA_DIR / "theta_vec.csv"),
            "--tau-vec", str(DATA_DIR / "tau_vec.csv"),
            "--sigma", "0.4",
        ],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    got = {}
    for line in proc.stdout.splitlines():
        if line.startswith("interval rule="):
            fields = dict(tok.split("=", 1) for tok in line.split()[1:])
            got[fields["rule"]] = fields
    with open(DATA_DIR / "expected_intervals.csv", newline="") as fh:
        expected = list(csv.DictReader(fh))
    assert sorted(got) == sorted(row["rule"] for row in expected)
    for row in expected:
        for field in ("lower", "upper", "center", "half_width"):
            assert abs(float(got[row["rule"]][field]) - float(row[field])) <= 1e-9, (
                f"{row['rule']} {field} drifted from the stored fixture"
            )
    print(
        f"c8: corr={corr:.6f} vs analytic {rho_analytic:.6f} "
        f"(|z| = {abs(corr - rho_analytic) / se:.2f}); stored intervals reproduced"
    )
