"""Tests for the Monte Carlo oracle.

The oracle exists to check the quadrature layer, so these tests point
the other way: they check that the simulation draws what it claims to
draw, that a run is reproducible bit for bit, and that the vectorized
chunk path is the same computation as building one interval at a time
through the public construction.
"""

import math
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import src_env
from helpers import centers_finite_B_whole_blocks

import smoothci.kernel as kernel_mod
import smoothci.oracle as oracle_mod
from smoothci.gauss import z_quantile
from smoothci.intervals import IntervalRule, Scenario, build_interval, coverage_pms, coverage_sd
from smoothci.kernel import FittedModel, PretestSpec, RuleGeometry, k, r, smoothed_estimate
from smoothci.oracle import (
    CHUNK,
    SimPlan,
    SimSummary,
    _centers_finite_B,
    run,
    simulate_pair,
)

SPEC10 = PretestSpec.from_size(0.10)
ALPHA = 0.05


def finite_B_center(theta, gamma, rho, B, rng):
    """The finite-B center of one observed pair: the chunk path on one row."""
    return float(_centers_finite_B(np.array([theta]), np.array([gamma]), rho, SPEC10, B, rng)[0])


class TestSimPlan:
    def test_validation(self):
        sc = Scenario(1.0, 0.5)
        with pytest.raises(ValueError):
            SimPlan(replications=0, seed=1, scenario=sc, spec=SPEC10, alpha=ALPHA)
        with pytest.raises(ValueError):
            SimPlan(replications=10, seed=-1, scenario=sc, spec=SPEC10, alpha=ALPHA)
        with pytest.raises(ValueError):
            SimPlan(replications=10, seed=2**64, scenario=sc, spec=SPEC10, alpha=ALPHA)
        with pytest.raises(ValueError):
            SimPlan(replications=10, seed=1, scenario=sc, spec=SPEC10, alpha=1.0)
        with pytest.raises(ValueError):
            SimPlan(replications=10, seed=1, scenario=sc, spec=SPEC10, alpha=ALPHA,
                    bootstrap_B=-1)
        with pytest.raises(ValueError):
            SimPlan(replications=10, seed=1, scenario=(1.0, 0.5), spec=SPEC10, alpha=ALPHA)

    @pytest.mark.parametrize("field, value", [
        ("replications", 1e4), ("replications", True), ("replications", np.float64(10.0)),
        ("seed", 3.0), ("seed", False), ("seed", np.True_), ("seed", "3"),
        ("bootstrap_B", 2.5), ("bootstrap_B", True),
    ])
    def test_integer_fields_reject_other_types(self, field, value):
        fields = dict(replications=10, seed=1, bootstrap_B=0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"SimPlan: {field} must be an integer"):
            SimPlan(scenario=Scenario(1.0, 0.5), spec=SPEC10, alpha=ALPHA, **fields)

    def test_numpy_integers_are_accepted(self):
        plan = SimPlan(replications=np.int32(CHUNK + 5), seed=np.uint64(2**64 - 1),
                       scenario=Scenario(1.0, 0.5), spec=SPEC10, alpha=ALPHA,
                       bootstrap_B=np.int64(0))
        same = SimPlan(replications=CHUNK + 5, seed=2**64 - 1, scenario=Scenario(1.0, 0.5),
                       spec=SPEC10, alpha=ALPHA)
        assert plan == same
        assert all(type(getattr(plan, f)) is int for f in ("replications", "seed", "bootstrap_B"))
        assert run(plan, IntervalRule.SD_DELTA) == run(same, IntervalRule.SD_DELTA)


class TestSimulatePair:
    def test_size_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_pair(Scenario(0.0, 0.0), rng, size=0)

    @pytest.mark.parametrize("rho", [0.0, 0.7, -0.7])
    def test_joint_moments(self, rho):
        n = 1_000_000
        rng = np.random.default_rng(123)
        theta, gamma = simulate_pair(Scenario(1.5, rho), rng, size=n)
        rn = 1.0 / math.sqrt(n)
        assert abs(theta.mean()) < 4 * rn
        assert abs(gamma.mean() - 1.5) < 4 * rn
        assert abs(theta.std() - 1.0) < 4 * rn
        assert abs(gamma.std() - 1.0) < 4 * rn
        corr = np.corrcoef(theta, gamma)[0, 1]
        assert abs(corr - rho) < 4 * (1.0 - rho * rho) * rn


class TestFiniteB:
    def test_is_the_direct_average_of_b_resamples(self):
        # The one-row call of the chunk path against the plain average
        # of B resampled select-then-estimate values, drawn as (2, B)
        # from the same stream: equal bit for bit, and the stream ends
        # in the same place.
        pick = np.random.default_rng(17)
        pms_terms = kernel_mod.RULES[IntervalRule.PMS].terms
        for i in range(1000):
            B = (1, 2, 4096, 4097)[i] if i < 4 else int(pick.integers(1, 4098))
            seed = int(pick.integers(0, 2**32))
            theta, gamma, rho = pick.normal(), 3.0 * pick.normal(), pick.uniform(-0.999, 0.999)
            rng = np.random.Generator(np.random.Philox(seed))
            got = finite_B_center(theta, gamma, rho, B, rng)
            ref = np.random.Generator(np.random.Philox(seed))
            z = ref.standard_normal((2, B))
            star = theta + rho * z[0] + math.sqrt(1.0 - rho * rho) * z[1]
            want = float(np.mean(star - pms_terms(gamma + z[0], rho, SPEC10)[0]))
            assert got == want, (seed, B)
            assert rng.standard_normal() == ref.standard_normal()

    # (m, B): one row; slices that do not divide the block; several
    # blocks per chunk (B >= 257 at m = CHUNK); B at and above the
    # slice size, one row per slice.
    WHOLE_BLOCK_CASES = [(1, 1), (1, 100), (1, 4097), (5, 3), (1000, 100), (CHUNK, 1),
                         (CHUNK, 100), (CHUNK, 257), (3000, 1000), (70, 32768),
                         (70, 32769), (40, 70000)]

    @staticmethod
    def assert_same_as_whole_blocks(m, B, pick):
        theta, gamma = pick.normal(size=m), 3.0 * pick.normal(size=m)
        rho = float(pick.uniform(-0.999, 0.999))
        seed = int(pick.integers(0, 2**32))
        rng = np.random.Generator(np.random.Philox(seed))
        ref = np.random.Generator(np.random.Philox(seed))
        got = _centers_finite_B(theta, gamma, rho, SPEC10, B, rng)
        want = centers_finite_B_whole_blocks(theta, gamma, rho, SPEC10, B, ref)
        assert got.tobytes() == want.tobytes(), (m, B, seed)
        assert rng.standard_normal() == ref.standard_normal(), (m, B, seed)

    @pytest.mark.parametrize("m, B", WHOLE_BLOCK_CASES)
    def test_slices_equal_whole_block_draws(self, m, B):
        # Streaming z1 in slices into a reused z0 buffer keeps every
        # center and the stream's end bit for bit.
        self.assert_same_as_whole_blocks(m, B, np.random.default_rng(m * 100_003 + B))

    def test_slices_equal_whole_block_draws_at_random_sizes(self):
        pick = np.random.default_rng(29)
        for _ in range(40):
            m, B = int(pick.integers(1, 300)), int(pick.integers(1, 4000))
            self.assert_same_as_whole_blocks(m, B, pick)

    def test_peak_memory_is_about_one_z0_block(self):
        # One z0 block of a full chunk is CHUNK x B doubles; the whole-
        # block draw held both planes and five temporaries of its size.
        m, B = CHUNK, 100
        pick = np.random.default_rng(3)
        theta, gamma = pick.normal(size=m), pick.normal(size=m)
        rng = np.random.Generator(np.random.Philox(5))
        tracemalloc.start()
        try:
            _centers_finite_B(theta, gamma, 0.7, SPEC10, B, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * m * B * 8

    def test_rho_zero_reduces_to_mean_resample(self):
        # no correlation means no adjustment: the average converges to
        # the observed estimate itself
        rng = np.random.default_rng(11)
        est = finite_B_center(0.37, 1.0, 0.0, 10_000, rng)
        assert est == pytest.approx(0.37, abs=4.0 / math.sqrt(10_000))

    def test_converges_to_ideal_smoothed_estimate(self):
        fit = FittedModel(theta_hat=0.2, gamma_hat=1.0, sigma=1.0,
                          v_theta=1.0, v_tau=1.0, rho=0.7)
        ideal = smoothed_estimate(fit, SPEC10)
        rng = np.random.default_rng(99)
        B = 100_000
        est = finite_B_center(0.2, 1.0, 0.7, B, rng)
        assert est == pytest.approx(ideal, abs=5.0 / math.sqrt(B))

    def test_bootstrap_mean_is_unbiased_for_the_kernel(self):
        # the resample average of the discarded-term is exactly
        # rho * k(gamma_hat) in expectation; check it across many
        # independent finite-B evaluations at the same observed point
        rng = np.random.default_rng(5)
        ests = [finite_B_center(0.0, 0.8, 0.7, 400, rng) for _ in range(400)]
        target = -0.7 * k(0.8, SPEC10)
        se = np.std(ests) / math.sqrt(len(ests))
        assert np.mean(ests) == pytest.approx(target, abs=4 * se)


def replay_run(plan, rule):
    """Recompute a run one replication at a time via build_interval."""
    n = plan.replications
    n_chunks = -(-n // CHUNK)
    streams = np.random.SeedSequence(plan.seed).spawn(n_chunks)
    covered = 0
    centers = []
    lengths = []
    for idx in range(n_chunks):
        m = min(CHUNK, n - idx * CHUNK)
        rng = np.random.Generator(np.random.Philox(streams[idx]))
        theta_std, gamma_hat = simulate_pair(plan.scenario, rng, size=m)
        for i in range(m):
            fit = FittedModel(theta_hat=float(theta_std[i]),
                              gamma_hat=float(gamma_hat[i]),
                              sigma=1.0, v_theta=1.0, v_tau=1.0,
                              rho=plan.scenario.rho)
            rep = build_interval(fit, plan.spec, plan.alpha, rule)
            covered += rep.lower <= 0.0 <= rep.upper
            centers.append(rep.center)
            lengths.append(rep.upper - rep.lower)
    return covered, np.array(centers), np.array(lengths)


class TestRun:
    def test_bit_identical_reproducibility(self):
        plan = SimPlan(replications=20_000, seed=31, scenario=Scenario(1.0, 0.7),
                       spec=SPEC10, alpha=ALPHA)
        a = run(plan, IntervalRule.SD)
        b = run(plan, IntervalRule.SD)
        assert a == b

    def test_different_seeds_differ(self):
        sc = Scenario(1.0, 0.7)
        a = run(SimPlan(replications=10_000, seed=1, scenario=sc, spec=SPEC10,
                        alpha=ALPHA), IntervalRule.SD)
        b = run(SimPlan(replications=10_000, seed=2, scenario=sc, spec=SPEC10,
                        alpha=ALPHA), IntervalRule.SD)
        assert a != b

    def test_full_model_exact_interval(self):
        plan = SimPlan(replications=100_000, seed=7, scenario=Scenario(2.0, 0.7),
                       spec=SPEC10, alpha=ALPHA)
        out = run(plan, IntervalRule.FULL_MODEL)
        z_a = z_quantile(0.975)
        assert out.mean_length == pytest.approx(2 * z_a, abs=1e-12)
        # constant length: the merged centered sums leave no rounding residue
        assert out.standard_errors.mean_length == 0.0
        assert abs(out.empirical_coverage - 0.95) < 4 * out.standard_errors.empirical_coverage
        assert abs(out.mean_estimate) < 4 * out.standard_errors.mean_estimate
        assert abs(out.sd_estimate - 1.0) < 4 * out.standard_errors.sd_estimate

    def test_sd_smoke_against_quadrature(self):
        sc = Scenario(1.0, 0.7)
        plan = SimPlan(replications=50_000, seed=17, scenario=sc, spec=SPEC10,
                       alpha=ALPHA)
        out = run(plan, IntervalRule.SD)
        cp = coverage_sd(sc, SPEC10, ALPHA)
        assert abs(out.empirical_coverage - cp) < 4 * out.standard_errors.empirical_coverage
        sd_true = r(1.0, 0.7, SPEC10)
        assert abs(out.sd_estimate - sd_true) < 4 * out.standard_errors.sd_estimate

    def test_pms_smoke_against_quadrature(self):
        sc = Scenario(1.0, 0.7)
        plan = SimPlan(replications=50_000, seed=23, scenario=sc, spec=SPEC10,
                       alpha=ALPHA)
        out = run(plan, IntervalRule.PMS)
        cp = coverage_pms(sc, SPEC10, ALPHA)
        assert abs(out.empirical_coverage - cp) < 4 * out.standard_errors.empirical_coverage

    @pytest.mark.parametrize("rule", list(IntervalRule))
    def test_chunked_path_equals_one_at_a_time(self, rule):
        # n spans multiple chunks on purpose
        plan = SimPlan(replications=10_000, seed=41, scenario=Scenario(1.0, 0.6),
                       spec=SPEC10, alpha=ALPHA)
        out = run(plan, rule)
        covered, centers, lengths = replay_run(plan, rule)
        assert out.empirical_coverage == covered / plan.replications
        assert out.mean_estimate == pytest.approx(float(centers.mean()), abs=1e-12)
        assert out.mean_length == pytest.approx(float(lengths.mean()), abs=1e-12)
        assert out.sd_estimate == pytest.approx(float(centers.std(ddof=1)), abs=1e-9)

    def test_partial_final_chunk(self):
        plan = SimPlan(replications=CHUNK + 7, seed=3, scenario=Scenario(0.0, 0.4),
                       spec=SPEC10, alpha=ALPHA)
        out = run(plan, IntervalRule.SD_DELTA)
        assert 0.0 < out.empirical_coverage < 1.0

    def test_bootstrap_smoothing_smoke(self):
        plan = SimPlan(replications=4_000, seed=13, scenario=Scenario(1.0, 0.7),
                       spec=SPEC10, alpha=ALPHA, bootstrap_B=64)
        out = run(plan, IntervalRule.SD_DELTA)
        again = run(plan, IntervalRule.SD_DELTA)
        assert out == again
        # finite-B centers are noisier than ideal ones but the interval
        # still has to cover at a broadly sane rate
        assert 0.85 < out.empirical_coverage <= 1.0

    def test_bootstrap_noise_inflates_center_sd(self):
        sc = Scenario(1.0, 0.7)
        ideal = run(SimPlan(replications=20_000, seed=29, scenario=sc, spec=SPEC10,
                            alpha=ALPHA), IntervalRule.SD)
        noisy = run(SimPlan(replications=20_000, seed=29, scenario=sc, spec=SPEC10,
                            alpha=ALPHA, bootstrap_B=16), IntervalRule.SD)
        assert noisy.sd_estimate > ideal.sd_estimate

    # Summaries as the rules' separate shift and factor calls gave them,
    # before the two were fused into one call per chunk:
    # (rule, replications, seed, gamma, rho, bootstrap_B) -> (mean, sd,
    # coverage, length, and their standard errors in that order).  The
    # length's standard error is the one from the chunks' merged centered
    # sums of squares; each equals the exact rational computation from
    # the same lengths to within one unit in the last place.  SPEC10's
    # cutoff is d = z_quantile(0.95) = 0x1.a515209676abbp+0.
    FROZEN = {
        ("sd", 20_000, 61, 1.3, 0.7, 0): (
            -0.1787682113288862, 0.9646771962851357, 0.947, 3.8206312776074816,
            0.006821297871492456, 0.004909586234014559, 0.0015841559266688372,
            0.001795941746361395),
        ("sd_delta", 20_000, 62, 1.3, 0.7, 0): (
            -0.1875096717774718, 0.970331467550034, 0.93365, 3.8321053212944403,
            0.006861279607033234, 0.004814206152732555, 0.0017599385997812541,
            0.0036339504190663605),
        ("pms", 20_000, 63, 1.3, 0.7, 0): (
            -0.31385804370082976, 1.0867593495673833, 0.8197, 3.211298811124965,
            0.007684549055969784, 0.005100473575786128, 0.002718381043930376,
            0.003820381196102827),
        ("full_model", 20_000, 64, 1.3, 0.7, 0): (
            -0.005351520966033207, 0.9981774118513678, 0.9516, 3.9199279690801063,
            0.007058180167473394, 0.004910732022062065, 0.0015175216637662871,
            0.0),
        ("sd_delta", 3_000, 65, 0.8, -0.9, 32): (
            0.16324507403928604, 0.8993640769062499, 0.926, 3.373885732872296,
            0.01642006641104547, 0.013861961296110652, 0.004779260751762067,
            0.016146376421472083),
        ("sd", 3_000, 66, 0.8, 0.9, 32): (
            -0.1834190829945917, 0.9012769540108831, 0.9586666666666667,
            3.5716603115387358, 0.01645499060904356, 0.013165896653898576,
            0.003634321985776205, 0.007333585862914713),
        # 41 chunks, the last one partial: long enough that run draws
        # and reduces several chunks per task.  Pinned from the
        # one-chunk-per-task code that came before.
        ("sd_delta", 40 * CHUNK + 123, 67, 1.3, 0.7, 0): (
            -0.1899441377412911, 0.9722602913648626, 0.9308151542237258,
            3.8318561067849153, 0.0016981501465252618, 0.0012127252959093734,
            0.00044323163431843717, 0.000897801412600162),
    }

    @pytest.mark.parametrize("case", list(FROZEN))
    def test_frozen_summaries_bit_for_bit(self, case):
        rule, n, seed, gamma, rho, B = case
        out = run(SimPlan(replications=n, seed=seed, scenario=Scenario(gamma, rho),
                          spec=SPEC10, alpha=ALPHA, bootstrap_B=B), IntervalRule(rule))
        se = out.standard_errors
        got = (out.mean_estimate, out.sd_estimate, out.empirical_coverage, out.mean_length,
               se.mean_estimate, se.sd_estimate, se.empirical_coverage, se.mean_length)
        assert got == self.FROZEN[case]

    def test_summary_is_a_plain_value_object(self):
        plan = SimPlan(replications=2_000, seed=5, scenario=Scenario(0.0, 0.0),
                       spec=SPEC10, alpha=ALPHA)
        out = run(plan, IntervalRule.FULL_MODEL)
        assert isinstance(out, SimSummary)
        with pytest.raises(Exception):
            out.mean_estimate = 0.0


@pytest.fixture
def started_threads(monkeypatch):
    """Names of the threads started while the test runs."""
    names = []
    start = threading.Thread.start

    def recording(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return names


def with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(oracle_mod, "_usable_cpus", lambda: list(range(cpus)))


class TestThreads:
    """Chunks run on a thread pool; the summary must not notice."""

    # Five chunks, the last one partial.
    N = 4 * CHUNK + 123

    def plan(self, B=0, seed=71):
        return SimPlan(replications=self.N, seed=seed, scenario=Scenario(1.2, 0.8),
                       spec=SPEC10, alpha=ALPHA, bootstrap_B=B)

    @pytest.mark.parametrize("B", [0, 32])
    @pytest.mark.parametrize("rule", list(IntervalRule))
    def test_summary_does_not_depend_on_cpu_count(self, monkeypatch, rule, B):
        summaries = []
        for cpus in (1, 2, 8):
            with_cpus(monkeypatch, cpus)
            summaries.append(run(self.plan(B), rule))
        assert summaries[0] == summaries[1] == summaries[2]

    def test_short_switch_interval(self, monkeypatch):
        # More workers than this machine may have cores, switching
        # threads as often as the interpreter allows.
        with_cpus(monkeypatch, 1)
        serial = run(self.plan(seed=72), IntervalRule.SD_DELTA)
        with_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run(self.plan(seed=72), IntervalRule.SD_DELTA)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_pool_size(self, monkeypatch, started_threads):
        # min(usable CPUs, chunks, the cap); the pool starts its threads
        # as work arrives, so they may be fewer.
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(oracle_mod, "ThreadPoolExecutor", Recording)
        for cpus, n in ((2, self.N), (3, self.N), (64, self.N), (64, 3 * CHUNK)):
            with_cpus(monkeypatch, cpus)
            run(SimPlan(replications=n, seed=5, scenario=Scenario(1.0, 0.5), spec=SPEC10,
                        alpha=ALPHA), IntervalRule.PMS)
        assert sizes == [2, 3, oracle_mod._MAX_THREADS, 3]
        assert started_threads
        assert all(name.startswith("smoothci-oracle_") for name in started_threads)

    def test_workers_split_the_cpus(self, monkeypatch):
        pinned = []

        def record(pid, cpus):
            if cpus == [3, 7]:
                raise OSError(22, "Invalid argument")
            pinned.append((pid, cpus))

        monkeypatch.setattr(oracle_mod.os, "sched_setaffinity", record)
        pin = oracle_mod._pinning(list(range(10)), 4)
        for _ in range(4):
            pin()  # the refused last share leaves its worker unpinned
        assert pinned == [(0, [0, 4, 8]), (0, [1, 5, 9]), (0, [2, 6])]
        # In a run, each worker thread pins itself to a share of its own.
        pinned.clear()
        with_cpus(monkeypatch, 2)
        run(self.plan(), IntervalRule.SD)
        shares = [tuple(cpus) for _, cpus in pinned]
        assert shares and set(shares) <= {(0,), (1,)}
        assert len(set(shares)) == len(shares)

    def test_import_starts_no_thread(self):
        code = "import threading, smoothci, smoothci.oracle; print(threading.active_count())"
        done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                              text=True, check=True)
        assert done.stdout == "1\n"

    @pytest.mark.parametrize("n", [1, CHUNK])
    def test_one_chunk_starts_no_thread(self, monkeypatch, started_threads, n):
        with_cpus(monkeypatch, 8)
        run(SimPlan(replications=n, seed=3, scenario=Scenario(1.0, 0.5), spec=SPEC10,
                    alpha=ALPHA), IntervalRule.SD)
        assert started_threads == []

    def test_finite_B_starts_no_thread(self, monkeypatch, started_threads):
        with_cpus(monkeypatch, 8)
        run(self.plan(B=4), IntervalRule.SD_DELTA)
        assert started_threads == []

    @pytest.mark.parametrize("bad_size", [CHUNK, 123, oracle_mod._TASK_CHUNKS * CHUNK])
    def test_failing_chunk_raises_and_leaves_no_thread(self, monkeypatch, bad_size):
        # Fails the first full chunk to be evaluated, or the partial last
        # one, or the first task of a run long enough for whole tasks of
        # _TASK_CHUNKS chunks on four workers.
        n = 16 * oracle_mod._TASK_CHUNKS * CHUNK + 123 if bad_size > CHUNK else self.N
        terms = kernel_mod.RULES[IntervalRule.PMS].terms
        lock = threading.Lock()
        failed = []

        def failing(h, rho, spec):
            with lock:
                fail = h.size == bad_size and not failed
                if fail:
                    failed.append(h.size)
            if fail:
                raise RuntimeError("chunk failed")
            return terms(h, rho, spec)

        monkeypatch.setitem(kernel_mod.RULES, IntervalRule.PMS, RuleGeometry(terms=failing))
        with_cpus(monkeypatch, 8)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed"):
            run(SimPlan(replications=n, seed=71, scenario=Scenario(1.2, 0.8), spec=SPEC10,
                        alpha=ALPHA), IntervalRule.PMS)
        assert failed == [bad_size]
        assert threading.active_count() == before


class TestTasks:
    """Runs of chunks drawn and reduced together; the summary must not notice."""

    # 41 chunks, the last one partial.
    N = 40 * CHUNK + 123

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("rule", list(IntervalRule))
    def test_batched_equals_one_chunk_per_task(self, monkeypatch, rule, cpus):
        plan = SimPlan(replications=self.N, seed=73, scenario=Scenario(0.9, -0.6),
                       spec=SPEC10, alpha=ALPHA)
        with_cpus(monkeypatch, cpus)
        workers = min(cpus, oracle_mod._MAX_THREADS)
        assert max(map(len, oracle_mod._tasks(self.N, workers, False))) > 1
        batched = run(plan, rule)
        monkeypatch.setattr(oracle_mod, "_TASK_CHUNKS", 1)
        assert run(plan, rule) == batched

    @pytest.mark.parametrize("n, workers, finite_B, sizes", [
        (1, 1, False, [1]),
        (CHUNK, 2, False, [1]),
        # 13 chunks on two workers: one per task, at least four per worker.
        (12 * CHUNK + 5, 2, False, [1] * 13),
        (12 * CHUNK + 5, 1, False, [3] * 4 + [1]),
        (122 * CHUNK + 5, 2, False, [4] * 30 + [2, 1]),
        (40 * CHUNK, 4, False, [2] * 20),
        (40 * CHUNK + 123, 1, True, [1] * 41),
    ])
    def test_task_sizes(self, n, workers, finite_B, sizes):
        tasks = oracle_mod._tasks(n, workers, finite_B)
        assert [len(t) for t in tasks] == sizes
        # consecutive, in order, covering every chunk once
        assert [i for t in tasks for i in t] == list(range(-(-n // CHUNK)))

    def test_chunk_streams_are_the_spawned_children(self):
        children = np.random.SeedSequence(2024).spawn(123)
        for idx in (0, 1, 7, 122):
            want = np.random.Generator(np.random.Philox(children[idx])).standard_normal(6)
            got = oracle_mod._stream(2024, idx).standard_normal(6)
            assert got.tolist() == want.tolist()
