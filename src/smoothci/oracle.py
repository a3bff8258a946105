"""Monte Carlo oracle for the exact formulas.

Simulates the standardized estimator pair directly from its joint
normal law, pushes each draw through the same estimator and interval
constructions the analytic layer describes, and reports empirical
means, standard deviations, coverages and lengths with Monte Carlo
standard errors.  Everything runs in standardized units: the true
parameter of interest is 0 and sigma * sqrt(v_theta) is 1, which the
coverage and length theory says costs no generality.  Each draw's
interval comes from the rule's entry in ``kernel.RULES``, the same
definition build_interval uses: one call per task of draws returns
every draw's center shift and half-width factor together, so the
delta-method rule takes its normal CDF and density values once per
draw, not once for each.  The simulation is the independent
check on the quadrature results, so it deliberately shares only the
rule definitions and kernel evaluations with the analytic path, never
the integrals.

Reproducibility contract: a SimPlan pins the full output.  Draws are
generated in fixed-size chunks, chunk i from its own Philox substream,
SeedSequence(seed, spawn_key=(i,)), which is SeedSequence(seed).spawn's
i-th child.  Within a chunk the pair comes first; with bootstrap_B > 0
the resamples follow in blocks of rows, and each block takes all of its
first plane z0 (rows x B normals) before all of its second plane z1.
Each chunk reduces its own draws to partial sums, and run adds the
chunks' partials in chunk index order.

The work is split into tasks, each a run of up to _TASK_CHUNKS
consecutive chunks: a task draws every chunk from that chunk's own
substream into its row of one buffer, then takes the rule's terms and
each partial sum in one numpy call over all its rows.  A row sum over
that buffer is the chunk's own sum bit for bit, so the grouping of
chunks into tasks changes no partial.  The tasks run on a small thread
pool, one worker per usable CPU up to _MAX_THREADS (numpy and scipy
release the interpreter lock in their array loops), but since every
float addition across chunks happens in chunk order, nothing depends on
thread count, task size or scheduling: the summary is the one-thread
summary bit for bit.  Finite-B chunks run one at a time, one chunk per
task, for the memory reason given at _MAX_BOOT_BLOCK.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernel
from .gauss import _z_alpha
from .intervals import IntervalRule, Scenario
from .kernel import PretestSpec

#: Replications per random substream.  Part of the output contract:
#: changing it reshuffles which draws land in which substream.
CHUNK = 8192

#: Spec'd replication count of acceptance runs.
DEFAULT_REPLICATIONS = 1_000_000

#: Resamples per block of the finite-B centers: a block has
#: rows = max(1, _MAX_BOOT_BLOCK // B) rows of B resamples.  Part of
#: the output contract, like CHUNK: changing it reorders the stream.
#: One block's z0, at most max(_MAX_BOOT_BLOCK, B) doubles (16 MiB at
#: B <= 2^21), is the largest array a finite-B chunk holds.  That is
#: why finite-B chunks run one at a time: on a thread pool every worker
#: would hold a block of its own, up to _MAX_THREADS times 16 MiB.
_MAX_BOOT_BLOCK = 1 << 21

#: Resamples per slice of z1, in whole rows and at least one: z1 and
#: every temporary built from it hold at most max(_BOOT_SLICE, B) values.
_BOOT_SLICE = 1 << 15

#: Most worker threads one run uses.  It bounds the tasks in flight,
#: and so their memory: one exact-SD task of _TASK_CHUNKS chunks peaks
#: at about 13 MiB under tracemalloc (3.2 MiB for one chunk).
_MAX_THREADS = 4

#: Most chunks one task draws and reduces together.  Not part of the
#: output contract: a task's row sums equal its chunks' own sums.
_TASK_CHUNKS = 4


def _usable_cpus() -> list[int]:
    """The CPUs this process may run on, in order."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return list(range(os.cpu_count() or 1))


def _pinning(cpus: list[int], workers: int):
    """A thread pool initializer that gives each worker its own share of cpus.

    Each numpy or scipy call hands the interpreter lock to the other
    worker, and the kernel tends to wake that worker on the CPU that
    woke it; unpinned, two workers can stay stacked on one CPU and the
    pool gains nothing.  Worker i gets cpus[i::workers].  Where the
    kernel refuses a share, or has no affinity interface, the worker
    runs wherever it is scheduled.
    """
    shares = iter([cpus[i::workers] for i in range(workers)])

    def pin() -> None:
        try:
            os.sched_setaffinity(0, next(shares))
        except (AttributeError, OSError):
            pass

    return pin


@dataclass(frozen=True)
class SimPlan:
    """Everything that determines a simulation run, bit for bit."""

    replications: int
    seed: int
    scenario: Scenario
    spec: PretestSpec
    alpha: float
    bootstrap_B: int = 0

    def __post_init__(self) -> None:
        for name in ("replications", "seed", "bootstrap_B"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
                raise ValueError(f"SimPlan: {name} must be an integer, got {value!r}")
            # Stored as a Python int: numpy's fixed-width integers would
            # overflow in run's counts.
            object.__setattr__(self, name, operator.index(value))
        if self.replications < 1:
            raise ValueError(f"SimPlan: replications must be >= 1, got {self.replications}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("SimPlan: seed must be a 64-bit nonnegative integer")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"SimPlan: alpha must be in (0, 1), got {self.alpha}")
        if self.bootstrap_B < 0:
            raise ValueError("SimPlan: bootstrap_B must be >= 0 (0 = ideal smoothing)")
        if not isinstance(self.scenario, Scenario) or not isinstance(self.spec, PretestSpec):
            raise ValueError("SimPlan: scenario and spec must be the dedicated types")
        if np.ndim(self.scenario.gamma) != 0:
            raise ValueError("SimPlan: scenario gamma must be a scalar")


@dataclass(frozen=True)
class StandardErrors:
    """Monte Carlo standard errors, one per summary statistic.

    Conventions: the mean's is sample sd / sqrt(n); the sd's comes
    from the fourth-moment delta method,
    sqrt((m4 - m2^2) / (4 m2 n)) with central moments m2, m4; the
    coverage's is the binomial sqrt(p (1 - p) / n); the length's is
    the length sample sd / sqrt(n).
    """

    mean_estimate: float
    sd_estimate: float
    empirical_coverage: float
    mean_length: float

    def __post_init__(self) -> None:
        for name in ("mean_estimate", "sd_estimate", "empirical_coverage", "mean_length"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"StandardErrors: {name} must be finite and >= 0")


@dataclass(frozen=True)
class SimSummary:
    """Empirical summary of one simulation run."""

    mean_estimate: float
    sd_estimate: float
    empirical_coverage: float
    mean_length: float
    standard_errors: StandardErrors

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean_estimate):
            raise ValueError("SimSummary: mean_estimate must be finite")
        if not (math.isfinite(self.sd_estimate) and self.sd_estimate >= 0.0):
            raise ValueError("SimSummary: sd_estimate must be finite and >= 0")
        if not 0.0 <= self.empirical_coverage <= 1.0:
            raise ValueError("SimSummary: empirical_coverage must be in [0, 1]")
        if not (math.isfinite(self.mean_length) and self.mean_length >= 0.0):
            raise ValueError("SimSummary: mean_length must be finite and >= 0")


def simulate_pair(
    scenario: Scenario, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` pairs (theta_hat_std, gamma_hat) from the joint law.

    The pair is bivariate normal with means (0, gamma), unit variances
    and correlation rho; it is built from two independent standard
    normals via the Cholesky relation

        gamma_hat = gamma + Z1,
        theta_hat_std = rho * Z1 + sqrt(1 - rho^2) * Z2.

    Returns two arrays of length ``size``.
    """
    n = int(size)
    if n < 1:
        raise ValueError(f"simulate_pair: size must be >= 1, got {size}")
    z = rng.standard_normal((2, n))
    return _pair(scenario, z[0], z[1])


def _pair(scenario: Scenario, z0: np.ndarray, z1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """simulate_pair's Cholesky relation on drawn normals z0 and z1,
    any shape; theta_hat_std overwrites z0 and z1 is used as scratch."""
    gamma_hat = z0 + scenario.gamma
    z0 *= scenario.rho
    z1 *= math.sqrt(1.0 - scenario.rho**2)
    z0 += z1
    return z0, gamma_hat


def _stream(seed: int, idx: int) -> np.random.Generator:
    """Chunk idx's generator: the idx-th child of SeedSequence(seed)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(idx,))))


def _tasks(n: int, workers: int, finite_B: bool) -> list[range]:
    """The chunk indices of an n-replication run, cut into tasks.

    Each task is a run of up to _TASK_CHUNKS full chunks, fewer where
    that would leave a worker under about four tasks (so the last ones
    to finish keep every worker busy), and one chunk at finite B.  A
    partial last chunk is a task of its own, so a task's chunks all
    have CHUNK draws.
    """
    full = n // CHUNK
    size = 1 if finite_B else max(1, min(_TASK_CHUNKS, full // (4 * workers)))
    tasks = [range(i, min(i + size, full)) for i in range(0, full, size)]
    if n % CHUNK:
        tasks.append(range(full, full + 1))
    return tasks


def _centers_finite_B(
    theta_std: np.ndarray,
    gamma_hat: np.ndarray,
    rho: float,
    spec: PretestSpec,
    B: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Finite-B smoothed centers for a whole chunk, blockwise in memory:
    each row's center is the mean of the select-then-estimate rule over
    B parametric resamples of the estimator pair around that row's pair.

    Each block draws its z0 into one buffer that every block reuses,
    then its z1 one slice of rows at a time; each slice forms its rows'
    resampled pairs and their means.  Only one z0 block and one slice's
    temporaries are alive at once.
    """
    m = theta_std.size
    out = np.empty(m)
    rows = min(m, max(1, _MAX_BOOT_BLOCK // B))
    step = max(1, _BOOT_SLICE // B)
    sq = math.sqrt(1.0 - rho * rho)
    block = np.empty((rows, B))
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        z0 = block[: stop - start]
        rng.standard_normal(out=z0)
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            z0s = z0[lo - start : hi - start]
            z1 = rng.standard_normal((hi - lo, B))
            gamma_star = gamma_hat[lo:hi, None] + z0s
            theta_star = theta_std[lo:hi, None] + rho * z0s + sq * z1
            out[lo:hi] = np.mean(theta_star - kernel._pms_shift(gamma_star, rho, spec), axis=1)
    return out


def run(plan: SimPlan, rule: IntervalRule) -> SimSummary:
    """Simulate the chosen interval rule and summarize it empirically.

    Per replication: draw the standardized pair, form the interval
    from the rule's shift and factor exactly as build_interval does in
    standardized units (one call of the rule's terms per task), and
    record length and whether the interval contains 0, the
    standardized truth.  For the smoothed rules with
    bootstrap_B > 0 the finite-B resample average replaces the ideal
    smoothed center.  Containment is closed-interval.  The chunked
    vector path is tested to agree with the one-replication-at-a-time
    construction.  The length's sample variance merges each chunk's
    centered sum of squares (Chan et al.'s pairwise update), so a
    nearly constant length leaves no cancellation residue.
    """
    geometry = kernel.RULES[IntervalRule(rule)]
    rho = plan.scenario.rho
    z_a = _z_alpha(plan.alpha)

    n = plan.replications
    n_chunks = -(-n // CHUNK)
    finite_B = geometry.smoothed and plan.bootstrap_B > 0

    def task(chunks: range) -> list[tuple]:
        """A run of chunks' draws, reduced to each chunk's partial sums."""
        m = min(CHUNK, n - chunks.start * CHUNK)
        z = np.empty((len(chunks), 2, m))
        for row, idx in zip(z, chunks):
            rng = _stream(plan.seed, idx)
            rng.standard_normal(out=row)
        theta_std, gamma_hat = _pair(plan.scenario, z[:, 0], z[:, 1])

        shift, factor = geometry.terms(gamma_hat, rho, plan.spec)
        if finite_B:  # one chunk per task; rng is its stream
            center = _centers_finite_B(
                theta_std[0], gamma_hat[0], rho, plan.spec, plan.bootstrap_B, rng
            )[None]
        else:
            center = np.subtract(theta_std, shift, out=theta_std)
        half = np.multiply(factor, z_a, out=factor)

        c2 = center * center
        length = 2.0 * half
        # The length's mean taken about its first value: a constant
        # length gives that value and zero deviations exactly.
        dev = length - length[:, :1]
        mid = length[:, 0] + dev.sum(axis=1) / m
        np.subtract(length, mid[:, None], out=dev)
        hits = np.count_nonzero(np.abs(center) <= half, axis=1)
        cube = np.multiply(c2, center, out=shift)
        s3 = cube.sum(axis=1)
        s4 = np.multiply(c2, c2, out=cube).sum(axis=1)
        ss = np.multiply(dev, dev, out=dev).sum(axis=1)
        return list(zip(
            center.sum(axis=1).tolist(), c2.sum(axis=1).tolist(), s3.tolist(), s4.tolist(),
            hits.tolist(), length.sum(axis=1).tolist(), [m] * len(chunks), mid.tolist(),
            ss.tolist(),
        ))

    cpus = _usable_cpus()
    workers = 1 if finite_B else min(len(cpus), n_chunks, _MAX_THREADS)
    tasks = _tasks(n, workers, finite_B)
    # glibc raises its mmap threshold to the largest mapped block freed
    # so far, and its trim threshold to twice that.  Below a task's
    # working set (13 MiB for exact SD) every task's temporaries go back
    # to the system and fault in anew, which cost a fresh process more
    # time than batching saves.  Freeing one untouched 8 MiB block
    # first costs two system calls.
    np.empty(1 << 20)
    if workers == 1:
        done = list(map(task, tasks))
    else:
        with ThreadPoolExecutor(workers, thread_name_prefix="smoothci-oracle",
                                initializer=_pinning(cpus, workers)) as pool:
            done = list(pool.map(task, tasks))
    parts = [part for chunk_parts in done for part in chunk_parts]

    # Chunk index order, whichever thread computed each part.
    s1 = s2 = s3 = s4 = 0.0
    covered = 0
    len1 = 0.0
    count, len_mean, len_ss = 0, 0.0, 0.0
    for p1, p2, p3, p4, hits, len_sum, m, m_mean, m_ss in parts:
        s1 += p1
        s2 += p2
        s3 += p3
        s4 += p4
        covered += hits
        len1 += len_sum
        total = count + m
        delta = m_mean - len_mean
        len_mean += delta * (m / total)
        len_ss += m_ss + delta * delta * (count * m / total)
        count = total

    mean = s1 / n
    m2 = max(s2 / n - mean * mean, 0.0)
    m4 = max(
        s4 / n - 4.0 * mean * (s3 / n) + 6.0 * mean**2 * (s2 / n) - 3.0 * mean**4, 0.0
    )
    sd = math.sqrt(m2 * n / (n - 1)) if n > 1 else 0.0
    p_hat = covered / n
    mean_len = len1 / n
    var_len = len_ss / (n - 1) if n > 1 else 0.0

    se_mean = sd / math.sqrt(n)
    se_sd = math.sqrt(max(m4 - m2 * m2, 0.0) / (4.0 * m2 * n)) if m2 > 0.0 else 0.0
    se_cov = math.sqrt(p_hat * (1.0 - p_hat) / n)
    se_len = math.sqrt(var_len / n)

    return SimSummary(
        mean_estimate=mean,
        sd_estimate=sd,
        empirical_coverage=p_hat,
        mean_length=mean_len,
        standard_errors=StandardErrors(
            mean_estimate=se_mean,
            sd_estimate=se_sd,
            empirical_coverage=se_cov,
            mean_length=se_len,
        ),
    )
