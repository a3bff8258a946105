"""Tests of the benchmark itself: the reference is right, and every kind
of check rejects a wrong output.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import re
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

D = ref.cutoff(0.1)


def test_reference_normal_matches_scipy():
    xs = np.linspace(-9.0, 9.0, 37)
    assert np.allclose([ref.cdf(x) for x in xs], norm.cdf(xs), rtol=1e-12, atol=0.0)
    assert np.allclose([ref.pdf(x) for x in xs], norm.pdf(xs), rtol=1e-12, atol=0.0)


def test_reference_kernel_is_its_defining_integral():
    for g in (0.0, 0.7, 2.5):
        want, _ = quad(lambda z: z * norm.pdf(z - g), -D, D, epsabs=1e-14)
        assert abs(ref.k(g, D) - want) < 1e-13


def test_reference_properties():
    assert ref.coverage(ref.SD_DELTA, 1.3, 0.0, D, 0.05) == 0.95
    for rule in (ref.SD, ref.SD_DELTA, ref.PMS):
        plus = ref.coverage(rule, 1.3, 0.6, D, 0.05)
        assert abs(plus - ref.coverage(rule, 1.3, -0.6, D, 0.05)) < 1e-13
    for rule in (ref.SD, ref.SD_DELTA):
        plus = ref.scaled_length(rule, 1.3, 0.6, D, 0.05, 0.9)
        assert abs(plus - ref.scaled_length(rule, 1.3, -0.6, D, 0.05, 0.9)) < 1e-13
    # r at rho = 1 is the sd of z - k(z); Monte Carlo agrees to its error.
    z = np.random.default_rng(0).standard_normal(200_000) + 1.0
    kz = np.array([ref.k(v, D) for v in z[:20_000]])
    assert abs(np.std(z[:20_000] - kz) - ref.r(1.0, 0.999999, D)) < 0.02


def run_op(op):
    for path in op.out_files:
        pathlib.Path(path).unlink(missing_ok=True)
    result = run.execute(op)
    for path in op.out_files:
        result.files.append(pathlib.Path(path).read_text())
    return result


def perturb_cell(text: str, row: int, col: int, delta: float) -> str:
    """Add delta to one cell of a CSV text (row 0 is the header)."""
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = format(float(cells[col]) + delta, ".12g")
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def perturb_number(text: str, index: int, delta: float) -> str:
    """Add delta to the index-th number printed after '=' or ',' in text."""
    matches = list(re.finditer(r"(?<=[=,])-?\d[\d.e+-]*", text))
    m = matches[index]
    new = format(float(m.group()) + delta, ".12g")
    return text[:m.start()] + new + text[m.end():]


@pytest.fixture(scope="module")
def builder(tmp_path_factory):
    return workloads.Builder(7, 99, str(tmp_path_factory.mktemp("ops")))


def test_curve_check_rejects_a_coverage_off_by_1e_8(builder):
    op = builder.curve("curve", "cp_delta", 0.7, 0.1, gamma_max=3.0, step=1.0,
                       samples=[0, 1, 2, 3])
    result = run_op(op)
    assert op.check(result, {}) == []
    bad = dataclasses.replace(result, stdout=perturb_cell(result.stdout, 2, 1, 1e-8))
    assert op.check(bad, {})
    wrong_flag = dataclasses.replace(result, stdout=perturb_cell(result.stdout, 2, 5, 1e-8))
    assert op.check(wrong_flag, {})


def test_flat_check_rejects_a_departure_from_one_minus_alpha(builder):
    op = builder.curve("flat", "cp_pms", 0.0, 0.1, gamma_max=3.0, step=1.0, flat=True)
    result = run_op(op)
    assert op.check(result, {}) == []
    bad = dataclasses.replace(result, stdout=perturb_cell(result.stdout, 3, 1, 1e-10))
    assert op.check(bad, {})


def test_cmin_check_rejects_a_wrong_value_or_a_wrong_minimum(builder):
    op = builder.cmin("cmin", 0.7, 0.1, ("sd_delta", "pms"))
    result = run_op(op)
    assert op.check(result, {}) == []
    bad_value = dataclasses.replace(result, stdout=perturb_number(result.stdout, 0, 1e-8))
    assert op.check(bad_value, {})
    # Report the coverage at gamma = 4 as the minimum: its argmin check
    # passes, but reference values near the true minimum lie far below.
    c4 = ref.coverage(ref.SD_DELTA, 4.0, 0.7, D, 0.05)
    line = f"rule=sd_delta c_min={c4:.12g} argmin_gamma=4 grid_step=0.05 refinement_tolerance=1e-07"
    lines = result.stdout.splitlines()
    lines[0] = line
    wrong_min = dataclasses.replace(result, stdout="\n".join(lines) + "\n")
    problems = op.check(wrong_min, {})
    assert problems and all("below c_min" in p for p in problems)


def test_length_check_uses_the_cmin_operation(builder):
    cmin = builder.cmin("cmin for sel", 0.5, 0.2, ("sd_delta", "pms"))
    sel = builder.curve("sel", "sel_delta", 0.5, 0.2, gamma_max=3.0, step=1.0,
                        samples=[0, 1, 2, 3], cmin_name=cmin.name)
    results = {cmin.name: run_op(cmin)}
    result = run_op(sel)
    assert sel.check(result, results) == []
    bad = dataclasses.replace(result, stdout=perturb_cell(result.stdout, 4, 1, 1e-8))
    assert sel.check(bad, results)


def test_mirror_check_rejects_any_difference(builder):
    plus = builder.cmin("plus", 0.6, 0.1, ("sd_delta",))
    minus = builder.cmin("minus", -0.6, 0.1, ("sd_delta",), mirror_of="plus")
    results = {"plus": run_op(plus)}
    result = run_op(minus)
    assert minus.check(result, results) == []
    # Below the 1e-9 accuracy check, but not the same output.
    bad = dataclasses.replace(result, stdout=perturb_number(result.stdout, 0, 1e-11))
    assert any("mirror" in p for p in minus.check(bad, results))


def test_fit_check_rejects_a_moved_interval_end(builder):
    builder.fit("fit", 60, 3)
    op = builder.ops[-1]
    result = run_op(op)
    assert op.check(result, {}) == []
    lines = result.stdout.splitlines()
    sd_line = next(i for i, line in enumerate(lines) if "rule=sd " in line)
    scale = checks.parse_fit(result.stdout)["intervals"]["sd"]["half_width"]
    lines[sd_line] = perturb_number(lines[sd_line], 0, 1e-7 * scale)
    assert op.check(dataclasses.replace(result, stdout="\n".join(lines)), {})


def test_oracle_check_rejects_a_biased_summary(builder):
    op = builder.oracle("oracle", "pms", 1.0, 0.7, 0.1, 200_000)
    result = run_op(op)
    assert op.check(result, {}) == []
    se = math.sqrt(0.9 * 0.1 / 200_000)
    biased = dataclasses.replace(result.value, empirical_coverage=result.value.empirical_coverage
                                 + 8 * se)
    assert op.check(dataclasses.replace(result, value=biased), {})


def test_finite_resample_reference_matches_its_variance_formula():
    # The resampling variance of the select-then-estimate rule, by
    # simulation, against the closed form used for the finite-B bound.
    rng = np.random.default_rng(3)
    h, rho = 0.8, 0.7
    z, z2 = rng.standard_normal((2, 400_000))
    g = h + z
    draws = rho * z + math.sqrt(1 - rho * rho) * z2 - rho * g * (np.abs(g) <= D)
    assert abs(np.var(draws) - ref.resample_variance(h, rho, D)) < 0.01


def test_known_fault_cells_fail_and_the_rest_pass(tmp_path):
    ops = workloads.delta_pms(1, str(tmp_path))
    ops = [op for op in ops if op.known_fault] + [op for op in ops if op.kind == "fit"][:2]
    records = [(run_op(op), 0.0) for op in ops]
    verdicts = run.judge(ops, records)
    assert [bool(v) for v in verdicts] == [op.known_fault for op in ops]
    assert run.unexpected(ops, [verdicts]) == []
    # A known-fault operation that fails in any other way than by
    # inaccuracy is a failure the benchmark reports.
    first = next(i for i, op in enumerate(ops) if op.known_fault)
    mirror = next(i for i, op in enumerate(ops) if op.name == "cmin rho=-0.999")
    minus = records[mirror][0]
    for index, broken in (
            (first, workloads.Result(rc=1, stderr="Traceback")),
            (first, dataclasses.replace(records[first][0], stdout="garbage\n")),
            (mirror, dataclasses.replace(minus, stdout=perturb_number(minus.stdout, 0, 1e-11)))):
        changed = list(records)
        changed[index] = (broken, 0.0)
        assert run.unexpected(ops, [run.judge(ops, changed)])


def test_every_per_layer_metric_is_measured(builder):
    """A traced round through every layer gives each listed metric a nonzero value."""
    cmin = builder.cmin("traced cmin", 0.6, 0.1, ("sd_delta", "pms"))
    ops = [
        cmin,
        builder.curve("traced cp", "cp", 0.6, 0.1, gamma_max=1.0, step=1.0),
        builder.curve("traced sel_delta", "sel_delta", 0.6, 0.1, gamma_max=1.0, step=1.0,
                      cmin_name=cmin.name),
        builder.oracle("traced oracle", "sd", 1.0, 0.6, 0.1, 200),
    ]
    builder.fit("traced fit", 10, 3)
    ops.append(builder.ops[-1])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_round(ops, tracer)
        # No cheap command reaches sel_sd: call it directly.
        from smoothci import intervals, kernel
        intervals.sel_sd(intervals.Scenario(0.5, 0.6), kernel.PretestSpec.from_size(0.1),
                         0.05, 0.9)
    finally:
        tracer.uninstall()
    values = tracer.take_round(run.listed_metrics("per_layer"))
    assert [name for name, value in values.items() if value <= 0] == []


def test_malformed_output_fails_its_operation(builder):
    op = builder.curve("malformed", "cp_pms", 0.7, 0.1, gamma_max=3.0, step=1.0)
    result = run_op(op)
    lines = result.stdout.splitlines()
    lines[2] = lines[2].replace(lines[2].split(",")[1], "nan", 1)
    bad = dataclasses.replace(result, stdout="\n".join(lines))
    (verdict,) = run.judge([op], [(bad, 0.0)])
    assert verdict and "unreadable" in verdict[0]
