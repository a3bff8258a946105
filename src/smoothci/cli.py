"""Command-line surface: one handler per subcommand.

``main`` registers the invoked subcommand's flags (_build_parser), checks
them and adds their parsed values to the namespace (_check_args), and
calls the subcommand's ``cmd_*`` handler with that namespace.  It turns
a validation error into exit code 1 and a numeric failure into 2.  The
text of ``smoothci -h`` is _build_parser's description, so editing this
docstring leaves the help unchanged.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterable

import numpy as np

from . import linmod, oracle
from .intervals import (
    _COVERAGE_BY_RULE,
    _SEL_BY_RULE,
    REFINEMENT_TOL,
    SEARCH_GRID_STEP,
    CurveTable,
    IntervalRule,
    Quantity,
    Scenario,
    build_interval,
    curve,
    min_coverage,
)
from .gauss import _z_alpha, _z_level
from .kernel import PretestSpec, r

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3
#: Exit status of the ``smoothci`` program (not of ``main``) when the
#: reader of stdout closes it early: 128 + SIGPIPE, as a shell reports
#: a filter that SIGPIPE ended.
EXIT_BROKEN_PIPE = 141

#: Fixed comparison grid of the verification suite.
VERIFY_GAMMAS = (0.0, 1.0, 3.0)
VERIFY_RHOS = (0.0, 0.4, 0.7)
#: A Monte Carlo standard error above this is flagged as wide in the
#: verify report (comparison still runs).
WIDE_SE = 0.005
#: Size of the preliminary test when neither --pretest-size nor
#: --cutoff-d is given.
DEFAULT_PRETEST_SIZE = 0.1


class CLIError(Exception):
    """Bad flags or unreadable/unwritable files; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit on bad flags."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CLIError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _add_pretest(p: _Parser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pretest-size", type=float, default=None,
                       help="size of the preliminary test "
                            f"(default {DEFAULT_PRETEST_SIZE:g})")
    group.add_argument("--cutoff-d", type=float, default=None,
                       help="cutoff d of the preliminary test (alternative to --pretest-size)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="1 - nominal coverage (default %(default)g)")


def _add_grid(p: _Parser) -> None:
    p.add_argument("--gamma-max", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.05)


def _curve_flags(p: _Parser) -> None:
    p.add_argument("--quantity", required=True, choices=[q.value for q in Quantity])
    p.add_argument("--rho", type=float, required=True)
    _add_pretest(p)
    _add_grid(p)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")


def _figure1_flags(p: _Parser) -> None:
    p.add_argument("--rho", type=float, default=0.7)
    _add_pretest(p)
    _add_grid(p)
    p.add_argument("--out", default="figure1",
                   help="output prefix; writes PREFIX_top.csv and PREFIX_bottom.csv")


def _cmin_flags(p: _Parser) -> None:
    p.add_argument("--rho", type=float, required=True)
    _add_pretest(p)
    p.add_argument("--rules", default="sd,sd_delta,pms",
                   help="comma-separated rules (default %(default)s)")
    p.add_argument("--out", default=None, help="optional CSV path")


def _fit_flags(p: _Parser) -> None:
    p.add_argument("--design", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--theta-vec", required=True)
    p.add_argument("--tau-vec", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--header", action="store_true",
                   help="input CSV files carry a header row")
    _add_pretest(p)


def _verify_flags(p: _Parser) -> None:
    _add_pretest(p)
    p.add_argument("--reps", type=int, dest="replications", metavar="REPS",
                   default=oracle.DEFAULT_REPLICATIONS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=3.0,
                   help="|z| threshold for each comparison (default %(default)g)")


def _build_parser(commands: Iterable[str]) -> _Parser:
    """The parser with the subparsers of ``commands`` registered, in order.

    ``main`` registers only the invoked subcommand, as the others cannot
    change how its arguments parse; without one (no command, an unknown
    one, ``-h``) it registers all, for the top-level help and errors.
    """
    parser = _Parser(prog="smoothci", add_help=True, description=(
        "Command-line surface.\n\n"
        "Subcommands:\n\n"
        "* ``curve``: tabulate one coverage or length quantity on a gamma grid.\n"
        "* ``figure1``: the headline two-panel dataset (coverage of the\n"
        "  delta-method smoothed interval and of the naive post-selection\n"
        "  interval, plus scaled expected length) at the default configuration.\n"
        "* ``cmin``: minimum coverage reports for the requested rules.\n"
        "* ``fit``: fit a dataset from CSV files and print the four intervals.\n"
        "* ``verify``: Monte Carlo versus analytic agreement suite.\n\n"
        "All numeric output is printed with 12 significant digits and fixed\n"
        "column order, so identical flags give byte-identical output.  Exit\n"
        "codes: 0 success, 1 validation error, 2 numeric failure, 3\n"
        "verification failure.\n"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        _, summary, add_flags = _COMMANDS[name]
        add_flags(sub.add_parser(name, help=summary))
    return parser


def _beyond_precision(flag: str, value: float, exc: ValueError) -> CLIError:
    # A value inside the flag's domain whose conversion still fails: the
    # double-precision arithmetic of that conversion is what runs out.
    return CLIError(f"{flag} {value} is outside what double precision resolves: {exc}")


def _resolve_spec(args: argparse.Namespace) -> PretestSpec:
    if args.cutoff_d is not None:
        flag, value, make = "--cutoff-d", args.cutoff_d, PretestSpec.from_cutoff
        in_domain = math.isfinite(value) and value > 0.0
    else:
        size = DEFAULT_PRETEST_SIZE if args.pretest_size is None else args.pretest_size
        flag, value, make = "--pretest-size", size, PretestSpec.from_size
        in_domain = 0.0 < size < 1.0
    try:
        return make(value)
    except ValueError as exc:
        if in_domain:
            raise _beyond_precision(flag, value, exc) from exc
        raise CLIError(str(exc)) from exc


def _check_args(args: argparse.Namespace) -> None:
    """Check the flags ``args.command`` has and set the parsed values its
    handler reads: ``args.spec`` always and ``args.rules`` for cmin.
    ``args.quantity`` stays the string argparse's choices admitted;
    curve converts it."""
    command = args.command
    args.spec = _resolve_spec(args)
    alpha = args.alpha
    if not 0.0 < alpha < 1.0:
        raise CLIError(f"--alpha must be in (0, 1), got {alpha}")
    try:
        _z_alpha(alpha)
    except ValueError as exc:
        raise _beyond_precision("--alpha", alpha, exc) from exc

    if command in ("curve", "figure1"):
        for flag, value in (("--gamma-max", args.gamma_max), ("--step", args.step)):
            if not math.isfinite(value):
                raise CLIError(f"{flag} must be finite, got {value}")
        if args.step <= 0.0:
            raise CLIError(f"--step must be positive, got {args.step}")
        if args.gamma_max < args.step:
            raise CLIError(f"--gamma-max must be at least --step, got {args.gamma_max}")
    if command in ("curve", "figure1", "cmin"):
        try:
            Scenario(0.0, args.rho)
        except ValueError as exc:
            raise CLIError(f"--rho: {exc}") from exc

    if command == "cmin":
        try:
            rules = tuple(IntervalRule(tok.strip()) for tok in args.rules.split(",") if tok.strip())
        except ValueError as exc:
            raise CLIError(f"--rules: {exc}") from exc
        if not rules:
            raise CLIError("--rules: no rule named")
        if IntervalRule.FULL_MODEL in rules:
            raise CLIError("--rules: full_model has constant coverage, nothing to minimize")
        args.rules = rules
    elif command == "verify":
        if args.replications < 1:
            raise CLIError(f"--reps must be >= 1, got {args.replications}")
        if not 0 <= args.seed < 2**64:
            raise CLIError("--seed must be a nonnegative 64-bit integer")
        if not args.tolerance > 0.0:
            raise CLIError(f"--tolerance must be positive, got {args.tolerance}")
    elif command == "fit":
        if not (math.isfinite(args.sigma) and args.sigma > 0.0):
            raise CLIError(f"--sigma must be positive, got {args.sigma}")


def _emit(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc}") from exc


def _curve_rows(table: CurveTable, args: argparse.Namespace) -> list[str]:
    meta = (table.quantity.value, _fmt(args.rho), _fmt(args.alpha), _fmt(args.spec.alpha1))
    return [
        ",".join((_fmt(g), _fmt(v)) + meta)
        for g, v in zip(table.gammas, table.values)
    ]


def cmd_curve(args: argparse.Namespace) -> int:
    """Write one quantity's gamma grid as CSV."""
    table = curve(args.quantity, args.rho, args.spec, args.alpha, args.gamma_max, args.step)
    _emit(args.out, ["gamma,value,quantity,rho,alpha,pretest_size"] + _curve_rows(table, args))
    return EXIT_OK


def cmd_figure1(args: argparse.Namespace) -> int:
    """Write the two-panel dataset: coverage curves and length curve."""
    grid = (args.rho, args.spec, args.alpha, args.gamma_max, args.step)
    top_delta = curve(Quantity.CP_DELTA, *grid)
    top_pms = curve(Quantity.CP_PMS, *grid)
    bottom = curve(Quantity.SEL_DELTA, *grid)
    top_lines = ["gamma,cp_delta,cp_pms"] + [
        ",".join((_fmt(g), _fmt(cd), _fmt(cp)))
        for g, cd, cp in zip(top_delta.gammas, top_delta.values, top_pms.values)
    ]
    bottom_lines = ["gamma,sel_delta"] + [
        ",".join((_fmt(g), _fmt(v))) for g, v in zip(bottom.gammas, bottom.values)
    ]
    _emit(f"{args.out}_top.csv", top_lines)
    _emit(f"{args.out}_bottom.csv", bottom_lines)
    return EXIT_OK


def cmd_cmin(args: argparse.Namespace) -> int:
    """Print the minimum-coverage report for each requested rule."""
    rows = []
    for rule in args.rules:
        rep = min_coverage(args.rho, args.spec, args.alpha, rule)
        rows.append((rule.value, _fmt(rep.c_min), _fmt(rep.argmin_gamma),
                     _fmt(SEARCH_GRID_STEP), _fmt(REFINEMENT_TOL)))
    for row in rows:
        print("rule={} c_min={} argmin_gamma={} grid_step={} refinement_tolerance={}"
              .format(*row))
    if args.out is not None:
        _emit(args.out, ["rule,c_min,argmin_gamma,search_grid_step,refinement_tolerance"]
              + [",".join(row) for row in rows])
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    """Fit the CSV inputs and print the model summary and all intervals."""
    try:
        data = linmod.load_dataset(
            args.design,
            args.response,
            args.theta_vec,
            args.tau_vec,
            args.sigma,
            header=args.header,
        )
    except (OSError, ValueError) as exc:
        raise CLIError(str(exc)) from exc
    try:
        fitted = linmod.fit(data)
    except linmod.SingularDesignError as exc:
        raise CLIError(f"singular design: {exc}") from exc
    diag = linmod.residual_check(data, fitted)
    # Every interval is built before anything prints, so a rule that
    # fails leaves stdout empty.
    reports = [build_interval(fitted, args.spec, args.alpha, rule)
               for rule in (IntervalRule.SD, IntervalRule.SD_DELTA, IntervalRule.PMS,
                            IntervalRule.FULL_MODEL)]
    for name in ("theta_hat", "gamma_hat", "sigma", "v_theta", "v_tau", "rho"):
        print(f"{name}={_fmt(getattr(fitted, name))}")
    print(f"rss={_fmt(diag.rss)} dof={diag.dof} scaled_ratio={_fmt(diag.scaled_ratio)}")
    for report in reports:
        print(
            f"interval rule={report.rule.value} lower={_fmt(report.lower)} "
            f"upper={_fmt(report.upper)} center={_fmt(report.center)} "
            f"half_width={_fmt(report.half_width)} "
            f"nominal_coverage={_fmt(report.nominal_coverage)}"
        )
    return EXIT_OK


def _fmt_z(z: float) -> str:
    # Three decimals: a z-score's finer digits are rounding noise.
    text = format(z, ".3f")
    return "0.000" if text == "-0.000" else text


def _verify_z(diff: float, se: float, analytic: float) -> float:
    """diff in Monte Carlo standard errors, widened by the analytic side's
    documented 1e-9 accuracy (relative above 1), so a Monte Carlo value
    with no spread at all is compared within that accuracy."""
    return diff / math.hypot(se, 1e-9 * max(1.0, abs(analytic)))


def cmd_verify(args: argparse.Namespace) -> int:
    """Compare Monte Carlo estimates against the analytic formulas.

    For each grid cell and each smoothed-interval rule the suite
    compares empirical coverage, the empirical standard deviation of
    the smoothed estimate, and the empirical mean length ratio against
    their analytic counterparts, each as a z-score in Monte Carlo
    standard errors.  Fails (exit 3) if any |z| exceeds the tolerance.
    Each z prints with three decimals (one that rounds to zero as
    0.000); the tolerance is checked on the unrounded value.
    """
    rules = (IntervalRule.SD, IntervalRule.SD_DELTA)
    # One seed per (rho, gamma, rule), taken in the order the loops run.
    seeds = iter(np.random.SeedSequence(args.seed).generate_state(
        len(VERIFY_RHOS) * len(VERIFY_GAMMAS) * len(rules), dtype=np.uint64
    ))
    worst = 0.0
    failures = 0
    comparisons = 0
    for rho in VERIFY_RHOS:
        # The analytic side is one array call over the gamma grid per
        # rule.  Both rules center on the same smoothed estimate, whose
        # exact standard deviation is r; r_delta only shapes the
        # interval width, so the sd comparison is always against r.
        grid = Scenario(np.array(VERIFY_GAMMAS), rho)
        sd_true = r(grid.gamma, rho, args.spec)
        analytic_by_rule = {}
        for rule in rules:
            c_min = min_coverage(rho, args.spec, args.alpha, rule).c_min
            analytic_by_rule[rule] = (
                c_min,
                _COVERAGE_BY_RULE[rule](grid, args.spec, args.alpha),
                _SEL_BY_RULE[rule](grid, args.spec, args.alpha, c_min),
            )
        for g_idx, gamma in enumerate(VERIFY_GAMMAS):
            scenario = Scenario(gamma, rho)
            for rule in rules:
                c_min, cp, sel_true = analytic_by_rule[rule]
                plan = oracle.SimPlan(
                    replications=args.replications,
                    seed=int(next(seeds)),
                    scenario=scenario,
                    spec=args.spec,
                    alpha=args.alpha,
                )
                summary = oracle.run(plan, rule)
                denom = 2.0 * _z_level(c_min)
                ratio = summary.mean_length / denom
                ratio_se = summary.standard_errors.mean_length / denom
                checks = (
                    ("coverage", cp[g_idx], summary.empirical_coverage,
                     summary.standard_errors.empirical_coverage),
                    ("sd", sd_true[g_idx], summary.sd_estimate,
                     summary.standard_errors.sd_estimate),
                    ("length_ratio", sel_true[g_idx], ratio, ratio_se),
                )
                for stat, analytic, mc, se in checks:
                    z = _verify_z(mc - analytic, se, analytic)
                    comparisons += 1
                    worst = max(worst, abs(z))
                    flag = ""
                    if abs(z) > args.tolerance:
                        failures += 1
                        flag = " FAIL"
                    elif se > WIDE_SE:
                        flag = " (wide se)"
                    print(
                        f"gamma={_fmt(gamma)} rho={_fmt(rho)} rule={rule.value} "
                        f"stat={stat} analytic={_fmt(analytic)} mc={_fmt(mc)} "
                        f"se={_fmt(se)} z={_fmt_z(z)}{flag}"
                    )
    verdict = "PASS" if failures == 0 else "FAIL"
    print(
        f"verify {verdict}: {comparisons - failures}/{comparisons} comparisons within "
        f"|z| <= {_fmt(args.tolerance)} (worst |z| = {_fmt_z(worst)}, "
        f"replications = {args.replications})"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY


#: Subcommand name -> (handler, help summary, flag builder), in the
#: order ``smoothci -h`` lists them.  Each handler reads the namespace
#: its subparser parsed, once ``_check_args`` has checked it.
_COMMANDS = {
    "curve": (cmd_curve, "tabulate one quantity over a gamma grid", _curve_flags),
    "figure1": (cmd_figure1, "emit the two-panel headline dataset", _figure1_flags),
    "cmin": (cmd_cmin, "minimum coverage report per rule", _cmin_flags),
    "fit": (cmd_fit, "fit CSV data and print the four intervals", _fit_flags),
    "verify": (cmd_verify, "Monte Carlo vs analytic agreement suite", _verify_flags),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
        _check_args(args)
        return _COMMANDS[args.command][0](args)
    except (CLIError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
