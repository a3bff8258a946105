"""Parsers for the program's outputs and the checks applied to them.

Every check returns a list of problems; an empty list means the output
passed.  Values are compared with the independent reference in
``reference.py`` or with a property the method must have, never with a
stored copy of the program's own output.
"""

from __future__ import annotations

import math

import numpy as np

#: Accuracy the package promises for every analytic quantity.
TOL = 1e-9
#: Rounding slack of the CLI's 12-significant-digit output.
PRINT_SLACK = 1e-11
#: Monte Carlo bound in standard errors.  A run makes at most a few
#: hundred comparisons; with |z| <= 6 each, the chance that a correct
#: program fails any of them is below 1e-6 (Bonferroni).
MC_Z = 6.0
CMIN_FIELDS = ("c_min", "argmin_gamma", "grid_step", "refinement_tolerance")
FIT_FIELDS = ("theta_hat", "gamma_hat", "sigma", "v_theta", "v_tau", "rho")
INTERVAL_FIELDS = ("lower", "upper", "center", "half_width", "nominal_coverage")
FIT_RULES = ("sd", "sd_delta", "pms", "full_model")
COVERAGE_QUANTITIES = ("cp", "cp_delta", "cp_pms")


class OutputError(ValueError):
    """An output could not be parsed into the expected shape."""


class Inaccuracy(str):
    """A problem that is only a value off its reference by more than its tolerance.

    A known-fault operation is expected to fail this way and no other.
    """


def grid(gamma_max: float, step: float) -> np.ndarray:
    """The gamma grid the CLI tabulates on."""
    n = int(math.floor(gamma_max / step + 1e-9))
    return np.arange(n + 1) * step


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise OutputError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise OutputError(f"non-finite value: {text!r}")
    return value


def parse_columns(text: str, header: str, gammas: np.ndarray,
                  text_columns: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
    """Columns of a CSV table under an exact header whose first column is the grid."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise OutputError(f"expected header {header!r}, got {lines[:1]!r}")
    names = header.split(",")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != gammas.size or any(len(row) != len(names) for row in rows):
        raise OutputError(f"expected {gammas.size} rows of {len(names)} cells")
    out = {}
    for j, name in enumerate(names):
        cells = [row[j] for row in rows]
        out[name] = np.array(cells if name in text_columns else [_float(c) for c in cells])
    if not np.allclose(out[names[0]], gammas, rtol=PRINT_SLACK, atol=PRINT_SLACK):
        raise OutputError("gamma column does not match the requested grid")
    return out


def parse_curve(text: str, gammas: np.ndarray) -> dict[str, np.ndarray]:
    return parse_columns(text, "gamma,value,quantity,rho,alpha,pretest_size", gammas,
                         text_columns=("quantity",))


def parse_cmin(text: str) -> dict[str, dict[str, float]]:
    """rule -> {c_min, argmin_gamma, grid_step, refinement_tolerance}."""
    out = {}
    for line in text.splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
        if set(fields) != {"rule", *CMIN_FIELDS}:
            raise OutputError(f"malformed cmin line {line!r}")
        out[fields["rule"]] = {name: _float(fields[name]) for name in CMIN_FIELDS}
    return out


def parse_fit(text: str) -> dict:
    """The fitted summary, the residual line and the four intervals."""
    summary: dict = {}
    intervals: dict = {}
    for line in text.splitlines():
        if line.startswith("interval "):
            fields = dict(tok.split("=", 1) for tok in line.split()[1:])
            rule = fields.pop("rule", "?")
            intervals[rule] = {k: _float(v) for k, v in fields.items()}
        else:
            for tok in line.split():
                name, _, value = tok.partition("=")
                summary[name] = _float(value)
    missing = [n for n in FIT_FIELDS + ("rss", "dof", "scaled_ratio") if n not in summary]
    if missing or sorted(intervals) != sorted(FIT_RULES):
        raise OutputError(f"fit output incomplete (missing {missing}, rules {sorted(intervals)})")
    for rule, fields in intervals.items():
        if set(fields) != set(INTERVAL_FIELDS):
            raise OutputError(f"interval {rule}: fields {sorted(fields)}")
    summary["intervals"] = intervals
    return summary


def close(label: str, got: float, want: float, tol: float = TOL) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [Inaccuracy(f"{label}: got {got!r}, reference {want!r}, "
                       f"|diff| {abs(got - want):.3e} > {tol:.0e}")]


def check_values(label: str, values: np.ndarray, gammas: np.ndarray, quantity: str,
                 samples, reference) -> list[str]:
    """Range of every value, and the sampled ones against the reference."""
    problems = []
    if quantity in COVERAGE_QUANTITIES:
        if np.any(values < 0.0) or np.any(values > 1.0):
            problems.append(f"{label}: coverage outside [0, 1]")
    elif np.any(values <= 0.0):
        problems.append(f"{label}: non-positive length ratio")
    for i in samples:
        problems += close(f"{label} at gamma={gammas[i]:.6g}", float(values[i]),
                          reference(float(gammas[i])))
    return problems


def check_flat(label: str, values: np.ndarray, level: float) -> list[str]:
    """Coverage at rho = 0 is 1 - alpha at every gamma, to the printed digits."""
    worst = float(np.max(np.abs(values - level)))
    if worst > PRINT_SLACK:
        return [f"{label}: rho = 0 coverage departs from {level} by {worst:.3e}"]
    return []


def check_same(label: str, got: str, want: str) -> list[str]:
    """Exact equality of two outputs (evenness in rho)."""
    if got != want:
        return [f"{label}: output differs from its mirror image in rho"]
    return []


def check_cmin(label: str, report: dict[str, float], at_argmin: float,
               sampled: list[tuple[float, float]]) -> list[str]:
    """c_min equals the reference coverage at its argmin, and nothing sampled is lower."""
    c_min, argmin = report["c_min"], report["argmin_gamma"]
    problems = []
    if not (0.0 < c_min < 1.0 and argmin >= 0.0):
        problems.append(f"{label}: c_min {c_min} or argmin {argmin} out of range")
    problems += close(f"{label} c_min at argmin {argmin:.6g}", c_min, at_argmin)
    for g, v in sampled:
        if v < c_min - TOL:
            problems.append(Inaccuracy(
                f"{label}: reference coverage {v!r} at gamma={g:.6g} lies "
                f"{c_min - v:.3e} below c_min {c_min!r}"
            ))
    return problems


def check_fit(label: str, got: dict, ref: dict, ref_intervals: dict, alpha: float) -> list[str]:
    """Summary, residual line and all four intervals against the normal equations."""
    scale = ref["sigma"] * math.sqrt(ref["v_theta"])
    problems = []
    for name, tol in (("theta_hat", TOL * scale), ("gamma_hat", TOL), ("rho", TOL),
                      ("sigma", TOL * ref["sigma"]), ("v_theta", TOL * ref["v_theta"]),
                      ("v_tau", TOL * ref["v_tau"]), ("rss", TOL * ref["rss"]),
                      ("scaled_ratio", TOL * ref["scaled_ratio"])):
        problems += close(f"{label} {name}", got[name], ref[name], tol)
    if got["dof"] != ref["dof"]:
        problems.append(f"{label}: dof {got['dof']} != {ref['dof']}")
    for rule, (lower, upper) in ref_intervals.items():
        rep = got["intervals"][rule]
        for name, want in (("lower", lower), ("upper", upper),
                           ("center", 0.5 * (lower + upper)),
                           ("half_width", 0.5 * (upper - lower)),
                           ("nominal_coverage", 1.0 - alpha)):
            problems += close(f"{label} {rule} {name}", rep[name], want, TOL * scale)
    return problems


def check_oracle(label: str, summary, ref: dict, replications: int) -> list[str]:
    """Each simulated summary within MC_Z standard errors of the reference."""
    problems = []
    root_n = math.sqrt(replications)
    for name in ("mean_estimate", "sd_estimate", "empirical_coverage", "mean_length"):
        got = getattr(summary, name)
        bound = (MC_Z * ref["spread"][name] / root_n
                 + ref["allowance"].get(name, 0.0) + 1e-12)
        problems += close(f"{label} {name}", got, ref[name], bound)
    return problems
