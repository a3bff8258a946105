"""Least-squares front end.

Takes a design matrix, a response vector, a known error standard
deviation, and the two coefficient vectors defining the parameter of
interest (theta = a' beta) and the restriction being pretested
(tau = b' beta).  Produces the six-number FittedModel summary that the
kernel and interval layers work from.

The normal equations are never formed explicitly: everything runs
through a QR decomposition of the design, and the quadratic forms
a' (X'X)^{-1} a come from triangular solves against the R factor.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .kernel import FittedModel

#: A diagonal entry of R below this multiple of the largest one is
#: treated as numerical rank deficiency.
RANK_RTOL = 1e-10

_PARALLEL_TOL = 1e-12


class SingularDesignError(ValueError):
    """The design matrix is rank deficient beyond numerical slack."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """A regression problem with known error standard deviation.

    Fields
    ------
    X:
        n x p design matrix with linearly independent columns.
    y:
        n-vector of responses.
    sigma:
        Known standard deviation of the i.i.d. normal errors.
    theta_vec:
        p-vector a; the parameter of interest is theta = a' beta.
    tau_vec:
        p-vector b; the pretested restriction is tau = b' beta = 0.

    theta_vec and tau_vec must not be parallel: theta and tau have to
    be genuinely different linear combinations for the pretest problem
    to exist.
    """

    X: np.ndarray
    y: np.ndarray
    sigma: float
    theta_vec: np.ndarray
    tau_vec: np.ndarray

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float).reshape(-1)
        a = np.array(self.theta_vec, dtype=float).reshape(-1)
        b = np.array(self.tau_vec, dtype=float).reshape(-1)
        if X.ndim != 2:
            raise ValueError("Dataset: X must be a 2-d matrix")
        n, p = X.shape
        if p < 1 or n <= p:
            raise ValueError(f"Dataset: need more observations than columns, got n={n}, p={p}")
        if y.size != n:
            raise ValueError(f"Dataset: y has {y.size} entries for {n} rows of X")
        if a.size != p or b.size != p:
            raise ValueError(
                f"Dataset: theta_vec and tau_vec must have {p} entries, "
                f"got {a.size} and {b.size}"
            )
        for name, arr in (("X", X), ("y", y), ("theta_vec", a), ("tau_vec", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"Dataset: {name} contains a non-finite entry")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"Dataset: sigma must be positive and finite, got {self.sigma}")
        na = float(a @ a)
        nb = float(b @ b)
        if na == 0.0 or nb == 0.0:
            raise ValueError("Dataset: theta_vec and tau_vec must be nonzero")
        cos2 = float(a @ b) ** 2 / (na * nb)
        if 1.0 - cos2 <= _PARALLEL_TOL:
            raise ValueError(
                "Dataset: theta_vec and tau_vec are parallel; the parameter of "
                "interest and the pretested restriction must differ"
            )
        for arr in (X, y, a, b):
            arr.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "theta_vec", a)
        object.__setattr__(self, "tau_vec", b)


def _qr(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    Q, R = np.linalg.qr(data.X, mode="reduced")
    diag = np.abs(np.diagonal(R))
    if diag.max() == 0.0 or diag.min() <= RANK_RTOL * diag.max():
        raise SingularDesignError(
            "design matrix is numerically rank deficient "
            f"(smallest/largest R diagonal = {diag.min():.3e}/{diag.max():.3e})"
        )
    return Q, R


def fit(data: Dataset) -> FittedModel:
    """Least-squares fit reduced to the six numbers the intervals need.

    beta_hat solves the normal equations; theta_hat = a' beta_hat and
    tau_hat = b' beta_hat; the variance factors are the quadratic
    forms a' (X'X)^{-1} a, computed via triangular solves; rho is
    their normalized cross term, clipped into [-1, 1] against rounding;
    gamma_hat standardizes tau_hat by its known standard deviation.
    """
    # Imported here so that importing the package leaves scipy.linalg,
    # which only this fit needs, unloaded.
    from scipy.linalg import solve_triangular

    Q, R = _qr(data)
    beta = solve_triangular(R, Q.T @ data.y)
    u_a = solve_triangular(R, data.theta_vec, trans="T")
    u_b = solve_triangular(R, data.tau_vec, trans="T")
    v_theta = float(u_a @ u_a)
    v_tau = float(u_b @ u_b)
    rho = float(u_a @ u_b) / math.sqrt(v_theta * v_tau)
    rho = min(1.0, max(-1.0, rho))
    theta_hat = float(data.theta_vec @ beta)
    tau_hat = float(data.tau_vec @ beta)
    gamma_hat = tau_hat / (data.sigma * math.sqrt(v_tau))
    return FittedModel(
        theta_hat=theta_hat,
        gamma_hat=gamma_hat,
        sigma=data.sigma,
        v_theta=v_theta,
        v_tau=v_tau,
        rho=rho,
    )


@dataclass(frozen=True)
class ResidualDiagnostic:
    """Informational residual summary; sigma is known and never re-estimated."""

    rss: float
    dof: int
    scaled_ratio: float


def residual_check(data: Dataset, fit_result: FittedModel) -> ResidualDiagnostic:
    """Residual sum of squares and RSS / (sigma^2 (n - p)).

    Under the assumed model the ratio is a chi-square on n - p degrees
    of freedom divided by its mean, so values far from 1 hint that the
    declared sigma does not match the data.  Purely informational.
    """
    Q, _ = _qr(data)
    resid = data.y - Q @ (Q.T @ data.y)
    rss = float(resid @ resid)
    n, p = data.X.shape
    dof = n - p
    return ResidualDiagnostic(
        rss=rss,
        dof=dof,
        scaled_ratio=rss / (fit_result.sigma**2 * dof),
    )


def _parse_rows(path: str, header: bool) -> np.ndarray:
    """The numbers of a CSV file as a rows x columns float array.

    Each row converts in one call.  Only a row that fails it is looked
    at cell by cell: a row whose cells are all blank is skipped (a
    blank cell never parses), any other names its first bad cell.  An
    error names the physical line its record ends on, which a quoted
    newline puts past the record's number.
    """
    flat: list[float] = []
    width = None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        if header:
            next(reader, None)
        for row in reader:
            if not row:
                continue
            try:
                vals = list(map(float, row))
            except ValueError:
                if all(cell.strip() == "" for cell in row):
                    continue
                for colno, cell in enumerate(row, start=1):
                    try:
                        float(cell)
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {reader.line_num}, column {colno}: "
                            f"cannot parse {cell.strip()!r} as a number"
                        ) from None
                raise
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected {width} columns, got {len(vals)}"
                )
            flat += vals
    if width is None:
        raise ValueError(f"{path}: no data rows")
    return np.array(flat).reshape(-1, width)


def load_matrix(path: str, *, header: bool = False) -> np.ndarray:
    """Read a CSV file of numbers, one matrix row per line."""
    return _parse_rows(path, header)


def load_vector(path: str, *, header: bool = False) -> np.ndarray:
    """Read a CSV file holding a vector, as either one column or one row."""
    mat = _parse_rows(path, header)
    if mat.shape[0] == 1 or mat.shape[1] == 1:
        return mat.reshape(-1)
    raise ValueError(
        f"{path}: expected a single row or a single column, got shape {mat.shape[0]}x{mat.shape[1]}"
    )


def load_dataset(
    design_path: str,
    response_path: str,
    theta_vec_path: str,
    tau_vec_path: str,
    sigma: float,
    *,
    header: bool = False,
) -> Dataset:
    """Assemble a Dataset from four CSV files and a known sigma."""
    return Dataset(
        X=load_matrix(design_path, header=header),
        y=load_vector(response_path, header=header),
        sigma=sigma,
        theta_vec=load_vector(theta_vec_path, header=header),
        tau_vec=load_vector(tau_vec_path, header=header),
    )
