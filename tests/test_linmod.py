"""Tests for the least-squares front end and the CSV loaders."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import src_env
from helpers import parse_rows_by_cell

from smoothci import linmod
from smoothci.linmod import (
    Dataset,
    SingularDesignError,
    fit,
    load_dataset,
    load_matrix,
    load_vector,
    residual_check,
)


def fraction_solve(M, rhs):
    """Exact solve of M x = rhs over the rationals, partial pivoting."""
    n = len(M)
    A = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(A[i][col]))
        if A[pivot][col] == 0:
            raise ZeroDivisionError("singular")
        A[col], A[pivot] = A[pivot], A[col]
        for i in range(n):
            if i != col and A[i][col] != 0:
                factor = A[i][col] / A[col][col]
                A[i] = [aij - factor * acj for aij, acj in zip(A[i], A[col])]
    return [A[i][n] / A[i][i] for i in range(n)]


def exact_fit_oracle(X, y, a, b, sigma):
    """The six fit outputs, via exact rational normal equations."""
    n, p = len(X), len(X[0])
    XtX = [[sum(Fraction(X[i][r]) * Fraction(X[i][c]) for i in range(n))
            for c in range(p)] for r in range(p)]
    Xty = [sum(Fraction(X[i][r]) * Fraction(y[i]) for i in range(n)) for r in range(p)]
    beta = fraction_solve(XtX, Xty)
    w_a = fraction_solve(XtX, a)
    w_b = fraction_solve(XtX, b)
    v_theta = sum(Fraction(ai) * wi for ai, wi in zip(a, w_a))
    v_tau = sum(Fraction(bi) * wi for bi, wi in zip(b, w_b))
    cross = sum(Fraction(ai) * wi for ai, wi in zip(a, w_b))
    theta_hat = sum(Fraction(ai) * bi for ai, bi in zip(a, beta))
    tau_hat = sum(Fraction(bi) * be for bi, be in zip(b, beta))
    rho = float(cross) / math.sqrt(float(v_theta) * float(v_tau))
    gamma_hat = float(tau_hat) / (sigma * math.sqrt(float(v_tau)))
    return {
        "theta_hat": float(theta_hat),
        "gamma_hat": gamma_hat,
        "v_theta": float(v_theta),
        "v_tau": float(v_tau),
        "rho": rho,
    }


X_INT = [[1, 0, 1], [1, 1, 0], [1, 1, 1], [1, 2, 1], [1, 0, 0]]
Y_INT = [2, 1, 3, 5, 1]
A_VEC = [0, 1, 0]
B_VEC = [0, 0, 1]


def make_dataset(X=X_INT, y=Y_INT, sigma=1.5, a=A_VEC, b=B_VEC):
    return Dataset(X=X, y=y, sigma=sigma, theta_vec=a, tau_vec=b)


class TestDatasetValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            Dataset(X=[1.0, 2.0], y=[1.0], sigma=1.0, theta_vec=[1.0], tau_vec=[1.0])
        with pytest.raises(ValueError, match="more observations"):
            make_dataset(X=[[1, 0], [0, 1]], y=[1, 2], a=[1, 0], b=[0, 1])
        with pytest.raises(ValueError):
            make_dataset(y=[1, 2, 3])
        with pytest.raises(ValueError):
            make_dataset(a=[1, 0])

    def test_finite_checks(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_dataset(y=[1, 2, math.nan, 4, 5])
        with pytest.raises(ValueError):
            make_dataset(sigma=0.0)
        with pytest.raises(ValueError):
            make_dataset(sigma=math.inf)

    def test_contrast_checks(self):
        with pytest.raises(ValueError, match="nonzero"):
            make_dataset(a=[0, 0, 0])
        with pytest.raises(ValueError, match="parallel"):
            make_dataset(a=[0, 2, 0], b=[0, -1, 0])

    def test_arrays_are_locked(self):
        data = make_dataset()
        with pytest.raises(ValueError):
            data.X[0, 0] = 99.0
        with pytest.raises(ValueError):
            data.y[0] = 99.0

    def test_input_arrays_are_copied(self):
        X = np.array(X_INT, dtype=float)
        data = Dataset(X=X, y=Y_INT, sigma=1.0, theta_vec=A_VEC, tau_vec=B_VEC)
        X[0, 0] = 77.0
        assert data.X[0, 0] == 1.0


class TestFit:
    def test_stacked_identity_design(self):
        # X = [I2; I2]: X'X = 2 I, so everything is known in closed form
        X = [[1, 0], [0, 1], [1, 0], [0, 1]]
        y = [1.0, 2.0, 3.0, 4.0]
        data = Dataset(X=X, y=y, sigma=1.0, theta_vec=[1, 0], tau_vec=[0, 1])
        fm = fit(data)
        assert fm.theta_hat == pytest.approx(2.0, abs=1e-14)
        assert fm.v_theta == pytest.approx(0.5, abs=1e-14)
        assert fm.v_tau == pytest.approx(0.5, abs=1e-14)
        assert fm.rho == 0.0
        assert fm.gamma_hat == pytest.approx(3.0 / math.sqrt(0.5), rel=1e-14)

    def test_orthogonal_columns_give_rho_near_zero(self):
        X = [[1, 1], [1, -1], [1, 1], [1, -1], [1, 1], [1, -1]]
        rng = np.random.default_rng(42)
        data = Dataset(X=X, y=rng.normal(size=6), sigma=2.0,
                       theta_vec=[1, 0], tau_vec=[0, 1])
        assert abs(fit(data).rho) < 1e-14

    def test_against_exact_rational_oracle(self):
        fm = fit(make_dataset())
        oracle = exact_fit_oracle(X_INT, Y_INT, A_VEC, B_VEC, 1.5)
        assert fm.theta_hat == pytest.approx(oracle["theta_hat"], abs=1e-12)
        assert fm.gamma_hat == pytest.approx(oracle["gamma_hat"], abs=1e-12)
        assert fm.v_theta == pytest.approx(oracle["v_theta"], abs=1e-12)
        assert fm.v_tau == pytest.approx(oracle["v_tau"], abs=1e-12)
        assert fm.rho == pytest.approx(oracle["rho"], abs=1e-12)
        assert fm.sigma == 1.5

    def test_general_contrasts_against_oracle(self):
        a = [1, -1, 2]
        b = [0, 1, 1]
        fm = fit(make_dataset(a=a, b=b))
        oracle = exact_fit_oracle(X_INT, Y_INT, a, b, 1.5)
        assert fm.theta_hat == pytest.approx(oracle["theta_hat"], abs=1e-12)
        assert fm.rho == pytest.approx(oracle["rho"], abs=1e-12)

    def test_row_permutation_invariance(self):
        fm = fit(make_dataset())
        perm = [3, 0, 4, 1, 2]
        fm_p = fit(make_dataset(X=[X_INT[i] for i in perm], y=[Y_INT[i] for i in perm]))
        assert fm_p.theta_hat == pytest.approx(fm.theta_hat, abs=1e-12)
        assert fm_p.gamma_hat == pytest.approx(fm.gamma_hat, abs=1e-12)
        assert fm_p.rho == pytest.approx(fm.rho, abs=1e-12)

    def test_joint_scaling_of_y_and_sigma(self):
        base = fit(make_dataset())
        scaled = fit(make_dataset(y=[2.0 * v for v in Y_INT], sigma=3.0))
        assert scaled.theta_hat == pytest.approx(2.0 * base.theta_hat, rel=1e-13)
        assert scaled.gamma_hat == pytest.approx(2.0 / 2.0 * base.gamma_hat, rel=1e-13)
        assert scaled.v_theta == base.v_theta
        assert scaled.rho == base.rho

    def test_duplicate_column_is_singular(self):
        X = [[1, 1], [2, 2], [3, 3]]
        data = Dataset(X=X, y=[1, 2, 3], sigma=1.0, theta_vec=[1, 0], tau_vec=[0, 1])
        with pytest.raises(SingularDesignError):
            fit(data)

    def test_near_duplicate_column_is_singular(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        X[:, 1] += 1e-13 * np.array([1.0, -1.0, 1.0, -1.0])
        data = Dataset(X=X, y=[1, 2, 3, 4], sigma=1.0, theta_vec=[1, 0], tau_vec=[0, 1])
        with pytest.raises(SingularDesignError):
            fit(data)

    def test_singular_design_is_a_value_error(self):
        assert issubclass(SingularDesignError, ValueError)


class TestResidualCheck:
    def test_response_in_column_space(self):
        X = np.array(X_INT, dtype=float)
        y = X @ np.array([1.0, 2.0, -1.0])
        data = Dataset(X=X, y=y, sigma=1.0, theta_vec=A_VEC, tau_vec=B_VEC)
        diag = residual_check(data, fit(data))
        assert diag.rss == pytest.approx(0.0, abs=1e-20)
        assert diag.dof == 2
        assert diag.scaled_ratio == pytest.approx(0.0, abs=1e-20)

    def test_matches_direct_least_squares_residual(self):
        data = make_dataset()
        diag = residual_check(data, fit(data))
        beta, *_ = np.linalg.lstsq(np.array(X_INT, float), np.array(Y_INT, float),
                                   rcond=None)
        resid = np.array(Y_INT, float) - np.array(X_INT, float) @ beta
        assert diag.rss == pytest.approx(float(resid @ resid), abs=1e-12)
        assert diag.scaled_ratio == pytest.approx(diag.rss / (1.5**2 * 2), rel=1e-14)

    def test_ratio_near_one_for_matching_sigma(self):
        rng = np.random.default_rng(7)
        n, p, sigma = 53, 3, 2.5
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        y = X @ rng.normal(size=p) + sigma * rng.standard_normal(n)
        data = Dataset(X=X, y=y, sigma=sigma, theta_vec=[0, 1, 0], tau_vec=[0, 0, 1])
        diag = residual_check(data, fit(data))
        assert diag.dof == 50
        assert 0.4 < diag.scaled_ratio < 1.8


class TestLoaders:
    def test_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        mat = load_matrix(str(path))
        assert mat.shape == (3, 2)
        assert mat[2, 1] == 6.0

    def test_header_skip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x1,x2\n1,2\n3,4\n")
        assert load_matrix(str(path), header=True).shape == (2, 2)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n\n3,4\n")
        assert load_matrix(str(path)).shape == (2, 2)

    def test_bad_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match=r"line 2, column 2"):
            load_matrix(str(path))
        with pytest.raises(ValueError, match="m.csv"):
            load_matrix(str(path))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="expected 2 columns"):
            load_matrix(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            load_matrix(str(path))

    def test_vector_as_column_or_row(self, tmp_path):
        col = tmp_path / "col.csv"
        col.write_text("1\n2\n3\n")
        row = tmp_path / "row.csv"
        row.write_text("1,2,3\n")
        assert np.array_equal(load_vector(str(col)), [1.0, 2.0, 3.0])
        assert np.array_equal(load_vector(str(row)), [1.0, 2.0, 3.0])

    def test_vector_shape_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="single row or a single column"):
            load_vector(str(path))

    def test_load_dataset_assembles(self, tmp_path):
        (tmp_path / "X.csv").write_text("\n".join(",".join(map(str, r)) for r in X_INT))
        (tmp_path / "y.csv").write_text("\n".join(map(str, Y_INT)))
        (tmp_path / "a.csv").write_text("0,1,0\n")
        (tmp_path / "b.csv").write_text("0,0,1\n")
        data = load_dataset(
            str(tmp_path / "X.csv"), str(tmp_path / "y.csv"),
            str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), 1.5,
        )
        fm = fit(data)
        assert fm.sigma == 1.5
        assert fm.theta_hat == pytest.approx(fit(make_dataset()).theta_hat, abs=1e-14)


#: (name, file text, header): the loader's corpus, good and bad files.
LOADER_CORPUS = [
    ("quoted", '"1.5","-2"\n"3e2",4\n', False),
    ("quoted_comma", '"1,5",2\n', False),
    ("quoted_newline_then_bad_cell", '"1\n",2\n3,x\n', False),
    ("quoted_newline_then_ragged", '"1\n",2\n3\n', False),
    ("crlf", "1,2\r\n3,4\r\n", False),
    ("no_final_newline", "1,2\n3,4", False),
    ("blank_and_comma_rows", "\n1,2\n\n,\n3,4\n,,\n\n", False),
    ("whitespace_cells", " 1 ,\t2\n  ,  \n3, 4 \n", False),
    ("whitespace_cell_among_numbers", "1,2\n3,  \n", False),
    ("header_skipped", "x1,x2\n1,2\n3,4\n", True),
    ("header_not_skipped", "x1,x2\n1,2\n3,4\n", False),
    ("header_only", "x1,x2\n", True),
    ("blank_first_line_as_header", "\n1,2\n", True),
    ("ragged", "1,2\n3\n", False),
    ("ragged_wide", "1\n2,3\n", False),
    ("bad_cell", "1,2\n3,oops\n", False),
    ("bad_and_ragged", "1,2\n3,x,5\n", False),
    ("empty", "", False),
    ("only_blank_rows", "\n,\n  \n", False),
    ("nan_inf", "nan,inf\n-inf,-nan\n1e400,-0.0\n", False),
    ("column", "1\n2\n3\n", False),
    # One field past csv.field_size_limit() (131,072 characters).
    ("oversized_field", "x" * 131073 + ",1\n", False),
    ("oversized_header", "x" * 131073 + ",1\n1,2\n", True),
]


def _load_both(path, header):
    """The reference's outcome and the loader's: an array or (type, message)."""
    outcomes = []
    for load in (lambda: np.array(parse_rows_by_cell(path, header), dtype=float),
                 lambda: linmod._parse_rows(path, header)):
        try:
            outcomes.append(load())
        except Exception as exc:  # noqa: BLE001 - the type is compared
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLoaderAgainstCellByCell:
    """``linmod._parse_rows`` against the cell-by-cell loop it replaced."""

    @pytest.mark.parametrize("name,text,header", LOADER_CORPUS,
                             ids=[case[0] for case in LOADER_CORPUS])
    def test_corpus(self, tmp_path, name, text, header):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        ref, new = _load_both(str(path), header)
        if isinstance(ref, tuple):
            assert new == ref
        else:
            assert _same_bits(new, ref)
            assert _same_bits(load_matrix(str(path), header=header), ref)

    @pytest.mark.parametrize("name,where", [
        ("quoted_newline_then_bad_cell", "line 3, column 2"),
        ("quoted_newline_then_ragged", "line 3: expected 2 columns"),
    ])
    def test_errors_name_the_physical_line(self, tmp_path, name, where):
        # The second record ends on the third line: its quoted newline
        # counts.
        path = tmp_path / f"{name}.csv"
        path.write_bytes({case[0]: case[1] for case in LOADER_CORPUS}[name].encode())
        with pytest.raises(ValueError, match=where):
            linmod._parse_rows(str(path), False)

    def test_oversized_field_is_a_value_error_naming_its_line(self, tmp_path):
        # The csv module's own error is not a ValueError; the loader's
        # callers catch ValueError only.
        path = tmp_path / "wide.csv"
        path.write_text("x" * 200000 + ",1\n")
        with pytest.raises(ValueError, match="line 1: field larger than field limit"):
            load_matrix(str(path))

    def test_vectors(self, tmp_path):
        for text in ("1\n2\n3\n", "1,2,3\n", '"4"\r\n\r\n5\r\n'):
            path = tmp_path / "v.csv"
            path.write_bytes(text.encode())
            ref = np.array(parse_rows_by_cell(str(path), False), dtype=float).reshape(-1)
            assert _same_bits(load_vector(str(path)), ref)

    def test_seeded_benchmark_shaped_file(self, tmp_path):
        # 4000 x 8 at %+.17e: every double round-trips through its text.
        rng = np.random.default_rng(20161031)
        X = rng.standard_normal((4000, 8)) * np.exp(rng.uniform(-30, 30, (4000, 8)))
        path = tmp_path / "X.csv"
        np.savetxt(path, X, fmt="%+.17e", delimiter=",")
        ref, new = _load_both(str(path), False)
        assert _same_bits(new, ref)
        assert _same_bits(new, X)

def test_importing_the_package_leaves_scipy_linalg_unloaded():
    # fit imports its triangular solver when it runs, so the commands
    # that never fit start without loading scipy.linalg.
    probe = "import sys, smoothci; print('scipy.linalg' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=src_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
