"""End-to-end tests of the command-line surface, run as subprocesses."""

import re
import subprocess
import sys

from conftest import src_env

BASE = [sys.executable, "-m", "smoothci"]

X_ROWS = ["1,0", "0,1", "1,0", "0,1"]
Y_ROWS = ["1", "2", "3", "4"]


def cli(*args, cwd=None):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, cwd=cwd,
                          env=src_env())


def write_fit_files(tmp_path, x_rows=X_ROWS, y_rows=Y_ROWS):
    (tmp_path / "X.csv").write_text("\n".join(x_rows) + "\n")
    (tmp_path / "y.csv").write_text("\n".join(y_rows) + "\n")
    (tmp_path / "a.csv").write_text("1,0\n")
    (tmp_path / "b.csv").write_text("0,1\n")
    return [
        "--design", str(tmp_path / "X.csv"),
        "--response", str(tmp_path / "y.csv"),
        "--theta-vec", str(tmp_path / "a.csv"),
        "--tau-vec", str(tmp_path / "b.csv"),
    ]


class TestCurve:
    def test_rho_zero_coverage_is_flat(self):
        res = cli("curve", "--quantity", "cp", "--rho", "0", "--gamma-max", "2",
                  "--step", "0.5")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "gamma,value,quantity,rho,alpha,pretest_size"
        assert len(lines) == 6
        for line in lines[1:]:
            gamma, value, quantity, rho, alpha, a1 = line.split(",")
            assert value == "0.95"
            assert quantity == "cp"
            assert (rho, alpha, a1) == ("0", "0.05", "0.1")

    def test_byte_identical_reruns(self):
        args = ("curve", "--quantity", "cp_delta", "--rho", "0.7",
                "--gamma-max", "1", "--step", "0.25")
        a = cli(*args)
        b = cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_out_file_matches_stdout(self, tmp_path):
        args = ("curve", "--quantity", "cp_pms", "--rho", "0.4",
                "--gamma-max", "1", "--step", "0.5")
        piped = cli(*args)
        path = tmp_path / "c.csv"
        direct = cli(*args, "--out", str(path))
        assert direct.returncode == 0 and direct.stdout == ""
        assert path.read_text() == piped.stdout

    def test_cutoff_d_alternative(self):
        from smoothci.gauss import z_quantile
        a = cli("curve", "--quantity", "cp", "--rho", "0.2", "--gamma-max", "1",
                "--step", "0.5", "--pretest-size", "0.1")
        b = cli("curve", "--quantity", "cp", "--rho", "0.2", "--gamma-max", "1",
                "--step", "0.5", "--cutoff-d", repr(z_quantile(0.95)))
        assert a.stdout == b.stdout

    def test_validation_failures(self):
        assert cli("curve", "--rho", "0").returncode == 1
        assert cli("curve", "--quantity", "cp", "--rho", "1.5").returncode == 1
        assert cli("curve", "--quantity", "cp", "--rho", "0",
                   "--step", "-1").returncode == 1
        pms = ("curve", "--quantity", "cp_pms", "--rho", "0.5")
        for args in (pms + ("--step", "nan"), pms + ("--gamma-max", "inf"),
                     ("figure1", "--rho", "0.5", "--gamma-max", "nan")):
            res = cli(*args)
            assert res.returncode == 1 and f"{args[-2]} must be finite" in res.stderr, args
        assert cli("curve", "--quantity", "cp", "--rho", "0",
                   "--alpha", "1.1").returncode == 1
        assert cli("curve", "--quantity", "nope", "--rho", "0").returncode == 1
        assert cli("curve", "--quantity", "cp", "--rho", "0",
                   "--no-such-flag").returncode == 1

    def test_pretest_flags_mutually_exclusive(self):
        res = cli("curve", "--quantity", "cp", "--rho", "0",
                  "--pretest-size", "0.1", "--cutoff-d", "1.6")
        assert res.returncode == 1

    def test_unwritable_out(self):
        res = cli("curve", "--quantity", "cp", "--rho", "0", "--gamma-max", "1",
                  "--step", "0.5", "--out", "/no/such/dir/x.csv")
        assert res.returncode == 1
        assert "cannot write" in res.stderr

    def test_unknown_subcommand(self):
        assert cli("frobnicate").returncode == 1
        assert cli().returncode == 1


class TestFigure1:
    def test_writes_both_panels(self, tmp_path):
        res = cli("figure1", "--rho", "0.3", "--gamma-max", "1", "--step", "0.5",
                  "--out", str(tmp_path / "fig"))
        assert res.returncode == 0
        top = (tmp_path / "fig_top.csv").read_text().strip().split("\n")
        bottom = (tmp_path / "fig_bottom.csv").read_text().strip().split("\n")
        assert top[0] == "gamma,cp_delta,cp_pms"
        assert bottom[0] == "gamma,sel_delta"
        assert len(top) == len(bottom) == 4

    def test_default_prefix(self, tmp_path):
        res = cli("figure1", "--rho", "0.3", "--gamma-max", "1", "--step", "1",
                  cwd=tmp_path)
        assert res.returncode == 0
        assert (tmp_path / "figure1_top.csv").exists()
        assert (tmp_path / "figure1_bottom.csv").exists()


class TestCmin:
    def test_single_rule_report(self, tmp_path):
        out = tmp_path / "cmin.csv"
        res = cli("cmin", "--rho", "0.7", "--rules", "sd_delta", "--out", str(out))
        assert res.returncode == 0
        line = res.stdout.strip()
        assert line.startswith("rule=sd_delta c_min=0.923255302285")
        assert "argmin_gamma=1.874" in line
        csv_lines = out.read_text().strip().split("\n")
        assert csv_lines[0] == "rule,c_min,argmin_gamma,search_grid_step,refinement_tolerance"
        assert csv_lines[1].startswith("sd_delta,0.923255302285")

    def test_underflowing_minimum_is_reported_as_zero(self):
        # at rho = 0.999 and d = 6 the PMS coverage falls below the
        # smallest double near its minimum (scipy quad: 1.5e-320 at
        # gamma = 1.8), so it is evaluated as exactly 0.0
        res = cli("cmin", "--rho", "0.999", "--cutoff-d", "6", "--rules", "pms")
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("rule=pms c_min=0 ")

    def test_full_model_rejected(self):
        res = cli("cmin", "--rho", "0.7", "--rules", "full_model")
        assert res.returncode == 1
        assert "full_model" in res.stderr

    def test_unknown_rule_rejected(self):
        assert cli("cmin", "--rho", "0.7", "--rules", "bogus").returncode == 1


class TestFit:
    def test_uncorrelated_design_collapses_intervals(self, tmp_path):
        res = cli("fit", *write_fit_files(tmp_path), "--sigma", "1")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "theta_hat=2"
        assert lines[1].startswith("gamma_hat=")
        assert lines[2] == "sigma=1"
        assert lines[3] == "v_theta=0.5"
        assert lines[4] == "v_tau=0.5"
        assert lines[5] == "rho=0"
        assert lines[6].startswith("rss=") and "dof=2" in lines[6]
        intervals = [ln for ln in lines if ln.startswith("interval rule=")]
        assert [ln.split()[1] for ln in intervals] == [
            "rule=sd", "rule=sd_delta", "rule=pms", "rule=full_model"
        ]
        # rho = 0: all four intervals carry identical endpoints
        endpoint_fields = {" ".join(ln.split()[2:4]) for ln in intervals}
        assert len(endpoint_fields) == 1
        assert all("nominal_coverage=0.95" in ln for ln in intervals)

    def test_parse_error_cites_location(self, tmp_path):
        args = write_fit_files(tmp_path, y_rows=["1", "oops", "3", "4"])
        res = cli("fit", *args, "--sigma", "1")
        assert res.returncode == 1
        assert "line 2, column 1" in res.stderr

    def test_singular_design(self, tmp_path):
        args = write_fit_files(tmp_path, x_rows=["1,1", "2,2", "3,3", "4,4"])
        res = cli("fit", *args, "--sigma", "1")
        assert res.returncode == 1
        assert "singular" in res.stderr

    def test_missing_file(self, tmp_path):
        args = write_fit_files(tmp_path)
        (tmp_path / "y.csv").unlink()
        res = cli("fit", *args, "--sigma", "1")
        assert res.returncode == 1

    def test_sigma_validation(self, tmp_path):
        res = cli("fit", *write_fit_files(tmp_path), "--sigma", "-2")
        assert res.returncode == 1
        assert "sigma" in res.stderr


class TestVerify:
    def test_small_run_format_and_determinism(self):
        args = ("verify", "--reps", "2000", "--seed", "9", "--tolerance", "50")
        a = cli(*args)
        b = cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        lines = a.stdout.strip().split("\n")
        assert len(lines) == 55  # 9 cells x 2 rules x 3 stats, plus the verdict
        assert lines[0].startswith("gamma=0 rho=0 rule=sd stat=coverage ")
        assert all(" analytic=" in ln and " mc=" in ln and " z=" in ln
                   for ln in lines[:-1])
        # 2000 replications leave the sd comparison visibly wide
        assert any("(wide se)" in ln for ln in lines)
        assert lines[-1].startswith("verify PASS: 54/54 comparisons within |z| <= 50")
        # z-scores print with three decimals, and one that rounds to
        # zero, as at rho = 0 where the length ratio is exact, as 0.000
        zs = [re.search(r" z=(\S+)", ln).group(1) for ln in lines[:-1]]
        assert all(re.fullmatch(r"-?\d+\.\d{3}", z) for z in zs)
        assert "-0.000" not in zs
        rho0_ratios = [ln for ln in lines if " rho=0 " in ln and "stat=length_ratio" in ln]
        assert len(rho0_ratios) == 6
        assert all(ln.endswith(" z=0.000") for ln in rho0_ratios)
        assert re.search(r"\(worst \|z\| = \d+\.\d{3}, ", lines[-1])

    def test_tiny_tolerance_fails_with_exit_3(self):
        res = cli("verify", "--reps", "2000", "--seed", "9", "--tolerance", "0.001")
        assert res.returncode == 3
        assert "verify FAIL" in res.stdout
        assert " FAIL" in res.stdout

    def test_tolerance_must_be_positive(self):
        assert cli("verify", "--reps", "100", "--tolerance", "0").returncode == 1

    def test_reps_must_be_positive(self):
        assert cli("verify", "--reps", "0").returncode == 1


class TestVerifyAtScale:
    def test_passes_at_default_tolerance(self):
        res = cli("verify", "--reps", "50000", "--seed", "11")
        assert res.returncode == 0
        assert "verify PASS: 54/54" in res.stdout
