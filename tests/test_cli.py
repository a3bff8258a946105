"""Tests of the command-line surface.

Most run ``cli.main(argv)`` in this process, capturing stdout and
stderr; ``TestEntryPoint`` runs ``python -m smoothci`` once per
subcommand, for the program's exit codes and its broken-pipe exit.
"""

import argparse
import pathlib
import re
import subprocess
import sys
from dataclasses import dataclass

import pytest
from conftest import src_env

from smoothci import cli as cli_module

BASE = [sys.executable, "-m", "smoothci"]

DATA_DIR = pathlib.Path(__file__).parent / "data"
X_ROWS = ["1,0", "0,1", "1,0", "0,1"]
Y_ROWS = ["1", "2", "3", "4"]


@dataclass
class Result:
    returncode: int
    stdout: str
    stderr: str


def run_program(*args, cwd=None):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, cwd=cwd,
                          env=src_env())


@pytest.fixture
def cli(capsys, monkeypatch):
    """``cli(*args, cwd=None)``: one ``cli.main`` call, as a Result."""

    def run(*args, cwd=None):
        if cwd is not None:
            monkeypatch.chdir(cwd)
        capsys.readouterr()
        code = cli_module.main(list(args))
        out, err = capsys.readouterr()
        return Result(code, out, err)

    return run


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
    def test_rho_zero_coverage_is_flat(self, cli):
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

    def test_metadata_columns_echo_the_flags(self, cli):
        res = cli("curve", "--quantity", "sel", "--rho", "-0.4", "--alpha", "0.1",
                  "--cutoff-d", "2", "--gamma-max", "1", "--step", "0.5")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert len(lines) == 4
        # 2 Phi(-2) is the size of the pretest with cutoff 2.
        for line in lines[1:]:
            assert line.split(",")[2:] == ["sel", "-0.4", "0.1", "0.0455002638964"]

    def test_byte_identical_reruns(self, cli):
        args = ("curve", "--quantity", "cp_delta", "--rho", "0.7",
                "--gamma-max", "1", "--step", "0.25")
        a = cli(*args)
        b = cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_out_file_matches_stdout(self, cli, tmp_path):
        args = ("curve", "--quantity", "cp_pms", "--rho", "0.4",
                "--gamma-max", "1", "--step", "0.5")
        piped = cli(*args)
        path = tmp_path / "c.csv"
        direct = cli(*args, "--out", str(path))
        assert direct.returncode == 0 and direct.stdout == ""
        assert path.read_text() == piped.stdout

    def test_cutoff_d_alternative(self, cli):
        from smoothci.gauss import z_quantile
        a = cli("curve", "--quantity", "cp", "--rho", "0.2", "--gamma-max", "1",
                "--step", "0.5", "--pretest-size", "0.1")
        b = cli("curve", "--quantity", "cp", "--rho", "0.2", "--gamma-max", "1",
                "--step", "0.5", "--cutoff-d", repr(z_quantile(0.95)))
        assert a.stdout == b.stdout

    def test_validation_failures(self, cli):
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

    def test_length_refuses_a_c_min_at_the_rounding_floor(self, cli):
        # At rho 0.999 and d 30 the SD_DELTA minimum coverage is a few
        # ulps of 1, the rounding of its integral, so no length is
        # normalized by it.
        res = cli("curve", "--quantity", "sel_delta", "--rho", "0.999", "--cutoff-d", "30",
                  "--gamma-max", "1", "--step", "0.5")
        assert res.returncode == 1 and res.stdout == ""
        lines = res.stderr.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error: scaled expected length: "
                                                       "c_min = "), res.stderr
        assert "is below 1e-06" in lines[0]

    def test_pretest_flags_mutually_exclusive(self, cli):
        res = cli("curve", "--quantity", "cp", "--rho", "0",
                  "--pretest-size", "0.1", "--cutoff-d", "1.6")
        assert res.returncode == 1

    def test_unwritable_out(self, cli):
        res = cli("curve", "--quantity", "cp", "--rho", "0", "--gamma-max", "1",
                  "--step", "0.5", "--out", "/no/such/dir/x.csv")
        assert res.returncode == 1
        assert "cannot write" in res.stderr

    def test_unknown_subcommand(self, cli):
        assert cli("frobnicate").returncode == 1
        assert cli().returncode == 1


class TestFigure1:
    def test_writes_both_panels(self, cli, tmp_path):
        res = cli("figure1", "--rho", "0.3", "--gamma-max", "1", "--step", "0.5",
                  "--out", str(tmp_path / "fig"))
        assert res.returncode == 0
        top = (tmp_path / "fig_top.csv").read_text().strip().split("\n")
        bottom = (tmp_path / "fig_bottom.csv").read_text().strip().split("\n")
        assert top[0] == "gamma,cp_delta,cp_pms"
        assert bottom[0] == "gamma,sel_delta"
        assert len(top) == len(bottom) == 4

    def test_default_prefix(self, cli, tmp_path):
        res = cli("figure1", "--rho", "0.3", "--gamma-max", "1", "--step", "1",
                  cwd=tmp_path)
        assert res.returncode == 0
        assert (tmp_path / "figure1_top.csv").exists()
        assert (tmp_path / "figure1_bottom.csv").exists()


class TestCmin:
    def test_single_rule_report(self, cli, tmp_path):
        out = tmp_path / "cmin.csv"
        res = cli("cmin", "--rho", "0.7", "--rules", "sd_delta", "--out", str(out))
        assert res.returncode == 0
        line = res.stdout.strip()
        assert line.startswith("rule=sd_delta c_min=0.923255302285")
        assert "argmin_gamma=1.874" in line
        csv_lines = out.read_text().strip().split("\n")
        assert csv_lines[0] == "rule,c_min,argmin_gamma,search_grid_step,refinement_tolerance"
        assert csv_lines[1].startswith("sd_delta,0.923255302285")

    def test_underflowing_minimum_is_reported_as_zero(self, cli):
        # at rho = 0.999 and d = 6 the PMS coverage falls below the
        # smallest double near its minimum (scipy quad: 1.5e-320 at
        # gamma = 1.8), so it is evaluated as exactly 0.0
        res = cli("cmin", "--rho", "0.999", "--cutoff-d", "6", "--rules", "pms")
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("rule=pms c_min=0 ")

    def test_full_model_rejected(self, cli):
        res = cli("cmin", "--rho", "0.7", "--rules", "full_model")
        assert res.returncode == 1
        assert "full_model" in res.stderr

    def test_unknown_rule_rejected(self, cli):
        assert cli("cmin", "--rho", "0.7", "--rules", "bogus").returncode == 1


class TestFit:
    def test_uncorrelated_design_collapses_intervals(self, cli, tmp_path):
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

    def test_failed_rule_prints_nothing(self, cli, tmp_path):
        # A nearly collinear design: the fitted rho, -0.999999985, is past
        # the cap the SD rule accepts, so no summary line may print.
        design = tmp_path / "collinear.csv"
        design.write_text("".join(f"1,{i},{i}.{'001' if i % 2 else '000'}\n"
                                  for i in range(1, 11)))
        res = cli("fit", "--design", str(design),
                  "--response", str(DATA_DIR / "response.csv"),
                  "--theta-vec", str(DATA_DIR / "theta_vec.csv"),
                  "--tau-vec", str(DATA_DIR / "tau_vec.csv"), "--sigma", "1")
        assert (res.returncode, res.stdout, res.stderr) == (
            1, "", "error: correlation magnitude 0.9999999853067315 exceeds the "
                   "supported cap 0.999\n")

    @pytest.mark.parametrize("sigma", ["1.3e154", "1.4e154"])
    def test_sigma_whose_square_overflows_reads_a_zero_ratio(self, cli, sigma):
        # Past about 1.34e154 sigma^2 itself overflows, and the ratio
        # reads 0 as it does at 1.3e154, where only sigma^2 (n - p) does.
        res = cli("fit", "--design", str(DATA_DIR / "design.csv"),
                  "--response", str(DATA_DIR / "response.csv"),
                  "--theta-vec", str(DATA_DIR / "theta_vec.csv"),
                  "--tau-vec", str(DATA_DIR / "tau_vec.csv"), "--sigma", sigma)
        assert (res.returncode, res.stderr) == (0, "")
        assert "\nrss=0.335469348659 dof=7 scaled_ratio=0\n" in res.stdout

    def test_parse_error_cites_location(self, cli, tmp_path):
        args = write_fit_files(tmp_path, y_rows=["1", "oops", "3", "4"])
        res = cli("fit", *args, "--sigma", "1")
        assert res.returncode == 1
        assert "line 2, column 1" in res.stderr

    def test_oversized_field_is_one_error_line(self, cli, tmp_path):
        args = write_fit_files(tmp_path, x_rows=["x" * 200000 + ",1", "0,1", "1,0", "0,1"])
        res = cli("fit", *args, "--sigma", "1")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "line 1: field larger than field limit" in res.stderr

    def test_singular_design(self, cli, tmp_path):
        args = write_fit_files(tmp_path, x_rows=["1,1", "2,2", "3,3", "4,4"])
        res = cli("fit", *args, "--sigma", "1")
        assert res.returncode == 1
        assert "singular" in res.stderr

    def test_missing_file(self, cli, tmp_path):
        args = write_fit_files(tmp_path)
        (tmp_path / "y.csv").unlink()
        res = cli("fit", *args, "--sigma", "1")
        assert res.returncode == 1

    def test_sigma_validation(self, cli, tmp_path):
        res = cli("fit", *write_fit_files(tmp_path), "--sigma", "-2")
        assert res.returncode == 1
        assert "sigma" in res.stderr


class TestVerify:
    def test_small_run_format_and_determinism(self, cli):
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

    def test_length_ratio_within_the_analytic_accuracy(self, cli):
        # At d = 12 the length hardly varies, so its Monte Carlo se is 0
        # or nearly; the rows compare within the 1e-9 accuracy, relative
        # above 1, and do not read z = inf.
        res = cli("verify", "--reps", "20000", "--seed", "3", "--cutoff-d", "12")
        rows = [ln for ln in res.stdout.splitlines() if " stat=length_ratio " in ln]
        assert len(rows) == 18
        assert not [ln for ln in rows if ln.endswith(" FAIL")]

    def test_z_allowance(self):
        z = cli_module._verify_z
        assert z(0.0, 0.0, 1.0) == 0.0
        assert z(2e-9, 0.0, 0.5) == pytest.approx(2.0)
        assert z(-7e-10, 0.0, 36280.4340704) == pytest.approx(-7e-10 / 36280.4340704e-9)
        assert z(0.003, 0.001, 0.9) == pytest.approx(3.0, rel=1e-12)

    def test_tiny_tolerance_fails_with_exit_3(self, cli):
        res = cli("verify", "--reps", "2000", "--seed", "9", "--tolerance", "0.001")
        assert res.returncode == 3
        assert "verify FAIL" in res.stdout
        assert " FAIL" in res.stdout

    def test_tolerance_must_be_positive(self, cli):
        assert cli("verify", "--reps", "100", "--tolerance", "0").returncode == 1

    def test_reps_must_be_positive(self, cli):
        assert cli("verify", "--reps", "0").returncode == 1


class TestVerifyAtScale:
    def test_passes_at_default_tolerance(self, cli):
        res = cli("verify", "--reps", "50000", "--seed", "11")
        assert res.returncode == 0
        assert "verify PASS: 54/54" in res.stdout


ALL_COMMANDS = tuple(cli_module._COMMANDS)


def subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def parse_error(parser, argv):
    with pytest.raises(cli_module.CLIError) as exc:
        parser.parse_args(argv)
    return str(exc.value)


FIT_FLAGS = ["--design", "X.csv", "--response", "y.csv", "--theta-vec", "a.csv",
             "--tau-vec", "b.csv", "--sigma", "1"]
BAD_ARGVS = {
    "missing_required": ["fit", "--design", "X.csv"],
    "unknown_flag": ["fit", *FIT_FLAGS, "--bogus"],
    "bad_choice": ["curve", "--quantity", "nope", "--rho", "0"],
    "bad_type": ["verify", "--reps", "many"],
    "extra_positional": ["cmin", "--rho", "0.7", "extra"],
    "exclusive_flags": ["curve", "--quantity", "cp", "--rho", "0",
                        "--pretest-size", "0.1", "--cutoff-d", "1.6"],
    "unknown_command": ["frobnicate", "--rho", "0.7"],
    "no_command": [],
    "flag_before_command": ["--rho", "0.7", "cmin"],
}


class TestParserPerCommand:
    """``main`` builds only the named subcommand's parser; nothing it
    prints may tell that build from the full one."""

    @pytest.mark.parametrize("name", ALL_COMMANDS)
    def test_help_equals_the_full_build(self, name):
        alone = subparsers(cli_module._build_parser((name,)))
        assert list(alone.choices) == [name]
        full = subparsers(cli_module._build_parser(ALL_COMMANDS)).choices[name]
        assert alone.choices[name].format_help() == full.format_help()

    def test_top_level_help_is_the_full_build(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_module.main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out == cli_module._build_parser(ALL_COMMANDS).format_help()
        assert "{curve,figure1,cmin,fit,verify}" in out

    @pytest.mark.parametrize("argv", BAD_ARGVS.values(), ids=BAD_ARGVS.keys())
    def test_bad_argv_gives_the_full_build_error(self, cli, argv):
        full = parse_error(cli_module._build_parser(ALL_COMMANDS), argv)
        res = cli(*argv)
        assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: {full}\n")
        if argv and argv[0] in ALL_COMMANDS:
            assert parse_error(cli_module._build_parser((argv[0],)), argv) == full

    def test_main_builds_the_named_subcommand_only(self, cli, monkeypatch):
        built = []
        real = cli_module._build_parser
        monkeypatch.setattr(cli_module, "_build_parser",
                            lambda commands: built.append(tuple(commands)) or real(commands))
        cli("cmin", "--rho", "0.7", "--rules", "bogus")
        cli("frobnicate")
        cli()
        assert built == [("cmin",), ALL_COMMANDS, ALL_COMMANDS]


#: (argv, message) for each flag value outside its domain: every
#: validation branch, each named by the flag and value it tests.
DOMAIN_ERRORS = [
    (["cmin", "--rho", "0.7", "--alpha", "1"], "--alpha must be in (0, 1), got 1.0"),
    (["cmin", "--rho", "0.7", "--cutoff-d", "-1"],
     "PretestSpec.from_cutoff: cutoff must be positive, got -1.0"),
    (["cmin", "--rho", "0.7", "--cutoff-d", "inf"],
     "PretestSpec.from_cutoff: cutoff must be positive, got inf"),
    (["cmin", "--rho", "0.7", "--pretest-size", "0"],
     "PretestSpec.from_size: size must be in (0, 1), got 0.0"),
    (["curve", "--quantity", "cp", "--rho", "0", "--step", "0"],
     "--step must be positive, got 0.0"),
    (["figure1", "--step", "0.05", "--gamma-max", "0.01"],
     "--gamma-max must be at least --step, got 0.01"),
    # Grids refused before any allocation: 1e18 points exceed the
    # address space, and 1e310 overflows to inf.
    (["curve", "--quantity", "cp", "--rho", "0.5", "--gamma-max", "1e9", "--step", "1e-9"],
     "curve: the grid up to gamma_max 1000000000.0 by step 1e-09 has too many points to build"),
    (["figure1", "--step", "1e-9", "--gamma-max", "1e9"],
     "curve: the grid up to gamma_max 1000000000.0 by step 1e-09 has too many points to build"),
    (["curve", "--quantity", "cp", "--rho", "0.5", "--gamma-max", "1e300", "--step", "1e-10"],
     "curve: the grid up to gamma_max 1e+300 by step 1e-10 has too many points to build"),
    (["figure1", "--step", "1e-10", "--gamma-max", "1e300"],
     "curve: the grid up to gamma_max 1e+300 by step 1e-10 has too many points to build"),
    (["cmin", "--rho", "1.5"], "--rho: Scenario: rho must satisfy |rho| <= 0.999, got 1.5"),
    (["cmin", "--rho", "0.7", "--rules", ",,"], "--rules: no rule named"),
    (["cmin", "--rho", "0.7", "--rules", ""], "--rules: no rule named"),
    (["cmin", "--rho", "0.7", "--rules", "full_model"],
     "--rules: full_model has constant coverage, nothing to minimize"),
    (["cmin", "--rho", "0.7", "--rules", "zz"], "--rules: 'zz' is not a valid IntervalRule"),
    (["verify", "--reps", "0"], "--reps must be >= 1, got 0"),
    (["verify", "--seed", "-1"], "--seed must be a nonnegative 64-bit integer"),
    (["verify", "--tolerance", "0"], "--tolerance must be positive, got 0.0"),
    (["fit", *FIT_FLAGS[:-1], "0"], "--sigma must be positive, got 0.0"),
]


class TestDomainEdges:
    """Inputs inside a flag's domain that double precision cannot carry
    through its conversion are rejected with the flag's name."""

    @pytest.mark.parametrize("flag,value,cause", [
        ("--alpha", "1e-17", "z_quantile: probability must be in (0, 1), got 1.0"),
        ("--cutoff-d", "40", "PretestSpec: test size must be in (0, 1), got 0.0"),
        ("--cutoff-d", "1e-17", "PretestSpec: test size must be in (0, 1), got 1.0"),
        ("--pretest-size", "1e-17", "z_quantile: probability must be in (0, 1), got 1.0"),
        ("--pretest-size", "0.9999999999999999",
         "PretestSpec: cutoff d must be positive and finite, got 0.0"),
    ])
    def test_edge_names_the_flag(self, cli, flag, value, cause):
        for command in (["cmin", "--rho", "0.7"], ["verify", "--reps", "10"]):
            res = cli(*command, flag, value)
            assert res.returncode == 1
            assert res.stderr == (f"error: {flag} {float(value)} is outside what double "
                                  f"precision resolves: {cause}\n")

    @pytest.mark.parametrize("flag,value", [
        ("--alpha", "1.2e-16"), ("--cutoff-d", "37.677"), ("--cutoff-d", "7e-17"),
        ("--pretest-size", "1.2e-16"), ("--pretest-size", "0.9999999999999998"),
    ])
    def test_just_inside_the_edge_runs(self, cli, flag, value):
        res = cli("cmin", "--rho", "0.7", "--rules", "pms", flag, value)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("rule=pms c_min=")

    @pytest.mark.parametrize("argv,message", DOMAIN_ERRORS,
                             ids=[f"{argv[-2]}-{argv[-1]}-{message}"
                                  for argv, message in DOMAIN_ERRORS])
    def test_outside_the_domain_keeps_its_message(self, cli, argv, message):
        res = cli(*argv)
        assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: {message}\n")


class TestEntryPoint:
    """``python -m smoothci``, one subprocess per subcommand."""

    def test_curve_prints_what_main_prints(self, cli):
        args = ("curve", "--quantity", "cp_delta", "--rho", "0.7",
                "--gamma-max", "1", "--step", "0.25")
        res = run_program(*args)
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == cli(*args).stdout

    def test_figure1_default_prefix(self, tmp_path):
        res = run_program("figure1", "--rho", "0.3", "--gamma-max", "1", "--step", "1",
                          cwd=tmp_path)
        assert res.returncode == 0
        assert (tmp_path / "figure1_top.csv").exists()
        assert (tmp_path / "figure1_bottom.csv").exists()

    def test_cmin_validation_exit_1(self):
        res = run_program("cmin", "--rho", "0.7", "--rules", "full_model")
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and "full_model" in res.stderr

    def test_fit_parse_error_exit_1(self, tmp_path):
        args = write_fit_files(tmp_path, y_rows=["1", "oops", "3", "4"])
        res = run_program("fit", *args, "--sigma", "1")
        assert res.returncode == 1
        assert "line 2, column 1" in res.stderr

    def test_verify_failure_exit_3(self):
        res = run_program("verify", "--reps", "2000", "--seed", "9", "--tolerance", "0.001")
        assert res.returncode == 3
        assert "verify FAIL" in res.stdout

    def test_closed_pipe_exits_quietly(self):
        proc = subprocess.Popen(
            BASE + ["verify", "--reps", "2000", "--seed", "9", "--tolerance", "50"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
        )
        proc.stdout.close()  # the reader leaves before the first line
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == cli_module.EXIT_BROKEN_PIPE
        assert err == b""

    def test_main_leaves_a_broken_pipe_to_its_caller(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            cli_module.main(["cmin", "--rho", "0.7", "--rules", "pms"])
