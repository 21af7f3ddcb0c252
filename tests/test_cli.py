"""Command-line interface: output shapes and exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypfield
from hypfield.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from hypfield.polyring import Poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--genus", "1")
    assert code == EXIT_OK
    assert "la_4 = -3*b1_1^2 + 1/2*b3_1" in out
    assert "la_6 = 2*b1_1^3 - 1/2*b1_1*b3_1 + 1/4*b2_1^2" in out


def test_table_tree_is_json(capsys):
    code, out, _ = run(capsys, "table", "--genus", "2", "--format", "tree")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["genus"] == 2
    assert data["provenance"]["w_3_3"] == "BEL1[3]"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "2")
    assert code == EXIT_OK
    assert "5/5 equations ZERO" in out


def test_verify_corruption_hook_fails(capsys):
    code, out, err = run(capsys, "verify", "--genus", "1", "--corrupt-lambda4")
    assert code == EXIT_VERIFY
    assert "NONZERO" in out
    assert "FAILED" in err


def test_reduce_single_expression(capsys):
    code, out, _ = run(capsys, "reduce", "--genus", "1", "la4 + 3*p[1,1]^2")
    assert code == EXIT_OK
    assert out.strip() == "1/2*b3_1"


def test_reduce_fraction_output(capsys):
    code, out, _ = run(capsys, "reduce", "--genus", "1", "1/p[1,1]")
    assert code == EXIT_OK
    assert out.strip() == "(1) / (b1_1)"


def test_reduce_cubic_combination_is_zero(capsys):
    expr = "p[1,1,1]^2 - 4*p[1,1]^3 - 4*la4*p[1,1] - 4*la6"
    code, out, _ = run(capsys, "reduce", "--genus", "1", expr)
    assert code == EXIT_OK
    assert out.strip() == "0"


def test_reduce_stdin_batch(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("la4\n\np[1,1]\n"))
    code, out, _ = run(capsys, "reduce", "--genus", "1")
    assert code == EXIT_OK
    assert out.splitlines() == ["-3*b1_1^2 + 1/2*b3_1", "b1_1"]


def test_reduce_syntax_error(capsys):
    code, _, err = run(capsys, "reduce", "--genus", "1", "p[1,1")
    assert code == EXIT_USAGE
    assert "error" in err


def test_reduce_unsupported_symbol(capsys):
    code, _, err = run(capsys, "reduce", "--genus", "2", "p[3,3,3]")
    assert code == EXIT_USAGE
    assert "closure" in err


def test_reduce_division_by_zero(capsys):
    code, _, err = run(capsys, "reduce", "--genus", "1", "1/(p[1,1] - p[1,1])")
    assert code == EXIT_NUMERIC
    assert "zero" in err


@pytest.mark.parametrize("text", ["p[1,1]^40000", "p[1,1]^20000*p[1,1]^20000"])
def test_reduce_exponent_overflow_is_a_usage_error(capsys, text):
    code, out, err = run(capsys, "reduce", "--genus", "1", text)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "32767" in err
    assert out == ""


def test_reduce_powers_up_to_the_exponent_cap(capsys):
    code, out, _ = run(capsys, "reduce", "--genus", "1", "p[1,1]^32767")
    assert code == EXIT_OK
    assert out == "b1_1^32767\n"
    code, out, _ = run(capsys, "reduce", "--genus", "2", "(p[1,1]+p[1,3]+1)^60")
    assert code == EXIT_OK
    assert out.startswith("b1_3^60 + 60*b1_1*b1_3^59 + 1770*b1_1^2*b1_3^58 + 60*b1_3^59")
    assert out.count(" + ") == 1890  # all C(62, 2) terms of the trinomial power


def test_independence_sample_rows_capped():
    # lattices * samples above the cap exits before any sampling; a separate
    # process, so that a regression times out instead of running for an hour
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hypfield.cli", "independence", "--lattices", "100000"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error: 100000 lattices * 40 samples")
    assert "cap of 10000" in proc.stderr
    assert "Traceback" not in proc.stderr


DEEP = {
    "parentheses": "(" * 300 + "1" + ")" * 300,
    "unary minus": "-" * 3000 + "1",
}


@pytest.mark.parametrize("text", list(DEEP.values()), ids=list(DEEP))
def test_reduce_deep_nesting_is_a_usage_error(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text + "\nla4\n"))
    code, out, err = run(capsys, "reduce", "--genus", "1")
    assert code == EXIT_USAGE
    assert err.startswith("error:")
    assert out.splitlines() == ["-3*b1_1^2 + 1/2*b3_1"]


FLAT = {
    "flat sum": ("+".join(["1"] * 3000), "3000"),
    "flat sum of symbols": ("+".join(["p[1,1]"] * 3000), "3000*b1_1"),
    "flat product then quotient": (
        "*".join(["p[1,1]"] * 1500) + "/" + "/".join(["p[1,1]"] * 1499),
        "b1_1",
    ),
}


@pytest.mark.parametrize("text, want", list(FLAT.values()), ids=list(FLAT))
def test_reduce_flat_chain_of_any_length(capsys, monkeypatch, text, want):
    monkeypatch.setattr("sys.stdin", io.StringIO(text + "\nla4\n"))
    code, out, err = run(capsys, "reduce", "--genus", "1")
    assert code == EXIT_OK, err
    assert out.splitlines() == [want, "-3*b1_1^2 + 1/2*b3_1"]


def test_rank_sampling(capsys):
    code, out, _ = run(capsys, "rank", "--genus", "1", "--samples", "5", "--seed", "0")
    assert code == EXIT_OK
    assert "rank 2 at 5/5 points; rank 1 at origin" in out


def test_rank_derives_the_jacobian_once(capsys, monkeypatch):
    calls = []
    real = Poly.diff

    def counting(self, sym):
        calls.append(sym)
        return real(self, sym)

    monkeypatch.setattr(Poly, "diff", counting)
    code, _, _ = run(capsys, "rank", "--genus", "2", "--samples", "5")
    assert code == EXIT_OK
    assert len(calls) == 4 * 6  # one per 2g x 3g Jacobian entry, not per point


def test_rank_explicit_point(capsys):
    code, out, _ = run(capsys, "rank", "--genus", "1", "--point", "1,1,1")
    assert code == EXIT_OK
    assert "lambda = -5/2,7/4" in out
    assert "rank 2" in out


def test_rank_point_length_checked(capsys):
    code, _, err = run(capsys, "rank", "--genus", "2", "--point", "1,0")
    assert code == EXIT_USAGE
    assert "coordinates" in err


def test_disc_membership(capsys):
    code, out, _ = run(capsys, "disc", "--genus", "1", "--lambda=-3,2")
    assert code == EXIT_OK
    assert "disc = 0; lambda IN Sigma_g" in out
    code, out, _ = run(capsys, "disc", "--genus", "1", "--lambda=-3,1")
    assert "disc = 81; lambda NOT IN Sigma_g" in out


def test_disc_wrong_arity(capsys):
    code, _, err = run(capsys, "disc", "--genus", "2", "--lambda", "1,2")
    assert code == EXIT_USAGE


def test_numeric_small_run(capsys):
    code, out, _ = run(capsys, "numeric", "--samples", "3", "--seed", "1")
    assert code == EXIT_OK
    assert "PASS" in out


def test_numeric_fixed_lattice(capsys):
    code, out, _ = run(
        capsys, "numeric", "--samples", "2", "--lattice", "1,0,0.25,1.15"
    )
    assert code == EXIT_OK


def test_numeric_samples_capped_before_sampling(capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled although the samples are above the cap")

    monkeypatch.setattr("hypfield.numerics1.random_sample_point", no_sampling)
    for samples in ("10001", "1000000000"):
        code, out, err = run(capsys, "numeric", "--samples", samples)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {samples} samples is above the cap of 10000\n"


def test_numeric_genus_restriction(capsys):
    code, _, err = run(capsys, "numeric", "--genus", "2")
    assert code == EXIT_USAGE


def test_independence_with_control(capsys):
    code, out, _ = run(
        capsys,
        "independence",
        "--lattices", "3", "--samples", "30", "--weight-bound", "6",
    )
    assert code == EXIT_OK
    assert "multi-lattice" in out
    assert "single-lattice control:" in out
    assert "DEFICIENCY 1" in out
    assert "kernel:" in out


def test_independence_control_too_small_is_a_usage_error(capsys):
    # 30 rows cover the main run's 15 columns, but the single-lattice
    # control has 5 rows for its 7 columns; nothing may be printed first
    code, out, err = run(capsys, "independence", "--samples", "5")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: 5 rows < columns: more than 5 monomials of weight <= 6\n"


def test_independence_too_many_columns_exits_fast():
    # weight <= 400 has far more monomials than the 240 default samples; the
    # column count must stop early, before any sampling or matrix is built.
    # A separate process, so that a regression times out instead of hanging
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hypfield.cli", "independence", "--weight-bound", "400"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error: 240 rows < columns")
    assert "Traceback" not in proc.stderr


STARTUP_PROBE = """
import contextlib, io, sys
import hypfield.cli
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = hypfield.cli.main(argv.split())
        except SystemExit as exc:  # --version
            code = exc.code
    assert code == 0, (argv, code)
print("numpy" in sys.modules)
"""


def startup_probe(*argvs):
    """Run ``argvs`` through ``main`` in one fresh process; was numpy imported?"""
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *argvs],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout == "True\n"


def test_exact_subcommands_never_import_numpy():
    assert not startup_probe(
        "table --genus 2",
        "verify --genus 2",
        "reduce --genus 2 p[1,1]*p[1,3]",
        "rank --genus 2 --samples 2",
        "disc --genus 2 --lambda 1,2,3,4",
        "--version",
    )


def test_numeric_imports_numpy():
    assert startup_probe("numeric --samples 2")


def test_usage_errors_from_argparse():
    with pytest.raises(SystemExit) as err:
        main(["table", "--genus", "0"])
    assert err.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == EXIT_USAGE


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["disc", "--genus", "1", "--lambda=1/0,2"],
        ["numeric", "--genus", "1", "--lattice", "a,b,c,d"],
        ["numeric", "--lattice", "1,0,2,0"],
        ["numeric", "--lattice", "1,0,0.25"],
        ["numeric", "--lattice", "1,0,nan,1"],
        ["numeric", "--lattice", "1e300,0,0,1e300"],
        ["numeric", "--lattice", "1e-30,0,0,1e-30"],
        ["numeric", "--lattice", "1e-300,0,0,1e-300"],
        ["rank", "--genus", "1", "--samples", "-3"],
        ["numeric", "--samples", "0"],
        ["independence", "--samples", "0"],
        ["numeric", "--tol", "nan"],
        ["numeric", "--tol", "inf"],
        ["numeric", "--tol", "-1"],
        ["numeric", "--tol", "0"],
        ["independence", "--tol", "5"],
        ["independence", "--tol", "1"],
        ["independence", "--tol", "nan"],
        # |disc| overflows although g2 and g3 are finite
        ["numeric", "--lattice=7.244359600749891e-26,0,2.1733078802249675e-26,7.968795560824881e-26"],
    ],
)
def test_bad_input_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_disc_computes_the_discriminant_once(capsys, monkeypatch):
    import hypfield.cli as cli

    calls = []
    real = cli.discriminant

    def counting(lv):
        calls.append(lv)
        return real(lv)

    # patched in both namespaces, so a call through curve.in_sigma counts too
    monkeypatch.setattr(cli, "discriminant", counting)
    monkeypatch.setattr("hypfield.curve.discriminant", counting)
    code, out, _ = run(capsys, "disc", "--genus", "1", "--lambda=-3,2")
    assert code == EXIT_OK
    assert "lambda IN Sigma_g" in out
    assert len(calls) == 1
