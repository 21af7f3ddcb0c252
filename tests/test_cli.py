"""Command-line interface: output shapes and exit codes."""

import argparse
import contextlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hypfield
from hypfield.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, build_parser, main
from hypfield.polyring import Poly, w
from hypfield.rewriter import InternalInconsistency, build_table


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


def test_verify_corruption_hook_fails(capsys, monkeypatch):
    def corrupted(ctx):
        table = build_table(ctx)
        return table._replace(lam={**table.lam, 4: table.lam[4] + Poly.one()})

    monkeypatch.setattr("hypfield.rewriter.build_table", corrupted)
    code, out, err = run(capsys, "verify", "--genus", "1")
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


@pytest.mark.parametrize("genus", [1, 2])
def test_reduce_generator_atoms_past_the_cutoff_are_zero(capsys, genus):
    # as p[1,k] and p[k,l] do, p[1,1,k] and p[1,1,1,k] vanish once k >= 2g+1
    k = 2 * genus + 1
    atoms = [f"p[1,1,{k}]", f"p[1,1,1,{k}]", f"p[1,{k},1]", f"p[1,1,{k + 2},1]", f"p[1,{k}]"]
    for atom in atoms:
        assert run(capsys, "reduce", "--genus", str(genus), atom) == (EXIT_OK, "0\n", "")
    code, out, _ = run(capsys, "reduce", "--genus", str(genus), f"p[1,1,{k - 2}] + p[1,1,1,{k}]")
    assert (code, out) == (EXIT_OK, f"b2_{k - 2}\n")
    code, _, err = run(capsys, "reduce", "--genus", str(genus), f"p[1,3,{k}]")
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


@pytest.mark.parametrize("text", ["p[1,1]^²", "p[١,١]"], ids=["superscript", "arabic-indic"])
def test_reduce_non_ascii_digits_are_a_usage_error(capsys, text):
    code, out, err = run(capsys, "reduce", "--genus", "1", text)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: unexpected character")


def test_reduce_batch_reports_every_bad_line(capsys, monkeypatch):
    # the batch goes on after a failure and exits with the first failure's code
    lines = ["1/(p[1,1] - p[1,1])", "p[1,1", "p[1,1]^²", "10^5000", "la4"]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = run(capsys, "reduce", "--genus", "1")
    assert code == EXIT_NUMERIC
    assert out.splitlines() == ["-3*b1_1^2 + 1/2*b3_1"]
    assert [line.split()[0] for line in err.splitlines()] == ["error:"] * 4


@pytest.mark.parametrize("argv", [
    ["table", "--genus", "1"],
    ["verify", "--genus", "1"],
    ["reduce", "--genus", "1", "la4"],
    ["rank", "--genus", "1", "--samples", "1"],
])
def test_internal_inconsistency_is_a_verification_failure(capsys, monkeypatch, argv):
    def inconsistent(ctx):
        raise InternalInconsistency("forced cancellation failed")

    monkeypatch.setattr("hypfield.rewriter.build_table", inconsistent)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VERIFY
    assert out == ""
    assert err == "error: forced cancellation failed\n"


def drop_own_products(monkeypatch):
    """Make each BEL1 list lose its target's own product, so that the
    derivation cannot solve for w_3_l."""
    real = hypfield.relations.bel1_products
    monkeypatch.setattr(
        "hypfield.rewriter.bel1_products",
        lambda ctx, l: [p for p in real(ctx, l) if p[1:] != (w(3, l),)],
    )


def test_failed_extraction_is_a_verification_failure(capsys, monkeypatch):
    drop_own_products(monkeypatch)
    code, out, err = run(capsys, "verify", "--genus", "2")
    assert code == EXIT_VERIFY
    assert out == ""
    assert err == "error: w_3_3 does not occur linearly in BEL1[3]\n"


def test_an_exception_no_exit_maps_is_a_bug_and_propagates(monkeypatch):
    def broken(*args):
        raise KeyError("a bug")

    # through the stdin batch's handler, then main's
    monkeypatch.setattr("hypfield.rewriter.reduce_expr", broken)
    monkeypatch.setattr("sys.stdin", io.StringIO("la4\n"))
    with pytest.raises(KeyError):
        main(["reduce", "--genus", "1"])


# Python refuses int <-> str conversions of more than 4300 digits
BIG = "1" * 5001
DIGIT_LIMIT = {
    "literal": ["reduce", "--genus", "1", BIG],
    "index": ["reduce", "--genus", "1", f"p[{BIG},1]"],
    "printed power": ["reduce", "--genus", "1", "10^5000"],
    "printed discriminant": ["disc", "--genus", "1", "--lambda=1e2000,1"],
    "printed parameters": ["rank", "--genus", "1", "--point", "1e2000,1,1"],
}


@pytest.mark.parametrize("argv", list(DIGIT_LIMIT.values()), ids=list(DIGIT_LIMIT))
def test_digit_limit_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "4300" in err
    assert "set_int_max_str_digits" not in err


# reduce rejects these after dispatch; each number is under the digit limit,
# so its own text reaches the message
LONG = "1" * 4000
LONG_TOKENS = {
    "reduce-group": f"(1 {LONG})",
    "reduce-trailing": f"1 {LONG}",
    "reduce-indices": "p[" + ",".join(["1"] * 3000) + "]",
    "reduce-parameter": f"la{LONG}",
}
LONG_BAD_ARGUMENT = {
    "lambda": ["disc", "--genus", "1", f"--lambda={BIG},1"],
    "point": ["rank", "--genus", "1", "--point", f"{BIG},1,1"],
    "lattice": ["numeric", "--lattice", BIG],
    "genus": ["table", "--genus", BIG],
    "rank-seed": ["rank", "--genus", "1", "--seed", BIG],
    "numeric-seed": ["numeric", "--seed", BIG],
    "lattices": ["independence", "--lattices", BIG],
    "trailing-argument": ["table", "--genus", "1", BIG],
    "subcommand": [BIG],
    "format": ["table", "--genus", "1", "--format", BIG],
    # 10**1000000 would take Fraction seconds to build, and disc far longer
    "lambda-exponent": ["disc", "--genus", "1", "--lambda=1e1000000,1"],
    "point-exponent": ["rank", "--genus", "1", "--point", "1e1000000,1,1"],
    **{name: ["reduce", "--genus", "1", text] for name, text in LONG_TOKENS.items()},
    "reduce-batch-line": ["reduce", "--genus", "1"],
}
LONG_BAD_STDIN = {"reduce-batch-line": LONG_TOKENS["reduce-group"] + "\nla4\n"}
# integers, or powers of ten, past the digit limit
PAST_THE_DIGIT_LIMIT = ("genus", "lambda-exponent", "point-exponent")


@pytest.mark.parametrize("name", list(LONG_BAD_ARGUMENT))
def test_long_bad_argument_is_echoed_short(name):
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hypfield.cli", *LONG_BAD_ARGUMENT[name]],
        input=LONG_BAD_STDIN.get(name, ""),
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == EXIT_USAGE
    assert len(proc.stderr.encode()) < 400, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr
    if name in PAST_THE_DIGIT_LIMIT:
        assert "4300 digits" in proc.stderr


def test_rejected_lattice_names_its_cause(capsys):
    with pytest.raises(SystemExit) as err:
        main(["numeric", "--lattice", "1,0,0,100"])  # q = e^(-200 pi): disc ~ 0
    assert err.value.code == EXIT_USAGE
    assert "vanishing discriminant" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["disc", "--genus", "1", "--lambda=1e2,1"],
    ["rank", "--genus", "1", "--samples", "1", "--point", "1e2,1,1"],
], ids=["lambda", "point"])
def test_exponent_accepted_when_the_digit_limit_is_off(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]),
               PYTHONINTMAXSTRDIGITS="0")
    proc = subprocess.run(
        [sys.executable, "-m", "hypfield.cli", *argv],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == EXIT_OK, proc.stderr


def test_short_unsupported_symbol_is_reported_whole(capsys):
    code, _, err = run(capsys, "reduce", "--genus", "1", "p[1,1,1,1,1,1,1,1,1]")
    assert code == EXIT_USAGE
    assert err == (
        "error: p[1,1,1,1,1,1,1,1,1] is outside the supported closure (only "
        "two-index symbols and the 1-, 1,1-, 1,1,1-prefixed generators)\n"
        "hint: closure under further differentiation is out of scope\n"
    )


def test_digit_limit_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hypfield.cli", *DIGIT_LIMIT["printed power"]],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error:") and "4300" in proc.stderr
    assert "Traceback" not in proc.stderr


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


@pytest.fixture
def at_point_calls(monkeypatch):
    """``(polynomials, columns)`` of each ``at_point`` call from ``variety``."""
    calls = []
    real = hypfield.variety.at_point

    def counting(polys, env, syms=()):
        calls.append((len(polys), len(syms)))
        return real(polys, env, syms)

    monkeypatch.setattr(hypfield.variety, "at_point", counting)
    return calls


def test_rank_derives_the_jacobian_once(capsys, at_point_calls):
    code, _, _ = run(capsys, "rank", "--genus", "2", "--samples", "5")
    assert code == EXIT_OK
    # no symbolic Jacobian: one pass over the 4 components' terms at each of
    # the 5 points and the origin differentiates them by the 6 generators
    # where it evaluates them
    assert at_point_calls == [(4, 6)] * 6


def test_rank_point_takes_one_pass(capsys, at_point_calls):
    code, out, _ = run(capsys, "rank", "--genus", "2", "--point", "1,-2,1/3,0,5,-1")
    assert code == EXIT_OK
    assert out.endswith("rank 4\n")
    # the printed values and the rank come from the same pass
    assert at_point_calls == [(4, 6)]


def test_rank_explicit_point(capsys):
    code, out, _ = run(capsys, "rank", "--genus", "1", "--point", "1,1,1")
    assert code == EXIT_OK
    assert "lambda = -5/2,7/4" in out
    assert "rank 2" in out


def test_rank_point_length_checked(capsys):
    code, out, err = run(capsys, "rank", "--genus", "2", "--point", "1,0")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: point must have 6 coordinates\n"


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

    monkeypatch.setattr("hypfield.weierstrass.random_sample_point", no_sampling)
    monkeypatch.setattr("hypfield.variety.random_rational_point", no_sampling)
    for argv in (["numeric"], ["rank", "--genus", "1"]):
        for samples in ("10001", "1000000000"):
            code, out, err = run(capsys, *argv, "--samples", samples)
            assert code == EXIT_USAGE
            assert out == ""
            assert err == f"error: {samples} samples is above the cap of 10000\n"


def test_numeric_genus_restriction(capsys):
    # numeric is genus 1 only, so it takes no --genus
    with pytest.raises(SystemExit) as err:
        main(["numeric", "--genus", "1"])
    assert err.value.code == EXIT_USAGE
    assert "unrecognized arguments: --genus 1" in capsys.readouterr().err


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


def test_independence_passes_with_the_kernel_two_lattices_force(capsys):
    code, out, _ = run(capsys, "independence", "--lattices", "2")
    assert code == EXIT_OK
    assert "verdict: DEFICIENCY 3\nforced kernel: 3; none from 4 lattices\n" in out
    assert "verdict: DEFICIENCY 1\n" in out.partition("single-lattice control:\n")[2]


def test_independence_fails_on_a_kernel_above_the_forced_one(capsys):
    code, out, _ = run(capsys, "independence", "--tol", "0.9")
    assert code == EXIT_NUMERIC
    assert "forced kernel: 0; none from 4 lattices\n" in out


def test_independence_control_too_small_is_a_usage_error(capsys, monkeypatch):
    # the main run's rows cover its columns, but the single-lattice control
    # has fewer rows than its 7 columns: refused before any lattice is drawn
    def no_sampling(*args):
        raise AssertionError("sampled although the control cannot run")

    monkeypatch.setattr("hypfield.numerics1.random_lattice", no_sampling)
    for argv in (["--samples", "5"], ["--lattices", "1000", "--samples", "6"]):
        code, out, err = run(capsys, "independence", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: the single-lattice control needs 7 samples, one per monomial in "
            f"wp, wp' of weight <= 6; got {argv[-1]}\n"
        )


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


# standard modules that no subcommand needs at start-up (json only for
# table --format tree); a bare interpreter imports none of them
LEAN = ("dataclasses", "inspect", "json", "string")

# the engine modules whose code has run: a module turns into a plain module
# once it has
RAN = """sorted(name.removeprefix("hypfield.") for name, module in sys.modules.items()
             if name.startswith("hypfield.") and name != "hypfield.cli"
             and type(module) is types.ModuleType)"""

STARTUP_PROBE = """
import contextlib, io, sys, types
import hypfield.cli
out = io.StringIO()
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(out):
        try:
            code = hypfield.cli.main(argv.split())
        except SystemExit as exc:  # --version
            code = exc.code
    assert code == 0, (argv, code)
# before this probe's own import of json
loaded = {name: name in sys.modules for name in %r}
import json
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "ran": %s,
    "loaded": loaded,
    "out": out.getvalue(),
}))
""" % (LEAN, RAN)


def startup_probe(*argvs):
    """Run ``argvs`` through ``main`` in one fresh process; report whether
    numpy was imported, which engine modules ran, which of ``LEAN`` were
    imported, and the joined stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *argvs],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_subcommands_never_import_numpy():
    probe = startup_probe(
        "table --genus 2",
        "verify --genus 2",
        "reduce --genus 2 p[1,1]*p[1,3]",
        "rank --genus 2 --samples 2",
        "disc --genus 2 --lambda 1,2,3,4",
        "--version",
    )
    assert not probe["numpy"]
    assert "weierstrass" not in probe["ran"]
    assert not any(probe["loaded"].values()), probe["loaded"]


@pytest.mark.parametrize(
    "argv", ["numeric --samples 3", "numeric --lattice 1,0,0.3,1.1 --samples 2"]
)
def test_numeric_never_imports_numpy(argv):
    probe = startup_probe(argv)
    assert not probe["numpy"]
    assert probe["ran"] == ["weierstrass"]
    assert not any(probe["loaded"].values()), probe["loaded"]
    assert probe["out"].endswith("PASS\n")


def test_only_the_tree_format_imports_json():
    probe = startup_probe("table --genus 2 --format tree")
    assert probe["loaded"] == {name: name == "json" for name in LEAN}


def test_independence_imports_numpy():
    # two lattices would leave their shared relations in the kernel; three
    # at weight <= 6 are full rank and the control finds the cubic
    probe = startup_probe("independence --lattices 3 --samples 30 --weight-bound 6")
    assert probe["numpy"]
    assert probe["ran"] == ["numerics1", "weierstrass"]
    assert probe["out"].splitlines()[4] == "verdict: FULL RANK"
    assert "verdict: DEFICIENCY 1" in probe["out"]


@pytest.mark.parametrize("argvs, ran", [
    (["--version"], []),
    (["disc --genus 2 --lambda 1,2,3,4"], ["curve", "exactmath", "relations"]),
    (
        ["table --genus 2", "reduce --genus 2 p[1,1]*p[1,3]"],
        ["exprlang", "polyring", "relations", "rewriter"],
    ),
    (["verify --genus 2"], ["polyring", "relations", "rewriter", "variety"]),
    (
        ["rank --genus 2 --samples 2"],
        ["exactmath", "polyring", "relations", "rewriter", "variety"],
    ),
], ids=["version", "disc", "table-reduce", "verify", "rank"])
def test_subcommands_run_only_the_engine_modules_they_use(argvs, ran):
    probe = startup_probe(*argvs)
    assert probe["ran"] == ran
    assert not any(probe["loaded"].values()), probe["loaded"]


# ``python -m hypfield.cli``, then the engine modules that ran as one more
# stdout line
ERROR_PROBE = """
import json, sys, types
import hypfield.cli
try:
    code = hypfield.cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse's usage errors
    code = exc.code
print(json.dumps(%s))
sys.exit(code)
""" % (RAN,)

REDUCER = ["exprlang", "polyring", "relations", "rewriter"]


@pytest.mark.parametrize("argv, stdin, code, out, err, ran", [
    (["numeric", "--samples", "10001"], None, EXIT_USAGE, "",
     "error: 10001 samples is above the cap of 10000\n", []),
    (["table", "--genus", "x"], None, EXIT_USAGE, "",
     "hypfield table: error: argument --genus: must be an integer >= 1, got 'x'\n", []),
    (["numeric", "--lattice", "1,0,0,100"], None, EXIT_USAGE, "",
     "hypfield numeric: error: argument --lattice: vanishing discriminant, got '1,0,0,100'\n",
     ["weierstrass"]),
    (["reduce", "--genus", "1"], "p[1,1]\np[1,\n1/p[1,1]\n", EXIT_USAGE,
     "b1_1\n(1) / (b1_1)\n", "error: unexpected end of input (at position 4)\n", REDUCER),
    (["reduce", "--genus", "1"], "p[1,1]\nla4/0\n1/p[1,1]\n", EXIT_NUMERIC,
     "b1_1\n(1) / (b1_1)\n", "error: denominator reduced to the zero polynomial\n", REDUCER),
    # as many modules as disc's success path runs
    (["disc", "--genus", "2", "--lambda", "1,2,3"], None, EXIT_USAGE, "",
     "error: expected 4 parameters, got 3\n", ["curve", "exactmath", "relations"]),
    # the cap is checked before the table is built
    (["rank", "--genus", "2", "--samples", "20000"], None, EXIT_USAGE, "",
     "error: 20000 samples is above the cap of 10000\n", []),
], ids=["samples-cap", "argparse", "degenerate-lattice", "reduce-syntax", "reduce-zero",
        "disc-arity", "rank-cap"])
def test_error_paths_before_any_engine_module_ran(argv, stdin, code, out, err, ran):
    """A fresh process: the exception classes that map an error to its exit
    code belong to engine modules that may not have run yet, and mapping
    the error runs none of them."""
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", ERROR_PROBE, *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code
    *printed, ran_line = proc.stdout.splitlines(keepends=True)
    assert "".join(printed) == out
    assert json.loads(ran_line) == ran
    assert proc.stderr.endswith(err)
    assert "Traceback" not in proc.stderr


def test_every_exit_row_names_an_exception_class():
    # a renamed or moved class fails here instead of escaping as a traceback
    for key in hypfield.cli._EXITS:
        module, _, name = key.rpartition(".")
        cls = getattr(importlib.import_module(module), name)
        assert isinstance(cls, type) and issubclass(cls, Exception), key
        assert f"{cls.__module__}.{cls.__qualname__}" == key


# one command per row of the exit table: argv, stdin, and whether each BEL1
# list loses its target's own product first
EXIT_ROWS = {
    "hypfield.rewriter.DivisionByZeroPoly": (["reduce", "--genus", "1", "1/(la4-la4)"], "", False),
    "hypfield.rewriter.InternalInconsistency": (["verify", "--genus", "2"], "", True),
    "builtins.RecursionError": (["reduce", "--genus", "1"], DEEP["parentheses"], False),
    "hypfield.rewriter.UnsupportedSymbol": (["reduce", "--genus", "2", "p[3,3,3]"], "", False),
    "builtins.ValueError": (["rank", "--genus", "2", "--samples", "20000"], "", False),
}


def test_every_exit_row_is_hit_by_a_command(capsys, monkeypatch):
    assert list(EXIT_ROWS) == list(hypfield.cli._EXITS)
    reported = []
    real = hypfield.cli._report

    def spy(exc):
        reported.append(exc)
        return real(exc)

    monkeypatch.setattr(hypfield.cli, "_report", spy)
    for key, (argv, stdin, broken) in EXIT_ROWS.items():
        with monkeypatch.context() as patch:
            if broken:
                drop_own_products(patch)
            patch.setattr("sys.stdin", io.StringIO(stdin))
            code, _, _ = run(capsys, *argv)
        (exc,) = reported
        reported.clear()
        rows = [name for name in hypfield.cli._classes(exc) if name in hypfield.cli._EXITS]
        assert rows[0] == key
        assert code == hypfield.cli._EXITS[key][0]


def test_independence_columns_capped_before_sampling(capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled although the columns are above the cap")

    monkeypatch.setattr("hypfield.numerics1.random_lattice", no_sampling)
    monkeypatch.setattr("hypfield.numerics1.random_sample_point", no_sampling)
    argv = ["--lattices", "10", "--samples", "100", "--weight-bound", "40"]
    code, out, err = run(capsys, "independence", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: 632 monomials of weight <= 40 is above the cap of 64 columns\n"


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


def test_no_hidden_options():
    # an option left out of --help is one no user is told of
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for p in [parser, *sub.choices.values()]:
        for action in p._actions:
            assert action.help is not argparse.SUPPRESS, (p.prog, action.option_strings)


README = Path(__file__).parents[1] / "README.md"


def readme_commands():
    """Every ``hypfield ...`` line of README's sh blocks."""
    blocks = README.read_text().split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```")[0].splitlines()]
    return [line for line in lines if line.startswith("hypfield ")]


def test_readme_examples_exit_0(capsys):
    commands = readme_commands()
    assert len(commands) >= 9
    for line in commands:
        code = main(shlex.split(line, comments=True)[1:])
        assert code == EXIT_OK, (line, capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv",
    [
        ["disc", "--genus", "1", "--lambda=1/0,2"],
        ["numeric", "--lattice", "a,b,c,d"],
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
    import hypfield.curve as curve

    calls = []
    real = curve.discriminant

    def counting(lv):
        calls.append(lv)
        return real(lv)

    # the command calls it through curve's namespace, so the patch sees it
    monkeypatch.setattr("hypfield.curve.discriminant", counting)
    code, out, _ = run(capsys, "disc", "--genus", "1", "--lambda=-3,2")
    assert code == EXIT_OK
    assert "lambda IN Sigma_g" in out
    assert len(calls) == 1


# --- fuzzing main in process ------------------------------------------------
#
# argv is drawn from each subcommand's grammar, kept small, with adversarial
# tokens mixed in; any exception that escapes main fails the test.  Powers
# attach to leaves only: reduce has no term budget, and a power of a power of
# a product grows the expansion past any per-example deadline.

ADVERSARIAL = ["²", "١", BIG, "(", ")", "[", "p[1,1", "p[1,1]]", "", *LONG_TOKENS.values()]
genera = st.sampled_from(["1", "2", "3"] * 4 + ["0", "١", BIG, "", "²"])


def big_now_and_then(strategy, big=BIG):
    """``strategy``, or ``big`` one time in eight."""
    return st.integers(0, 7).flatmap(lambda k: strategy if k else st.just(big))


# one time in eight above the cap of 10000 samples
samples = big_now_and_then(st.integers(-1, 50).map(str), "1000000000")
seeds = big_now_and_then(st.integers(-5, 10**6).map(str))
rationals = st.sampled_from(["0", "1", "-3", "2", "1/2", "-7/4", " 5 ", "1e2000", "1e1000000"])
bad_rationals = st.sampled_from(["1/0", "x", "1,", "²", "١", BIG, ""])
lattices = st.sampled_from(
    ["1,0,0.3,1.1", "1,0,0.25,1.15", "2,1,-1,3", "1,0,2,0", "1,0,0.25", "1,0,nan,1", "²,0,0,1"]
)
leaves = st.sampled_from(
    [
        "0", "1", "2", "7", "1/2",
        "p[1,1]", "p[1,3]", "p[1,5]", "p[1,1,1]", "p[1,1,3]", "p[1,1,1,1]", "p[3,3]",
        "p[7,7]", "p[3,3,3]", "p[1]", "p[1,2]", "la4", "la5", "la99",
    ]
    + ADVERSARIAL
)
exponents = st.integers(-3, 4)


@st.composite
def expressions(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        leaf = draw(leaves)
        return f"{leaf}^{draw(exponents)}" if draw(st.booleans()) else leaf
    kind = draw(st.sampled_from("+-*/n"))
    left = draw(expressions(depth - 1))
    if kind == "n":
        return f"-({left})"
    return f"({left}){kind}({draw(expressions(depth - 1))})"


@st.composite
def coordinates(draw, genus, per_genus):
    """``per_genus`` * g comma-separated rationals, give or take one, with
    one bad entry half of the time."""
    count = per_genus * (int(genus) if genus in ("1", "2", "3") else 1)
    count += draw(st.integers(-1, 1))
    values = draw(st.lists(rationals, min_size=count, max_size=count))
    if draw(st.booleans()):
        values[draw(st.integers(0, count - 1))] = draw(bad_rationals)
    return ",".join(values)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["table", "verify", "reduce", "rank", "disc", "numeric", "independence"]
    ))
    genus = draw(genera)
    stdin = ""
    if command == "table":
        argv = ["--genus", genus, "--format", draw(st.sampled_from(["text", "tree"]))]
    elif command == "verify":
        argv = ["--genus", genus]
    elif command == "reduce":
        exprs = draw(st.lists(expressions(), min_size=1, max_size=3))
        argv = ["--genus", genus]
        if draw(st.booleans()):
            argv.append(exprs[0])
        else:
            stdin = "\n".join(exprs) + "\n"
    elif command == "rank":
        argv = ["--genus", genus, "--samples", draw(big_now_and_then(samples))]
        argv += ["--seed", draw(seeds)]
        if draw(st.booleans()):
            argv.append("--point=" + draw(coordinates(genus, 3)))
    elif command == "disc":
        argv = ["--genus", genus, "--lambda=" + draw(coordinates(genus, 2))]
    elif command == "numeric":
        argv = ["--samples", draw(samples), "--seed", draw(seeds)]
        if draw(st.booleans()):
            argv.append("--lattice=" + draw(lattices))
        if draw(st.booleans()):
            argv += ["--tol", draw(st.sampled_from(["1e-8", "1e-3", "1e-30", "0", "nan"]))]
    else:
        argv = [
            "--lattices", draw(big_now_and_then(st.integers(-1, 4).map(str))),
            "--samples", draw(samples),
            "--weight-bound", draw(big_now_and_then(st.integers(0, 8).map(str))),
            "--seed", draw(seeds),
        ]
    if draw(st.integers(0, 9)) == 0:  # a trailing extra token
        argv.append(draw(st.sampled_from(["extra", "--bogus", "--bogus=" + BIG, BIG])))
    return [command] + argv, stdin


@given(argvs())
@settings(
    max_examples=150,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_main_ends_in_a_documented_exit_code(case):
    argv, stdin = case
    out, err, batch = io.StringIO(), io.StringIO(), io.StringIO(stdin)
    with mock.patch.object(sys, "stdin", batch), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags before dispatch
            assert exc.code == EXIT_USAGE, (argv, err.getvalue())
            code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY, EXIT_NUMERIC), (argv, code)
    if code == EXIT_USAGE:  # one short report, or one per batch line read
        reports = max(1, stdin.count("\n")) if batch.tell() else 1
        assert len(err.getvalue().encode()) < 400 * reports, err.getvalue()
