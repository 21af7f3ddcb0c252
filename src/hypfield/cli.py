"""Command-line entry point.

Subcommands: table, verify, reduce, rank, disc, numeric, independence.
Exit codes: 0 success, 2 usage error, 3 verification failure, 4 numeric
failure.  All commands are deterministic given their flags and seed.
Option values pass one converter factory, ``_arg``.  Every error message,
argparse's and a command's alike, passes one cut, ``_cut``, so a rejected
argument of any length is echoed as a short prefix.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction

# Engine modules are reached through their attributes: each runs on its
# first use (see the package docstring), so a subcommand runs only what it
# calls.  --version runs none, numeric and independence only weierstrass,
# disc only curve, exactmath and relations (no polynomial code), and none
# imports numpy.
from . import MAX_SAMPLE_ROWS, __version__
from . import curve, exprlang, relations, rewriter, variety, weierstrass

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4


def _plain(exc: Exception, other: str | None = None) -> str:
    """``exc``'s text, or ``other`` if given, but Python's int <-> str digit
    limit in plain words: its advice to call sys.set_int_max_str_digits() is
    for programs."""
    if "set_int_max_str_digits" in str(exc):
        limit = sys.get_int_max_str_digits()
        return f"numbers of more than {limit} digits are not supported"
    return str(exc) if other is None else other


def _cut(message: str, width: int = 120) -> str:
    """``message``, of which at most the first ``width`` characters are echoed."""
    if len(message) <= width:
        return message
    return f"{message[:width]}... (cut from {len(message)} characters)"


_OUT_OF_SCOPE = "closure under further differentiation is out of scope"


# How a command's exception ends it: the row of its first class along the MRO
# that has one gives the exit code and the text after "error: ", with {} for
# the exception's own text.  Rows are keyed by qualified class name, so mapping
# an error reads no module attribute and runs no module.  Every input error
# the package raises subclasses ValueError, as does Python's limit on int <->
# str conversion of more than 4300 digits, and every failed derivation
# InternalInconsistency.  Anything else is a bug and propagates.
_EXITS = {
    "hypfield.rewriter.DivisionByZeroPoly": (EXIT_NUMERIC, "{}"),
    "hypfield.rewriter.InternalInconsistency": (EXIT_VERIFY, "{}"),
    # the parser and the reducer recurse once per nesting level
    "builtins.RecursionError": (EXIT_USAGE, "expression nested too deeply"),
    "hypfield.rewriter.UnsupportedSymbol": (EXIT_USAGE, "{}\nhint: " + _OUT_OF_SCOPE),
    "builtins.ValueError": (EXIT_USAGE, "{}"),
}


def _classes(exc: Exception):
    """The qualified names of ``exc``'s classes, its own first."""
    return (f"{cls.__module__}.{cls.__qualname__}" for cls in type(exc).__mro__)


def _report(exc: Exception) -> int:
    """Print ``exc`` under the ``error:`` prefix and return its exit code;
    re-raise it if no class of it has a row in ``_EXITS``."""
    for name in _classes(exc):
        if name in _EXITS:
            code, form = _EXITS[name]
            # no usage line above it, so it may run longer than argparse's errors
            print("error: " + form.format(_cut(_plain(exc), 240)), file=sys.stderr)
            return code
    raise exc


class _Parser(argparse.ArgumentParser):
    """hypfield's parser and, through add_subparsers, each subcommand's: errors are cut."""

    def error(self, message: str):
        super().error(_cut(message))


def _arg(reason: str, convert, accept=lambda value: True):
    """An argparse type: ``convert`` applied to the option's text, whose
    value ``accept`` must pass.  A rejected value, a ValueError or an
    ArithmeticError reads ``<reason>, got <text>``; a DegenerateLattice keeps
    its own text as the reason, and Python's 4300-digit limit gets _plain's
    wording."""

    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
            cause = reason
        except (ValueError, ArithmeticError) as exc:
            own = "hypfield.weierstrass.DegenerateLattice" in _classes(exc)
            cause = str(exc) if own else _plain(exc, reason)
        raise argparse.ArgumentTypeError(f"{cause}, got {text!r}")

    return parse


def _lattice_context(text: str) -> weierstrass.LatticeContext:
    parts = [float(part) for part in text.split(",")]
    if len(parts) != 4 or not all(map(math.isfinite, parts)):
        raise ValueError
    return weierstrass.LatticeContext(complex(*parts[:2]), complex(*parts[2:]))


def _rational(text: str) -> Fraction:
    # Fraction('1e1000000') would build a million-digit integer first; a
    # limit of 0 (PYTHONINTMAXSTRDIGITS=0) means none
    _, _, exponent = text.lower().partition("e")
    if exponent and 0 < sys.get_int_max_str_digits() < abs(int(exponent)):
        raise ValueError("exponent beyond sys.set_int_max_str_digits()")  # _plain words it
    return Fraction(text)


_integer = _arg("must be an integer", int)
_positive_integer = _arg("must be an integer >= 1", int, lambda n: n >= 1)
_rationals = _arg(
    "must be comma-separated rationals",
    lambda text: [_rational(part) for part in text.split(",")],
)
_lattice = _arg("needs four finite numbers re1,im1,re2,im2", _lattice_context)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypfield",
        description=(
            "Exact-arithmetic engine for the field of hyperelliptic functions "
            "in 3g generators"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="derive and print the relation table")
    p_table.add_argument("--genus", type=_positive_integer, required=True)
    p_table.add_argument("--format", choices=("text", "tree"), default="text")

    p_verify = sub.add_parser("verify", help="run the uniformization checks")
    p_verify.add_argument("--genus", type=_positive_integer, required=True)

    p_reduce = sub.add_parser(
        "reduce", help="rewrite expressions into the generator fraction field"
    )
    p_reduce.add_argument("--genus", type=_positive_integer, required=True)
    p_reduce.add_argument(
        "expression",
        nargs="?",
        help="expression text; reads one expression per line from stdin if omitted",
    )

    p_rank = sub.add_parser("rank", help="exact Jacobian ranks of the parameter map")
    p_rank.add_argument("--genus", type=_positive_integer, required=True)
    p_rank.add_argument("--samples", type=_positive_integer, default=10)
    p_rank.add_argument("--seed", type=_integer, default=0)
    p_rank.add_argument(
        "--point", type=_rationals, default=None,
        help="evaluate at one explicit point (3g comma-separated rationals)",
    )

    p_disc = sub.add_parser("disc", help="curve discriminant and Sigma_g membership")
    p_disc.add_argument("--genus", type=_positive_integer, required=True)
    p_disc.add_argument(
        "--lambda", dest="lambda_values", type=_rationals, required=True,
        help="comma-separated rationals in index order la4, la6, ...",
    )

    p_num = sub.add_parser("numeric", help="genus-1 numeric identity validation")
    p_num.add_argument("--samples", type=_positive_integer, default=20)
    p_num.add_argument("--seed", type=_integer, default=0)
    p_num.add_argument(
        "--tol", type=_arg("must be a finite number > 0", float, lambda x: 0 < x < math.inf),
        default=1e-8,
    )
    p_num.add_argument(
        "--lattice", type=_lattice, default=None,
        help="fixed lattice as re1,im1,re2,im2 (default: random per sample)",
    )

    p_ind = sub.add_parser(
        "independence", help="monomial-matrix rank experiment"
    )
    p_ind.add_argument("--lattices", type=_integer, default=6)
    p_ind.add_argument("--samples", type=_positive_integer, default=40)
    p_ind.add_argument("--weight-bound", type=_integer, default=8)
    p_ind.add_argument("--seed", type=_integer, default=7)
    p_ind.add_argument(
        "--tol", type=_arg("must be a number in (0, 1)", float, lambda x: 0 < x < 1),
        default=1e-6,
    )
    return parser


def _check_samples(samples: int) -> None:
    """Refuse more than ``MAX_SAMPLE_ROWS`` samples before any work starts."""
    if samples > MAX_SAMPLE_ROWS:
        raise ValueError(f"{samples} samples is above the cap of {MAX_SAMPLE_ROWS}")


def cmd_table(args) -> int:
    table = rewriter.build_table(relations.GenusContext(args.genus))
    if args.format == "tree":
        sys.stdout.writelines(table.tree_lines())
    else:
        sys.stdout.writelines(table.lines())
    return EXIT_OK


def cmd_verify(args) -> int:
    report = variety.uniformize_check(rewriter.build_table(relations.GenusContext(args.genus)))
    for line in report.lines():
        print(line)
    if not report.passed:
        failing = [str(e.relation) for e in report.entries if not e.is_zero]
        print("FAILED: " + ", ".join(failing), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _reduce_one(ctx, table, text: str) -> None:
    print(rewriter.format_fraction(*rewriter.reduce_expr(table, exprlang.parse(text, ctx))))


def cmd_reduce(args) -> int:
    ctx = relations.GenusContext(args.genus)
    table = rewriter.build_table(ctx)
    if args.expression is not None:
        _reduce_one(ctx, table, args.expression)
        return EXIT_OK
    # a bad line is reported and the batch goes on; the first failure's
    # exit code is the batch's
    status = EXIT_OK
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            _reduce_one(ctx, table, line)
        except Exception as exc:
            code = _report(exc)
            status = status or code
    return status


def cmd_rank(args) -> int:
    _check_samples(args.samples)
    ctx = relations.GenusContext(args.genus)
    table = rewriter.build_table(ctx)
    pm = variety.p_map(table)
    if args.point is not None:
        values, rank = variety.p_values_and_rank(pm, args.point)
        print("lambda = " + ",".join(map(str, values)))
        print(f"rank {rank}")
        return EXIT_OK
    rng = random.Random(args.seed)
    target = 2 * args.genus
    hits = 0
    for _ in range(args.samples):
        point = variety.random_rational_point(args.genus, rng)
        if variety.p_jacobian_rank(pm, point) == target:
            hits += 1
    origin_rank = variety.p_jacobian_rank(pm, [Fraction(0)] * (3 * args.genus))
    print(f"rank {target} at {hits}/{args.samples} points; rank {origin_rank} at origin")
    return EXIT_OK


def cmd_disc(args) -> int:
    d = curve.discriminant(curve.LambdaVector.from_sequence(args.genus, args.lambda_values))
    membership = "IN" if d == 0 else "NOT IN"  # a multiple root iff d vanishes
    print(f"disc = {d}; lambda {membership} Sigma_g")
    return EXIT_OK


def cmd_numeric(args) -> int:
    _check_samples(args.samples)
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        ctx = args.lattice if args.lattice is not None else weierstrass.random_lattice(rng)
        z = weierstrass.random_sample_point(ctx, rng)
        report = weierstrass.identity_residuals(ctx, z)
        worst = max(worst, report.max_scaled)
    print(f"samples: {args.samples}; max scaled residual: {worst:.3e}; tol: {args.tol:.1e}")
    if worst >= args.tol:
        print("FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    print("PASS")
    return EXIT_OK


def cmd_independence(args) -> int:
    # the control's sample count is checked before any sampling, and both
    # experiments run before anything is printed
    if args.lattices > 1:
        weierstrass.check_control_samples(args.samples)
    report = weierstrass.independence_experiment(
        args.lattices, args.samples, args.weight_bound, args.seed, args.tol
    )
    if args.lattices > 1:
        control = weierstrass.independence_experiment(
            1, args.samples, weierstrass.CONTROL_WEIGHT_BOUND, args.seed, args.tol
        )
    for line in report.lines():
        print(line)
    if args.lattices > 1:
        print("single-lattice control:")
        for line in control.lines():
            print(line)
        ok = report.deficiency == report.forced and control.deficiency == 1
    else:
        ok = True
    return EXIT_OK if ok else EXIT_NUMERIC


_DISPATCH = {
    "table": cmd_table,
    "verify": cmd_verify,
    "reduce": cmd_reduce,
    "rank": cmd_rank,
    "disc": cmd_disc,
    "numeric": cmd_numeric,
    "independence": cmd_independence,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except Exception as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
