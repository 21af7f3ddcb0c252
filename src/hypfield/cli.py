"""Command-line entry point.

Subcommands: table, verify, reduce, rank, disc, numeric, independence.
Exit codes: 0 success, 2 usage error, 3 verification failure, 4 numeric
failure.  All commands are deterministic given their flags and seed.
Option values pass one converter factory, ``_arg``, and argparse errors one
``error`` override, which cuts the message, so a rejected argument of any
length is echoed as a short prefix.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import random
import sys
from fractions import Fraction

from . import __version__
from .curve import LambdaVector, discriminant
from .exprlang import parse
from .polyring import ExponentOverflow, Poly
from .relations import GenusContext
from .rewriter import (
    DivisionByZeroPoly,
    InternalInconsistency,
    UnsupportedSymbol,
    build_table,
    format_fraction,
    reduce_expr,
)
from .variety import (
    p_eval,
    p_jacobian_rank,
    p_map,
    random_rational_point,
    uniformize_check,
)

# weierstrass (genus-1 functions) and numerics1 (the rank experiment, which
# imports numpy) are registered in sys.modules and on the package now but
# run on their first attribute access, so the exact subcommands execute
# neither and only independence imports numpy.  A copy already imported is
# reused, so there is only ever one set of their exception classes.
def _lazy_module(name: str):
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


weierstrass, numerics1 = map(_lazy_module, ("weierstrass", "numerics1"))

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


# How a command's exception ends it: the first row whose class matches gives
# the exit code and the text after "error: ".  Every input error the package
# raises subclasses ValueError, as does Python's limit on int <-> str
# conversion of more than 4300 digits.  Anything else is a bug and propagates.
_OUT_OF_SCOPE = "closure under further differentiation is out of scope"
_EXITS = (
    (DivisionByZeroPoly, EXIT_NUMERIC, str),
    (InternalInconsistency, EXIT_VERIFY, str),
    (ExponentOverflow, EXIT_USAGE, str),
    # the parser and the reducer recurse once per nesting level
    (RecursionError, EXIT_USAGE, lambda exc: "expression nested too deeply"),
    (UnsupportedSymbol, EXIT_USAGE, lambda exc: f"{exc}\nhint: {_OUT_OF_SCOPE}"),
    (ValueError, EXIT_USAGE, _plain),
)
_FAILURES = tuple(cls for cls, _, _ in _EXITS)


def _report(exc: Exception) -> int:
    """Print ``exc`` under the ``error:`` prefix and return its exit code."""
    code, text = next((code, text) for cls, code, text in _EXITS if isinstance(exc, cls))
    print(f"error: {text(exc)}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """hypfield's parser and, through add_subparsers, each subcommand's: every
    argparse error passes here and is cut after 120 characters, so an
    argument of any length is echoed in one short line."""

    def error(self, message: str):
        if len(message) > 120:
            message = f"{message[:120]}... (cut from {len(message)} characters)"
        super().error(message)


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
        except weierstrass.DegenerateLattice as exc:
            cause = str(exc)
        except (ValueError, ArithmeticError) as exc:
            cause = _plain(exc, reason)
        raise argparse.ArgumentTypeError(f"{cause}, got {text!r}")

    return parse


def _lattice_context(text: str) -> weierstrass.LatticeContext:
    parts = [float(part) for part in text.split(",")]
    if len(parts) != 4 or not all(map(math.isfinite, parts)):
        raise ValueError
    return weierstrass.LatticeContext(complex(*parts[:2]), complex(*parts[2:]))


_integer = _arg("must be an integer", int)
_positive_integer = _arg("must be an integer >= 1", int, lambda n: n >= 1)
_rationals = _arg(
    "must be comma-separated rationals",
    lambda text: [Fraction(part) for part in text.split(",")],
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
    p_verify.add_argument(
        "--corrupt-lambda4",
        action="store_true",
        help=argparse.SUPPRESS,  # test hook: perturb la_4 before checking
    )

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
    p_num.add_argument("--genus", type=_positive_integer, default=1)
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


def cmd_table(args) -> int:
    table = build_table(GenusContext(args.genus))
    if args.format == "tree":
        sys.stdout.write(table.tree_text())
    else:
        sys.stdout.write(table.text())
    return EXIT_OK


def cmd_verify(args) -> int:
    ctx = GenusContext(args.genus)
    table = build_table(ctx)
    if args.corrupt_lambda4:
        lam = dict(table.lam)
        lam[4] = lam[4] + Poly.one()
        table = type(table)(table.genus, lam, table.w, table.provenance)
    report = uniformize_check(ctx, table)
    for line in report.lines():
        print(line)
    if not report.passed:
        failing = [str(e.relation) for e in report.entries if not e.is_zero]
        print("FAILED: " + ", ".join(failing), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _reduce_one(ctx, table, text: str) -> None:
    print(format_fraction(*reduce_expr(ctx, table, parse(text, ctx))))


def cmd_reduce(args) -> int:
    ctx = GenusContext(args.genus)
    table = build_table(ctx)
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
        except _FAILURES as exc:
            code = _report(exc)
            status = status or code
    return status


def cmd_rank(args) -> int:
    ctx = GenusContext(args.genus)
    table = build_table(ctx)
    pm = p_map(table)
    if args.point is not None:
        rank = p_jacobian_rank(pm, args.point)
        values = p_eval(pm, args.point)
        print("lambda = " + ",".join(map(str, values)))
        print(f"rank {rank}")
        return EXIT_OK
    rng = random.Random(args.seed)
    target = 2 * args.genus
    hits = 0
    for _ in range(args.samples):
        point = random_rational_point(args.genus, rng)
        if p_jacobian_rank(pm, point) == target:
            hits += 1
    origin_rank = p_jacobian_rank(pm, [Fraction(0)] * (3 * args.genus))
    print(f"rank {target} at {hits}/{args.samples} points; rank {origin_rank} at origin")
    return EXIT_OK


def cmd_disc(args) -> int:
    d = discriminant(LambdaVector.from_sequence(args.genus, args.lambda_values))
    membership = "IN" if d == 0 else "NOT IN"  # in_sigma's test, on d already computed
    print(f"disc = {d}; lambda {membership} Sigma_g")
    return EXIT_OK


def cmd_numeric(args) -> int:
    if args.genus != 1:
        raise ValueError("numeric validation is genus-1 only")
    if args.samples > weierstrass.MAX_SAMPLE_ROWS:
        raise ValueError(
            f"{args.samples} samples is above the cap of {weierstrass.MAX_SAMPLE_ROWS}"
        )
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
    # both experiments run before anything is printed, so a usage error in
    # the single-lattice control leaves stdout empty
    report = numerics1.independence_experiment(
        args.lattices, args.samples, args.weight_bound, args.seed, args.tol
    )
    if args.lattices > 1:
        control = numerics1.independence_experiment(1, args.samples, 6, args.seed, args.tol)
    for line in report.lines():
        print(line)
    if args.lattices > 1:
        print("single-lattice control:")
        for line in control.lines():
            print(line)
        ok = report.full_rank and control.deficiency == 1
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
    except _FAILURES as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
