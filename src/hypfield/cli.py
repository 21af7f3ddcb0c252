"""Command-line entry point.

Subcommands: table, verify, reduce, rank, disc, numeric, independence.
Exit codes: 0 success, 2 usage error, 3 verification failure, 4 numeric
failure.  All commands are deterministic given their flags and seed.
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
from .exactmath import format_rational, parse_rational
from .exprlang import ExpressionIndexError, ExpressionSyntaxError, parse
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


def _positive_int(name: str):
    """An argparse type accepting integers >= 1, naming ``name`` on error."""

    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {value!r}")
        if n < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1")
        return n

    return parse


_genus_arg = _positive_int("genus")
_samples_arg = _positive_int("samples")


def _tolerance(upper: float):
    """An argparse type accepting finite floats in the open interval (0, upper)."""

    def parse(value: str) -> float:
        try:
            x = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"tol must be a number, got {value!r}")
        if not 0 < x < upper:
            raise argparse.ArgumentTypeError(
                f"tol must be a finite number in (0, {upper:g}), got {value!r}"
            )
        return x

    return parse


def _parse_lambda_list(text: str) -> list:
    try:
        return [parse_rational(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational list {text!r}: {exc}")


def _lattice_arg(text: str) -> weierstrass.LatticeContext:
    try:
        parts = [float(part) for part in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4 or not all(math.isfinite(x) for x in parts):
        raise argparse.ArgumentTypeError(
            f"--lattice needs four finite numbers re1,im1,re2,im2, got {text!r}"
        )
    try:
        return weierstrass.LatticeContext(
            complex(parts[0], parts[1]), complex(parts[2], parts[3])
        )
    except weierstrass.DegenerateLattice as exc:
        raise argparse.ArgumentTypeError(f"unusable lattice {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypfield",
        description=(
            "Exact-arithmetic engine for the field of hyperelliptic functions "
            "in 3g generators"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="derive and print the relation table")
    p_table.add_argument("--genus", type=_genus_arg, required=True)
    p_table.add_argument("--format", choices=("text", "tree"), default="text")

    p_verify = sub.add_parser("verify", help="run the uniformization checks")
    p_verify.add_argument("--genus", type=_genus_arg, required=True)
    p_verify.add_argument(
        "--corrupt-lambda4",
        action="store_true",
        help=argparse.SUPPRESS,  # test hook: perturb la_4 before checking
    )

    p_reduce = sub.add_parser(
        "reduce", help="rewrite expressions into the generator fraction field"
    )
    p_reduce.add_argument("--genus", type=_genus_arg, required=True)
    p_reduce.add_argument(
        "expression",
        nargs="?",
        help="expression text; reads one expression per line from stdin if omitted",
    )

    p_rank = sub.add_parser("rank", help="exact Jacobian ranks of the parameter map")
    p_rank.add_argument("--genus", type=_genus_arg, required=True)
    p_rank.add_argument("--samples", type=_samples_arg, default=10)
    p_rank.add_argument("--seed", type=int, default=0)
    p_rank.add_argument(
        "--point", type=_parse_lambda_list, default=None,
        help="evaluate at one explicit point (3g comma-separated rationals)",
    )

    p_disc = sub.add_parser("disc", help="curve discriminant and Sigma_g membership")
    p_disc.add_argument("--genus", type=_genus_arg, required=True)
    p_disc.add_argument(
        "--lambda", dest="lambda_values", type=_parse_lambda_list, required=True,
        help="comma-separated rationals in index order la4, la6, ...",
    )

    p_num = sub.add_parser("numeric", help="genus-1 numeric identity validation")
    p_num.add_argument("--genus", type=_genus_arg, default=1)
    p_num.add_argument("--samples", type=_samples_arg, default=20)
    p_num.add_argument("--seed", type=int, default=0)
    p_num.add_argument("--tol", type=_tolerance(math.inf), default=1e-8)
    p_num.add_argument(
        "--lattice", type=_lattice_arg, default=None,
        help="fixed lattice as re1,im1,re2,im2 (default: random per sample)",
    )

    p_ind = sub.add_parser(
        "independence", help="monomial-matrix rank experiment"
    )
    p_ind.add_argument("--lattices", type=int, default=6)
    p_ind.add_argument("--samples", type=_samples_arg, default=40)
    p_ind.add_argument("--weight-bound", type=int, default=8)
    p_ind.add_argument("--seed", type=int, default=7)
    p_ind.add_argument("--tol", type=_tolerance(1.0), default=1e-6)
    return parser


def cmd_table(args) -> int:
    try:
        table = build_table(GenusContext(args.genus))
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_VERIFY
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


def _reduce_one(ctx, table, text: str) -> int:
    try:
        expr = parse(text, ctx)
        num, den = reduce_expr(ctx, table, expr)
    except (ExpressionSyntaxError, ExpressionIndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedSymbol as exc:
        print(
            f"error: {exc}\nhint: closure under further differentiation is out of scope",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except DivisionByZeroPoly as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except RecursionError:  # the parser and the reducer recurse once per nesting level
        print("error: expression nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except ExponentOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(format_fraction(num, den))
    return EXIT_OK


def cmd_reduce(args) -> int:
    ctx = GenusContext(args.genus)
    table = build_table(ctx)
    if args.expression is not None:
        return _reduce_one(ctx, table, args.expression)
    status = EXIT_OK
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        rc = _reduce_one(ctx, table, line)
        status = status or rc
    return status


def cmd_rank(args) -> int:
    ctx = GenusContext(args.genus)
    table = build_table(ctx)
    pm = p_map(table)
    if args.point is not None:
        if len(args.point) != 3 * args.genus:
            print(f"error: --point needs {3 * args.genus} coordinates", file=sys.stderr)
            return EXIT_USAGE
        rank = p_jacobian_rank(pm, args.point)
        values = p_eval(pm, args.point)
        print("lambda = " + ",".join(format_rational(v) for v in values))
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
    try:
        lv = LambdaVector.from_sequence(args.genus, args.lambda_values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    d = discriminant(lv)
    membership = "IN" if d == 0 else "NOT IN"  # in_sigma's test, on d already computed
    print(f"disc = {format_rational(d)}; lambda {membership} Sigma_g")
    return EXIT_OK


def cmd_numeric(args) -> int:
    if args.genus != 1:
        print("error: numeric validation is genus-1 only", file=sys.stderr)
        return EXIT_USAGE
    if args.samples > weierstrass.MAX_SAMPLE_ROWS:
        print(
            f"error: {args.samples} samples is above the cap of {weierstrass.MAX_SAMPLE_ROWS}",
            file=sys.stderr,
        )
        return EXIT_USAGE
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
    try:
        report = numerics1.independence_experiment(
            args.lattices, args.samples, args.weight_bound, args.seed, args.tol
        )
        if args.lattices > 1:
            control = numerics1.independence_experiment(
                1, args.samples, 6, args.seed, args.tol
            )
    except (numerics1.InsufficientSamples, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    parser = build_parser()
    args = parser.parse_args(argv)
    return _DISPATCH[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
