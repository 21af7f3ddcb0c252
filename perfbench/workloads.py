"""Seeded inputs, job lists and output checks for the four workloads.

A workload is a list of jobs.  A job is one ``hypfield`` CLI invocation (or,
for the symbolic discriminant, which has no subcommand, one ``python -c``
snippet), its stdin, and a check that returns an error message for a wrong
output.  Every job must exit 0.  The checks never trust the engine's own
printed form alone: table/verify text is compared byte for byte with digests
captured at the seed commit, and reduce/disc answers are compared by value
against the benchmark's own evaluation at seeded rational points.

Why each workload exists (see README.md for the measured baseline):

* ``derive-verify`` -- table then verify at g = 8, 12, 16: the engine's main
  job and the only axis users grow along.  Polynomial multiply/substitute,
  the w-derivation and the uniformization check dominate; g = 8 is mostly
  interpreter start-up.  g = 24 is left out: its ``verify`` alone takes
  7-11 s, too long to repeat within a run, and one reading of a job that
  long is as noisy as the host.
* ``reduce-stream`` -- a batch of generated expressions, split over four
  ``reduce --genus 3`` processes.  A few large products and powers instead
  of many mid-size substitutions, plus parsing and fraction normalization.
  Every atom is raised to the 4th power once per batch so that the
  ``Poly.__pow__`` overshoot stays in the mix with the same weight on every
  seed.
* ``numeric`` -- genus-1 numerics and the independence SVD, at defaults and at
  one larger setting.  The exact polynomial core is idle here: this is the
  bypass workload for every exact-side change.
* ``exact-linalg`` -- symbolic discriminant at g = 3 (generic determinant),
  numeric ``disc`` up to g = 12 (Bareiss) and exact Jacobian ranks at g = 8.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

SYMBOLIC_DISC_G3 = (
    "from hypfield.curve import symbolic_discriminant\n"
    "from hypfield.relations import GenusContext\n"
    "print(symbolic_discriminant(GenusContext(3)))\n"
)


@dataclass
class Job:
    """One process: CLI arguments, or ``["-c", code]`` for a Python snippet."""

    name: str
    args: list
    check: Callable[[str], Optional[str]]
    stdin: Optional[str] = None


@dataclass
class Workload:
    jobs: list
    # metric name -> (unit, function of (job name -> fastest wall, setup_s))
    named: dict = field(default_factory=dict)
    # kept for the traced report: reduce-stream lists its slowest expressions
    expressions: list = field(default_factory=list)


@functools.cache
def golden() -> dict:
    """The seed-commit digests written by golden.py."""
    return json.loads(Path(__file__).with_name("golden.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_check(key: str) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        if sha256(out) != golden()[key]:
            return f"{key}: stdout differs from the seed-commit digest"
        return None

    return check


# ---------------------------------------------------------------------------
# evaluation of printed polynomials (the engine's canonical text form)

def eval_poly(text: str, env: dict) -> Fraction:
    """Value of ``c*sym^e*... + ...`` text at a point; names map to Fractions."""
    total = Fraction(0)
    for term in text.strip().replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        val = Fraction(sign)
        for factor in term.split("*"):
            name, _, exp = factor.partition("^")
            if name[0].isdigit():
                val *= Fraction(name)
            else:
                val *= env[name] ** int(exp or 1)
        total += val
    return total


def eval_fraction(line: str, env: dict) -> Fraction:
    """Value of one ``reduce`` output line, ``num`` or ``(num) / (den)``."""
    if line.startswith("(") and ") / (" in line:
        num, den = line[1:-1].split(") / (")
        d = eval_poly(den, env)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the check point")
        return eval_poly(num, env) / d
    return eval_poly(line, env)


def parse_table(text: str) -> dict:
    """``la_s``/``w_k_l`` name -> right-hand side text, from ``table`` output."""
    return dict(
        line.split(" = ", 1) for line in text.splitlines() if " = " in line
    )


# ---------------------------------------------------------------------------
# an independent discriminant: Euclidean resultant over Q

def _strip(p: list) -> list:
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _rem(f: list, g: list) -> list:
    f = list(f)
    while len(f) >= len(g):
        q = f[0] / g[0]
        for i, c in enumerate(g):
            f[i] -= q * c
        f = _strip(f)
        if not f:
            break
    return f


def resultant(f: list, g: list) -> Fraction:
    """res(f, g) for descending coefficient lists with nonzero leading terms."""
    n, m = len(f) - 1, len(g) - 1
    if m == 0:
        return g[0] ** n
    r = _rem(f, g)
    if not r:
        return Fraction(0)
    k = len(r) - 1
    sign = -1 if (n * m) % 2 else 1
    return sign * g[0] ** (n - k) * resultant(g, r)


def discriminant(lams: list) -> Fraction:
    """Discriminant of x^(2g+1) + la4 x^(2g-1) + ... + la_(4g+2)."""
    f = [Fraction(1), Fraction(0)] + [Fraction(v) for v in lams]
    n = len(f) - 1
    df = [c * (n - i) for i, c in enumerate(f[:-1])]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, df)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 5))


def _double_root_lambdas(g: int, rng: random.Random) -> list:
    """Parameters whose curve polynomial has a double root (disc = 0).

    (x-a)^2 (x+2a) has no x^2 term and q has no x^(2g-3) term, so the
    product keeps the curve family's zero x^(2g) coefficient.
    """
    a = rng.randint(1, 5)
    cubic = [1, 0, -3 * a * a, 2 * a ** 3]
    q = [1, 0] + [rng.randint(-5, 5) for _ in range(2 * g - 3)]
    prod = [0] * (len(cubic) + len(q) - 1)
    for i, x in enumerate(cubic):
        for j, y in enumerate(q):
            prod[i + j] += x * y
    assert prod[0] == 1 and prod[1] == 0
    return [Fraction(c) for c in prod[2:]]


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def disc_check(lams: list) -> Callable[[str], Optional[str]]:
    expected = discriminant(lams)
    verdict = "IN" if expected == 0 else "NOT IN"
    want = f"disc = {_fmt(expected)}; lambda {verdict} Sigma_g\n"

    def check(out: str) -> Optional[str]:
        if out != want:
            return f"disc: got {out.strip()[:80]!r}, want {want.strip()[:80]!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads

DERIVE_GENERA = (8, 12, 16)


def derive_verify(seed: int, run) -> Workload:
    """Fixed genera; the seed only orders the jobs within a pass."""
    jobs = []
    named = {}
    for g in DERIVE_GENERA:
        for cmd in ("table", "verify"):
            name = f"{cmd}.g{g}"
            jobs.append(Job(name, [cmd, "--genus", str(g)], golden_check(name)))
            named[f"{cmd}_s.g{g}"] = ("s", lambda walls, setup, name=name: walls[name])
    random.Random(seed).shuffle(jobs)
    return Workload(jobs, named)


REDUCE_GENUS = 3
REDUCE_BATCH = 200
REDUCE_CHUNKS = 4  # reduce processes the batch is split over


def _atoms(g: int) -> list:
    odd = range(1, 2 * g, 2)
    atoms = [(k, l) for k in odd for l in odd if k <= l]
    atoms += [(1, 1, k) for k in odd] + [(1, 1, 1, k) for k in odd]
    atoms += [f"la{s}" for s in range(4, 4 * g + 3, 2)]
    return atoms


def _atom_value(atom, vals: dict) -> Fraction:
    """p[1,l] is b1_l, p[k,l] is w_k_l, p[1,1,k] is b2_k, p[1,1,1,k] is b3_k."""
    if isinstance(atom, str):
        return vals["la_" + atom[2:]]
    if len(atom) == 2:
        k, l = atom
        return vals[f"b1_{l}"] if k == 1 else vals[f"w_{k}_{l}"]
    return vals[f"b{len(atom) - 1}_{atom[-1]}"]


class _Deck:
    """Draws cards in a seeded order, each card equally often.

    Drawing from a deck instead of independently keeps the mix of costly
    factors the same in every batch, so one seed's batch costs about what
    another's does; the seed still changes every expression.
    """

    def __init__(self, rng: random.Random, cards: list):
        self.rng = rng
        self.cards = list(cards)
        self.pile = []

    def draw(self):
        if not self.pile:
            self.pile = list(self.cards)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


class _ExprGen:
    """Random expressions over the reduce atoms, built with their values."""

    def __init__(self, rng: random.Random, g: int, vals: dict):
        self.rng = rng
        self.atoms = _atoms(g)
        self.value = {a: _atom_value(a, vals) for a in self.atoms}
        self.main = _Deck(rng, [(a, e) for a in self.atoms for e in (1, 2, 3)] + [None] * 6)
        self.terms = _Deck(rng, [1, 2, 3])
        self.divide = _Deck(rng, [True] * 3 + [False] * 7)

    def atom_text(self, atom) -> str:
        if isinstance(atom, str):
            return atom
        idx = list(atom)
        self.rng.shuffle(idx)  # index order is irrelevant; exercise that
        return "p[" + ",".join(map(str, idx)) + "]"

    def power(self, atom, e: int):
        text = self.atom_text(atom)
        return (text if e == 1 else f"{text}^{e}"), self.value[atom] ** e

    def term(self, divide: bool):
        rng = self.rng
        coef = rng.randint(1, 9)
        parts = [] if coef == 1 else [str(coef)]
        val = Fraction(coef)
        card = self.main.draw()
        if card is None:  # a squared sum
            a, b = rng.sample(self.atoms, 2)
            parts.append(f"({self.atom_text(a)} + {self.atom_text(b)})^2")
            val *= (self.value[a] + self.value[b]) ** 2
        else:
            text, v = self.power(*card)
            parts.append(text)
            val *= v
        if rng.random() < 0.5:
            text, v = self.power(rng.choice(self.atoms), 1)
            parts.append(text)
            val *= v
        text = "*".join(parts)
        if divide:
            a = rng.choice(self.atoms)
            c = rng.randint(1, 9)
            while self.value[a] + c == 0:
                c += 1
            text += f"/({self.atom_text(a)} + {c})"
            val /= self.value[a] + c
        return text, val

    def expression(self, power4=None):
        """A sum of terms; with ``power4``, that atom's 4th power plus
        undivided terms, so the power's cost is the same in every batch."""
        if power4 is None:
            text, val = self.term(self.divide.draw())
        else:
            coef = self.rng.randint(1, 9)
            text, val = self.power(power4, 4)
            text, val = f"{coef}*{text}", coef * val
        for _ in range(self.terms.draw() - 1):
            t, v = self.term(power4 is None and self.divide.draw())
            if self.rng.random() < 0.5:
                text, val = f"{text} + {t}", val + v
            else:
                text, val = f"{text} - {t}", val - v
        return text, val


def reduce_stream(seed: int, run) -> Workload:
    """One batch, checked by value at a seeded rational generator point.

    ``run(args)`` runs a CLI job untimed and returns its stdout; it builds
    the g = 3 table that gives every atom its value at the point.
    """
    g = REDUCE_GENUS
    rng = random.Random(seed)
    table_text = run(["table", "--genus", str(g)])
    if sha256(table_text) != golden()[f"table.g{g}"]:
        raise RuntimeError(f"table --genus {g} differs from the seed-commit digest")
    vals = {
        f"b{level}_{k}": _rational(rng) for level in (1, 2, 3) for k in range(1, 2 * g, 2)
    }
    env = dict(vals)
    for name, rhs in parse_table(table_text).items():
        vals[name] = eval_poly(rhs, env)

    gen = _ExprGen(rng, g, vals)
    heavy = [gen.expression(power4=a) for a in gen.atoms]
    light = [gen.expression() for _ in range(REDUCE_BATCH - len(heavy))]
    exprs = heavy + light
    rng.shuffle(exprs)

    def check(exprs: list, out: str) -> Optional[str]:
        lines = out.splitlines()
        if len(lines) != len(exprs):
            return f"reduce: {len(lines)} output lines for {len(exprs)} expressions"
        for i, (line, (text, want)) in enumerate(zip(lines, exprs)):
            try:
                got = eval_fraction(line, env)
            except (ZeroDivisionError, KeyError, ValueError) as exc:
                return f"reduce: line {i + 1} does not evaluate: {exc}"
            if got != want:
                return f"reduce: line {i + 1} ({text}) has the wrong value"
        return None

    size = -(-len(exprs) // REDUCE_CHUNKS)
    jobs = []
    for i in range(REDUCE_CHUNKS):
        chunk = exprs[i * size:(i + 1) * size]
        stdin = "".join(text + "\n" for text, _ in chunk)
        jobs.append(Job(f"reduce.g{g}.{i + 1}", ["reduce", "--genus", str(g)],
                        functools.partial(check, chunk), stdin))

    def per_s(walls, setup):
        return len(exprs) / sum(walls[job.name] - setup for job in jobs)

    named = {"reduce_exprs_per_s": ("1/s", per_s)}
    return Workload(jobs, named, [text for text, _ in exprs])


_NUMERIC_RE = re.compile(r"samples: (\d+); max scaled residual: (\S+); tol: (\S+)\nPASS\n$")


def numeric_check(samples: int) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        m = _NUMERIC_RE.fullmatch(out)
        if not m or int(m.group(1)) != samples or not float(m.group(2)) < float(m.group(3)):
            return f"numeric: unexpected output {out.strip()[:120]!r}"
        return None

    return check


def independence_check(lattices: int, samples: int) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        head, sep, control = out.partition("single-lattice control:\n")
        ok = (
            sep
            and f"rows: {lattices * samples}\n" in head
            and "verdict: FULL RANK\n" in head
            and "verdict: DEFICIENCY 1\n" in control
        )
        return None if ok else f"independence: unexpected output {out[:120]!r}"

    return check


NUMERIC_LARGE = 200
INDEPENDENCE_LARGE = (12, 60)


def numeric(seed: int, run) -> Workload:
    rng = random.Random(seed)
    s = [str(rng.randrange(10 ** 6)) for _ in range(4)]
    lat, per = INDEPENDENCE_LARGE
    jobs = [
        Job("numeric.default", ["numeric", "--seed", s[0]], numeric_check(20)),
        Job(
            "numeric.large",
            ["numeric", "--samples", str(NUMERIC_LARGE), "--seed", s[1]],
            numeric_check(NUMERIC_LARGE),
        ),
        Job("independence.default", ["independence", "--seed", s[2]], independence_check(6, 40)),
        Job(
            "independence.large",
            ["independence", "--lattices", str(lat), "--samples", str(per), "--seed", s[3]],
            independence_check(lat, per),
        ),
    ]
    named = {
        "numeric_samples_per_s": (
            "1/s", lambda walls, setup: NUMERIC_LARGE / (walls["numeric.large"] - setup)
        ),
        "independence_s": ("s", lambda walls, setup: walls["independence.large"]),
    }
    return Workload(jobs, named)


RANK_GENUS = 8
RANK_SAMPLES = 20
# The rank job's sample points are fixed, not drawn from the workload seed:
# a small-height rational point can lie where the Jacobian's rank genuinely
# drops (workload seed 5 draws one of rank 15), so the expected hit count is
# known only for points checked at the seed commit.
RANK_ARGS = ["rank", "--genus", str(RANK_GENUS), "--samples", str(RANK_SAMPLES), "--seed", "0"]


def exact_linalg(seed: int, run) -> Workload:
    rng = random.Random(seed)
    lam3 = [_rational(rng) for _ in range(6)]
    lam8 = [_rational(rng) for _ in range(16)]
    lam12 = _double_root_lambdas(12, rng)
    disc3 = discriminant(lam3)

    def symbolic_check(out: str) -> Optional[str]:
        err = golden_check("symbolic_disc.g3")(out)
        if err:
            return err
        env = {f"la_{2 * i + 4}": v for i, v in enumerate(lam3)}
        if eval_poly(out, env) != disc3:
            return "symbolic_disc.g3: value at the check point differs from the resultant"
        return None

    def disc_job(g: int, lams: list) -> Job:
        text = ",".join(_fmt(v) for v in lams)
        return Job(f"disc.g{g}", ["disc", "--genus", str(g), f"--lambda={text}"], disc_check(lams))

    jobs = [
        Job("symbolic_disc.g3", ["-c", SYMBOLIC_DISC_G3], symbolic_check),
        disc_job(3, lam3),
        disc_job(8, lam8),
        disc_job(12, lam12),
        Job("rank.g8", RANK_ARGS, golden_check("rank.g8")),
    ]
    named = {
        "disc_symbolic_s.g3": ("s", lambda walls, setup: walls["symbolic_disc.g3"]),
        "rank_points_per_s.g8": (
            "1/s", lambda walls, setup: RANK_SAMPLES / (walls["rank.g8"] - setup)
        ),
    }
    return Workload(jobs, named)


WORKLOADS = {
    "derive-verify": derive_verify,
    "reduce-stream": reduce_stream,
    "numeric": numeric,
    "exact-linalg": exact_linalg,
}
