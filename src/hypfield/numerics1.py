"""Genus-1 rank experiment: numeric independence of monomials in wp, wp', wp''.

The genus-1 functions it samples live in the pure-Python module
``weierstrass``.  Only this module imports numpy, with one OpenBLAS thread
unless the caller set ``OPENBLAS_NUM_THREADS``: the matrices are a few
hundred rows by a few dozen columns, for which starting the thread pool
costs far more than it saves.
"""

from __future__ import annotations

import itertools
import os
import random
from typing import NamedTuple, Optional

_THREADS_UNSET = "OPENBLAS_NUM_THREADS" not in os.environ
if _THREADS_UNSET:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _THREADS_UNSET:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import MAX_SAMPLE_ROWS
from .weierstrass import _wp_all, random_lattice, random_sample_point
from .weierstrass import LatticeContext  # noqa: F401  (perfbench's tracer wraps it here)


# sample points keep at least this many periods from every lattice point
_MARGIN = 0.3

# the most monomial columns the experiment takes, the 64 of weight <= 16 in
# wp, wp', wp'': the sample matrix is built as a rows * columns * 3 complex
# array, and well above this weight its verdict is noise (exit 4 at weight 40)
MAX_COLUMNS = 64


class InsufficientSamples(ValueError):
    """Fewer sample rows than monomial columns."""


def _exponents(weights: tuple, bound: int):
    """Yield every exponent tuple with weighted degree <= bound, constant
    included; each range stops at the remaining budget, so nothing is
    generated and then filtered out."""
    if not weights:
        yield ()
        return
    w = weights[0]
    for e in range(bound // w + 1):
        for rest in _exponents(weights[1:], bound - w * e):
            yield (e,) + rest


def _monomials(weights: tuple, bound: int) -> list:
    """Exponent tuples with weighted degree <= bound, constant included,
    sorted by weight then exponents."""
    def weight(exps):
        return sum(w * e for w, e in zip(weights, exps))

    return sorted(_exponents(weights, bound), key=lambda exps: (weight(exps), exps))


def _invariants(d: int) -> int:
    """N(d): the monomials R4^i R6^j of weight 4i + 6j <= d."""
    return sum((d - 6 * j) // 4 + 1 for j in range(d // 6 + 1)) if d >= 0 else 0


def forced_kernel(lattices: int, weight_bound: int) -> int:
    """The kernel that ``lattices`` generic lattices force on the monomials
    in wp, wp', wp'' of weight <= ``weight_bound``.

    On each lattice R4 = wp'' - 6 wp^2 and R6 = wp'^2 + 8 wp^3 - 2 wp wp''
    are constants, so the monomials span a free graded Q[R4, R6]-module
    with basis wp^a (weight 2a) and wp' wp^a (weight 2a + 3).  The multiples
    of a basis element b of weight w_b reach N(W - w_b) monomials in R4 and
    R6, and L lattices tell at most L of them apart, so b contributes
    max(0, N(W - w_b) - L) kernel vectors.  None is forced from
    N(W) lattices on."""
    weights = [*range(0, weight_bound + 1, 2), *range(3, weight_bound + 1, 2)]
    return sum(max(0, _invariants(weight_bound - w) - lattices) for w in weights)


class RankReport(NamedTuple):
    mode: str                 # "multi-lattice" or "single-lattice"
    generator_names: tuple
    weight_bound: int
    monomials: tuple          # exponent tuples aligned with columns
    n_rows: int
    n_cols: int
    singular_values: tuple
    threshold: float
    kernel: Optional[tuple]   # single-lattice mode only
    forced: Optional[int] = None  # multi-lattice mode only: forced_kernel's count

    @property
    def sigma_min(self) -> float:
        return self.singular_values[-1]

    @property
    def sigma_max(self) -> float:
        return self.singular_values[0]

    @property
    def ratio(self) -> float:
        return self.sigma_min / self.sigma_max

    @property
    def deficiency(self) -> int:
        smax = self.sigma_max
        return sum(1 for s in self.singular_values if s < self.threshold * smax)

    @property
    def full_rank(self) -> bool:
        return self.deficiency == 0

    def monomial_name(self, exps: tuple) -> str:
        if not any(exps):
            return "1"
        parts = []
        for name, e in zip(self.generator_names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def lines(self) -> list:
        out = [
            f"mode: {self.mode}",
            f"columns: {self.n_cols} (monomials in {', '.join(self.generator_names)}, weight <= {self.weight_bound})",
            f"rows: {self.n_rows}",
            f"sigma_min/sigma_max: {self.ratio:.3e}",
        ]
        if self.full_rank:
            out.append("verdict: FULL RANK")
        else:
            out.append(f"verdict: DEFICIENCY {self.deficiency}")
        if self.forced is not None:
            out.append(
                f"forced kernel: {self.forced}; none from "
                f"{_invariants(self.weight_bound)} lattices"
            )
        if self.kernel is not None:
            # rounded to the printed places first, and + 0.0 turns -0.0 into
            # 0.0, so a part that is rounding noise prints as +0.000000
            def part(x: float) -> str:
                return f"{round(x, 6) + 0.0:+.6f}"

            terms = [
                f"{self.monomial_name(m)}: {part(c.real)}{part(c.imag)}j"
                for m, c in zip(self.monomials, self.kernel)
            ]
            out.append("kernel: " + "; ".join(terms))
        return out


# the single-lattice control: monomials in wp, wp' of weight <= 6, whose one
# kernel vector is the cubic
CONTROL_WEIGHT_BOUND = 6


def check_control_samples(samples: int) -> None:
    """Refuse, before any sampling, fewer samples than the single-lattice
    control has columns."""
    need = len(_monomials((2, 3), CONTROL_WEIGHT_BOUND))
    if samples < need:
        raise InsufficientSamples(
            f"the single-lattice control needs {need} samples, one per monomial in "
            f"wp, wp' of weight <= {CONTROL_WEIGHT_BOUND}; got {samples}"
        )


def independence_experiment(
    lattice_count: int,
    samples_per_lattice: int,
    weight_bound: int,
    seed: int,
    threshold: float = 1e-6,
) -> RankReport:
    """Numeric rank of the monomial sample matrix.

    Multi-lattice mode samples across varying parameters and uses monomials
    in all three generators (wp, wp', wp'').  Single-lattice mode is the
    negative control: it uses monomials in (wp, wp') only, where the unique
    low-weight identity at fixed parameters is the classical cubic; the
    second derivative is excluded there because it satisfies its own
    weight-4 identity and would add spurious kernel vectors.
    """
    if lattice_count < 1:
        raise ValueError("need at least one lattice")
    if weight_bound < 2:
        raise ValueError("weight bound must be at least 2")
    rng = random.Random(seed)
    single = lattice_count == 1
    if single:
        names = ("wp", "wp'")
        weights = (2, 3)
    else:
        names = ("wp", "wp'", "wp''")
        weights = (2, 3, 4)
    rows = lattice_count * samples_per_lattice
    if rows > MAX_SAMPLE_ROWS:
        raise ValueError(
            f"{lattice_count} lattices * {samples_per_lattice} samples = {rows} rows "
            f"is above the cap of {MAX_SAMPLE_ROWS}"
        )
    # count the columns only up to one past the rows, before any sampling
    columns = sum(1 for _ in itertools.islice(_exponents(weights, weight_bound), rows + 1))
    if columns > rows:
        raise InsufficientSamples(
            f"{rows} rows < columns: more than {rows} monomials of weight <= {weight_bound}"
        )
    if columns > MAX_COLUMNS:
        raise ValueError(
            f"{columns} monomials of weight <= {weight_bound} is above the cap of "
            f"{MAX_COLUMNS} columns"
        )
    monos = _monomials(weights, weight_bound)
    samples = []
    for _ in range(lattice_count):
        ctx = random_lattice(rng)
        for _ in range(samples_per_lattice):
            z = random_sample_point(ctx, rng, _MARGIN)
            samples.append(_wp_all(ctx, z)[: len(weights)])
    # a[i, j] = prod over generators g of samples[i][g] ** monos[j][g]
    a = np.prod(np.array(samples)[:, None, :] ** np.array(monos), axis=2)
    # row normalization leaves the column nullspace untouched but removes
    # the pole-driven dynamic range between samples; columns are then
    # scaled to unit norm so the verdict is not a conditioning artifact
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    norms = np.linalg.norm(a, axis=0)
    b = a / norms
    # b = QR with Q's columns orthonormal, so the small square R has b's
    # singular values and right singular vectors (Chan, ACM TOMS 8, 1982)
    _, svals, vh = np.linalg.svd(np.linalg.qr(b, mode="r"))
    kernel = None
    if single:
        vec = np.conj(vh[-1]) / norms
        # normalize on the largest coefficient for a stable report
        pivot = vec[np.argmax(np.abs(vec))]
        kernel = tuple(complex(v / pivot) for v in vec)
    return RankReport(
        mode="single-lattice" if single else "multi-lattice",
        generator_names=names,
        weight_bound=weight_bound,
        monomials=tuple(monos),
        n_rows=a.shape[0],
        n_cols=a.shape[1],
        singular_values=tuple(float(s) for s in svals),
        threshold=threshold,
        kernel=kernel,
        forced=None if single else forced_kernel(lattice_count, weight_bound),
    )
