"""In-process span recorder around the public functions of each hypfield module.

The program is not modified: ``Tracer.install`` replaces each target function
with a wrapper in every namespace that holds it -- the defining module, every
module that imported it by name (``cli.build_table``), and every alias in a
class (``Poly.__rmul__ is Poly.__mul__``) -- and ``uninstall`` puts the
originals back.  A span is (name, start, end, parent, job); spans stay in
memory until ``write``.  Exact work counts are recorded at the same
boundaries.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter


def _mul_counts(tracer, args, result):
    a, b = args
    pairs = len(a.terms) * (len(b.terms) if isinstance(b, type(a)) else 1)
    tracer.counts["polyring.Poly.mul.term_pairs"] += pairs
    if isinstance(result, type(a)):
        tracer.counts["polyring.Poly.mul.terms_out"] += len(result.terms)


def _str_bytes(tracer, args, result):
    tracer.counts["polyring.Poly.str.bytes"] += len(result)


def _table_terms(tracer, args, table):
    terms = sum(len(p.terms) for p in table.lam.values())
    terms += sum(len(p.terms) for p in table.w.values())
    tracer.counts["rewriter.table_terms"] += terms


def _disc_terms(tracer, args, result):
    tracer.counts["curve.symbolic_discriminant.terms"] += len(result.terms)


def _lattice_points(tracer, args, result):
    tracer.counts["numerics1.lattice_points"] += len(args[0]._points())


# (module, attribute or Class.attribute, span name, count hook)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("polyring", "Poly.__mul__", "polyring.Poly.mul", _mul_counts),
    ("polyring", "Poly.__pow__", "polyring.Poly.pow", None),
    ("polyring", "Poly.__add__", "polyring.Poly.add", None),
    ("polyring", "Poly.substitute", "polyring.Poly.substitute", None),
    ("polyring", "Poly.__str__", "polyring.Poly.str", _str_bytes),
    ("polyring", "XiSeries.__mul__", "polyring.XiSeries.mul", None),
    ("relations", "l1_rhs", "relations.l1_rhs", None),
    ("relations", "bel2", "relations.bel2", None),
    ("rewriter", "derive_lambda", "rewriter.derive_lambda", None),
    ("rewriter", "derive_w3", "rewriter.derive_w3", None),
    ("rewriter", "derive_w_high", "rewriter.derive_w_high", None),
    ("rewriter", "build_table", "rewriter.build_table", _table_terms),
    ("rewriter", "reduce_expr", "rewriter.reduce_expr", None),
    ("rewriter", "normalize_fraction", "rewriter.normalize_fraction", None),
    ("exprlang", "parse", "exprlang.parse", None),
    ("variety", "uniformize_check", "variety.uniformize_check", None),
    ("variety", "p_jacobian_rank", "variety.p_jacobian_rank", None),
    ("exactmath", "rank_exact", "exactmath.rank_exact", None),
    ("exactmath", "det_generic", "exactmath.det_generic", None),
    ("exactmath", "det_exact", "exactmath.det_exact", None),
    ("curve", "symbolic_discriminant", "curve.symbolic_discriminant", _disc_terms),
    ("curve", "discriminant", "curve.discriminant", None),
    ("numerics1", "_wp_all", "numerics1.wp_all", _lattice_points),
    ("numerics1", "LatticeContext.__init__", "numerics1.LatticeContext", None),
    ("numerics1", "independence_experiment", "numerics1.independence_experiment", None),
]

# Every per-layer metric, with its unit.  Names of the form "<span>.calls"
# and "<span>.self_s" are aggregated from spans; the rest are counts.
LAYER_METRICS = {
    "setup.import_numpy_s": "s",
    "setup.import_hypfield_s": "s",
    "cli.main.self_s": "s",
    "polyring.Poly.mul.calls": "count",
    "polyring.Poly.mul.self_s": "s",
    "polyring.Poly.mul.term_pairs": "count",
    "polyring.Poly.mul.terms_out": "count",
    "polyring.Poly.pow.calls": "count",
    "polyring.Poly.pow.self_s": "s",
    "polyring.Poly.pow.muls": "count",
    "polyring.Poly.add.calls": "count",
    "polyring.Poly.add.self_s": "s",
    "polyring.Poly.substitute.calls": "count",
    "polyring.Poly.substitute.self_s": "s",
    "polyring.Poly.str.self_s": "s",
    "polyring.Poly.str.bytes": "B",
    "polyring.XiSeries.mul.calls": "count",
    "polyring.XiSeries.mul.self_s": "s",
    "relations.l1_rhs.self_s": "s",
    "relations.bel2.calls": "count",
    "rewriter.derive_lambda.self_s": "s",
    "rewriter.derive_w3.self_s": "s",
    "rewriter.derive_w_high.self_s": "s",
    "rewriter.build_table.self_s": "s",
    "rewriter.table_terms": "count",
    "rewriter.reduce_expr.calls": "count",
    "rewriter.reduce_expr.p50_ms": "ms",
    "rewriter.reduce_expr.p90_ms": "ms",
    "rewriter.normalize_fraction.self_s": "s",
    "exprlang.parse.calls": "count",
    "exprlang.parse.self_s": "s",
    "variety.uniformize_check.self_s": "s",
    "variety.p_jacobian_rank.calls": "count",
    "variety.p_jacobian_rank.self_s": "s",
    "exactmath.rank_exact.calls": "count",
    "exactmath.rank_exact.self_s": "s",
    "exactmath.det_generic.calls": "count",
    "exactmath.det_generic.self_s": "s",
    "exactmath.det_exact.calls": "count",
    "exactmath.det_exact.self_s": "s",
    "curve.symbolic_discriminant.self_s": "s",
    "curve.symbolic_discriminant.terms": "count",
    "curve.discriminant.calls": "count",
    "curve.discriminant.self_s": "s",
    "numerics1.wp_all.calls": "count",
    "numerics1.wp_all.self_s": "s",
    "numerics1.lattice_points": "count",
    "numerics1.LatticeContext.calls": "count",
    "numerics1.LatticeContext.self_s": "s",
    "numerics1.independence_experiment.self_s": "s",
    "numerics1.svd.self_s": "s",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = [name for name, unit in LAYER_METRICS.items() if unit in ("count", "B")]


class Tracer:
    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.job = []
        self.counts = Counter()
        self._stack = [-1]
        self._job = -1
        self._patches = []

    # recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_perf())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _perf()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def begin_job(self, name: str) -> int:
        """Open a job's root span; the job id is that span's index."""
        self._job = len(self.name)
        return self._open("job:" + name)

    def end_job(self, idx: int) -> None:
        while self._stack[-1] != idx:  # a timeout unwound spans mid-call
            self._close(self._stack[-1])
        self._close(idx)

    # patching ------------------------------------------------------------

    def _replace(self, holder, orig, wrapper) -> None:
        for key, value in list(vars(holder).items()):
            if value is orig:
                self._patches.append((holder, key, orig))
                setattr(holder, key, wrapper)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hypfield" or n.startswith("hypfield.")]
        for modname, attr, span, hook in TARGETS:
            mod = sys.modules["hypfield." + modname]
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                orig = vars(owner)[member]
                self._replace(owner, orig, self.wrap(span, orig, hook))
            else:
                orig = getattr(mod, attr)
                wrapper = self.wrap(span, orig, hook)
                for m in modules:
                    self._replace(m, orig, wrapper)
        linalg = sys.modules["numpy.linalg"]
        self._replace(linalg, linalg.svd, self.wrap("numerics1.svd", linalg.svd))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches.clear()

    # analysis ------------------------------------------------------------

    def begin_pass(self) -> int:
        """Start a new pass: reset the counts and return its first span index."""
        self.counts = Counter()
        return len(self.name)

    def layer_metrics(self, first: int) -> dict:
        """Per-layer values of the pass whose spans start at ``first``."""
        n = len(self.name)
        child = defaultdict(float)
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = defaultdict(float)
        durations = defaultdict(list)
        pow_muls = 0
        for i in range(first, n):
            name = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            durations[name].append(dur)
            p = self.parent[i]
            if name == "polyring.Poly.mul" and p >= first and self.name[p] == "polyring.Poly.pow":
                pow_muls += 1
        out = {}
        for metric in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[span]
            elif kind == "self_s":
                out[metric] = self_s[span]
            elif kind in ("p50_ms", "p90_ms"):
                d = durations[span]
                q = 0.5 if kind == "p50_ms" else 0.9
                out[metric] = 1000 * _quantile(d, q) if d else 0.0
            elif metric in EXACT_COUNTS:
                out[metric] = self.counts[metric]
        out["polyring.Poly.pow.muls"] = pow_muls
        return out

    def spans_of(self, name: str, first: int, last: int) -> list:
        """Durations of the spans called ``name`` among spans[first:last]."""
        return [
            self.end[i] - self.start[i] for i in range(first, last) if self.name[i] == name
        ]

    def write(self, path) -> None:
        names = sorted(set(self.name))
        ids = {n: i for i, n in enumerate(names)}
        spans = [
            [ids[self.name[i]], self.start[i], self.end[i], self.parent[i], self.job[i]]
            for i in range(len(self.name))
        ]
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "job"],
            "names": names,
            "spans": spans,
        }))


def _quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
