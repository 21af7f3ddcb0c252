"""The benchmark's span recorder still finds every function it times.

``perfbench/tracing.py`` wraps functions by module and attribute name, so a
refactor that renames one breaks only the traced benchmark run.  These tests
catch that in the tier-1 suite.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import hypfield.cli  # noqa: F401  (imports every traced module)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(modname: str, attr: str):
    obj = sys.modules["hypfield." + modname]
    for part in attr.split("."):
        obj = vars(obj)[part]
    return obj


def test_every_target_resolves():
    for modname, attr, _, _ in load_tracing().TARGETS:
        assert callable(resolve(modname, attr)), (modname, attr)


def test_install_then_uninstall_restores_every_original():
    tracing = load_tracing()
    holders = [m for n, m in sys.modules.items() if n == "hypfield" or n.startswith("hypfield.")]
    holders += [resolve(mod, attr.rpartition(".")[0]) for mod, attr, _, _ in tracing.TARGETS if "." in attr]
    holders.append(sys.modules["numpy.linalg"])
    before = [(h, dict(vars(h))) for h in holders]
    originals = [resolve(mod, attr) for mod, attr, _, _ in tracing.TARGETS]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [resolve(mod, attr) for mod, attr, _, _ in tracing.TARGETS]
    finally:
        tracer.uninstall()

    assert all(w is not o for w, o in zip(wrapped, originals))
    for holder, namespace in before:
        after = vars(holder)
        changed = [k for k, v in namespace.items() if after.get(k) is not v]
        assert not changed, (holder, changed)


def test_traced_table_counts_the_printed_terms(capsys):
    """The count hooks read ``len(p.terms)``: one entry per printed term."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = hypfield.cli.main(["table", "--genus", "2"])
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert code == 0
    printed = 0
    for line in out.splitlines():
        _, eq, rhs = line.partition(" = ")
        if eq and rhs != "0":
            printed += 1 + rhs.count(" + ") + rhs.count(" - ")
    assert printed > 0
    assert tracer.counts["rewriter.table_terms"] == printed
    assert tracer.counts["polyring.Poly.mul.term_pairs"] > 0


FRESH_PROCESS = """
import contextlib, importlib.util, io, sys
import hypfield.cli
assert "numpy" not in sys.modules
loaded = [m for n, m in sys.modules.items()
          if n.startswith("hypfield") and n != "hypfield.numerics1"]
loaded += [hypfield.polyring.Poly, hypfield.polyring.XiSeries]
before = [(h, dict(vars(h))) for h in loaded]

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = hypfield.cli.main(["numeric", "--samples", "2"])
finally:
    tracer.uninstall()
assert code == 0
assert tracer.name.count("numerics1.wp_all") == 2, tracer.name
assert tracer.counts["numerics1.lattice_points"] > 0

for holder, namespace in before:
    changed = [k for k, v in namespace.items() if vars(holder).get(k) is not v]
    assert not changed, (holder, changed)

def is_wrapper(value):
    return getattr(value, "__qualname__", "") == "Tracer.wrap.<locals>.traced"

# numerics1 and numpy.linalg were first loaded by install(): no wrapper is left
holders = [hypfield.numerics1, hypfield.numerics1.LatticeContext, sys.modules["numpy.linalg"]]
left = [(h, k) for h in holders for k, v in vars(h).items() if is_wrapper(v)]
assert not left, left
print("ok")
"""


def test_install_works_in_a_process_that_imported_only_the_cli():
    """Earlier test modules import numerics1 (and numpy) eagerly; a fresh
    process sees the lazily loaded numerics1 that a benchmark run sees."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS, str(TRACING)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
