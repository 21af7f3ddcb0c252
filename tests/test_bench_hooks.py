"""The benchmark's span recorder still finds every function it times.

``perfbench/tracing.py`` wraps functions by module and attribute name, so a
refactor that renames one breaks only the traced benchmark run.  These tests
catch that in the tier-1 suite.
"""

import importlib.util
import pathlib
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
