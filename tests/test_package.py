"""The package's engine modules run on first use: each test starts a fresh
process, in which importing the package has run none of them yet."""

import ast
import os
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import hypfield
from hypfield.polyring import Poly, b1
from hypfield.relations import GenusContext
from hypfield.weierstrass import LatticeContext
from test_bench_hooks import load_tracing

ENV = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))

# the engine modules that have run: each turns into a plain module then
RAN = """
import sys, types
def ran():
    return sorted(n.removeprefix("hypfield.") for n, m in sys.modules.items()
                  if n.startswith("hypfield.") and n != "hypfield.cli"
                  and type(m) is types.ModuleType)
"""


def fresh(source: str, stdin: bytes = b"") -> bytes:
    """Stdout of ``source`` run in a new interpreter; it must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", RAN + source],
        input=stdin, capture_output=True, env=ENV, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


FIRST_USE_IN_THREADS = """
import threading
import hypfield.cli
sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
barrier = threading.Barrier(4)
tables, failures = [], []

def first_use():
    try:
        barrier.wait(timeout=60)
        from hypfield.weierstrass import LatticeContext
        LatticeContext(1, 1j)
        from hypfield.relations import GenusContext
        from hypfield.rewriter import build_table
        tables.append(build_table(GenusContext(2)).text())
    except Exception as exc:
        failures.append(repr(exc))

threads = [threading.Thread(target=first_use) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
assert not failures, failures
assert len(tables) == 4 and len(set(tables)) == 1
print("ok")
"""


def test_first_use_from_four_threads_at_once():
    """Threads that reach a module while its code runs wait for all of it
    instead of reading a half-filled namespace."""
    assert fresh(FIRST_USE_IN_THREADS) == b"ok\n"


ASSIGN_BEFORE_FIRST_READ = """
import hypfield.cli
hypfield.rewriter.build_table = lambda ctx: hypfield.rewriter.RelationTable(ctx.g, {}, {}, {})
assert hypfield.cli.main(["table", "--genus", "1"]) == 0
"""


def test_an_assignment_before_the_first_read_is_kept():
    """Assigning to a module that has not run runs it first, so its code
    does not undo the assignment later."""
    assert fresh(ASSIGN_BEFORE_FIRST_READ) == b"genus 1\nlambda\nw\n"


README = Path(__file__).parents[1] / "README.md"


def readme_library_example() -> str:
    """The python block under README's "Library entry points"."""
    section = README.read_text().split("## Library entry points\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```\n", 1)[0]


def test_readme_library_example_and_every_public_name():
    library = "import hypfield\nassert ran() == []\n" + readme_library_example() + """
for name in hypfield.__all__:
    assert getattr(hypfield, name) is not None, name
print(" ".join(ran()))
"""
    out = fresh(library).decode().split()
    # exactmath runs only for ranks, which the example does not take
    assert out == ["polyring", "relations", "rewriter", "variety"]


UNPICKLE = """
import pickle
import hypfield
assert ran() == []
objects = pickle.loads(sys.stdin.buffer.read())
sys.stdout.buffer.write(pickle.dumps((objects, [str(x) for x in objects])))
"""


def test_pickles_load_in_a_process_that_only_imported_the_package():
    x = Poly.symbol(b1(1))
    objects = (
        Fraction(3, 7) * x ** 2 - 1,
        GenusContext(3),
        LatticeContext(1 + 0.1j, 0.3 + 1.1j),
    )
    got, texts = pickle.loads(fresh(UNPICKLE, pickle.dumps(objects)))
    assert got == objects
    assert texts == [str(obj) for obj in objects]


def _reads(node: ast.AST) -> Counter:
    """How often ``node`` reads each name: bare names, attribute names and
    the names an import brings in."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def _definitions(tree: ast.Module):
    """``(qualified name, node)`` of each module-level function and class
    and of each method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method


def test_every_public_engine_name_has_a_caller():
    """Each public module-level function and class of the package, and each
    public method of a public class, is read somewhere in the package outside
    its own definition, exported by ``hypfield``, or wrapped by the
    benchmark's span recorder: code that only tests run does not live in
    the engine.  A method counts as read wherever its name is read as an
    attribute.  ``Poly.substitute`` and ``XiSeries`` stay for as long as the
    span recorder wraps them."""
    targets = {attr for _, attr, _, _ in load_tracing().TARGETS}
    traced = targets | {attr.split(".")[0] for attr in targets}
    package = Path(hypfield.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    orphans = []
    for filename, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            private = any(part.startswith("_") for part in qualname.split("."))
            if private or qualname in hypfield._EXPORTS or qualname in traced:
                continue
            if reads[name] == _reads(node)[name]:
                orphans.append(f"{filename}:{qualname}")
    assert not orphans, "no caller in the package: " + ", ".join(orphans)


def test_no_unused_imports():
    """Every name an import binds in the package or in the tests is read in
    that module.  ``from __future__`` imports are exempt, and so is an import
    marked ``noqa``: ``numerics1`` holds ``LatticeContext`` for the span
    recorder, which wraps it there."""
    package, tests = Path(hypfield.__file__).parent, Path(__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")) + sorted(tests.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    assert not unused, "imported but never read: " + ", ".join(unused)
