"""Exact-arithmetic engine for the field of hyperelliptic functions.

The package derives, for any genus g >= 1, the polynomial expressions of
the curve parameters and of all two-index functions in the 3g generators,
machine-verifies that those expressions reduce the defining equations of
the ambient variety to zero, and backs the symbolic pipeline with genus-1
Weierstrass numerics and exact Jacobian-rank experiments.

Importing the package runs none of the engine.  Every engine module is in
``sys.modules`` and on the package from the start, but its code runs on the
first access to one of its attributes, so a process runs only the modules
its work reaches: ``hypfield --version`` runs none, ``numeric`` and
``independence`` only ``weierstrass``, and none runs ``numerics1``, the
compatibility module that imports numpy for the benchmark's span recorder.
The names in ``__all__`` resolve on first use.

The engine's frozen records whose equality must see the type, or whose
constructor checks or derives fields, subclass ``_Record``, defined here so
that no process loads a module for it.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# the most samples a command takes: rank's and numeric's --samples, and
# independence's lattices * samples rows (numeric and independence make one
# Weierstrass evaluation each, rank one exact Jacobian rank)
MAX_SAMPLE_ROWS = 10_000

# public name -> the engine module that defines it
_EXPORTS = {
    "GenusContext": "relations",
    "RelationTable": "rewriter",
    "build_table": "rewriter",
    "reduce_expr": "rewriter",
    "uniformize_check": "variety",
    "p_eval": "variety",
    "p_jacobian_rank": "variety",
}
__all__ = [*_EXPORTS, "__version__"]

_ENGINE = (
    "polyring", "relations", "rewriter", "exprlang", "variety",
    "exactmath", "curve", "weierstrass", "numerics1",
)

# Held while a module's code runs, which may run the modules it imports:
# a thread that reaches a module meanwhile waits for all of it instead of
# reading a half-filled namespace.
_lock = threading.RLock()
_running = set()  # modules whose code is running, on the thread holding _lock


def _run(module):
    """Run a lazy module's code, unless it has run or this thread runs it."""
    with _lock:
        if type(module) is _Lazy and module not in _running:
            _running.add(module)
            try:
                spec = types.ModuleType.__getattribute__(module, "__spec__")
                spec.loader.exec_module(module)
                types.ModuleType.__setattr__(module, "__class__", types.ModuleType)
            finally:
                _running.discard(module)


class _Lazy(types.ModuleType):
    """An engine module whose code has not run.  Any attribute access but
    ``__spec__``, which the import statement reads, runs it, and so does an
    assignment, which the code would otherwise undo when it runs later; the
    module keeps this class until its code has finished, then becomes a
    plain module.  If the code raises, the next access runs it again."""

    def __getattribute__(self, name):
        if name != "__spec__":
            _run(self)
        return types.ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        _run(self)
        types.ModuleType.__setattr__(self, name, value)


for _name in _ENGINE:
    _module = importlib.util.module_from_spec(importlib.util.find_spec(f"{__name__}.{_name}"))
    _module.__class__ = _Lazy  # after module_from_spec has set __name__, __file__, ...
    sys.modules[f"{__name__}.{_name}"] = globals()[_name] = _module
del _name, _module


class _Record:
    """A frozen record over the constructor's fields ``_fields``: no
    assignment or ``del``, equality only with its own type, ``repr`` as
    ``Name(field=value, ...)``, and copy and pickle through the constructor,
    so its checks run again.  A subclass that checks or derives fields has
    its own ``__init__``, which sets slots with ``object.__setattr__``."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._values()


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)
