"""Compatibility module that no subcommand runs: the independence experiment
lives in ``weierstrass``.  The benchmark's span recorder still wraps these
names here and reads ``numpy.linalg`` once this module has run."""

import numpy  # noqa: F401

from .weierstrass import LatticeContext, _wp_all, independence_experiment  # noqa: F401
