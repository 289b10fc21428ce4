"""Ergodic 1-Lipschitz dynamics over F2[[T]] and Z2, truncated to finite precision.

Bit-packed power series arithmetic, Van der Put and Carlitz basis
expansions with verified measure-preservation and single-cycle criteria,
a constructive generator of transitive maps, keystream orbits, and the
2-adic reference theory for comparison.  Each job has one fast path; the
exact Carlitz polynomials, F2[T] division, unit inversion and ball
indicators that check those paths are oracles in the test suite, not part
of the library.

Each name is declared once, in the `__all__` of the submodule that
defines it, and is imported from there.  The package exports nothing and
loads no submodule, so a `python -m tadic` run loads only the modules its
command uses.
"""

__version__ = "0.1.0"

__all__ = []
