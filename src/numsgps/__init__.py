"""Numerical semigroups, their quotients, and exact invariant identities.

The package computes canonical invariants (minimal generators, Frobenius
number, genus, Apery sets) of numerical semigroups, builds quotients
S/d = {x : d*x in S}, and implements a family of closed-form identities
for quotient invariants: a genus formula through values of the member
generating function at roots of unity, two-generator closed forms,
quasipolynomial structure in arithmetic progressions, and the classical
symmetric-semigroup shortcuts.  Every identity is backed by brute-force
verification sweeps, reachable from the command line via ``numsgps``.

Each name is imported from the module that defines it: ``numsgps.core``
(semigroups, Apery sets and the errors), ``numsgps.quotient``,
``numsgps.roots``, ``numsgps.progressions`` and ``numsgps.verify``.
"""

__version__ = "0.1.0"
