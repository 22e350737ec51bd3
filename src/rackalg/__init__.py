"""Exact-arithmetic computer algebra for racks, rack-type braidings and
their quadratic algebras.

The package is organized bottom-up:

* ``perm``          permutations as tuples and the one group type
* ``exactnum``      exact readers of input numbers; the budget base class
* ``rack``          finite racks and their structural properties
* ``cocycle``       rational 2-cocycles on racks
* ``linalg``        exact rational matrices: one sparse integer elimination
* ``braided``       braidings V(X,q) / W(q,X) and quantum symmetrizers
* ``quadrel``       pair classes, quadratic relations, parameter spaces
* ``freealg``       free algebra over Q with a Groebner engine
* ``deform``        deformed ideals, nonzero/flatness verification
* ``grouprealize``  realizations over S4 and its function algebra
* ``catalog``       the named racks and cocycles used throughout
* ``cli``           command line interface with JSON reports

``cli`` imports the base layers its parser and every command read
(``perm``, ``exactnum``, ``rack``, ``cocycle``, ``catalog``) at the top,
and each further layer at dispatch, inside the handler that calls it, so
a command loads only the modules it runs.  Every
resource budget error subclasses ``exactnum.BudgetExceeded``, which is
what ``cli.main`` catches.

All arithmetic is exact (``int`` where integral, else ``fractions.Fraction``,
and ``int`` inside the Groebner engine); nothing here uses floats.
"""

__version__ = "0.1.0"
