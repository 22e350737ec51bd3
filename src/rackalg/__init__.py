"""Exact-arithmetic computer algebra for racks, rack-type braidings and
their quadratic algebras.

The package is organized bottom-up:

* ``perm``          permutations as tuples, closures, the one group type
* ``exactnum``      exact readers of the numbers in input documents
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

All arithmetic is exact (``fractions.Fraction``, with integral coefficients
kept as ``int`` inside the Groebner engine); nothing here uses floats.
"""

__version__ = "0.1.0"
