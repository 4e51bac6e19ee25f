"""Exact quantized coordinate algebras and their tensor representations.

Modules:

* :mod:`qschur.laurent`  -- arithmetic in Z[q, q^-1], quantum integers.
* :mod:`qschur.linalg`   -- exact sparse linear algebra over the Laurent
  ring; every computation of the package stays in Z[q, q^-1].
* :mod:`qschur.tableaux` -- partitions, (rational) tableaux, the
  rational/ordinary tableau correspondence, multi-indices.
* :mod:`qschur.qmatrix`  -- the quantum matrix algebra, quantum minors,
  bideterminants, Laplace expansions, straightening with Laurent
  coefficients.
* :mod:`qschur.mixed`    -- the mixed coefficient algebra, the embedding
  iota, rational bideterminants and their straightening (Laurent
  coefficients too), phi with a Laurent representative.
* :mod:`qschur.tensor`   -- Hecke/walled/quantum-group generator matrices
  on (mixed) tensor space, commutant and image dimensions, the end-to-end
  double-commutant verification.
* :mod:`qschur.cli`      -- the ``qschur`` command-line interface.
"""

from .laurent import LaurentPoly, quantum_binomial, quantum_integer
from .tensor import verify_schur_weyl

__all__ = ["LaurentPoly", "quantum_binomial", "quantum_integer",
           "verify_schur_weyl"]

__version__ = "0.1.0"
