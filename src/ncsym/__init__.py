"""Exact Hopf-algebra computations on set partitions in the powersum basis.

The package republishes each module's ``__all__``, which is the one
declaration of what it exports: the combinatorial types (set partitions,
set compositions, words) from ``setparts`` and ``words``, the algebra layer
(elements, product, coproduct, antipodes, primitive generators, the Hall
basis machinery) from ``hopf``, and exact rank from ``linalg``.  The
verification sweeps behind the ``ncsym verify`` command live in ``verify``.
"""

from .setparts import *
from .words import *
from .hopf import *
from .linalg import *

__version__ = "0.1.0"
