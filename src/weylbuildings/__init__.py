"""Exact arithmetic for affine Weyl groups, their growth series and Hecke
algebras, lattice-class buildings over the p-adic numbers (n = 2, 3),
harmonic cochains, the tree boundary map, and the alternating period sum.

Everything is integer or Fraction arithmetic: no floats, no rounding.

The public names are those of each module's ``__all__``, re-exported here
in the order coxeter, poincare, building, hecke, harmonic, boundary, period.
"""

from . import boundary, building, coxeter, harmonic, hecke, period, poincare
from .boundary import *  # noqa: F403
from .building import *  # noqa: F403
from .coxeter import *  # noqa: F403
from .harmonic import *  # noqa: F403
from .hecke import *  # noqa: F403
from .period import *  # noqa: F403
from .poincare import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *coxeter.__all__,
    *poincare.__all__,
    *building.__all__,
    *hecke.__all__,
    *harmonic.__all__,
    *boundary.__all__,
    *period.__all__,
]
