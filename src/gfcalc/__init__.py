"""Fractional integrals, derivatives, and initial value problems with a
power-law kernel scale parameter rho (rho = 1 is classical Riemann-Liouville,
rho -> 0 with a > 0 the logarithmic-kernel limit)."""

from . import fracops, problemfile, solver, specialfn
from .fracops import *
from .problemfile import *
from .solver import *
from .specialfn import *

__version__ = "0.1.0"

__all__ = [*dict.fromkeys(fracops.__all__ + specialfn.__all__ + solver.__all__
                          + problemfile.__all__), "__version__"]
