"""Fractional integrals, derivatives, and initial value problems with a
power-law kernel scale parameter rho (rho = 1 is classical Riemann-Liouville,
rho -> 0 with a > 0 the logarithmic-kernel limit).

Names load on first use (PEP 562), so ``import gfcalc`` imports neither
numpy nor a submodule.  A submodule, as in ``from gfcalc import cli``, loads
that submodule alone, and a ``specialfn`` name loads ``specialfn`` alone;
any other name and ``__all__`` load the numeric modules too.
"""

import importlib
import importlib.util

__version__ = "0.1.0"


def __getattr__(name):
    # importlib, not ``from . import``, which would call back in here
    if name.isidentifier() and importlib.util.find_spec(f"{__name__}.{name}"):
        return importlib.import_module(f".{name}", __name__)
    specialfn = importlib.import_module(".specialfn", __name__)
    if name in specialfn.__all__:
        return getattr(specialfn, name)
    modules = [importlib.import_module(f".{mod}", __name__)
               for mod in ("fracops", "specialfn", "solver", "problemfile")]
    public = {attr: getattr(mod, attr) for mod in modules for attr in mod.__all__}
    globals().update(public, __all__=[*public, "__version__"])
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
