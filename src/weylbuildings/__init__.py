"""Exact arithmetic for affine Weyl groups, their growth series and Hecke
algebras, lattice-class buildings over the p-adic numbers (n = 2, 3),
harmonic cochains, the tree boundary map, and the alternating period sum.

Everything is integer or Fraction arithmetic: no floats, no rounding.

The public names are those of each module's ``__all__``, re-exported here
in the order coxeter, poincare, building, hecke, harmonic, boundary, period.
A submodule is imported when it, or one of its names, is first read from
the package (PEP 562), so ``import weylbuildings`` loads nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("coxeter", "poincare", "building", "hecke", "harmonic", "boundary", "period")


def _public_names() -> list[str]:
    modules = [import_module(f".{m}", __name__) for m in _MODULES]
    return ["__version__", *(name for module in modules for name in module.__all__)]


def __getattr__(name: str):
    if name in _MODULES or name in ("exact", "cli"):
        return import_module(f".{name}", __name__)  # the import binds it here
    if name == "__all__":
        value = _public_names()
    else:
        for m in _MODULES:
            module = import_module(f".{m}", __name__)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    names = _public_names()  # importing each module binds it here
    return sorted({*globals(), *names, "__all__"})
