"""The package namespace is exactly the concatenation of the modules' own."""

import weylbuildings
from weylbuildings import boundary, building, coxeter, harmonic, hecke, period, poincare

MODULES = (coxeter, poincare, building, hecke, harmonic, boundary, period)


def test_package_all_is_the_module_lists_in_order():
    names = [name for module in MODULES for name in module.__all__]
    assert weylbuildings.__all__ == ["__version__", *names]
    assert len(set(names)) == len(names)


def test_package_names_are_the_modules_own_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(weylbuildings, name) is getattr(module, name), (module.__name__, name)
