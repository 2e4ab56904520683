"""The package namespace is exactly the concatenation of the modules' own."""

import weylbuildings
from weylbuildings import PrimeContext, standard_lattice, vertex_tree
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


def test_context_has_no_precision_field():
    # bench/session.py still passes precision=; it is accepted and dropped
    assert PrimeContext.__slots__ == ("p", "n")
    assert not hasattr(PrimeContext(p=2, n=3, precision=8), "precision")
    assert not hasattr(weylbuildings, "PrecisionError")
    assert not hasattr(building, "PrecisionError")
    old, new = PrimeContext(p=2, n=3, precision=8), PrimeContext(p=2, n=3)
    assert old == new
    assert hash(old) == hash(new)
    # so they share per-context caches; vertex trees live on the n = 2 tree
    old, new = PrimeContext(p=2, n=2, precision=8), PrimeContext(p=2, n=2)
    assert vertex_tree(old, standard_lattice(old), 2) is vertex_tree(new, standard_lattice(new), 2)
