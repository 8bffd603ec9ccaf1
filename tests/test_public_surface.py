import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import snwell

MODULES = sorted(m.name for m in pkgutil.iter_modules(snwell.__path__, prefix="snwell."))


@pytest.mark.parametrize("name", ["snwell", *MODULES])
def test_every_exported_name_resolves(name):
    # the traced benchmark run getattr()s every name in each layer's __all__
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_exports_what_it_imports():
    bound = {
        n for n, v in vars(snwell).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert sorted(bound) == sorted(snwell.__all__)


def test_package_surface_is_the_pinned_list():
    # the package re-exports every module's __all__, so a name added there
    # joins the surface; growing it takes an edit here too
    assert sorted(snwell.__all__) == sorted([
        "ModelParams", "contour_points", "depth", "harmonic_energy_estimate", "potential",
        "DiscreteHamiltonian", "SpatialGrid", "assemble", "make_grid",
        "EigenState", "Spectrum", "solve",
        "ConfigurationError", "NumericalError",
        "position_records",
        "SweepConfig", "SweepPointError", "SweepRecord", "emit_wigner_grid",
        "load_wigner_grid", "run_sweep",
        "MomentumGrid", "WignerField", "make_momentum_grid", "marginal_x",
        "nonreactive_probabilities", "nonreactive_probability", "wigner_transform",
    ])


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore keeps a name to its own module; the foreign-code
    # wrapper is imported whole (from . import _lapack), which stays allowed
    private = []
    for path in sorted(Path(snwell.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.level > 0 or node.module.split(".")[0] == "snwell"):
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_no_module_names_eigh_tridiagonal():
    # _lapack.lowest_eigenpairs is the one eigensolver driver: numpy's and
    # scipy's LAPACK only supply the dstebz and dstein it calls
    named = []
    for path in sorted(Path(snwell.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            fields = {getattr(node, f, None) for f in ("id", "attr", "name", "asname")}
            if "eigh_tridiagonal" in fields:
                named.append(f"{path.name}:{node.lineno}")
    assert named == []


def test_only_the_region_kernel_reads_the_prefix_table():
    # wigner._region_integrals is the one phase-space contraction: every sum
    # of a Wigner field over a region, the H <= 0 probability among them,
    # goes through it
    def readers(node, owner):
        """The innermost function around each use of the name under node."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif "_prefix_table" in {getattr(node, "id", None), getattr(node, "attr", None)}:
            yield owner
        for child in ast.iter_child_nodes(node):
            yield from readers(child, owner)

    found = [f"{path.name}:{owner}"
             for path in sorted(Path(snwell.__file__).parent.glob("*.py"))
             for owner in readers(ast.parse(path.read_text(), filename=str(path)), "<module>")]
    assert found == ["wigner.py:_region_integrals"]
