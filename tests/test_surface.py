"""The public surface: the exported names, and the grid as the one handle on
the discretized curve."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

import curvedelta
from curvedelta import assembly, curves, resolvent, scattering, spectral


def test_exported_names():
    assert sorted(curvedelta.__all__) == [
        "ArcGrid", "BoundState", "BoxGrid", "ConfigError", "CountReport", "Curve",
        "CurveError", "EigenSystem", "InvariantError", "NumericsError",
        "ScatteringBlock", "asymptotic_count_bounds", "boundary_matrix",
        "choose_reference_energy", "chord_mean_inequality", "circle_chord",
        "circle_deviation", "circle_mode_eigenvalues", "circle_operator_matrix",
        "comparison_matrix", "correction_singular_values", "count_bound_states",
        "curve_from_json_dict", "curve_to_json_dict", "eigen",
        "find_bound_states", "fit_decay_slope", "green_kernel",
        "isoperimetric_compare", "layer_singular_values", "make_box", "make_circle",
        "make_ellipse", "make_grid", "perturbed_green",
        "reparametrize_arclength", "scale_to_length", "scattering_block",
        "scattering_kernel", "scattering_layer_matrix", "smoothing_kernel",
        "smoothing_matrix",
    ]
    assert all(hasattr(curvedelta, name) for name in curvedelta.__all__)


def test_tracer_names_resolve(monkeypatch):
    # perfbench/tracer.py wraps library functions by name with getattr, so a
    # deleted or renamed one would break `--trace 1`
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)   # for its dataclass
    spec.loader.exec_module(tracer)
    names = [name.split(".") for name in tracer.REPORTED if not name.startswith("linalg.")]
    assert names
    missing = [f"{layer}.{attr}" for layer, attr in names
               if not hasattr(importlib.import_module(f"curvedelta.{layer}"), attr)]
    assert missing == []


def _functions(module):
    return [(name, fn) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__]


@pytest.mark.parametrize("module", [assembly, curves, resolvent, scattering, spectral],
                         ids=lambda module: module.__name__)
def test_grid_is_the_only_handle_on_the_curve(module):
    # the grid carries its curve and its length, so a curve or a radius next
    # to it could only disagree with it
    with_grid = {name: set(inspect.signature(fn).parameters)
                 for name, fn in _functions(module)
                 if "grid" in inspect.signature(fn).parameters}
    assert with_grid
    assert [name for name, params in with_grid.items() if params & {"curve", "radius"}] == []


def test_only_curves_reads_the_radius():
    # R = L/(2 pi) comes from the grid's length; a circle's own radius can
    # differ from it in the last bit, where n (L/n) != L
    src = pathlib.Path(curvedelta.__file__).parent
    readers = sorted(path.name for path in src.glob("*.py")
                     if any(isinstance(node, ast.Attribute) and node.attr == "radius"
                            for node in ast.walk(ast.parse(path.read_text()))))
    assert readers == ["curves.py"]


def _linalg_calls(module, package: str) -> set[str]:
    """Names of the `<alias>.linalg.<name>(...)` calls in a module's source,
    where the alias is any name the module binds to `package`, and of the
    names it imports from `<package>.linalg`.  A matrix 1-norm,
    `norm(x, 1)`, reads "norm-1"; for numpy a matrix product reads "@"."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    nodes = list(ast.walk(tree))
    aliases = {(alias.asname or alias.name).split(".")[0] for node in nodes
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.split(".")[0] == package}
    names = {alias.name for node in nodes
             if isinstance(node, ast.ImportFrom) and node.module == f"{package}.linalg"
             for alias in node.names}
    for node in nodes:
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
                and func.value.attr == "linalg" and isinstance(func.value.value, ast.Name)
                and func.value.value.id in aliases):
            one_norm = (func.attr == "norm" and len(node.args) == 2
                        and isinstance(node.args[1], ast.Constant) and node.args[1].value == 1)
            names.add("norm-1" if one_norm else func.attr)
    if package == "numpy" and any(isinstance(node, ast.MatMult) for node in nodes):
        names.add("@")
    return names


def test_one_blas_pool_per_query():
    # numpy and scipy each load their own OpenBLAS with its own thread pool;
    # the scattering path (and the spectra it reads) stays in scipy's, the
    # probe in numpy's.  numpy's matrix 1-norm, a column sum, calls no BLAS.
    assert _linalg_calls(scattering, "numpy") <= {"norm-1"}
    assert _linalg_calls(spectral, "numpy") <= {"norm-1"}
    assert _linalg_calls(resolvent, "scipy") == set()
    assert _linalg_calls(resolvent, "numpy") >= {"qr", "solve", "svd", "eigvalsh", "@"}
