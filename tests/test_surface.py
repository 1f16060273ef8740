"""The public surface: the exported names, the grid as the one handle on
the discretized curve, the one rule for keeping results on it, and the
README's library example."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

import numpy as np
import pytest

import curvedelta
from curvedelta import assembly, curves, resolvent, scattering, spectral

SRC = pathlib.Path(curvedelta.__file__).parent


def test_exported_names():
    assert sorted(curvedelta.__all__) == [
        "ArcGrid", "BoundState", "ConfigError", "CountReport", "Curve",
        "CurveError", "InvariantError", "NumericsError",
        "ScatteringBlock", "asymptotic_count_bounds", "boundary_matrix",
        "circle_chord",
        "circle_deviation", "circle_mode_eigenvalues",
        "correction_singular_values", "count_bound_states",
        "curve_from_json_dict", "curve_to_json_dict", "eigen",
        "find_bound_states", "fit_decay_slope", "green_kernel",
        "isoperimetric_compare", "layer_singular_values", "make_circle",
        "make_ellipse", "make_grid", "perturbed_green",
        "reparametrize_arclength", "scale_to_length", "scattering_block",
        "scattering_kernel", "scattering_layer_matrix", "smoothing_kernel",
    ]
    assert len(curvedelta.__all__) == 34
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
    readers = sorted(path.name for path in SRC.glob("*.py")
                     if any(isinstance(node, ast.Attribute) and node.attr == "radius"
                            for node in ast.walk(ast.parse(path.read_text()))))
    assert readers == ["curves.py"]


def test_one_reader_of_the_boundary_operator():
    # B(lam) is assembled in spectral._Operator alone, which chooses how its
    # spectrum is read and holds the one spectral-margin rule
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  and (path.name, cls.name) == ("spectral.py", "_Operator")
                  for node in ast.walk(cls)}
        found += [(path.name, node.lineno, id(node) in inside) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "boundary_matrix"]
    assert [(name, inside) for name, _, inside in found] == [("spectral.py", True)], found


def test_no_representation_branch_in_the_operator():
    # a circle grid's known eigenpairs live in spectral._CircleOperator, and
    # spectral._operator picks the class: no method of the dense _Operator
    # reads the circle's wavenumbers, and no function but the factory asks
    # whether the grid is a circle (`ArcGrid.is_circle`), the count
    # included, whose sandwich is a circle's closed form; the equal-length
    # circle is the grid's (`ArcGrid.equal_length_circle`)
    tree = ast.parse((SRC / "spectral.py").read_text())
    dense = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "_Operator")
    assert [node.lineno for node in ast.walk(dense) if isinstance(node, ast.Attribute)
            and node.attr in ("_waves", "is_circle")] == []
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Attribute) and node.attr == "is_circle"
                       for node in ast.walk(fn))}
    assert readers == {"_operator"}
    assert spectral._CircleOperator.__bases__ == (spectral._Operator,)


def _owners(tree) -> dict[int, str]:
    """The innermost function around each node of a module, by node id:
    ast.walk reaches the innermost function last."""
    return {id(node): fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}


def test_one_builder_of_the_equal_length_circle():
    # ArcGrid.equal_length_circle decides the equal-length circle's grid,
    # so besides it only a curve file's circle is built
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        found += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if _called(node) == "make_circle"]
    assert sorted(found) == [("curves.py", "curve_from_json_dict"),
                             ("curves.py", "equal_length_circle")]


def test_one_circle_branch_in_scattering():
    # scattering_block picks the system, the circle's Fourier modes or the
    # dense table, and nothing else in the module asks whether the grid is
    # a circle (`ArcGrid.is_circle`)
    tree = ast.parse((SRC / "scattering.py").read_text())
    block = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "scattering_block")
    inside = {id(node) for node in ast.walk(block)}
    reads = [(node.lineno, id(node) in inside) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "is_circle"]
    assert len(reads) == 1 and reads[0][1], reads


def _circle_reads(path: pathlib.Path) -> list[tuple[str | None, str]]:
    """(innermost function, object asked) of each `.is_circle` read in a
    source file."""
    tree = ast.parse(path.read_text())
    owner = _owners(tree)
    return [(owner.get(id(node)), ast.unparse(node.value)) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "is_circle"]


def test_circle_is_the_grids_decision():
    # a grid is a circle by its chords (ArcGrid.is_circle), decided once, so
    # no curve carries a circle flag, no call passes one, and every circle
    # path asks the grid, never its curve
    reads, flags = [], []
    for path in sorted(SRC.glob("*.py")):
        reads += [(path.name, *read) for read in _circle_reads(path)]
        flags += [(path.name, node.lineno) for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.keyword) and node.arg == "is_circle"]
    assert flags == []
    assert sorted(reads) == [
        ("assembly.py", "_comparison_block", "grid"),
        ("cli.py", "cmd_isoperimetric", "grid"),
        ("cli.py", "cmd_spectrum", "grid"),
        ("curves.py", "equal_length_circle", "self"),
        ("scattering.py", "scattering_block", "grid"),
        ("spectral.py", "_operator", "grid"),
    ]
    assert isinstance(inspect.getattr_static(curvedelta.ArcGrid, "is_circle"), property)
    assert not hasattr(curvedelta.make_circle(1.0), "is_circle")
    assert "is_circle" not in inspect.signature(curvedelta.Curve).parameters


def _divides_by_six(node) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.right, ast.Constant) and node.right.value == 6)


def test_one_diagonal_rule():
    # every trapezoid table's diagonal is w times its kernel's limit at chord
    # 0 plus the Euler-Maclaurin increment w^2 slope / 6, written once, in
    # assembly._trapezoid_diagonal: nothing else divides by 6 but the
    # smoothing kernel's Taylor series, each table's diagonal calls the
    # rule, and no other module imports a function that applies it
    found, imported = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        found += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if _divides_by_six(node)]
        imported += [alias.name for node in ast.walk(tree) if path.name != "assembly.py"
                     and isinstance(node, ast.ImportFrom) and node.module == "assembly"
                     for alias in node.names]
    assert sorted(found) == [("assembly.py", "_trapezoid_diagonal"),
                             ("kernels.py", "smoothing_kernel")]
    applying = [name for name in set(imported) if inspect.isfunction(fn := getattr(assembly, name))
                and any(map(_divides_by_six, ast.walk(ast.parse(inspect.getsource(fn)))))]
    assert applying == []
    tree = ast.parse((SRC / "assembly.py").read_text())
    owner = _owners(tree)
    assert sorted(owner.get(id(node)) for node in ast.walk(tree)
                  if _called(node) == "_trapezoid_diagonal") == [
        "_comparison_block", "_derivative_diagonal", "_resolved", "smoothing_row"]


def test_one_resolution_rule():
    # assembly._resolved alone decides that the grid cannot resolve lam, and
    # only the smoothing row and B''s diagonal, which every path to B(lam)
    # and B'(lam) reads, call it: its message is written nowhere else, and
    # no second diagonal or `capped` switch for that regime is left in src/
    lines, start = inspect.getsourcelines(assembly._resolved)
    found = [(path.name, number) for path in sorted(SRC.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if "is unresolved" in line]
    assert len(found) == 1 and found[0][0] == "assembly.py", found
    assert start <= found[0][1] < start + len(lines)
    assert [(path.name, number) for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "capped" in line] == []
    tree = ast.parse((SRC / "assembly.py").read_text())
    owner = _owners(tree)
    assert sorted(owner.get(id(node)) for node in ast.walk(tree)
                  if _called(node) == "_resolved") == ["_derivative_diagonal", "smoothing_row"]


def test_one_builder_of_the_real_boundary_operator():
    # assembly alone knows how the parts of Re B(lam + i0), B(lam) at
    # lam <= 0, depend on lam: the energy picks the smoothing row and the
    # comparison kernel there.  So neither scattering nor spectral imports
    # from kernels, no other module calls the smoothing row, no second row
    # or kernel closure is left, and scattering reads assembly only through
    # the wave order, the circle modes and the one table builder
    found, names = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        found += [(path.name, owner.get(id(node)), "kernels") for node in ast.walk(tree)
                  if path.name in ("scattering.py", "spectral.py")
                  and isinstance(node, ast.ImportFrom)
                  and (node.module == "kernels"
                       or any(alias.name == "kernels" for alias in node.names))]
        found += [(path.name, owner.get(id(node)), "smoothing_row") for node in ast.walk(tree)
                  if path.name != "assembly.py" and _called(node) == "smoothing_row"]
        names |= {getattr(node, "name", getattr(node, "id", getattr(node, "attr", None)))
                  for node in ast.walk(tree)}
    assert found == []
    assert names & {"_outgoing_smoothing_row", "_green"} == set()
    imported = {alias.name for node in ast.walk(ast.parse((SRC / "scattering.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "assembly"
                for alias in node.names}
    assert imported == {"_circle_waves", "_circulant_plus_comparison", "circle_boundary_modes"}


def test_one_builder_of_the_wave_order():
    # assembly._circle_waves lists the real Fourier modes by wavenumber, each
    # pair twice, and sorts them stably by value, so that a pair stays
    # adjacent, cos first: no other function repeats the wavenumbers or
    # sorts the modes itself
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        found += [(path.name, owner.get(id(node)), _called(node)) for node in ast.walk(tree)
                  if _called(node) == "repeat" or (_called(node) == "argsort" and any(
                      getattr(arg, "value", None) == "stable" for arg in ast.walk(node)))]
    assert sorted(found) == [("assembly.py", "_circle_waves", "argsort"),
                             ("assembly.py", "_circle_waves", "repeat")]


def test_one_non_finite_refusal():
    # assembly._finite refuses every table, circle mode set and compression
    # sweep with a non-finite entry: its message is written nowhere else
    lines, start = inspect.getsourcelines(assembly._finite)
    found = [(path.name, number) for path in sorted(SRC.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if "non-finite matrix entries" in line]
    assert len(found) == 1 and found[0][0] == "assembly.py", found
    assert start <= found[0][1] < start + len(lines)


def test_operators_come_from_the_factory():
    # spectral._operator picks the class of B(lam) for the grid, so no
    # module constructs either class itself
    found = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _called(node) in ("_Operator", "_CircleOperator")]
    assert found == []


def test_operators_own_their_buffers():
    # each spectral._Operator owns its N x N buffers, B, B' and the copy
    # ?sytrf factors, and a root search hands them from each operator to
    # the next: no workspace object or weak reference stands beside them,
    # _Operator._buffer alone allocates one, every build and copy of B or
    # B' fills one, and the factory takes the previous operator
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if any(name in path.read_text() for name in ("_Workspace", "weakref"))]
    assert found == []
    tree = ast.parse((SRC / "spectral.py").read_text())
    owner = _owners(tree)
    operators = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                 and cls.name in ("_Operator", "_CircleOperator") for node in ast.walk(cls)]
    allocations = [(owner.get(id(node)), _called(node)) for node in operators
                   if _called(node) in ("empty", "zeros", "ones", "full") and node.args
                   and isinstance(node.args[0], ast.Tuple) or _called(node) == "copy"]
    assert allocations == [("_buffer", "empty")]
    buffers = sorted((owner.get(id(node)), node.args[0].value) for node in ast.walk(tree)
                     if _called(node) == "_buffer")
    assert buffers == [("_assembly", "matrix"), ("_derivative", "derivative"),
                       ("_inertia", "factor")]
    builds = [(owner.get(id(node)), [_called(kw.value) for kw in node.keywords
                                     if kw.arg == "out"]) for node in ast.walk(tree)
              if _called(node) in ("boundary_matrix", "boundary_derivative")]
    assert sorted(builds) == [("_assembly", ["_buffer"]), ("_derivative", ["_buffer"])]
    assert list(inspect.signature(spectral._operator).parameters) == [
        "lam", "grid", "guess", "previous"]


def _numpy_linalg_calls(path: pathlib.Path) -> set[str]:
    """Names of the `<alias>.linalg.<name>(...)` calls in a module's source,
    where the alias is any name the module binds to numpy, and of the names
    it imports from `numpy.linalg`."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    aliases = {(alias.asname or alias.name).split(".")[0] for node in nodes
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.split(".")[0] == "numpy"}
    names = {alias.name for node in nodes
             if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
             for alias in node.names}
    for node in nodes:
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
                and func.value.attr == "linalg" and isinstance(func.value.value, ast.Name)
                and func.value.value.id in aliases):
            names.add(func.attr)
    return names


def _names(tree) -> set[str]:
    """Every name a module's source reads, binds, imports or defines, and
    every attribute it reads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def test_one_blas_pool_per_query():
    # numpy and scipy each load their own OpenBLAS with its own thread pool,
    # and every dense factorization, solve and spectrum of the package goes
    # through scipy's: no module calls numpy.linalg for more than a norm,
    # nor a numpy routine that calls it (np.polyfit solves by lstsq,
    # leggauss by eigvalsh)
    found = {path.name: _numpy_linalg_calls(path) for path in sorted(SRC.glob("*.py"))}
    assert {"resolvent.py", "scattering.py", "spectral.py"} <= set(found)
    assert {name: calls - {"norm"} for name, calls in found.items()} == dict.fromkeys(found, set())
    indirect = {path.name: _names(ast.parse(path.read_text())) & {"polyfit", "lstsq", "leggauss"}
                for path in sorted(SRC.glob("*.py"))}
    assert indirect == dict.fromkeys(indirect, set())


def _top_level_owners(tree) -> dict[int, str]:
    """The module-level function or `Class.method` around each node of a
    module, by node id."""
    owners = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            owners.update(dict.fromkeys(map(id, ast.walk(top)), top.name))
        elif isinstance(top, ast.ClassDef):
            for fn in top.body:
                if isinstance(fn, ast.FunctionDef):
                    owners.update(dict.fromkeys(map(id, ast.walk(fn)), f"{top.name}.{fn.name}"))
    return owners


def test_one_arc_length_inversion():
    # _ArcTable.param_at is the one inversion of the arc-length function,
    # for the guard's nodes, the stencil's points and every grid's nodes
    # alike, through Curve.param_at_arclength; the curve's speed is
    # evaluated only by the table's build, the regularity check and Curve
    # itself, and no earlier inversion path, its chunking or its Gauss
    # rules is left
    tree = ast.parse((SRC / "curves.py").read_text())
    owner = _top_level_owners(tree)
    callers = {name: {owner.get(id(node)) for node in ast.walk(tree) if _called(node) == name}
               for name in ("speed", "param_at", "param_at_arclength", "point_at_arclength")}
    assert {c for c in callers["speed"] if not c.startswith("Curve.")} == {
        "_ArcTable.__init__", "reparametrize_arclength"}
    assert callers["param_at"] == {"Curve.param_at_arclength"}
    assert callers["param_at_arclength"] | callers["point_at_arclength"] == {
        "Curve.point_at_arclength", "reparametrize_arclength", "_unit_speed_deviation",
        "make_grid"}
    assert {name for name in set(owner.values()) if name.split(".")[-1] == "param_at"} == {
        "_ArcTable.param_at"}
    retired = {"_params_past", "_arc", "guard_params", "_CHECK_NODES", "_chunks",
               "_by_chunks", "leggauss", "length_at"}
    assert _names(tree) & retired == set()


def _called(node) -> str | None:
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "id", getattr(func, "attr", None))


def test_one_symmetric_factorization():
    # spectral._ldl is the package's one Bunch-Kaufman LDL^T factorization
    # and spectral._ldl_solve its one solve, for the root search's inertias
    # and inverse iteration, the scattering system and the Green function
    # alike: ?sytrf and ?sytrs are fetched and called nowhere else, and no
    # module calls scipy.linalg.solve
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        found += [(path.name, owner.get(id(node)), name) for node in ast.walk(tree)
                  for name in (_called(node), isinstance(node, ast.Constant) and node.value)
                  if name in ("sytrf", "sytrs", "solve")]
    assert sorted(set(found)) == [("spectral.py", "_ldl", "sytrf"),
                                  ("spectral.py", "_ldl_solve", "sytrs")], found
    # scipy's default ?sytrf workspace is one column, so LAPACK falls back
    # to its unblocked code: 70 ms against 18 ms with the queried size at
    # N = 1024, 1.02 ms against 0.73 ms at N = 256 (1 thread).  _ldl passes
    # an lwork it computes from ?sytrf_lwork.
    ldl = ast.parse(inspect.getsource(spectral._ldl))
    queried = {target.id for node in ast.walk(ldl) if isinstance(node, ast.Assign)
               and any(_called(call) == "sytrf_lwork" for call in ast.walk(node.value))
               for target in node.targets if isinstance(target, ast.Name)}
    [call] = [node for node in ast.walk(ldl) if _called(node) == "sytrf"]
    [lwork] = [kw.value for kw in call.keywords if kw.arg == "lwork"]
    assert isinstance(lwork, ast.Name) and lwork.id in queried


@pytest.mark.parametrize("make", [
    lambda grid: grid,
    lambda grid: resolvent.make_box(grid, n=4, bounds=(-3.0, 3.0), exclusion_radius=0.1),
], ids=["ArcGrid", "BoxGrid"])
def test_grids_compare_by_identity(ellipse, make):
    # a generated == would compare the arrays and raise on their truth
    # value, and would leave the type unhashable
    a = make(curvedelta.make_grid(ellipse, 64))
    b = make(curvedelta.make_grid(ellipse, 64))
    assert a != b and a == a
    assert {a: "a", b: "b"}[b] == "b"


def test_one_keeping_rule():
    # results are kept on a grid through curves._kept alone: any
    # other use of an instance __dict__ or setattr would be a second memo,
    # and so would a cached_property of a grid, which _kept cannot see
    cached = [node.lineno for node in ast.walk(ast.parse((SRC / "curves.py").read_text()))
              if "cached_property" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert cached == []
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        kept = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and (path.name, node.name) == ("curves.py", "_kept")]
        inside = {id(node) for fn in kept for node in ast.walk(fn)}
        for node in ast.walk(tree):
            escape = (isinstance(node, ast.Attribute)
                      and node.attr in ("__dict__", "__setattr__")
                      or isinstance(node, ast.Name) and node.id in ("setattr", "vars"))
            if escape:
                found.append((path.name, node.lineno, id(node) in inside))
    assert found and all(in_kept for _, _, in_kept in found), found


def test_kept_holds_one_entry_per_name(ellipse):
    grid = curvedelta.make_grid(ellipse, 64)
    built = []

    def build(key):
        built.append(key)
        return np.full(3, key)

    first = curves._kept(grid, "table", 1.0, lambda: build(1.0))
    assert curves._kept(grid, "table", 1.0, lambda: build(1.0)) is first
    assert not first.flags.writeable
    curves._kept(grid, "table", 2.0, lambda: build(2.0))
    curves._kept(grid, "table", 1.0, lambda: build(1.0))
    assert built == [1.0, 2.0, 1.0]
    assert curves._kept(grid, "norm", 1.0, lambda: 0.5) == 0.5


def test_kept_name_hides_no_method(ellipse):
    # a result kept under the name of a method leaves the method callable
    grid = curvedelta.make_grid(ellipse, 64)
    assert curves._kept(grid, "equal_length_circle", None, lambda: 1.0) == 1.0
    circle = grid.equal_length_circle()
    assert isinstance(circle, curvedelta.ArcGrid) and circle.is_circle
    assert grid.equal_length_circle() is circle
    assert curves._kept(grid, "equal_length_circle", None, lambda: 2.0) == 1.0


def test_readme_library_example():
    readme = (SRC.parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["states"]) == 1
    assert namespace["report"].count == 25
