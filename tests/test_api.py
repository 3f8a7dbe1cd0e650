"""The public API names what exists: every `__all__` entry and every
name the package re-exports resolves to an object."""

import ast
import dis
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import sgmor

MODULES = sorted(f"sgmor.{m.name}" for m in pkgutil.iter_modules(sgmor.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


# public names and class members that only tests call, kept because they are
# what the paper delivers: serialize_netlist writes back the netlist
# parse_netlist reads (acceptance criterion 9's round trip), and
# sparse_output_eval and transform_coefficients evaluate the paper's sparse
# surrogates of the random output, the pruned expansion and the SVD-basis
# coefficients
DELIVERABLES = {
    "serialize_netlist",
    "sparse_output_eval",
    "transform_coefficients",
    # the orthonormalized basis functions themselves, evaluated at parameter points
    "OrthonormalizedBasis.eval_orthonormal",
    # a simulated output's L2 and sup norms in time, the quantities that
    # the sparsification and reduction bounds are stated for
    "Trajectory.output_l2",
    "Trajectory.output_sup",
}

REPO = Path(__file__).resolve().parent.parent


def _loaded_names(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Names the tree loads, bare or as an attribute, outside any function
    or class named `skip`."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _read_attributes(tree: ast.AST) -> set[str]:
    """Attribute names the tree reads, as `x.name` or `getattr(x, "name")`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            names.add(node.args[1].value)
    return names


def _public_members(cls: type) -> list[str]:
    """The public methods, properties and annotated fields a class defines itself."""
    fields = vars(cls).get("__annotations__", {})
    routines = [
        n for n, v in vars(cls).items() if inspect.isfunction(v) or isinstance(v, (property, classmethod, staticmethod))
    ]
    return [n for n in dict.fromkeys([*fields, *routines]) if not n.startswith("_")]


def test_public_names_have_callers():
    # a public name, or a field, property or method of a public class, that
    # nothing outside tests/ uses is code kept for its tests alone; neither an
    # export list nor a package re-export counts
    paths = [path for d in ("src", "demos", "perfbench") for path in sorted((REPO / d).rglob("*.py"))]
    sources = {path: ast.parse(path.read_text()) for path in paths}
    assert any(path.name == "traced.py" for path in sources), "the guard no longer sees perfbench/"
    read = set().union(*map(_read_attributes, sources.values()))
    unused = []
    for name in MODULES:
        module = importlib.import_module(name)
        own = Path(module.__file__).resolve()
        for public in getattr(module, "__all__", ()):
            used = any(
                public in _loaded_names(tree, public if path.resolve() == own else None)
                for path, tree in sources.items()
            )
            if not used and public not in DELIVERABLES:
                unused.append(f"{name}.{public}")
            cls = getattr(module, public)
            if inspect.isclass(cls) and cls.__module__ == name:
                unused += [
                    f"{name}.{public}.{member}"
                    for member in _public_members(cls)
                    if member not in read and f"{public}.{member}" not in DELIVERABLES
                ]
    assert not unused, f"public names with no caller outside tests/: {unused}"


def test_package_reexports_resolve():
    tree = ast.parse(Path(sgmor.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"sgmor.{node.module}")
        for alias in node.names:
            assert alias.name in getattr(module, "__all__", ()), f"sgmor.{node.module} does not export {alias.name}"
            assert getattr(sgmor, alias.asname or alias.name) is getattr(module, alias.name)


# the names perfbench/traced.py replaces in the `sgmor.cli` namespace to time
# each layer; a stage that stops looking one of them up there drops its span
TRACED_CLI_NAMES = [
    "parse_netlist",
    "mna_assemble",
    "build_index_set",
    "assemble",
    "downsize",
    "sample_transfer",
    "hardy_norms",
    "pencil_spectrum",
    "simulate_transient",
    "rank_and_theta",
    "select_indices",
    "theorem1_certificate",
    "theorem2_certificate",
    "arnoldi_reduce",
    "svd_basis",
    "deflate",
    "_load_galerkin",
    "_load_samples",
    "_write_csv",
    "_write_json",
]


@pytest.mark.parametrize("name", TRACED_CLI_NAMES)
def test_cli_binds_traced_names(name):
    from sgmor import cli

    assert callable(getattr(cli, name, None)), f"sgmor.cli no longer binds {name}"
    codes = [f.__code__ for f in vars(cli).values() if inspect.isfunction(f) and f.__module__ == cli.__name__]
    globals_read = set()
    while codes:  # each function with its nested comprehensions and closures
        code = codes.pop()
        globals_read.update(i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL")
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    assert name in globals_read, f"no function of sgmor.cli looks {name} up as a global"


def _scoped_calls(node, scope=()):
    """(scope, call) for every call under node; scope names the enclosing
    classes and functions, outermost first."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
        if isinstance(child, ast.Call):
            yield inner, child
        yield from _scoped_calls(child, inner)


def _callee(call: ast.Call) -> str | None:
    return call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)


SOURCE_CALLS = [
    (f"{path.stem}:{'.'.join(scope)}", call)
    for path in sorted(Path(sgmor.__file__).parent.glob("*.py"))
    for scope, call in _scoped_calls(ast.parse(path.read_text()))
]


def _within(where: str, scopes) -> bool:
    return any(where == s or where.startswith(s + ".") for s in scopes)


def test_matrix_type_asked_only_where_decided():
    # a system's matrix format is fixed when it is built; nothing else asks
    # what type a matrix is
    decided = ("descriptor:DescriptorSystem", "galerkin:ParametricSystem.__post_init__")
    asked = {where for where, call in SOURCE_CALLS if _callee(call) == "issparse"}
    assert asked, "no issparse call found: the guard no longer sees the source"
    assert all(_within(where, decided) for where in asked), sorted(asked)


def test_system_matrices_not_reconverted():
    # a conversion of a system's E, A or C, or of a product, outside the
    # classes that fix the format, repeats their decision
    converters = {"csr_matrix", "csc_matrix", "coo_matrix", "csr_array", "asarray", "array", "toarray"}
    matrices = {"E", "A", "C", "E0", "A0", "C0"}
    construction = ("descriptor:DescriptorSystem", "galerkin:ParametricSystem")
    offenders = []
    for where, call in SOURCE_CALLS:
        if _callee(call) not in converters or _within(where, construction):
            continue
        subject = call.args[0] if call.args else getattr(call.func, "value", None)
        product = isinstance(subject, ast.BinOp) and isinstance(subject.op, ast.MatMult)
        if product or (isinstance(subject, ast.Attribute) and subject.attr in matrices):
            offenders.append(f"{where}: {ast.unparse(call)}")
    assert not offenders, offenders


def test_factorizations_only_in_factor_pencil():
    # factor_pencil is the one place that factors a pencil, by SuperLU alone,
    # and SuperLU's symmetric mode, good at the transient's real shift 2/h
    # but not at a sweep's complex shifts, is asked for by simulate_transient
    # alone
    factorizations = {where for where, call in SOURCE_CALLS if _callee(call) == "splu"}
    assert factorizations == {"solver:factor_pencil"}, sorted(factorizations)
    assert not [where for where, call in SOURCE_CALLS if _callee(call) == "lu_factor"]
    symmetric = {
        where
        for where, call in SOURCE_CALLS
        if _callee(call) == "factor_pencil" and any(k.arg == "symmetric_mode" for k in call.keywords)
    }
    assert symmetric == {"descriptor:simulate_transient"}, sorted(symmetric)


def test_shifted_solve_policy_in_one_class():
    # the sweep and Arnoldi share one solve policy: within solver.py only
    # ShiftedSolver runs GMRES, factors a pencil or reports a miss; elsewhere
    # only the transfer function at one point and the transient factor a
    # pencil themselves, and nothing else of the policy is called
    policy = {"_gmres_schur", "factor_pencil", "ResidualMissError"}
    calls = {(where, _callee(call)) for where, call in SOURCE_CALLS if _callee(call) in policy}
    inside = {(where, callee) for where, callee in calls if where.startswith("solver:")}
    assert {callee for _, callee in inside} == policy, "a policy call is gone: the guard no longer sees the source"
    offenders = {where for where, _ in inside if not _within(where, ("solver:ShiftedSolver",))}
    assert not offenders, sorted(offenders)
    assert calls - inside == {
        ("descriptor:transfer_eval", "factor_pencil"),
        ("descriptor:simulate_transient", "factor_pencil"),
    }, sorted(calls - inside)


def _imported_modules(path: Path) -> set[str]:
    """The modules a source file imports, relative ones as sgmor.<name>."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            base = ".".join(filter(None, ["sgmor", node.module]))
            names.update([base] if node.module else (f"sgmor.{alias.name}" for alias in node.names))
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def test_solver_below_descriptor_below_the_rest():
    # solver.py is the bottom layer, and descriptor.py sits right above it,
    # so that the transient can share the solver with the sweep and Arnoldi
    package = Path(sgmor.__file__).parent
    solver_imports = _imported_modules(package / "solver.py")
    assert "numpy" in solver_imports, "the guard no longer sees solver.py's imports"
    assert not {m for m in solver_imports if m == "sgmor" or m.startswith("sgmor.")}, sorted(solver_imports)
    descriptor_imports = _imported_modules(package / "descriptor.py")
    assert "sgmor.solver" in descriptor_imports, "the guard no longer sees descriptor.py's imports"
    above = {f"sgmor.{m}" for m in ("hardy", "galerkin", "mor", "sparsify", "cli")}
    assert not descriptor_imports & above, sorted(descriptor_imports & above)


def test_generalized_eigenproblems_only_in_schur_form():
    # one path for dense generalized eigen and Schur decompositions: the real
    # Schur form kept on a dense DescriptorSystem, which the dense sampler and
    # pencil_spectrum both read.  A LAPACK routine counts by its name with or
    # without the precision letter, called or named to get_lapack_funcs
    names = {"qz", "ordqz", "eig", "eigvals", "gges", "ggev"}

    def decomposes(call):
        callee = _callee(call) or ""
        named = {n.value for arg in call.args for n in ast.walk(arg) if isinstance(n, ast.Constant)}
        return callee in names or (callee[:1] in "sdcz" and callee[1:] in names) or bool(names & named)

    where = {where for where, call in SOURCE_CALLS if decomposes(call)}
    assert where == {"descriptor:DescriptorSystem.schur_form"}, sorted(where)
