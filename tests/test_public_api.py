import ast
import importlib
from pathlib import Path

import cpproj

ROOT = Path(__file__).resolve().parents[1]

MODULES = (
    "cpproj",
    "cpproj.cli",
    "cpproj.conic",
    "cpproj.driver",
    "cpproj.extraction",
    "cpproj.norms",
    "cpproj.polybasis",
    "cpproj.relaxation",
)


def test_package_exports_only_entry_points_and_outcomes():
    assert set(cpproj.__all__) == {
        "approximate",
        "check_cp_membership",
        "ProblemSpec",
        "LinearConstraint",
        "DriverSettings",
        "SolverSettings",
        "Projected",
        "Infeasible",
        "Inconclusive",
        "MembershipResult",
        "SolverFailure",
        "ConicSolverError",
        "CpDecomposition",
        "__version__",
    }
    assert len(cpproj.__all__) == len(set(cpproj.__all__))


def test_every_exported_name_resolves():
    for name in MODULES:
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"{name} exports missing names {missing}"


def _identifiers(path: Path) -> set[str]:
    """Every name a source file uses: bare names, attributes, imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_module_export_is_used_outside_its_module():
    # a name in a module's __all__ that neither another module of the
    # package nor the benchmark uses is a dead helper or a private one;
    # the package's own exports are the public interface and are exempt
    sources = [*(ROOT / "src" / "cpproj").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    users = {path.resolve(): _identifiers(path) for path in sources}
    unused = []
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        own = Path(module.__file__).resolve()
        for attr in module.__all__:
            if attr in cpproj.__all__:
                continue
            if not any(attr in ids for path, ids in users.items() if path != own):
                unused.append(f"{name}.{attr}")
    assert not unused, f"exported but used by no other module: {unused}"


def _definitions(tree: ast.Module, module):
    """(label, name, node) for every top-level function, class and constant,
    and every method and property of a top-level class except those that
    override a base class's attribute (the base class calls them)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.target.id, node
        if isinstance(node, ast.ClassDef):
            bases = getattr(module, node.name).__mro__[1:]
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not any(
                    hasattr(base, member.name) for base in bases
                ):
                    yield f"{node.name}.{member.name}", member.name, member


def _loaded_names(nodes) -> set[str]:
    """Names read among the given nodes: bare names, attributes, and names
    imported under another name."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and node.asname:
            names.add(node.name)
    return names


def test_every_top_level_definition_is_used():
    # a function, class, constant, method or property that neither the
    # package (outside its own definition) nor the benchmark reads is dead
    # code, whether exported or not; the package's own exports are the
    # public interface and are exempt, and so are dunder names
    package = sorted((ROOT / "src" / "cpproj").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package}
    trees.update({p: ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")})
    reads = {path: _loaded_names(ast.walk(tree)) for path, tree in trees.items()}
    unused = []
    for path in package:
        tree = trees[path]
        module = importlib.import_module("cpproj" if path.stem == "__init__" else f"cpproj.{path.stem}")
        for label, name, node in _definitions(tree, module):
            if name.startswith("__") or label in cpproj.__all__:
                continue
            elsewhere = any(name in names for p, names in reads.items() if p != path)
            inside = {id(x) for x in ast.walk(node)}
            rest = _loaded_names(x for x in ast.walk(tree) if id(x) not in inside)
            if not elsewhere and name not in rest:
                unused.append(f"{path.stem}.{label}")
    assert not unused, f"defined but never used: {unused}"
