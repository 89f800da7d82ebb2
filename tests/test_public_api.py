import ast
import importlib
import types
from pathlib import Path

import cpproj

ROOT = Path(__file__).resolve().parents[1]

PACKAGE = sorted((ROOT / "src" / "cpproj").glob("*.py"))


def _module_name(path: Path) -> str:
    return "cpproj" if path.stem == "__init__" else f"cpproj.{path.stem}"


# the package and each of its modules, but not the `python -m cpproj`
# script, which exports nothing
MODULES = tuple(_module_name(path) for path in PACKAGE if path.stem != "__main__")


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


def test_no_module_imports_a_private_name_from_another():
    # an underscore-prefixed name belongs to its own module; a rule that a
    # second module needs gets a public name in the module that owns it
    private = [
        f"{path.stem} imports {alias.name} from {'.' * node.level}{node.module or ''}"
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("cpproj"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"private names imported across modules: {private}"


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
    sources = [*PACKAGE, *(ROOT / "perfbench").glob("*.py")]
    users = {path.resolve(): _identifiers(path) for path in sources}
    unused = []
    for name in MODULES:
        if name == "cpproj":
            continue
        module = importlib.import_module(name)
        own = Path(module.__file__).resolve()
        for attr in module.__all__:
            if attr in cpproj.__all__:
                continue
            if not any(attr in ids for path, ids in users.items() if path != own):
                unused.append(f"{name}.{attr}")
    assert not unused, f"exported but used by no other module: {unused}"


def _definitions(tree: ast.Module, module):
    """(label, key, node) for every top-level function, class and constant,
    keyed by name, and every method and property of a top-level class
    except those that override a base class's attribute (the base class
    calls them), keyed by (class, name)."""
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
            cls = getattr(module, node.name)
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not any(
                    hasattr(base, member.name) for base in cls.__mro__[1:]
                ):
                    yield f"{node.name}.{member.name}", (cls, member.name), member


def _owner(cls: type, name: str):
    """The class in cls's MRO that defines `name`, or cls when none does."""
    return next((c for c in cls.__mro__ if name in vars(c)), cls)


def _annotated_class(annotation, module):
    """The class a plain-name annotation names in `module`, or None."""
    if module is None or not isinstance(annotation, ast.Name):
        return None
    cls = getattr(module, annotation.id, None)
    return cls if isinstance(cls, type) else None


def _reads(tree: ast.Module, module) -> list[tuple[ast.AST, object]]:
    """(node, key) for every name read in the tree.

    A `self.<name>` read inside a top-level class of `module` is keyed by
    (the class that defines name, name), so it uses only that method; with
    no module (a file outside the package) such reads key by (None, name)
    and use no package method.  So is an `x.<name>` read inside a function
    whose parameter x is annotated with a class of `module`'s namespace,
    and a `self.<field>.<name>` read inside a class whose field is.  Every
    other read is keyed by its bare name: bare names, other attributes,
    and names imported under another name.
    """
    resolved = {}

    def resolve(scope, bound):
        for x in ast.walk(scope):
            if isinstance(x, ast.Attribute):
                target = ast.unparse(x.value)
                if target in bound:
                    cls = bound[target]
                    resolved[id(x)] = (None if cls is None else _owner(cls, x.attr), x.attr)

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            cls = getattr(module, node.name) if module is not None else None
            fields = {
                f"self.{member.target.id}": _annotated_class(member.annotation, module)
                for member in node.body
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
            }
            resolve(node, {"self": cls, **{k: c for k, c in fields.items() if c is not None}})
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = {
                arg.arg: _annotated_class(arg.annotation, module)
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            }
            resolve(node, {k: c for k, c in params.items() if c is not None and k != "self"})
    reads = []
    for node in ast.walk(tree):
        if id(node) in resolved:
            reads.append((node, resolved[id(node)]))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node, node.id))
        elif isinstance(node, ast.Attribute):
            reads.append((node, node.attr))
        elif isinstance(node, ast.alias) and node.asname:
            reads.append((node, node.name))
    return reads


def test_every_top_level_definition_is_used():
    # a function, class, constant, method or property that neither the
    # package (outside its own definition) nor the benchmark reads is dead
    # code, whether exported or not; the package's own exports are the
    # public interface and are exempt, and so are dunder names.  A method
    # read as `self.<name>` counts only for the class that name resolves to
    modules = {path: importlib.import_module(_module_name(path)) for path in PACKAGE}
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE}
    trees.update({p: ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")})
    reads = {path: _reads(tree, modules.get(path)) for path, tree in trees.items()}
    keys = {path: {key for _, key in found} for path, found in reads.items()}
    unused = []
    for path in PACKAGE:
        for label, key, node in _definitions(trees[path], modules[path]):
            name = key if isinstance(key, str) else key[1]
            if name.startswith("__") or label in cpproj.__all__:
                continue
            wanted = {key, name}
            elsewhere = any(wanted & found for p, found in keys.items() if p != path)
            inside = {id(x) for x in ast.walk(node)}
            rest = {k for x, k in reads[path] if id(x) not in inside}
            if not elsewhere and not wanted & rest:
                unused.append(f"{path.stem}.{label}")
    assert not unused, f"defined but never used: {unused}"


def test_a_self_read_uses_only_the_method_it_resolves_to():
    # two classes with a method of the same name: A reads its own through
    # self, so B's finds no user even though the name is read
    source = """
class A:
    def run(self):
        return self.step()

    def step(self):
        return 1

class B:
    def step(self):
        return 2
"""
    module = types.ModuleType("classes")
    exec(source, module.__dict__)
    tree = ast.parse(source)
    keys = {k for _, k in _reads(tree, module)}
    defined = {label: key for label, key, _ in _definitions(tree, module)}
    assert defined["A.step"] in keys
    assert defined["B.step"] not in keys and "step" not in keys


def test_a_read_through_an_annotated_name_uses_only_its_class():
    # B.step is read only through a parameter and a dataclass field that
    # are annotated with A, so it finds no user even though the name is
    # read, while A.step does
    source = """
from dataclasses import dataclass

class A:
    def step(self):
        return 1

class B:
    def step(self):
        return 2

def run(a: A):
    return a.step()

@dataclass
class C:
    a: A

    def run(self):
        return self.a.step()
"""
    module = types.ModuleType("classes")
    exec(source, module.__dict__)
    tree = ast.parse(source)
    reads = [k for _, k in _reads(tree, module)]
    defined = {label: key for label, key, _ in _definitions(tree, module)}
    assert reads.count(defined["A.step"]) == 2
    assert defined["B.step"] not in reads and "step" not in reads


def _defaults(tree: ast.Module, module: str):
    """(label, callee, position, name, field) for every parameter with a
    default and every dataclass field with a default (`field` True).
    `callee` is the name a call uses: the function's, or the class's for
    `__init__` and dataclass fields; `position` counts the call's own
    arguments, so a method's `self` is not one of them (None for
    keyword-only parameters)."""
    methods = {
        id(member): node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for member in node.body
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            cls = methods.get(id(node))
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            callee = cls.name if cls is not None and node.name == "__init__" else node.name
            args = node.args.posonlyargs + node.args.args
            owner = f"{cls.name}." if cls is not None else ""
            for i, arg in enumerate(args[len(args) - len(node.args.defaults):]):
                position = len(args) - len(node.args.defaults) + i - bound
                yield f"{module}.{owner}{node.name}({arg.arg})", callee, position, arg.arg, False
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield f"{module}.{owner}{node.name}({arg.arg})", callee, None, arg.arg, False
        elif isinstance(node, ast.ClassDef) and any(
            ast.unparse(d).startswith("dataclass") for d in node.decorator_list
        ):
            fields = [
                member for member in node.body
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
            ]
            for position, member in enumerate(fields):
                if member.value is not None:
                    name = member.target.id
                    yield f"{module}.{node.name}.{name}", node.name, position, name, True


def _passes(tree: ast.Module):
    """(callee, positional count, keywords) for every call in the tree; a
    `*args` passes every position and a `**kwargs` every keyword ("*")."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {kw.arg or "*" for kw in node.keywords}
        yield callee, float("inf") if starred else len(node.args), keywords


def test_every_default_is_overridden_by_some_caller():
    # a parameter or dataclass field with a default that no call in the
    # package or the benchmark ever passes is a setting nobody sets: its
    # default is a constant.  A pass counts by position, by keyword, or by a
    # `replace` keyword (dataclass fields); names match by bare name
    sources = [*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py"))]
    calls = [c for path in sources for c in _passes(ast.parse(path.read_text()))]
    replaced = {kw for callee, _, kws in calls if callee == "replace" for kw in kws}
    unset = []
    for path in PACKAGE:
        for label, callee, position, name, field in _defaults(
            ast.parse(path.read_text()), path.stem
        ):
            if field and name in replaced:
                continue
            if not any(
                c == callee and ((position is not None and npos > position) or kws & {name, "*"})
                for c, npos, kws in calls
            ):
                unset.append(label)
    assert not unset, f"defaults that no caller overrides: {unset}"
