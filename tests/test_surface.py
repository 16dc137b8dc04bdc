"""The package surface: no public name exists only for the tests.

Every public top-level function and class under ``src/ludercheck`` and every
public method of a public class must be used by the package itself, outside
``__init__.py``; otherwise a README code span or block must name it, or an
entry of ``benchmarks/tracing.py::TARGETS`` must patch it.  Uses are read
from the syntax tree, so docstrings and comments do not count, and a name
used only inside its own definition is not used.  Methods that share a name
across classes (``dim``) are told apart by the receiver's type where the
code states it: ``self``, an annotated parameter, or a name assigned from a
call of a class or of a function with an annotated return.  A receiver of
unknown type counts as a use of every method of that name.  Dunder methods
are out of reach: operators and builtins call them, not names.

No module imports another's private names.  The README's quick start runs
here too, and the package root exports what the README names.
"""

import ast
import re
from pathlib import Path

import ludercheck
from ludercheck.protocol import StageKind, Verdict

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ludercheck"
README = (ROOT / "README.md").read_text(encoding="utf-8")
#: Inline code spans and fenced blocks of the README.
README_CODE = "\n".join(re.findall(r"```.*?```|`[^`\n]+`", README, flags=re.S))


def _modules():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _public(name):
    return not name.startswith("_")


def _definitions(modules):
    """Key ``module.name`` or ``module.Class.method`` -> (class or None, name)."""
    defs = {}
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            defs[f"{module}.{node.name}"] = (None, node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        defs[f"{module}.{node.name}.{item.name}"] = (node.name, item.name)
    return defs


class _Types:
    """Receiver types from annotations: a set of package classes, or None."""

    def __init__(self, modules):
        self.classes = set()
        self.returns = {}
        for tree in modules.values():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.classes.add(node.name)
                elif isinstance(node, ast.FunctionDef) and node.returns is not None:
                    self.returns[node.name] = node.returns

    def of_annotation(self, node):
        if isinstance(node, ast.Constant) and node.value is None:
            return set()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left, right = self.of_annotation(node.left), self.of_annotation(node.right)
            return None if left is None or right is None else left | right
        if isinstance(node, ast.Name) and node.id in self.classes:
            return {node.id}
        return None

    def of_value(self, node):
        """The type of an assigned value: a class or annotated-function call."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in self.classes:
                return {node.func.id}
            if node.func.id in self.returns:
                return self.of_annotation(self.returns[node.func.id])
        return None

    def bindings(self, target, value):
        """(Name node, type) for each name an assignment binds."""
        if isinstance(target, ast.Name):
            return [(target, self.of_value(value))]
        ann = None
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            ann = self.returns.get(value.func.id)
        if (isinstance(target, ast.Tuple) and isinstance(ann, ast.Subscript)
                and isinstance(ann.value, ast.Name) and ann.value.id == "tuple"
                and isinstance(ann.slice, ast.Tuple)
                and len(ann.slice.elts) == len(target.elts)):
            return [(t, self.of_annotation(a))
                    for t, a in zip(target.elts, ann.slice.elts)
                    if isinstance(t, ast.Name)]
        return []

    def env(self, func, cls, outer):
        """The type of each name bound in ``func``, over every binding of it."""
        env = dict(outer)
        bound = {}

        def bind(name, types):
            if name in bound:
                types = None if bound[name] is None or types is None else bound[name] | types
            bound[name] = types

        args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        for i, arg in enumerate(args):
            if i == 0 and cls is not None:
                bind(arg.arg, {cls})
            else:
                bind(arg.arg, None if arg.annotation is None
                     else self.of_annotation(arg.annotation))
        typed = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    typed.update((id(n), t) for n, t in self.bindings(target, node.value))
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bind(node.id, typed.get(id(node)))
        env.update(bound)
        return env

    def of_receiver(self, node, env):
        if isinstance(node, ast.Name):
            return {node.id} if node.id in self.classes else env.get(node.id)
        return self.of_value(node)


def _uses(modules, types):
    """(class, name, enclosing definition keys) for every use in the package.

    The class is None for a top-level name and "*" for a method on a receiver
    of unknown type.
    """
    uses = []

    def walk(node, module, cls, env, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, child.name, env, inside | {f"{module}.{child.name}"})
                continue
            if isinstance(child, ast.FunctionDef):
                key = f"{module}.{cls}.{child.name}" if cls else f"{module}.{child.name}"
                walk(child, module, None, types.env(child, cls, env), inside | {key})
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                uses.append((None, child.id, inside))
            elif isinstance(child, ast.Attribute):
                receiver = child.value
                if isinstance(receiver, ast.Name) and receiver.id in modules:
                    uses.append((None, child.attr, inside))
                else:
                    owners = types.of_receiver(receiver, env)
                    for owner in ("*",) if owners is None else owners:
                        uses.append((owner, child.attr, inside))
            walk(child, module, None, env, inside)

    for module, tree in modules.items():
        walk(tree, module, None, {}, frozenset())
    return uses


def _traced():
    """``owner.attribute`` of every entry of the benchmark tracer's TARGETS."""
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS":
            return {f"{ast.unparse(owner)}.{attr.value}"
                    for owner, attr, _ in (entry.elts for entry in node.value.elts)}
    raise AssertionError("benchmarks/tracing.py has no TARGETS")


def _named_in_readme(name, cls=None):
    """Whether README code names a top-level name, or a method as
    ``Class.method`` or as a call ``.method(``."""
    if cls is None:
        pattern = rf"\b{re.escape(name)}\b"
    else:
        pattern = rf"\b{re.escape(cls)}\.{re.escape(name)}\b|\.{re.escape(name)}\("
    return re.search(pattern, README_CODE) is not None


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = _modules()
    defs = _definitions(modules)
    used = set()
    for owner, name, inside in _uses(modules, _Types(modules)):
        for key, (cls, defined) in defs.items():
            if defined == name and key not in inside and (
                owner is None if cls is None else owner in ("*", cls)
            ):
                used.add(key)
    traced = _traced()
    orphans = sorted(
        key for key, (cls, name) in defs.items()
        if key not in used and key not in traced and not _named_in_readme(name, cls)
    )
    assert orphans == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_imports_a_private_name_of_another():
    """``from .m import _x``, ``from . import _m`` and ``m._x`` for a package
    module ``m`` all reach past another module's public surface."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names
                          if a.name.startswith("ludercheck")
                          and any(map(_private, a.name.split(".")))]
            elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("ludercheck")
            ):
                found += [(path.name, a.name) for a in node.names if _private(a.name)]
                if node.module in (None, "ludercheck"):
                    modules |= {a.asname or a.name for a in node.names}
        found += [
            (path.name, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        ]
    assert found == []


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README, flags=re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    result = namespace["result"]
    assert result.verdict is Verdict.NON_LUDERS
    assert result.detected_at is StageKind.SIGMA_PRIME
    assert capsys.readouterr().out.splitlines() == [
        "Verdict.NON_LUDERS", "StageKind.SIGMA_PRIME",
    ]


def test_package_root_exports_what_the_readme_names():
    exported = [name for name in ludercheck.__all__ if name != "__version__"]
    for name in ludercheck.__all__:
        getattr(ludercheck, name)
    assert set(re.findall(r"\blc\.(\w+)", README_CODE)) <= set(exported)
    assert [name for name in exported if not _named_in_readme(name)] == []
