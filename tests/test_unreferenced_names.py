"""Every top-level name and public method that src/ defines is used by src/, demos/ or bench/.

A name that only the tests use belongs in the tests (block_arrays.py holds
the references they pin).  Only code counts as a use: a Name or Attribute
that is read, or an import alias.  Docstrings and other strings do not.
A public method is a def in a src/ class body whose name has no leading
underscore; it counts as used where it is read as an attribute (x.name),
on any object: a bare local of the same name is no use of it.
Likewise every parameter with a default, in any src/ function, is passed
by some call in src/, demos/ or bench/, by keyword or by position, but for
the few that UNPASSED_DEFAULTS names with the reason each is kept; each of
those is still passed by no call, so no exception outlives its need.
Calls are matched to functions by name alone, so a call to a namesake
counts, and a class's own __new__ to calls of the class: its
super().__new__(cls, ...) passes every field and shows nothing.
And no src/ module imports another's underscore name, but for the few
that PRIVATE_IMPORTS names with the reason each is shared; each of those
is still imported, so no exception outlives its import.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# underscore names one src/ module may import from another, and why
PRIVATE_IMPORTS = {
    "_SIDES": "engine scans the spiral sides on the same axis-line table that trajectory's closed forms read",
}
# defaulted parameters that no call in src/, demos/ or bench/ passes, and why each is kept
UNPASSED_DEFAULTS = {
    "engine.SimConfig(agent_start=...)": "the goldens' seeded_outcomes and the walk's reference tests hunt from "
                                          "off-origin starts",
}


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def _trees(*folders):
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _public_methods(tree):
    """(class, method) for each def in a class body of tree whose name has no leading underscore."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                    yield cls.name, node.name


def _used_outside_the_tests():
    return {name for _, tree in _trees("src", "demos", "bench") for name in _used(tree)}


def _attributes_read_outside_the_tests():
    return {node.attr for _, tree in _trees("src", "demos", "bench") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}


def test_every_top_level_name_in_src_is_used_outside_the_tests():
    used = _used_outside_the_tests()
    unused = [f"{path.stem}.{name}" for path, tree in _trees("src/planehunt")
              for name in _defined(tree) if name not in used and not name.startswith("__")]
    assert unused == []


def test_every_public_method_in_src_is_used_outside_the_tests():
    used = _attributes_read_outside_the_tests()
    unused = [f"{path.stem}.{cls}.{name}" for path, tree in _trees("src/planehunt")
              for cls, name in _public_methods(tree) if name not in used]
    assert unused == []


def _defaulted(func):
    """(name, position or None) of each parameter of func that has a default; position None is keyword-only."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    for pos, arg in enumerate(positional[first:], first):
        yield arg.arg, pos
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, pos, bound):
    """Whether the call passes parameter `name` (at position pos, of which the call binds the first `bound`)."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # None is a ** mapping
        return True
    if pos is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return len(call.args) > pos - bound


def _never_passed():
    """Each defaulted parameter of a src/ function that no call in src/, demos/ or bench/ passes."""
    calls = {}
    for _, tree in _trees("src", "demos", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    never = []
    for path, tree in _trees("src/planehunt"):
        owner = {f: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for f in cls.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # a __new__ is called as its class, which binds cls; a method called on an object binds self
            new = func.name == "__new__" and func in owner
            name = owner[func] if new else func.name
            for param, pos in _defaulted(func):
                if not any(_passes(call, param, pos, new or (func in owner and isinstance(call.func, ast.Attribute)))
                           for call in calls.get(name, [])):
                    never.append(f"{path.stem}.{name}({param}=...)")
    return never


def test_every_defaulted_parameter_in_src_is_passed_by_some_call():
    # a default that no caller overrides is a constant with extra steps
    assert [entry for entry in _never_passed() if entry not in UNPASSED_DEFAULTS] == []


def test_every_unpassed_default_exception_is_still_unpassed():
    assert sorted(UNPASSED_DEFAULTS.keys() - set(_never_passed())) == []


def _private_imports():
    """(importing module stem, imported module, name) of each underscore name one src/ module imports from another."""
    for path, tree in _trees("src/planehunt"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("planehunt")):
                yield from ((path.stem, node.module, alias.name) for alias in node.names if alias.name.startswith("_"))


def test_no_src_module_imports_another_modules_underscore_name():
    imported = [f"{stem} <- {module}.{name}" for stem, module, name in _private_imports()
                if name not in PRIVATE_IMPORTS]
    assert imported == []


def test_every_private_import_exception_is_still_imported():
    assert sorted(PRIVATE_IMPORTS.keys() - {name for _, _, name in _private_imports()}) == []
