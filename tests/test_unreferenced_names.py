"""Every top-level name that src/ defines is used by src/, demos/ or bench/.

A name that only the tests use belongs in the tests (block_arrays.py holds
the references they pin).  Only code counts as a use: a Name or Attribute
that is read, or an import alias.  Docstrings and other strings do not.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def test_every_top_level_name_in_src_is_used_outside_the_tests():
    used = {name for _, tree in _trees("src", "demos", "bench") for name in _used(tree)}
    unused = [f"{path.stem}.{name}" for path, tree in _trees("src/planehunt")
              for name in _defined(tree) if name not in used and not name.startswith("__")]
    assert unused == []
