"""Every private module-level function, class and constant of the package
is referenced somewhere in the package besides its own definition."""

import ast
from collections import Counter
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pointcell"


def _references(node):
    """Names read in node's subtree: loads, attributes and imported names."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rsplit(".", 1)[-1]] += 1
    return refs


def _private_definitions(tree):
    """(name, node) of each module-level def, class or assignment whose
    name has one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_module_level_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(_PACKAGE.glob("*.py"))}
    assert "penalty.py" in trees
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name, node in _private_definitions(tree)
              if refs[name] - _references(node)[name] <= 0]
    assert unused == []
