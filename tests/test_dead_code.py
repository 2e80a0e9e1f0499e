"""Every private module-level function, class and constant of the package
is referenced somewhere in the package besides its own definition, and every
public name the package exports is used by the package, by perfbench or by
the acceptance tests, not by unit tests alone."""

import ast
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "pointcell"

# Exports that nothing but unit tests uses yet, each with its reason.
_UNUSED_EXPORTS = {
    "PlaneStress": "paper scope, awaiting its end-to-end check (ROADMAP item 6)",
    "eval_basis": "perfbench binds it by name; no pipeline code calls it (ROADMAP item 4)",
    "bisect_plane_segments": "perfbench binds it by name; no pipeline code calls it "
                             "(ROADMAP item 4)",
}


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


def _parse(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(paths)}


def _definitions(tree):
    """{name: node} of each module-level def, class or assignment."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            out.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out[node.target.id] = node
    return out


def test_every_exported_name_is_used_beyond_unit_tests():
    init = _PACKAGE / "__init__.py"
    exported = [alias.asname or alias.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert "solve" in exported
    trees = _parse([*_PACKAGE.glob("*.py"), *(_ROOT / "perfbench").glob("*.py"),
                    _ROOT / "tests" / "test_acceptance.py"])
    del trees[init]
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    own = Counter()
    for tree in trees.values():
        for name, node in _definitions(tree).items():
            own[name] += _references(node)[name]
    unused = sorted(name for name in exported if refs[name] - own[name] <= 0)
    assert unused == sorted(_UNUSED_EXPORTS)


def test_every_private_module_level_name_is_referenced():
    trees = {path.name: tree for path, tree in _parse(_PACKAGE.glob("*.py")).items()}
    assert "penalty.py" in trees
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name, node in _definitions(tree).items()
              if name.startswith("_") and not name.startswith("__")
              and refs[name] - _references(node)[name] <= 0]
    assert unused == []
