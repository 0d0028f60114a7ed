"""Every top-level definition in ``src/fdia_lab`` is reachable.

A static name closure over the package's syntax trees. The roots are
``cli.main`` and every name that ``tests/test_acceptance.py`` uses and the
package defines at top level. A reached definition reaches every such name
its source mentions, as a bare name or as an attribute. Names are matched
across modules by name alone, which can only over-approximate: a
definition this closure misses is called by neither the command line nor
an acceptance criterion.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fdia_lab"


def mentioned(node: ast.AST) -> set[str]:
    """Every bare name and attribute name within ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def definitions() -> dict[str, list[ast.stmt]]:
    """Each name the package defines at the top level of a module, with the
    statements that define it."""
    defs: dict[str, list[ast.stmt]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(stmt)
    return defs


def test_every_top_level_definition_is_reached_from_main_or_the_criteria():
    defs = definitions()
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    todo = ["main", *(mentioned(acceptance) & defs.keys())]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for stmt in defs[name]:
                todo.extend(mentioned(stmt) & defs.keys())
    dunder = {name for name in defs if name.startswith("__") and name.endswith("__")}
    assert sorted(defs.keys() - reached - dunder) == []
