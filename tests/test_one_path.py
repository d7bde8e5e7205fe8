"""The package holds one path: every top-level function, class, constant
and table in `src/abetune` is used by the package itself, so no second copy
of an operation, and no list kept for the tests alone, lives there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "abetune"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def own_names(node: ast.stmt) -> set:
    """The names a top-level statement defines: a function's or class's, or
    the plain names an assignment binds."""
    if isinstance(node, DEFINITIONS):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)}


def test_every_top_level_definition_is_used_in_the_package():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = own_names(node)
            defined.extend(f"{path.stem}.{name}" for name in sorted(own))
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name and name not in own:
                    used.add(name)
    unused = [qual for qual in defined if qual.split(".")[1] not in used]
    assert not unused, f"defined in src/abetune but used by nothing there: {unused}"
