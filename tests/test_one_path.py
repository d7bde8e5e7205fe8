"""The package holds one path: every top-level function and class in
`src/abetune` is used by the package itself, so no second copy of an
operation lives there for the tests alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "abetune"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_top_level_definition_is_used_in_the_package():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = node.name if isinstance(node, DEFINITIONS) else None
            if own:
                defined.append(f"{path.stem}.{own}")
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name and name != own:
                    used.add(name)
    unused = [qual for qual in defined if qual.split(".")[1] not in used]
    assert not unused, f"defined in src/abetune but used by nothing there: {unused}"
