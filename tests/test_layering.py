"""Only the command-line front end imports the command line.

``lipem.cli`` sits on top of every other module; a library module that
imported it would run the front end's imports to reach a function the
library should own.  The sources are read as text, not imported.
"""

import ast
from pathlib import Path

import lipem

PACKAGE = Path(lipem.__file__).resolve().parent
FRONT_END = {"cli.py", "__main__.py", "__init__.py"}


def imported_modules(tree):
    """Every module an import statement anywhere in ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # the package is flat, so a relative import is relative to lipem
            base = ".".join(filter(None, ["lipem" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_only_the_front_end_imports_cli():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in FRONT_END
        and any(
            name == "lipem.cli" or name.startswith("lipem.cli.")
            for name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert offenders == []
