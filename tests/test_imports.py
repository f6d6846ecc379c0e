"""Every name a module of auglf imports at module level is used in that module.

No linter runs on the package, so a deletion that leaves an import behind
would pass unseen; this parses each module with ``ast`` instead.  The
package's ``__init__.py`` imports names to re-export them, and
``from __future__`` imports are directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "auglf"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom typing import Optional\nx = np.pi\n"
    assert unused_imports(source) == ["os", "Optional"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []
