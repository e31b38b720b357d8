import ast
import re
import sys
import tomllib
from pathlib import Path

import netpad

ROOT = Path(__file__).resolve().parents[1]


def test_src_imports_exactly_the_declared_dependencies():
    """Every import in the package, function-local ones included, is from
    the standard library, the package itself or pyproject's dependencies,
    and every declared dependency is used."""
    imported = set()
    for path in Path(netpad.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0]
                for dep in project["dependencies"]}
    assert third_party == declared == {"numpy", "click"}
