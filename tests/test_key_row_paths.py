"""The package has one path from a sampling seed to key rows: amplify draws
them with gf2.sample_indices, and every other module gets them through
amplify (encrypt, CipherText.rows) or through gf2's matrix constructors.
A second path would let the auditor certify rows that the endpoints never
draw."""

import ast
from pathlib import Path

import netpad


def references(tree: ast.Module, name: str):
    """(enclosing top-level definition or None, line) of every reference
    to name: a load or store, an attribute, or an import."""
    for top in tree.body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and name in (node.name, node.asname)):
                yield scope, node.lineno


def test_only_amplify_and_gf2_constructors_reach_the_sampler():
    found = {}
    for path in sorted(Path(netpad.__file__).parent.glob("*.py")):
        for scope, line in references(ast.parse(path.read_text()), "sample_indices"):
            found.setdefault((path.stem, scope if path.stem != "amplify" else "*"), line)
    assert set(found) == {
        ("amplify", "*"),  # encrypt, derive_key and CipherText.rows
        ("gf2", "random_fixed_weight_matrix"),
        ("__init__", None),  # the public re-export
    }, found
