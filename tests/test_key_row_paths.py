"""The package has one path from a sampling seed to key rows: amplify draws
them with gf2.sample_indices, and every other module gets them through
amplify (encrypt, CipherText.rows) or through gf2's matrix constructors.
A second path would let the auditor certify rows that the endpoints never
draw.  And what keys a message is in its public CipherText fields: no
module but amplify reads what a ciphertext keeps privately, so no module
can key or certify a message by state that its fields do not show."""

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


def test_only_amplify_reads_a_ciphertexts_private_attributes():
    source = Path(netpad.__file__).parent
    [cls] = [node for node in ast.parse((source / "amplify.py").read_text()).body
             if isinstance(node, ast.ClassDef) and node.name == "CipherText"]
    private = {node.target.id if isinstance(node, ast.AnnAssign) else node.name
               for node in cls.body if isinstance(node, (ast.AnnAssign, ast.FunctionDef))}
    private = {name for name in private if name.startswith("_") and not name.endswith("__")}
    assert private  # _kept and _keep
    found = []
    for path in sorted(source.glob("*.py")):
        if path.stem == "amplify":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            # An attribute read, or a name handed to getattr/setattr.
            if (isinstance(node, ast.Attribute) and node.attr in private
                    or isinstance(node, ast.Constant) and node.value in private):
                found.append((path.stem, node.lineno))
    assert not found, found
