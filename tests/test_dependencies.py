import ast
import os
import re
import subprocess
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


NO_MASKED_ARRAYS = """
import sys, tempfile
from fractions import Fraction
from pathlib import Path

import netpad
from netpad import adversary, amplify, keystore_io, secure_check
from netpad.gf2 import BitString
from netpad.predistribution import SchemeSpec, generate

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "store.npks"
    for text in ("random:p=1/2", "comb:a=3"):
        ks = generate(SchemeSpec.parse(text), 4, 1260, seed=3)
        keystore_io.save(ks, path)
        assert keystore_io.load(path).pool == ks.pool
        for node in range(1, 5):
            keystore_io.save_node_view(ks, node, path)
            assert keystore_io.load_node_view(path).node == node
profile = secure_check.RateProfile(4, {(1, 2): Fraction(1, 20), (1, 3): Fraction(1, 30)})
assert secure_check.check_exact(ks, profile, 1).status is secure_check.Status.ACHIEVABLE
ct = amplify.encrypt(ks, amplify.ChannelCipherState(1, 2), BitString.zeros(63), seed=1)
assert adversary.build_security_matrix(ks, adversary.Transcript((ct,), (4,))).full_rank
print("numpy.ma" in sys.modules)
"""


def test_common_paths_do_not_import_masked_arrays():
    """Importing netpad, an NPKS round trip of a random and a comb store with
    every node view, one check_exact and one build_security_matrix leave
    numpy.ma unimported: it costs about 1 MB of peak memory, and a plain
    np.unique in a loader once pulled it in.  A fresh interpreter, because
    the test runner's own imports may load it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
