"""The package namespace: 53 public names, each loaded with its submodule on first use."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import agecompat


def test_public_names_resolve_to_their_submodules():
    assert len(agecompat.__all__) == len(set(agecompat.__all__)) == 53
    for name in agecompat.__all__:
        owner = import_module(f"agecompat.{agecompat._OWNER[name]}")
        assert getattr(agecompat, name) is getattr(owner, name)
    assert set(agecompat.__all__) <= set(dir(agecompat))
    assert agecompat.verify.QuadratureError is agecompat.special.QuadratureError
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        agecompat.nope


def test_bare_import_loads_no_submodule():
    script = (
        "import json, sys\n"
        "import agecompat\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('agecompat.'))\n"
        "before = loaded()\n"
        "agecompat.erf(0.5)\n"
        "print(json.dumps([before, loaded()]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], ["agecompat.special"]]


def test_only_special_imports_its_checked_kernels():
    # arguments are checked once, at the public boundary; below it the
    # modules call the unchecked _phi, _pdf, _quantile or math.erf / math.erfc
    checked = set(agecompat.special.__all__)
    package = Path(agecompat.__file__).resolve().parent
    seen = 0
    for path in sorted(package.glob("*.py")):
        if path.name == "special.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("special", "agecompat.special"):
                seen += 1
                assert not checked & {alias.name for alias in node.names}, path.name
    assert seen >= 6
