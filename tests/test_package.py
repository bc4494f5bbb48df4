"""The package namespace: ``import dcearray`` re-exports each module's ``__all__``."""

import json
import os
import subprocess
import sys
from pathlib import Path

MODULES = ("constants", "correlations", "drive", "lattice", "quantum_state", "spectral")


def test_package_exports_exactly_its_modules_public_names():
    # a fresh interpreter: the tests' own imports add submodules to the package
    code = (
        "import importlib, json, sys, types, dcearray\n"
        "public = sorted(n for n, v in vars(dcearray).items()\n"
        "                if not n.startswith('_') and not isinstance(v, types.ModuleType))\n"
        f"declared = {{m: importlib.import_module('dcearray.' + m).__all__ for m in {MODULES}}}\n"
        "unresolved = [n for m, names in declared.items() for n in names\n"
        "              if getattr(dcearray, n) is not getattr(sys.modules['dcearray.' + m], n)]\n"
        "print(json.dumps([public, declared, unresolved]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    public, declared, unresolved = json.loads(out.stdout)
    assert public == sorted(n for names in declared.values() for n in names)
    assert unresolved == []


def test_star_import_binds_the_modules_public_names_and_no_module():
    code = (
        "import importlib, json, types\n"
        "from dcearray import *\n"
        "bound = {n: v for n, v in globals().items() if not n.startswith('_')}\n"
        f"declared = [n for m in {MODULES}\n"
        "            for n in importlib.import_module('dcearray.' + m).__all__]\n"
        "modules = sorted(n for n, v in bound.items() if isinstance(v, types.ModuleType))\n"
        "print(json.dumps([sorted(bound), sorted(declared), modules]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    bound, declared, modules = json.loads(out.stdout)
    assert sorted(set(bound) - {"importlib", "json", "types"}) == declared
    assert modules == ["importlib", "json", "types"]
