"""The package resolves its public names and submodules on first access,
so ``import goodsemi`` alone imports none of its submodules."""

import subprocess
import sys

import pytest

import goodsemi

SUBMODULES = ("ideals", "duality", "metric", "generate", "lattice", "errors", "ringbridge")


def _fresh(code, env):
    """Run ``code`` in a new interpreter; return its last stdout line."""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_bare_import_loads_no_submodule(src_env):
    code = "import sys\nbefore = set(sys.modules)\nimport goodsemi\nprint(*sorted(set(sys.modules) - before))"
    assert _fresh(code, src_env).split() == ["goodsemi"]


def test_every_public_name_and_submodule_resolves(src_env):
    code = (
        "import importlib, goodsemi\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(goodsemi, name) is importlib.import_module('goodsemi.' + name), name\n"
        "for name in goodsemi.__all__:\n"
        "    value = getattr(goodsemi, name)\n"
        "    home = importlib.import_module('goodsemi.' + goodsemi._HOME[name])\n"
        "    assert value is getattr(home, name), name\n"
        "print(len(goodsemi.__all__))"
    )
    assert _fresh(code, src_env) == str(len(goodsemi.__all__))


def test_star_import_binds_exactly_all(src_env):
    code = (
        "ns = {}\n"
        "exec('from goodsemi import *', ns)\n"
        "import goodsemi\n"
        "print(sorted(set(ns) - {'__builtins__'}) == goodsemi.__all__)"
    )
    assert _fresh(code, src_env) == "True"


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        goodsemi.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from goodsemi import no_such_name  # noqa: F401


def test_dir_lists_public_names_and_submodules():
    listed = dir(goodsemi)
    assert set(goodsemi.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
