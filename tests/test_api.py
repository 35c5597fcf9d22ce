"""The public surface: every exported name resolves, every import is used,
and a profile is its callables."""

import ast
from pathlib import Path

import numpy as np
import pytest

import attainkit as ak
from attainkit import ParamError, RadialProfile


def test_every_exported_name_resolves_once():
    assert len(ak.__all__) == len(set(ak.__all__))
    missing = [name for name in ak.__all__ if not hasattr(ak, name)]
    assert missing == []


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def test_every_module_uses_what_it_imports():
    # __init__ imports to re-export; every other module imports to use
    unused = []
    for path in sorted(Path(ak.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(_imported_names(tree) - used)]
    assert unused == []


def test_radial_profile_requires_both_callables():
    with pytest.raises(TypeError):
        RadialProfile(N=3, support=1.0)
    with pytest.raises(TypeError):
        RadialProfile(N=3, support=1.0, fn=np.cos)
    with pytest.raises(ParamError):
        RadialProfile(N=3, support=1.0, fn=np.cos, dfn=None)
    with pytest.raises(ParamError):
        RadialProfile(N=3, support=1.0, fn=np.ones(4), dfn=np.sin)
    assert RadialProfile(N=3, support=1.0, fn=np.cos, dfn=np.sin).fn is np.cos
