"""The public surface: every exported name resolves, and a profile is its callables."""

import numpy as np
import pytest

import attainkit as ak
from attainkit import ParamError, RadialProfile, Tail


def test_every_exported_name_resolves_once():
    assert len(ak.__all__) == len(set(ak.__all__))
    missing = [name for name in ak.__all__ if not hasattr(ak, name)]
    assert missing == []


def test_radial_profile_requires_both_callables():
    tail = Tail(kind="compact", support=1.0)
    with pytest.raises(TypeError):
        RadialProfile(N=3, tail=tail)
    with pytest.raises(TypeError):
        RadialProfile(N=3, tail=tail, fn=np.cos)
    with pytest.raises(ParamError):
        RadialProfile(N=3, tail=tail, fn=np.cos, dfn=None)
    with pytest.raises(ParamError):
        RadialProfile(N=3, tail=tail, fn=np.ones(4), dfn=np.sin)
    assert RadialProfile(N=3, tail=tail, fn=np.cos, dfn=np.sin).fn is np.cos
