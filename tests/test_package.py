"""The package namespace: what `from haartorus import *` exports."""

import types

import haartorus


def test_all_lists_public_names_and_no_submodule():
    assert len(set(haartorus.__all__)) == len(haartorus.__all__)
    assert "__version__" in haartorus.__all__
    for name in haartorus.__all__:
        assert not isinstance(getattr(haartorus, name), types.ModuleType), name
    # the submodules stay reachable as attributes, only unlisted
    for layer in ("haar", "shifts", "torus", "coding", "experiments"):
        assert isinstance(getattr(haartorus, layer), types.ModuleType)
