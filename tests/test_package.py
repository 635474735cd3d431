"""The package namespace: what `from haartorus import *` exports."""

import platform
import sys
import types

import numpy as np
import pytest

import haartorus

try:
    import resource
except ImportError:  # not on Windows
    resource = None


def test_all_lists_public_names_and_no_submodule():
    assert len(set(haartorus.__all__)) == len(haartorus.__all__)
    assert "__version__" in haartorus.__all__
    for name in haartorus.__all__:
        assert not isinstance(getattr(haartorus, name), types.ModuleType), name
    # the submodules stay reachable as attributes, only unlisted
    for layer in ("haar", "shifts", "torus", "coding", "experiments"):
        assert isinstance(getattr(haartorus, layer), types.ModuleType)


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the kept heap is set through glibc's mallopt")
def test_import_keeps_freed_heap_for_the_next_allocation():
    def round_trip(size):
        arrays = [np.ones(size // 8) for _ in range(16)]  # sixteen at once
        del arrays

    # glibc adds the pad when the heap next grows. Arrays below its 128 KiB
    # mmap threshold grow it; larger ones are then served from the kept top.
    round_trip(64 << 10)
    round_trip(512 << 10)
    round_trip(512 << 10)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    round_trip(512 << 10)
    # without the kept heap the round faults all 2,048 of its pages back in
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64
