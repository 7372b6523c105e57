"""Array storage as workers map it: enumeration order, value-free blobs,
writes visible with no copy back, and validation on the worker side."""

import os
import pickle

import numpy as np
import pytest

from repro.compiler import compile_scan
from repro.errors import MachineError
from repro.parallel.sharedmem import collect_arrays, dump_block, load_block
from repro.zpl.storage import handle
from tests.conftest import record_tomcatv_block


def _compiled(n=10):
    block, arrays = record_tomcatv_block(n)
    return compile_scan(block), arrays


def _fds(arrays):
    """Fresh descriptors for ``arrays``' storage, as a worker receives them."""
    return [os.dup(handle(a._data)[0]) for a in arrays]


def test_collect_arrays_is_deterministic_and_complete():
    compiled, arrays = _compiled()
    collected = collect_arrays(compiled)
    assert collect_arrays(compiled) == collected
    # All six Tomcatv arrays participate in the fragment.
    assert {a.name for a in collected} == {a.name for a in arrays}
    # First-occurrence order: the first statement is r = aa * (d.p @ NORTH).
    assert [a.name for a in collected[:3]] == ["r", "aa", "d"]


def test_collect_survives_pickling_in_same_order():
    compiled, _ = _compiled()
    clone = pickle.loads(pickle.dumps(compiled))
    assert [a.name for a in collect_arrays(clone)] == [
        a.name for a in collect_arrays(compiled)
    ]


def test_pool_roundtrip_gathers_segment_contents():
    # What a worker writes through its mapping is in the caller's arrays
    # at once, with no gather.
    compiled, arrays = _compiled()
    blob, named = dump_block(compiled)
    assert {a.name for a in named} >= {a.name for a in arrays}
    clone = load_block(blob, _fds(named))
    for array in collect_arrays(clone):
        assert handle(array._data) is not None
        array._data[...] = 42.0
    for array in arrays:
        np.testing.assert_array_equal(array._data, 42.0)


def test_attach_validates_shape():
    compiled, _ = _compiled()
    blob, named = dump_block(compiled)
    with pytest.raises(MachineError, match="cannot map"):
        load_block(blob, _fds(named)[:-1])
    swapped = _fds(named)
    other = _compiled(12)[1][0]
    os.close(swapped[0])
    swapped[0] = os.dup(handle(other._data)[0])
    with pytest.raises(MachineError, match="bytes"):
        load_block(blob, swapped)
    with pytest.raises(MachineError, match="shipped"):
        load_block(blob, _fds(named) + _fds(named[:1]))


def test_blob_carries_structure_not_values():
    small, _ = _compiled(65)
    large, _ = _compiled(513)
    assert abs(len(dump_block(large)[0]) - len(dump_block(small)[0])) < 4096


def test_private_storage_is_refused_by_name():
    compiled, arrays = _compiled()
    arrays[0]._data = arrays[0]._data.copy()
    with pytest.raises(MachineError, match=repr(arrays[0].name)):
        dump_block(compiled)
