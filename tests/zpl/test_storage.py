"""Born-shared storage: every array is a mappable file from allocation, and
a dropped array leaves no descriptor and no mapping behind."""

import gc
import os
import pickle

import numpy as np
import pytest

from repro import zpl
from repro.zpl.storage import attach, handle

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc"
)


def _memfd_mappings() -> int:
    with open("/proc/self/maps") as maps:
        return sum("memfd:" in line for line in maps)


def test_storage_is_shared_from_birth():
    a = zpl.ZArray(zpl.Region.square(1, 6), name="a", fill=1.5)
    np.testing.assert_array_equal(a._data, 1.5)
    fd, offset = handle(a._data)
    other = attach(os.dup(fd), offset, a._data.shape, a.dtype)
    other[2, 3] = 7.0  # a second mapping of the same pages
    assert a.get((2, 3)) == 7.0


def test_fresh_storage_honours_negative_zero():
    a = zpl.ZArray(zpl.Region.square(1, 3), fill=-0.0)
    assert np.signbit(a._data).all()


def test_unpickled_array_is_born_shared_and_independent():
    a = zpl.from_numpy(np.arange(12.0).reshape(3, 4), name="a")
    b = pickle.loads(pickle.dumps(a))
    assert b.name == "a" and b.region == a.region
    np.testing.assert_array_equal(b._data, a._data)
    assert handle(b._data) is not None
    b.put((1, 1), -1.0)
    assert a.get((1, 1)) == 0.0


@needs_proc
def test_dropped_arrays_release_descriptors_and_mappings():
    region = zpl.Region.square(1, 8)
    gc.collect()  # earlier tests' cyclic garbage must not leave mid-count
    fds, maps = len(os.listdir("/proc/self/fd")), _memfd_mappings()
    arrays = [zpl.ZArray(region, fill=float(k)) for k in range(2000)]
    assert len(os.listdir("/proc/self/fd")) <= fds + 2 * len(arrays)
    del arrays
    assert len(os.listdir("/proc/self/fd")) == fds
    assert _memfd_mappings() == maps


@needs_proc
def test_running_out_of_descriptors_lifts_the_soft_limit():
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    used = len(os.listdir("/proc/self/fd"))
    if hard != resource.RLIM_INFINITY and hard < used + 400:
        pytest.skip("hard descriptor limit too low to lift")
    resource.setrlimit(resource.RLIMIT_NOFILE, (used + 64, hard))
    try:
        arrays = [zpl.ZArray(zpl.Region.square(1, 4)) for _ in range(100)]
        assert resource.getrlimit(resource.RLIMIT_NOFILE)[0] > used + 64
        del arrays
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
