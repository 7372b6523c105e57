"""Tests for Index expressions (ZPL's IndexD built-ins)."""

import numpy as np
import pytest

from repro import zpl
from repro.compiler import compile_scan
from repro.errors import ExpressionError
from repro.runtime import (
    PlanRunner,
    execute_loopnest,
    execute_vectorized,
    run_and_capture,
)
from repro.runtime.kernels import template_for


class TestIndexEvaluation:
    def test_region_coordinates(self):
        a = zpl.zeros(zpl.Region.of((3, 5), (10, 12)), name="a")
        with zpl.covering(a.region):
            a[...] = zpl.index(0) * 100.0 + zpl.index(1)
        assert float(a[(3, 10)]) == 310.0
        assert float(a[(5, 12)]) == 512.0

    def test_respects_covering_region(self):
        a = zpl.zeros(zpl.Region.square(1, 5), name="a")
        with zpl.covering(zpl.Region.of((2, 3), (2, 3))):
            a[...] = zpl.index(0)
        assert float(a[(2, 2)]) == 2.0
        assert float(a[(1, 1)]) == 0.0  # outside covering region

    def test_rank3(self):
        a = zpl.zeros(zpl.Region.square(1, 3, rank=3), name="a")
        with zpl.covering(a.region):
            a[...] = zpl.index(2)
        assert float(a[(1, 1, 3)]) == 3.0

    def test_bad_dim(self):
        a = zpl.zeros(zpl.Region.square(1, 3), name="a")
        with pytest.raises(ExpressionError):
            with zpl.covering(a.region):
                a[...] = zpl.index(5)
        with pytest.raises(ExpressionError):
            zpl.index(-1)

    def test_repr_one_based(self):
        assert repr(zpl.index(0)) == "Index1"


class TestIndexInScanBlocks:
    def test_point_local_in_wavefront(self):
        # Index is point-local: usable inside scan blocks without hoisting.
        n = 6
        a = zpl.zeros(zpl.Region.square(1, n), name="a")
        with zpl.covering(zpl.Region.of((2, n), (1, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) + zpl.index(0)
        compiled = compile_scan(block)
        assert compiled.hoisted == ()
        oracle = run_and_capture(execute_loopnest, compiled, [a])
        fast = run_and_capture(execute_vectorized, compiled, [a])
        np.testing.assert_allclose(fast[0], oracle[0])
        execute_vectorized(compiled)
        # Column sums of row indices: a[i] = 2 + 3 + ... + i.
        assert float(a[(4, 1)]) == 2.0 + 3.0 + 4.0

    def test_bad_dim_in_scan_block_is_refused_by_the_template(self):
        """No kernel expresses an index past the block's rank: the template
        raises the tree walk's ``ExpressionError`` before anything runs."""
        n = 6
        a = zpl.zeros(zpl.Region.square(1, n), name="a")
        with zpl.covering(zpl.Region.of((2, n), (1, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) + zpl.index(2)
        compiled = compile_scan(block)
        match = "index dimension 2 out of range for rank 2"
        for run in (template_for, PlanRunner, execute_vectorized):
            with pytest.raises(ExpressionError, match=match):
                run(compiled)
        assert a.to_numpy().max() == 0.0

    def test_triangular_mask_pattern(self):
        # where(index(0) >= index(1), ...) carves a lower triangle.
        n = 5
        a = zpl.zeros(zpl.Region.square(1, n), name="a")
        with zpl.covering(a.region):
            a[...] = zpl.where(zpl.index(0) >= zpl.index(1), 1.0, 0.0)
        values = a.to_numpy()
        np.testing.assert_array_equal(values, np.tril(np.ones((n, n))))
