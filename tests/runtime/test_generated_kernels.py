"""The generated straight-line kernels: edges of the lowering, and its text.

Every equivalence here is *bit* identity against the scalar loop-nest oracle
(the bodies use exactly rounded arithmetic only, so nothing may differ), and
against the tree-walking engine for storage the oracle treats differently.

This module is about the *numpy* lowerings and their Python text, so it runs
as a host without a C compiler would (``no_compiler``); the compiled nest has
``test_native_kernels.py``.
"""

import linecache

import numpy as np
import pytest

from repro import zpl
from numpy.lib.array_utils import byte_bounds

from repro.apps import alignment, gauss_seidel, sweep3d, tomcatv
from repro.compiler import Skew, compile_scan, compile_statements, contract
from repro.compiler.skew import derive_skew
from repro.errors import ArrayError
from repro.machine import CRAY_T3E
from repro.machine.schedules import pipelined_wavefront
from repro.obs.trace import Tracer
from repro.parallel.sharedmem import collect_arrays
from repro.runtime import (
    KERNEL_STATS,
    execute_interpreted,
    execute_loopnest,
    execute_vectorized,
    plan_kind,
    run_and_capture,
)
from repro.runtime.kernels import (
    _bind_view,
    statement_kernel,
    template_for,
)
from repro.zpl.statements import Assign
from tests.conftest import record_tomcatv_block

pytestmark = pytest.mark.usefixtures("no_compiler")


def assert_matches_oracle(compiled, arrays, engines=("kernel", "flat")):
    """Each engine bit-identical to the loop nest (and to ``interp``)."""
    oracle = run_and_capture(execute_loopnest, compiled, arrays)
    interp = run_and_capture(
        lambda c: execute_vectorized(c, engine="interp"), compiled, arrays
    )
    contracted = {id(a) for a in compiled.contracted}
    for engine in engines:
        got = run_and_capture(
            lambda c: execute_vectorized(c, engine=engine), compiled, arrays
        )
        for array, g, i, o in zip(arrays, got, interp, oracle):
            where = f"array {array.name}, engine {engine}"
            np.testing.assert_array_equal(g, i, err_msg=f"{where} vs interp")
            if id(array) not in contracted:  # the oracle stores temporaries
                np.testing.assert_array_equal(g, o, err_msg=f"{where} vs oracle")


def uniform(shape, seed, name):
    rng = np.random.default_rng(seed)
    return zpl.from_numpy(rng.uniform(0.5, 1.5, size=shape), base=1, name=name)


class TestLoweringEdges:
    def test_negative_traversal_sign(self):
        """Tomcatv back substitution: the bound views run backwards."""
        state = tomcatv.build(17, seed=3)
        tomcatv.coefficients_phase(state)
        tomcatv.prepare_solve(state)
        execute_vectorized(tomcatv.compile_forward(state))
        compiled = tomcatv.compile_backward(state)
        assert compiled.loops.signs[0] == -1
        assert_matches_oracle(compiled, collect_arrays(compiled))

    def test_rank1_recurrence_has_no_parallel_extent(self):
        n = 9
        a, b = uniform((n,), 1, "a"), uniform((n,), 2, "b")
        with zpl.covering(zpl.Region.of((2, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ (-1,)) * 1.5 + b
        compiled = compile_scan(block)
        assert "out=" in template_for(compiled).kernel().source
        assert_matches_oracle(compiled, [a, b])

    def test_all_looped_rank2_recurrence(self):
        n = 7
        a = uniform((n, n), 4, "a")
        with zpl.covering(zpl.Region.of((2, n), (2, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) * 0.5 + (a.p @ zpl.WEST) * 0.25
        compiled = compile_scan(block)
        assert len(template_for(compiled).looped) == 2
        assert_matches_oracle(compiled, [a])

    def test_zero_looped_dims_statement_kernel(self):
        n = 6
        a = uniform((n, n), 5, "a")
        R = zpl.Region.of((2, n - 1), (1, n - 1))
        # an overlapping shifted source under an ``out=`` root
        stmt = Assign(a, (a @ zpl.EAST) * 2.0 - (a @ zpl.NORTH), R)
        snap = a._data.copy()
        execute_interpreted([stmt], engine="interp")
        expected = a._data.copy()
        a._data[...] = snap
        runner = statement_kernel(stmt)
        assert runner is not None
        runner()
        np.testing.assert_array_equal(a._data, expected)

    def test_root_ref_copy_with_overlapping_source(self):
        n = 8
        a = uniform((n, n), 6, "a")
        stmt = Assign(a, a @ zpl.EAST, zpl.Region.of((1, n), (1, n - 1)))
        compiled = compile_statements([stmt])
        assert ".copy()" in template_for(compiled).kernel().source
        assert_matches_oracle(compiled, [a])

    def test_overlapping_source_under_out(self):
        n = 8
        a = uniform((n, n), 7, "a")
        with zpl.covering(zpl.Region.of((2, n), (1, n - 1))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) * 0.5 + (a @ zpl.EAST)
        compiled = compile_scan(block)
        assert "out=" in template_for(compiled).kernel().source
        assert_matches_oracle(compiled, [a])

    def test_masked_store(self):
        n = 8
        a = uniform((n, n), 8, "a")
        mask = zpl.zeros(zpl.Region.square(1, n), name="m")
        with zpl.covering(mask.region):
            mask[...] = zpl.where(zpl.index(0) >= zpl.index(1), 1.0, 0.0)
        with zpl.covering(zpl.Region.of((2, n), (1, n))), zpl.masked(mask):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) * 0.5 + 1.0
        assert_matches_oracle(compile_scan(block), [a, mask])

    def test_contracted_read_before_and_after_definition(self):
        n = 8
        a, t = uniform((n, n), 9, "a"), uniform((n, n), 10, "t")
        x, y = uniform((n, n), 11, "x"), uniform((n, n), 12, "y")
        with zpl.covering(zpl.Region.of((2, n), (1, n))):
            with zpl.scan(execute=False) as block:
                x[...] = t + (a.p @ zpl.NORTH)   # before: reads t's storage
                t[...] = 2.0                     # a scalar: must broadcast
                y[...] = t * x
                t[...] = a * 0.5                 # dense: bound as it is
                a[...] = t + y
        compiled = contract(compile_scan(block), [t])
        source = template_for(compiled).kernel().source
        assert "c0 = broadcast_to(asarray(2.0, dtype=float)" in source
        assert "c0 = multiply(" in source
        assert_matches_oracle(compiled, [a, t, x, y])

    def test_comparison_and_where_roots_into_float_target(self):
        n = 7
        a, b, c = (uniform((n, n), s, name) for s, name in ((13, "a"), (14, "b"), (15, "c")))
        with zpl.covering(zpl.Region.of((2, n), (1, n))):
            with zpl.scan(execute=False) as block:
                c[...] = (a.p @ zpl.NORTH) < b
                a[...] = zpl.where(c > 0.5, a.p @ zpl.NORTH, b) + c
        compiled = compile_scan(block)
        assert "less(" in template_for(compiled).kernel().source
        assert_matches_oracle(compiled, [a, b, c])

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_non_float64_target_is_plainly_assigned(self, dtype):
        n = 7
        R = zpl.Region.square(1, n)
        a = zpl.ZArray(R, name="a", dtype=dtype)
        a._data[...] = np.arange(a._data.size).reshape(a._data.shape) % 5 + 1
        b = uniform((n, n), 16, "b")
        with zpl.covering(zpl.Region.of((2, n), (1, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) * 2.0 + b
        compiled = compile_scan(block)
        assert "out=" not in template_for(compiled).kernel().source
        assert_matches_oracle(compiled, [a, b])

    def test_rank3_two_parallel_dims_and_index_exprs(self):
        shape = (5, 4, 6)
        a, b = uniform(shape, 17, "a"), uniform(shape, 18, "b")
        with zpl.covering(zpl.Region.of((2, 5), (1, 3), (2, 6))):
            with zpl.scan(execute=False) as block:
                a[...] = (
                    (a.p @ (-1, 0, 0)) * 0.5 + (b @ (0, 1, -1))
                    + zpl.index(0) * 100.0 + zpl.index(1) * 10.0 + zpl.index(2)
                )
        compiled = compile_scan(block)
        assert template_for(compiled).looped == (0,)
        assert_matches_oracle(compiled, [a, b])

    def test_index_exprs_on_skewed_plan(self):
        n = 7
        a = uniform((n, n), 19, "a")
        with zpl.covering(zpl.Region.of((2, n), (2, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (
                    (a.p @ zpl.NORTH) * 0.5 + (a.p @ zpl.WEST) * 0.25
                    + zpl.index(0) * 10.0 + zpl.index(1)
                )
        compiled = compile_scan(block)
        assert template_for(compiled).skew is not None
        assert_matches_oracle(compiled, [a])

    def test_region_outside_storage_raises(self):
        n = 6
        a = zpl.ZArray(zpl.Region.square(1, n), name="a", fluff=0)
        with zpl.covering(zpl.Region.of((2, n), (1, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) + (a @ zpl.EAST)
        with pytest.raises(ArrayError, match="outside the storage"):
            execute_vectorized(compile_scan(block), engine="kernel")


def wide_block(n=40, width=9):
    """The benchmark's wide shape: dependences (0,1),(1,1) — dim 1 carries both."""
    a = uniform((n, width), 23, "a")
    with zpl.covering(zpl.Region.of((2, n), (2, width))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.3 + 0.4 * (a.p @ (0, -1)) + 0.2 * (a.p @ (-1, -1))
    return compile_scan(block), [a]


def banded_block(n=24, band=5):
    """The benchmark's banded shape: masked (1,0),(1,1) — dim 0 carries both."""
    a, mask = uniform((n, n), 24, "a"), zpl.ZArray(zpl.Region.square(1, n), name="m")
    i, j = np.indices((n, n))
    mask.load((np.abs(i - j) <= band).astype(float))
    with zpl.covering(zpl.Region.of((2, n), (2, n))), zpl.masked(mask):
        with zpl.scan(execute=False) as block:
            a[...] = 0.2 + 0.45 * (a.p @ (-1, 0)) + 0.3 * (a.p @ (-1, -1))
    return compile_scan(block), [a, mask]


def diagonal_block(n=12, width=9):
    """Ascending north/west recurrence: τ = (1, 1), the sheared lowering."""
    a = uniform((n, width), 27, "a")
    with zpl.covering(zpl.Region.of((2, n), (2, width))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.3 + 0.4 * (a.p @ zpl.NORTH) + 0.2 * (a.p @ zpl.WEST)
    return compile_scan(block), [a]


class TestSingleCarrierLowering:
    """An axis-aligned τ is a sliced row loop, not a gathered hyperplane sweep."""

    @pytest.mark.parametrize("build, dim", [(wide_block, 1), (banded_block, 0)])
    def test_row_loop_over_the_carrying_dim(self, build, dim):
        compiled, arrays = build()
        template = template_for(compiled)
        assert template.skew.dims == (dim,) and template.looped == (0, 1)
        assert "[I]" not in template.source
        assert "for k1" not in template.source
        assert plan_kind(compiled, "kernel") == "skewed"
        assert_matches_oracle(compiled, arrays)
        plan = template.plans[compiled.region.ranges, True]
        assert plan.trips == (compiled.region.extent(dim),)
        assert plan.n_planes == compiled.region.extent(dim)

    def test_descending_carrier_binds_reversed_views(self):
        n = 9
        a = uniform((n, n), 25, "a")
        with zpl.covering(zpl.Region.of((2, n - 1), (1, n - 1))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ (0, 1)) * 0.5 + (a.p @ (-1, 1)) * 0.25 + zpl.index(1)
        compiled = compile_scan(block)
        assert template_for(compiled).skew == Skew((1,), (-1,))
        assert_matches_oracle(compiled, [a])

    def test_dropped_dim_of_a_sheared_skew(self):
        """A looped dim with τ = 0 is sliced into the plane like a parallel one."""
        shape = (6, 6, 5)
        a = uniform(shape, 26, "a")
        with zpl.covering(zpl.Region.of((2, 6), (2, 6), (2, 5))):
            with zpl.scan(execute=False) as block:
                a[...] = (
                    (a.p @ (-1, 0, -1)) * 0.5 + (a.p @ (0, -1, -1)) * 0.25
                    + (a.p @ (-1, 0, 0)) * 0.125 + zpl.index(1)
                )
        compiled = compile_scan(block)
        template = template_for(compiled)
        # Dim 1 is looped by the flat nest but no τ component needs it, and
        # (1, 0, 1) sweeps fewer planes over this region than (1, 1, 0).
        assert template.skew == Skew((0, 2), (1, 1)) and len(template.looped) == 3
        assert "r0 = v0[t, a:b]" in template.source and "[I]" not in template.source
        assert_matches_oracle(compiled, [a])
        plan = template.plans[compiled.region.ranges, True]
        assert plan.views[0].shape == (5 + 4 - 1, 4, 5)  # (planes, dim 2, dim 1)

    def test_flat_engine_keeps_the_full_point_loop(self):
        compiled, arrays = wide_block()
        template = template_for(compiled)
        assert "for k1 in range(n1):" in template.kernel(False).source
        assert plan_kind(compiled, "flat") == "flat"
        KERNEL_STATS.reset()
        execute_vectorized(compiled, engine="flat")
        assert KERNEL_STATS.hyperplanes == 0
        (plan,) = template.plans.values()
        assert plan.trips == compiled.region.shape

    @pytest.mark.parametrize("build", [wide_block, diagonal_block])
    def test_row_loop_plans_live_under_the_flat_cache_cap(self, build):
        """Sheared plans are the row-loop body over a handful of views too."""
        compiled, _ = build(n=2 * 72 + 1)
        template = template_for(compiled)
        lo, hi = compiled.region.range(0)
        for start in range(lo, hi, 2):
            execute_vectorized(compiled, within=compiled.region.slab(0, start, start + 1))
        assert len(template.plans) == 72


def assert_sheared(compiled, region=None):
    """The plan is table-free, and no row it binds leaves its source view.

    The sheared ``as_strided`` view's nominal extent overruns the view it was
    cut from; what must stay inside is every ``v[t, a:b]`` the kernel takes.
    """
    template = template_for(compiled)
    region = compiled.region if region is None else region
    assert template.skew.lowering == "shear" and "[I]" not in template.source
    plan = template.plans[region.ranges, True]
    assert plan.n_planes == len(plan.trips) > 0
    assert all(
        len(trip) == 3 and all(type(x) is int for x in trip) for trip in plan.trips
    )
    looped, reverse, _ = template._nest(True)
    perm = looped + tuple(d for d in range(region.rank) if d not in looped)
    points = sum(b - a for _, a, b in plan.trips)
    assert points == np.prod([region.extent(d) for d in looped])
    for slot, value in zip(template.kernel(True).slots, plan.views):
        if slot[0] != "view":
            continue
        assert value.dtype.kind == "f" and value.base is not None
        lo, hi = byte_bounds(_bind_view(*slot[1:], region, perm, reverse, {}))
        for t, a, b in plan.trips:
            row_lo, row_hi = byte_bounds(value[t, a:b])
            assert lo <= row_lo and row_hi <= hi, (slot[2], t, a, b)


class TestShearedLowering:
    """A τ pair with a unit coefficient sweeps slices of a sheared view."""

    def test_smith_waterman_and_gauss_seidel_bind_no_tables(self):
        sw, _ = alignment.build_score_block("GATTACAGATTACA", "CATACGTTGA", local=True)
        gs = gauss_seidel.compile_sweep(gauss_seidel.build(12))
        for compiled in (sw, gs):
            assert "for t, a, b in N:" in template_for(compiled).source
            assert_matches_oracle(compiled, collect_arrays(compiled))
            assert_sheared(compiled)
        planes = template_for(sw).plans[sw.region.ranges, True].n_planes
        assert planes == 14 + 10 - 1

    def test_descending_pair_with_index_exprs(self):
        n = 9
        a = uniform((n, n + 2), 28, "a")
        with zpl.covering(zpl.Region.of((1, n - 1), (2, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (
                    (a.p @ zpl.SOUTH) * 0.5 + (a.p @ zpl.EAST) * 0.25
                    + zpl.index(0) * 10.0 + zpl.index(1)
                )
        compiled = compile_scan(block)
        assert template_for(compiled).skew == Skew((0, 1), (-1, -1))
        assert_matches_oracle(compiled, [a])
        assert_sheared(compiled)

    @pytest.mark.parametrize("swap", [False, True])
    def test_non_unit_pair(self, swap):
        """Dependences (1, 0) and (-1, 1) admit nothing cheaper than τ = (1, 2)."""
        n, flip = 9, (lambda d: d[::-1]) if swap else (lambda d: d)
        a = uniform((n, n), 29, "a")
        with zpl.covering(zpl.Region.of((2, n - 1), (2, n - 1))):
            with zpl.scan(execute=False) as block:
                a[...] = (
                    (a.p @ flip((-1, 0))) * 0.5 + (a.p @ flip((1, -1))) * 0.25
                    + zpl.index(0) * 10.0 + zpl.index(1)
                )
        compiled = compile_scan(block)
        skew = template_for(compiled).skew  # the outer loop takes the 2
        assert dict(zip(skew.dims, skew.tau)) == dict(zip((0, 1), flip((1, 2))))
        assert_matches_oracle(compiled, [a])
        assert_sheared(compiled)
        lo, hi = compiled.region.range(1)
        for start in range(lo, hi - 1):  # sub-regions rebind, rows stay inside
            within = compiled.region.slab(1, start, start + 2)
            execute_vectorized(compiled, within=within)
            assert_sheared(compiled, within)

    def test_contracted_scalar_broadcasts_to_the_plane(self):
        n = 8
        a, t = uniform((n, n), 30, "a"), uniform((n, n), 31, "t")
        with zpl.covering(zpl.Region.of((2, n), (2, n))):
            with zpl.scan(execute=False) as block:
                t[...] = 2.0
                a[...] = t * (a.p @ zpl.NORTH) + (a.p @ zpl.WEST) * 0.25
        compiled = contract(compile_scan(block), [t])
        source = template_for(compiled).source
        assert "c0 = broadcast_to(asarray(2.0, dtype=float), (b - a,) + " in source
        assert_matches_oracle(compiled, [a, t])

    def test_masked_store(self):
        n = 9
        a = uniform((n, n), 32, "a")
        mask = zpl.ZArray(zpl.Region.square(1, n), name="m")
        mask.load((np.add.outer(np.arange(n), np.arange(n)) % 3 > 0).astype(float))
        with zpl.covering(zpl.Region.of((2, n), (2, n))), zpl.masked(mask):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) * 0.5 + (a.p @ zpl.WEST) * 0.25
        compiled = compile_scan(block)
        assert "r0[...] = where(" in template_for(compiled).source
        assert_matches_oracle(compiled, [a, mask])
        assert_sheared(compiled)

    @pytest.mark.parametrize("local", [False, True])
    def test_stacked_batch_block_with_trailing_parallel_dim(self, local):
        pairs = [("GATTACA", "TACAG"), ("CCCGTGA", "GTGAC"), ("AAATTTC", "TTTCA")]
        got = alignment.batch_tables(pairs, local=local, engine="kernel")
        want = alignment.batch_tables(pairs, local=local, engine=execute_loopnest)
        np.testing.assert_array_equal(got, want)
        plan = alignment._batch_plan(4, 7, 5, 2.0, -1.0, 1.0, local)
        assert_sheared(plan.compiled)

    def test_same_plane_read_goes_straight_to_the_out_root(self):
        """τ·v = 0: the unprimed (1, -1) read sits on the plane being stored."""
        n = 9
        a = uniform((n, n), 33, "a")
        with zpl.covering(zpl.Region.of((2, n - 1), (2, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (
                    (a.p @ zpl.NORTH) * 0.5 + (a.p @ zpl.WEST) * 0.25
                ) + (a @ (1, -1))
        compiled = compile_scan(block)
        template = template_for(compiled)
        assert template.skew == Skew((0, 1), (1, 1))
        (root,) = [line for line in template.source.splitlines() if "out=" in line]
        tied = template.kernel(True).slots.index(("view", a, (1, -1)))
        assert root.endswith(f", r{tied}, out=r0)")
        assert_matches_oracle(compiled, [a])

    @pytest.mark.parametrize(
        "tie, primes, lowering",
        [
            ((1, -1), ((-1, 0), (0, -1)), "shear"),
            ((0, 1), ((-1, 0), (-1, -1)), "rows"),
            ((0, 1), ((-1, 0),), None),  # one looped dim: the flat row loop
        ],
    )
    def test_contracted_copy_of_a_same_plane_read_is_a_snapshot(
        self, tie, primes, lowering
    ):
        """``t := a@tie`` holds the plane's *old* values after ``a`` is stored."""
        n = 8
        a, t, x = (uniform((n, n), 34 + k, name) for k, name in enumerate("atx"))
        with zpl.covering(zpl.Region.of((2, n - 1), (2, n - 1))):
            with zpl.scan(execute=False) as block:
                t[...] = a @ tie
                a[...] = 0.1 + sum(0.3 * (a.p @ d) for d in primes)
                x[...] = t * 2.0
        compiled = contract(compile_scan(block), [t])
        skew = template_for(compiled).skew
        assert (skew and skew.lowering) == lowering
        assert "c0 = r0.copy()" in template_for(compiled).source
        assert_matches_oracle(compiled, [a, t, x])

    def test_three_component_tau_has_no_numpy_sweep(self):
        """A plane that is not a line: numpy runs the flat point loop."""
        state = sweep3d.build(6)
        compiled = sweep3d.compile_octant(state, (1, 1, 1))
        skew = derive_skew(compiled)
        assert skew.tau == (1, 1, 1) and skew.lowering is None
        template = template_for(compiled)
        assert template.skew is None and plan_kind(compiled) == "flat"
        assert "for k2 in range(n2):" in template.source
        assert_matches_oracle(compiled, collect_arrays(compiled))


class TestGeneratedSource:
    def test_source_is_registered_with_linecache(self):
        block, _ = record_tomcatv_block(8)
        compiled = compile_scan(block)
        execute_vectorized(compiled)
        template = template_for(compiled)
        (plan,) = template.plans.values()
        filename = plan.fn.__code__.co_filename
        assert filename.startswith("<repro-kernel:")
        assert "".join(linecache.getlines(filename)) == template.source
        linecache.checkcache()  # must survive a cache validation sweep
        assert linecache.getline(filename, 1).startswith("def kernel(N, V):")

    def test_one_compile_serves_every_region(self):
        block, _ = record_tomcatv_block(10)
        compiled = compile_scan(block)
        execute_vectorized(compiled)
        execute_vectorized(compiled, within=compiled.region.slab(1, 3, 5))
        template = template_for(compiled)
        assert len({plan.fn for plan in template.plans.values()}) == 1
        assert len(template.plans) == 2

    def test_compile_span_carries_line_count(self):
        block, _ = record_tomcatv_block(8)
        compiled = compile_scan(block)
        tracer = Tracer(proc=0)
        execute_vectorized(compiled, tracer=tracer)
        (span,) = [s for s in tracer.spans if s.name == "kernel_compile"]
        assert span.args["lines"] == template_for(compiled).source.count("\n")
        assert span.args["skewed"] is False and span.args["lowering"] == "rows"


class TestPlanCacheCapacity:
    def test_simulator_sweep_fits_the_plan_cache(self):
        """A p=16, b=8 sweep cycles 256 block regions: none may be evicted."""
        block, _ = record_tomcatv_block(129)
        compiled = compile_scan(block)
        pipelined_wavefront(compiled, CRAY_T3E, 16, 8)
        KERNEL_STATS.reset()
        outcome = pipelined_wavefront(compiled, CRAY_T3E, 16, 8)
        snap = KERNEL_STATS.snapshot()
        assert snap["plan_builds"] == 0
        assert snap["plan_hits"] == outcome.n_procs * outcome.n_chunks == 256
