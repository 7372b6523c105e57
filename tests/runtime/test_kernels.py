"""Tests for the AOT kernel layer: no engine selection, plan cache, aliasing."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro import zpl
from repro.compiler import compile_scan, compile_statements, contract
from repro.errors import MachineError
from repro.runtime import (
    KERNEL_STATS,
    PlanRunner,
    execute_interpreted,
    execute_loopnest,
    execute_vectorized,
    plan_fingerprint,
    plan_kind,
    run_and_capture,
    statement_needs_copy,
)
from repro.runtime.kernels import statement_kernel, template_for
from repro.zpl.statements import Assign
from tests.conftest import (
    assert_bit_identical,
    engine_matrix,
    numpy_lowerings,
    record_tomcatv_block,
)


def kernel_vs_oracle(compiled, arrays):
    """The host's lowering and numpy's, from the same state: both
    bit-identical to the loop-nest oracle."""
    assert_bit_identical(engine_matrix(compiled, arrays), arrays)


def _tomcatv(n=10):
    block, arrays = record_tomcatv_block(n)
    return compile_scan(block), arrays


class TestEngineSelection:
    def test_default_is_kernel(self):
        compiled, arrays = _tomcatv()
        default = run_and_capture(execute_vectorized, compiled, arrays)
        kernel = run_and_capture(
            lambda c: execute_vectorized(c, engine="kernel"), compiled, arrays
        )
        assert plan_kind(compiled) == plan_kind(compiled, "kernel") == "flat"
        for d, k in zip(default, kernel):
            np.testing.assert_array_equal(k, d)

    @pytest.mark.parametrize("value", ["0", "false", "off", "interp"])
    def test_env_escape_hatch(self, monkeypatch, value):
        """The ``REPRO_ENGINE`` escape hatch is closed: setting it changes
        neither the plan family nor the kernel that runs."""
        compiled, _ = _tomcatv()
        kind = plan_kind(compiled)
        execute_vectorized(compiled)
        plans = dict(template_for(compiled).plans)
        monkeypatch.setenv("REPRO_ENGINE", value)
        KERNEL_STATS.reset()
        execute_vectorized(compiled)
        assert plan_kind(compiled) == PlanRunner(compiled).kind == kind
        assert template_for(compiled).plans == plans
        assert (KERNEL_STATS.plan_hits, KERNEL_STATS.plan_builds) == (1, 0)

    @pytest.mark.parametrize("value", ["0", "interp", "flat"])
    def test_removed_alias_is_ignored(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_KERNELS", value)
        compiled, _ = _tomcatv(8)
        assert PlanRunner(compiled).kind == "flat"

    def test_unknown_engine_rejected(self):
        """Only ``None`` and ``"kernel"`` pass, and a refusal binds nothing."""
        compiled, _ = _tomcatv(8)
        for engine in ("interp", "flat", "jit"):
            with pytest.raises(MachineError, match=f"unknown engine {engine!r}"):
                execute_vectorized(compiled, engine=engine)
            with pytest.raises(MachineError, match="unknown engine"):
                plan_kind(compiled, engine)
        assert not template_for(compiled).plans

    def test_env_off_still_correct(self, monkeypatch):
        block, arrays = record_tomcatv_block(10)
        compiled = compile_scan(block)
        default = run_and_capture(execute_vectorized, compiled, arrays)
        monkeypatch.setenv("REPRO_ENGINE", "0")
        off = run_and_capture(execute_vectorized, compiled, arrays)
        for d, o in zip(default, off):
            np.testing.assert_array_equal(o, d)


class TestEquivalence:
    def test_tomcatv_bit_identical(self):
        block, arrays = record_tomcatv_block(12)
        kernel_vs_oracle(compile_scan(block), arrays)

    def test_matches_loopnest_oracle(self):
        block, arrays = record_tomcatv_block(10)
        compiled = compile_scan(block)
        oracle = run_and_capture(execute_loopnest, compiled, arrays)
        kernel = run_and_capture(
            lambda c: execute_vectorized(c, engine="kernel"), compiled, arrays
        )
        for o, k in zip(oracle, kernel):
            np.testing.assert_allclose(k, o, rtol=1e-13, atol=1e-13)

    def test_contracted_block(self):
        block, (aa, d, dd, rx, ry, r) = record_tomcatv_block(10)
        compiled = contract(compile_scan(block), [r])
        kernel_vs_oracle(compiled, (aa, d, dd, rx, ry, r))

    def test_masked_scan(self):
        n = 8
        rng = np.random.default_rng(3)
        a = zpl.from_numpy(rng.uniform(size=(n, n)), base=1, name="a")
        mask = zpl.zeros(zpl.Region.square(1, n), name="m")
        with zpl.covering(mask.region):
            mask[...] = zpl.where(zpl.index(0) >= zpl.index(1), 1.0, 0.0)
        with zpl.covering(zpl.Region.of((2, n), (1, n))), zpl.masked(mask):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) * 0.5 + 1.0
        kernel_vs_oracle(compile_scan(block), [a, mask])

    def test_index_expr(self):
        n = 7
        a = zpl.zeros(zpl.Region.square(1, n), name="a")
        with zpl.covering(zpl.Region.of((2, n), (1, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) + zpl.index(0) * 10.0 + zpl.index(1)
        kernel_vs_oracle(compile_scan(block), [a])

    def test_rank1(self):
        n = 9
        a = zpl.ones(zpl.Region.of((1, n)), name="a")
        with zpl.covering(zpl.Region.of((2, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ (-1,)) * 1.5
        kernel_vs_oracle(compile_scan(block), [a])

    def test_backward_wavefront(self):
        n = 8
        rng = np.random.default_rng(5)
        a = zpl.from_numpy(rng.uniform(size=(n, n)), base=1, name="a")
        with zpl.covering(zpl.Region.of((1, n - 1), (1, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.SOUTH) * 0.5 + 0.25
        kernel_vs_oracle(compile_scan(block), [a])

    def test_within_restriction(self):
        block, arrays = record_tomcatv_block(10)
        compiled = compile_scan(block)
        sub = compiled.region.slab(1, 3, 6)

        def run(c):
            execute_vectorized(c, within=sub)

        kernel = run_and_capture(run, compiled, arrays)
        with numpy_lowerings():
            numpy = run_and_capture(run, compiled, arrays)
        for k, n in zip(kernel, numpy):
            np.testing.assert_array_equal(k, n)


class TestAliasing:
    def test_anti_dependence_still_copies(self):
        # a[R] = a@EAST is a pure shifted self-copy: the RHS evaluates to a
        # *view* of the target's storage, so storing without a copy would
        # let the assignment read its own freshly-written elements.
        n = 8
        rng = np.random.default_rng(11)
        values = rng.uniform(size=(n, n))
        R = zpl.Region.of((1, n), (1, n - 1))
        expected = values.copy()
        expected[:, : n - 1] = values[:, 1:]

        a = zpl.from_numpy(values.copy(), base=1, name="a")
        stmt = Assign(a, a @ zpl.EAST, R)
        compiled = compile_statements([stmt])
        assert statement_needs_copy(stmt)
        execute_vectorized(compiled)
        np.testing.assert_array_equal(a.to_numpy(), expected)

    def test_independent_arrays_skip_copy(self):
        n = 6
        a = zpl.ones(zpl.Region.square(1, n), name="a")
        b = zpl.zeros(zpl.Region.square(1, n), name="b")
        stmt = Assign(b, a @ zpl.NORTH, zpl.Region.of((2, n), (1, n)))
        assert not statement_needs_copy(stmt)

    def test_non_ref_root_skips_copy(self):
        n = 6
        a = zpl.ones(zpl.Region.square(1, n), name="a")
        stmt = Assign(a, (a @ zpl.EAST) * 1.0, zpl.Region.of((1, n), (1, n - 1)))
        # BinOp roots allocate; no copy needed even though source aliases.
        assert not statement_needs_copy(stmt)

    def test_contracted_source_stores_without_a_copy(self, no_compiler):
        """A contracted temporary is a fresh local once defined, so storing
        it into a target needs no ``.copy()``."""
        n = 8
        rng = np.random.default_rng(13)
        a, t, x = (
            zpl.from_numpy(rng.uniform(size=(n, n)), base=1, name=name)
            for name in "atx"
        )
        with zpl.covering(zpl.Region.of((2, n), (1, n))):
            with zpl.scan(execute=False) as block:
                t[...] = a * 0.5
                a[...] = (a.p @ zpl.NORTH) + t
                x[...] = t.ref
        compiled = contract(compile_scan(block), [t])
        (store,) = [s for s in compiled.statements if s.target is x]
        assert not statement_needs_copy(store)
        assert ".copy()" not in template_for(compiled).source
        kernel_vs_oracle(compiled, [a, t, x])


class TestPlanCache:
    def test_repeat_runs_hit(self):
        block, arrays = record_tomcatv_block(8)
        compiled = compile_scan(block)
        execute_vectorized(compiled)
        KERNEL_STATS.reset()
        execute_vectorized(compiled)
        snap = KERNEL_STATS.snapshot()
        assert snap["plan_hits"] == 1
        assert snap["plan_builds"] == 0

    def test_rebound_storage_invalidates(self):
        block, arrays = record_tomcatv_block(8)
        compiled = compile_scan(block)
        execute_vectorized(compiled)
        arrays[0]._data = arrays[0]._data.copy()  # rebinding, not restoring
        KERNEL_STATS.reset()
        execute_vectorized(compiled)
        snap = KERNEL_STATS.snapshot()
        assert snap["plan_invalidations"] == 1
        assert snap["plan_builds"] == 1

    def test_inplace_restore_keeps_plans(self):
        block, arrays = record_tomcatv_block(8)
        compiled = compile_scan(block)
        run_and_capture(execute_vectorized, compiled, arrays)  # restores
        KERNEL_STATS.reset()
        execute_vectorized(compiled)
        assert KERNEL_STATS.snapshot()["plan_invalidations"] == 0

    def test_distinct_regions_distinct_plans(self):
        block, arrays = record_tomcatv_block(10)
        compiled = compile_scan(block)
        execute_vectorized(compiled)
        KERNEL_STATS.reset()
        execute_vectorized(compiled, within=compiled.region.slab(1, 3, 5))
        assert KERNEL_STATS.snapshot()["plan_builds"] == 1
        template = template_for(compiled)
        assert len(template.plans) == 2


class TestFingerprint:
    def test_stable_across_pickle(self):
        block, _ = record_tomcatv_block(8)
        compiled = compile_scan(block)
        clone = pickle.loads(pickle.dumps(compiled))
        assert plan_fingerprint(clone) == plan_fingerprint(compiled)

    def test_stable_without_hoisted(self):
        block, _ = record_tomcatv_block(8)
        compiled = compile_scan(block)
        stripped = replace(compiled, hoisted=())
        assert plan_fingerprint(stripped) == plan_fingerprint(compiled)

    def test_structure_changes_digest(self):
        b1, _ = record_tomcatv_block(8)
        b2, _ = record_tomcatv_block(9)  # different region extents
        assert plan_fingerprint(compile_scan(b1)) != plan_fingerprint(
            compile_scan(b2)
        )

    def test_contraction_changes_digest(self):
        block, (aa, d, dd, rx, ry, r) = record_tomcatv_block(8)
        compiled = compile_scan(block)
        assert plan_fingerprint(contract(compiled, [r])) != plan_fingerprint(
            compiled
        )


class TestInterpFastPath:
    def test_statement_kernel_used(self):
        n = 6
        rng = np.random.default_rng(23)
        a = zpl.from_numpy(rng.uniform(size=(n, n)), base=1, name="a")
        b = a.copy_like(name="b")
        R = zpl.Region.of((2, n - 1), (2, n - 1))
        stmt = Assign(b, (b @ zpl.NORTH) * 2.0, R)
        KERNEL_STATS.reset()
        execute_interpreted([stmt])
        assert KERNEL_STATS.snapshot()["plan_builds"] == 1
        # the values match the eager assignment semantics
        with zpl.covering(R):
            a[...] = (a @ zpl.NORTH) * 2.0
        np.testing.assert_array_equal(a.to_numpy(), b.to_numpy())
        # a repeat execution reuses the cached statement kernel
        execute_interpreted([stmt])
        assert KERNEL_STATS.snapshot()["plan_hits"] == 1

    def test_primed_statement_returns_none(self):
        n = 4
        a = zpl.ones(zpl.Region.square(1, n), name="a")
        stmt = Assign(a, a.p @ zpl.NORTH, zpl.Region.of((2, n), (1, n)))
        assert statement_kernel(stmt) is None
