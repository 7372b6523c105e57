"""Tests for the AOT kernel layer: engine selection, plan cache, aliasing."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro import zpl
from repro.compiler import compile_scan, compile_statements, contract
from repro.errors import MachineError
from repro.runtime import (
    KERNEL_STATS,
    default_engine,
    execute_interpreted,
    execute_loopnest,
    execute_vectorized,
    plan_fingerprint,
    resolve_engine,
    run_and_capture,
    statement_needs_copy,
)
from repro.runtime.kernels import statement_kernel, template_for
from repro.zpl.statements import Assign
from tests.conftest import record_tomcatv_block


def kernel_vs_interp(compiled, arrays):
    """Both sequential engines from the same state; assert bit-identical."""
    interp = run_and_capture(
        lambda c: execute_vectorized(c, engine="interp"), compiled, arrays
    )
    kernel = run_and_capture(
        lambda c: execute_vectorized(c, engine="kernel"), compiled, arrays
    )
    for name, i, k in zip((a.name for a in arrays), interp, kernel):
        np.testing.assert_array_equal(k, i, err_msg=f"array {name}")
    return interp


class TestEngineSelection:
    def test_default_is_kernel(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert default_engine() == "kernel"
        assert resolve_engine(None) == "kernel"

    @pytest.mark.parametrize("value", ["0", "false", "off", "interp"])
    def test_env_escape_hatch(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_ENGINE", value)
        assert default_engine() == "interp"

    @pytest.mark.parametrize("value", ["0", "interp", "flat"])
    def test_removed_alias_is_ignored(self, monkeypatch, value):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setenv("REPRO_KERNELS", value)
        assert default_engine() == "kernel"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "0")
        assert resolve_engine("kernel") == "kernel"

    def test_unknown_engine_rejected(self):
        with pytest.raises(MachineError, match="unknown engine"):
            resolve_engine("jit")

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
        kernel_vs_interp(compile_scan(block), arrays)

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
        kernel_vs_interp(compiled, (aa, d, dd, rx, ry, r))

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
        kernel_vs_interp(compile_scan(block), [a, mask])

    def test_index_expr(self):
        n = 7
        a = zpl.zeros(zpl.Region.square(1, n), name="a")
        with zpl.covering(zpl.Region.of((2, n), (1, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) + zpl.index(0) * 10.0 + zpl.index(1)
        kernel_vs_interp(compile_scan(block), [a])

    def test_rank1(self):
        n = 9
        a = zpl.ones(zpl.Region.of((1, n)), name="a")
        with zpl.covering(zpl.Region.of((2, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ (-1,)) * 1.5
        kernel_vs_interp(compile_scan(block), [a])

    def test_backward_wavefront(self):
        n = 8
        rng = np.random.default_rng(5)
        a = zpl.from_numpy(rng.uniform(size=(n, n)), base=1, name="a")
        with zpl.covering(zpl.Region.of((1, n - 1), (1, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.SOUTH) * 0.5 + 0.25
        kernel_vs_interp(compile_scan(block), [a])

    def test_within_restriction(self):
        block, arrays = record_tomcatv_block(10)
        compiled = compile_scan(block)
        sub = compiled.region.slab(1, 3, 6)
        interp = run_and_capture(
            lambda c: execute_vectorized(c, within=sub, engine="interp"),
            compiled, arrays,
        )
        kernel = run_and_capture(
            lambda c: execute_vectorized(c, within=sub, engine="kernel"),
            compiled, arrays,
        )
        for i, k in zip(interp, kernel):
            np.testing.assert_array_equal(k, i)


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

        for engine in ("kernel", "interp"):
            a = zpl.from_numpy(values.copy(), base=1, name="a")
            stmt = Assign(a, a @ zpl.EAST, R)
            compiled = compile_statements([stmt])
            assert statement_needs_copy(stmt, frozenset())
            execute_vectorized(compiled, engine=engine)
            np.testing.assert_array_equal(
                a.to_numpy(), expected, err_msg=f"engine {engine}"
            )

    def test_independent_arrays_skip_copy(self):
        n = 6
        a = zpl.ones(zpl.Region.square(1, n), name="a")
        b = zpl.zeros(zpl.Region.square(1, n), name="b")
        stmt = Assign(b, a @ zpl.NORTH, zpl.Region.of((2, n), (1, n)))
        assert not statement_needs_copy(stmt, frozenset())

    def test_non_ref_root_skips_copy(self):
        n = 6
        a = zpl.ones(zpl.Region.square(1, n), name="a")
        stmt = Assign(a, (a @ zpl.EAST) * 1.0, zpl.Region.of((1, n), (1, n - 1)))
        # BinOp roots allocate; no copy needed even though source aliases.
        assert not statement_needs_copy(stmt, frozenset())


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

    def test_interp_engine_skips_kernels(self, monkeypatch):
        n = 5
        a = zpl.ones(zpl.Region.square(1, n), name="a")
        stmt = Assign(a, (a @ zpl.NORTH) + 1.0, zpl.Region.of((2, n), (1, n)))
        KERNEL_STATS.reset()
        execute_interpreted([stmt], engine="interp")
        assert KERNEL_STATS.snapshot()["plan_builds"] == 0
