"""Tests for the skewed plan family: selection, counters, bit identity."""

import numpy as np

from repro import zpl
from repro.apps.alignment import (
    needleman_wunsch,
    nw_score_oracle,
    smith_waterman_score,
)
from repro.compiler import compile_scan
from repro.obs.trace import Tracer
from repro.runtime import (
    KERNEL_STATS,
    PlanRunner,
    execute_loopnest,
    execute_vectorized,
    plan_kind,
    run_and_capture,
)
from repro.runtime import kernels as kernels_mod
from repro.runtime.kernels import template_for
from tests.conftest import assert_bit_identical, engine_matrix, numpy_lowerings


def dp_block(n=7, seed=0):
    """A 2-dependence wavefront block (both dims looped) plus its arrays."""
    rng = np.random.default_rng(seed)
    a = zpl.from_numpy(rng.uniform(0.5, 1.5, size=(n, n)), base=1, name="a")
    with zpl.covering(zpl.Region.of((2, n), (2, n))):
        with zpl.scan(execute=False) as block:
            a[...] = (
                (a.p @ zpl.NORTH) * 0.4
                + (a.p @ zpl.WEST) * 0.3
                + (a.p @ zpl.NORTHWEST) * 0.2
            )
    return compile_scan(block), [a]


class TestSkewSelection:
    def test_dp_block_selects_skewed(self):
        compiled, _ = dp_block()
        assert plan_kind(compiled) == plan_kind(compiled, "kernel") == "skewed"
        with numpy_lowerings():  # the family is the block's, not the host's
            assert plan_kind(compiled) == "skewed"

    def test_single_looped_dim_stays_flat(self):
        n = 8
        a = zpl.ones(zpl.Region.square(1, n), name="a")
        with zpl.covering(zpl.Region.of((2, n), (1, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) * 0.5
        compiled = compile_scan(block)
        assert template_for(compiled).skew is None
        assert plan_kind(compiled) == "flat"

    def test_skewed_counters(self):
        compiled, arrays = dp_block()
        KERNEL_STATS.reset()
        execute_vectorized(compiled, engine="kernel")
        snap = KERNEL_STATS.snapshot()
        assert snap["skew_plan_builds"] == 1
        assert snap["hyperplanes"] > 0
        execute_vectorized(compiled, engine="kernel")
        snap = KERNEL_STATS.snapshot()
        assert snap["skew_plan_hits"] == 1

    def test_tracer_counters(self):
        compiled, _ = dp_block()
        tracer = Tracer(proc=0)
        execute_vectorized(compiled, engine="kernel", tracer=tracer)
        execute_vectorized(compiled, engine="kernel", tracer=tracer)
        counters = {name: v for (_, name), v in tracer.counters.items()}
        assert counters["hyperplanes"] > 0
        assert counters["skew_plan_hits"] == 1

    def test_plan_runner_shares_the_dispatch_tail(self):
        """``PlanRunner.run`` counts what ``execute_vectorized`` counts."""
        compiled, _ = dp_block()
        direct, batched = Tracer(proc=0), Tracer(proc=0)
        execute_vectorized(compiled, engine="kernel", tracer=direct)
        runner = PlanRunner(compiled)
        assert runner.kind == plan_kind(compiled, "kernel") == "skewed"
        runner.run(items=3, tracer=batched)
        key = (0, "hyperplanes")
        assert batched.counters[key] == direct.counters[key] > 0
        assert batched.counters[0, "skew_plan_hits"] == 1


class TestSkewEquivalence:
    def test_dp_block_bit_identical(self):
        compiled, arrays = dp_block()
        assert_bit_identical(engine_matrix(compiled, arrays), arrays)

    def test_matches_loopnest_oracle(self):
        compiled, arrays = dp_block()
        oracle = run_and_capture(execute_loopnest, compiled, arrays)
        skewed = run_and_capture(
            lambda c: execute_vectorized(c, engine="kernel"), compiled, arrays
        )
        for s, o in zip(skewed, oracle):
            np.testing.assert_allclose(s, o, rtol=1e-12, atol=1e-12)

    def test_alignment_matches_python_oracle(self):
        a, b = "GATTACAGGT", "GCATGCUTAC"
        result = needleman_wunsch(a, b)
        assert result.score == nw_score_oracle(a, b)

    def test_alignment_engines_agree(self):
        """The native plane nest and the numpy shear give one score (the
        cached batch runner keeps its lowering, so numpy runs through a
        fresh ``execute_vectorized`` call)."""
        a, b = "ACGTACGTAC", "TACGATCGAT"
        native = smith_waterman_score(a, b)
        with numpy_lowerings():
            numpy = smith_waterman_score(a, b, engine=lambda c: execute_vectorized(c))
        assert native == numpy

    def test_within_restriction(self):
        compiled, arrays = dp_block(n=9)
        sub = compiled.region.slab(1, 3, 6)

        def run(c):
            execute_vectorized(c, within=sub)

        skewed = run_and_capture(run, compiled, arrays)
        with numpy_lowerings():
            numpy = run_and_capture(run, compiled, arrays)
        for s, n in zip(skewed, numpy):
            np.testing.assert_array_equal(s, n)


class TestEngineResolver:
    def test_legacy_alias_is_ignored(self, monkeypatch, recwarn):
        """``REPRO_KERNELS`` and ``REPRO_ENGINE`` are gone: no effect on
        the plan family, no warning, no knob left in the module."""
        monkeypatch.setenv("REPRO_KERNELS", "0")
        monkeypatch.setenv("REPRO_ENGINE", "flat")
        compiled, _ = dp_block()
        assert plan_kind(compiled) == PlanRunner(compiled).kind == "skewed"
        assert not recwarn.list
        assert not any(
            hasattr(kernels_mod, name)
            for name in ("LEGACY_ENGINE_ENV", "ENGINE_ENV", "resolve_engine")
        )
