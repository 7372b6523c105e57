"""Tests for the skewed plan family: selection, counters, escape hatches."""

import numpy as np

from repro import zpl
from repro.apps.alignment import (
    build_score_block,
    needleman_wunsch,
    nw_score_oracle,
    smith_waterman_score,
)
from repro.compiler import compile_scan
from repro.obs.trace import Tracer
from repro.runtime import (
    KERNEL_STATS,
    PlanRunner,
    default_engine,
    execute_loopnest,
    execute_vectorized,
    plan_kind,
    resolve_engine,
    run_and_capture,
)
from repro.runtime import kernels as kernels_mod
from repro.runtime.kernels import template_for
from repro.zpl.arrays import ZArray


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


def all_engines(compiled, arrays):
    """Storage after skewed / flat / interp runs from identical state."""
    return {
        engine: run_and_capture(
            lambda c, e=engine: execute_vectorized(c, engine=e),
            compiled,
            arrays,
        )
        for engine in ("kernel", "flat", "interp")
    }


class TestSkewSelection:
    def test_dp_block_selects_skewed(self):
        compiled, _ = dp_block()
        assert plan_kind(compiled) == "skewed"
        assert plan_kind(compiled, engine="flat") == "flat"
        assert plan_kind(compiled, engine="interp") == "interp"

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
        """``PlanRunner.run`` counts what ``try_execute_kernels`` counts."""
        compiled, _ = dp_block()
        direct, batched = Tracer(proc=0), Tracer(proc=0)
        execute_vectorized(compiled, engine="kernel", tracer=direct)
        runner = PlanRunner(compiled, "kernel")
        assert runner.kind == plan_kind(compiled, "kernel") == "skewed"
        runner.run(items=3, tracer=batched)
        key = (0, "hyperplanes")
        assert batched.counters[key] == direct.counters[key] > 0
        assert batched.counters[0, "skew_plan_hits"] == 1
        assert PlanRunner(compiled, "flat").kind == "flat"
        assert PlanRunner(compiled, "interp").kind == "interp"

    def test_skewed_and_flat_plans_coexist(self):
        compiled, _ = dp_block()
        execute_vectorized(compiled, engine="kernel")
        execute_vectorized(compiled, engine="flat")
        assert len(template_for(compiled).plans) == 2


class TestSkewEquivalence:
    def test_dp_block_bit_identical(self):
        compiled, arrays = dp_block()
        results = all_engines(compiled, arrays)
        for engine in ("flat", "interp"):
            for s, o in zip(results["kernel"], results[engine]):
                np.testing.assert_array_equal(s, o, err_msg=f"vs {engine}")

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
        result = needleman_wunsch(a, b, engine="kernel")
        assert result.score == nw_score_oracle(a, b)

    def test_alignment_engines_agree(self):
        a, b = "ACGTACGTAC", "TACGATCGAT"
        scores = {
            engine: smith_waterman_score(a, b, engine=engine)
            for engine in ("kernel", "flat", "interp")
        }
        assert scores["kernel"] == scores["flat"] == scores["interp"]

    def test_within_restriction(self):
        compiled, arrays = dp_block(n=9)
        sub = compiled.region.slab(1, 3, 6)
        skewed = run_and_capture(
            lambda c: execute_vectorized(c, within=sub, engine="kernel"),
            compiled, arrays,
        )
        interp = run_and_capture(
            lambda c: execute_vectorized(c, within=sub, engine="interp"),
            compiled, arrays,
        )
        for s, i in zip(skewed, interp):
            np.testing.assert_array_equal(s, i)


class TestEscapeHatches:
    def test_repro_engine_flat_runs_flat(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "flat")
        compiled, arrays = dp_block()
        assert plan_kind(compiled) == "flat"
        KERNEL_STATS.reset()
        execute_vectorized(compiled)
        assert KERNEL_STATS.snapshot()["skew_plan_builds"] == 0

    def test_flat_engine_never_skews(self):
        compiled, _ = dp_block()
        KERNEL_STATS.reset()
        execute_vectorized(compiled, engine="flat")
        snap = KERNEL_STATS.snapshot()
        assert snap["skew_plan_builds"] == 0
        assert snap["plan_builds"] == 1


class TestEngineResolver:
    def test_repro_engine_values(self, monkeypatch):
        for value, expected in (
            ("kernel", "kernel"),
            ("flat", "flat"),
            ("interp", "interp"),
            ("0", "interp"),
            ("off", "interp"),
        ):
            monkeypatch.setenv("REPRO_ENGINE", value)
            assert default_engine() == expected, value

    def test_repro_engine_beats_legacy(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "flat")
        monkeypatch.setenv("REPRO_KERNELS", "0")
        assert default_engine() == "flat"

    def test_legacy_alias_is_ignored(self, monkeypatch, recwarn):
        """``REPRO_KERNELS`` is gone: no effect on resolution, no warning."""
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setenv("REPRO_KERNELS", "0")
        assert default_engine() == "kernel"
        assert resolve_engine(None) == "kernel"
        assert not recwarn.list
        assert not hasattr(kernels_mod, "LEGACY_ENGINE_ENV")
