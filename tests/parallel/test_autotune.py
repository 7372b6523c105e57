"""The autotuner measures a plausible machine and feeds Equation (1)."""

import pytest

from repro.compiler import compile_scan
from repro.compiler.schedule import plan_wavefront
from repro.errors import MachineError
from repro.machine import MachineParams
from repro.parallel.autotune import (
    autotune,
    effective_params,
    measure_block_overhead,
    measure_comm,
    measure_compute_cost,
    normalized_params,
    optimal_block_size,
)
from tests.conftest import record_tomcatv_block


def _compiled(n=20):
    block, _ = record_tomcatv_block(n)
    return compile_scan(block)


def test_measure_comm_fits_positive_alpha():
    comm = measure_comm(sizes=(1, 256, 2048), repeats=5)
    assert comm.alpha_seconds > 0
    assert comm.beta_seconds >= 0
    assert len(comm.samples) == 3
    # The fitted line should not wildly undercut the smallest sample.
    assert comm.message_seconds(1) <= 10 * comm.samples[0][1]


def test_measure_comm_needs_two_sizes():
    with pytest.raises(MachineError):
        measure_comm(sizes=(4,))


def test_compute_cost_restores_state():
    compiled = _compiled()
    from repro.parallel.sharedmem import collect_arrays

    before = [a._data.copy() for a in collect_arrays(compiled)]
    cost = measure_compute_cost(compiled, repeats=2)
    after = [a._data.copy() for a in collect_arrays(compiled)]
    assert cost > 0
    for b, a in zip(before, after):
        assert (b == a).all()


def test_block_overhead_nonnegative():
    compiled = _compiled()
    assert measure_block_overhead(compiled, block=4, repeats=1) >= 0.0


def test_normalized_params_units():
    comm = measure_comm(sizes=(1, 512), repeats=3)
    params = normalized_params(comm, compute_seconds=1e-6)
    assert isinstance(params, MachineParams)
    assert params.alpha == pytest.approx(comm.alpha_seconds / 1e-6)
    with pytest.raises(MachineError):
        normalized_params(comm, compute_seconds=0.0)


def test_effective_alpha_shrinks_with_procs():
    comm = measure_comm(sizes=(1, 512), repeats=3)
    two = effective_params(comm, 1e-6, 1e-3, 2)
    four = effective_params(comm, 1e-6, 1e-3, 4)
    assert four.alpha < two.alpha


def test_optimal_block_size_degenerates_to_full_width_serially():
    compiled = _compiled()
    plan = plan_wavefront(compiled)
    params = MachineParams(name="x", alpha=100.0, beta=1.0)
    cols = compiled.region.extent(plan.chunk_dim)
    assert optimal_block_size(plan, params, 1) == cols
    b = optimal_block_size(plan, params, 4)
    assert 1 <= b <= cols


def test_autotune_end_to_end():
    compiled = _compiled()
    result = autotune(compiled, 2)
    plan = plan_wavefront(compiled)
    cols = compiled.region.extent(plan.chunk_dim)
    assert 1 <= result.block_size <= cols
    assert result.compute_seconds > 0
    assert result.params.alpha > 0
    assert result.effective_params.alpha >= result.params.alpha
    assert result.plan_kind == "flat"  # one looped dim: nothing to skew


def test_autotune_records_skewed_plan_kind():
    from repro.apps.alignment import build_score_block

    compiled, _ = build_score_block("GATTACAGG" * 3, "GCATGCUTA" * 3)
    comm = measure_comm(sizes=(1, 512), repeats=3)
    result = autotune(compiled, 2, comm=comm)
    assert result.plan_kind == "skewed"


def test_tuned_block_size_memoises_per_plan_kind(monkeypatch):
    import sys

    mod = sys.modules["repro.parallel.autotune"]
    compiled = _compiled()
    mod._BLOCK_COSTS.clear()
    mod.tuned_block_size(compiled, 2)
    assert len(mod._BLOCK_COSTS) == 1
    ((_, kind),) = mod._BLOCK_COSTS
    assert kind == "flat"
    # Same block, same kind: measured once.
    mod.tuned_block_size(compiled, 2)
    assert len(mod._BLOCK_COSTS) == 1
    # Forcing interp changes the plan kind: a separate measurement.
    monkeypatch.setenv("REPRO_ENGINE", "interp")
    mod.tuned_block_size(compiled, 2)
    assert len(mod._BLOCK_COSTS) == 2
    assert {k for _, k in mod._BLOCK_COSTS} == {"flat", "interp"}
