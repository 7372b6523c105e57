"""The collective autotuner: α_c + β·s + γ·f measured and fed to Eq. (1)."""

import importlib

import pytest

from repro.compiler import compile_scan
from repro.compiler.schedule import plan_wavefront
from repro.errors import MachineError
from repro.machine import MachineParams
from repro.models.pipeline_model import amortized_alpha, collective_model2, model2
from repro.parallel.autotune import (
    CollectiveParams,
    collective_effective_params,
    measure_multicast,
    tuned_block_size,
)
from tests.conftest import record_tomcatv_block

SYNTH = CollectiveParams(
    alpha_seconds=10e-6,
    beta_seconds=1e-9,
    gamma_seconds=2e-6,
    samples=((1, 1, 13e-6), (512, 1, 13.5e-6)),
)


def test_release_seconds_is_the_fitted_line():
    got = SYNTH.release_seconds(100, 4)
    assert got == pytest.approx(10e-6 + 100 * 1e-9 + 4 * 2e-6)


def test_per_edge_amortizes_over_fanout():
    release = SYNTH.release_seconds(64, 4)
    assert SYNTH.per_edge_seconds(64, 4) == pytest.approx(release / 4)
    # Fan-out 4 shares one stamp four ways: cheaper per edge than a
    # point-to-point release of the same boundary.
    assert SYNTH.per_edge_seconds(64, 4) < SYNTH.release_seconds(64, 1)
    # Fan-out 0/1 degenerate to the plain release cost.
    assert SYNTH.per_edge_seconds(64, 0) == SYNTH.release_seconds(64, 0)


def test_amortized_alpha_math():
    assert amortized_alpha(10e-6, 2e-6, 4) == pytest.approx(4.5e-6)
    # f = 1 degenerates to the point-to-point α_c + γ.
    assert amortized_alpha(10e-6, 2e-6, 1) == pytest.approx(12e-6)
    assert amortized_alpha(10e-6, 2e-6, 4) < amortized_alpha(10e-6, 2e-6, 1)


def test_collective_model2_predicts_cheaper_pipeline():
    params = MachineParams(name="synthetic", alpha=10.0, beta=0.01)
    plain = model2(params, n=256, p=4, boundary_rows=1)
    coll = collective_model2(params, n=256, p=4, boundary_rows=1, fanout=4, gamma=1.0)
    # (α_c + γf)/f = 3.5 < 10: every candidate block is predicted faster.
    assert coll.alpha == pytest.approx(3.5)
    for b in (4, 16, 64):
        assert coll.predicted_time(b) < plain.predicted_time(b)
    # Same compute term — only the α changed.
    assert coll.compute_time(16) == plain.compute_time(16)


def test_collective_effective_params_units():
    got = collective_effective_params(
        SYNTH, compute_seconds=1e-6, dispatch_seconds=4e-6, n_procs=4, fanout=2
    )
    per_edge = (10e-6 + 2 * 2e-6) / 2
    assert got.alpha == pytest.approx((per_edge + 1e-6) / 1e-6)
    assert got.beta == pytest.approx(1e-9 / 1e-6)


def test_collective_effective_params_rejects_bad_compute():
    with pytest.raises(MachineError, match="compute cost"):
        collective_effective_params(SYNTH, 0.0, 1e-6, 4)


def test_measure_multicast_fits_sane_constants():
    coll = measure_multicast(sizes=(1, 64), fanouts=(1, 2), cycles=30)
    assert coll.alpha_seconds > 0
    assert coll.beta_seconds >= 0
    assert coll.gamma_seconds >= 0
    assert len(coll.samples) == 4  # len(sizes) * len(fanouts)
    # The fitted intercept should be of the same order as the measurements
    # (individual samples are noisy on a loaded host, so bound against the
    # costliest one rather than the cheapest).
    costliest = max(t for _, _, t in coll.samples)
    assert coll.release_seconds(1, 1) <= 10 * costliest


def test_measure_multicast_needs_two_sizes():
    with pytest.raises(MachineError, match="at least two sizes"):
        measure_multicast(sizes=(64,), fanouts=(1,))


def test_tuned_block_size_multicast_uses_collective_params(monkeypatch):
    # A synthetic collective machine avoids the multi-process probe; the
    # point is the plumbing: fabric="multicast" must tune through
    # collective_effective_params and still return a sane block.
    autotune_mod = importlib.import_module("repro.parallel.autotune")
    monkeypatch.setattr(autotune_mod, "_HOST_COLL", SYNTH)
    block, _ = record_tomcatv_block(20)
    compiled = compile_scan(block)
    plan = plan_wavefront(compiled)
    b = tuned_block_size(compiled, 2, plan, fabric="multicast", fanout=2)
    assert isinstance(b, int)
    assert 1 <= b <= plan.region.extent(plan.chunk_dim)
