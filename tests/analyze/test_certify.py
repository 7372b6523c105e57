"""The static schedule certifier (``repro.analyze.certify``).

Covers the three proof obligations on clean planner output — sync coverage
(E101), deadlock freedom (E102), staging safety (E103) — across all four
pseudo-schedules, the ``python -m repro.analyze certify`` command line
(exit codes, ``--mutate``, ``--out`` report files, W110 on planner-refused
configurations), and the ``REPRO_CERTIFY=1`` pre-flight hook on the real
executor.  The mutation soundness harness has its own module
(``test_mutations.py``).
"""

import json

import numpy as np
import pytest

from repro import zpl
from repro.analyze.certify import (
    MUTATIONS,
    PSEUDO_SCHEDULES,
    MutationUnsupported,
    apply_mutation,
    build_schedule_model,
    certify,
    certify_execution,
    certify_model,
    schedule_kwargs,
)
from repro.analyze.cli import main
from repro.analyze.diagnostics import validate_report
from repro.compiler import compile_scan
from repro.errors import CertifyError, MachineError
from repro.parallel import execute
from repro.zpl import NORTH, Region


def _single_stream(n=32):
    a = zpl.ZArray(Region.square(1, n), name="a")
    rng = np.random.default_rng(5)
    a.load(rng.uniform(0.2, 1.0, size=(n, n)))
    with zpl.covering(Region.of((2, n), (1, n))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.9 * (a.p @ NORTH) + 0.1
    return compile_scan(block), (a,)


SOURCE = (
    "#! arrays: a[1..32, 1..32] = 0.5\n"
    "#! constants: n = 32\n"
    "[2..n, 1..n] scan  a := 0.9 * a'@north + 0.1;  end;\n"
)


@pytest.fixture
def zpl_file(tmp_path):
    path = tmp_path / "t.zpl"
    path.write_text(SOURCE)
    return str(path)


# ---------------------------------------------------------------------------
# Model construction and clean certification.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("pseudo", PSEUDO_SCHEDULES)
def test_clean_plan_certifies_at_every_schedule(pseudo):
    compiled, _ = _single_stream()
    model = build_schedule_model(
        compiled, grid=4, block=4, **schedule_kwargs(pseudo)
    )
    assert certify_model(model) == []


def test_pipelined_model_shape():
    compiled, _ = _single_stream()
    model = build_schedule_model(
        compiled, grid=4, block=8, schedule="pipelined", multicast=False
    )
    assert model.fabric == "pipes"
    assert model.grid_dims == (4,)
    assert model.n_tasks == len(model.tiles) == 16  # 4 ranks x 4 blocks
    assert model.dep_edges, "projected dependence edges must exist"
    assert model.token_edges, "the pipe protocol must have sync edges"
    assert not model.producers and not model.graph_edges


def test_multicast_model_carries_staging():
    compiled, _ = _single_stream()
    model = build_schedule_model(
        compiled, grid=4, block=8, schedule="pipelined", multicast=True
    )
    assert model.fabric == "multicast"
    assert any(model.producers), "epoch waits must replace pipe tokens"
    assert model.staging and model.n_slots >= model.credit_lag
    assert model.slot_areas and model.slot_elems > 0


def test_taskgraph_model_pending_matches_indegree():
    compiled, _ = _single_stream()
    model = build_schedule_model(
        compiled, grid=2, block=8, schedule="taskgraph", oversub=2
    )
    assert model.fabric == "graph"
    indeg = {}
    for src, dst in model.graph_edges:
        indeg[dst] = indeg.get(dst, 0) + 1
    for t in range(model.n_tasks):
        assert model.pending[t] == indeg.get(t, 0)


def test_certify_wrapper_and_execution_hook_clean():
    compiled, _ = _single_stream()
    assert certify(compiled, grid=4, schedule="pipelined") == []
    assert (
        certify_execution(compiled, grid=4, schedule="pipelined") == []
    )


def test_certify_execution_swallows_planner_refusals():
    # taskgraph on a rank-2 grid is a MachineError at run time; the
    # pre-flight hook must not preempt the executor's own message.
    compiled, _ = _single_stream()
    assert (
        certify_execution(compiled, grid=(2, 2), schedule="taskgraph")
        is None
    )


def test_schedule_kwargs_rejects_unknown():
    with pytest.raises(MachineError, match="unknown schedule"):
        schedule_kwargs("wavefront")


def test_certify_error_carries_diagnostics():
    compiled, _ = _single_stream()
    model = build_schedule_model(
        compiled, grid=4, block=4, schedule="pipelined", multicast=False
    )
    _, mutant = apply_mutation(model, "drop-token")
    diagnostics = certify_model(mutant)
    assert diagnostics
    err = CertifyError("certification failed", diagnostics)
    assert err.diagnostic is diagnostics[0]


# ---------------------------------------------------------------------------
# REPRO_CERTIFY=1: the pre-flight hook on the real backends.
# ---------------------------------------------------------------------------
def test_repro_certify_env_runs_clean(monkeypatch):
    monkeypatch.setenv("REPRO_CERTIFY", "1")
    compiled, arrays = _single_stream()
    run = execute(compiled, grid=2, schedule="pipelined", block=8)
    assert run.n_procs == 2


def test_repro_certify_env_taskgraph_clean(monkeypatch):
    monkeypatch.setenv("REPRO_CERTIFY", "1")
    compiled, arrays = _single_stream()
    run = execute(compiled, grid=2, schedule="taskgraph", block=8)
    assert run.schedule == "taskgraph"


# ---------------------------------------------------------------------------
# Certified is what runs: the model is a projection of the dispatched plan.
# ---------------------------------------------------------------------------
RUN_SHAPES = {
    "pipes": dict(schedule="pipelined", multicast=False),
    "multicast+double-buffer": dict(
        schedule="pipelined", multicast=True, double_buffer=True
    ),
    "multicast-double-buffer": dict(
        schedule="pipelined", multicast=True, double_buffer=False
    ),
    "taskgraph": dict(schedule="taskgraph", oversub=2),
}


@pytest.mark.parametrize("shape", RUN_SHAPES)
def test_model_is_a_projection_of_the_run_plan(shape):
    from repro.analyze.certify import project
    from repro.parallel.plan import RunResources, resolve_run

    compiled, _ = _single_stream()
    kwargs = dict(grid=4, block=8, **RUN_SHAPES[shape])
    run_plan = resolve_run(compiled, static=True, **kwargs)
    model = project(run_plan)
    assert model == build_schedule_model(compiled, **kwargs)
    assert certify_model(model) == []
    # The tiles the proofs range over are the regions the jobs carry.
    resources = RunResources(run_plan)
    try:
        jobs = {r: resources.job(r, None, 1.0, False) for r in run_plan.grid}
    finally:
        resources.release()
    if run_plan.graph is not None:
        spec = jobs[0].taskgraph
        assert all(job.taskgraph is spec for job in jobs.values())
        assert model.tiles == spec.tiles == run_plan.graph.tiles
        assert model.owners == spec.homes
        assert all(not job.chunks for job in jobs.values())
    else:
        placed = [
            (chunk, rank, k)
            for rank in run_plan.grid
            for k, chunk in enumerate(jobs[rank].chunks)
        ]
        assert model.tiles == tuple(chunk for chunk, _, _ in placed)
        assert model.owners == tuple(rank for _, rank, _ in placed)
        assert model.local_index == tuple(k for _, _, k in placed)
    assert model.staging == (shape == "multicast+double-buffer")


def test_preflight_certifies_the_dispatched_plan(monkeypatch):
    # REPRO_CERTIFY=1 hands the hook the RunPlan itself — the object the
    # executor goes on to dispatch — not keyword arguments to re-plan from.
    from repro.analyze import certify as certify_module
    from repro.parallel.plan import RunPlan, resolve_run

    seen = []
    monkeypatch.setenv("REPRO_CERTIFY", "1")
    monkeypatch.setattr(
        certify_module, "certify_execution",
        lambda target, **kwargs: seen.append((target, kwargs)),
    )
    compiled, _ = _single_stream()
    run_plan = resolve_run(compiled, 2, schedule="pipelined", block=8)
    assert seen == [(run_plan, {})] and isinstance(run_plan, RunPlan)
    resolve_run(compiled, 2, schedule="pipelined", block=8, static=True)
    assert len(seen) == 1  # the analyzer's own planning takes no pre-flight


# ---------------------------------------------------------------------------
# The command line.
# ---------------------------------------------------------------------------
def test_cli_certify_clean_exits_zero(zpl_file, capsys):
    assert main(["certify", zpl_file]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_certify_single_schedule(zpl_file, capsys):
    assert main(["certify", zpl_file, "--schedule", "multicast"]) == 0
    out = capsys.readouterr().out
    assert "multicast" in out


def test_cli_certify_mutate_exits_one(zpl_file, capsys):
    code = main(
        ["certify", zpl_file, "--schedule", "pipelined",
         "--mutate", "drop-token"]
    )
    assert code == 1
    assert "E101" in capsys.readouterr().out


def test_cli_certify_unknown_mutation_is_usage_error(zpl_file, capsys):
    assert main(["certify", zpl_file, "--mutate", "no-such"]) == 2


def test_cli_certify_mismatched_mutation_is_w110(zpl_file, capsys):
    # A pipes mutation cannot corrupt the taskgraph protocol: the CLI
    # reports "checker unavailable" instead of a false clean bill.
    code = main(
        ["certify", zpl_file, "--schedule", "taskgraph",
         "--mutate", "drop-token"]
    )
    assert code == 0
    assert "W110" in capsys.readouterr().out


def test_cli_certify_refused_config_is_w110(zpl_file, capsys):
    # taskgraph refuses rank-2 grids; the certifier reports that refusal
    # as W110 rather than certifying a schedule that cannot run.
    code = main(
        ["certify", zpl_file, "--grid", "2x2", "--schedule", "taskgraph"]
    )
    assert code == 0
    assert "W110" in capsys.readouterr().out


def test_cli_certify_out_report_validates(zpl_file, tmp_path, capsys):
    out_path = tmp_path / "CERTIFY_report.json"
    assert main(["certify", zpl_file, "--out", str(out_path)]) == 0
    reports = json.loads(out_path.read_text())
    assert len(reports) == len(PSEUDO_SCHEDULES)
    for report in reports:
        validate_report(report)
        assert report["counts"]["error"] == 0


def test_cli_certify_json_mode(zpl_file, capsys):
    assert main(["certify", zpl_file, "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == len(PSEUDO_SCHEDULES)
    for report in reports:
        validate_report(report)
