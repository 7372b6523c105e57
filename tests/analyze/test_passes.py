"""Every diagnostic code fires, with span and fix-it hint where promised.

The legality codes double-check the exception parity satellite: for each of
the Section 2.2 conditions (i)-(v), ``check_scan_block`` raises exactly the
documented exception class with the same ``Diagnostic`` attached.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import zpl
from repro.analyze.cli import main
from repro.analyze.passes import (
    explain_program,
    explain_skew,
    lint_block,
    lint_program,
    pipeline_hazard,
    redundant_primes,
)
from repro.compiler.legality import check_scan_block, legality_diagnostics
from repro.compiler.loopstruct import derive_loop_structure
from repro.errors import (
    OverconstrainedScanError,
    ParallelPrimeError,
    RankMismatchError,
    RegionMismatchError,
    UndefinedPrimeError,
)
from repro.runtime import native
from repro.zpl import NORTH, Region, ZArray
from repro.zpl.parser import parse_program


def env(n=16, names=("a", "b", "c"), fill=0.5):
    region = Region.square(1, n)
    return {
        name: ZArray(region, name=name, fill=fill) for name in names
    }


def lint(source, arrays=None, n=16, **constants):
    program = parse_program(
        source, arrays if arrays is not None else env(n),
        constants={"n": n, **constants}, filename="t.zpl",
    )
    return program, lint_program(program)


def codes(diagnostics):
    return [d.code for d in diagnostics]


def only(diagnostics, code):
    found = [d for d in diagnostics if d.code == code]
    assert found, f"no {code} in {codes(diagnostics)}"
    return found[0]


# --------------------------------------------------------------------------
# Legality: the five conditions, with span + hint + matching exception.
# --------------------------------------------------------------------------
def test_e001_condition_i_undefined_prime():
    program, out = lint("[2..n, 1..n] scan  a := b'@north;  end;")
    d = only(out, "E001")
    assert d.span is not None and d.hint
    assert "never defines" in d.message
    block = program.scan_blocks()[0]
    with pytest.raises(UndefinedPrimeError) as exc:
        check_scan_block(block)
    assert exc.value.diagnostic.code == "E001"


def test_e002_condition_ii_overconstrained():
    program, out = lint(
        "[2..n-1, 1..n] scan  a := a'@north + a'@south;  end;"
    )
    d = only(out, "E002")
    assert d.span is not None and d.hint
    assert any(b.kind == "udv" for b in d.because)
    # The loop-structure search raises the same code on its exception.
    block = program.scan_blocks()[0]
    from repro.compiler.udv import (
        constraint_vectors,
        extract_dependences,
        true_vectors,
    )
    from repro.compiler.wsv import classify

    deps = extract_dependences(block.statements)
    with pytest.raises(OverconstrainedScanError) as exc:
        derive_loop_structure(
            constraint_vectors(deps),
            classify(true_vectors(deps), 2),
            2,
        )
    assert exc.value.diagnostic.code == "E002"


def test_e003_condition_iii_rank_mismatch():
    arrays = env()
    arrays["v"] = ZArray(Region.of((1, 16)), name="v", fill=0.5)
    program, out = lint(
        "[2..n, 1..n] scan  a := a'@north;  [2..n] v := v@(-1);  end;",
        arrays=arrays,
    )
    d = only(out, "E003")
    assert d.span is not None and d.hint
    with pytest.raises(RankMismatchError) as exc:
        check_scan_block(program.scan_blocks()[0])
    assert exc.value.diagnostic.code == "E003"


def test_e004_condition_iv_region_mismatch():
    program, out = lint(
        "[2..n, 1..n] scan  a := a'@north;  [3..n, 1..n] b := a;  end;"
    )
    d = only(out, "E004")
    assert d.span is not None and d.hint
    with pytest.raises(RegionMismatchError) as exc:
        check_scan_block(program.scan_blocks()[0])
    assert exc.value.diagnostic.code == "E004"


def test_e005_condition_v_parallel_primed_operand():
    # Reductions have no textual syntax; record the block through the DSL.
    a = ZArray(Region.square(1, 12), name="a", fill=0.5)
    with zpl.covering(Region.of((2, 12), (1, 12))):
        with zpl.scan(execute=False) as block:
            a[...] = zpl.zsum(a.p @ NORTH)
    out = lint_block(block)
    d = only(out, "E005")
    assert d.hint
    assert "parallel operator" in d.message
    with pytest.raises(ParallelPrimeError) as exc:
        check_scan_block(block)
    assert exc.value.diagnostic.code == "E005"


def test_e006_unshifted_prime():
    _, out = lint("[2..n, 1..n] scan  a := a';  end;")
    d = only(out, "E006")
    assert d.span is not None and d.hint
    assert "without a shift" in d.message


def test_e007_written_mask():
    _, out = lint(
        "[2..n, 1..n with c] scan  c := a'@north;  a := a'@north;  end;",
        arrays=env(fill=1.0),
    )
    d = only(out, "E007")
    assert d.span is not None and d.hint


def test_e008_hoisted_op_reads_block_output():
    a = ZArray(Region.square(1, 12), name="a", fill=0.5)
    b = ZArray(Region.square(1, 12), name="b", fill=0.5)
    with zpl.covering(Region.of((2, 12), (1, 12))):
        with zpl.scan(execute=False) as block:
            a[...] = a.p @ NORTH
            b[...] = zpl.zsum(a)
    out = lint_block(block)
    d = only(out, "E008")
    assert d.hint
    assert "cannot be hoisted" in d.message


def test_e009_empty_block():
    _, out = lint("[2..n, 1..n] scan  end;")
    d = only(out, "E009")
    assert d.hint


# --------------------------------------------------------------------------
# Lints.
# --------------------------------------------------------------------------
def test_w101_unused_array():
    _, out = lint("[2..n, 1..n] scan  a := a'@north;  end;")
    unused = sorted(d.data["array"] for d in out if d.code == "W101")
    assert unused == ["b", "c"]


def test_w102_w103_unused_region_and_direction():
    _, out = lint(
        "direction diag = (-1, -1);\n"
        "region DEAD = [1..n, 1..n];\n"
        "[2..n, 1..n] scan  a := a'@north;  end;"
    )
    assert only(out, "W102").data["region"] == "DEAD"
    assert only(out, "W102").span is not None
    assert only(out, "W103").data["direction"] == "diag"


def test_w102_not_flagged_when_used():
    _, out = lint(
        "region R = [2..n, 1..n];\n[R] scan  a := a'@north;  end;"
    )
    assert "W102" not in codes(out)


def test_w104_redundant_prime():
    _, out = lint(
        "[2..n, 1..n] scan  a := a'@north;  b := a'@north;  end;"
    )
    d = only(out, "W104")
    assert d.span is not None and d.hint == "drop the prime"
    assert d.data["statement"] == 1
    # The load-bearing prime on statement 0 is not flagged.
    assert len([x for x in out if x.code == "W104"]) == 1


def test_w104_not_flagged_for_same_or_later_writer():
    # Self-prime (writer at the same statement) is load-bearing.
    _, out = lint("[2..n, 1..n] scan  a := a'@north;  end;")
    assert "W104" not in codes(out)
    # A read of b' whose writer comes later is load-bearing too; only the
    # statement-1 read of a' (all writes of a are earlier) is redundant.
    _, out = lint(
        "[2..n, 1..n] scan  a := b'@north;  b := a'@north;  end;"
    )
    flagged = [d for d in out if d.code == "W104"]
    assert [(d.data["array"], d.data["statement"]) for d in flagged] == [
        ("a", 1)
    ]


def test_w105_dead_mask():
    arrays = env(fill=0.5)
    arrays["c"].load(np.zeros((16, 16)))
    _, out = lint(
        "[2..n, 1..n with c] scan  a := a'@north;  end;", arrays=arrays
    )
    d = only(out, "W105")
    assert d.span is not None and "never assigns" in d.message


def test_w105_not_flagged_when_mask_nonzero_or_assigned():
    _, out = lint(
        "[2..n, 1..n with c] scan  a := a'@north;  end;",
        arrays=env(fill=1.0),
    )
    assert "W105" not in codes(out)
    arrays = env(fill=0.0)
    _, out = lint(
        "[1..n, 1..n] c := 1.0;\n"
        "[2..n, 1..n with c] scan  a := a'@north;  end;",
        arrays=arrays,
    )
    assert "W105" not in codes(out)


def test_w106_dead_store():
    _, out = lint("[1..n, 1..n] a := 1.0;\n[1..n, 1..n] a := 2.0;")
    d = only(out, "W106")
    assert d.span is not None and d.hint == "delete this statement"
    assert d.labels and d.labels[0].message == "overwritten here"


def test_w106_not_flagged_when_read_between():
    _, out = lint(
        "[1..n, 1..n] a := 1.0;\n"
        "[1..n, 1..n] b := a;\n"
        "[1..n, 1..n] a := 2.0;"
    )
    assert "W106" not in codes(out)


def test_w107_pipeline_hazard_small_problem():
    program, out = lint("[2..n, 1..n] scan  a := a'@north;  end;")
    d = only(out, "W107")
    assert d.span is not None and d.data["speedup"] < 1.1
    assert any(b.kind == "model" for b in d.because)


def test_w107_quiet_on_large_problem():
    n = 512
    arrays = {"a": ZArray(Region.square(1, n), name="a", fill=0.5)}
    _, out = lint(
        "[2..n, 1..n] scan  a := a'@north;  end;", arrays=arrays, n=n
    )
    assert "W107" not in codes(out)


def _masked_lint(mask_values, n=16):
    arrays = env(n)
    arrays["c"].load(mask_values)
    return lint(
        "[2..n, 1..n with c] scan  a := a'@north;  end;", arrays=arrays, n=n
    )


def test_w108_dead_fraction_recommends_taskgraph():
    # Banded mask: the corner tiles are entirely outside the band, so the
    # taskgraph pruner would skip them — the dead-fraction branch.
    n = 16
    band = np.fromfunction(
        lambda i, j: (np.abs(i - j) <= 2).astype(float), (n, n)
    )
    _, out = _masked_lint(band)
    d = only(out, "W108")
    assert d.data["branch"] == "dead-fraction"
    assert d.data["dead_fraction"] >= 0.25
    assert "taskgraph" in d.hint


def test_w108_cost_variance_recommends_taskgraph():
    # Every analysis tile has live work (no pruning win), but the density
    # gradient leaves the static pipelined shares unbalanced.
    n = 16
    grad = np.zeros((n, n))
    grad[::2, ::2] = 1.0
    grad[:8, :8] = 1.0
    _, out = _masked_lint(grad)
    d = only(out, "W108")
    assert d.data["branch"] == "cost-variance"
    assert d.data["dead_fraction"] < 0.25
    assert d.data["cost_cv"] >= 0.5


def test_w108_quiet_on_uniform_mask_and_unmasked_block():
    n = 16
    _, out = _masked_lint(np.ones((n, n)))
    assert "W108" not in codes(out)
    _, out = lint("[2..n, 1..n] scan  a := a'@north;  end;")
    assert "W108" not in codes(out)


def test_w109_forced_multicast_on_fanout_one(monkeypatch):
    # A single-stream block projects a straight chain (fan-out 1): forcing
    # the epoch fabric over it is pure overhead, and the advisor says so.
    monkeypatch.setenv("REPRO_MULTICAST", "1")
    _, out = lint("[2..n, 1..n] scan  a := a'@north;  end;")
    d = only(out, "W109")
    assert d.data["max_fanout"] < 2
    assert "REPRO_MULTICAST" in d.hint or "REPRO_MULTICAST" in d.message
    assert any(b.kind == "model" for b in d.because)


def test_w109_quiet_without_the_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_MULTICAST", raising=False)
    _, out = lint("[2..n, 1..n] scan  a := a'@north;  end;")
    assert "W109" not in codes(out)
    monkeypatch.setenv("REPRO_MULTICAST", "auto")
    _, out = lint("[2..n, 1..n] scan  a := a'@north;  end;")
    assert "W109" not in codes(out)


def test_boundary_rows_default_counts_primed_arrays():
    program, _ = lint(
        "[2..n, 1..n] scan  a := a'@north;  b := b'@north + a'@north; end;"
    )
    d = pipeline_hazard(program.scan_blocks()[0].statements)[0]
    assert d.data["boundary_rows"] == 2


# --------------------------------------------------------------------------
# Explanations.
# --------------------------------------------------------------------------
def test_i301_fusion_blocked_by_region_mismatch():
    program = parse_program(
        "[1..n, 1..n] a := b;\n[2..n, 1..n] b := 1.0;",
        env(), constants={"n": 16}, filename="t.zpl",
    )
    d = only(explain_program(program), "I301")
    assert "regions differ" in d.message and d.span is not None


def test_i302_single_stream_is_flat():
    program, _ = lint("[2..n, 1..n] scan  a := a'@north;  end;")
    d = only(explain_program(program), "I302")
    assert "only 1 looped dimension" in d.message


def test_i302_dp_recurrence_skew_eligible():
    source = (
        "[2..n, 2..n] scan\n"
        "  a := max(a'@(-1,-1) + b, max(a'@(-1,0), a'@(0,-1)) - 0.5);\n"
        "end;"
    )
    program, _ = lint(source)
    d = only(explain_program(program), "I302")
    assert "skew eligible" in d.message
    assert "29 sheared diagonals" in d.message and "plane by plane" in d.message
    assert d.data["tau"] == [1, 1] and d.data["axis_aligned"] is False
    assert d.data["lowering"] == "shear" and d.data["native_order"] == "planes"
    assert d.data["planes"] == 15 + 15 - 1  # anti-diagonals of the 15x15 region
    assert not d.because


def test_i302_names_the_dependence_that_ties_inside_a_plane():
    """An old-value read across the anti-diagonal: numpy's whole-plane sweep
    is legal, a point-by-point one is not, so the native nest keeps loop order."""
    source = (
        "[2..n, 2..n] scan\n"
        "  a := 0.4 * a'@(-1,0) + 0.4 * a'@(0,-1) + 0.1 * a@(1,-1);\n"
        "end;"
    )
    program, _ = lint(source)
    d = only(explain_program(program), "I302")
    assert d.data["lowering"] == "shear" and d.data["native_order"] == "loop"
    assert "keeps loop order" in d.message
    (tie,) = d.because
    assert tie.detail.startswith("anti dependence") and "ties inside a plane" in tie.detail


def _three_carriers():
    region = Region.of((1, 8), (1, 8), (1, 8))
    return parse_program(
        "[2..n, 2..n, 2..n] scan\n"
        "  a := 0.3 * (a'@(-1,0,0) + a'@(0,-1,0) + a'@(0,0,-1));\n"
        "end;",
        {"a": ZArray(region, name="a", fill=0.5)},
        constants={"n": 8}, filename="t.zpl",
    )


def test_i302_three_carriers_have_no_numpy_sweep():
    """τ = (1, 1, 1): the native nest with a compiler, the flat loop without."""
    d = only(explain_program(_three_carriers()), "I302")
    assert "not lines" in d.message and "skew ineligible" in d.message
    assert d.data["tau"] == [1, 1, 1] and d.data["lowering"] == "flat"
    assert d.data["planes"] == 19 and d.data["native_order"] == "loop"
    assert d.data["native"] is (native.HOST.probe() is None)


def test_i302_and_w111_without_a_compiler(no_compiler):
    out = explain_program(_three_carriers())
    assert only(out, "I302").data["native"] is False
    w = only(out, "W111")
    assert "no C compiler" in w.message and w.data["reason"].startswith("no C")


def test_w111_names_the_unsupported_construct():
    program, _ = lint("[2..n, 1..n] scan  a := exp(a'@north) * 0.1;  end;")
    out = explain_program(program)
    assert only(out, "I302").data["native"] is False
    assert "operator 'exp'" in only(out, "W111").message


def test_no_w111_for_a_supported_block_or_one_with_no_looped_dimension():
    if native.HOST.probe() is not None:
        pytest.skip("this host has no toolchain: W111 is the right answer")
    program, _ = lint("[2..n, 1..n] scan  a := a'@north * 0.5;  end;")
    out = explain_program(program)
    assert "W111" not in codes(out) and only(out, "I302").data["native"] is True


@pytest.mark.parametrize(
    "example, lowering",
    [("gauss_seidel", "shear"), ("single_carrier", "rows")],
)
def test_i302_lowering_of_the_repo_examples(example, lowering, capsys):
    path = Path(__file__).resolve().parents[2] / "examples" / f"{example}.zpl"
    assert main(["explain", str(path), "--json"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    (d,) = [d for d in report["diagnostics"] if d["code"] == "I302"]
    assert d["data"]["lowering"] == lowering
    assert d["data"]["native_order"] == "planes"


@pytest.mark.parametrize(
    "region, expr, tau, planes",
    [
        # (0,1),(1,1): dimension 1 carries both — 14 columns, whole rows each.
        ("[2..n, 3..n]", "a'@west + a'@northwest", [0, 1], 14),
        # (1,0),(1,1): dimension 0 carries both.
        ("[3..n, 2..n]", "a'@north + a'@northwest", [1, 0], 14),
    ],
)
def test_i302_single_carrier_is_axis_aligned(region, expr, tau, planes):
    program, _ = lint(f"{region} scan  a := 0.5 * ({expr});  end;")
    d = only(explain_program(program), "I302")
    carrier = tau.index(1)
    assert f"dimension {carrier} carries every dependence" in d.message
    assert "hyperplane gathers" in d.message and "anti-diagonal" not in d.message
    assert d.data["looped_dims"] == [0, 1]
    assert d.data["tau"] == tau and d.data["axis_aligned"] is True
    assert d.data["lowering"] == "rows" and d.data["native_order"] == "planes"
    assert d.data["planes"] == planes


def test_lint_never_mutates_arrays():
    arrays = env(fill=0.5)
    before = {name: arr.to_numpy().copy() for name, arr in arrays.items()}
    program = parse_program(
        "[1..n, 1..n] a := 1.0;\n"
        "[2..n, 1..n with c] scan  b := b'@north + a;  end;",
        arrays, constants={"n": 16},
    )
    lint_program(program)
    explain_program(program)
    for name, arr in arrays.items():
        np.testing.assert_array_equal(arr.to_numpy(), before[name])


def test_errors_suppress_block_lints():
    # A block that fails legality reports the error, not noise lints.
    _, out = lint("[2..n, 1..n] scan  a := b'@north;  end;")
    assert "E001" in codes(out)
    assert "W104" not in codes(out) and "W107" not in codes(out)
