"""The ``python -m repro.analyze`` command line.

Includes the env-knob satellite: linting under ``REPRO_ENGINE``, the
removed (now ignored) ``REPRO_KERNELS`` alias and the ``REPRO_SKEW=0`` kill
switch must behave identically — lint never executes a program, so it must
never touch the kernel layer those knobs configure (``KERNEL_STATS`` stays
frozen) and never mutate array storage.
"""

import json

import numpy as np
import pytest

from repro.analyze.cli import main
from repro.analyze.diagnostics import validate_report
from repro.runtime import KERNEL_STATS, default_engine


@pytest.fixture
def zpl_file(tmp_path):
    def write(source, name="t.zpl"):
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    return write


CLEAN = (
    "#! arrays: a[1..400, 1..400] = 0.5\n"
    "#! constants: n = 400\n"
    "[2..n, 1..n] scan  a := 0.9 * a'@north + 0.1;  end;\n"
)
BROKEN = (
    "#! arrays: a[1..16, 1..16], b[1..16, 1..16]\n"
    "#! constants: n = 16\n"
    "[2..n, 1..n] scan  a := b'@north;  end;\n"
)


def test_lint_clean_file_exits_zero(zpl_file, capsys):
    assert main(["lint", zpl_file(CLEAN)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s), 0 info(s)" in out


def test_lint_error_file_exits_one(zpl_file, capsys):
    assert main(["lint", zpl_file(BROKEN)]) == 1
    out = capsys.readouterr().out
    assert "error[E001]" in out
    assert "  --> " in out and "^" in out  # excerpt with carets


def test_lint_parse_error_is_e000(zpl_file, capsys):
    assert main(["lint", zpl_file("[1..4] scan a := ;; end;")]) == 1
    assert "error[E000]" in capsys.readouterr().out


def test_lint_nothing_is_usage_error(capsys):
    assert main(["lint"]) == 2


def test_lint_json_validates_schema(zpl_file, capsys):
    assert main(["lint", zpl_file(BROKEN), "--json"]) == 1
    reports = json.loads(capsys.readouterr().out)
    assert isinstance(reports, list) and len(reports) == 1
    for report in reports:
        validate_report(report)
    assert reports[0]["counts"]["error"] >= 1
    assert reports[0]["diagnostics"][0]["span"] is not None


def test_lint_pass_filter(zpl_file, capsys):
    # Restricting to 'unused' silences the small-problem W107.
    source = (
        "#! arrays: a[1..16, 1..16], dead[1..16, 1..16]\n"
        "#! constants: n = 16\n"
        "[2..n, 1..n] scan  a := a'@north;  end;\n"
    )
    assert main(["lint", zpl_file(source), "--pass", "unused", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    codes = [d["code"] for d in reports[0]["diagnostics"]]
    assert codes == ["W101"]


def test_lint_suite_all_entries_clean(capsys):
    assert main(["lint", "--suite", "--n", "96"]) == 0
    out = capsys.readouterr().out
    for name in ("single-stream", "tomcatv-fragment", "dp", "gauss-seidel"):
        assert f"suite:{name}: 0 error(s)" in out


def test_explain_adds_info_diagnostics(zpl_file, capsys):
    assert main(["explain", zpl_file(CLEAN), "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    codes = [d["code"] for d in reports[0]["diagnostics"]]
    assert "I302" in codes


def test_repro_examples_lint_clean():
    from pathlib import Path

    examples = Path(__file__).resolve().parents[2] / "examples"
    files = sorted(str(p) for p in examples.glob("*.zpl"))
    assert files, "repo examples/*.zpl missing"
    assert main(["lint", *files]) == 0


def test_lint_untouched_by_kernel_env_knobs(zpl_file, capsys, monkeypatch):
    """REPRO_ENGINE, the removed REPRO_KERNELS and REPRO_SKEW=0 don't change lint.

    Lint never executes: the kernel layer the knobs configure must stay
    completely cold (no template/plan builds, no fallbacks), and the output
    must be byte-identical with and without the knobs.
    """
    path = zpl_file(BROKEN)
    assert main(["lint", path, "--json"]) == 1
    baseline = capsys.readouterr().out

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_SKEW", raising=False)
    monkeypatch.setenv("REPRO_KERNELS", "interp")  # removed alias: ignored
    assert default_engine() == "kernel"
    monkeypatch.setenv("REPRO_ENGINE", "interp")
    monkeypatch.setenv("REPRO_SKEW", "0")  # skew kill switch
    KERNEL_STATS.reset()
    before = KERNEL_STATS.snapshot()
    assert main(["lint", path, "--json"]) == 1
    assert capsys.readouterr().out == baseline
    assert KERNEL_STATS.snapshot() == before  # no kernel activity at all


def test_lint_suite_builds_no_kernel_plans(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SKEW", "0")
    KERNEL_STATS.reset()
    assert main(["lint", "--suite", "--n", "48"]) == 0
    capsys.readouterr()
    stats = KERNEL_STATS.snapshot()
    assert all(v == 0 for v in stats.values()), stats


def test_lint_does_not_mutate_pragma_arrays(zpl_file, capsys):
    # The dead-mask pass reads storage; nothing may write it.
    source = (
        "#! arrays: a[1..16, 1..16] = 0.5, m[1..16, 1..16]\n"
        "#! constants: n = 16\n"
        "[2..n, 1..n with m] scan  a := a'@north;  end;\n"
    )
    from repro.analyze.cli import _lint_file

    diagnostics, _ = _lint_file(zpl_file(source))
    assert "W105" in [d.code for d in diagnostics]
    # Re-lint: identical diagnostics (storage unchanged between runs).
    again, _ = _lint_file(zpl_file(source))
    assert [d.code for d in again] == [d.code for d in diagnostics]


def test_pragma_fill_values(zpl_file):
    from repro.analyze.cli import _parse_pragmas

    arrays, constants = _parse_pragmas(
        "#! arrays: a[1..8, 1..8] = 1.5, b[2..9, 1..4]\n#! constants: n = 8\n"
    )
    assert constants == {"n": 8}
    assert set(arrays) == {"a", "b"}
    assert np.all(arrays["a"].to_numpy() == 1.5)
    assert np.all(arrays["b"].to_numpy() == 0.0)
    assert arrays["b"].region.ranges == ((2, 9), (1, 4))
