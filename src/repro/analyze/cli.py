"""``python -m repro.analyze`` — lint, explain, and race-check wavefront code.

Three commands:

``lint``
    Run the static pass registry over textual ZPL files and/or the apps
    suite.  Never executes a program and never builds kernel plans.  Exit
    status 1 when any *error* diagnostic (``E...``) was produced, 0
    otherwise (warnings and infos do not fail the lint).

``explain``
    Everything ``lint`` reports, plus the ``I301``/``I302`` explanations:
    why fusion split a statement sequence, and whether hyperplane skewing
    found a legal time vector.

``race``
    Execute suite entries on the real multiprocess backend with the
    wavefront race sanitizer enabled (shadow stamps + vector clocks
    wrapped around the sync protocol).  Exit status 1 when a happens-before violation was detected.

``certify``
    Statically prove (:mod:`repro.analyze.certify`) that each schedule's
    sync protocol covers every projected dependence edge and is
    deadlock-free — no execution.  One report per input × schedule; exit
    status 1 when any ``E101``/``E102`` was produced.  Planner
    refusals (a schedule the executor would not run either) appear as
    ``W110`` warnings, not errors.  ``--mutate NAME`` corrupts the model
    first (the soundness smoke: the mutant must fail certification).

Textual ZPL inputs declare their array environment in ``#!`` pragma
comments (ordinary ``#`` comments to the tokenizer), e.g.::

    #! arrays: h[1..64, 1..64], m[1..64, 1..64] = 1
    #! constants: n = 64
    direction up = (-1, 0);
    [2..n, 1..n] scan  h := h'@up * 0.5;  end;

JSON output (``--json``) is an array of per-input report objects following
the ``repro-analyze/1`` schema (see docs/analysis.md);
:func:`repro.analyze.diagnostics.validate_report` is the normative checker.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from repro.analyze.diagnostics import (
    Diagnostic,
    Severity,
    make_report,
    render_all,
)
from repro.analyze.passes import (
    explain_program,
    explain_skew,
    lint_program,
    pipeline_hazard,
    redundant_primes,
    PASSES,
)

_ARRAY_RE = re.compile(
    r"([A-Za-z_]\w*)\s*\[([^\]]+)\]\s*(?:=\s*(-?\d+(?:\.\d+)?))?"
)
_CONST_RE = re.compile(r"([A-Za-z_]\w*)\s*=\s*(-?\d+)")


def _parse_pragmas(source: str):
    """Array/constant declarations from ``#!`` pragma lines."""
    from repro.zpl.arrays import ZArray
    from repro.zpl.regions import Region

    arrays = {}
    constants: dict[str, int] = {}
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped.startswith("#!"):
            continue
        body = stripped[2:].strip()
        if body.startswith("arrays:"):
            for match in _ARRAY_RE.finditer(body[len("arrays:"):]):
                name, ranges_text, fill = match.groups()
                ranges = []
                for part in ranges_text.split(","):
                    lo, hi = part.split("..")
                    ranges.append((int(lo), int(hi)))
                arrays[name] = ZArray(
                    Region(tuple(ranges)),
                    name=name,
                    fill=float(fill) if fill is not None else 0.0,
                )
        elif body.startswith("constants:"):
            for match in _CONST_RE.finditer(body[len("constants:"):]):
                constants[match.group(1)] = int(match.group(2))
    return arrays, constants


def _lint_file(path: str, only=None, explain: bool = False):
    """Lint one ``.zpl`` file: (diagnostics, source).  Parse errors → E000."""
    from repro.zpl.parser import ParseError, parse_program

    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    arrays, constants = _parse_pragmas(source)
    try:
        program = parse_program(source, arrays, constants, filename=path)
    except ParseError as exc:
        return [
            Diagnostic(
                "E000",
                str(exc),
                span=getattr(exc, "span", None),
                hint="fix the syntax/name error; linting needs a parse",
            )
        ], source
    diagnostics = lint_program(program, only=only)
    if explain:
        diagnostics.extend(explain_program(program))
    return diagnostics, source


def _suite_block(entry, n: int):
    """Wrap a suite entry's compiled statements back into a scan block."""
    from repro.zpl.scan import ScanBlock

    compiled = entry.build(n)
    block = ScanBlock(name=entry.name)
    for stmt in compiled.statements:
        block.append(stmt)
    return block, compiled


def _lint_suite_entry(entry, n: int, explain: bool = False):
    """Lint one suite entry (already-compiled: legality holds by build)."""
    from repro.analyze.passes import lint_block

    block, _ = _suite_block(entry, n)
    diagnostics = [
        d
        for d in lint_block(block, name=entry.name)
        if d.code != "W107"  # re-run the hazard with the entry's true m
    ]
    diagnostics.extend(
        pipeline_hazard(
            block.statements,
            block=entry.name,
            boundary_rows=entry.boundary_rows,
        )
    )
    if explain:
        diagnostics.extend(explain_skew(block.statements, block=entry.name))
    return diagnostics


def _emit(reports, as_json: bool, color: bool) -> int:
    """Print reports; return the exit status (1 iff any error diagnostic)."""
    failed = False
    if as_json:
        print(json.dumps(reports, indent=2))
        for report in reports:
            failed = failed or report["counts"]["error"] > 0
        return 1 if failed else 0
    for report in reports:
        diagnostics = report["_diagnostics"]
        source = report.get("_source")
        label = report["file"]
        if diagnostics:
            print(render_all(diagnostics, source=source, filename=label, color=color))
            print()
        counts = report["counts"]
        print(
            f"{label}: {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['info']} info(s)"
        )
        failed = failed or counts["error"] > 0
    return 1 if failed else 0


def _collect(args, explain: bool) -> list[dict]:
    """Build per-input reports for ``lint``/``explain``."""
    reports: list[dict] = []

    def add(label, diagnostics, source=None):
        report = make_report(diagnostics, label)
        report["_diagnostics"] = diagnostics
        report["_source"] = source
        reports.append(report)

    for path in args.paths:
        diagnostics, source = _lint_file(
            path, only=getattr(args, "passes", None) or None, explain=explain
        )
        add(path, diagnostics, source)
    if args.suite is not None:
        from repro.apps.suite import SUITE, get

        entries = SUITE if not args.suite else [get(name) for name in args.suite]
        for entry in entries:
            add(
                f"suite:{entry.name}",
                _lint_suite_entry(entry, args.n, explain=explain),
            )
    return reports


def _strip_private(reports: list[dict]) -> list[dict]:
    return [
        {k: v for k, v in report.items() if not k.startswith("_")}
        for report in reports
    ]


def cmd_lint(args, explain: bool = False) -> int:
    if not args.paths and args.suite is None:
        print("nothing to lint: give .zpl paths and/or --suite", file=sys.stderr)
        return 2
    reports = _collect(args, explain)
    if args.json:
        return _emit(_strip_private(reports), True, False)
    return _emit(reports, False, args.color)


def cmd_race(args) -> int:
    """Run suite entries under the race sanitizer on the real backend."""
    from repro.apps.suite import SUITE, get
    from repro.errors import ReproError, SanitizerError
    from repro.parallel.executor import execute

    entries = SUITE if args.suite in (None, []) else [get(s) for s in args.suite]
    grid = tuple(int(g) for g in args.grid.split("x"))
    schedules = (
        ("pipelined", "naive") if args.schedule == "both" else (args.schedule,)
    )
    runs = []
    failed = False
    for entry in entries:
        for schedule in schedules:
            compiled = entry.build(args.n)
            record = {
                "suite": entry.name,
                "schedule": schedule,
                "grid": list(grid),
                "clean": True,
            }
            try:
                result = execute(
                    compiled,
                    grid=grid,
                    schedule=schedule,
                    block=args.block,
                    sanitize=True,
                )
                record["wall_time"] = result.wall_time
                status = "clean"
            except SanitizerError as exc:
                record["clean"] = False
                record["error"] = str(exc)
                failed = True
                status = "RACE DETECTED"
            except ReproError as exc:
                record["clean"] = False
                record["error"] = str(exc)
                failed = True
                status = f"error: {exc}"
            runs.append(record)
            if not args.json:
                print(f"{entry.name:>20} [{schedule:>9}] grid={grid}: {status}")
                if not record["clean"]:
                    print(record["error"])
    if args.json:
        print(
            json.dumps(
                {"schema": "repro-analyze-race/1", "runs": runs}, indent=2
            )
        )
    return 1 if failed else 0


def _certify_inputs_from_file(path: str) -> list[tuple]:
    """Compile one ``.zpl`` file into ``(label, compiled, pre, source)``
    certify inputs — ``compiled`` is ``None`` (with ``pre`` holding the
    parse/legality diagnostic) when the front end refuses the program."""
    from repro.compiler.lowering import compile_scan
    from repro.errors import ReproError
    from repro.zpl.parser import ParseError, parse_program

    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    arrays, constants = _parse_pragmas(source)
    try:
        program = parse_program(source, arrays, constants, filename=path)
    except ParseError as exc:
        diagnostic = Diagnostic(
            "E000",
            str(exc),
            span=getattr(exc, "span", None),
            hint="fix the syntax/name error; certification needs a parse",
        )
        return [(path, None, [diagnostic], source)]
    blocks = program.scan_blocks()
    inputs: list[tuple] = []
    for index, block in enumerate(blocks):
        label = path if len(blocks) == 1 else f"{path}#{index}"
        try:
            compiled = compile_scan(block)
        except ReproError as exc:
            diagnostic = exc.diagnostic or Diagnostic(
                "E000",
                str(exc),
                hint="fix the legality error; certification needs a plan",
            )
            inputs.append((label, None, [diagnostic], source))
            continue
        inputs.append((label, compiled, [], source))
    return inputs


def cmd_certify(args) -> int:
    """Statically certify each input at each requested schedule."""
    from repro.analyze.certify import (
        MUTATIONS,
        MutationUnsupported,
        PSEUDO_SCHEDULES,
        apply_mutation,
        build_schedule_model,
        certify_model,
        schedule_kwargs,
    )
    from repro.errors import MachineError

    if not args.paths and args.suite is None:
        print(
            "nothing to certify: give .zpl paths and/or --suite",
            file=sys.stderr,
        )
        return 2
    if args.mutate is not None and args.mutate not in MUTATIONS:
        print(
            f"unknown mutation {args.mutate!r}; pick from: "
            + ", ".join(MUTATIONS),
            file=sys.stderr,
        )
        return 2
    grid = tuple(int(g) for g in args.grid.split("x"))
    schedules = (
        PSEUDO_SCHEDULES if args.schedule == "all" else (args.schedule,)
    )

    inputs: list[tuple] = []
    for path in args.paths:
        inputs.extend(_certify_inputs_from_file(path))
    if args.suite is not None:
        from repro.apps.suite import SUITE, get

        entries = SUITE if not args.suite else [get(s) for s in args.suite]
        for entry in entries:
            inputs.append((f"suite:{entry.name}", entry.build(args.n), [], None))

    reports: list[dict] = []

    def add(label, diagnostics, source):
        report = make_report(diagnostics, label)
        report["_diagnostics"] = diagnostics
        report["_source"] = source
        reports.append(report)

    for label, compiled, pre, source in inputs:
        if compiled is None:
            add(label, pre, source)
            continue
        for pseudo in schedules:
            diagnostics = list(pre)
            try:
                model = build_schedule_model(
                    compiled, grid=grid, block=args.block,
                    **schedule_kwargs(pseudo),
                )
            except MachineError as exc:
                diagnostics.append(
                    Diagnostic(
                        "W110",
                        f"schedule {pseudo!r} unavailable on grid {grid}: "
                        f"{exc}",
                        hint=(
                            "the planner refuses this configuration "
                            "natively; there is no schedule to certify"
                        ),
                    )
                )
                model = None
            if model is not None and args.mutate is not None:
                try:
                    _mutation, model = apply_mutation(model, args.mutate)
                except MutationUnsupported as exc:
                    diagnostics.append(
                        Diagnostic(
                            "W110",
                            f"mutation {args.mutate!r} does not apply at "
                            f"{pseudo!r}: {exc}",
                            hint="pick a mutation matching the protocol",
                        )
                    )
                    model = None
            if model is not None:
                diagnostics.extend(certify_model(model))
            add(f"{label}@{pseudo}", diagnostics, source)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(_strip_private(reports), handle, indent=2)
    if args.json:
        return _emit(_strip_private(reports), True, False)
    return _emit(reports, False, args.color)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="static diagnostics and race sanitizing for scan blocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, race: bool = False):
        p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument(
            "--suite",
            nargs="*",
            default=None,
            metavar="NAME",
            help="include apps-suite entries (no names: the whole suite)",
        )
        p.add_argument(
            "--n", type=int, default=64, help="suite problem size (default 64)"
        )

    lint = sub.add_parser("lint", help="run the static pass registry")
    lint.add_argument("paths", nargs="*", help=".zpl files with #! pragmas")
    lint.add_argument(
        "--pass",
        dest="passes",
        action="append",
        choices=sorted(PASSES),
        help="restrict to named passes (repeatable)",
    )
    lint.add_argument("--color", action="store_true", help="ANSI colours")
    common(lint)

    explain = sub.add_parser(
        "explain", help="lint plus fusion/skew explanations"
    )
    explain.add_argument("paths", nargs="*", help=".zpl files with #! pragmas")
    explain.add_argument("--color", action="store_true", help="ANSI colours")
    common(explain)

    race = sub.add_parser(
        "race", help="run suite entries under the wavefront race sanitizer"
    )
    common(race, race=True)
    race.add_argument(
        "--grid", default="2", help="processor grid, e.g. 2 or 2x2 (default 2)"
    )
    race.add_argument(
        "--schedule",
        choices=("pipelined", "naive", "both"),
        default="both",
        help="which schedules to check (default both)",
    )
    race.add_argument(
        "--block", type=int, default=None, help="pipeline block size"
    )

    certify = sub.add_parser(
        "certify",
        help="statically prove sync coverage and deadlock freedom",
    )
    certify.add_argument("paths", nargs="*", help=".zpl files with #! pragmas")
    common(certify)
    certify.add_argument(
        "--grid", default="2", help="processor grid, e.g. 2 or 2x2 (default 2)"
    )
    certify.add_argument(
        "--schedule",
        choices=("all", "naive", "pipelined", "multicast", "taskgraph"),
        default="all",
        help="which schedule(s) to certify (default all four)",
    )
    certify.add_argument(
        "--block", type=int, default=None, help="pipeline block size"
    )
    certify.add_argument(
        "--mutate",
        default=None,
        metavar="NAME",
        help="corrupt the model first (soundness smoke; must fail)",
    )
    certify.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the JSON reports to FILE (CERTIFY_report.json)",
    )
    certify.add_argument("--color", action="store_true", help="ANSI colours")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        args.passes = getattr(args, "passes", None)
        return cmd_lint(args)
    if args.command == "explain":
        args.passes = None
        args.color = getattr(args, "color", False)
        return cmd_lint(args, explain=True)
    if args.command == "certify":
        return cmd_certify(args)
    return cmd_race(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
