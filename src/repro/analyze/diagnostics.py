"""Diagnostic objects and their rust-style renderer.

Everything :mod:`repro.analyze` reports — legality violations, lints, race
reports from the dynamic sanitizer — is a :class:`Diagnostic`: a stable code
(``E003``, ``W104``, ...), a severity, an optional :class:`SourceSpan`
pointing at real ZPL text, a structured *because* chain (the offending UDV,
the WSV entry, the primed reference that led the checker to its conclusion),
and a fix-it hint.  The renderer produces output in the style of rustc::

    error[E002]: directions over-constrain the scan block
      --> fragment.zpl:4:7
       |
     4 |       b := b'@north + b'@south;
       |       ^^^^^^^^^^^^^^^^^^^^^^^^
       = because: UDV (-1, 0) from b'@north demands increasing traversal
       = because: UDV (1, 0) from b'@south demands decreasing traversal
       = help: drop one of the conflicting primed shifts, or split the block

Diagnostics never raise; they are plain data.  The legality checker attaches
them to the exceptions it raises (``exc.diagnostic``) so both worlds — code
that catches :class:`~repro.errors.LegalityError` and tools that batch-render
— see the same facts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.zpl.span import SourceSpan

#: JSON report schema identifier (bump on incompatible changes).
SCHEMA = "repro-analyze/1"


class Severity(enum.Enum):
    """How serious a diagnostic is; orders ``ERROR > WARNING > INFO``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


#: Registry of every stable diagnostic code: ``code -> (severity, title)``.
#: Codes are append-only; never renumber (docs/analysis.md mirrors this table).
CODES: dict[str, tuple[Severity, str]] = {
    # Parse front end.
    "E000": (Severity.ERROR, "parse error"),
    # The paper's Section 2.2 legality conditions, one code per condition.
    "E001": (Severity.ERROR, "primed array never defined in scan block"),
    "E002": (Severity.ERROR, "directions over-constrain the scan block"),
    "E003": (Severity.ERROR, "statements of different rank in one scan block"),
    "E004": (Severity.ERROR, "statements cover different regions"),
    "E005": (Severity.ERROR, "parallel operator reads a primed operand"),
    # Implementation-level legality checks.
    "E006": (Severity.ERROR, "primed reference without an @-shift"),
    "E007": (Severity.ERROR, "scan block writes its own mask"),
    "E008": (Severity.ERROR, "hoisted parallel operator reads block output"),
    "E009": (Severity.ERROR, "empty scan block"),
    # Dynamic wavefront race sanitizer.
    "E100": (Severity.ERROR, "wavefront race: read before owning write"),
    # Static schedule certifier (repro.analyze.certify).
    "E101": (Severity.ERROR, "unsynchronized dependence"),
    "E102": (Severity.ERROR, "potential deadlock"),
    # E103 (staging slot aliasing) is retired; never reuse it.
    # Lints.
    "W101": (Severity.WARNING, "unused array"),
    "W102": (Severity.WARNING, "unused region"),
    "W103": (Severity.WARNING, "unused direction"),
    "W104": (Severity.WARNING, "redundant prime"),
    "W105": (Severity.WARNING, "dead mask"),
    "W106": (Severity.WARNING, "dead store"),
    "W107": (Severity.WARNING, "pipelining predicted unprofitable"),
    "W108": (Severity.WARNING, "taskgraph schedule recommended"),
    "W109": (Severity.WARNING, "multicast fabric forced on fan-out < 2"),
    "W110": (Severity.WARNING, "checker unavailable in this configuration"),
    "W111": (Severity.WARNING, "native loop nest unavailable"),
    # Explanations (requested via `repro.analyze explain`).
    "I301": (Severity.INFO, "fusion blocked"),
    "I302": (Severity.INFO, "skew ineligible"),
}


@dataclass(frozen=True)
class Because:
    """One link in a diagnostic's evidence chain.

    ``kind`` names the artifact the checker looked at (``"udv"``, ``"wsv"``,
    ``"ref"``, ``"loop"``, ``"model"``, ``"token"``, ``"note"``); ``detail``
    is the human-readable sentence.  Keeping the kind machine-readable lets
    the JSON output stay structured while the text renderer just prints the
    sentences.
    """

    kind: str
    detail: str


@dataclass(frozen=True)
class Label:
    """A secondary span annotation rendered under its own source line."""

    span: SourceSpan
    message: str


@dataclass(frozen=True)
class Diagnostic:
    """One finding: code + severity + location + evidence + hint."""

    code: str
    message: str
    span: SourceSpan | None = None
    labels: tuple[Label, ...] = ()
    because: tuple[Because, ...] = ()
    hint: str | None = None
    #: Extra context for JSON consumers (statement index, array name, ...).
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def severity(self) -> Severity:
        return CODES[self.code][0]

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    def to_dict(self) -> dict:
        """JSON-ready form (see docs/analysis.md for the schema)."""
        def span_dict(span: SourceSpan) -> dict:
            return {
                "line": span.line,
                "col": span.col,
                "end_line": span.end_line,
                "end_col": span.end_col,
            }

        out: dict = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "span": span_dict(self.span) if self.span else None,
            "labels": [
                {"span": span_dict(l.span), "message": l.message}
                for l in self.labels
            ],
            "because": [
                {"kind": b.kind, "detail": b.detail} for b in self.because
            ],
            "hint": self.hint,
        }
        if self.data:
            out["data"] = dict(self.data)
        return out


def _source_lines(source: str | None) -> list[str]:
    return source.splitlines() if source else []


def render(
    diagnostic: Diagnostic,
    source: str | None = None,
    filename: str | None = None,
    color: bool = False,
) -> str:
    """Render one diagnostic in rustc style.

    Without ``source`` (programs built through the embedded DSL have none)
    the excerpt block is omitted and only the header, evidence chain, and
    hint are printed.
    """
    severity = diagnostic.severity.value
    if color:
        tint = {"error": "\x1b[31m", "warning": "\x1b[33m", "info": "\x1b[36m"}
        head = (
            f"{tint[severity]}{severity}[{diagnostic.code}]\x1b[0m: "
            f"\x1b[1m{diagnostic.message}\x1b[0m"
        )
    else:
        head = f"{severity}[{diagnostic.code}]: {diagnostic.message}"
    lines = [head]

    spans: list[tuple[SourceSpan, str]] = []
    if diagnostic.span is not None:
        spans.append((diagnostic.span, ""))
    spans.extend((label.span, label.message) for label in diagnostic.labels)

    if spans:
        anchor = spans[0][0]
        where = filename or "<zpl>"
        lines.append(f"  --> {where}:{anchor.line}:{anchor.col}")
        text = _source_lines(source)
        if text:
            gutter = max(len(str(span.line)) for span, _ in spans)
            lines.append(f"{' ' * (gutter + 1)}|")
            for span, message in spans:
                if not (1 <= span.line <= len(text)):
                    continue
                src = text[span.line - 1]
                lines.append(f"{span.line:>{gutter}} | {src}")
                caret = " " * (span.col - 1) + "^" * span.width
                tail = f" {message}" if message else ""
                lines.append(f"{' ' * (gutter + 1)}| {caret}{tail}")

    for because in diagnostic.because:
        lines.append(f"  = because: {because.detail}")
    if diagnostic.hint:
        lines.append(f"  = help: {diagnostic.hint}")
    return "\n".join(lines)


def render_all(
    diagnostics: list[Diagnostic],
    source: str | None = None,
    filename: str | None = None,
    color: bool = False,
) -> str:
    """Render many diagnostics separated by blank lines."""
    return "\n\n".join(
        render(d, source=source, filename=filename, color=color)
        for d in diagnostics
    )


def make_report(
    diagnostics: list[Diagnostic], filename: str | None = None
) -> dict:
    """The JSON report for one linted program (schema ``repro-analyze/1``)."""
    counts = {"error": 0, "warning": 0, "info": 0}
    for diagnostic in diagnostics:
        counts[diagnostic.severity.value] += 1
    return {
        "schema": SCHEMA,
        "file": filename,
        "diagnostics": [d.to_dict() for d in diagnostics],
        "counts": counts,
    }


def validate_report(report: dict) -> None:
    """Raise ``ValueError`` unless ``report`` matches ``repro-analyze/1``.

    This is the schema the CI lint step (and any downstream tooling) relies
    on; the checks are deliberately structural and exhaustive rather than
    clever, so schema drift fails loudly in tests.
    """
    def need(cond: bool, what: str) -> None:
        if not cond:
            raise ValueError(f"bad repro-analyze report: {what}")

    need(isinstance(report, dict), "not a dict")
    need(report.get("schema") == SCHEMA, f"schema != {SCHEMA!r}")
    need("file" in report, "missing 'file'")
    need(isinstance(report.get("diagnostics"), list), "missing 'diagnostics'")
    counts = report.get("counts")
    need(
        isinstance(counts, dict)
        and set(counts) == {"error", "warning", "info"}
        and all(isinstance(v, int) and v >= 0 for v in counts.values()),
        "bad 'counts'",
    )
    tally = {"error": 0, "warning": 0, "info": 0}
    for entry in report["diagnostics"]:
        need(isinstance(entry, dict), "diagnostic entry not a dict")
        code = entry.get("code")
        need(code in CODES, f"unknown code {code!r}")
        need(entry.get("severity") == CODES[code][0].value, "severity drift")
        need(isinstance(entry.get("message"), str), "missing 'message'")
        span = entry.get("span")
        if span is not None:
            need(
                isinstance(span, dict)
                and {"line", "col", "end_line", "end_col"} <= set(span),
                "bad 'span'",
            )
        need(isinstance(entry.get("labels"), list), "missing 'labels'")
        need(isinstance(entry.get("because"), list), "missing 'because'")
        for because in entry["because"]:
            need(
                isinstance(because, dict)
                and isinstance(because.get("kind"), str)
                and isinstance(because.get("detail"), str),
                "bad 'because' entry",
            )
        hint = entry.get("hint")
        need(hint is None or isinstance(hint, str), "bad 'hint'")
        tally[entry["severity"]] += 1
    need(tally == counts, "'counts' does not match diagnostics")
