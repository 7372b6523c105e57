"""A textual front end: parse the paper's ZPL syntax into the embedded DSL.

The pretty-printer (:mod:`repro.zpl.pretty`) emits the paper's notation; this
module closes the loop by parsing it back, so the Fig. 2(b) fragment runs as
written:

>>> source = '''
... direction north = (-1, 0);
... region R = [2..n-2, 2..n-1];
... [R] scan
...       r := aa * d'@north;
...       d := 1.0 / (dd - aa@north * r);
...       rx := rx - rx'@north * r;
...       ry := ry - ry'@north * r;
...     end;
... '''
... program = parse_program(source, arrays=dict(r=r, d=d, dd=dd, aa=aa,
...                                             rx=rx, ry=ry),
...                         constants=dict(n=257))
... program.run()

Grammar (recursive descent, one-token lookahead)::

    program    :=  item*
    item       :=  direction | region | statement | scanblock
    direction  :=  "direction" NAME "=" vector ";"
    region     :=  "region" NAME "=" regionlit ";"
    scanblock  :=  cover? "scan" statement* "end" ";"
    statement  :=  cover? NAME ":=" expr ";"
    cover      :=  "[" (NAME | ranges) ("with" NAME)? "]"
    regionlit  :=  "[" range ("," range)* "]"
    range      :=  intexpr ".." intexpr
    vector     :=  "(" intexpr ("," intexpr)* ")"
    expr       :=  precedence climbing over + - * / ** and unary -
    primary    :=  NUMBER | call | ref | "(" expr ")"
    call       :=  ("max"|"min"|"sqrt"|"exp"|"log"|"abs"|"where") "(" args ")"
    ref        :=  NAME "'"? ("@" (NAME | vector))?

Integer expressions in ranges/vectors support literals, named constants and
``+ - * /`` with parentheses, so the paper's ``[2..n-2, 2..n-1]`` works.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError
from repro.zpl.arrays import ZArray
from repro.zpl.directions import Direction
from repro.zpl.expr import Node, as_node, maximum, minimum, sqrt, exp, log, absolute, where
from repro.zpl.program import covering, scan
from repro.zpl.regions import Region
from repro.zpl.scan import ScanBlock
from repro.zpl.span import SourceSpan
from repro.zpl.statements import Assign


class ParseError(ReproError):
    """Syntax or name-resolution error in textual ZPL.

    Carries the error's source location (``span``, when known) so tools can
    render it like any other diagnostic.
    """

    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.span = span


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<number>\d+\.(?!\.)\d*|\.\d+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>:=|\.\.|\*\*|<=|>=|[()\[\],;@'+\-*/=<>])
    """,
    re.VERBOSE,
)

_FUNCTIONS: dict[str, Callable[..., Node]] = {
    "max": maximum,
    "min": minimum,
    "sqrt": sqrt,
    "exp": exp,
    "log": log,
    "abs": absolute,
    "where": where,
}

_KEYWORDS = {"direction", "region", "scan", "end", "with"}


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "name" | "op" | "eof"
    text: str
    position: int
    #: 1-based source location of the token's first character.
    line: int = 1
    col: int = 1

    @property
    def span(self) -> SourceSpan:
        """The token's extent as a :class:`~repro.zpl.span.SourceSpan`."""
        return SourceSpan(
            self.line, self.col, self.line, self.col + max(1, len(self.text)),
            self.position,
        )


def tokenize(source: str) -> list[Token]:
    """Split ZPL source into tokens; ``#`` starts a line comment.

    Every token carries its 1-based line and column, computed in the same
    scan that splits the text, so parse errors and downstream diagnostics
    point at real source positions.
    """
    tokens: list[Token] = []
    position = 0
    line = 1
    line_start = 0
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise ParseError(
                f"unexpected character {source[position]!r} at line {line}, "
                f"column {position - line_start + 1}",
                span=SourceSpan(
                    line, position - line_start + 1,
                    line, position - line_start + 2, position,
                ),
            )
        start = match.start()
        position = match.end()
        kind = match.lastgroup or "op"
        if kind == "ws":
            text = match.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        tokens.append(
            Token(kind, match.group(), start, line, start - line_start + 1)
        )
    tokens.append(
        Token("eof", "", len(source), line, len(source) - line_start + 1)
    )
    return tokens


@dataclass
class Program:
    """A parsed program: declarations plus executable items.

    ``items`` holds, in source order, either :class:`Assign` statements or
    :class:`ScanBlock` groups.  ``run`` executes them with the usual
    semantics: eager array statements, compiled-and-executed scan blocks.

    The remaining fields are the static-analysis surface
    (:mod:`repro.analyze` consumes them): the original source text and file
    name for diagnostic rendering, the array/constant environment the
    program was parsed against, where explicit ``direction``/``region``
    declarations live, and which names the program actually used.
    """

    directions: dict[str, Direction] = field(default_factory=dict)
    regions: dict[str, Region] = field(default_factory=dict)
    items: list[Assign | ScanBlock] = field(default_factory=list)
    #: Original source text (diagnostic excerpts) and its display name.
    source: str | None = None
    filename: str | None = None
    #: The environment the program was parsed against.
    arrays: dict[str, ZArray] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)
    #: Source spans of *explicit* declarations (predeclared cardinals and
    #: builtins are exempt from unused-declaration lints).
    declared_directions: dict[str, SourceSpan] = field(default_factory=dict)
    declared_regions: dict[str, SourceSpan] = field(default_factory=dict)
    #: Names actually referenced somewhere in the program.
    used_directions: set[str] = field(default_factory=set)
    used_regions: set[str] = field(default_factory=set)
    used_arrays: set[str] = field(default_factory=set)

    def scan_blocks(self) -> list[ScanBlock]:
        """All scan blocks, in source order."""
        return [item for item in self.items if isinstance(item, ScanBlock)]

    def run(self, engine=None) -> None:
        """Execute every item in order."""
        from repro.runtime.kernels import execute_vectorized
        from repro.zpl.program import execute_eager

        run_block = engine or execute_vectorized
        for item in self.items:
            if isinstance(item, ScanBlock):
                run_block(item.compile())
            else:
                execute_eager(item)


class Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(
        self,
        tokens: list[Token],
        arrays: dict[str, ZArray],
        constants: dict[str, int],
        source: str | None = None,
        filename: str | None = None,
    ):
        self._tokens = tokens
        self._pos = 0
        self._arrays = arrays
        self._constants = dict(constants)
        self._program = Program(
            source=source,
            filename=filename,
            arrays=dict(arrays),
            constants=dict(constants),
        )
        # The standard cardinals are predeclared (the pretty-printer emits
        # their names); explicit declarations may override them.
        from repro.zpl import directions as _dirs

        for builtin in (*_dirs.CARDINALS_2D, *_dirs.DIAGONALS_2D, *_dirs.CARDINALS_3D):
            self._program.directions[builtin.name] = builtin

    # -- token plumbing ------------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    @staticmethod
    def _error(message: str, token: Token) -> ParseError:
        """A located parse error: ``message`` plus line/column and span."""
        return ParseError(
            f"{message} at line {token.line}, column {token.col}",
            span=token.span,
        )

    def _expect(self, text: str) -> Token:
        token = self._next()
        if token.text != text:
            raise self._error(
                f"expected {text!r} but found {token.text!r}", token
            )
        return token

    def _at(self, text: str) -> bool:
        return self._peek().text == text

    # -- integer expressions (region bounds, vectors) -----------------------
    def _int_expr(self) -> int:
        value = self._int_term()
        while self._peek().text in ("+", "-"):
            op = self._next().text
            rhs = self._int_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _int_term(self) -> int:
        value = self._int_atom()
        while self._peek().text in ("*", "/"):
            op = self._next().text
            rhs = self._int_atom()
            value = value * rhs if op == "*" else value // rhs
        return value

    def _int_atom(self) -> int:
        token = self._next()
        if token.text == "-":
            return -self._int_atom()
        if token.text == "(":
            value = self._int_expr()
            self._expect(")")
            return value
        if token.kind == "number":
            if "." in token.text:
                raise ParseError(f"expected an integer, got {token.text!r}")
            return int(token.text)
        if token.kind == "name":
            if token.text not in self._constants:
                raise self._error(f"unknown constant {token.text!r}", token)
            return int(self._constants[token.text])
        raise self._error("expected an integer", token)

    def _vector(self) -> tuple[int, ...]:
        self._expect("(")
        parts = [self._int_expr()]
        while self._at(","):
            self._next()
            parts.append(self._int_expr())
        self._expect(")")
        return tuple(parts)

    def _region_literal(self) -> Region:
        self._expect("[")
        ranges = [self._range()]
        while self._at(","):
            self._next()
            ranges.append(self._range())
        self._expect("]")
        return Region(tuple(ranges))

    def _range(self) -> tuple[int, int]:
        lo = self._int_expr()
        self._expect("..")
        hi = self._int_expr()
        return (lo, hi)

    # -- value expressions ---------------------------------------------------
    _PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "**": 3}

    def _expr(self, min_prec: int = 1) -> Node:
        left = self._unary()
        while True:
            op = self._peek().text
            prec = self._PRECEDENCE.get(op)
            if prec is None or prec < min_prec:
                return left
            self._next()
            # ** is right-associative; the rest left-associative.
            right = self._expr(prec if op == "**" else prec + 1)
            left = {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: a / b,
                "**": lambda a, b: a ** b,
            }[op](left, right)

    def _unary(self) -> Node:
        if self._at("-"):
            self._next()
            return -self._unary()
        return self._primary()

    def _primary(self) -> Node:
        token = self._next()
        if token.text == "(":
            inner = self._expr()
            self._expect(")")
            return inner
        if token.kind == "number":
            return as_node(float(token.text))
        if token.kind == "name":
            if token.text in _FUNCTIONS and self._at("("):
                return self._call(token.text)
            return self._array_ref(token)
        raise self._error(f"unexpected token {token.text!r}", token)

    def _call(self, name: str) -> Node:
        self._expect("(")
        args = [self._expr()]
        while self._at(","):
            self._next()
            args.append(self._expr())
        self._expect(")")
        try:
            return _FUNCTIONS[name](*args)
        except TypeError as exc:
            raise ParseError(f"bad arguments to {name}(): {exc}") from None

    def _array_ref(self, token: Token) -> Node:
        if token.text in self._constants:
            node = as_node(float(self._constants[token.text]))
            node.span = token.span
            return node
        if token.text not in self._arrays:
            raise self._error(f"unknown array {token.text!r}", token)
        self._program.used_arrays.add(token.text)
        ref = self._arrays[token.text].ref
        if self._at("'"):
            self._next()
            ref = ref.p
        if self._at("@"):
            self._next()
            ref = ref @ self._direction_ref()
        end = self._tokens[self._pos - 1]
        ref.span = token.span.to(end.span)
        return ref

    def _direction_ref(self) -> Direction:
        if self._at("("):
            return Direction(self._vector())
        token = self._next()
        if token.kind != "name" or token.text not in self._program.directions:
            raise self._error(f"unknown direction {token.text!r}", token)
        self._program.used_directions.add(token.text)
        return self._program.directions[token.text]

    # -- statements and items ------------------------------------------------
    def _cover(self) -> tuple[Region, ZArray | None]:
        """A covering prefix ``[R]`` or ``[R with m]`` (ZPL's masked form)."""
        self._expect("[")
        token = self._peek()
        if token.kind == "name" and token.text not in self._constants:
            self._next()
            if token.text not in self._program.regions:
                raise self._error(f"unknown region {token.text!r}", token)
            self._program.used_regions.add(token.text)
            region = self._program.regions[token.text]
        else:
            ranges = [self._range()]
            while self._at(","):
                self._next()
                ranges.append(self._range())
            region = Region(tuple(ranges))
        mask: ZArray | None = None
        if self._at("with"):
            self._next()
            mask_token = self._next()
            if mask_token.kind != "name" or mask_token.text not in self._arrays:
                raise self._error(
                    f"unknown mask array {mask_token.text!r}", mask_token
                )
            self._program.used_arrays.add(mask_token.text)
            mask = self._arrays[mask_token.text]
        self._expect("]")
        return region, mask

    def _assignment(
        self, region: Region | None, mask: ZArray | None = None
    ) -> Assign:
        token = self._next()
        if token.kind != "name" or token.text not in self._arrays:
            raise self._error(
                f"unknown assignment target {token.text!r}", token
            )
        self._program.used_arrays.add(token.text)
        target = self._arrays[token.text]
        self._expect(":=")
        expr = self._expr()
        end = self._expect(";")
        if region is None:
            raise self._error("statement has no covering region", token)
        return Assign(
            target, expr, region, mask=mask, span=token.span.to(end.span)
        )

    def _scan_block(
        self,
        region: Region | None,
        mask: ZArray | None = None,
        name: str | None = None,
    ) -> ScanBlock:
        self._expect("scan")
        block = ScanBlock(name=name)
        while not self._at("end"):
            inner_region, inner_mask = region, mask
            if self._at("["):
                inner_region, inner_mask = self._cover()
            block.append(self._assignment(inner_region, inner_mask))
        self._expect("end")
        self._expect(";")
        return block

    def parse(self) -> Program:
        """Parse the whole token stream."""
        while self._peek().kind != "eof":
            if self._at("direction"):
                self._next()
                name = self._next()
                self._expect("=")
                self._program.directions[name.text] = Direction(
                    self._vector(), name.text
                )
                self._program.declared_directions[name.text] = name.span
                self._expect(";")
            elif self._at("region"):
                self._next()
                name = self._next()
                self._expect("=")
                self._program.regions[name.text] = self._region_literal().named(
                    name.text
                )
                self._program.declared_regions[name.text] = name.span
                self._expect(";")
            else:
                region, mask = (
                    self._cover() if self._at("[") else (None, None)
                )
                if self._at("scan"):
                    self._program.items.append(self._scan_block(region, mask))
                else:
                    self._program.items.append(self._assignment(region, mask))
        return self._program


def parse_program(
    source: str,
    arrays: dict[str, ZArray],
    constants: dict[str, int] | None = None,
    filename: str | None = None,
) -> Program:
    """Parse textual ZPL against an array environment."""
    for reserved in _KEYWORDS:
        if reserved in arrays or (constants and reserved in constants):
            raise ParseError(
                f"{reserved!r} is a ZPL keyword and cannot name an array "
                f"or constant"
            )
    parser = Parser(
        tokenize(source), arrays, constants or {},
        source=source, filename=filename,
    )
    return parser.parse()


def parse_scan_block(
    source: str,
    arrays: dict[str, ZArray],
    constants: dict[str, int] | None = None,
    filename: str | None = None,
) -> ScanBlock:
    """Parse source containing exactly one scan block and return it."""
    program = parse_program(source, arrays, constants, filename=filename)
    blocks = program.scan_blocks()
    if len(blocks) != 1:
        raise ParseError(f"expected exactly one scan block, found {len(blocks)}")
    return blocks[0]
