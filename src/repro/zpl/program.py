"""Region scoping and statement execution/recording.

This module provides the dynamic context that makes the ``[R] stmt`` syntax of
ZPL work in Python:

* :func:`covering` — a ``with`` block establishing the ambient region, the
  analog of prefixing statements with ``[R]``;
* :func:`scan` — a ``with`` block that *records* the statements written inside
  it into a :class:`~repro.zpl.scan.ScanBlock`, compiles it on exit and (by
  default) executes it with the sequential vectorised engine;
* :func:`statement` — the entry point used by ``ZArray.__setitem__``.

Outside a scan block, statements execute eagerly with ordinary array-language
semantics: the right-hand side is fully evaluated before the assignment, so a
statement can never carry a non-lexically-forward true dependence (paper
Fig. 3(a-c)).  The prime operator is rejected outside scan blocks.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.errors import ExpressionError, RegionError
from repro.zpl.arrays import ZArray
from repro.zpl.expr import Node
from repro.zpl.regions import Region
from repro.zpl.scan import ScanBlock
from repro.zpl.statements import Assign


class _Scope(threading.local):
    """Per-thread ambient state: region/mask stacks and scan recorder."""

    def __init__(self) -> None:
        self.regions: list[Region] = []
        self.masks: list[ZArray] = []
        self.recorder: ScanBlock | None = None


_SCOPE = _Scope()

#: Engine used to execute scan blocks recorded by :func:`scan`.
#: Signature: ``engine(compiled_scan) -> None`` (mutates the target arrays).
_DEFAULT_ENGINE: Callable | None = None


def current_region() -> Region | None:
    """The innermost ambient covering region, or None."""
    return _SCOPE.regions[-1] if _SCOPE.regions else None


def current_mask() -> ZArray | None:
    """The innermost ambient mask, or None."""
    return _SCOPE.masks[-1] if _SCOPE.masks else None


@contextmanager
def masked(mask: ZArray) -> Iterator[ZArray]:
    """ZPL's ``[R with m]``: statements store only where ``mask`` is nonzero.

    Reads are unaffected; the innermost mask wins when nested.
    """
    if not isinstance(mask, ZArray):
        raise RegionError(f"masked() needs a ZArray, got {mask!r}")
    _SCOPE.masks.append(mask)
    try:
        yield mask
    finally:
        _SCOPE.masks.pop()


@contextmanager
def covering(region: Region) -> Iterator[Region]:
    """Establish ``region`` as the ambient covering region (ZPL's ``[R]``)."""
    if not isinstance(region, Region):
        raise RegionError(f"covering() needs a Region, got {region!r}")
    _SCOPE.regions.append(region)
    try:
        yield region
    finally:
        _SCOPE.regions.pop()


def set_default_engine(engine: Callable | None) -> None:
    """Install the engine ``scan()`` uses to execute compiled blocks.

    ``None`` restores the built-in sequential vectorised engine.
    """
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine


def _builtin_engine() -> Callable:
    from repro.runtime.kernels import execute_vectorized

    return execute_vectorized


@contextmanager
def scan(
    name: str | None = None,
    execute: bool = True,
    engine: Callable | None = None,
) -> Iterator[ScanBlock]:
    """Record the statements of a wavefront computation.

    On normal exit the block is compiled (all legality checks run) and, when
    ``execute`` is true, evaluated by ``engine`` (default: the sequential
    vectorised engine, or whatever :func:`set_default_engine` installed).

    With ``execute=False`` the block is only recorded — compile and run it
    yourself; this is how the distributed executor and the compiler tests
    consume scan blocks.
    """
    if _SCOPE.recorder is not None:
        raise ExpressionError("scan blocks may not be nested")
    block = ScanBlock(name=name)
    _SCOPE.recorder = block
    try:
        yield block
    finally:
        _SCOPE.recorder = None
    if execute:
        compiled = block.compile()
        run = engine or _DEFAULT_ENGINE or _builtin_engine()
        run(compiled)


def eager_reader(array: ZArray, region: Region, primed: bool) -> np.ndarray:
    """Region reader for eager (non-scan) evaluation; rejects the prime op."""
    if primed:
        raise ExpressionError(
            "the prime operator is only meaningful inside a scan block"
        )
    return array.read(region)


def statement(target: ZArray, expr: Node, region: Region | None) -> None:
    """Execute or record one array assignment statement.

    Called by ``ZArray.__setitem__``.  ``region=None`` means "use the ambient
    covering region".
    """
    resolved = region if region is not None else current_region()
    if resolved is None:
        raise RegionError(
            "no covering region: use a[R] = expr or wrap the statement in "
            "'with covering(R):'"
        )
    stmt = Assign(target, expr, resolved, mask=current_mask())
    if _SCOPE.recorder is not None:
        _SCOPE.recorder.append(stmt)
        return
    execute_eager(stmt)


def execute_eager(stmt: Assign) -> None:
    """Run one statement with array semantics (RHS fully evaluated first),
    honouring its mask.  Shared by ambient statements and parsed programs."""
    values = stmt.expr.evaluate(stmt.region, eager_reader)
    if isinstance(values, np.ndarray) and np.shares_memory(
        values, stmt.target._data
    ):
        values = values.copy()
    if stmt.mask is not None:
        keep = stmt.mask.read(stmt.region) != 0
        values = np.where(keep, values, stmt.target.read(stmt.region))
    stmt.target.write(stmt.region, values)
