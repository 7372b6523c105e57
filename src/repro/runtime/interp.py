"""Reference array-semantics interpreter and differential-testing helpers.

The interpreter executes statement lists with pure array-language semantics —
every right-hand side fully evaluated before its assignment — which is the
meaning of ZPL *without* the paper's extension.  Scan blocks cannot be run
this way (the prime operator has no array-semantics meaning); attempting to
raises, which is itself one of the paper's points: Fig. 3(a) and Fig. 3(d)
are different programs.

The snapshot utilities let the test suite run the same program under several
engines from identical initial states and compare results bit-for-bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.runtime.kernels import resolve_engine, statement_kernel
from repro.zpl.arrays import ZArray
from repro.zpl.program import eager_reader
from repro.zpl.statements import Assign


def execute_interpreted(
    statements: Sequence[Assign], *, engine: str | None = None
) -> None:
    """Run plain array statements one at a time, RHS before assignment.

    By default each unmasked statement runs through its ahead-of-time kernel
    (:func:`repro.runtime.kernels.statement_kernel` — cached per statement,
    one generated-kernel call instead of a tree walk); ``engine="interp"`` or
    ``REPRO_ENGINE=interp`` keeps the original tree-walking path.  Statements
    the kernel layer cannot express fall back statement-by-statement.
    """
    kernels = resolve_engine(engine) != "interp"
    for stmt in statements:
        if stmt.expr.has_prime():
            from repro.errors import ExpressionError

            raise ExpressionError(
                "the prime operator has no array-semantics meaning; compile "
                "the statements as a scan block instead"
            )
        if kernels and stmt.mask is None:
            runner = statement_kernel(stmt)
            if runner is not None:
                runner()
                continue
        values = stmt.expr.evaluate(stmt.region, eager_reader)
        if isinstance(values, np.ndarray) and np.shares_memory(
            values, stmt.target._data
        ):
            values = values.copy()
        stmt.target.write(stmt.region, values)


class ArraySnapshot:
    """Captured storage of a set of arrays, for differential testing.

    >>> snap = ArraySnapshot([a, b])
    >>> mutate(a, b)
    >>> snap.restore()          # back to the captured state
    >>> results = snap.capture_current()   # dict of current values
    """

    def __init__(self, arrays: Sequence[ZArray]):
        self._arrays = list(arrays)
        self._saved = [a._data.copy() for a in self._arrays]

    def restore(self) -> None:
        """Write the captured storage (fluff included) back into the arrays."""
        for array, saved in zip(self._arrays, self._saved):
            array._data[...] = saved

    def capture_current(self) -> list[np.ndarray]:
        """Copies of the arrays' current full storage."""
        return [a._data.copy() for a in self._arrays]


def run_and_capture(engine, compiled, arrays: Sequence[ZArray]) -> list[np.ndarray]:
    """Run ``engine(compiled)`` from the arrays' current state, capture results,
    then restore the original state.  Returns the captured storage copies."""
    snap = ArraySnapshot(arrays)
    engine(compiled)
    results = snap.capture_current()
    snap.restore()
    return results
