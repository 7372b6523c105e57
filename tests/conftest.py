"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro import zpl
from repro.runtime import execute_vectorized, native, run_and_capture


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@contextmanager
def numpy_lowerings():
    """Make the toolchain look absent: every block runs its numpy lowering.

    Templates memoise their native kernel per :data:`native.HOST`, so
    swapping the host is all it takes — the same compiled block runs the
    compiled nest outside the ``with`` and numpy inside it.
    """
    saved, native.HOST = native.HOST, native.Host("no C compiler (test fixture)")
    try:
        yield
    finally:
        native.HOST = saved


@pytest.fixture
def no_compiler():
    """A host without a C compiler, for tests about the numpy lowerings."""
    with numpy_lowerings():
        yield


def engine_matrix(compiled, arrays) -> dict[str, list[np.ndarray]]:
    """Storage after each way to run a block, from identical initial state:
    the native nest (``kernel`` where the host can build it), the numpy
    ``kernel`` lowering, ``flat`` and ``interp``."""
    def run(engine):
        return run_and_capture(
            lambda c: execute_vectorized(c, engine=engine), compiled, arrays
        )

    results = {engine: run(engine) for engine in ("kernel", "flat", "interp")}
    with numpy_lowerings():
        results["kernel/numpy"] = run("kernel")
    return results


def assert_bit_identical(results: dict[str, list[np.ndarray]], arrays) -> None:
    """Every entry of an :func:`engine_matrix` equals ``interp`` bit for bit."""
    for engine, got in results.items():
        for array, g, i in zip(arrays, got, results["interp"]):
            assert g.tobytes() == i.tobytes(), (
                f"array {array.name}: {engine} != interp"
            )


def make_tomcatv_arrays(n: int, rng: np.random.Generator | None = None):
    """Arrays for the paper's Tomcatv fragment (Fig. 2), randomly initialised.

    Returns ``(R, aa, d, dd, rx, ry, r)`` where ``R`` is the covering region
    ``[2..n-2, 2..n-1]`` and all arrays are declared over ``[1..n, 1..n]``.
    ``dd`` is kept away from zero so the reciprocal stays well-conditioned.
    """
    rng = rng or np.random.default_rng(99)
    base = zpl.Region.square(1, n)
    R = zpl.Region.of((2, n - 2), (2, n - 1))
    arrays = {}
    for name in ("aa", "d", "dd", "rx", "ry", "r"):
        arr = zpl.ZArray(base, name=name)
        arr.load(rng.uniform(0.5, 1.5, size=base.shape))
        arrays[name] = arr
    arrays["dd"].load(rng.uniform(3.0, 4.0, size=base.shape))
    return (R, arrays["aa"], arrays["d"], arrays["dd"], arrays["rx"],
            arrays["ry"], arrays["r"])


def record_tomcatv_block(n: int, rng: np.random.Generator | None = None):
    """Record (without executing) the Tomcatv scan block of paper Fig. 2(b).

    Returns ``(block, arrays)`` where ``arrays`` is the tuple of all six
    ZArrays in ``(aa, d, dd, rx, ry, r)`` order.
    """
    R, aa, d, dd, rx, ry, r = make_tomcatv_arrays(n, rng)
    with zpl.covering(R):
        with zpl.scan(name="tomcatv", execute=False) as block:
            r[...] = aa * (d.p @ zpl.NORTH)
            d[...] = 1.0 / (dd - (aa @ zpl.NORTH) * r)
            rx[...] = rx - (rx.p @ zpl.NORTH) * r
            ry[...] = ry - (ry.p @ zpl.NORTH) * r
    return block, (aa, d, dd, rx, ry, r)


def tomcatv_fragment_oracle(n: int, aa, d, dd, rx, ry, r):
    """Plain-numpy oracle for the Fig. 1(a) Fortran 77 loops.

    Operates on copies of the ZArrays' declared values (1-based global
    indices mapped to 0-based numpy indices) and returns the final
    ``(r, d, rx, ry)`` declared-region values.
    """
    AA, D, DD, RX, RY, RR = (x.to_numpy() for x in (aa, d, dd, rx, ry, r))

    def g(i: int, j: int) -> tuple[int, int]:
        return i - 1, j - 1  # global index -> 0-based

    for i in range(2, n - 1):          # DO i = 2, n-2 (wavefront rows)
        for j in range(2, n):          # DO j = 2, n-1 (parallel columns)
            gi, gj = g(i, j)
            up = g(i - 1, j)
            rr = AA[gi, gj] * D[up]
            RR[gi, gj] = rr
            D[gi, gj] = 1.0 / (DD[gi, gj] - AA[up] * rr)
            RX[gi, gj] = RX[gi, gj] - RX[up] * rr
            RY[gi, gj] = RY[gi, gj] - RY[up] * rr
    return RR, D, RX, RY
