"""The crown-jewel property: every engine computes the same wavefront.

Random legal scan blocks are generated (random arrays, statement counts,
primed directions from a sign-consistent pool — simple WSVs are always
legal), then executed by the scalar loop-nest oracle, the vectorised engine,
and the distributed machine under the naive and pipelined schedules at
random processor counts and block sizes.  All storage must match bit-for-bit
(up to float associativity, which none of the engines change: they all
evaluate the same expression tree per element/slab).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import zpl
from repro.compiler import compile_scan
from repro.machine import MachineParams, naive_wavefront, pipelined_wavefront
from repro.runtime import execute_loopnest, execute_vectorized, run_and_capture
from tests.conftest import assert_bit_identical, engine_matrix

PARAMS = MachineParams(name="prop", alpha=20.0, beta=1.5)

#: Directions with non-positive components: any subset yields a simple WSV.
NEG_POOL = ((-1, 0), (0, -1), (-1, -1), (-2, 0), (0, -2), (-1, -2))
#: Small arbitrary offsets for read-only references.
ANY_POOL = ((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1), (-1, 1), (0, 0))


@st.composite
def scan_programs(draw):
    """A random legal scan block plus its arrays, ready to execute."""
    n = draw(st.integers(6, 11))
    n_targets = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    base = zpl.Region.square(1, n)
    targets = []
    for k in range(n_targets):
        arr = zpl.ZArray(base, name=f"t{k}", fluff=2)
        arr._data[...] = rng.uniform(0.5, 1.5, size=arr._data.shape)
        targets.append(arr)
    readonly = zpl.ZArray(base, name="ro", fluff=2)
    readonly._data[...] = rng.uniform(0.5, 1.5, size=readonly._data.shape)

    region = zpl.Region.square(3, n - 1)
    statements = []
    for k in range(n_targets):
        # Each statement: const + sum of a few terms.  The first term of the
        # first statement is always primed so the block has a wavefront.
        n_terms = draw(st.integers(1, 3))
        expr = zpl.as_node(draw(st.floats(0.05, 0.5)))
        for term in range(n_terms):
            if k == 0 and term == 0:
                kind = "primed"
            else:
                kind = draw(st.sampled_from(("primed", "readonly", "self")))
            coeff = draw(st.floats(0.1, 0.45))
            if kind == "primed":
                other = targets[draw(st.integers(0, n_targets - 1))]
                direction = draw(st.sampled_from(NEG_POOL))
                expr = expr + coeff * (other.p @ direction)
            elif kind == "readonly":
                direction = draw(st.sampled_from(ANY_POOL))
                expr = expr + coeff * (readonly @ direction)
            else:
                expr = expr + coeff * targets[k].ref
        statements.append((targets[k], expr))

    with zpl.covering(region):
        with zpl.scan(execute=False) as block:
            for target, expr in statements:
                target[...] = expr
    procs = draw(st.integers(1, 4))
    block_size = draw(st.integers(1, 8))
    return block, targets + [readonly], procs, block_size


@given(scan_programs())
@settings(max_examples=60, deadline=None)
def test_all_engines_and_schedules_agree(program):
    block, arrays, procs, block_size = program
    compiled = compile_scan(block)

    oracle = run_and_capture(execute_loopnest, compiled, arrays)
    fast = run_and_capture(execute_vectorized, compiled, arrays)
    for o, f in zip(oracle, fast):
        np.testing.assert_allclose(f, o, rtol=1e-12, atol=1e-12)
    # ``fast`` ran the native nest where the host has a compiler: it must
    # equal every numpy way to run the block, bit for bit.
    assert_bit_identical(engine_matrix(compiled, arrays) | {"default": fast}, arrays)

    def run_pipelined(c):
        pipelined_wavefront(c, PARAMS, n_procs=procs, block_size=block_size)

    def run_naive(c):
        naive_wavefront(c, PARAMS, n_procs=procs)

    piped = run_and_capture(run_pipelined, compiled, arrays)
    for o, f in zip(oracle, piped):
        np.testing.assert_allclose(f, o, rtol=1e-12, atol=1e-12)

    nai = run_and_capture(run_naive, compiled, arrays)
    for o, f in zip(oracle, nai):
        np.testing.assert_allclose(f, o, rtol=1e-12, atol=1e-12)


@given(scan_programs())
@settings(max_examples=30, deadline=None)
def test_compilation_is_deterministic(program):
    block, arrays, _, _ = program
    c1 = compile_scan(block)
    c2 = compile_scan(block)
    assert c1.loops == c2.loops
    assert c1.wsv == c2.wsv


@given(scan_programs())
@settings(max_examples=30, deadline=None)
def test_simulation_time_is_deterministic(program):
    block, arrays, procs, block_size = program
    compiled = compile_scan(block)
    if procs < 2:
        return
    t1 = pipelined_wavefront(
        compiled, PARAMS, n_procs=procs, block_size=block_size, compute_values=False
    )
    t2 = pipelined_wavefront(
        compiled, PARAMS, n_procs=procs, block_size=block_size, compute_values=False
    )
    assert t1.total_time == t2.total_time
    assert t1.run.total_messages == t2.run.total_messages
