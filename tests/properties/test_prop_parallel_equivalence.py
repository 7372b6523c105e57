"""Property: the real multiprocess backend agrees with both serial engines.

Extends the crown-jewel engine-agreement property to the machine that
actually runs on the host: randomized legal scan programs must produce
bit-identical storage on the scalar loop-nest oracle, the vectorised
sequential engine, and :func:`repro.parallel.execute` with two real OS
processes.  Two workers keep the property CI-safe; the block size is drawn
so both single-chunk and many-chunk pipelines are exercised.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_scan
from repro.parallel import execute
from repro.runtime import execute_loopnest, execute_vectorized, run_and_capture
from tests.conftest import assert_bit_identical, engine_matrix
from tests.properties.test_prop_scan_equivalence import scan_programs

N_PROCS = 2


@given(scan_programs(), st.sampled_from(("pipelined", "naive")))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_parallel_backend_matches_sequential_engines(program, schedule):
    block, arrays, _procs, block_size = program
    compiled = compile_scan(block)

    oracle = run_and_capture(execute_loopnest, compiled, arrays)
    fast = run_and_capture(execute_vectorized, compiled, arrays)
    for o, f in zip(oracle, fast):
        np.testing.assert_array_equal(f, o)
    # ``fast`` ran the native nest where the host has a compiler: it must
    # equal every numpy way to run the block, bit for bit.
    assert_bit_identical(engine_matrix(compiled, arrays) | {"default": fast}, arrays)

    def run_parallel(c):
        execute(
            c,
            grid=N_PROCS,
            schedule=schedule,
            block=block_size,
            timeout=60.0,
        )

    parallel = run_and_capture(run_parallel, compiled, arrays)
    for array, o, f in zip(arrays, oracle, parallel):
        np.testing.assert_array_equal(
            f, o, err_msg=f"array {array.name}: parallel != oracle ({schedule})"
        )
