"""Property: the multicast fabric computes exactly what the pipes do.

Random legal scan blocks — optionally masked, optionally with a
contracted temporary, with per-dimension direction signs drawn so
descending (negative-stride) traversals are covered — must leave storage
bit-identical whether the pipelined schedule synchronises over
point-to-point pipes or over the multicast epoch fabric; both must
match the vectorised sequential engine and (to float tolerance) the
scalar loop-nest oracle.  The dependence pool leans on diagonal and
depth-2 reads so tile fan-outs ≥ 2 — the shapes the planner actually
selects multicast for — are well represented.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import zpl
from repro.compiler import compile_scan, contract, contractible
from repro.errors import DistributionError
from repro.parallel import execute
from repro.runtime import execute_loopnest, execute_vectorized, run_and_capture
from tests.conftest import assert_bit_identical, engine_matrix

N_PROCS = 2

#: The forced first read keeps a wavefront along dim 0; the extras add the
#: diagonal/depth-2 shapes that give the fabric a tile fan-out to amortise.
FORCED = (-1, 0)
EXTRA_POOL = ((0, -1), (-1, -1), (-2, 0), (-1, -2), (-2, -1))
RO_POOL = ((-1, 0), (1, 0), (0, 1), (1, 1), (0, 0))


def _scaled(direction, signs):
    return tuple(c * s for c, s in zip(direction, signs))


@st.composite
def multicast_programs(draw):
    n = draw(st.integers(7, 11))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    signs = (draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1))))
    feature = draw(st.sampled_from(("plain", "mask", "contract")))

    base = zpl.Region.square(1, n)
    region = zpl.Region.of((3, n - 1), (3, n - 1))
    n_targets = draw(st.integers(1, 2))
    targets = []
    for k in range(n_targets):
        arr = zpl.ZArray(base, name=f"t{k}", fluff=2)
        arr._data[...] = rng.uniform(0.5, 1.5, size=arr._data.shape)
        targets.append(arr)
    readonly = zpl.ZArray(base, name="ro", fluff=2)
    readonly._data[...] = rng.uniform(0.5, 1.5, size=readonly._data.shape)
    arrays = targets + [readonly]

    temp = None
    if feature == "contract":
        temp = zpl.ZArray(base, name="tmp", fluff=2)
        temp._data[...] = rng.uniform(0.5, 1.5, size=temp._data.shape)
        arrays.append(temp)
    mask = None
    if feature == "mask":
        mask = zpl.ZArray(base, name="m", fluff=2)
        mask._data[...] = 0.0
        mask.load((rng.uniform(size=base.shape) < 0.55).astype(float))
        arrays.append(mask)

    def one_expr(k, force_prime):
        n_terms = draw(st.integers(1, 3))
        expr = zpl.as_node(draw(st.floats(0.05, 0.5)))
        for term in range(n_terms):
            if force_prime and term == 0:
                kind = "primed-forced"
            else:
                kind = draw(
                    st.sampled_from(("primed", "readonly", "self", "temp"))
                )
            coeff = draw(st.floats(0.1, 0.45))
            if kind == "primed-forced":
                other = targets[draw(st.integers(0, n_targets - 1))]
                expr = expr + coeff * (other.p @ _scaled(FORCED, signs))
            elif kind == "primed":
                other = targets[draw(st.integers(0, n_targets - 1))]
                direction = _scaled(draw(st.sampled_from(EXTRA_POOL)), signs)
                expr = expr + coeff * (other.p @ direction)
            elif kind == "readonly":
                direction = _scaled(draw(st.sampled_from(RO_POOL)), signs)
                expr = expr + coeff * (readonly @ direction)
            elif kind == "temp" and temp is not None:
                expr = expr + coeff * temp.ref
            else:
                expr = expr + coeff * targets[k].ref
        return expr

    mask_ctx = zpl.masked(mask) if mask is not None else None
    with zpl.covering(region):
        if mask_ctx is not None:
            mask_ctx.__enter__()
        try:
            with zpl.scan(execute=False) as block:
                if temp is not None:
                    temp[...] = one_expr(0, force_prime=True)
                for k in range(n_targets):
                    targets[k][...] = one_expr(k, force_prime=(k == 0))
        finally:
            if mask_ctx is not None:
                mask_ctx.__exit__(None, None, None)

    compiled = compile_scan(block)
    if temp is not None and contractible(compiled, temp):
        compiled = contract(compiled, [temp])
    block_size = draw(st.integers(2, 6))
    return compiled, arrays, block_size


@given(multicast_programs())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_multicast_matches_all_engines(program):
    compiled, arrays, block_size = program

    oracle = run_and_capture(execute_loopnest, compiled, arrays)
    fast = run_and_capture(execute_vectorized, compiled, arrays)
    for array, o, f in zip(arrays, oracle, fast):
        if compiled.is_contracted(array):
            continue  # the oracle materialises contracted temporaries
        np.testing.assert_allclose(f, o, rtol=1e-12, atol=1e-12)
    # ``fast`` ran the native nest where the host has a compiler: it must
    # equal every numpy way to run the block, bit for bit.
    assert_bit_identical(engine_matrix(compiled, arrays) | {"default": fast}, arrays)

    def run_fabric(**kwargs):
        return run_and_capture(
            lambda c: execute(
                c,
                grid=N_PROCS,
                schedule="pipelined",
                block=block_size,
                timeout=60.0,
                **kwargs,
            ),
            compiled,
            arrays,
        )

    try:
        pipes = run_fabric(multicast=False)
    except DistributionError:
        return  # no legal pipelined distribution: nothing to compare
    for array, want, got in zip(arrays, fast, pipes):
        np.testing.assert_array_equal(
            got, want, err_msg=f"array {array.name}: pipes != vectorized"
        )

    fabric = run_fabric(multicast=True)
    for array, want, got in zip(arrays, fast, fabric):
        np.testing.assert_array_equal(
            got, want, err_msg=f"array {array.name}: multicast != vectorized"
        )
