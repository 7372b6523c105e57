"""Property: the AOT kernel engine is bit-identical to the loop-nest oracle.

Extends the crown-jewel equivalence property to the kernel layer: random
legal scan blocks — rank-1 and rank-2, optionally masked, optionally with a
contracted temporary, always carrying at least one primed read — must
produce *bit-identical* storage under the lowering the host runs (the
native nest where it builds one) and the numpy lowering, equal to the
scalar loop-nest oracle.  Contracted arrays' storage is excluded from the
oracle comparison: the oracle materialises them, and no lowering touches
their storage.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import zpl
from repro.compiler import compile_scan, contract, contractible
from repro.runtime import execute_vectorized, run_and_capture
from tests.conftest import assert_bit_identical, engine_matrix

#: Primed directions per rank (non-positive components: always a legal WSV).
NEG_POOLS = {
    1: ((-1,), (-2,)),
    2: ((-1, 0), (0, -1), (-1, -1), (-2, 0), (0, -2), (-1, -2)),
}
#: Read-only reference offsets per rank.
ANY_POOLS = {
    1: ((-1,), (1,), (0,), (2,)),
    2: ((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1), (-1, 1), (0, 0)),
}


@st.composite
def kernel_programs(draw):
    """A random legal scan block, its arrays, and the feature it exercises."""
    rank = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(6, 10))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    base = zpl.Region.of(*(((1, n),) * rank))
    region = zpl.Region.of(*(((3, n - 1),) * rank))
    feature = draw(st.sampled_from(("plain", "mask", "contract", "index")))

    n_targets = draw(st.integers(1, 3))
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
        mask.load((rng.uniform(size=base.shape) < 0.6).astype(float))
        arrays.append(mask)

    def one_expr(k, force_prime):
        n_terms = draw(st.integers(1, 3))
        expr = zpl.as_node(draw(st.floats(0.05, 0.5)))
        for term in range(n_terms):
            if force_prime and term == 0:
                kind = "primed"
            else:
                kind = draw(
                    st.sampled_from(("primed", "readonly", "self", "temp"))
                )
            coeff = draw(st.floats(0.1, 0.45))
            if kind == "primed":
                other = targets[draw(st.integers(0, n_targets - 1))]
                direction = draw(st.sampled_from(NEG_POOLS[rank]))
                expr = expr + coeff * (other.p @ direction)
            elif kind == "readonly":
                direction = draw(st.sampled_from(ANY_POOLS[rank]))
                expr = expr + coeff * (readonly @ direction)
            elif kind == "temp" and temp is not None:
                expr = expr + coeff * temp.ref
            else:
                expr = expr + coeff * targets[k].ref
        if feature == "index":
            dim = draw(st.integers(0, rank - 1))
            expr = expr + 0.01 * zpl.index(dim)
        return expr

    contexts = [zpl.covering(region)]
    if mask is not None:
        contexts.append(zpl.masked(mask))
    with contexts[0]:
        if mask is not None:
            contexts[1].__enter__()
        try:
            with zpl.scan(execute=False) as block:
                if temp is not None:
                    # The promoted scalar: written every iteration (with the
                    # block's wavefront prime), read back at zero shift.
                    temp[...] = one_expr(0, force_prime=True)
                for k in range(n_targets):
                    targets[k][...] = one_expr(k, force_prime=(k == 0))
        finally:
            if mask is not None:
                contexts[1].__exit__(None, None, None)

    compiled = compile_scan(block)
    if temp is not None and contractible(compiled, temp):
        compiled = contract(compiled, [temp])
    return compiled, arrays


@given(kernel_programs())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_kernel_engine_matches_interp_and_oracle(program):
    compiled, arrays = program

    kernel = run_and_capture(
        lambda c: execute_vectorized(c, engine="kernel"), compiled, arrays
    )
    # ``kernel`` ran the native nest where the host has a compiler: it and
    # the numpy lowering must both equal the oracle, bit for bit.
    assert_bit_identical(engine_matrix(compiled, arrays) | {"default": kernel}, arrays)
