"""Property: the skewed plan family is bit-identical to the loop-nest oracle.

Random legal scan blocks whose wavefront carries **two or three** dependent
dimensions — the multi-dependence shapes the hyperplane-skewed plans were
built for — must produce *bit-identical* storage under the lowering the
host runs (the native nest where it builds one) and the numpy lowering
(skewed whenever a legal τ exists), equal to the scalar loop-nest oracle.
The strategy draws per-dimension traversal signs, so descending
(negative-stride) wavefronts — where τ components go negative — are
exercised alongside the canonical ascending anti-diagonal, plus masks,
contraction and index expressions.  Blocks whose anti
dependences admit no legal τ simply run the flat family; the property
holds either way.

Rank-2 draws (and rank-3 draws whose τ keeps two components) run the
*sheared* lowering — planes as slices of skewed strided views — so a third,
*three-carrier* variant forces a primed read along each of three axes: τ then
has three components, a plane is not a line, and no numpy sweep exists: the
native loop nest runs the block where the host has a compiler, the flat
point loop where it has none (``numpy`` in the matrix).

A second, *single-carrier* variant forces every primed read through one
randomly chosen axis, so τ is axis-aligned and the numpy lowering runs the
sliced row loop instead of gathered hyperplanes.  It always draws two targets
and adds unprimed reads of the *other* target at offsets off the carrying
axis: anti dependences with ``τ·v = 0`` that tie across statements inside
one row, which only lexical statement order and whole-row evaluation keep
correct.
"""

import numpy as np
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from repro import zpl
from repro.compiler import compile_scan, contract, contractible, derive_skew
from repro.errors import ReproError
from tests.conftest import assert_bit_identical, engine_matrix


def _scaled(direction, signs):
    return tuple(c * s for c, s in zip(direction, signs))


#: Primed-direction bases per rank, before per-dimension sign scaling.
#: ``forced`` guarantees every drawn block carries all dims (multi-dependence
#: wavefront) and that no single axis carries every dependence, so τ keeps
#: two or more components and real hyperplanes run; ``extra`` adds optional
#: spice.
DIR_BASES = {
    2: {
        "forced": ((-1, 0), (0, -1)),
        "extra": ((-1, -1), (-2, -1), (-1, -2), (-2, 0), (0, -2)),
    },
    3: {
        "forced": ((-1, -1, 0), (0, 0, -1)),
        "extra": ((-1, 0, 0), (0, -1, 0), (0, -1, -1), (-1, -1, -1)),
    },
}
#: The same, with dimension 0 carrying every primed read (the strategy
#: rotates it onto a drawn axis): τ is that axis' unit vector.
CARRIER_BASES = {
    2: {
        "forced": ((-1, -1), (-1, 0)),
        "extra": ((-1, 1), (-2, -1), (-1, -2), (-2, 0), (-2, 2)),
    },
    3: {
        "forced": ((-1, -1, 0), (-1, 0, -1)),
        "extra": ((-1, 0, 0), (-1, -1, -1), (-1, 1, 0), (-2, 0, 1)),
    },
}
#: One forced primed read per axis: every τ component is nonzero (gathers).
GATHER_BASES = {
    3: {
        "forced": ((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
        "extra": DIR_BASES[3]["forced"] + DIR_BASES[3]["extra"],
    },
}
#: Read-only reference offset bases per rank (sign-scaled like the primes).
RO_BASES = {
    2: ((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1), (0, 0)),
    3: ((-1, 0, 0), (0, 1, 0), (0, 0, -1), (1, 1, 0), (0, 0, 0)),
}
#: Unprimed target reads across a plane of the multi-carrier variant's τ
#: (sign-scaled): an anti dependence with ``τ·v = 0`` that only whole-plane
#: evaluation keeps correct, so the native nest must keep loop order.
PLANE_TIE_BASES = {
    2: ((1, -1), (-1, 1)),
    3: ((1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1)),
}


@st.composite
def skew_programs(draw, single_carrier=False, three_carriers=False):
    """A random multi-dependence wavefront block plus its arrays."""
    # rank-2 weighted: the hot shape
    rank = 3 if three_carriers else draw(st.sampled_from((2, 2, 3)))
    axis = draw(st.integers(0, rank - 1)) if single_carrier else 0
    n = draw(st.integers(6, 9)) if rank == 2 else draw(st.integers(5, 7))
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(rank))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    base = zpl.Region.of(*(((1, n),) * rank))
    region = zpl.Region.of(*(((3, n - 1),) * rank))
    feature = draw(st.sampled_from(("plain", "mask", "contract", "index")))

    n_targets = 2 if single_carrier else draw(st.integers(1, 2))
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

    bases = (
        CARRIER_BASES if single_carrier
        else GATHER_BASES if three_carriers else DIR_BASES
    )[rank]
    forced, extra = (
        [_scaled(d[rank - axis:] + d[:rank - axis], signs) for d in bases[key]]
        for key in ("forced", "extra")
    )
    ro_dirs = [_scaled(d, signs) for d in RO_BASES[rank]]
    #: Unprimed other-target offsets with a zero on the carrying axis.
    tie_dirs = [d for d in ro_dirs if any(d) and not d[axis]]
    plane_dirs = [_scaled(d, signs) for d in PLANE_TIE_BASES[rank]]
    plane_ties = []

    kinds = ("primed", "readonly", "self", "temp")
    if single_carrier:
        kinds += ("tie", "tie")
    elif not three_carriers:
        kinds += ("plane", "plane")

    def one_expr(k, force_wavefront):
        expr = zpl.as_node(draw(st.floats(0.05, 0.5)))
        if force_wavefront:
            # The dims-covering primed reads that make this a true
            # multi-dependence wavefront.
            for direction in forced:
                coeff = draw(st.floats(0.1, 0.4))
                other = targets[draw(st.integers(0, n_targets - 1))]
                expr = expr + coeff * (other.p @ direction)
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(kinds))
            coeff = draw(st.floats(0.1, 0.3))
            if kind == "primed":
                other = targets[draw(st.integers(0, n_targets - 1))]
                direction = draw(st.sampled_from(forced + extra))
                expr = expr + coeff * (other.p @ direction)
            elif kind == "readonly":
                direction = draw(st.sampled_from(ro_dirs))
                expr = expr + coeff * (readonly @ direction)
            elif kind == "tie":
                direction = draw(st.sampled_from(tie_dirs))
                expr = expr + coeff * (targets[1 - k] @ direction)
            elif kind == "plane":
                other = targets[draw(st.integers(0, n_targets - 1))]
                plane_ties.append(draw(st.sampled_from(plane_dirs)))
                expr = expr + coeff * (other @ plane_ties[-1])
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
                    temp[...] = one_expr(0, force_wavefront=True)
                for k in range(n_targets):
                    targets[k][...] = one_expr(k, force_wavefront=(k == 0))
        finally:
            if mask is not None:
                contexts[1].__exit__(None, None, None)

    try:
        compiled = compile_scan(block)
    except ReproError:
        # Only a drawn tie may over-constrain the loop structure: redraw.
        assume(not (single_carrier or plane_ties))
        raise
    if temp is not None and contractible(compiled, temp):
        compiled = contract(compiled, [temp])
    return compiled, arrays


@given(skew_programs())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_skewed_engine_matches_flat_interp_and_oracle(program):
    check_engines_agree(*program)


@given(skew_programs(single_carrier=True))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_single_carrier_row_loop_matches_flat_interp_and_oracle(program):
    check_engines_agree(*program)


@given(skew_programs(three_carriers=True))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_three_carrier_nest_matches_flat_interp_and_oracle(program):
    """No numpy sweep for τ = (1, 1, 1): native with a compiler, else flat."""
    assert check_engines_agree(*program) is None


def check_engines_agree(compiled, arrays):
    """Assert the engines agree; returns the lowering that ran (None: flat)."""
    # Reported for --hypothesis-show-statistics: a drawn tie may still demand
    # a diagonal in the single-carrier variant.
    skew = derive_skew(compiled)
    event("no legal tau" if skew is None else f"lowering: {skew.lowering}")
    # ``kernel`` is the native nest where the host has a compiler,
    # ``numpy`` the same engine with the toolchain looking absent.
    assert_bit_identical(engine_matrix(compiled, arrays), arrays)
    return None if skew is None else skew.lowering
