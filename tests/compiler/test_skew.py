"""Tests for the hyperplane-skewing pass: τ derivation and legality."""

import pytest

from repro import zpl
from repro.apps.alignment import build_score_block
from repro.compiler import (
    DepKind,
    Dependence,
    LoopStructure,
    Skew,
    compile_scan,
    derive_skew,
    derive_time_vector,
    legal_time_vector,
    looped_dims,
)
from repro.compiler.skew import MAX_SKEW_RANK
from repro.compiler.wsv import DimClass


def dep(vector, kind=DepKind.TRUE):
    return Dependence(tuple(vector), kind, 0, 0, "a")


def loops2(signs=(1, 1), classes=(DimClass.SERIAL, DimClass.PIPELINED)):
    return LoopStructure((0, 1), tuple(signs), tuple(classes))


class TestLegality:
    def test_true_dep_needs_strictly_positive_dot(self):
        assert legal_time_vector((1, 1), (0, 1), [dep((1, 1))])
        assert legal_time_vector((1, 1), (0, 1), [dep((1, 0)), dep((0, 1))])
        # τ·d == 0: the producer would land on the same hyperplane.
        assert not legal_time_vector((1, -1), (0, 1), [dep((1, 1))])
        # τ·d < 0: the producer would land on a *later* hyperplane.
        assert not legal_time_vector((1, 1), (0, 1), [dep((-1, 0))])

    def test_zero_restricted_true_dep_is_loop_independent(self):
        # A true dep with only parallel components is satisfied by lexical
        # statement order within a hyperplane.
        assert legal_time_vector((1,), (0,), [dep((0, 3))])

    def test_anti_and_output_allow_ties(self):
        for kind in (DepKind.ANTI, DepKind.OUTPUT):
            assert legal_time_vector((1, 1), (0, 1), [dep((1, -1), kind)])
            assert not legal_time_vector((1, 1), (0, 1), [dep((-1, 0), kind)])

    def test_refuses_when_no_positive_dot_exists(self):
        # (1, -1) and (-1, 1) pull τ in opposite directions: any τ with
        # τ·(1,-1) > 0 has τ·(-1,1) < 0.  No legal time vector exists.
        deps = [dep((1, -1)), dep((-1, 1))]
        for tau in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1)):
            assert not legal_time_vector(tau, (0, 1), deps)
        assert derive_time_vector(loops2(), deps) is None


class TestDerivation:
    def test_canonical_antidiagonal(self):
        skew = derive_time_vector(
            loops2(), [dep((1, 1)), dep((1, 0)), dep((0, 1))]
        )
        assert skew == Skew((0, 1), (1, 1))

    def test_descending_traversal_flips_tau(self):
        skew = derive_time_vector(
            loops2(signs=(-1, -1)), [dep((-1, -1)), dep((-1, 0)), dep((0, -1))]
        )
        assert skew == Skew((0, 1), (-1, -1))

    def test_needs_scaled_component(self):
        # (2, -1) forces 2*τ0 > τ1 while (0, 1) forces τ1 > 0: the plain
        # anti-diagonal fails, a scaled τ succeeds.
        skew = derive_time_vector(loops2(), [dep((2, -1)), dep((0, 1))])
        assert skew is not None
        assert skew.time((2, -1)) > 0 and skew.time((0, 1)) > 0

    def test_single_looped_dim_declines(self):
        loops = LoopStructure(
            (0, 1), (1, 1), (DimClass.PIPELINED, DimClass.PARALLEL)
        )
        assert derive_time_vector(loops, [dep((1, 0))]) is None

    def test_rank_cap(self):
        rank = MAX_SKEW_RANK + 1
        loops = LoopStructure(
            tuple(range(rank)), (1,) * rank, (DimClass.SERIAL,) * rank
        )
        assert derive_time_vector(loops, [dep((1,) * rank)]) is None

    def test_parallel_dims_excluded(self):
        loops = LoopStructure(
            (0, 1, 2),
            (1, 1, 1),
            (DimClass.SERIAL, DimClass.PARALLEL, DimClass.PIPELINED),
        )
        assert looped_dims(loops) == (0, 2)
        skew = derive_time_vector(loops, [dep((1, 0, 0)), dep((0, 0, 1))])
        assert skew is not None and skew.dims == (0, 2)

    def test_single_carrier_gets_an_axis_aligned_tau(self):
        # Section 3.1: a UDV constrains only the first loop that carries it,
        # so one carrying dimension frees the other to vectorise.
        assert derive_time_vector(
            loops2(), [dep((0, 1)), dep((1, 1))]
        ) == Skew((1,), (1,))
        assert derive_time_vector(
            loops2(), [dep((1, 0)), dep((1, 1))]
        ) == Skew((0,), (1,))

    def test_descending_single_carrier_gets_the_negative_unit(self):
        skew = derive_time_vector(
            loops2(signs=(1, -1)), [dep((0, -1)), dep((1, -1))]
        )
        assert skew == Skew((1,), (-1,))

    def test_two_legal_axes_tie_loops_the_outer_storage_dim(self):
        # (1, 1) alone is carried by either dimension; on equal extents the
        # outer one is looped so the vectorised rows stay contiguous...
        assert derive_time_vector(loops2(), [dep((1, 1))]) == Skew((0,), (1,))
        assert derive_time_vector(
            loops2(), [dep((1, 1))], extents=(8, 8)
        ) == Skew((0,), (1,))
        # ... whatever the loop order says, and unless the other axis sweeps
        # fewer planes over the block's region.
        inner_first = LoopStructure(
            (1, 0), (1, 1), (DimClass.SERIAL, DimClass.PIPELINED)
        )
        assert derive_time_vector(inner_first, [dep((1, 1))]) == Skew((0,), (1,))
        assert derive_time_vector(
            loops2(), [dep((1, 1))], extents=(2048, 16)
        ) == Skew((1,), (1,))

    def test_zero_component_is_dropped_from_dims(self):
        loops = LoopStructure((0, 1, 2), (1, 1, 1), (DimClass.SERIAL,) * 3)
        deps = [dep((1, 0, 1)), dep((0, 1, 1)), dep((1, 0, 0))]
        skew = derive_time_vector(loops, deps)
        # Dim 2 is looped but no dependence needs it: τ = (1, 1, 0).
        assert skew == Skew((0, 1), (1, 1))
        assert legal_time_vector((1, 1, 0), (0, 1, 2), deps)

    def test_time_orders_points(self):
        skew = Skew((0, 1), (1, 2))
        assert skew.time((3, 4)) == 11
        assert skew.rank == 2


class TestCompiledBlocks:
    def test_alignment_block_is_skewable(self):
        compiled, _ = build_score_block("GATTACA", "GCATGCU")
        skew = derive_skew(compiled)
        assert skew is not None
        assert skew.tau == (1, 1)

    def test_single_carrier_block_follows_its_region(self):
        # The benchmark's wide block: primed @west and @nw reads.
        a = zpl.ones(zpl.Region.of((1, 64), (1, 16)), name="a", fluff=2)
        with zpl.covering(zpl.Region.of((3, 64), (3, 16))):
            with zpl.scan(execute=False) as block:
                a[...] = 0.3 + 0.4 * (a.p @ (0, -1)) + 0.2 * (a.p @ (-1, -1))
        assert derive_skew(compile_scan(block)) == Skew((1,), (1,))

    def test_tomcatv_style_block_declines(self):
        # One pipelined dim + one parallel dim: nothing to skew.
        n = 8
        a = zpl.ones(zpl.Region.square(1, n), name="a")
        with zpl.covering(zpl.Region.of((2, n), (1, n))):
            with zpl.scan(execute=False) as block:
                a[...] = (a.p @ zpl.NORTH) * 0.5
        assert derive_skew(compile_scan(block)) is None
