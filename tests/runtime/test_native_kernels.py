"""The native lowering: the C nest, its supported set, its cache, its fallbacks.

Bit identity is checked, with the numpy lowering of the same block
(``tests.conftest.engine_matrix``), against the scalar loop-nest oracle,
whose order the C nest reproduces — or sweeps plane by plane, where no
dependence ties inside a plane of the block's skew.  Everything about *who
compiles, and how often* runs in fresh interpreters on a private cache
directory with ``$CC`` pointed at a stub that records each invocation before
handing over to the real compiler.
"""

import hashlib
import json
import os
import stat
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import zpl
from repro.apps import sweep3d, tomcatv
from repro.apps.alignment import _build_batch_plan, build_score_block
from repro.compiler import compile_scan, contract
from repro.errors import MachineError
from repro.obs.trace import Tracer
from repro.parallel.sharedmem import collect_arrays
from repro.runtime import (
    KERNEL_STATS,
    PlanRunner,
    execute_vectorized,
    native,
    plan_kind,
)
from repro.runtime.kernels import _CEmitter, native_obstacle, template_for
from tests.conftest import (
    assert_bit_identical,
    engine_matrix,
    numpy_lowerings,
    record_tomcatv_block,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Only a compile tells a working toolchain from ``CC=/bin/false``; asking
#: the process's own host leaves it in the state first use would.
needs_cc = pytest.mark.skipif(
    native.HOST.load("void kernel(void *a, void *b) {}\n")[0] is None,
    reason="no working C toolchain on this host",
)


def uniform(shape, seed, name, fluff=1):
    rng = np.random.default_rng(seed)
    array = zpl.ZArray(
        zpl.Region.of(*((1, n) for n in shape)), name=name, fluff=fluff
    )
    array._data[...] = rng.uniform(0.5, 1.5, size=array._data.shape)
    return array


def assert_native_matches_everything(compiled, arrays):
    """The block ran natively, and equals its numpy lowering and the oracle."""
    template = template_for(compiled)
    assert template.native() is not None, template.native_error
    results = engine_matrix(compiled, arrays)
    assert (compiled.region.ranges, "native") in template.plans
    assert_bit_identical(results, arrays)


def scan(region, body):
    with zpl.covering(region):
        with zpl.scan(execute=False) as block:
            body()
    return block


@needs_cc
class TestDirectedBitIdentity:
    def test_descending_traversal(self):
        """Tomcatv back substitution: signs fold into base pointer and strides."""
        state = tomcatv.build(17, seed=3)
        tomcatv.coefficients_phase(state)
        tomcatv.prepare_solve(state)
        execute_vectorized(tomcatv.compile_forward(state))
        compiled = tomcatv.compile_backward(state)
        assert compiled.loops.signs[0] == -1
        assert_native_matches_everything(compiled, collect_arrays(compiled))

    def test_both_dimensions_descending_with_index_exprs(self):
        n = 9
        a = uniform((n, n), 1, "a")

        def body():
            a[...] = (
                (a.p @ (1, 0)) * 0.5 + (a.p @ (0, 1)) * 0.25
                + zpl.index(0) * 0.125 - zpl.index(1)
            )

        compiled = compile_scan(scan(zpl.Region.of((1, n - 1), (2, n - 1)), body))
        assert compiled.loops.signs == (-1, -1)
        assert "x0" in template_for(compiled).source
        assert_native_matches_everything(compiled, [a])

    def test_reads_reach_into_the_fluff(self):
        n = 8
        a, b = uniform((n, n), 2, "a", fluff=2), uniform((n, n), 3, "b", fluff=2)

        def body():
            a[...] = (a.p @ (-2, 0)) * 0.5 + (b @ (2, -2)) + (b @ (-1, 2))

        compiled = compile_scan(scan(zpl.Region.square(1, n), body))
        assert_native_matches_everything(compiled, [a, b])

    def test_masked_store_is_a_select(self):
        n = 10
        a, m = uniform((n, n), 4, "a"), uniform((n, n), 5, "m")
        m._data[...] = (m._data > 1.0).astype(float)
        m._data[3, 3] = np.nan  # NaN != 0: stored, as the oracle does
        with zpl.masked(m):
            block = scan(
                zpl.Region.of((2, n), (2, n)),
                lambda: a.__setitem__(
                    ..., 0.2 + 0.45 * (a.p @ (-1, 0)) + 0.3 * (a.p @ (-1, -1))
                ),
            )
        compiled = compile_scan(block)
        assert " ? " in template_for(compiled).source
        assert_native_matches_everything(compiled, [a, m])

    @pytest.mark.parametrize("tie", [(0, 1), (1, -1)])
    def test_contracted_temporary_is_a_scalar(self, tie):
        """``t := a@tie`` holds the *old* value after ``a`` is stored; a read
        of ``t`` before its definition in the iteration reads storage."""
        n = 8
        a, t, x = (uniform((n, n), 6 + k, name) for k, name in enumerate("atx"))

        def body():
            x[...] = t * 0.5
            t[...] = a @ tie
            a[...] = 0.1 + 0.3 * (a.p @ (-1, 0)) + 0.3 * (a.p @ (0, -1))
            x[...] = x + t * 2.0

        compiled = compile_scan(scan(zpl.Region.of((2, n - 1), (2, n - 1)), body))
        compiled = contract(compiled, [t])
        source = template_for(compiled).source
        assert "double c0;" in source and source.count("c0 = ") == 1
        assert_native_matches_everything(compiled, [a, t, x])

    def test_nan_and_signed_zero_through_max_and_min(self):
        """numpy's choices, not ``fmax``'s: NaN propagates from either side,
        and an equal comparison yields the *second* operand."""
        special = [0.0, -0.0, np.nan, -np.nan, 1.0, -1.0, np.inf, -np.inf]
        n = len(special)
        left = np.repeat(special, n).reshape(n, n)
        right = left.T.copy()
        a, b = zpl.from_numpy(left, base=1, name="a"), zpl.from_numpy(right, base=1, name="b")
        hi, lo, acc = (uniform((n, n), 9, name) for name in ("hi", "lo", "acc"))

        def body():
            hi[...] = zpl.maximum(a, b)
            lo[...] = zpl.minimum(a, b)
            acc[...] = zpl.maximum(acc.p @ (-1, 0), hi) + zpl.minimum(lo, 0.0)

        compiled = compile_scan(scan(zpl.Region.square(1, n), body))
        with np.errstate(all="ignore"):
            assert_native_matches_everything(compiled, [a, b, hi, lo, acc])
            execute_vectorized(compiled)
        top = hi.to_numpy()[0, 1]  # max(+0, -0): equal, so the second operand
        assert top == 0 and np.signbit(top)
        assert np.isnan(hi.to_numpy()[4, 2]) and np.isnan(lo.to_numpy()[2, 4])

    def test_division_by_zero_sqrt_of_negative_abs_and_negation(self):
        n = 6
        values = np.array([0.0, -0.0, 2.0, -3.0, np.inf, np.nan])
        a = zpl.from_numpy(np.tile(values, (n, 1)), base=1, name="a")
        b = zpl.from_numpy(np.tile(values[::-1], (n, 1)).T.copy(), base=1, name="b")
        q, r, s = (uniform((n, n), 10, name) for name in "qrs")

        def body():
            q[...] = a / b + (q.p @ (-1, 0)) * 0.0
            r[...] = zpl.sqrt(a) - zpl.absolute(b) + (-a)
            s[...] = zpl.where(a < b, zpl.floor(a / 0.3), zpl.ceil(b)) + (a >= b) * 2.0

        compiled = compile_scan(scan(zpl.Region.of((2, n), (1, n)), body))
        with np.errstate(all="ignore"):
            assert_native_matches_everything(compiled, [a, b, q, r, s])

    def test_three_component_tau_runs_the_nest(self):
        """No numpy sweep exists for τ = (1, 1, 1): the flat family, natively."""
        state = sweep3d.build(6)
        compiled = sweep3d.compile_octant(state, (1, 1, 1))
        assert plan_kind(compiled) == "flat"
        assert_native_matches_everything(compiled, collect_arrays(compiled))
        assert template_for(compiled).source.count("for (long long") == 3

    def test_sub_regions_share_one_object_and_engine_flat_stays_numpy(self):
        """``engine="flat"`` is refused before anything binds; the numpy
        flat plan exists only where the toolchain looks absent."""
        block, arrays = record_tomcatv_block(12)
        compiled = compile_scan(block)
        template = template_for(compiled)
        execute_vectorized(compiled)
        execute_vectorized(compiled, within=compiled.region.slab(1, 3, 5))
        with pytest.raises(MachineError, match="unknown engine 'flat'"):
            execute_vectorized(compiled, engine="flat")
        native_plans = [p for k, p in template.plans.items() if k[1] == "native"]
        PlanRunner(compiled).run()  # the serving path shares the dispatch tail
        assert len(native_plans) == 2 and native_plans[0].fn is native_plans[1].fn
        assert len(template.plans) == 2
        with numpy_lowerings():
            runner = PlanRunner(compiled)
            runner.run()
        flat = template.plans[compiled.region.ranges, False]
        assert flat.fn.__code__.co_filename.startswith("<repro-kernel:")
        assert runner.kind == "flat" and len(template.plans) == 3

    def test_compile_span_says_native_and_how_it_was_obtained(self):
        block, _ = record_tomcatv_block(8)
        compiled = compile_scan(block)
        tracer = Tracer(proc=0)
        execute_vectorized(compiled, tracer=tracer)
        (span,) = [s for s in tracer.spans if s.name == "kernel_compile"]
        assert span.args["native"] is True and span.args["lowering"] == "rows"
        assert span.args["cache"] in ("hit", "miss") and span.args["cc_ms"] >= 0
        with numpy_lowerings():
            execute_vectorized(compiled, tracer=tracer)
        span = [s for s in tracer.spans if s.name == "kernel_compile"][-1]
        assert span.args["native"] is False and "cache" not in span.args


def oracle_text(compiled):
    """The C text of ``compiled`` in ``loops.order``: the oracle's nest."""
    emitter = _CEmitter(compiled.loops.order, template_for(compiled).contracted_ids)
    for stmt in compiled.statements:
        emitter.statement(stmt)
    return emitter.source()


PLANE_LOOP = "for (long long t = 0;"


@needs_cc
class TestPlaneNest:
    """A skew with independent planes runs the plane nest, anything else the
    oracle's; blocks whose skew is the outer loop keep their text."""

    def test_in_plane_anti_dependence_keeps_the_oracle_nest(self):
        """``a@(1,-1)`` reads the old value on the point's own anti-diagonal:
        swept point by point, a plane would read it already overwritten."""
        n = 40
        a = uniform((n, n), 16, "a")

        def body():
            a[...] = (
                0.4 * (a.p @ (-1, 0)) + 0.4 * (a.p @ (0, -1)) + 0.1 * (a @ (1, -1))
            )

        compiled = compile_scan(scan(zpl.Region.of((2, n - 1), (2, n - 1)), body))
        template = template_for(compiled)
        assert template.skew.tau == (1, 1) and template.native_order == "loop"
        assert PLANE_LOOP not in template.source
        assert template.source == oracle_text(compiled)
        assert_native_matches_everything(compiled, [a])

    def test_alignment_blocks_sweep_planes(self):
        compiled, _ = build_score_block("GATTACAGG" * 3, "GCATGCTA" * 3, local=True)
        assert PLANE_LOOP in template_for(compiled).source
        assert_native_matches_everything(compiled, collect_arrays(compiled))
        stacked = _build_batch_plan(4, 10, 12, 2.0, -1.0, 1.0, False).compiled
        assert PLANE_LOOP in template_for(stacked).source
        assert_native_matches_everything(stacked, collect_arrays(stacked))

    def test_shear_with_coefficient_two(self):
        """τ = i0 + 2·i1, with dimension 1 first in ``loops.order``: the nest
        puts the unit dimension 0 first, and it steps by 2 inside a plane."""
        n = 12
        a = uniform((n, n), 20, "a")

        def body():
            a[...] = 0.3 * (a.p @ (-1, 0)) + 0.3 * (a.p @ (0, -1)) + 0.3 * (a.p @ (1, -1))

        compiled = compile_scan(scan(zpl.Region.of((2, n - 1), (2, n - 1)), body))
        template = template_for(compiled)
        assert compiled.loops.order == (1, 0)
        assert (template.skew.dims, template.skew.tau) == ((1, 0), (2, 1))
        assert template.native_order == "planes"
        assert "t < n0 + 2 * (n1 - 1)" in template.source
        assert_native_matches_everything(compiled, [a])

    def test_wide_block_loops_its_carrier_outermost(self):
        n, width = 40, 8
        a = uniform((n, width), 17, "a", fluff=2)

        def body():
            a[...] = 0.3 + 0.4 * (a.p @ (0, -1)) + 0.2 * (a.p @ (-1, -1))

        compiled = compile_scan(scan(zpl.Region.of((3, n), (3, width)), body))
        assert compiled.loops.order[0] == 0
        loops = [line for line in template_for(compiled).source.splitlines() if "for (" in line]
        assert loops[0].strip() == "for (long long i1 = 0; i1 < n1; i1++)"
        assert_native_matches_everything(compiled, [a])

    def test_outer_row_skews_keep_the_oracle_text(self):
        """Tomcatv (no skew) and the banded DP (τ on the outer loop): warm
        kernel caches stay warm."""
        state = tomcatv.build(17, seed=3)
        tomcatv.coefficients_phase(state)
        tomcatv.prepare_solve(state)
        n = 12
        a, m = uniform((n, n), 18, "a", fluff=2), uniform((n, n), 19, "m", fluff=2)
        m._data[...] = (m._data > 1.0).astype(float)
        with zpl.masked(m):
            banded = scan(
                zpl.Region.of((2, n), (1, n)),
                lambda: a.__setitem__(
                    ..., 0.2 + 0.45 * (a.p @ (-1, 0)) + 0.3 * (a.p @ (-1, -1))
                ),
            )
        forward, banded = tomcatv.compile_forward(state), compile_scan(banded)
        assert template_for(forward).skew is None
        assert template_for(banded).skew.dims == banded.loops.order[:1]
        assert template_for(banded).native_order == "planes"
        for compiled in (forward, banded):
            assert template_for(compiled).native().source == oracle_text(compiled)


class TestFallbacks:
    """Unsupported constructs are decided by inspection and counted once."""

    @pytest.mark.parametrize(
        "rhs, why",
        [
            (lambda a, b: zpl.exp(a.p @ (-1, 0)) * 0.1, "operator 'exp'"),
            (lambda a, b: (a.p @ (-1, 0)) ** 2.0 * 0.1, "operator '**'"),
            (lambda a, b: (a.p @ (-1, 0)) * 0.5 + ((a < b) + (b < a)),
             "operator '+' on comparison results"),
        ],
    )
    def test_unsupported_operator_keeps_numpy(self, rhs, why):
        n = 8
        a, b = uniform((n, n), 11, "a"), uniform((n, n), 12, "b")
        compiled = compile_scan(
            scan(zpl.Region.of((2, n), (1, n)), lambda: a.__setitem__(..., rhs(a, b)))
        )
        template = template_for(compiled)
        KERNEL_STATS.reset()
        assert template.native() is None and why in template.native_error
        assert native_obstacle(compiled.statements).startswith(why)
        for _ in range(3):
            execute_vectorized(compiled)
        assert KERNEL_STATS.fallbacks == 1  # per template, not per run
        assert_bit_identical(engine_matrix(compiled, [a, b]), [a, b])

    def test_non_float64_array_keeps_numpy(self):
        n = 8
        a = uniform((n, n), 13, "a")
        w = zpl.ZArray(zpl.Region.square(1, n), name="w", dtype=np.int64, fill=2)
        compiled = compile_scan(
            scan(zpl.Region.of((2, n), (1, n)),
                 lambda: a.__setitem__(..., (a.p @ (-1, 0)) * 0.5 + w))
        )
        assert template_for(compiled).native() is None
        assert "int64 array 'w'" in template_for(compiled).native_error

    def test_no_looped_dimension_is_numpy_by_design(self):
        n = 8
        a, b = uniform((n, n), 14, "a"), uniform((n, n), 15, "b")
        compiled = compile_scan(
            scan(zpl.Region.square(1, n), lambda: a.__setitem__(..., b * 2.0))
        )
        template = template_for(compiled)
        KERNEL_STATS.reset()
        assert template.native() is None and template.native_error is None
        assert KERNEL_STATS.fallbacks == 0

    def test_absent_toolchain_is_one_counted_fallback_per_template(self, no_compiler):
        block, arrays = record_tomcatv_block(8)
        compiled = compile_scan(block)
        KERNEL_STATS.reset()
        for _ in range(3):
            execute_vectorized(compiled)
        assert KERNEL_STATS.fallbacks == 1
        assert "no C compiler" in template_for(compiled).native_error
        assert list(template_for(compiled).plans) == [(compiled.region.ranges, False)]


# ---------------------------------------------------------------------------
# Who compiles, and how often: fresh interpreters, private cache, recording CC
# ---------------------------------------------------------------------------
PROGRAM = textwrap.dedent(
    """
    import hashlib, json, sys
    import numpy as np
    from repro import zpl
    from repro.compiler import compile_scan
    from repro.runtime import KERNEL_STATS, execute_vectorized
    from repro.runtime.kernels import template_for

    def block(n):
        rng = np.random.default_rng(7)
        arrays = {
            name: zpl.from_numpy(rng.uniform(0.5, 1.5, (n, n)), base=1, name=name)
            for name in ("zeta", "alpha", "mu", "beta")  # set/dict order bait
        }
        z, a, m, b = (arrays[k] for k in ("zeta", "alpha", "mu", "beta"))
        with zpl.covering(zpl.Region.of((2, n), (2, n))):
            with zpl.scan(execute=False) as blk:
                m[...] = zpl.maximum(z.p @ (-1, 0), a @ (0, 1)) * 0.25 + b
                z[...] = m / (1.5 + zpl.index(1)) - zpl.minimum(b @ (0, -1), 0.75)
        return compile_scan(blk)

    out = {}
    for n in SIZES:
        compiled = block(n)
        execute_vectorized(compiled)
        template = template_for(compiled)
        kern = template.native()
        out[n] = {
            "sha": kern and hashlib.sha256(kern.source.encode()).hexdigest(),
            "info": kern and kern.info,
            "error": template.native_error,
            "native_plans": sum(k[1] == "native" for k in template.plans),
        }
    out["fallbacks"] = KERNEL_STATS.fallbacks
    print(json.dumps(out))
    """
)


def make_stub(tmp_path) -> tuple[str, Path]:
    """A ``$CC`` that appends one line per invocation, then runs the real one."""
    log = tmp_path / "cc.log"
    stub = tmp_path / "recording-cc"
    stub.write_text(f'#!/bin/sh\necho run >> "{log}"\nexec cc "$@"\n')
    stub.chmod(stub.stat().st_mode | stat.S_IXUSR)
    return str(stub), log


def fresh(tmp_path, sizes=(9,), wait=True, **env):
    """Run :data:`PROGRAM` in a new interpreter on ``tmp_path``'s cache."""
    child_env = {
        **os.environ, "PYTHONPATH": SRC, "XDG_CACHE_HOME": str(tmp_path / "cache"),
        **env,
    }
    child = subprocess.Popen(
        [sys.executable, "-c", PROGRAM.replace("SIZES", repr(tuple(sizes)))],
        env=child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if not wait:
        return child
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    return json.loads(out)


def invocations(log: Path) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


@needs_cc
class TestCacheAndToolchain:
    def test_same_text_under_different_hash_seeds(self, tmp_path):
        shas = {
            fresh(tmp_path, PYTHONHASHSEED=seed)["9"]["sha"] for seed in ("1", "4242")
        }
        assert len(shas) == 1 and None not in shas

    def test_three_region_sizes_compile_once_and_a_warm_start_never(self, tmp_path):
        stub, log = make_stub(tmp_path)
        cold = fresh(tmp_path, sizes=(9, 14, 23), CC=stub)
        assert invocations(log) == 1 and cold["fallbacks"] == 0
        assert [cold[n]["info"]["cache"] for n in ("9", "14", "23")] == [
            "miss", "hit", "hit"
        ]
        assert len({cold[n]["sha"] for n in ("9", "14", "23")}) == 1
        warm = fresh(tmp_path, sizes=(9, 14, 23), CC=stub)
        assert invocations(log) == 1  # zero compiler runs in the second interpreter
        assert warm["fallbacks"] == 0
        assert all(warm[n]["native_plans"] == 1 for n in ("9", "14", "23"))
        assert all(warm[n]["info"] == {"cache": "hit", "cc_ms": 0.0} for n in ("9", "14"))

    def test_concurrent_publishers_both_end_with_a_loadable_object(self, tmp_path):
        stub, log = make_stub(tmp_path)
        children = [fresh(tmp_path, wait=False, CC=stub) for _ in range(2)]
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            assert '"native_plans": 1' in out and '"fallbacks": 0' in out
        names = os.listdir(tmp_path / "cache" / "repro-kernels")
        assert len(names) == 1 and names[0].endswith(".so")  # no partial file
        before = invocations(log)
        assert fresh(tmp_path, CC=stub)["9"]["info"]["cache"] == "hit"
        assert invocations(log) == before

    def test_broken_compiler_is_probed_once_per_process(self, tmp_path):
        log = tmp_path / "cc.log"
        stub = tmp_path / "broken-cc"
        stub.write_text(f'#!/bin/sh\necho x >> "{log}"\necho "boom: no backend" >&2\nexit 3\n')
        stub.chmod(stub.stat().st_mode | stat.S_IXUSR)
        out = fresh(tmp_path, sizes=(9, 14), CC=str(stub))
        assert invocations(log) == 1  # the second template asks the memo
        assert out["fallbacks"] == 2
        assert "exited 3: boom: no backend" in out["9"]["error"] == out["14"]["error"]
        assert out["9"]["native_plans"] == 0

    def test_missing_compiler_spawns_nothing(self, tmp_path):
        out = fresh(tmp_path, CC="no-such-compiler-anywhere")
        assert out["fallbacks"] == 1
        assert "'no-such-compiler-anywhere' not found" in out["9"]["error"]
        assert not (tmp_path / "cache").exists()

    def test_cache_directory_is_private_and_foreign_ones_are_refused(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        host = native.Host()
        assert host.probe() is None and host.dir == str(tmp_path / "repro-kernels")
        assert stat.S_IMODE(os.stat(host.dir).st_mode) == 0o700
        monkeypatch.setattr(os, "getuid", lambda: os.stat(host.dir).st_uid + 1)
        foreign = native.Host()
        assert "is owned by uid" in foreign.probe()
        assert foreign.load("void kernel(void) {}") == (None, {"error": foreign.error})
        monkeypatch.undo()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        os.rmdir(tmp_path / "repro-kernels")
        (tmp_path / "repro-kernels").write_text("not a directory")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        blocked = native.Host()  # cannot create here: the temp directory serves
        assert blocked.probe() is None
        assert blocked.dir == str(tmp_path / "tmp" / f"repro-kernels-{os.getuid()}")

    def test_cache_is_pruned_to_its_cap_on_publish(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "CACHE_CAP", 3)
        host = native.Host()
        texts = [f"void kernel(void *a, void *b) {{ /* {k} */ }}\n" for k in range(5)]
        for k, text in enumerate(texts):
            fn, info = host.load(text)
            assert fn is not None and info["cache"] == "miss"
            newest = max(os.scandir(host.dir), key=lambda e: e.stat().st_mtime_ns)
            os.utime(newest.path, ns=(k, k))  # a strict publish order
        assert len(os.listdir(host.dir)) == 3
        assert host.load(texts[4])[1]["cache"] == "hit"  # memoised
        assert native.Host().load(texts[4])[1]["cache"] == "hit"  # on disk
        assert native.Host().load(texts[0])[1]["cache"] == "miss"  # pruned

    def test_workers_load_but_never_compile(self, tmp_path):
        """A pool on a cold cache: the planner publishes, the workers load."""
        stub, log = make_stub(tmp_path)
        script = textwrap.dedent(
            """
            import os, sys
            import numpy as np
            from repro.compiler import compile_scan
            from repro.obs import Tracer
            from repro.parallel import WorkerPool
            from repro.runtime import ArraySnapshot, execute_loopnest
            sys.path.insert(0, os.environ["REPO_ROOT"])
            from tests.conftest import record_tomcatv_block

            block, arrays = record_tomcatv_block(24)
            compiled = compile_scan(block)
            snap = ArraySnapshot(arrays)
            with WorkerPool(2) as pool:  # workers exist before anything compiled
                tracer = Tracer()
                pool.execute(compiled, block=6, timeout=60, tracer=tracer)
            got = snap.capture_current()
            snap.restore()
            execute_loopnest(compiled)
            assert all(np.array_equal(g, w) for g, w in zip(got, snap.capture_current()))
            spans = [s for s in tracer.spans if s.name == "kernel_compile"]
            workers = {s.proc for s in spans}
            assert len(workers) == 2, workers
            assert all(s.args["native"] and s.args["cache"] == "hit" for s in spans), spans
            print(os.getpid())
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script], text=True, capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC, "CC": stub,
                 "XDG_CACHE_HOME": str(tmp_path / "cache"),
                 "REPO_ROOT": str(Path(SRC).parent)},
        )
        assert done.returncode == 0, done.stderr
        assert invocations(log) == 1  # the planner's; the workers loaded


def test_sha_is_of_the_text_not_of_the_plan_fingerprint():
    """Two region sizes of one program: different fingerprints, same C text."""
    from repro.runtime.kernels import plan_fingerprint

    compiled = [compile_scan(record_tomcatv_block(n)[0]) for n in (8, 12)]
    assert plan_fingerprint(compiled[0]) != plan_fingerprint(compiled[1])
    if native.HOST.probe() is None:
        texts = {template_for(c).native().source for c in compiled}
        assert len({hashlib.sha256(t.encode()).hexdigest() for t in texts}) == 1
