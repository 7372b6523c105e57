"""The scan-block compiler: dependence analysis, legality, loop structure.

Pipeline (``compile_scan``):

1. static legality checks (Section 2.2, conditions i/iii/iv/v);
2. hoisting of parallel operators into temporaries (Section 3.2);
3. unconstrained distance vector extraction, with primed references negated
   (Section 3.1);
4. per-dimension parallelism classification from the true dependences
   (parallel / pipelined / serial — Section 2.2's three cases);
5. loop-structure derivation, which doubles as the over-constraint check
   (condition ii);
6. packaging into an engine-agnostic :class:`~repro.compiler.lowering.CompiledScan`.
"""

from repro.compiler.udv import (
    DepKind,
    Dependence,
    extract_dependences,
    true_vectors,
    constraint_vectors,
)
from repro.compiler.wsv import Sign, WSV, DimClass, f, wsv_of, wsv_of_vectors, classify
from repro.compiler.legality import check_scan_block
from repro.compiler.loopstruct import (
    LoopStructure,
    derive_loop_structure,
    structure_exists,
)
from repro.compiler.lowering import (
    CompiledScan,
    HoistedTemp,
    compile_scan,
    compile_statements,
)
from repro.compiler.fusion import can_fuse, fuse_groups
from repro.compiler.contraction import contract, contractible
from repro.compiler.skew import (
    Skew,
    derive_skew,
    derive_time_vector,
    legal_time_vector,
    looped_dims,
    planes_independent,
)

__all__ = [
    "DepKind",
    "Dependence",
    "extract_dependences",
    "true_vectors",
    "constraint_vectors",
    "Sign",
    "WSV",
    "DimClass",
    "f",
    "wsv_of",
    "wsv_of_vectors",
    "classify",
    "check_scan_block",
    "LoopStructure",
    "derive_loop_structure",
    "structure_exists",
    "CompiledScan",
    "HoistedTemp",
    "compile_scan",
    "compile_statements",
    "can_fuse",
    "fuse_groups",
    "contract",
    "contractible",
    "Skew",
    "derive_skew",
    "derive_time_vector",
    "legal_time_vector",
    "looped_dims",
    "planes_independent",
]
