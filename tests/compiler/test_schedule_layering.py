"""Layering guard for the schedule IR (``repro.compiler.schedule``).

The geometry of a distributed wavefront is derived in one module that both
the simulator and the real executors import *down* to.  These scans keep it
that way: nothing in ``repro.compiler`` reaches up into the simulator's
schedules or the parallel layer, the simulator never touches a transport,
and each planner refusal is raised from exactly one place.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _trees(root: Path):
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    for path in paths:
        yield path, ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree: ast.AST) -> set[str]:
    """Every dotted module name the tree imports, at any nesting depth
    (``from a.b import c`` counts as ``a.b`` and ``a.b.c``)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _offenders(root: Path, forbidden: tuple[str, ...]) -> list[str]:
    return [
        f"{path.relative_to(SRC)} imports {name}"
        for path, tree in _trees(root)
        for name in sorted(_imported_modules(tree))
        if any(name == bad or name.startswith(bad + ".") for bad in forbidden)
    ]


def test_compiler_imports_nothing_from_the_simulator_schedules_or_parallel():
    forbidden = ("repro.machine.schedules", "repro.parallel")
    assert _offenders(SRC / "repro" / "compiler", forbidden) == []


def test_schedule_ir_reads_no_environment_and_no_machine():
    for module in ("schedule.py", "grid.py", "distribution.py"):
        path = SRC / "repro" / "compiler" / module
        assert _offenders(path, ("os", "repro.machine")) == []


def test_simulator_schedules_import_no_transport():
    transports = tuple(
        f"repro.parallel.{name}"
        for name in ("executor", "pool", "worker", "collectives", "sharedmem")
    )
    path = SRC / "repro" / "machine" / "schedules.py"
    assert _offenders(path, transports) == []


def test_simulator_schedules_derive_no_geometry_of_their_own():
    source = (SRC / "repro" / "machine" / "schedules.py").read_text()
    assert "BlockMap(" not in source
    assert "chunk_regions" not in source


def _raise_sites(phrase: str) -> list[str]:
    """``raise`` statements under ``src/`` whose message contains ``phrase``."""
    sites = []
    for path, tree in _trees(SRC):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            text = "".join(
                part.value
                for part in ast.walk(node.exc)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
            if phrase in text:
                sites.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return sites


def test_each_shared_refusal_has_exactly_one_raising_site():
    for phrase in (
        "would couple the pipeline chains",
        "no chunkable dimension",
        "points upstream",
        "points against the chunk traversal",
    ):
        sites = _raise_sites(phrase)
        assert len(sites) == 1, (phrase, sites)
        assert sites[0].startswith("repro/compiler/schedule.py"), sites
