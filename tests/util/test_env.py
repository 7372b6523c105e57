"""Every ``REPRO_*`` switch reads one grammar, and a malformed knob is a
typed error naming its variable."""

import pytest

from repro.analyze import certify as certify_module
from repro.compiler import compile_scan
from repro.errors import MachineError
from repro.obs.live.flight import flight_enabled
from repro.obs.trace import tracing_enabled
from repro.parallel.plan import default_grid, preflight, resolve_knobs, resolve_run
from repro.util.env import OFF, ON
from tests.conftest import record_tomcatv_block


def _sanitize_on():
    return resolve_knobs(1).sanitize


def _certify_on(monkeypatch):
    seen = []
    monkeypatch.setattr(
        certify_module, "certify_execution", lambda plan: seen.append(plan)
    )
    block, _ = record_tomcatv_block(8)
    preflight(resolve_run(compile_scan(block), 1, block=2, static=True))
    return bool(seen)


#: ``(variable, reader, default)``; a reader takes ``monkeypatch``.
SWITCHES = [
    ("REPRO_TRACE", lambda mp: tracing_enabled(), False),
    ("REPRO_FLIGHT", lambda mp: flight_enabled(), True),
    ("REPRO_SANITIZE", lambda mp: _sanitize_on(), False),
    ("REPRO_CERTIFY", _certify_on, False),
]


@pytest.mark.parametrize(
    "name, read, default", SWITCHES, ids=[s[0] for s in SWITCHES]
)
def test_every_switch_reads_one_grammar(monkeypatch, name, read, default):
    monkeypatch.delenv(name, raising=False)
    assert read(monkeypatch) is default
    for value, want in (
        [("", default), ("  ", default)]
        + [(v, False) for v in OFF + (" OFF ", "No")]
        + [(v, True) for v in ON + (" ON ", "Yes")]
    ):
        monkeypatch.setenv(name, value)
        assert read(monkeypatch) is want, (name, value)
    monkeypatch.setenv(name, "maybe")
    with pytest.raises(MachineError, match=name):
        read(monkeypatch)


def test_malformed_max_procs_is_a_typed_error(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_MAX_PROCS", "four")
    with pytest.raises(MachineError, match="REPRO_PARALLEL_MAX_PROCS"):
        default_grid()
    monkeypatch.setenv("REPRO_PARALLEL_MAX_PROCS", "1")
    assert default_grid().size == 1
