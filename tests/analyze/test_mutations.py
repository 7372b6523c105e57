"""Certifier soundness: the mutation harness.

A verifier that accepts everything is worthless.  Every registered plan
mutation corrupts one aspect of one sync protocol — dropped tokens, cyclic
waits, shrunken pending counts, self-waiting ranks — and the certifier
must flag each mutant with exactly the expected diagnostic code, while the
unmutated plan stays clean.  The registry must stay at or above ten
distinct mutations spanning all three protocols (pipes, taskgraph,
multicast), at least three each.
"""

import numpy as np
import pytest

from repro import zpl
from repro.analyze.certify import (
    MUTATIONS,
    MutationUnsupported,
    apply_mutation,
    build_schedule_model,
    certify_model,
    mutants,
    schedule_kwargs,
)
from repro.analyze.diagnostics import Severity
from repro.compiler import compile_scan
from repro.zpl import NORTH, Region

#: The pseudo-schedule whose model each protocol's mutations corrupt.
PROTOCOL_SCHEDULE = {
    "pipes": "pipelined",
    "taskgraph": "taskgraph",
    "multicast": "multicast",
}


def _single_stream(n=32):
    a = zpl.ZArray(Region.square(1, n), name="a")
    rng = np.random.default_rng(5)
    a.load(rng.uniform(0.2, 1.0, size=(n, n)))
    with zpl.covering(Region.of((2, n), (1, n))):
        with zpl.scan(execute=False) as block:
            a[...] = 0.9 * (a.p @ NORTH) + 0.1
    return compile_scan(block), (a,)


def _model_for(protocol):
    compiled, _ = _single_stream()
    return build_schedule_model(
        compiled,
        grid=4,
        block=4,
        **schedule_kwargs(PROTOCOL_SCHEDULE[protocol]),
    )


def test_registry_meets_the_acceptance_bar():
    assert len(MUTATIONS) >= 10
    protocols = {m.protocol for m in MUTATIONS.values()}
    assert protocols == {"pipes", "taskgraph", "multicast"}
    for protocol in protocols:
        count = sum(
            1 for m in MUTATIONS.values() if m.protocol == protocol
        )
        assert count >= 3, f"protocol {protocol} needs >= 3 mutations"


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_mutation_is_flagged_with_its_code(name):
    mutation = MUTATIONS[name]
    model = _model_for(mutation.protocol)
    assert certify_model(model) == [], "baseline must certify clean"
    _, mutant = apply_mutation(model, name)
    diagnostics = certify_model(mutant)
    codes = {d.code for d in diagnostics}
    assert mutation.expected in codes, (
        f"mutation {name!r} must provoke {mutation.expected}, got {codes}"
    )
    assert all(
        d.severity is Severity.ERROR
        for d in diagnostics
        if d.code == mutation.expected
    )


def test_unknown_mutation_is_rejected():
    model = _model_for("pipes")
    with pytest.raises(MutationUnsupported, match="unknown mutation"):
        apply_mutation(model, "no-such-mutation")


def test_protocol_mismatch_is_unsupported():
    model = _model_for("taskgraph")
    with pytest.raises(MutationUnsupported):
        apply_mutation(model, "drop-token")


def test_mutants_generator_covers_each_protocol():
    for protocol in PROTOCOL_SCHEDULE:
        model = _model_for(protocol)
        produced = list(mutants(model))
        expected = [
            name
            for name, m in MUTATIONS.items()
            if m.protocol == protocol
        ]
        assert len(produced) == len(expected)
        for mutation, mutant in produced:
            codes = {d.code for d in certify_model(mutant)}
            assert mutation.expected in codes
