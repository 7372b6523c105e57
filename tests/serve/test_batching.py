"""The batcher dispatches as soon as compute is free, never on a timer."""

import asyncio

from repro.serve import Batcher, FIFOPolicy, parse_align


def test_lone_request_is_served_without_the_clock_advancing():
    async def scenario():
        batcher = Batcher(
            lambda key, requests: [len(r.a) for r in requests],
            FIFOPolicy(),
            clock=lambda: 0.0,
        )
        batcher.start()
        try:
            future = batcher.submit(
                parse_align({"kind": "nw", "a": "ACGT", "b": "ACG"})
            )
            return await asyncio.wait_for(future, 5)
        finally:
            await batcher.close()

    result = asyncio.run(scenario())
    assert result.value == 4
    assert result.batch_size == 1
    assert result.queue_wait == 0.0
