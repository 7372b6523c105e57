"""``python -m repro.serve`` — run a server, or the CI smoke check.

Two subcommands:

* ``serve`` (the default) — start an HTTP server and run until
  interrupted.  ``--trace PATH`` saves the recorded ``serve_request`` /
  ``serve_batch`` spans as a :mod:`repro.obs` trace on shutdown, ready
  for ``python -m repro.obs summarize PATH``.
* ``smoke`` — start a server on an ephemeral port, drive it through the
  serving contract (correct scores, a malformed payload → 400, a flood
  against a tiny queue → 429 + ``Retry-After`` and coalesced batches,
  clean shutdown) and exit non-zero on any violation.  ``--bench-out``
  additionally runs a small stepped-QPS measurement and writes
  ``BENCH_serve.json`` — the artifact CI uploads.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.obs import Tracer
from repro.serve.server import ServeApp, ServeConfig, serve_forever


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Async batch-serving front end for wavefront programs.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8077,
                       help="TCP port (0 picks an ephemeral one)")
        p.add_argument("--batch-max", type=int, default=32,
                       help="largest fused dispatch")
        p.add_argument("--max-queue", type=int, default=128,
                       help="admission bound on pending requests")
        p.add_argument("--timeout", type=float, default=30.0,
                       help="per-request deadline in seconds")
        p.add_argument("--policy", choices=("fifo", "sjf"), default="fifo")
        p.add_argument("--grid", type=int, default=None,
                       help="worker-pool size (default: in-process compute)")
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="save an obs trace of the run on shutdown")

    run = sub.add_parser("serve", help="run a server until interrupted")
    add_common(run)
    smoke = sub.add_parser("smoke", help="self-checking CI smoke run")
    add_common(smoke)
    smoke.add_argument("--bench-out", default=None, metavar="DIR",
                       help="also write BENCH_serve.json into DIR")
    return parser


def _config(args: argparse.Namespace, **overrides) -> ServeConfig:
    values = dict(
        host=args.host, port=args.port, batch_max=args.batch_max,
        max_queue=args.max_queue, timeout=args.timeout, policy=args.policy, grid=args.grid,
        tracer=Tracer() if args.trace else None,
    )
    values.update(overrides)
    return ServeConfig(**values)


def _run_serve(args: argparse.Namespace) -> int:
    config = _config(args)

    def ready(app: ServeApp) -> None:
        print(f"repro.serve listening on http://{config.host}:{app.port} "
              f"(policy={config.policy}, batch_max={config.batch_max}, "
              f"queue={config.max_queue})",
              flush=True)
        ready.app = app

    ready.app = None
    try:
        asyncio.run(serve_forever(config, ready))
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    if args.trace and ready.app is not None:
        path = ready.app.trace().save(args.trace)
        print(f"trace written to {path}", flush=True)
    return 0


async def _smoke(args: argparse.Namespace) -> int:
    from repro.apps.alignment import nw_score_oracle
    from repro.serve.client import (
        ServeClient, run_open_loop, summarize,
    )

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    # A deliberately tiny queue so the flood below must shed.
    config = _config(args, port=0, max_queue=8, batch_max=8)
    app = ServeApp(config)
    await app.start()
    host, port = config.host, app.port
    try:
        async with ServeClient(host, port) as client:
            status, _, body = await client.get("/healthz")
            check(status == 200 and body.get("ok") is True, "healthz answers")

            # Correctness: a concurrent same-shape burst, scores vs oracle.
            pairs = [("GATTACA", "GCATGCU"), ("ACGTACG", "TACGTAC"),
                     ("AAAACCC", "AAACCCC"), ("GATTACA", "GCATGCU")]
            bursts = await asyncio.gather(*(
                _score(host, port, "nw", a, b) for a, b in pairs
            ))
            good = all(
                s == 200 and abs(r["score"] - nw_score_oracle(a, b, 2.0, -1.0, 1.0))
                < 1e-9
                for (s, r), (a, b) in zip(bursts, pairs)
            )
            check(good, "concurrent nw scores match the oracle")

            status, body = await _score(host, port, "sw", "GGTTGACTA", "TGTTACGG")
            check(status == 200 and body["score"] > 0, "sw score served")

            # Malformed payloads are typed 400s, and do not poison the next.
            status, _, body = await client.post("/v1/align", {"kind": "nope"})
            check(status == 400 and body.get("error") == "bad_request",
                  "malformed payload yields typed 400")
            status, _, _ = await client.post("/v1/align", None)
            check(status == 400, "missing body yields 400")
            status, body = await _score(host, port, "nw", "ACGT", "ACG")
            check(status == 200, "requests after a malformed one still succeed")

        # Overload: a burst far beyond the queue bound must shed with 429s.
        big = "ACGT" * 128
        flood = await asyncio.gather(*(
            _score(host, port, "nw", big, big) for _ in range(48)
        ))
        shed = [r for s, r in flood if s == 429]
        served = sum(1 for s, _ in flood if s == 200)
        check(bool(shed), f"flood shed {len(shed)}/48 with 429 ({served} served)")
        rejected = next((r for s, r in flood if s == 429), {})
        check("retry_after" in rejected, "429 carries a retry_after hint")
        # A 429 means max_queue same-key requests were pending at once, so
        # the dispatch after it took batch_max of them.
        check(any(s == 200 and r.get("batch", 0) > 1 for s, r in flood),
              "the shed flood coalesced into batches")

        async with ServeClient(host, port) as client:
            status, _, metrics = await client.get("/metrics")
            check(
                status == 200
                and metrics["requests"]["completed"] >= 5
                and metrics["batches"]["dispatched"] >= 1,
                "metrics endpoint reports the run",
            )

        if args.bench_out:
            samples = await run_open_loop(
                host, port, lambda i: {"kind": "nw", "a": "ACGTACGT",
                                       "b": "TACGTACG"},
                qps=50, duration=1.0,
            )
            from repro.util.benchjson import write_bench
            record = {"mode": "smoke", "qps": 50, **summarize(samples, 1.0)}
            path = write_bench("serve", [record],
                               meta={"source": "repro.serve smoke"},
                               directory=args.bench_out)
            print(f"bench written to {path}", flush=True)
    finally:
        await app.stop()
    check(app.batcher.depth == 0, "clean shutdown with an empty queue")
    if args.trace:
        app.trace().save(args.trace)
    print(json.dumps({"failures": failures}), flush=True)
    return 1 if failures else 0


async def _score(host: str, port: int, kind: str, a: str, b: str):
    from repro.serve.client import ServeClient

    async with ServeClient(host, port) as client:
        status, _headers, body = await client.post(
            "/v1/align", {"kind": kind, "a": a, "b": b}
        )
        return status, body


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # "serve" is the default subcommand: `python -m repro.serve --port N`
    # works without naming it (but `-h` still shows the top-level help).
    if not argv or argv[0] not in ("serve", "smoke", "-h", "--help"):
        argv = ["serve", *argv]
    args = _build_parser().parse_args(argv)
    if args.command == "smoke":
        return asyncio.run(_smoke(args))
    return _run_serve(args)


if __name__ == "__main__":
    sys.exit(main())
