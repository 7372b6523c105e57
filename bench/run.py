#!/usr/bin/env python3
"""One benchmark for the whole path.  Three ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one run (the form ``BENCHMARK.json`` names).  Prints every
    metric by name and unit and, as the last line, one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
    metrics from an untraced loop (``--trace 0``) or the per-layer metrics
    from a shorter untraced loop, a traced loop and direct probes
    (``--trace 1``).

``run.py --seed N --out FILE [--runs K] [--smoke]``
    All seven workloads, K runs each on seeds N..N+K-1, written as one JSON
    document with the host block; per-layer metrics a workload does not
    touch are left out.

``run.py compare A.json B.json``
    B against A per (workload, end-to-end metric) under the bounds in
    ``BENCHMARK.json``; exits 1 on a regression.

Every run happens in fresh child interpreters of this file with all
``REPRO_*`` variables cleared.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import subprocess
import sys
import time

STARTED = time.perf_counter()  # a child's set-up clock starts before its imports

from harness import (  # noqa: E402  (stdlib-only module)
    ROOT, clean_env, cores_awake, host_block, load_spec, median, peak_rss_mib,
    percentile, shm_segments, spread, tail_p90, with_units,
)

SCHEMA = "repro-bench/1"
#: Set-ups per run (fresh interpreters); ``setup_s`` is the fastest, for the
#: reason ``run_ms_p10`` is a low percentile: this host's noise only adds time.
SETUPS = 5
WARMUPS = 5
MIN_SAMPLES = 10
#: A ``--trace 1`` run splits its seconds: untraced loop, traced loop, and
#: the remainder is what the direct probes are expected to take.
TRACE_SPLIT = (0.40, 0.35)
CHILD_TIMEOUT = 170.0


# ---------------------------------------------------------------------------
# Child: one workload in this interpreter
# ---------------------------------------------------------------------------
def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py _child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--untraced", type=float, required=True)
    parser.add_argument("--traced", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    segments_before = shm_segments()
    from workloads import WORKLOADS  # numpy + repro: a user pays this import too

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    warmups, min_samples = (1, 3) if args.smoke else (WARMUPS, MIN_SAMPLES)
    loops, traced, oracle_s = [], None, 0.0
    try:
        workload.setup()
        setup_s = time.perf_counter() - STARTED
        if not args.setup_only:
            start = time.perf_counter()
            workload.build_oracle()
            oracle_s = time.perf_counter() - start
            loops.append(workload.measure(0.0, warmups, False))
            untraced = workload.measure(args.untraced, min_samples, False)
            loops.append(untraced)
            if not untraced.times_ms:
                print("no call completed:", *untraced.errors, sep="\n  ", file=sys.stderr)
                return 1
            if args.traced > 0:
                traced = workload.measure(args.traced, min_samples, True)
                loops.append(traced)
            workload.summarise(untraced, traced)
            if traced is not None:
                workload.probes()
    finally:
        workload.teardown()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    failures = list(workload.failures)
    if workload.layers.get("runtime.fallbacks"):
        failures.append("the kernel engine fell back to the interpreter")
    leaked = shm_segments() - segments_before
    if leaked:
        failures.append(f"leaked /dev/shm segments: {sorted(leaked)}")
    orphans = multiprocessing.active_children()
    if orphans:
        failures.append(f"children still alive after teardown: {orphans}")

    run_ms_p10 = percentile(untraced.times_ms, 10)
    result = {
        "setup_s": setup_s,
        "attempted": 1 + sum(loop.attempted for loop in loops),
        "failed": len(failures) + sum(loop.failed for loop in loops),
        "errors": failures + [e for loop in loops for e in loop.errors],
        "samples": len(untraced.times_ms),
        "end_to_end": {
            "run_ms_p10": run_ms_p10,
            "goodput_share": untraced.good / untraced.attempted,
            "peak_rss_mb": peak_rss_mib(),
        },
        "per_layer": {},
    }
    if traced is not None:
        layers = workload.layers
        layers["harness.samples"] = len(untraced.times_ms)
        layers["harness.oracle_s"] = oracle_s
        layers["harness.leaked_segments"] = len(leaked)
        if untraced.restore_ms:
            layers["harness.restore_ms_p50"] = median(untraced.restore_ms)
        layers["harness.run_ms_p50"] = median(untraced.times_ms)
        layers["harness.run_ms_p90"] = tail_p90(untraced.times_ms)
        layers["obs.trace_overhead_share"] = (
            percentile(traced.times_ms, 10) - run_ms_p10
        ) / run_ms_p10
        if host_block()["oversubscribed"]:
            layers.pop("parallel.speedup_vs_serial", None)
        result["per_layer"] = {k: v for k, v in layers.items() if v is not None}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent: children, aggregation, printing
# ---------------------------------------------------------------------------
def spawn_child(name, seed, untraced, traced, smoke, setup_only=False) -> dict:
    argv = [
        sys.executable, str(ROOT / "bench" / "run.py"), "_child",
        "--workload", name, "--seed", str(seed),
        "--untraced", repr(untraced), "--traced", repr(traced),
    ]
    argv += ["--smoke"] * smoke + ["--setup-only"] * setup_only
    done = subprocess.run(
        argv, env=clean_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT,
    )
    if done.returncode != 0:
        raise SystemExit(f"{name}: child exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name, seed, untraced, traced, smoke=False) -> dict:
    """One run: ``SETUPS - 1`` set-up-only children, then the measuring one."""
    with cores_awake():
        setups = [
            spawn_child(name, seed, 0.0, 0.0, smoke, setup_only=True)["setup_s"]
            for _ in range(0 if smoke else SETUPS - 1)
        ]
        result = spawn_child(name, seed, untraced, traced, smoke)
    setups.append(result.pop("setup_s"))
    result["end_to_end"]["setup_s"] = min(setups)
    return result


def print_metrics(title: str, metrics: dict, entries: dict) -> None:
    print(title)
    for name, entry in entries.items():
        if name in metrics:
            print(f"  {name:36s} {metrics[name]['value']:>16.6g} {entry['unit']}")
        else:
            print(f"  {name:36s} {'-':>16s} {entry['unit']}")


def single_main(args, spec) -> int:
    """The contract form: one workload, one run, one JSON line."""
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    trace = bool(args.trace)
    untraced, traced = (
        (args.seconds * TRACE_SPLIT[0], args.seconds * TRACE_SPLIT[1])
        if trace else (args.seconds, 0.0)
    )
    result = run_workload(args.workload, args.seed, untraced, traced)
    kind = "per_layer" if trace else "end_to_end"
    entries = spec["layers"] if trace else spec["e2e"]
    metrics = with_units(result[kind], entries)
    print_metrics(
        f"{args.workload}  seed={args.seed}  samples={result['samples']}  "
        f"attempted={result['attempted']}  failed={result['failed']}",
        metrics, entries,
    )
    # The contract wants every metric on every run: a layer this workload
    # does not touch reads 0 here (and is left out of the --out document).
    for name, entry in entries.items():
        metrics.setdefault(name, {"value": 0, "unit": entry["unit"]})
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def aggregate(runs: list[dict], kind: str, entries: dict) -> dict:
    """Per metric: every run's value, their median and their spread."""
    out = {}
    for name, entry in entries.items():
        values = [run[kind][name] for run in runs if name in run[kind]]
        if values:
            out[name] = {
                "value": median(values), "unit": entry["unit"],
                "values": values, "spread": spread(values),
            }
    return out


def matrix_main(args, spec) -> int:
    """All workloads, ``--runs`` runs each, one JSON document."""
    seconds = args.seconds or spec["run_seconds"]
    untraced, traced = (0.25, 0.2) if args.smoke else (seconds, seconds / 2)
    document = {
        "schema": SCHEMA, "seed": args.seed, "runs": args.runs,
        "smoke": args.smoke, "run_seconds": seconds, "host": host_block(),
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = [
            run_workload(name, args.seed + i, untraced, traced, args.smoke)
            for i in range(args.runs)
        ]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        row = {
            "why": workload["why"],
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "samples": [run["samples"] for run in runs],
            "errors": [e for run in runs for e in run["errors"]],
            "end_to_end": aggregate(runs, "end_to_end", spec["e2e"]),
            "per_layer": aggregate(runs, "per_layer", spec["layers"]),
        }
        document["workloads"][name] = row
        print_metrics(
            f"\n{name}  samples={row['samples']}  attempted={attempted}  "
            f"failed={failed}", {**row["end_to_end"], **row["per_layer"]},
            {**spec["e2e"], **spec["layers"]},
        )
        for error in row["errors"]:
            print(f"  FAILED: {error}")
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {args.out}")
    return 1 if any(w["failed"] for w in document["workloads"].values()) else 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(how much worse B's median is, as a share of A's; noise; verdict)."""
    base = median(a)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median(b) - base) / abs(base)
    noise = max(spread(a) or 0.0, spread(b) or 0.0)
    if noise > bound:
        # Too noisy for the medians to decide: only a clean separation of
        # every run on one side from every run on the other does.
        if min(sign * x for x in b) > max(sign * x for x in a) and worse_by > bound:
            return worse_by, noise, "REGRESSION"
        if max(sign * x for x in b) < min(sign * x for x in a):
            return worse_by, noise, "improved"
        return worse_by, noise, "unresolved"
    return worse_by, noise, "REGRESSION" if worse_by > bound else "ok"


def compare_main(argv: list[str], spec) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    print(f"A = {args.a} (host {doc_a['host']})")
    print(f"B = {args.b} (host {doc_b['host']})")
    print("B's change is given as a share of A's median; + is worse.")
    header = (
        f"{'workload':24s} {'metric':14s} {'A':>12s} {'B':>12s} "
        f"{'B vs A':>8s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    print(header)
    regressions = 0
    for name in (w["name"] for w in spec["workloads"]):
        row_a, row_b = doc_a["workloads"].get(name), doc_b["workloads"].get(name)
        if row_a is None or row_b is None:
            print(f"{name:24s} missing from {'A' if row_a is None else 'B'}")
            regressions += 1
            continue
        for metric, entry in spec["e2e"].items():
            a = row_a["end_to_end"][metric]["values"]
            b = row_b["end_to_end"][metric]["values"]
            worse_by, noise, word = verdict(a, b, entry["better"], entry["bound"])
            regressions += word == "REGRESSION"
            print(
                f"{name:24s} {metric:14s} {median(a):12.5g} {median(b):12.5g} "
                f"{worse_by:+8.1%} {entry['bound']:6.0%} {noise:7.1%}  {word}"
            )
        # failed_share may not rise at all.
        word = "REGRESSION" if row_b["failed_share"] > row_a["failed_share"] else "ok"
        regressions += word == "REGRESSION"
        print(
            f"{name:24s} {'failed_share':14s} {row_a['failed_share']:12.5g} "
            f"{row_b['failed_share']:12.5g} {'':8s} {'+0':>6s} {'':7s}  {word}"
        )
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------
def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if argv[:1] == ["_child"]:
        return child_main(argv[1:])
    spec = load_spec()
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:], spec)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload (contract form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="run every workload; write this JSON file")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one run, a few seconds in all")
    args = parser.parse_args(argv)
    if args.workload:
        args.seconds = args.seconds or spec["run_seconds"]
        return single_main(args, spec)
    if not args.out:
        parser.error("give --workload NAME, or --out FILE for the whole matrix")
    if args.smoke:
        args.runs = 1
    return matrix_main(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
