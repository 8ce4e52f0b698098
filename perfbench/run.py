"""The repository's end-to-end benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload build-dense --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that records spans around the calls into
each layer and prints the per-layer metrics (and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json``).  The last line of
standard output is the JSON result; the line before it is the full
report, with every named metric and its unit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402
from common import emit, median, metric, workdir  # noqa: E402

BASES = (
    "all", "approximate", "dg", "exact", "generic", "informative",
    "informative-reduced", "luxenburger", "luxenburger-reduced",
)

#: Per-layer metrics of a traced run: name -> (unit, span name or None).
#: A span-backed value is the median duration of the named spans of the
#: workload's timed operations (set-up spans when the operations never
#: enter that layer).  A layer a workload does not run reports 0.
PER_LAYER = {
    "data.context_s": ("s", "data.context"),
    "algorithms.apriori_s": ("s", "algorithms.apriori"),
    "algorithms.close_s": ("s", "algorithms.close"),
    "algorithms.candidates_n": ("count", None),
    "algorithms.frequent_n": ("count", None),
    "algorithms.closed_n": ("count", None),
    "engine.closure_cache_hit_ratio": ("ratio", None),
    "lattice.build_s": ("s", "lattice.build"),
    "lattice.edges_n": ("count", None),
    **{f"bases.{name}_s": ("s", f"bases.{name}") for name in BASES},
    **{f"bases.{name}_rules_n": ("count", None) for name in BASES},
    "store.save_s": ("s", "store.save"),
    "store.bytes": ("bytes", None),
    "store.load_s": ("s", "store.load"),
    "store.verify_s": ("s", "store.verify"),
    "serve.load_s": ("s", "serve.load"),
    "recommend.index_s": ("s", "recommend.index"),
    "derivation.build_s": ("s", "derivation.build"),
    "serve.reload_s": ("s", None),
    "serve.reload_stall_ms": ("ms", None),
    "serve.app_ms.recommend": ("ms", None),
    "serve.app_ms.rules": ("ms", None),
    "serve.app_ms.derive": ("ms", None),
    "serve.app_ms.bases": ("ms", None),
    "recommend.query_ms": ("ms", None),
    "recommend.matched_rules_mean": ("count", None),
    "derivation.derive_ms": ("ms", None),
    "serve.json_ms": ("ms", None),
    "serve.transport_ms": ("ms", None),
    "serve.cache_hit_ratio": ("ratio", None),
    "serve.cache_evictions_n": ("count", None),
    "serve.generator_lag_ms": ("ms", None),
    "incremental.update_mining_s": ("s", "incremental.update_mining"),
    "incremental.damage_ratio": ("ratio", None),
    "incremental.fallback_ratio": ("ratio", None),
    "incremental.reclosed_n": ("count", None),
    "bases.rebuild_s": ("s", "bases.rebuild"),
    "trace.overhead_ratio": ("ratio", None),
    "trace.uncovered_ratio": ("ratio", None),
}


def layer_metrics(tracer, measured: dict, sizes: dict) -> dict:
    """Every per-layer metric: span medians, engine counters, sizes, workload values."""
    layers = {name: metric(0.0, unit) for name, (unit, _) in PER_LAYER.items()}
    for name, (unit, span_name) in PER_LAYER.items():
        if span_name is None:
            continue
        spans = [s for s in tracer.spans if s["name"] == span_name]
        timed = [s for s in spans
                 if not str(s["request"]).startswith(("setup-", "probe-"))] or spans
        if timed:
            layers[name] = metric(median(s["end"] - s["start"] for s in timed), unit)
    hits = sum(tracer.counters.get("engine.closure_cache_hits", []))
    misses = sum(tracer.counters.get("engine.closure_cache_misses", []))
    if hits + misses:
        layers["engine.closure_cache_hit_ratio"] = metric(hits / (hits + misses), "ratio")
    for name, value in sizes.items():
        if name in layers:
            layers[name] = metric(value, PER_LAYER[name][0])
    for name, value in measured.items():
        layers[name] = metric(value, PER_LAYER[name][0])
    return layers


def workloads() -> dict:
    import workload_append
    import workload_build
    import workload_serve

    return {
        "build-dense": workload_build.run,
        "serve-dense": workload_serve.run,
        "append-sparse": workload_append.run,
    }


def _interrupt(signum, frame):
    raise SystemExit(128 + signum)


def _timeout(signum, frame):
    raise TimeoutError("benchmark run exceeded its time limit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("build-dense", "serve-dense", "append-sparse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)  # tiny: the self-tests only
    args = parser.parse_args(argv)
    try:
        common.require_source()
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # Serial kernels in this process and every child, whatever the caller
    # exported, so the workloads do not change with the environment.
    os.environ["REPRO_NUM_WORKERS"] = "1"
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGALRM, _timeout)
    # Set-up and drain take about 20 s beyond the measured seconds.
    signal.alarm(int(120 + 2 * args.seconds))
    try:
        result = workloads()[args.workload](
            args.seed, args.seconds, bool(args.trace), args.scale, STARTED
        )
    finally:
        signal.alarm(0)
    outcome, tracer = result["outcome"], result["tracer"]
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if tracer is not None:
        tracer.write(workdir() / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = layer_metrics(tracer, result["layers"], result["sizes"])
        result["report"].update(metrics)
    else:
        metrics = result["metrics"]
    unmeasured = sorted(k for k, v in metrics.items() if not math.isfinite(v["value"]))
    if unmeasured:
        print(f"perfbench: no measurement for {', '.join(unmeasured)}", file=sys.stderr)
        return 1
    emit({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "report": result["report"],
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
