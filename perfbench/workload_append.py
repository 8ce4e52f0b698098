"""``append-sparse``: sparse appends beside an open-loop read stream.

Set-up mines 10,000 rows of a fixed Quest T10I4-style population, in
seeded order, at minsup 0.01 with all nine bases, saves it, boots a
watching ``repro serve`` daemon over the store and starts the append
worker (``append_worker.py``).  The run appends 16-row batches of
held-out rows on a fixed schedule while a fixed-rate open-loop stream
of serve-mix reads runs against the daemon; every read answer carries
the generation that served it, which times when each append became
visible.  Dense appends are not used: on MUSHROOM* every 8-row batch
damaged all closed sets and fell back to a full re-mine.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import numpy as np

from common import (
    HERE,
    NullTracer,
    Outcome,
    Tracer,
    check_counts,
    child_env,
    median,
    metric,
    percentile,
    workdir,
)
from inputs import arrival_offsets, make_requests, sparse_sample
from loadgen import OpenLoop
from workload_build import build_counts, build_once, layer_probe
from workload_serve import boot_daemon

BATCH_ROWS = 16
#: Seconds between due times of consecutive appends.
APPEND_INTERVAL = 2.0
#: The first append is due this long after the reads start.
FIRST_APPEND = 0.5
#: Reads keep running this long after the last append is due, so each
#: append's visibility is observed by a read.
DRAIN = 4.0
READ_RPS = 50.0


class Worker:
    """The append worker process and its line protocol."""

    def __init__(self, log) -> None:
        self.log = log
        self.process: subprocess.Popen | None = None

    def start(self) -> None:
        with open(self.log, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, str(HERE / "append_worker.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                env=child_env(), text=True,
            )
        if json.loads(self.process.stdout.readline() or "{}").get("ready") is not True:
            raise RuntimeError("append worker did not start")

    def call(self, command: dict) -> dict:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        return json.loads(line) if line else {"error": "append worker exited"}

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            try:
                self.process.stdin.write(json.dumps({"op": "stop"}) + "\n")
                self.process.stdin.flush()
                self.process.wait(timeout=15)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()
        self.process = None


def plan_appends(seconds: float) -> int:
    return max(1, int((seconds - DRAIN - FIRST_APPEND) // APPEND_INTERVAL) + 1)


def run(seed: int, seconds: float, trace: bool, scale: str, started: float) -> dict:
    from repro.bases.registry import registered_names

    tracer = Tracer() if trace else None
    spans = tracer or NullTracer()
    sample = sparse_sample(seed, scale)
    path = workdir() / f"append-sparse-{seed}.npz"
    built = build_once(sample.rows, path, spans, "setup-build", sample.minsup, "T10I4")
    base_counts = build_counts(built, path)
    if trace:
        layer_probe(built, path, tracer, "setup-build")
    del built
    n_appends = plan_appends(seconds)
    batches = [
        [sorted(map(str, row)) for row in
         sample.held_out[k * BATCH_ROWS:(k + 1) * BATCH_ROWS]]
        for k in range(n_appends)
    ]
    readers_rows = sample.held_out[n_appends * BATCH_ROWS:]
    outcome = Outcome()
    worker = Worker(workdir() / "append-sparse-worker.log")
    daemon = None
    try:
        daemon = boot_daemon(path, workdir() / "append-sparse-daemon.log", spans)
        worker.start()
        setup_s = time.monotonic() - started
        rng = np.random.default_rng([seed, 4])
        n_reads = max(40, int(seconds * READ_RPS))
        requests = make_requests(readers_rows, sorted(registered_names()), n_reads, rng)
        offsets = arrival_offsets(n_reads, seconds, rng)
        answers: list[tuple[float, float, int]] = []  # (done, service, generation)

        def observe(record, body):
            if body is None or record.status not in (200, 422):
                return
            try:
                generation = json.loads(body)["generation"]
            except (ValueError, KeyError, TypeError):
                record.error = "answer without a generation"
                return
            answers.append((record.done, record.service, generation))

        replies: list[dict] = []
        start = time.monotonic() + 0.1

        def writer():
            for k, batch in enumerate(batches):
                due = start + FIRST_APPEND + k * APPEND_INTERVAL
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                reply = worker.call({
                    "op": "append", "id": k, "path": str(path), "rows": batch,
                    "trace": trace and k % 2 == 0, "check": trace and k == 0,
                })
                reply.update(due=due, sent=sent, done=time.monotonic())
                replies.append(reply)

        writer_thread = threading.Thread(target=writer, name="append-writer")
        writer_thread.start()
        try:
            with OpenLoop(daemon.port) as generator:
                phase = generator.run(requests, offsets, n_reads / seconds,
                                      on_done=observe, start=start)
        finally:
            writer_thread.join()
        final = final_state(daemon, path, sample, batches, outcome)
        peak_rss_mb = daemon.peak_rss_mb()
        _, served_metrics = daemon.get("/metrics")
    finally:
        worker.stop()
        if daemon is not None:
            daemon.stop()

    kinds = [r.kind for r in requests]
    summary = phase.summary(kinds)
    for record in phase.records:
        outcome.record(phase.ok(record, kinds[record.index]),
                       f"read {requests[record.index].path}: {record.status} {record.error}")
    visible, reload_s, stall_ms = [], [], []
    answers.sort()
    for reply in replies:
        ok = reply.get("error") is None and reply.get("stepwise_ok") is not False
        outcome.record(ok, f"append {reply.get('id')}: {reply.get('error')} "
                           f"stepwise_ok={reply.get('stepwise_ok')}")
        if reply.get("error") is not None:
            continue
        generation = reply["id"] + 2
        seen = [a for a in answers if a[2] >= generation and a[0] >= reply["due"]]
        if not outcome.check(bool(seen), f"append {reply['id']} never seen by a read"):
            continue
        first_done, first_service, _ = seen[0]
        visible.append(first_done - reply["due"])
        reload_s.append(first_service)
        window = [r.latency * 1e3 for r in phase.records
                  if reply["done"] <= r.done <= first_done + 0.25]
        stall_ms.append(max(window, default=first_service * 1e3))
    stats = [r["stats"] for r in replies if r.get("error") is None]
    update_s = [r["update_s"] for r in replies if r.get("error") is None]
    counts = {
        **base_counts,
        "final.store.bytes": final["bytes"],
        "final.algorithms.closed_n": final["closed_n"],
        "incremental.fallback_ratio": (
            sum(s["mode"] == "remine" for s in stats) / max(1, len(stats))),
        "incremental.reclosed_n": sum(s["reclosed"] for s in stats),
    }
    check_counts("append-sparse", scale, seconds, seed, counts, outcome)
    latencies = [r.latency * 1e3 for r in phase.records]
    report = {
        "setup_s": metric(setup_s, "s"),
        "append_p50_s": metric(median(update_s), "s"),
        "visible_p50_s": metric(median(visible), "s"),
        "read_p50_ms": metric(percentile(latencies, 50), "ms"),
        "read_p99_ms": metric(percentile(latencies, 99), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "error_ratio": metric(outcome.failed / max(1, outcome.attempted), "ratio"),
        "sizes": counts,
        "appends_n": metric(len(replies), "count"),
        "reads": summary,
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_p50_ms": metric(median(visible) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    layers = {}
    if trace:
        for reply in replies:
            tracer.adopt(reply.get("spans") or [])
        traced = [r["update_s"] for r in replies if r.get("spans")]
        untraced = [r["update_s"] for r in replies if not r.get("spans")]
        cache = served_metrics["cache"]
        layers = {
            "serve.reload_s": median(reload_s),
            "serve.reload_stall_ms": median(stall_ms),
            "serve.cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "serve.cache_evictions_n": cache["evictions"],
            "serve.generator_lag_ms": summary["generator_lateness_p99_ms"],
            "incremental.damage_ratio": median(s["damage_ratio"] for s in stats),
            "trace.overhead_ratio": median(traced) / median(untraced) if untraced else 1.0,
            "trace.uncovered_ratio": tracer.uncovered_ratio("append"),
        }
    return {"outcome": outcome, "report": report, "metrics": metrics,
            "layers": layers, "sizes": counts, "tracer": tracer}


def final_state(daemon, path, sample, batches, outcome: Outcome) -> dict:
    """After the last append: the daemon serves it, and it is a fresh mine's.

    Waits until the daemon serves the last generation, then compares the
    closed family of the store it serves with a fresh Close run over the
    base rows plus every appended row.
    """
    from repro import Close, TransactionDatabase
    from repro.store import load_run

    want = 1 + len(batches)
    deadline = time.monotonic() + 60
    health = {}
    while time.monotonic() < deadline:
        _, health = daemon.get("/healthz")
        if health.get("generation", 0) >= want:
            break
        time.sleep(0.1)
    rows = list(sample.rows) + [frozenset(row) for batch in batches for row in batch]
    outcome.check(
        health.get("generation") == want and health.get("n_objects") == len(rows),
        f"daemon serves generation {health.get('generation')} with "
        f"{health.get('n_objects')} objects; expected {want} with {len(rows)}",
    )
    served = load_run(path, sections=["closed"]).closed
    fresh = Close(sample.minsup).run(TransactionDatabase(rows)).family
    outcome.check(
        {(frozenset(i), c) for i, c in served.items_with_supports()}
        == {(frozenset(i), c) for i, c in fresh.items_with_supports()},
        "served closed family differs from a fresh mine of base + appended rows",
    )
    return {"bytes": path.stat().st_size, "closed_n": len(served)}
