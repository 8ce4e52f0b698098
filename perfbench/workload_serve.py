"""``serve-dense``: open-loop reads against a ``repro serve`` daemon.

Set-up builds the ``build-dense`` store of the same seed and boots a
single-process daemon over it (default cache).  The run then offers a
ladder of fixed Poisson rates.  The first phase is the nominal rate for
the whole run; its median service time is the gated number, and its
latency from due time is reported beside it.  The faster phases follow
it and only decide ``max_rps``.  A seeded sample of answers is
byte-compared with ``ServeApp.handle`` run in this process on the same
store.
"""

from __future__ import annotations

import json
import time

import numpy as np

from common import NullTracer, Outcome, Tracer, check_counts, median, metric, workdir
from inputs import arrival_offsets, dense_sample, make_requests
from loadgen import BACKLOG_RULE, Daemon, OpenLoop, backlog_grew
from workload_build import build_counts, build_once, layer_probe

#: Offered rates of the ladder: the nominal rate, then doublings.  The
#: nominal phase lasts the whole run; each faster phase sends
#: LADDER_REQUESTS requests after it, so its p99 has ten samples above it.
NOMINAL_RPS = 100.0
LADDER = (1, 2, 4, 8)
LADDER_REQUESTS = 1000
#: ``max_rps`` is the highest ladder rate meeting this p99 limit with no
#: failures and no growing backlog.
P99_LIMIT_MS = 10.0
#: Every KEEP_EVERY-th nominal request keeps its body for the byte comparison.
KEEP_EVERY = 8


def encode(payload: dict) -> bytes:
    """The daemon's wire encoding of an answer."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def boot_daemon(path, log, tracer) -> Daemon:
    """Boot the daemon over *path*; its boot time is part of set-up."""
    daemon = Daemon(path, log)
    try:
        with tracer.span("serve.boot", "setup-boot"):
            daemon.start()
    except BaseException:
        daemon.stop()
        raise
    return daemon


def compare_answers(app, requests, records, outcome: Outcome) -> int:
    """Byte-compare kept HTTP answers with in-process ``ServeApp.handle``."""
    compared = 0
    for record in records:
        if record.body is None:
            continue
        request = requests[record.index]
        status, payload = app.handle(
            request.method, request.route, request.params(), request.body
        )
        outcome.check(
            status == record.status and encode(payload) == record.body,
            f"answer to {request.method} {request.path} differs from ServeApp.handle",
        )
        compared += 1
    return compared


def run(seed: int, seconds: float, trace: bool, scale: str, started: float) -> dict:
    from repro.bases.registry import registered_names
    from repro.serve import ServeApp

    tracer = Tracer() if trace else None
    spans = tracer or NullTracer()
    sample = dense_sample(seed, scale)
    path = workdir() / f"serve-dense-{seed}.npz"
    built = build_once(sample.rows, path, spans, "setup-build", sample.minsup, "MUSHROOM*")
    counts = build_counts(built, path)
    if trace:
        layer_probe(built, path, tracer, "setup-build")
    del built
    outcome = Outcome()
    daemon = boot_daemon(path, workdir() / "serve-dense-daemon.log", spans)
    try:
        setup_s = time.monotonic() - started
        names = sorted(registered_names())
        rng = np.random.default_rng([seed, 3])
        plan = []
        for multiple in LADDER:
            rate = NOMINAL_RPS * multiple
            n = (max(40, int(seconds * rate)) if multiple == 1
                 else min(LADDER_REQUESTS, max(40, int(seconds * NOMINAL_RPS))))
            requests = make_requests(sample.held_out, names, n, rng)
            plan.append((rate, requests, arrival_offsets(n, n / rate, rng)))
        phases = []
        with OpenLoop(daemon.port, tracer) as generator:
            for n, (rate, requests, offsets) in enumerate(plan):
                phases.append(generator.run(
                    requests, offsets, rate,
                    keep=(lambda i: i % KEEP_EVERY == 0) if n == 0 else (lambda i: False),
                    traced=(lambda i: i % 2 == 0) if n == 0 else (lambda i: False),
                ))
                if n == 0:
                    _, served_metrics = daemon.get("/metrics")
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    summaries = []
    for (rate, requests, _), phase in zip(plan, phases):
        kinds = [r.kind for r in requests]
        summaries.append(phase.summary(kinds))
        for record in phase.records:
            outcome.record(phase.ok(record, kinds[record.index]),
                           f"{requests[record.index].path}: {record.status} {record.error}")
    app = ServeApp(path)
    nominal_requests, nominal = plan[0][1], phases[0]
    compared = compare_answers(app, nominal_requests, nominal.records, outcome)
    check_counts("serve-dense", scale, seconds, seed, counts, outcome)
    good = [s for s in summaries
            if s["failed"] == 0 and s["p99_ms"] <= P99_LIMIT_MS and not backlog_grew(s)]
    head = summaries[0]
    report = {
        "setup_s": metric(setup_s, "s"),
        "p50_ms": metric(head["p50_ms"], "ms"),
        "p99_ms": metric(head["p99_ms"], "ms"),
        "service_p50_ms": metric(head["service_p50_ms"], "ms"),
        "max_rps": metric(max((s["rate_per_s"] for s in good), default=0.0), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "error_ratio": metric(outcome.failed / max(1, outcome.attempted), "ratio"),
        "sizes": counts,
        "nominal_error_ratio": metric(head["failed"] / max(1, head["sent"]), "ratio"),
        "answers_compared_n": metric(compared, "count"),
        "phases": summaries,
        "max_rps_rule": (
            f"highest offered rate with p99 <= {P99_LIMIT_MS:g} ms, no failed "
            f"request and no growing backlog ({BACKLOG_RULE})"
        ),
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        # Service time (send to answer) rather than p50_ms (due to
        # answer): it leaves out the generator's own thread wake-ups,
        # which widened the due-time median's spread between runs
        # (0.28 against 0.18 between quartiles over ten seeds).
        "op_p50_ms": metric(head["service_p50_ms"], "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    layers = {}
    if trace:
        layers = serve_layers(tracer, path, nominal_requests, nominal, served_metrics)
    return {"outcome": outcome, "report": report, "metrics": metrics,
            "layers": layers, "sizes": counts, "tracer": tracer}


def rebuild_snapshot(path, tracer: Tracer) -> None:
    """The parts of ``ServeApp`` construction, each under its own span."""
    from repro import LuxenburgerBasis, build_duquenne_guigues_basis
    from repro.core.derivation import BasisDerivation
    from repro.recommend import Recommender
    from repro.store import load_run

    with tracer.span("serve.snapshot", "probe-snapshot"):
        with tracer.span("serve.load"):
            stored = load_run(path, retain_containment=False, verify="full")
        with tracer.span("recommend.index"):
            for arrays in stored.rule_arrays.values():
                Recommender(arrays.sorted_canonically(), assume_canonical=True)
        with tracer.span("derivation.build"):
            BasisDerivation(
                build_duquenne_guigues_basis(stored.frequent, stored.closed),
                LuxenburgerBasis(stored.closed, minconf=0.0, transitive_reduction=True,
                                 lattice=stored.lattice),
                n_objects=stored.closed.n_objects,
            )


def app_layers(tracer: Tracer, app, requests) -> tuple[dict, float]:
    """Per-route ``ServeApp.handle`` time and the encoding time, in process.

    The requests are replayed in their served order on a fresh app, so
    its answer cache sees the hit pattern the daemon saw.  Returns the
    layer metrics and the median handle time over every route.
    """
    from repro import Itemset
    from repro.errors import DerivationError

    app_ms: dict[str, list[float]] = {}
    json_ms = []
    for n, request in enumerate(requests):
        with tracer.span("serve.answer", f"probe-{n}"):
            with tracer.span(f"serve.app.{request.kind}"):
                t0 = time.perf_counter()
                _, payload = app.handle(
                    request.method, request.route, request.params(), request.body
                )
                t1 = time.perf_counter()
            with tracer.span("serve.json"):
                encode(payload)
                t2 = time.perf_counter()
        app_ms.setdefault(request.kind, []).append((t1 - t0) * 1e3)
        json_ms.append((t2 - t1) * 1e3)
    loaded = app.loaded
    recommender = loaded.recommenders[loaded.recommend_basis]
    query_ms, matched, derive_ms = [], [], []
    for request in requests:
        body = json.loads(request.body) if request.body else {}
        if request.kind == "recommend":
            t0 = time.perf_counter()
            result = recommender.query(tuple(body["basket"]), body["k"])
            query_ms.append((time.perf_counter() - t0) * 1e3)
            matched.append(result.matched_rules)
        elif request.kind == "derive":
            t0 = time.perf_counter()
            try:
                loaded.derivation.derive_rule(
                    Itemset(body["antecedent"]), Itemset(body["consequent"])
                )
            except DerivationError:
                pass  # "not derivable" is an answer, timed like the others
            derive_ms.append((time.perf_counter() - t0) * 1e3)
    every = [ms for values in app_ms.values() for ms in values]
    return {
        **{f"serve.app_ms.{kind}": median(app_ms.get(kind, [0.0]))
           for kind in ("recommend", "rules", "derive", "bases")},
        "serve.json_ms": median(json_ms),
        "recommend.query_ms": median(query_ms or [0.0]),
        "recommend.matched_rules_mean": sum(matched) / len(matched) if matched else 0.0,
        "derivation.derive_ms": median(derive_ms or [0.0]),
    }, median(every)


def serve_layers(tracer, path, requests, nominal, served_metrics) -> dict:
    from repro.serve import ServeApp

    rebuild_snapshot(path, tracer)
    layers, app_ms = app_layers(tracer, ServeApp(path), requests)
    service_ms = median(r.service * 1e3 for r in nominal.records)
    traced = [r.latency for r in nominal.records if r.index % 2 == 0]
    untraced = [r.latency for r in nominal.records if r.index % 2 == 1]
    cache = served_metrics["cache"]
    lookups = cache["hits"] + cache["misses"]
    layers.update({
        "serve.transport_ms": service_ms - app_ms - layers["serve.json_ms"],
        "serve.cache_hit_ratio": cache["hits"] / max(1, lookups),
        "serve.cache_evictions_n": cache["evictions"],
        "serve.generator_lag_ms":
            nominal.summary([r.kind for r in requests])["generator_lateness_p99_ms"],
        "trace.overhead_ratio": median(traced) / median(untraced),
        "trace.uncovered_ratio": tracer.uncovered_ratio("serve.answer"),
    })
    return layers
