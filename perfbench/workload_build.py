"""``build-dense``: cold builds of one paper cell on the MUSHROOM* stand-in.

One build is what ``repro save`` pays: a fresh ``TransactionDatabase``
(so no closure-engine cache survives from an earlier build), Apriori and
Close at minsup 0.5 (``inputs.DENSE``), the shared iceberg lattice, all nine registered
bases at minconf 0.7, ``save_artifacts`` and ``load_run(verify="full")``.
An untraced build calls ``mine_itemsets``, ``build_rule_artifacts``,
``save_artifacts`` and ``load_run``; a traced build spells their bodies
out so it can put a span around each layer.
"""

from __future__ import annotations

import gc
import random
import resource
import time

import numpy as np

from common import (
    NullTracer,
    Outcome,
    Tracer,
    check_counts,
    median,
    metric,
    workdir,
)
from inputs import MINCONF, dense_sample


def build_once(rows, path, tracer, request: str, minsup: float, name: str) -> dict:
    """One cold build; returns the artifacts the checks and counts need.

    An untraced build calls the package's entry points as ``repro save``
    does.  A traced build runs the same steps one by one (the bodies of
    ``mine_itemsets`` and ``build_rule_artifacts``) so each layer gets a
    span; ``trace.overhead_ratio`` compares the two.
    """
    from repro import TransactionDatabase
    from repro.bases.registry import registered_names
    from repro.experiments.harness import (
        build_rule_artifacts,
        mine_itemsets,
        save_artifacts,
    )
    from repro.store import load_run

    if isinstance(tracer, NullTracer):
        database = TransactionDatabase(rows, name=name)
        mining = mine_itemsets(database, minsup)
        artifacts = build_rule_artifacts(mining, MINCONF, registered_names())
        save_artifacts(path, mining, artifacts)
        stored = load_run(path, verify="full")
    else:
        database, mining, artifacts, stored = _spelled_out_build(
            rows, path, tracer, request, minsup, name)
    return {"database": database, "mining": mining,
            "lattice": artifacts.context.lattice, "stored": stored,
            "apriori": mining.apriori_run, "close": mining.close_run}


def _spelled_out_build(rows, path, tracer, request: str, minsup: float, name: str):
    """``build_once`` step by step, one span per layer."""
    from repro import Apriori, Close, TransactionDatabase, build_bases
    from repro.bases.registry import registered_names
    from repro.experiments.harness import (
        ItemsetMiningResult,
        RuleArtifacts,
        save_artifacts,
    )
    from repro.store import load_run

    with tracer.span("build", request):
        with tracer.span("data.context"):
            database = TransactionDatabase(rows, name=name)
        with tracer.span("algorithms.apriori"):
            apriori_run = Apriori(minsup).run(database)
        with tracer.span("algorithms.close"):
            close = Close(minsup)
            close_run = close.run(database)
        mining = ItemsetMiningResult(
            database=database,
            minsup=minsup,
            apriori_run=apriori_run,
            close_run=close_run,
            generators_by_closure=close.generators_by_closure,
        )
        context = mining.basis_context(MINCONF)
        with tracer.span("lattice.build"):
            context.lattice
        bases = {}
        for basis in registered_names():
            with tracer.span(f"bases.{basis}"):
                bases.update(build_bases(context, [basis]))
        artifacts = RuleArtifacts(database.name, minsup, MINCONF, bases, context)
        with tracer.span("store.save"):
            save_artifacts(path, mining, artifacts)
        with tracer.span("store.load"):
            stored = load_run(path, verify="full")
    return database, mining, artifacts, stored


def build_counts(built: dict, path) -> dict:
    """Sizes that are pure functions of the seed."""
    mining, stored = built["mining"], built["stored"]
    counts = {
        "algorithms.frequent_n": len(mining.frequent),
        "algorithms.closed_n": len(mining.closed),
        "algorithms.candidates_n": (
            built["apriori"].statistics.candidates_generated
            + built["close"].statistics.candidates_generated
        ),
        "lattice.edges_n": built["lattice"].edge_count(),
        "store.bytes": path.stat().st_size,
    }
    for name, arrays in stored.rule_arrays.items():
        counts[f"bases.{name}_rules_n"] = len(arrays)
    return counts


def digests(path) -> dict:
    from repro.store import read_manifest

    return read_manifest(path)["integrity"]["arrays"]


def rule_rows(arrays) -> dict:
    """``(antecedent words, consequent words) -> (support count, confidence)``."""
    ante = arrays.antecedents.words
    cons = arrays.consequents.words
    return {
        (ante[r].tobytes(), cons[r].tobytes()):
            (int(arrays.support_count[r]), float(arrays.confidence[r]))
        for r in range(len(arrays))
    }


#: Rules per basis whose support and confidence are recounted.
RECOUNTED_RULES = 25


def check_build(rows, stored, seed: int, outcome: Outcome) -> None:
    """Correctness from outside the package, on the loaded store.

    * a seeded sample of rules of every basis: support and confidence
      recounted over the generated rows;
    * the ``exact`` and ``approximate`` bases partition ``all``.
    """
    rng = random.Random(seed)
    n = len(rows)
    for name, arrays in sorted(stored.rule_arrays.items()):
        picks = rng.sample(range(len(arrays)), min(RECOUNTED_RULES, len(arrays)))
        bad = 0
        for r in picks:
            ante = {arrays.universe[i] for i in arrays.antecedents.row_indices(r)}
            cons = {arrays.universe[i] for i in arrays.consequents.row_indices(r)}
            both = ante | cons
            count = sum(1 for row in rows if both <= row)
            base = sum(1 for row in rows if ante <= row)
            if (
                count != int(arrays.support_count[r])
                or abs(count / n - float(arrays.support[r])) > 1e-9
                or abs(count / base - float(arrays.confidence[r])) > 1e-9
            ):
                bad += 1
        outcome.check(bad == 0, f"{bad} of {len(picks)} sampled {name} rules "
                                f"disagree with a recount over the rows")
    bases = stored.rule_arrays
    if {"all", "exact", "approximate"} <= set(bases):
        exact, approximate = rule_rows(bases["exact"]), rule_rows(bases["approximate"])
        union = dict(exact)
        union.update(approximate)
        outcome.check(
            len(union) == len(exact) + len(approximate)
            and union == rule_rows(bases["all"]),
            "exact and approximate do not partition all",
        )


def run(seed: int, seconds: float, trace: bool, scale: str, started: float) -> dict:
    # Set-up: the package imports a build needs, then the sample.
    import repro.experiments.harness  # noqa: F401
    import repro.store  # noqa: F401

    sample = dense_sample(seed, scale)
    setup_s = time.monotonic() - started
    rows = sample.rows
    path = workdir() / f"build-dense-{seed}.npz"
    tracer = Tracer() if trace else None
    outcome = Outcome()
    times = {True: [], False: []}  # build times, by traced or not
    first_digests = counts = None
    t_run = time.monotonic()
    index = 0
    while index < 2 or time.monotonic() - t_run < seconds:
        traced = trace and index % 2 == 0
        t0 = time.monotonic()
        try:
            built = build_once(rows, path, tracer if traced else NullTracer(),
                               f"build-{index}", sample.minsup, "MUSHROOM*")
        except Exception as exc:  # a crashed build is a failed operation
            outcome.record(False, f"build {index}: {exc!r}")
            break
        times[traced].append(time.monotonic() - t0)
        now_digests, now_counts = digests(path), build_counts(built, path)
        if first_digests is None:
            first_digests, counts = now_digests, now_counts
            check_build(rows, built["stored"], seed, outcome)
            outcome.record(True)
        else:
            outcome.record(
                now_digests == first_digests and now_counts == counts,
                f"build {index} wrote different digests or sizes than build 0",
            )
        if traced:
            layer_probe(built, path, tracer, f"build-{index}")
        del built
        gc.collect()
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if counts is not None:
        check_counts("build-dense", scale, seconds, seed, counts, outcome)
    build_times = times[True] + times[False]
    build_s = median(build_times)
    report = {
        "setup_s": metric(setup_s, "s"),
        "build_s": metric(build_s, "s"),
        "builds_n": metric(len(build_times), "count"),
        "build_times_s": [round(t, 4) for t in build_times],
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "error_ratio": metric(outcome.failed / max(1, outcome.attempted), "ratio"),
        "sizes": counts,
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_p50_ms": metric(build_s * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    layers = {}
    if trace:
        layers = {
            "trace.uncovered_ratio": tracer.uncovered_ratio("build"),
            "trace.overhead_ratio": (
                median(times[True]) / median(times[False]) if times[False] else 1.0),
        }
    return {"outcome": outcome, "report": report, "metrics": metrics,
            "layers": layers, "sizes": counts or {}, "tracer": tracer}


def layer_probe(built: dict, path, tracer: Tracer, request: str) -> None:
    """Traced-only measurements taken after a build, outside its span.

    ``store.verify`` times the full digest pass alone (inside the build it
    is part of ``load_run(verify="full")``); the closure-engine cache
    counters are read off the build's database.
    """
    from repro.store import read_manifest
    from repro.store.integrity import verify_container

    with tracer.span("store.verify", request):
        with np.load(path, allow_pickle=False) as data:
            verify_container(data, read_manifest(path), path, "full")
    info = built["database"].engine().cache_info()
    tracer.counters.setdefault("engine.closure_cache_hits", []).append(info.hits)
    tracer.counters.setdefault("engine.closure_cache_misses", []).append(info.misses)
