"""The writer of ``append-sparse``: a long-lived child process running appends.

It reads one JSON command per line on stdin and answers one JSON line on
stdout, so the parent's read generator never waits on this process's
interpreter lock.  An untraced append is one ``update_store`` call; a
traced append runs the same steps one by one (``load_run`` ->
``update_mining`` -> ``build_bases`` -> ``save_artifacts``) under spans.
With ``check`` set, the traced append also runs ``update_store`` on a
copy of the pre-append store and reports whether both wrote the same
digests.

Run it only as a child of ``workload_append``; it needs the package
source and this directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path


def mining_from_store(stored):
    """A mining result rehydrated from a loaded store, as ``update_store`` does."""
    from repro.algorithms.base import MiningRun
    from repro.experiments.harness import ItemsetMiningResult

    database = stored.require("context")
    generators = stored.require("generators")
    return ItemsetMiningResult(
        database=database,
        minsup=stored.minsup,
        apriori_run=MiningRun("Apriori[store]", database.name, stored.minsup,
                              stored.require("frequent")),
        close_run=MiningRun("Close[store]", database.name, stored.minsup,
                            stored.require("closed")),
        generators_by_closure={
            closure: list(generators.generators_of(closure))
            for closure in generators.closed_itemsets()
        },
    )


def stepwise_update(path: Path, rows, tracer, request: str):
    """``update_store`` spelled out, one span per layer."""
    from repro import BasisContext, build_bases
    from repro.experiments.harness import RuleArtifacts, save_artifacts
    from repro.incremental import update_mining
    from repro.store import load_run

    with tracer.span("append", request):
        with tracer.span("store.load"):
            stored = load_run(path)
        with tracer.span("incremental.rehydrate"):
            mining = mining_from_store(stored)
        with tracer.span("incremental.update_mining"):
            result = update_mining(mining, rows, lattice=stored.lattice)
        with tracer.span("bases.rebuild"):
            context = BasisContext(
                closed=result.mining.closed,
                minconf=stored.minconf,
                frequent=result.mining.frequent,
                generators_factory=lambda: result.mining.generator_family,
                _lattice=result.lattice,
            )
            artifacts = RuleArtifacts(
                database_name=result.mining.database.name,
                minsup=result.mining.minsup,
                minconf=stored.minconf,
                bases=build_bases(context, list(stored.basis_kinds) or None),
                context=context,
            )
        with tracer.span("store.save"):
            save_artifacts(path, result.mining, artifacts, include_context=True)
    return result


def handle(command: dict) -> dict:
    from repro.incremental.store import update_store
    from repro.store import read_manifest

    from common import Tracer

    path = Path(command["path"])
    rows = [frozenset(row) for row in command["rows"]]
    tracer = Tracer()
    shadow = path.with_name(path.stem + "-shadow.npz")
    if command.get("check"):
        shutil.copyfile(path, shadow)
    started = time.monotonic()
    if command["trace"]:
        result = stepwise_update(path, rows, tracer, f"append-{command['id']}")
    else:
        _, result = update_store(path, rows)
    update_s = time.monotonic() - started
    stepwise_ok = None
    if command.get("check"):
        update_store(shadow, rows)
        stepwise_ok = (
            read_manifest(shadow)["integrity"] == read_manifest(path)["integrity"]
        )
        shadow.unlink()
    return {
        "id": command["id"],
        "update_s": update_s,
        "stats": result.statistics.as_dict(),
        "spans": tracer.spans,
        "stepwise_ok": stepwise_ok,
        "error": None,
    }


def main() -> int:
    from common import require_source

    require_source()
    import repro.incremental.store  # noqa: F401  (boot cost paid before "ready")

    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("op") == "stop":
            break
        try:
            reply = handle(command)
        except Exception as exc:  # reported to the parent as a failed append
            reply = {"id": command.get("id"), "error": repr(exc)}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
