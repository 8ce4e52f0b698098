"""Test-only oracle for the newcomer sweep of :func:`repro.incremental.update_mining`.

The global Apriori join the row-local sweep replaced: at each level the
join base is every add-damaged surviving old member plus every newcomer
of the level below, :func:`~repro.algorithms.apriori.apriori_candidates`
joins the whole base at once, the old engine counts the base support of
every candidate over the old context, and only then are the candidates
that no appended row contains dropped.  The row-local sweep must find the
same newcomers with the same supports while testing at most as many
candidates.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.algorithms.apriori import apriori_candidates
from repro.core.itemset import Item, Itemset
from repro.experiments.harness import ItemsetMiningResult


def global_join_sweep(
    mining: ItemsetMiningResult,
    batch: Iterable[Iterable[Item]],
    removed_count: int = 0,
) -> tuple[dict[Itemset, int], int]:
    """Newcomers with their new supports, and the number of candidates tested.

    *mining*, *batch* and *removed_count* mean what they mean for
    :func:`~repro.incremental.update_mining`; the update is assumed to
    take the incremental path (no shrinking context, no threshold drop).
    """
    old_db = mining.database
    added = [Itemset(row) for row in batch]
    removed = list(old_db.transactions()[:removed_count])
    n_new = old_db.n_objects - removed_count + len(added)
    # TransactionDatabase.minsup_count of the extended context
    thresh_new = max(math.ceil(mining.minsup * n_new), 1)
    old_engine = old_db.engine()
    old_supports = mining.frequent.to_dict()
    old_item_set = set(old_db.items)

    # the join base: the old members an appended row contains that stay frequent
    add_damaged_by_size: dict[int, list[Itemset]] = {}
    for member, support in old_supports.items():
        adds = sum(1 for row in added if member.issubset(row))
        dels = sum(1 for row in removed if member.issubset(row))
        if adds and support + adds - dels >= thresh_new:
            add_damaged_by_size.setdefault(len(member), []).append(member)

    newcomers: dict[Itemset, int] = {}

    def admit(candidates: list[Itemset]) -> list[Itemset]:
        in_old = [c for c in candidates if all(item in old_item_set for item in c)]
        base = dict(zip(in_old, old_engine.supports(in_old))) if in_old else {}
        kept = []
        for candidate in candidates:
            adds = sum(1 for row in added if candidate.issubset(row))
            if adds == 0:
                continue
            dels = sum(1 for row in removed if candidate.issubset(row))
            support = base.get(candidate, 0) + adds - dels
            if support >= thresh_new:
                newcomers[candidate] = support
                kept.append(candidate)
        return kept

    batch_items = {item for row in added for item in row}
    level = sorted(
        singleton
        for singleton in (Itemset([item]) for item in batch_items)
        if singleton not in old_supports
    )
    tested = len(level)
    new_by_size = {1: admit(level)}
    size = 2
    while True:
        join_base = add_damaged_by_size.get(size - 1, []) + new_by_size.get(size - 1, [])
        if not join_base:
            break
        fresh = [
            candidate
            for candidate in apriori_candidates(join_base)
            if candidate not in old_supports and candidate not in newcomers
        ]
        tested += len(fresh)
        new_by_size[size] = admit(fresh)
        size += 1
    return newcomers, tested

