"""A default ``repro bases`` cell whose naive bases hold a million rules.

MUSHROOM* at minsup 0.3 (20,351 frequent / 1,399 closed itemsets) with
the default basis selection at minconf 0.7: the ``all`` baseline alone is
1,103,219 rules, the reduction-ratio denominator of Tables 3-5.  The
array-native ``all``/``exact``/``approximate`` emitters build the whole
cell in a few seconds; the per-rule object loop they replaced took over
a minute here.  The benchmark is self-gating: it pins the ``all`` rule
count and a wall-time ceiling on the default build, and checks the
``exact ⊎ approximate == all`` partition against a separate build of
the two split bases.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import run_once, save_table

from repro.bases import DEFAULT_BASES
from repro.data.benchmarks_data import make_mushroom
from repro.experiments.harness import build_rule_artifacts, mine_itemsets

MINSUP = 0.3
MINCONF = 0.7
ALL_RULES = 1_103_219
#: Generous against the few seconds the cell takes on a 2-vCPU runner,
#: and well under the >60 s of the per-rule object pipeline.
WALL_SECONDS_LIMIT = 15.0


def _build() -> dict:
    started = time.perf_counter()
    mining = mine_itemsets(make_mushroom(), MINSUP)
    artifacts = build_rule_artifacts(mining, MINCONF, DEFAULT_BASES)
    seconds = time.perf_counter() - started

    split = build_rule_artifacts(mining, MINCONF, ["exact", "approximate"])
    everything = artifacts["all"].rule_arrays
    exact = split["exact"].rule_arrays
    approximate = split["approximate"].rule_arrays
    assert len(everything) == ALL_RULES
    assert len(exact) + len(approximate) == len(everything)
    assert len(exact.intersection(approximate)) == 0
    # Same keys with the same statistics: the split, re-packed over the
    # universe of `all` and sorted canonically, equals `all` column by column.
    union = exact.concat(approximate).project_to(everything.universe)
    union, everything = union.sorted_canonically(), everything.sorted_canonically()
    for column in ("support", "confidence", "support_count"):
        assert np.array_equal(getattr(union, column), getattr(everything, column))
    assert np.array_equal(union.antecedents.words, everything.antecedents.words)
    assert np.array_equal(union.consequents.words, everything.consequents.words)
    return {
        "frequent": len(mining.frequent),
        "closed": len(mining.closed),
        **{f"{name}_rules": len(artifacts[name]) for name in DEFAULT_BASES},
        "exact_rules": len(exact),
        "approximate_rules": len(approximate),
        "wall_seconds": round(seconds, 3),
    }


def test_default_bases_mushroom_cell(benchmark):
    row = run_once(benchmark, _build)
    save_table(
        "naive_bases_mushroom",
        [row],
        "Default bases on MUSHROOM* (minsup 0.3, minconf 0.7)",
    )
    assert row["wall_seconds"] < WALL_SECONDS_LIMIT
