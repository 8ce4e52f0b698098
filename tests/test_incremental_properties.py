"""Property-based checks of the incremental maintenance path.

Hypothesis generates random base contexts and random batches (with and
without eviction, with and without items new to the universe); on every
one of them the repaired artifacts must be *exactly* the ones a fresh
full mine of the extended context produces.  The comparison itself is
``update_mining(..., verify="oracle")``, which raises
:class:`~repro.errors.OracleMismatchError` the moment any repaired
family, generator map or lattice edge disagrees with the oracle — so
every property here is "the update runs and nothing raises", plus a few
explicit cross-checks on the fly.

The dedicated 63/64/65-item cases pin the packed-word boundary: one
uint64 word exactly full, one item short and one item over.

The row-local newcomer sweep is also compared head-on with the global
Apriori join it replaced (``tests/incremental_oracles.py``): the same
newcomers with the same supports, and never more candidates tested.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.lattice import IcebergLattice
from repro.data.context import TransactionDatabase
from repro.experiments.harness import mine_itemsets
from repro.incremental import SlidingWindow, update_mining

from incremental_oracles import global_join_sweep

BASE_POOL = ["a", "b", "c", "d", "e", "f"]
# batches may introduce items the base universe never saw
BATCH_POOL = BASE_POOL + ["g", "h"]


def rows_strategy(pool, min_rows, max_rows):
    return st.lists(
        st.sets(st.sampled_from(pool), min_size=0, max_size=len(pool)),
        min_size=min_rows,
        max_size=max_rows,
    )


@st.composite
def update_cases(draw):
    base = draw(rows_strategy(BASE_POOL, 1, 8))
    batch = draw(rows_strategy(BATCH_POOL, 0, 4))
    minsup = draw(st.sampled_from([0.1, 0.25, 0.5]))
    # cap the eviction at the batch size so the context never shrinks
    # (a shrinking context is a documented fallback, tested separately)
    removed = draw(st.integers(0, min(len(base) - 1, len(batch))))
    return base, batch, minsup, removed


@settings(max_examples=60, deadline=None)
@given(update_cases())
def test_repaired_artifacts_equal_fresh_mine(case):
    base, batch, minsup, removed = case
    db = TransactionDatabase(base, item_order=BASE_POOL)
    mining = mine_itemsets(db, minsup)
    result = update_mining(
        mining,
        batch,
        removed_count=removed,
        damage_threshold=1.0,
        verify="oracle",
        lattice=IcebergLattice(mining.closed),
    )
    assert result.statistics.mode == "incremental"
    assert result.mining.database.n_objects == len(base) + len(batch) - removed
    # the repaired closed family backs both the generator family and the
    # repaired lattice (the store's identity requirement)
    assert result.mining.generator_family.closed_family is result.mining.closed
    if result.lattice is not None:
        assert result.lattice.closed_family is result.mining.closed


@settings(max_examples=25, deadline=None)
@given(update_cases())
def test_repaired_bases_equal_fresh_bases(case):
    base, batch, minsup, _ = case
    db = TransactionDatabase(base, item_order=BASE_POOL)
    result = update_mining(
        mine_itemsets(db, minsup), batch, damage_threshold=1.0, verify="oracle"
    )
    from repro.bases.registry import build_bases
    fresh = mine_itemsets(result.mining.database, minsup)
    repaired_bases = build_bases(result.mining.basis_context(minconf=0.6), ["dg", "all"])
    fresh_bases = build_bases(fresh.basis_context(minconf=0.6), ["dg", "all"])
    for name in ("dg", "all"):
        assert (
            sorted(map(str, repaired_bases[name].rules))
            == sorted(map(str, fresh_bases[name].rules))
        )


@settings(max_examples=15, deadline=None)
@given(
    n_items=st.sampled_from([63, 64, 65]),
    data=st.data(),
)
def test_word_boundary_universes(n_items, data):
    pool = [f"i{j:02d}" for j in range(n_items)]
    wide_rows = st.lists(
        st.sets(st.sampled_from(pool), min_size=1, max_size=12),
        min_size=2,
        max_size=6,
    )
    base = data.draw(wide_rows)
    batch = data.draw(
        st.lists(st.sets(st.sampled_from(pool), min_size=1, max_size=12),
                 min_size=1, max_size=3)
    )
    db = TransactionDatabase(base, item_order=pool)
    mining = mine_itemsets(db, 0.2)
    result = update_mining(
        mining,
        batch,
        damage_threshold=1.0,
        verify="oracle",
        lattice=IcebergLattice(mining.closed),
    )
    assert result.statistics.mode == "incremental"
    assert result.mining.database.n_items == n_items


@settings(max_examples=20, deadline=None)
@given(
    base=rows_strategy(BASE_POOL, 2, 6),
    batches=st.lists(rows_strategy(BATCH_POOL, 1, 3), min_size=1, max_size=3),
)
def test_sliding_window_stays_exact_over_many_steps(base, batches):
    window = SlidingWindow(
        TransactionDatabase(base, item_order=BASE_POOL),
        0.25,
        capacity=len(base) + 3,
        damage_threshold=1.0,
        verify="oracle",
        track_lattice=True,
    )
    for batch in batches:
        window.append(batch)
        assert len(window) <= window.capacity
        assert window.lattice is not None
        assert window.lattice.closed_family is window.closed


def assert_sweep_matches_global_join(mining, batch, removed):
    result = update_mining(
        mining, batch, removed_count=removed, damage_threshold=1.0
    )
    assert result.statistics.mode == "incremental"
    expected, oracle_tested = global_join_sweep(mining, batch, removed)
    found = {
        itemset: count
        for itemset, count in result.mining.frequent.items_with_supports()
        if itemset not in mining.frequent
    }
    assert found == expected
    assert result.statistics.new_frequent == len(expected)
    assert result.statistics.candidates <= oracle_tested


@st.composite
def sweep_cases(draw):
    base = draw(rows_strategy(BASE_POOL, 1, 8))
    shape = draw(st.sampled_from(["rows", "singletons", "empty"]))
    if shape == "rows":
        batch = draw(rows_strategy(BATCH_POOL, 1, 4))
    elif shape == "singletons":
        batch = draw(st.lists(
            st.sets(st.sampled_from(BATCH_POOL), min_size=1, max_size=1),
            min_size=1, max_size=5,
        ))
    else:
        batch = []
    duplicates = draw(st.integers(0, len(batch)))
    batch = batch + batch[:duplicates]
    minsup = draw(st.sampled_from([0.1, 0.25, 0.5]))
    removed = draw(st.integers(0, min(len(base) - 1, len(batch))))
    return base, batch, minsup, removed


@settings(max_examples=60, deadline=None)
@given(sweep_cases())
# items new to the universe
@example(([{"a", "b"}, {"a", "c"}], [{"a", "g", "h"}, {"g", "h"}], 0.25, 0))
# a sliding window: the evicted rows carry dels of the newcomers
@example(([{"a", "b"}, {"a", "b", "c"}, {"c"}], [{"a", "b", "c"}, {"b", "c"}], 0.5, 2))
# an empty batch
@example(([{"a", "b"}, {"c"}], [], 0.25, 0))
# duplicate rows
@example(([{"a"}, {"b"}, {"c", "d"}], [{"c", "d", "e"}] * 3, 0.5, 0))
# singletons only
@example(([{"a", "b"}, {"c"}, {"d"}], [{"e"}, {"e"}, {"a"}, {"g"}], 0.25, 1))
def test_row_local_sweep_equals_global_join(case):
    base, batch, minsup, removed = case
    db = TransactionDatabase(base, item_order=BASE_POOL)
    assert_sweep_matches_global_join(mine_itemsets(db, minsup), batch, removed)


@settings(max_examples=15, deadline=None)
@given(n_items=st.sampled_from([63, 64, 65]), data=st.data())
def test_row_local_sweep_at_word_boundaries(n_items, data):
    pool = [f"i{j:02d}" for j in range(n_items)]
    base = data.draw(
        st.lists(st.sets(st.sampled_from(pool), min_size=1, max_size=12),
                 min_size=4, max_size=10)
    )
    # four disjoint rows span the pool, so the sweep packs exactly
    # n_items items; a few random rows overlap them
    order = data.draw(st.permutations(pool))
    batch = [set(order[k::4]) for k in range(4)] + data.draw(
        st.lists(st.sets(st.sampled_from(pool), min_size=1, max_size=12),
                 max_size=3)
    )
    removed = data.draw(st.integers(0, min(len(base) - 1, len(batch))))
    db = TransactionDatabase(base, item_order=pool)
    assert_sweep_matches_global_join(mine_itemsets(db, 0.25), batch, removed)
