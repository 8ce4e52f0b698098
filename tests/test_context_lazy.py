"""A context loaded from its CSR columns equals one built row by row.

The store's ``context`` section becomes a :class:`TransactionDatabase`
through :meth:`~repro.data.context.TransactionDatabase.from_csr`: one
numpy scatter fills the matrix and the per-row itemsets are decoded only
when somebody asks for them.  These properties pin that the lazy context
is indistinguishable from an eagerly built one through every public
view, including the derived contexts (``extended``,
``restrict_to_items``), and that malformed columns are refused.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import TransactionDatabase
from repro.data.io import load_database_store, save_database_store
from repro.errors import InvalidParameterError, StoreIntegrityError
from repro.store import load_run, save_run


@st.composite
def contexts(draw):
    """Small contexts over int or str items: empty rows, zero rows, unused items."""
    kind = draw(st.sampled_from(("int", "str")))
    n_items = draw(st.integers(min_value=0, max_value=9))
    if kind == "int":
        universe = list(range(n_items))
    else:
        universe = [f"x{k}" for k in range(n_items)]
    row = st.sets(st.sampled_from(universe)) if universe else st.just(set())
    rows = draw(st.lists(row, max_size=10))
    # Items in the order but in no row are kept with support zero.
    order = draw(st.permutations(universe)) if draw(st.booleans()) else None
    return TransactionDatabase(rows, item_order=order, name="ctx")


def assert_same_context(actual: TransactionDatabase, expected: TransactionDatabase):
    assert actual.items == expected.items
    assert [type(item) for item in actual.items] == [type(i) for i in expected.items]
    assert actual.matrix.shape == expected.matrix.shape
    assert actual.matrix.dtype == expected.matrix.dtype
    assert actual.matrix.tobytes() == expected.matrix.tobytes()
    assert not actual.matrix.flags.writeable
    assert actual.object_ids == expected.object_ids
    assert actual.name == expected.name
    assert actual.n_objects == expected.n_objects == len(actual)
    assert actual.default_engine_name == expected.default_engine_name
    assert actual.transactions() == expected.transactions()
    assert list(actual) == list(expected)
    for index in range(actual.n_objects):
        assert actual.transaction(index) == expected.transaction(index)
    assert list(actual.relation_pairs()) == list(expected.relation_pairs())


def loaded_copies(database: TransactionDatabase):
    """The context after a store round trip, by every path that loads one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ctx.npz"
        save_run(path, database=database)
        yield "load_run", load_run(path, sections=["context"]).database
        yield "load_run(full)", load_run(path, verify="full").database
        dataset = Path(tmp) / "dataset.npz"
        save_database_store(database, dataset)
        yield "load_database_store", load_database_store(dataset)


def csr_of(database: TransactionDatabase):
    rows, cols = np.nonzero(database.matrix)
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(rows, minlength=database.n_objects)))
    )
    return indptr.astype(np.int64), cols.astype(np.int64)


class TestLazyEqualsEager:
    @settings(max_examples=60, deadline=None)
    @given(database=contexts())
    def test_round_trip_views(self, database):
        for label, loaded in loaded_copies(database):
            assert loaded._row_itemsets is None, label
            assert loaded.n_objects == database.n_objects, label
            assert loaded._row_itemsets is None, label
            assert_same_context(loaded, database)

    @settings(max_examples=60, deadline=None)
    @given(database=contexts())
    def test_from_csr_equals_constructor(self, database):
        indptr, item_ids = csr_of(database)
        lazy = TransactionDatabase.from_csr(indptr, item_ids, database.items, name="ctx")
        assert_same_context(lazy, database)

    @settings(max_examples=40, deadline=None)
    @given(database=contexts(), data=st.data())
    def test_closures(self, database, data):
        lazy = TransactionDatabase.from_csr(*csr_of(database), database.items, name="ctx")
        candidates = [[item] for item in database.items] + [
            sorted(row, key=repr) for row in database.transactions()
        ]
        if database.n_items:
            candidates.append(
                data.draw(st.sets(st.sampled_from(database.items)), label="extra")
            )
        assert lazy.closures(candidates) == database.closures(candidates)
        assert lazy.supports(candidates) == database.supports(candidates)
        assert lazy._row_itemsets is None

    @settings(max_examples=40, deadline=None)
    @given(
        database=contexts(),
        batch=st.lists(
            st.sets(st.sampled_from([0, 1, 2, 50, 51, "n0"]), max_size=4),
            max_size=4,
        ),
    )
    def test_extended(self, database, batch):
        # Keep one item type per context: the batch draws from the kind
        # the context already holds (or any kind for an empty universe).
        kinds = {type(item) for item in database.items}
        batch = [{i for i in row if not kinds or type(i) in kinds} for row in batch]
        lazy = TransactionDatabase.from_csr(*csr_of(database), database.items, name="ctx")
        grown = lazy.extended(batch)
        assert grown._row_itemsets is None  # a lazy parent stays lazy
        assert lazy._row_itemsets is None
        assert_same_context(grown, database.extended(batch))

        lazy.transactions()
        eager_child = lazy.extended(batch)
        assert eager_child._row_itemsets is not None
        assert_same_context(eager_child, database.extended(batch))

    @settings(max_examples=40, deadline=None)
    @given(database=contexts(), data=st.data())
    def test_restrict_to_items(self, database, data):
        universe = database.items
        items = st.sets(st.sampled_from(universe)) if universe else st.just(set())
        keep = data.draw(items, label="keep")
        lazy = TransactionDatabase.from_csr(*csr_of(database), database.items, name="ctx")
        restricted = lazy.restrict_to_items(keep)
        expected = TransactionDatabase(
            [row.intersection(keep).as_frozenset() for row in database],
            item_order=[item for item in database.items if item in keep],
            object_ids=database.object_ids,
            name=database.name,
        )
        assert_same_context(restricted, expected)
        assert_same_context(restricted, database.restrict_to_items(keep))


class TestMalformedColumns:
    ITEMS = ("a", "b", "c")

    @pytest.mark.parametrize(
        "indptr, item_ids",
        [
            (np.zeros(0, dtype=np.int64), []),  # no offsets at all
            ([1, 2], [0, 1]),  # does not start at 0
            ([0, 2, 1, 3], [0, 1, 2]),  # decreasing
            ([0, 2], [0, 1, 2]),  # does not end at len(item_ids)
            ([0, 2], [0, 3]),  # item id past the universe
            ([0, 2], [0, -1]),  # negative item id
            ([0.0, 2.0], [0, 1]),  # not integers
            ([True, False], [0, 1]),  # booleans are not offsets
            ([[0, 2]], [0, 1]),  # not one-dimensional
        ],
    )
    def test_rejected(self, indptr, item_ids):
        with pytest.raises(InvalidParameterError):
            TransactionDatabase.from_csr(
                np.asarray(indptr), np.asarray(item_ids, dtype=np.int64), self.ITEMS
            )

    def test_repeated_item_label_rejected(self):
        with pytest.raises(InvalidParameterError):
            TransactionDatabase.from_csr(
                np.array([0, 1]), np.array([0]), ("a", "a")
            )

    def test_store_with_out_of_range_item_ids_is_an_integrity_error(
        self, tmp_path
    ):
        """Valid zip CRCs, wrong content: refused even with ``verify="off"``."""
        database = TransactionDatabase([["a", "b"], ["c"]])
        path = tmp_path / "ctx.npz"
        save_run(path, database=database)
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        payload["context__item_ids"] = payload["context__item_ids"] + 7
        np.savez_compressed(path, **payload)
        with pytest.raises(StoreIntegrityError, match="malformed context"):
            load_run(path, verify="off")
