"""The one lattice order core against its two oracles, and at large n.

Three groups of guarantees:

* the packed :class:`~repro.core.order.PackedOrderCore` produces exactly
  the Hasse edges of the per-pair builder
  :func:`~repro.core.lattice.hasse_edges_reference`, and exactly the
  containment relation (and its transitive reduction) of the dense
  ``n x n`` oracle — on 0/1/2-node families, on 63/64/65-item universes
  that straddle the uint64 word boundary, on toy and random contexts,
  and at worker counts 1 and 2;
* a lattice built on the packed core answers every neighbourhood,
  ancestry, path, confidence and basis query exactly like one wrapped
  around the reference core (the oracle edges plus mask probing);
* the core loads a 50k-node synthetic family as ``n**2 / 8`` bytes of
  packed words, with the analytically known star structure coming out
  exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Apriori, Close, GeneratorFamily
from repro.bases import BasisContext, build_bases
from repro.core.families import ClosedItemsetFamily
from repro.core.itemset import Itemset
from repro.core.lattice import IcebergLattice, hasse_edges_reference
from repro.core.luxenburger import LuxenburgerBasis
from repro.core.order import pack_itemset_masks
from repro.data.synthetic import make_star_closed_family

from conftest import make_random_db
from order_oracles import (
    containment_matrix,
    hasse_reduction,
    reference_edge_indices,
    reference_lattice,
)

WORKERS = (1, 2)


def word_boundary_family(n_items: int) -> ClosedItemsetFamily:
    """A prefix chain over ``n_items`` items plus every singleton.

    The top member packs into ``ceil(n_items / 64)`` words with
    ``n_items % 64`` pad bits; the singletons add incomparable members
    and edges that reach the last word.
    """
    supports = {
        Itemset(range(size)): n_items + 2 - size for size in range(1, n_items + 1)
    }
    for item in range(1, n_items):
        supports[Itemset((item,))] = n_items + 1
    return ClosedItemsetFamily(supports, n_objects=n_items + 2, minsup_count=1)


SMALL_FAMILIES = {
    "0-node": {},
    "1-node": {Itemset("a"): 2},
    "2-node-comparable": {Itemset("a"): 2, Itemset("ab"): 1},
    "2-node-incomparable": {Itemset("a"): 2, Itemset("b"): 2},
    "2-node-empty-bottom": {Itemset(()): 3, Itemset("a"): 2},
}


RANDOM_SEEDS = (0, 1, 2, 3, 4)

FAMILY_NAMES = (
    *SMALL_FAMILIES,
    "63-items",
    "64-items",
    "65-items",
    "toy",
    *(f"random-{seed}" for seed in RANDOM_SEEDS),
)


@pytest.fixture()
def mined_random(random_db):
    return Close(minsup=0.2).mine(random_db)


@pytest.fixture(params=FAMILY_NAMES)
def family(request, toy_closed):
    name = request.param
    if name in SMALL_FAMILIES:
        return ClosedItemsetFamily(
            SMALL_FAMILIES[name], n_objects=3, minsup_count=1
        )
    if name.endswith("-items"):
        return word_boundary_family(int(name.split("-")[0]))
    if name == "toy":
        return toy_closed
    seed = int(name.split("-")[1])
    return Close(minsup=0.2).mine(make_random_db(seed))


class TestCoreMatchesOracles:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_edges_match_reference_builder(self, family, workers):
        lattice = IcebergLattice(family, workers=workers)
        assert lattice.hasse_edges() == hasse_edges_reference(family)
        rows, cols = lattice.hasse_edge_indices()
        ref_rows, ref_cols = reference_edge_indices(family)
        assert rows.dtype == ref_rows.dtype == np.int64
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(cols, ref_cols)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_containment_matches_dense_oracle(self, family, workers):
        lattice = IcebergLattice(family, workers=workers)
        masks, _ = pack_itemset_masks(family.itemsets())
        dense = containment_matrix(masks)
        packed = lattice.order_core.packed_containment_matrix()
        assert np.array_equal(packed.to_dense(), dense)
        rows, cols = lattice.containment_indices()
        dense_rows, dense_cols = np.nonzero(dense)
        assert np.array_equal(rows, dense_rows)
        assert np.array_equal(cols, dense_cols)
        hasse_rows, hasse_cols = np.nonzero(hasse_reduction(dense))
        assert np.array_equal(lattice.hasse_edge_indices()[0], hasse_rows)
        assert np.array_equal(lattice.hasse_edge_indices()[1], hasse_cols)

    def test_containment_words_identical_across_workers(self, family):
        serial = IcebergLattice(family, workers=1)
        lattice = IcebergLattice(family, workers=2)
        assert (
            lattice.order_core.packed_containment_matrix().words.tobytes()
            == serial.order_core.packed_containment_matrix().words.tobytes()
        )

    def test_lean_core_matches_dense_oracle(self, family):
        lean = IcebergLattice(family, retain_containment=False)
        masks, _ = pack_itemset_masks(family.itemsets())
        dense = containment_matrix(masks)
        assert not lean.order_core.retains_containment
        assert np.array_equal(
            lean.order_core.packed_containment_matrix().to_dense(), dense
        )
        for index in range(len(family)):
            assert np.array_equal(
                lean.order_core.order_row(index), np.nonzero(dense[index])[0]
            )


class TestCoreMatchesReferenceLattice:
    def test_toy_edges_identical(self, toy_closed):
        lattice = IcebergLattice(toy_closed)
        baseline = reference_lattice(toy_closed)
        assert lattice.hasse_edges() == baseline.hasse_edges()
        rows, cols = lattice.hasse_edge_indices()
        base_rows, base_cols = baseline.hasse_edge_indices()
        assert np.array_equal(rows, base_rows)
        assert np.array_equal(cols, base_cols)

    def test_random_context_order_identical(self, mined_random):
        baseline = reference_lattice(mined_random)
        lattice = IcebergLattice(mined_random)
        assert lattice.hasse_edges() == baseline.hasse_edges()
        assert sorted(lattice.comparable_pairs()) == sorted(
            baseline.comparable_pairs()
        )
        assert np.array_equal(
            lattice.edge_confidences(), baseline.edge_confidences()
        )
        assert np.array_equal(
            lattice.edge_confidences(full=True),
            baseline.edge_confidences(full=True),
        )
        assert lattice.is_transitive_reduction()
        assert baseline.is_transitive_reduction()

    def test_neighbourhood_accessors_identical(self, mined_random):
        baseline = reference_lattice(mined_random)
        lattice = IcebergLattice(mined_random)
        for member in lattice.members:
            assert lattice.children_of(member) == baseline.children_of(member)
            assert lattice.parents_of(member) == baseline.parents_of(member)
            assert lattice.proper_supersets(member) == baseline.proper_supersets(
                member
            )
        assert lattice.minimal_elements() == baseline.minimal_elements()
        assert lattice.maximal_elements() == baseline.maximal_elements()

    @pytest.mark.parametrize("core", ("packed", "reference"))
    def test_ancestry_and_paths(self, toy_closed, core):
        lattice = (
            IcebergLattice(toy_closed)
            if core == "packed"
            else reference_lattice(toy_closed)
        )
        assert lattice.is_ancestor(Itemset("c"), Itemset("abce"))
        assert not lattice.is_ancestor(Itemset("ac"), Itemset("be"))
        assert not lattice.is_ancestor(Itemset("c"), Itemset("c"))
        assert lattice.confidence_between(Itemset("c"), Itemset("ac")) == 0.75
        assert lattice.confidence_between(Itemset("ac"), Itemset("be")) is None
        path = lattice.path_between(Itemset("c"), Itemset("abce"))
        assert path is not None
        assert path[0] == Itemset("c") and path[-1] == Itemset("abce")
        for lower, upper in zip(path, path[1:]):
            assert (lower, upper) in lattice.hasse_edges()

    def test_basis_output_identical(self, toy_db):
        close = Close(minsup=0.4)
        closed = close.mine(toy_db)
        frequent = Apriori(minsup=0.4).mine(toy_db)
        selection = (
            "dg",
            "luxenburger",
            "luxenburger-reduced",
            "informative",
            "informative-reduced",
        )

        def build_with(lattice):
            context = BasisContext(
                closed=closed,
                minconf=0.5,
                frequent=frequent,
                generators=GeneratorFamily(closed, close.generators_by_closure),
                _lattice=lattice,
            )
            return build_bases(context, selection)

        baseline = build_with(reference_lattice(closed))
        candidate = build_with(None)
        for name in selection:
            assert set(candidate[name].rules) == set(baseline[name].rules), name

    def test_basis_output_identical_random(self, mined_random):
        for reduced in (True, False):
            baseline = LuxenburgerBasis(
                mined_random,
                minconf=0.3,
                transitive_reduction=reduced,
                lattice=reference_lattice(mined_random),
            )
            candidate = LuxenburgerBasis(
                mined_random, minconf=0.3, transitive_reduction=reduced
            )
            assert set(candidate.rules) == set(baseline.rules)


class TestLargeFamily:
    """The acceptance criterion: 50k+ nodes as packed words only."""

    N_MIDDLE = 50_000

    @pytest.fixture(scope="class")
    def star_family(self):
        return make_star_closed_family(self.N_MIDDLE + 2)

    def test_star_family_shape(self, star_family):
        assert len(star_family) == self.N_MIDDLE + 2

    def test_builds_50k_lattice_as_packed_words(self, star_family):
        lattice = IcebergLattice(star_family)
        n = self.N_MIDDLE + 2
        assert len(lattice) == n
        # n**2 / 8 bytes of containment words, not an n x n bool matrix.
        words = lattice.order_core.packed_containment_matrix().words
        assert words.shape == (n, -(-n // 64))

        # The star structure is known analytically: bottom -> each middle
        # -> top, nothing else.
        assert lattice.edge_count() == 2 * self.N_MIDDLE
        bottom = Itemset((0,))
        assert lattice.minimal_elements() == [bottom]
        (top,) = lattice.maximal_elements()
        assert len(lattice.children_of(bottom)) == self.N_MIDDLE
        assert len(lattice.parents_of(top)) == self.N_MIDDLE

        middle = lattice.children_of(bottom)[0]
        assert lattice.parents_of(middle) == [bottom]
        assert lattice.children_of(middle) == [top]
        assert lattice.is_ancestor(bottom, top)
        assert not lattice.is_ancestor(top, bottom)
        assert lattice.path_between(bottom, top) is not None
        assert lattice.confidence_between(middle, top) == pytest.approx(1 / 5)
