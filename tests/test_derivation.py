"""Round-trip tests: rules derived from the bases == rules generated naively.

This is the paper's central claim exercised end to end: mine the frequent
and closed itemsets, build the two bases, throw the database away, and
reconstruct every valid association rule — with its exact support and
confidence — from the bases alone.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Apriori,
    BasisDerivation,
    Close,
    LuxenburgerBasis,
    TransactionDatabase,
    build_duquenne_guigues_basis,
)
from repro.algorithms.rule_generation import (
    generate_all_rules,
    generate_approximate_rules,
    generate_exact_rules,
)
from repro.bases import build_bases
from repro.core.derivation import _luxenburger_supports
from repro.core.itemset import Itemset
from repro.core.rulearrays import RuleArrays
from repro.core.rules import AssociationRule
from repro.errors import DerivationError, InvalidParameterError
from repro.experiments.harness import mine_itemsets

from derivation_oracles import (
    luxenburger_supports_reference,
    recover_closed_supports_reference,
)


def build_derivation(db, minsup, minconf=0.0):
    frequent = Apriori(minsup).mine(db)
    closed = Close(minsup).mine(db)
    dg = build_duquenne_guigues_basis(frequent, closed)
    lux = LuxenburgerBasis(closed, minconf=minconf, transitive_reduction=True)
    return frequent, BasisDerivation(dg, lux, n_objects=db.n_objects)


class TestPrimitives:
    def test_closure_and_supports_on_toy(self, toy_db):
        frequent, derivation = build_derivation(toy_db, 0.4)
        assert derivation.closure(Itemset("a")) == Itemset("ac")
        assert derivation.support_count(Itemset("a")) == 3
        assert derivation.support(Itemset("bc")) == pytest.approx(0.6)
        assert derivation.support_count(Itemset("abce")) == 2

    def test_confidence_reconstruction(self, toy_db):
        _, derivation = build_derivation(toy_db, 0.4)
        assert derivation.confidence(Itemset("a"), Itemset("c")) == 1.0
        assert derivation.confidence(Itemset("c"), Itemset("a")) == pytest.approx(0.75)
        assert derivation.confidence(Itemset("c"), Itemset("abe")) == pytest.approx(0.5)

    def test_derive_single_rule(self, toy_db):
        _, derivation = build_derivation(toy_db, 0.4)
        rule = derivation.derive_rule(Itemset("c"), Itemset("be"))
        assert rule.support == pytest.approx(0.6)
        assert rule.confidence == pytest.approx(0.75)
        assert rule.support_count == 3

    def test_unknown_closed_support_raises(self, toy_db):
        _, derivation = build_derivation(toy_db, 0.4)
        with pytest.raises(DerivationError):
            derivation.support_count_of_closed(Itemset("ad"))

    def test_invalid_constructor_arguments(self, toy_db):
        frequent, derivation = build_derivation(toy_db, 0.4)
        with pytest.raises(InvalidParameterError):
            BasisDerivation.__init__(derivation, None, None, n_objects=0)
        with pytest.raises(InvalidParameterError):
            derivation.derive_approximate_rules(frequent, minconf=2.0)


class TestRoundTrip:
    @pytest.mark.parametrize("minconf", [0.0, 0.5, 0.7, 0.9])
    def test_toy_round_trip(self, toy_db, minconf):
        frequent, derivation = build_derivation(toy_db, 0.4)
        naive = generate_all_rules(frequent, minconf=minconf)
        derived = derivation.derive_all_rules(frequent, minconf)
        assert naive.same_rules_and_statistics(derived)

    @pytest.mark.parametrize("minsup", [0.1, 0.25, 0.5])
    def test_random_databases_round_trip(self, random_db, minsup):
        frequent, derivation = build_derivation(random_db, minsup)
        for minconf in (0.4, 0.7):
            naive = generate_all_rules(frequent, minconf=minconf)
            derived = derivation.derive_all_rules(frequent, minconf)
            assert naive.same_rules_and_statistics(derived)

    def test_exact_rules_round_trip(self, random_db):
        frequent, derivation = build_derivation(random_db, 0.2)
        naive = generate_exact_rules(frequent)
        derived = derivation.derive_exact_rules(frequent)
        assert naive.same_rules_and_statistics(derived)

    def test_approximate_rules_round_trip(self, random_db):
        frequent, derivation = build_derivation(random_db, 0.2)
        naive = generate_approximate_rules(frequent, minconf=0.5)
        derived = derivation.derive_approximate_rules(frequent, minconf=0.5)
        assert naive.same_rules_and_statistics(derived)

    def test_universal_item_round_trip(self, allx_db):
        frequent, derivation = build_derivation(allx_db, 0.25)
        naive = generate_all_rules(frequent, minconf=0.3)
        derived = derivation.derive_all_rules(frequent, 0.3)
        assert naive.same_rules_and_statistics(derived)

    def test_dense_smoke_round_trip(self, dense_smoke_db):
        frequent, derivation = build_derivation(dense_smoke_db, 0.4)
        naive = generate_all_rules(frequent, minconf=0.7)
        derived = derivation.derive_all_rules(frequent, 0.7)
        assert naive.same_rules_and_statistics(derived)

    def test_derivation_works_from_full_luxenburger_basis_too(self, toy_db):
        frequent = Apriori(0.4).mine(toy_db)
        closed = Close(0.4).mine(toy_db)
        dg = build_duquenne_guigues_basis(frequent, closed)
        full = LuxenburgerBasis(closed, minconf=0.0, transitive_reduction=False)
        derivation = BasisDerivation(dg, full, n_objects=toy_db.n_objects)
        naive = generate_all_rules(frequent, minconf=0.5)
        derived = derivation.derive_all_rules(frequent, 0.5)
        assert naive.same_rules_and_statistics(derived)


def assert_same_rows(left, right) -> None:
    """Same keys in the same universe, with bit-identical statistics."""
    assert left.universe == right.universe
    assert left.antecedents.words.tobytes() == right.antecedents.words.tobytes()
    assert left.consequents.words.tobytes() == right.consequents.words.tobytes()
    assert np.array_equal(left.support_count, right.support_count)
    assert left.confidence.tobytes() == right.confidence.tobytes()
    assert left.support.tobytes() == right.support.tobytes()


@st.composite
def small_contexts(draw):
    """Random 1-14 row contexts over at most 7 items."""
    n_items = draw(st.integers(min_value=1, max_value=7))
    rows = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=n_items - 1), max_size=n_items),
            min_size=1,
            max_size=14,
        )
    )
    return TransactionDatabase([[f"i{item}" for item in row] for row in rows])


class TestTheorems:
    """The paper's theorems as properties of the array-native bases."""

    @settings(max_examples=40, deadline=None)
    @given(
        database=small_contexts(),
        minsup=st.sampled_from((0.15, 0.3, 0.5)),
        minconf=st.sampled_from((0.0, 0.4, 0.7, 1.0)),
    )
    def test_exact_and_approximate_partition_all(self, database, minsup, minconf):
        """``exact ⊎ approximate == all``: disjoint keys, identical statistics."""
        context = mine_itemsets(database, minsup).basis_context(minconf)
        built = build_bases(context, ["all", "exact", "approximate"])
        everything = built["all"].rule_arrays
        exact = built["exact"].rule_arrays
        approximate = built["approximate"].rule_arrays
        assert len(exact.intersection(approximate)) == 0
        assert len(exact) + len(approximate) == len(everything)
        union = exact.concat(approximate).project_to(everything.universe)
        assert_same_rows(union.sorted_canonically(), everything.sorted_canonically())

    @settings(max_examples=40, deadline=None)
    @given(
        database=small_contexts(),
        minsup=st.sampled_from((0.15, 0.3, 0.5)),
        minconf=st.sampled_from((0.0, 0.4, 0.7, 1.0)),
    )
    def test_dg_and_reduced_luxenburger_derive_all(self, database, minsup, minconf):
        """Theorems 1-2: every valid rule, with exact support and confidence."""
        context = mine_itemsets(database, minsup).basis_context(minconf)
        built = build_bases(context, ["all", "dg", "luxenburger-reduced"])
        derivation = BasisDerivation(
            built["dg"].source,
            built["luxenburger-reduced"].source,
            n_objects=database.n_objects,
        )
        derived = derivation.derive_all_rules(context.frequent, minconf).to_arrays()
        everything = built["all"].rule_arrays
        derived = derived.project_to(everything.universe)
        assert_same_rows(derived.sorted_canonically(), everything.sorted_canonically())


class TestColumnarSupportRecovery:
    """The column-native support recovery equals the per-rule object loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        database=small_contexts(),
        minsup=st.sampled_from((0.15, 0.3, 0.5)),
        minconf=st.sampled_from((0.0, 0.4, 0.7)),
        reduced=st.booleans(),
    )
    def test_equals_object_oracle(self, database, minsup, minconf, reduced):
        frequent = Apriori(minsup).mine(database)
        closed = Close(minsup).mine(database)
        lux = LuxenburgerBasis(closed, minconf=minconf, transitive_reduction=reduced)
        derivation = BasisDerivation(
            build_duquenne_guigues_basis(frequent, closed),
            lux,
            n_objects=database.n_objects,
        )
        expected = recover_closed_supports_reference(derivation)
        assert list(derivation._closed_supports.items()) == list(expected.items())
        assert all(type(count) is int for count in expected.values())
        assert all(type(count) is int for count in derivation._closed_supports.values())
        assert not lux.rules.is_materialized()

    def test_unknown_counts_and_repeated_itemsets(self):
        """``-1`` counts, a head written twice, an antecedent seen first."""
        rules = [
            AssociationRule("abc", "d", support=0.1, confidence=0.5, support_count=1),
            AssociationRule("a", "b", support=0.5, confidence=0.8),
            AssociationRule("ab", "c", support=0.3, confidence=0.6, support_count=3),
            AssociationRule("", "ab", support=0.4, confidence=0.4, support_count=4),
            AssociationRule("c", "ab", support=0.3, confidence=0.75, support_count=2),
            AssociationRule("b", "a", support=0.5, confidence=0.625),
        ]
        arrays = RuleArrays.from_rules(rules)
        for n_objects in (10, 7):
            got = _luxenburger_supports(arrays, n_objects)
            expected = luxenburger_supports_reference(rules, n_objects)
            assert list(got.items()) == list(expected.items())

    def test_empty_basis(self):
        assert _luxenburger_supports(RuleArrays.empty(("a", "b")), 5) == {}

    def test_wide_universe(self):
        """Masks spanning several packed words decode the same itemsets."""
        items = [f"i{k:03d}" for k in range(150)]
        rules = [
            AssociationRule(
                items[:70], items[70:140], support=0.2, confidence=0.5, support_count=2
            ),
            AssociationRule(
                items[:3], items[3:70], support=0.4, confidence=0.8, support_count=4
            ),
        ]
        arrays = RuleArrays.from_rules(rules)
        got = _luxenburger_supports(arrays, 10)
        assert list(got.items()) == list(
            luxenburger_supports_reference(rules, 10).items()
        )
