"""Tests for the classical all-valid-rules generation (the baseline).

The generators are array-native; ``tests/rule_oracles.py`` keeps the
per-rule object loop they replaced, and the byte-identity classes below
pin the native columns to that oracle's ``RuleSet.to_arrays()``.
"""

from __future__ import annotations

import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Apriori
from repro.algorithms.rule_generation import (
    generate_all_rules,
    generate_approximate_rules,
    generate_exact_rules,
)
from repro.core.families import ItemsetFamily
from repro.core.itemset import Itemset
from repro.core.rules import RuleSet
from repro.errors import InconsistentRuleError, InvalidParameterError

from rule_oracles import (
    all_rules_reference,
    approximate_rules_reference,
    exact_rules_reference,
)


class TestGenerateAllRules:
    def test_toy_rule_count_at_half_confidence(self, toy_frequent):
        assert len(generate_all_rules(toy_frequent, minconf=0.5)) == 50

    def test_every_rule_is_valid(self, toy_db, toy_frequent):
        rules = generate_all_rules(toy_frequent, minconf=0.6)
        assert rules
        for rule in rules:
            union = rule.antecedent.union(rule.consequent)
            expected_support = toy_db.support(union)
            expected_confidence = toy_db.support_count(union) / toy_db.support_count(
                rule.antecedent
            )
            assert rule.support == pytest.approx(expected_support)
            assert rule.confidence == pytest.approx(expected_confidence)
            assert rule.confidence >= 0.6

    def test_rule_sides_are_nonempty_and_disjoint(self, toy_frequent):
        for rule in generate_all_rules(toy_frequent, minconf=0.0):
            assert rule.antecedent
            assert rule.consequent
            assert rule.antecedent.isdisjoint(rule.consequent)

    def test_monotone_in_minconf(self, toy_frequent):
        sizes = [
            len(generate_all_rules(toy_frequent, minconf=c))
            for c in (0.0, 0.5, 0.7, 0.9, 1.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_exhaustive_against_manual_enumeration(self, toy_db, toy_frequent):
        expected = set()
        for itemset in toy_frequent:
            if len(itemset) < 2:
                continue
            for antecedent in itemset.nonempty_proper_subsets():
                confidence = toy_db.support_count(itemset) / toy_db.support_count(
                    antecedent
                )
                if confidence >= 0.7:
                    expected.add((antecedent, itemset.difference(antecedent)))
        rules = generate_all_rules(toy_frequent, minconf=0.7)
        assert rules.keys() == expected

    def test_minconf_validation(self, toy_frequent):
        with pytest.raises(InvalidParameterError):
            generate_all_rules(toy_frequent, minconf=1.5)

    def test_min_rule_size_parameter(self, toy_frequent):
        rules = generate_all_rules(toy_frequent, minconf=0.5, min_rule_size=3)
        assert all(len(rule.itemset) >= 3 for rule in rules)


class TestExactAndApproximateSplits:
    def test_exact_rules_have_confidence_one(self, toy_frequent):
        exact = generate_exact_rules(toy_frequent)
        assert exact
        assert all(rule.is_exact for rule in exact)

    def test_toy_exact_rules_are_the_known_ones(self, toy_frequent):
        exact = generate_exact_rules(toy_frequent)
        # Spot-check the classic implications of the toy context.
        assert exact.get(Itemset("a"), Itemset("c")) is not None
        assert exact.get(Itemset("b"), Itemset("e")) is not None
        assert exact.get(Itemset("ab"), Itemset("ce")) is not None
        assert exact.get(Itemset("c"), Itemset("a")) is None

    def test_approximate_rules_exclude_exact_ones(self, toy_frequent):
        approximate = generate_approximate_rules(toy_frequent, minconf=0.5)
        assert approximate
        assert all(rule.confidence < 1.0 for rule in approximate)

    def test_partition_covers_all_rules(self, toy_frequent):
        minconf = 0.5
        all_rules = generate_all_rules(toy_frequent, minconf=minconf)
        exact = generate_exact_rules(toy_frequent)
        approximate = generate_approximate_rules(toy_frequent, minconf=minconf)
        assert len(all_rules) == len(exact) + len(approximate)
        assert exact.union(approximate).same_rules(all_rules)

    def test_rule_counts_on_dense_smoke_data(self, dense_smoke_db):
        frequent = Apriori(minsup=0.3).mine(dense_smoke_db)
        all_rules = generate_all_rules(frequent, minconf=0.7)
        exact = generate_exact_rules(frequent)
        # Dense correlated data must produce a non-trivial number of exact
        # rules — that is the redundancy the paper is about.
        assert len(exact) > 10
        assert len(all_rules) > len(exact)


# ----------------------------------------------------------------------
# Byte identity with the object-loop oracle
# ----------------------------------------------------------------------
def assert_byte_identical(native: RuleSet, oracle: RuleSet) -> None:
    """Same universe, row order, mask words and statistic columns."""
    assert not native.is_materialized()
    got, expected = native.to_arrays(), oracle.to_arrays()
    assert got.universe == expected.universe
    for column in ("antecedents", "consequents"):
        left, right = getattr(got, column).words, getattr(expected, column).words
        assert left.shape == right.shape and left.dtype == right.dtype, column
        assert left.tobytes() == right.tobytes(), column
    for column in ("support", "confidence", "support_count"):
        left, right = getattr(got, column), getattr(expected, column)
        assert left.dtype == right.dtype, column
        assert left.tobytes() == right.tobytes(), column


def assert_same_outcome(native, oracle) -> None:
    """Byte-identical results, or the same rule-validation error."""
    try:
        expected = oracle()
    except InconsistentRuleError as error:
        with pytest.raises(InconsistentRuleError, match=re.escape(str(error))):
            native()
    else:
        assert_byte_identical(native(), expected)


def assert_all_three_match(frequent, minconf, min_rule_size=2, **knobs):
    assert_same_outcome(
        lambda: generate_all_rules(
            frequent, minconf, min_rule_size=min_rule_size, **knobs
        ),
        lambda: all_rules_reference(frequent, minconf, min_rule_size=min_rule_size),
    )
    assert_same_outcome(
        lambda: generate_exact_rules(frequent, **knobs),
        lambda: exact_rules_reference(frequent),
    )
    assert_same_outcome(
        lambda: generate_approximate_rules(frequent, minconf, **knobs),
        lambda: approximate_rules_reference(frequent, minconf),
    )


def counted_family(rows, minsup_count=1) -> ItemsetFamily:
    """Every itemset contained in at least *minsup_count* rows, exactly counted.

    Each row enumerates each of its subsets once, so the tally of a
    subset is the number of rows containing it: a downward-closed family
    without going through a database (so mixed item types work).
    """
    tally: dict[frozenset, int] = {}
    for row in rows:
        row = sorted(set(row), key=repr)
        for size in range(1, len(row) + 1):
            for subset in combinations(row, size):
                key = frozenset(subset)
                tally[key] = tally.get(key, 0) + 1
    return ItemsetFamily(
        {Itemset(key): count for key, count in tally.items() if count >= minsup_count},
        n_objects=len(rows),
        minsup_count=minsup_count,
    )


def label(position: int, kind: str):
    """Item label: ints, strings, or ints and strings mixed (repr-ordered)."""
    if kind == "int" or (kind == "mixed" and position % 2 == 0):
        return position
    return f"x{position}"


@st.composite
def random_contexts(draw):
    """Rows over 1-130 items, so the rule universes span 1-3 words.

    A shuffled cover chops every item into short rows (so wide universes
    really appear in rules), and a few extra rows overlap them.
    """
    words = draw(st.sampled_from((1, 2, 3)))
    n_items = draw(st.integers(min_value=64 * words - 63, max_value=min(64 * words, 130)))
    kind = draw(st.sampled_from(("str", "int", "mixed")))
    order = draw(st.permutations(range(n_items)))
    rows, start = [], 0
    while start < n_items:
        width = draw(st.integers(min_value=2, max_value=4))
        rows.append(order[start : start + width])
        start += width
    rows *= draw(st.sampled_from((1, 2)))
    rows += draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n_items - 1),
                max_size=5,
                unique=True,
            ),
            max_size=6,
        )
    )
    return [[label(item, kind) for item in row] for row in rows]


class TestOracleByteIdentity:
    """The native columns equal the object loop's ``to_arrays()``."""

    @pytest.mark.parametrize("minconf", [0.0, 0.5, 0.7, 1.0])
    def test_toy(self, toy_frequent, minconf):
        assert_all_three_match(toy_frequent, minconf)

    def test_dense_smoke(self, dense_smoke_db):
        assert_all_three_match(Apriori(minsup=0.3).mine(dense_smoke_db), 0.7)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=random_contexts(),
        minsup_count=st.integers(min_value=1, max_value=2),
        minconf=st.sampled_from((0.0, 0.5, 1.0)),
        min_rule_size=st.sampled_from((2, 3)),
        block_rows=st.sampled_from((None, 1, 5)),
        workers=st.sampled_from((1, 2)),
    )
    def test_random_contexts(
        self, rows, minsup_count, minconf, min_rule_size, block_rows, workers
    ):
        frequent = counted_family(rows, minsup_count)
        assert_all_three_match(
            frequent,
            minconf,
            min_rule_size,
            block_rows=block_rows,
            workers=workers,
        )

    @pytest.mark.parametrize("n_items", [63, 64, 65, 128, 129, 130])
    def test_word_boundary_universes(self, n_items):
        rows = [[f"i{j:03d}", f"i{(j + 1) % n_items:03d}"] for j in range(n_items)]
        rows += [["i000", "i062", f"i{n_items // 2:03d}", f"i{n_items - 1:03d}"]] * 2
        frequent = counted_family(rows)
        assert_all_three_match(frequent, 0.5)
        assert len(generate_all_rules(frequent, 0.5).to_arrays().universe) == n_items

    def test_empty_family(self):
        assert_all_three_match(ItemsetFamily({}, n_objects=5), 0.5)
        assert generate_all_rules(ItemsetFamily({}, n_objects=5), 0.5).to_arrays(
        ).universe == ()

    def test_singletons_only(self):
        frequent = ItemsetFamily({Itemset("a"): 3, Itemset("b"): 2}, n_objects=4)
        assert_all_three_match(frequent, 0.0)
        assert len(generate_all_rules(frequent, 0.0)) == 0

    def test_zero_objects(self):
        frequent = counted_family([])
        assert frequent.n_objects == 0
        assert_all_three_match(frequent, 0.0)
        zero = ItemsetFamily({Itemset("a"): 0, Itemset("ab"): 0}, n_objects=0)
        assert_all_three_match(zero, 0.0)
        assert len(generate_all_rules(zero, 0.0)) == 0

    def test_non_downward_closed_family(self):
        """Missing and zero-count antecedents are skipped, like the loop."""
        frequent = ItemsetFamily(
            {
                Itemset("a"): 4,
                Itemset("c"): 2,
                Itemset("ab"): 0,
                Itemset("abc"): 2,
                Itemset("bd"): 1,
                Itemset("xyz"): 1,
                Itemset("y"): 3,
            },
            n_objects=5,
        )
        # At minconf 0 the zero-count rule a -> b is invalid for both paths.
        assert_all_three_match(frequent, 0.0)
        assert_all_three_match(frequent, 0.1)
        rules = generate_all_rules(frequent, 0.1)
        assert rules.keys() == {
            (Itemset("a"), Itemset("bc")),
            (Itemset("c"), Itemset("ab")),
            (Itemset("y"), Itemset("xz")),
        }

    @settings(max_examples=40, deadline=None)
    @given(
        members=st.dictionaries(
            st.frozensets(st.integers(min_value=0, max_value=70), max_size=5),
            st.integers(min_value=0, max_value=6),
            max_size=25,
        ),
        minconf=st.sampled_from((0.0, 0.5, 1.0)),
        block_rows=st.sampled_from((None, 3)),
    )
    def test_arbitrary_families(self, members, minconf, block_rows):
        """Hand-built families: any itemsets, any counts, gaps anywhere."""
        frequent = ItemsetFamily(
            {Itemset(key): count for key, count in members.items()}, n_objects=6
        )
        assert_all_three_match(frequent, minconf, block_rows=block_rows)

    def test_mixed_item_types_keep_per_itemset_order(self):
        """Int-only itemsets sort numerically inside a repr-ordered universe."""
        rows = [[9, 10, "x1"], [9, 10], [10, 100, "x1"], [2, 10, 9]]
        frequent = counted_family(rows)
        assert_all_three_match(frequent, 0.0)
        # The universe is ordered by (type name, repr); the itemset {9, 10}
        # still enumerates its antecedents as 9 before 10.
        rules = generate_all_rules(frequent, 0.0)
        assert rules.to_arrays().universe == (10, 100, 2, 9, "x1")
        pair = [rule.antecedent for rule in rules if rule.itemset == Itemset([9, 10])]
        assert pair == [Itemset([9]), Itemset([10])]
