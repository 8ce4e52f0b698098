"""Test-only oracle for the naive ``all``/``exact``/``approximate`` bases.

The per-rule object loop the array-native emitter of
:mod:`repro.algorithms.rule_generation` replaced: every frequent itemset
``Z`` of size at least ``min_rule_size``, every non-empty proper subset
``X`` of ``Z`` in :meth:`~repro.core.itemset.Itemset.nonempty_proper_subsets`
order, one :class:`~repro.core.rules.AssociationRule` ``X → Z \\ X`` per
antecedent whose confidence falls in the window.  Its
``RuleSet.to_arrays()`` is what the native generators must reproduce
byte for byte.
"""

from __future__ import annotations

from repro.core.constants import EPSILON
from repro.core.families import ItemsetFamily
from repro.core.rules import AssociationRule, RuleSet


def generate_rules_reference(
    frequent: ItemsetFamily,
    minconf: float,
    min_rule_size: int = 2,
    exclude_exact: bool = False,
) -> RuleSet:
    """One enumeration pass with the confidence window applied inline."""
    rules = RuleSet()
    n_objects = frequent.n_objects
    for itemset, count in frequent.items_with_supports():
        if len(itemset) < min_rule_size:
            continue
        support = count / n_objects if n_objects else 0.0
        for antecedent in itemset.nonempty_proper_subsets():
            antecedent_count = frequent.get(antecedent)
            if antecedent_count is None or antecedent_count == 0:
                # Cannot happen for a downward-closed family; guard anyway.
                continue
            confidence = count / antecedent_count
            if confidence < minconf - EPSILON:
                continue
            if exclude_exact and confidence >= 1.0 - EPSILON:
                continue
            rules.add(
                AssociationRule(
                    antecedent,
                    itemset.difference(antecedent),
                    support=support,
                    confidence=confidence,
                    support_count=count,
                )
            )
    return rules


def all_rules_reference(
    frequent: ItemsetFamily, minconf: float, *, min_rule_size: int = 2
) -> RuleSet:
    """Object-loop ``generate_all_rules``."""
    return generate_rules_reference(frequent, minconf, min_rule_size)


def exact_rules_reference(frequent: ItemsetFamily) -> RuleSet:
    """Object-loop ``generate_exact_rules``."""
    return generate_rules_reference(frequent, 1.0)


def approximate_rules_reference(frequent: ItemsetFamily, minconf: float) -> RuleSet:
    """Object-loop ``generate_approximate_rules``."""
    return generate_rules_reference(frequent, minconf, exclude_exact=True)
