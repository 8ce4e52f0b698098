"""Test-only oracle for the support recovery of :class:`BasisDerivation`.

The per-rule object loop that
:func:`repro.core.derivation._luxenburger_supports` replaced: one
:class:`~repro.core.rules.AssociationRule` per Luxenburger rule,
``supports[C2] = count`` for its head and
``supports.setdefault(C1, round(count / confidence))`` for its
antecedent, followed by the Duquenne-Guigues closures and the bottom
element.  The columnar recovery must produce the same dictionary, item
for item and in the same insertion order.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.derivation import BasisDerivation
from repro.core.itemset import Itemset
from repro.core.rules import AssociationRule


def luxenburger_supports_reference(
    rules: Iterable[AssociationRule], n_objects: int
) -> dict[Itemset, int]:
    """The Luxenburger half of the recovery, one rule object at a time."""
    supports: dict[Itemset, int] = {}
    # Every Luxenburger rule C1 → C2\C1 carries supp(C2) as its support
    # count, and supp(C1) = supp(C2) / confidence.
    for rule in rules:
        head = rule.antecedent.union(rule.consequent)
        count = rule.support_count
        if count is None:
            count = round(rule.support * n_objects)
        supports[head] = int(count)
        antecedent_count = int(round(count / rule.confidence))
        supports.setdefault(rule.antecedent, antecedent_count)
    return supports


def recover_closed_supports_reference(
    derivation: BasisDerivation,
) -> dict[Itemset, int]:
    """The whole recovery of *derivation*, Luxenburger rules materialised."""
    n_objects = derivation.n_objects
    supports = luxenburger_supports_reference(
        derivation._lux.rules.to_arrays().iter_rules(), n_objects
    )
    # Exact rules carry supp(h(P)) for their closures.
    for rule in derivation._dg.rules:
        closure = rule.antecedent.union(rule.consequent)
        count = rule.support_count
        if count is None:
            count = round(rule.support * n_objects)
        supports.setdefault(closure, int(count))
    # The closure of the empty set: if it is the empty itemset it never
    # appears above; its support is the whole database by definition.
    supports.setdefault(derivation.closure(Itemset.empty()), n_objects)
    return supports
