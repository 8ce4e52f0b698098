"""Exploring the iceberg lattice and deriving rules without the database.

The frequent closed itemsets ordered by inclusion form the iceberg lattice;
its Hasse edges are the reduced Luxenburger basis, and walking its paths
reconstructs the confidence of any rule.  This example builds the lattice
of a small categorical dataset, prints its structure level by level, and
then answers ad-hoc rule queries using only the bases — the database is
explicitly discarded after mining.

Run with:  python examples/lattice_exploration.py
"""

from __future__ import annotations

from repro import (
    Apriori,
    BasisDerivation,
    Close,
    IcebergLattice,
    Itemset,
    LuxenburgerBasis,
    build_duquenne_guigues_basis,
)
from repro.data.benchmarks_data import make_categorical_dataset

MINSUP = 0.3
MINCONF = 0.5


def main() -> None:
    database = make_categorical_dataset(
        n_objects=400,
        n_attributes=5,
        values_per_attribute=3,
        n_latent_classes=2,
        class_fidelity=0.9,
        n_deterministic_attributes=2,
        n_constant_attributes=1,
        seed=21,
        name="lattice-demo",
    )
    n_objects = database.n_objects

    frequent = Apriori(MINSUP).mine(database)
    closed = Close(MINSUP).mine(database)
    lattice = IcebergLattice(closed)

    print(database)
    print(
        f"\niceberg lattice at minsup={MINSUP}: {len(lattice)} closed itemsets, "
        f"{lattice.edge_count()} Hasse edges, height {lattice.height()}"
    )
    print("closed itemsets per size:", lattice.width_by_size())
    print("minimal elements:", [str(i) for i in lattice.minimal_elements()])
    print("maximal elements:", [str(i) for i in lattice.maximal_elements()])

    print("\nHasse edges (closed itemset -> immediate successors):")
    for node in lattice.nodes()[:8]:
        successors = lattice.children_of(node)
        if successors:
            print(f"  {node}  ->  {', '.join(str(s) for s in successors)}")

    # Build the bases, then *discard the database*: every further answer is
    # produced from the bases alone.
    dg_basis = build_duquenne_guigues_basis(frequent, closed)
    luxenburger = LuxenburgerBasis(closed, minconf=0.0, transitive_reduction=True)
    derivation = BasisDerivation(dg_basis, luxenburger, n_objects=n_objects)
    del database

    print(
        f"\nbases: {len(dg_basis)} exact rules (Duquenne-Guigues), "
        f"{len(luxenburger)} approximate rules (reduced Luxenburger)"
    )

    # Ad-hoc queries answered purely by derivation.
    some_items = [item for item in closed.itemsets()[-1]][:3]
    queries = [
        (Itemset(some_items[:1]), Itemset(some_items[1:2])),
        (Itemset(some_items[:2]), Itemset(some_items[2:3])),
    ]
    print("\nrule queries answered from the bases only:")
    for antecedent, consequent in queries:
        if not consequent or not antecedent.isdisjoint(consequent) or not antecedent:
            continue
        rule = derivation.derive_rule(antecedent, consequent)
        kind = "exact" if rule.is_exact else "approximate"
        print(f"  {rule}   [{kind}]")


if __name__ == "__main__":
    main()
