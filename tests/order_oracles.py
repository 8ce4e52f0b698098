"""Test-only oracles for the lattice order core.

Two independent constructions the packed
:class:`~repro.core.order.PackedOrderCore` is checked against:

* the **dense oracle** — a plain ``n x n`` bool strict-containment matrix
  (:func:`containment_matrix`) and its float32-BLAS transitive reduction
  (:func:`hasse_reduction`);
* the **reference core** — the per-pair pure-Python Hasse builder
  :func:`~repro.core.lattice.hasse_edges_reference`, wrapped as a
  CSR-only order core (:func:`reference_lattice`) whose containment
  queries probe the member masks instead of any pair matrix.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitmatrix import _BLOCK_CELLS
from repro.core.families import ClosedItemsetFamily
from repro.core.lattice import IcebergLattice, hasse_edges_reference
from repro.core.order import PackedOrderCore, pack_itemset_masks


def containment_matrix(masks: np.ndarray) -> np.ndarray:
    """Strict-containment matrix of a packed family of distinct itemsets.

    ``result[i, j]`` is ``True`` iff row ``i`` is a proper subset of row
    ``j``.  Rows must be pairwise distinct, so subset-and-equal only
    happens on the diagonal, which is cleared.
    """
    n, n_words = masks.shape
    proper = np.empty((n, n), dtype=bool)
    block = max(1, _BLOCK_CELLS // max(1, n))
    for start in range(0, n, block):
        rows = masks[start : start + block]
        subset = np.ones((rows.shape[0], n), dtype=bool)
        for word in range(n_words):
            column = rows[:, word][:, None]
            subset &= (column & masks[None, :, word]) == column
        proper[start : start + block] = subset
    np.fill_diagonal(proper, False)
    return proper


def hasse_reduction(proper: np.ndarray) -> np.ndarray:
    """Transitive reduction of a strict partial order given as a bool matrix.

    A pair ``(i, j)`` has an intermediate element iff
    ``(proper @ proper)[i, j]`` is non-zero; the Hasse diagram keeps
    exactly the pairs without one.  The products run block by block in
    float32 so they are dispatched to BLAS.
    """
    n = proper.shape[0]
    if n == 0:
        return proper.copy()
    hasse = np.empty_like(proper)
    block = max(1, _BLOCK_CELLS // max(1, n))
    for start in range(0, n, block):
        rows = proper[start : start + block]
        two_step = np.zeros(rows.shape, dtype=np.float32)
        for mid in range(0, n, block):
            two_step += rows[:, mid : mid + block].astype(np.float32) @ proper[
                mid : mid + block
            ].astype(np.float32)
        hasse[start : start + block] = rows & ~(two_step > 0.5)
    return hasse


def reference_edge_indices(
    closed: ClosedItemsetFamily,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hasse_edges_reference` as ``(smaller, larger)`` index arrays."""
    index = {member: position for position, member in enumerate(closed.itemsets())}
    edges = hasse_edges_reference(closed)
    rows = np.array([index[smaller] for smaller, _ in edges], dtype=np.int64)
    cols = np.array([index[larger] for _, larger in edges], dtype=np.int64)
    return rows, cols


def reference_lattice(closed: ClosedItemsetFamily) -> IcebergLattice:
    """The iceberg lattice of *closed* around the reference core.

    The core is CSR-only (:meth:`PackedOrderCore.from_edges`): the
    per-pair oracle's Hasse edges plus the member masks, which answer
    containment queries by probing — no pair matrix of any kind.
    """
    masks, _ = pack_itemset_masks(closed.itemsets())
    core = PackedOrderCore.from_edges(masks, *reference_edge_indices(closed))
    return IcebergLattice(closed, order_core=core)
