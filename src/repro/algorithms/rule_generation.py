"""Classical generation of *all* valid association rules.

This is the baseline the bases are measured against: given the family of
frequent itemsets (from Apriori), enumerate every rule ``X → Y`` with
``X, Y`` non-empty and disjoint, ``X ∪ Y`` frequent, and confidence at
least ``minconf``.  The number of such rules explodes on dense data —
that explosion, and the redundancy it carries, is precisely the problem
statement of the ICDE 2000 paper.

Two refinements are exposed because the experiment tables need them
separately:

* :func:`generate_exact_rules` — only the 100 %-confidence rules;
* :func:`generate_approximate_rules` — only the rules with confidence in
  ``[minconf, 1)``.

All three run one array-native enumeration pass with the confidence
window applied inline; no :class:`~repro.core.rules.AssociationRule`
object is built.  The frequent family is packed once into uint64
item-mask rows over its item universe.  The rule candidates of an
itemset ``Z`` of size ``k`` are its ``2**k - 2`` non-empty proper
sub-masks, in :meth:`~repro.core.itemset.Itemset.nonempty_proper_subsets`
order (size, then lexicographic), which a per-``k`` table of
combination selectors addresses by row.  Antecedent supports come from
one ``searchsorted`` over the sorted packed family keys.  Candidates are
streamed in bounded row blocks through the
:class:`~repro.core.parallel.KernelExecutor` into
:meth:`~repro.core.rulearrays.RuleArrays.from_blocks`, so the result is
byte-identical for any block size and worker count.

Supports come from the provided :class:`~repro.core.families.ItemsetFamily`;
no database access is needed.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations

import numpy as np

from ..core.bitmatrix import BitMatrix, _words_for, row_keys
from ..core.constants import EPSILON
from ..core.families import ItemsetFamily
from ..core.parallel import get_executor
from ..core.rulearrays import (
    RuleArrays,
    relative_supports,
    resolve_block_rows,
    sorted_universe,
)
from ..core.rules import RuleSet
from ..errors import InconsistentRuleError, InvalidParameterError

__all__ = [
    "generate_all_rules",
    "generate_exact_rules",
    "generate_approximate_rules",
]


def _validate_minconf(minconf: float) -> None:
    if not 0.0 <= minconf <= 1.0:
        raise InvalidParameterError(f"minconf must lie in [0, 1], got {minconf}")


@cache
def _subset_selectors(k: int) -> np.ndarray:
    """The non-empty proper subsets of ``range(k)`` as uint64 bit selectors.

    Row ``r`` selects the ``r``-th subset in size-then-lexicographic
    order — the order of ``itertools.combinations`` per size, which is
    the order :meth:`Itemset.nonempty_proper_subsets` yields.
    """
    selectors = np.fromiter(
        (
            sum(1 << j for j in combo)
            for size in range(1, k)
            for combo in combinations(range(k), size)
        ),
        dtype=np.uint64,
        count=max(0, (1 << k) - 2),
    )
    selectors.setflags(write=False)  # cached: shared by every caller
    return selectors


def _select_masks(
    positions: np.ndarray, selectors: np.ndarray, n_words: int
) -> np.ndarray:
    """Packed item masks of the selected positions, one row per selector.

    ``positions[r, j]`` is the universe bit of the ``j``-th item of row
    ``r`` (``-1`` past the itemset's size); bit ``j`` of ``selectors[r]``
    keeps it.
    """
    n_rows = len(positions)
    masks = np.zeros((n_rows, n_words), dtype=np.uint64)
    flat = masks.reshape(-1)
    base = np.arange(n_rows, dtype=np.int64) * n_words
    for j in range(positions.shape[1]):
        column = positions[:, j]
        picked = ((selectors >> np.uint64(j)) & np.uint64(1)).astype(bool)
        picked &= column >= 0
        column = column[picked]
        flat[base[picked] + (column >> 6)] |= np.uint64(1) << (
            column & 63
        ).astype(np.uint64)
    return masks


def _half_submasks(
    positions: np.ndarray, widths: np.ndarray, shifts: np.ndarray, n_words: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every sub-mask of a run of items per row, with each row's table offset.

    Row ``r`` contributes ``2**widths[r]`` masks over its items
    ``shifts[r] .. shifts[r] + widths[r] - 1``; entry ``v`` of its table
    keeps the items whose bit is set in ``v``.
    """
    counts = np.int64(1) << widths
    offsets = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(len(positions)), counts)
    values = (np.arange(len(rows)) - offsets[rows]) << shifts[rows]
    return _select_masks(positions[rows], values.astype(np.uint64), n_words), offsets


def _emit_rule_arrays(
    frequent: ItemsetFamily,
    minconf: float,
    min_rule_size: int,
    exclude_exact: bool,
    block_rows: int | None,
    workers: int | None,
) -> RuleArrays:
    """One enumeration pass with the confidence window applied inline.

    Rows come out in the order the per-rule loop added them: itemsets in
    canonical family order, each followed by its antecedents in
    :meth:`Itemset.nonempty_proper_subsets` order.  An antecedent missing
    from the family, or with support 0, is skipped (impossible for a
    downward-closed family).  The result is packed over the items its
    rules use, exactly what :meth:`RuleSet.to_arrays` derives for the
    same rules.
    """
    entries = list(frequent.items_with_supports())
    min_size = max(2, min_rule_size)
    candidate_items = [itemset for itemset, _ in entries if len(itemset) >= min_size]
    if not candidate_items:
        return RuleArrays.empty()
    universe = sorted_universe(chain.from_iterable(candidate_items))
    position = {item: bit for bit, item in enumerate(universe)}
    n_words = _words_for(len(universe))

    # Every family member packable over the universe, items in the
    # member's own canonical order (which fixes its combination order).
    members: list[list[int]] = []
    counts: list[int] = []
    for itemset, count in entries:
        bits = [position.get(item, -1) for item in itemset.as_tuple()]
        if -1 not in bits:
            members.append(bits)
            counts.append(count)
    sizes = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
    max_size = int(sizes.max())
    positions = np.array([bits + [-1] * (max_size - len(bits)) for bits in members])
    member_counts = np.asarray(counts, dtype=np.int64)
    member_masks = _select_masks(positions, np.full(len(members), ~np.uint64(0)), n_words)
    member_keys = row_keys(member_masks)
    order = np.argsort(member_keys, kind="stable")
    sorted_keys = member_keys[order]
    sorted_counts = member_counts[order]

    candidates = np.nonzero(sizes >= min_size)[0]
    cand_sizes = sizes[candidates]
    repeats = (np.int64(1) << cand_sizes) - 2
    boundaries = np.cumsum(repeats)
    starts = boundaries - repeats
    total = int(boundaries[-1])
    # Candidate row f of candidate c uses selector row selector_offset[c] + f.
    selector_table = np.concatenate([_subset_selectors(k) for k in range(max_size + 1)])
    size_offset = np.cumsum([0] + [len(_subset_selectors(k)) for k in range(max_size)])
    selector_offset = size_offset[cand_sizes] - starts
    # Every sub-mask of each candidate's low and of its high item half:
    # a candidate row's antecedent is one entry of each, so a block costs
    # two gathers however large its itemsets are.
    low_width = (cand_sizes + 1) // 2
    low_table, low_offset = _half_submasks(
        positions[candidates], low_width, np.zeros_like(low_width), n_words
    )
    high_table, high_offset = _half_submasks(
        positions[candidates], cand_sizes - low_width, low_width, n_words
    )
    low_width = low_width.astype(np.uint64)
    n_objects = frequent.n_objects
    lower = minconf - EPSILON
    block = resolve_block_rows(block_rows, n_words)

    def emit(lo: int) -> RuleArrays:
        hi = min(lo + block, total)
        first, last = np.searchsorted(boundaries, [lo, hi - 1], side="right")
        spans = np.minimum(boundaries[first : last + 1], hi) - np.maximum(
            starts[first : last + 1], lo
        )
        owner = np.repeat(np.arange(first, last + 1), spans)
        member = candidates[owner]
        selectors = selector_table[selector_offset[owner] + np.arange(lo, hi)]
        low_bits = low_width[owner]
        low = selectors & ((np.uint64(1) << low_bits) - np.uint64(1))
        antecedents = (
            low_table[low_offset[owner] + low.astype(np.int64)]
            | high_table[high_offset[owner] + (selectors >> low_bits).astype(np.int64)]
        )
        keys = row_keys(antecedents)
        slot = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
        antecedent_counts = np.where(sorted_keys[slot] == keys, sorted_counts[slot], 0)
        keep = antecedent_counts > 0
        support_counts = member_counts[member]
        confidence = np.zeros(hi - lo, dtype=np.float64)
        confidence[keep] = support_counts[keep] / antecedent_counts[keep]
        keep &= confidence >= lower
        if exclude_exact:
            keep &= confidence < 1.0 - EPSILON
        antecedents = antecedents[keep]
        support_counts = support_counts[keep]
        confidence = confidence[keep]
        # The checks and the clamp AssociationRule applies to each rule;
        # they only bite on families whose counts are not anti-monotone.
        invalid = (confidence <= 0.0) | (confidence > 1.0 + EPSILON)
        if invalid.any():
            raise InconsistentRuleError(
                f"confidence {float(confidence[invalid][0])} outside (0, 1]"
            )
        np.minimum(confidence, 1.0, out=confidence)
        return RuleArrays(
            BitMatrix(antecedents, len(universe)),
            BitMatrix(member_masks[member[keep]] & ~antecedents, len(universe)),
            universe,
            relative_supports(support_counts, n_objects),
            confidence,
            support_counts,
        )

    arrays = RuleArrays.from_blocks(
        get_executor(workers).imap(emit, range(0, total, block)), universe
    )
    # Pack over the items the rules use: the universe to_arrays() derives.
    used = np.bitwise_or.reduce(
        arrays.antecedents.words | arrays.consequents.words,
        axis=0,
        initial=np.uint64(0),
    )
    used_bits = BitMatrix(used[None, :], len(universe)).row_indices(0)
    return arrays.project_to(sorted_universe(universe[bit] for bit in used_bits))


def _generate_rules(
    frequent: ItemsetFamily,
    minconf: float,
    min_rule_size: int,
    exclude_exact: bool,
    block_rows: int | None,
    workers: int | None,
) -> RuleSet:
    arrays = _emit_rule_arrays(
        frequent, minconf, min_rule_size, exclude_exact, block_rows, workers
    )
    # Keys are unique by construction: each row's antecedent ∪ consequent
    # is its source itemset and the antecedents of one itemset differ.
    return RuleSet.from_arrays(arrays, assume_unique=True)


def generate_all_rules(
    frequent: ItemsetFamily,
    minconf: float,
    *,
    min_rule_size: int = 2,
    block_rows: int | None = None,
    workers: int | None = None,
) -> RuleSet:
    """Generate every valid association rule from the frequent itemsets.

    Parameters
    ----------
    frequent:
        Family of frequent itemsets with their supports (typically the
        output of :class:`~repro.algorithms.apriori.Apriori`).
    minconf:
        Minimum confidence threshold in ``[0, 1]``.
    min_rule_size:
        Minimum cardinality of ``X ∪ Y``; the classical definition uses 2
        (a rule needs at least one item on each side).
    block_rows:
        Candidate rows per streamed block (``None`` sizes blocks from the
        shared working-set budget).  The result does not depend on it.
    workers:
        Worker count for the block emission; ``None`` defers to the
        ``REPRO_NUM_WORKERS`` environment variable, else serial.  The
        result does not depend on it.

    Returns
    -------
    RuleSet
        All rules ``X → Y`` with non-empty, disjoint sides, ``X ∪ Y``
        frequent and ``confidence ≥ minconf``, as a column-backed set.
    """
    _validate_minconf(minconf)
    return _generate_rules(frequent, minconf, min_rule_size, False, block_rows, workers)


def generate_exact_rules(
    frequent: ItemsetFamily,
    *,
    block_rows: int | None = None,
    workers: int | None = None,
) -> RuleSet:
    """Generate every exact (100 %-confidence) association rule.

    A rule ``X → Y`` is exact iff ``support(X ∪ Y) = support(X)``, i.e. the
    antecedent never occurs without the consequent.
    """
    return generate_all_rules(
        frequent, minconf=1.0, block_rows=block_rows, workers=workers
    )


def generate_approximate_rules(
    frequent: ItemsetFamily,
    minconf: float,
    *,
    block_rows: int | None = None,
    workers: int | None = None,
) -> RuleSet:
    """Generate every approximate rule with confidence in ``[minconf, 1)``.

    The exact rules are excluded during the enumeration itself (one pass),
    not by generating everything and filtering afterwards.
    """
    _validate_minconf(minconf)
    return _generate_rules(frequent, minconf, 2, True, block_rows, workers)
