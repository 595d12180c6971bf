"""Marginal collections as hypergraphs: connectivity, decision power, counts.

A collection of observed marginals is a hypergraph on the particles.  For
entangled symmetric states a collection decides detection or determination
iff it is connected and contains one subset at least as large as the
corresponding length, which turns "how many k-body marginals suffice"
into a covering count with a closed form.

Subsets are bitmasks (vertex j on bit j-1), so collections on up to 63
vertices cost nothing to store; dense state operations elsewhere have much
smaller caps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EdlkitError
from .qcore import _is_integer, _labels_of, _mask_of

MAX_VERTICES = 63


@dataclass(frozen=True)
class SubsetCollection:
    """Deduplicated collection of nonempty vertex subsets of [n]."""

    n: int
    edges: tuple  # sorted tuple of bitmasks

    def __post_init__(self):
        if not _is_integer(self.n) or self.n < 1:
            raise EdlkitError("DIM_MISMATCH", "need a positive integer vertex count, got %r" % (self.n,))
        if self.n > MAX_VERTICES:
            raise EdlkitError("TOO_LARGE", "vertex count %d exceeds %d" % (self.n, MAX_VERTICES))
        seen = []
        for mask in self.edges:
            if mask == 0:
                raise EdlkitError("EMPTY_SUBSET", "collections cannot contain the empty subset")
            if not _is_integer(mask) or not 0 < mask < (1 << self.n):
                raise EdlkitError("BAD_VERTEX", "subset mask %r out of range for n=%d" % (mask, self.n))
            seen.append(int(mask))
        object.__setattr__(self, "edges", tuple(sorted(set(seen))))

    @classmethod
    def from_lists(cls, n, subsets):
        return cls(n, tuple(_mask_of(n, s) for s in subsets))

    def to_lists(self):
        return [list(_labels_of(m)) for m in self.edges]

    def __iter__(self):
        # yields label tuples so the collection plugs into marginal checks
        return (_labels_of(m) for m in self.edges)

    def __len__(self):
        return len(self.edges)

    def max_size(self):
        return max((bin(m).count("1") for m in self.edges), default=0)


def all_k_subsets(n, k):
    """Collection of every k-element subset of [n]."""
    if not (_is_integer(n) and _is_integer(k)) or not 1 <= k <= n:
        raise EdlkitError("BAD_K", "need integers 1 <= k <= n, got k=%r, n=%r" % (k, n))
    masks = []
    for combo in itertools.combinations(range(n), k):
        mask = 0
        for j in combo:
            mask |= 1 << j
        masks.append(mask)
    return SubsetCollection(n, tuple(masks))


def is_connected(collection):
    """True iff the hypergraph covers all of [n] in a single component."""
    edges = collection.edges
    reached, before = (edges[0] if edges else 0), -1
    while reached != before:
        before = reached
        for mask in edges:
            if mask & reached:
                reached |= mask
    return reached == (1 << collection.n) - 1


def collection_decides(collection, length, n):
    """Whether observing these marginals decides a property of length ``length``.

    For entangled symmetric states this is exact: the collection works iff it
    is connected and some subset has at least ``length`` particles.
    """
    if not _is_integer(n) or collection.n != n:
        raise EdlkitError("DIM_MISMATCH", "collection is over n=%d, asked n=%r" % (collection.n, n))
    if not _is_integer(length) or not 1 <= length <= n:
        raise EdlkitError("BAD_K", "length %r outside 1..%d" % (length, n))
    return is_connected(collection) and collection.max_size() >= length


def min_marginal_count(n, k):
    """Minimum number of k-body marginals that keeps the hypergraph connected
    and covering, with an overlapping-chain witness.

    ``s`` connected k-subsets cover at most ``s k - s + 1`` vertices, giving
    the count ``ceil((n-1)/(k-1))``.  The witness chains blocks that share
    one vertex, with the last block right-aligned to end exactly at n.  Every
    block lies in 1..n and the last one ends past its predecessor, so the
    chain is connected, covers [n] and has exactly ``count`` distinct blocks.
    """
    if not (_is_integer(n) and _is_integer(k)) or not 2 <= k <= n:
        raise EdlkitError("BAD_K", "need integers 2 <= k <= n, got k=%r, n=%r" % (k, n))
    count = -(-(n - 1) // (k - 1))
    blocks = []
    for t in range(count - 1):
        start = t * (k - 1) + 1
        blocks.append(list(range(start, start + k)))
    blocks.append(list(range(n - k + 1, n + 1)))
    return count, SubsetCollection.from_lists(n, blocks)


@dataclass(frozen=True)
class TransitivityQuery:
    """Ask whether marginal agreement on a collection forces agreement on a target."""

    collection: SubsetCollection
    target: tuple  # 1-based labels

    def __post_init__(self):
        target = _labels_of(_mask_of(self.collection.n, self.target))
        if not target:
            raise EdlkitError("EMPTY_SUBSET", "target subset is empty")
        object.__setattr__(self, "target", target)


def transitivity_certificate(query, detection_length):
    """Decide a transitivity query for states of the given detection length.

    Marginal agreement with a genuinely entangled symmetric state on a
    connected collection containing one subset of size >= detection_length
    forces agreement on every target of size >= detection_length.  Returns
    ``(holds, reasons)`` where reasons lists any failed premise.
    """
    if not _is_integer(detection_length) or detection_length < 2:
        raise EdlkitError("BAD_K", "detection length must be an integer of at least 2, got %r"
                          % (detection_length,))
    reasons = []
    if not is_connected(query.collection):
        reasons.append("collection is not connected")
    if query.collection.max_size() < detection_length:
        reasons.append("no subset reaches the detection length %d" % detection_length)
    if len(query.target) < detection_length:
        reasons.append("target smaller than the detection length %d" % detection_length)
    return len(reasons) == 0, reasons
