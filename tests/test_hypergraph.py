"""Subset collections, connectivity, minimal covers, transitivity."""

import math

import numpy as np
import pytest

from edlkit import oracle
from edlkit.errors import EdlkitError
from edlkit.hypergraph import (
    SubsetCollection,
    TransitivityQuery,
    all_k_subsets,
    collection_decides,
    is_connected,
    min_marginal_count,
    transitivity_certificate,
)


def test_collection_normalization():
    c = SubsetCollection.from_lists(4, [[2, 1], [1, 2], [3, 4]])
    assert len(c) == 2
    assert c.to_lists() == [[1, 2], [3, 4]]
    assert c.max_size() == 2
    assert sorted(tuple(s) for s in c) == [(1, 2), (3, 4)]


def test_collection_rejects_bad_subsets():
    with pytest.raises(EdlkitError) as err:
        SubsetCollection(3, (0,))
    assert err.value.code == "EMPTY_SUBSET"
    with pytest.raises(EdlkitError) as err:
        SubsetCollection(3, (1 << 3,))
    assert err.value.code == "BAD_VERTEX"
    with pytest.raises(EdlkitError) as err:
        SubsetCollection(64, (1,))
    assert err.value.code == "TOO_LARGE"
    for bad in (lambda: SubsetCollection.from_lists(3, [[1.5, 2]]),
                lambda: SubsetCollection(3, (1.5,))):
        with pytest.raises(EdlkitError) as err:
            bad()
        assert err.value.code == "BAD_VERTEX"
    for n, subsets in ((3.0, [[1, 2]]), ("3", [[1]]), (3, [[1, 1, 2]]), (3, [[2], [3, 3]])):
        with pytest.raises(EdlkitError) as err:
            SubsetCollection.from_lists(n, subsets)
        assert err.value.code == "DIM_MISMATCH"
    c = SubsetCollection.from_lists(np.int64(3), [[np.int64(1), 2]])
    assert c.to_lists() == [[1, 2]] and type(c.edges[0]) is int


def test_all_k_subsets():
    c = all_k_subsets(5, 3)
    assert len(c) == math.comb(5, 3)
    assert all(len(s) == 3 for s in c)
    with pytest.raises(EdlkitError):
        all_k_subsets(4, 5)
    with pytest.raises(EdlkitError):
        all_k_subsets(4, 0)
    with pytest.raises(EdlkitError) as err:
        all_k_subsets(3.0, 2)
    assert err.value.code == "BAD_K"
    assert all_k_subsets(np.int64(3), np.int64(2)).to_lists() == [[1, 2], [1, 3], [2, 3]]


def test_connectivity():
    assert is_connected(SubsetCollection.from_lists(4, [[1, 2], [2, 3], [3, 4]]))
    assert not is_connected(SubsetCollection.from_lists(4, [[1, 2], [3, 4]]))
    # covering all vertices is required, not just linking what appears
    assert not is_connected(SubsetCollection.from_lists(4, [[1, 2], [2, 3]]))
    assert is_connected(SubsetCollection.from_lists(3, [[1, 2, 3]]))
    # {3, 4} (mask 0b01100) meets what {1, 2} reaches only through the later {2, 3, 5}
    assert is_connected(SubsetCollection.from_lists(5, [[1, 2], [3, 4], [2, 3, 5]]))


def test_connectivity_matches_crossing_definition():
    # connected iff every bipartition of [n] is crossed by some subset
    import numpy as np
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        count = int(rng.integers(1, 5))
        masks = tuple(int(rng.integers(1, 1 << n)) for _ in range(count))
        c = SubsetCollection(n, masks)
        full = (1 << n) - 1
        crossed = True
        for cut in range(1, full):
            if not any((m & cut) and (m & ~cut & full) for m in c.edges):
                crossed = False
                break
        assert is_connected(c) == crossed, (n, masks)


def test_collection_decides():
    pairs = all_k_subsets(5, 2)
    assert collection_decides(pairs, 2, 5)
    assert not collection_decides(pairs, 3, 5)
    chain = SubsetCollection.from_lists(5, [[1, 2, 3], [3, 4, 5]])
    assert collection_decides(chain, 3, 5)
    with pytest.raises(EdlkitError):
        collection_decides(chain, 3, 6)
    with pytest.raises(EdlkitError) as err:
        collection_decides(SubsetCollection.from_lists(3, [[1, 2], [2, 3]]), 2.5, 3)
    assert err.value.code == "BAD_K"


def test_min_marginal_count_formula_and_witness():
    for n in range(2, 8):
        for k in range(2, min(n, 4) + 1):
            count, witness = min_marginal_count(n, k)
            assert count == math.ceil((n - 1) / (k - 1))
            assert is_connected(witness)
            assert len(witness) == count
            assert witness.max_size() <= k
            assert count == oracle.exhaustive_min_connected_cover(n, k)[0], (n, k)


def test_min_marginal_count_known_instances():
    assert min_marginal_count(5, 3)[0] == 2
    assert min_marginal_count(4, 2)[0] == 3
    assert min_marginal_count(6, 3)[0] == 3
    assert min_marginal_count(3, 3)[0] == 1
    with pytest.raises(EdlkitError):
        min_marginal_count(4, 1)
    with pytest.raises(EdlkitError) as err:
        min_marginal_count(5.0, 2)
    assert err.value.code == "BAD_K"
    assert min_marginal_count(np.int64(5), np.int64(3))[0] == 2


def test_transitivity_certificate():
    coll = SubsetCollection.from_lists(5, [[1, 2, 3], [3, 4, 5]])
    q = TransitivityQuery(coll, (2, 3, 4))
    holds, reasons = transitivity_certificate(q, 3)
    assert holds and reasons == []
    # target too small
    holds, reasons = transitivity_certificate(TransitivityQuery(coll, (2, 4)), 3)
    assert not holds and any("target" in r for r in reasons)
    # disconnected collection
    dis = SubsetCollection.from_lists(5, [[1, 2, 3], [4, 5]])
    holds, reasons = transitivity_certificate(TransitivityQuery(dis, (1, 2, 3)), 3)
    assert not holds and any("connected" in r for r in reasons)
    # no subset reaching the detection length
    small = SubsetCollection.from_lists(5, [[1, 2], [2, 3], [3, 4], [4, 5]])
    holds, reasons = transitivity_certificate(TransitivityQuery(small, (1, 2, 3)), 3)
    assert not holds and any("detection length" in r for r in reasons)
    with pytest.raises(EdlkitError):
        transitivity_certificate(q, 1)


def test_transitivity_query_validation():
    coll = all_k_subsets(4, 2)
    with pytest.raises(EdlkitError) as err:
        TransitivityQuery(coll, ())
    assert err.value.code == "EMPTY_SUBSET"
    with pytest.raises(EdlkitError) as err:
        TransitivityQuery(coll, (0, 1))
    assert err.value.code == "BAD_VERTEX"
    with pytest.raises(EdlkitError) as err:
        TransitivityQuery(coll, (1.5,))
    assert err.value.code == "BAD_VERTEX"
    with pytest.raises(EdlkitError) as err:
        TransitivityQuery(coll, (2, 2))
    assert err.value.code == "DIM_MISMATCH"
    assert TransitivityQuery(coll, (np.int64(3), 1)).target == (1, 3)


def test_exhaustive_cover_oracle_scales_down():
    # the oracle enumerates; cross-check a couple of tiny values by hand
    count, witness = oracle.exhaustive_min_connected_cover(2, 2)
    assert count == 1 and witness == ((1, 2),)
    assert oracle.exhaustive_min_connected_cover(3, 2)[0] == 2
    assert oracle.exhaustive_min_connected_cover(7, 4)[0] == 2
