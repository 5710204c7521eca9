import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpshap import (
    DataError,
    Grouping,
    cluster,
    interdependency,
    keypoint_connectivity,
    perturbation_influence,
)
from kpshap import grouping as grouping_module
from kpshap.grouping import LINKAGES


def sym_matrix(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    s = 0.5 * (a + a.T)
    np.fill_diagonal(s, 0.0)
    return s


def reference_block(s, a, b, linkage):
    """Linkage of clusters a and b over the block s[a, b], rows from a."""
    block = s[np.ix_(a, b)]
    assert block.shape == (len(a), len(b))
    if linkage == "single":
        return float(block.max())
    if linkage == "average":
        return float(block.mean())
    return float(block.min())


def reference_cluster(s, g, linkage):
    """The loop cluster() replaced: rescan every pair after each merge. A
    pair keeps its orientation while both clusters live, so each block is
    reduced once."""
    clusters = [(i,) for i in range(len(s))]
    blocks = {}
    while len(clusters) > g:
        best_key = None
        best_pair = None
        for x in range(len(clusters)):
            for y in range(x + 1, len(clusters)):
                pair = (clusters[x], clusters[y])
                if pair not in blocks:
                    blocks[pair] = reference_block(s, *pair, linkage)
                v = blocks[pair]
                lo, hi = sorted((clusters[x][0], clusters[y][0]))
                key = (-v, lo, hi)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (x, y)
        x, y = best_pair
        merged = tuple(sorted(clusters[x] + clusters[y]))
        clusters = [c for k, c in enumerate(clusters) if k not in (x, y)]
        clusters.append(merged)
    return Grouping.from_sets(clusters, len(s))


# --- Grouping type -------------------------------------------------------


def test_grouping_validation():
    Grouping(3, ((0, 1), (2,)))
    with pytest.raises(DataError):
        Grouping(3, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(DataError):
        Grouping(3, ((0, 1),))  # not covering
    with pytest.raises(DataError):
        Grouping(3, ((1, 0), (2,)))  # unsorted members
    with pytest.raises(DataError):
        Grouping(3, ((2,), (0, 1)))  # groups out of order


def test_grouping_from_sets_normalizes_order():
    g = Grouping.from_sets([{2}, {1, 0}], 3)
    assert g.groups == ((0, 1), (2,))
    assert g.g == 2
    assert g.group_of(2) == 1


def test_grouping_json_roundtrip(schema, expected_grouping, tmp_path):
    doc = expected_grouping.to_json_dict(schema)
    assert doc["g"] == 5
    again = Grouping.from_json(doc, schema)
    assert again == expected_grouping
    # alias spellings resolve on the way in
    doc["groups"][3] = ["l-hip", "l-knee", "l-foot"]
    assert Grouping.from_json(doc, schema) == expected_grouping
    doc["g"] = 4
    with pytest.raises(DataError):
        Grouping.from_json(doc, schema)


# --- interdependency -----------------------------------------------------


def test_interdependency_adds(schema, skeleton, table2_delta):
    pi = perturbation_influence(table2_delta)
    kc = keypoint_connectivity(schema, skeleton)
    s = interdependency(pi, kc)
    assert np.allclose(s, pi + kc)


def test_interdependency_validation():
    good = sym_matrix(4, 0)
    bad = good.copy()
    bad[0, 1] += 1e-3  # asymmetric
    with pytest.raises(DataError):
        interdependency(bad, good)
    with pytest.raises(DataError):
        interdependency(good, -2.0 * good)  # negative sum
    with pytest.raises(DataError):
        interdependency(good, sym_matrix(5, 0))  # shape
    nan = good.copy()
    nan[2, 2] = np.nan
    with pytest.raises(DataError):
        interdependency(good, nan)


# --- cluster -------------------------------------------------------------


def test_cluster_group_count_bounds():
    s = sym_matrix(5, 1)
    assert cluster(s, g=5).groups == ((0,), (1,), (2,), (3,), (4,))
    assert cluster(s, g=1).groups == ((0, 1, 2, 3, 4),)
    with pytest.raises(DataError):
        cluster(s, g=0)
    with pytest.raises(DataError):
        cluster(s, g=6)
    with pytest.raises(DataError):
        cluster(s, g=2, linkage="centroid")


def test_cluster_merges_strongest_pair_first():
    s = np.zeros((4, 4))
    s[1, 3] = s[3, 1] = 0.9
    s[0, 2] = s[2, 0] = 0.5
    g = cluster(s, g=2)
    assert g.groups == ((0, 2), (1, 3))


def test_cluster_tie_break_is_lexicographic():
    # all similarities equal: must merge (0,1) first, then (0,1)+(2) etc.
    s = np.ones((4, 4)) - np.eye(4)
    assert cluster(s, g=3).groups == ((0, 1), (2,), (3,))
    assert cluster(s, g=2).groups == ((0, 1, 2), (3,))


def test_single_linkage_recovers_expected_groups(
    schema, skeleton, table2_delta, expected_grouping
):
    pi = perturbation_influence(table2_delta)
    kc = keypoint_connectivity(schema, skeleton)
    s = interdependency(pi, kc)
    assert cluster(s, g=5, linkage="single") == expected_grouping


def test_average_linkage_differs_on_fixture(schema, skeleton, table2_delta, expected_grouping):
    # regression pin for the default: with this data, average linkage pairs
    # the two hip joints across the body before completing the leg chains
    pi = perturbation_influence(table2_delta)
    kc = keypoint_connectivity(schema, skeleton)
    s = interdependency(pi, kc)
    avg = cluster(s, g=5, linkage="average")
    assert avg != expected_grouping
    lhip, rhip = schema.index_of("l-hip"), schema.index_of("r-hip")
    assert avg.group_of(lhip) == avg.group_of(rhip)


@given(st.integers(2, 9), st.integers(0, 10_000), st.data())
@settings(max_examples=50)
def test_cluster_permutation_equivariance(n, seed, data):
    s = sym_matrix(n, seed)
    g = data.draw(st.integers(1, n))
    perm = data.draw(st.permutations(range(n)))
    perm = np.asarray(perm)
    before = cluster(s, g=g)
    after = cluster(s[np.ix_(perm, perm)], g=g)
    # relabeled grouping must be the same partition under the permutation
    relabeled = Grouping.from_sets(
        [[int(np.flatnonzero(perm == i)[0]) for i in grp] for grp in before.groups], n
    )
    assert after == relabeled


@given(st.integers(2, 9), st.integers(0, 10_000), st.data())
@settings(max_examples=50)
def test_cluster_partition_invariants(n, seed, data):
    g = data.draw(st.integers(1, n))
    linkage = data.draw(st.sampled_from(["single", "average", "complete"]))
    grouping = cluster(sym_matrix(n, seed), g=g, linkage=linkage)
    assert grouping.g == g
    assert sorted(i for grp in grouping.groups for i in grp) == list(range(n))


@given(st.integers(2, 40), st.integers(0, 10_000), st.data())
@settings(max_examples=60, deadline=None)
def test_cluster_matches_reference_on_ties(n, seed, data):
    # small integer entries make many exactly tied pairs, so the tie-break
    # decides most merges; the diagonal is random and must not matter
    top = data.draw(st.integers(1, 4))
    a = np.random.default_rng(seed).integers(0, top, size=(n, n)).astype(np.float64)
    s = a + a.T
    g = data.draw(st.integers(1, n))
    linkage = data.draw(st.sampled_from(LINKAGES))
    assert cluster(s, g=g, linkage=linkage) == reference_cluster(s, g, linkage)


@pytest.mark.parametrize("linkage", LINKAGES)
def test_cluster_matches_reference_on_floats(linkage):
    # an asymmetric matrix of uneven floats: every linkage agrees only if each
    # block is read, and an average block summed, in the reference's orientation
    s = sym_matrix(40, 3) * np.random.default_rng(4).lognormal(0.0, 3.0, size=(40, 40))
    for g in (1, 7, 13):
        assert cluster(s, g=g, linkage=linkage) == reference_cluster(s, g, linkage)


@pytest.mark.parametrize("linkage", ["single", "complete"])
@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
def test_cluster_matches_reference_at_n100(linkage, symmetric):
    # uneven floats with an uneven diagonal; asymmetric s is read only in
    # the reference's orientation, rows from the older cluster
    rng = np.random.default_rng(100)
    a = rng.lognormal(0.0, 2.0, size=(100, 100))
    s = a + a.T if symmetric else a
    assert np.array_equal(s, s.T) == symmetric
    for g in (1, 12, 60):
        assert cluster(s, g=g, linkage=linkage) == reference_cluster(s, g, linkage)


def test_only_average_reduces_blocks(monkeypatch):
    calls = []
    block_mean = grouping_module._cross

    def spy(*args):
        calls.append(args)
        return block_mean(*args)

    monkeypatch.setattr(grouping_module, "_cross", spy)
    s = sym_matrix(30, 5)
    for linkage in ("single", "complete"):
        cluster(s, g=1, linkage=linkage)
    assert calls == []
    cluster(s, g=1, linkage="average")
    assert len(calls) == sum(range(1, 29))


def test_cluster_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        s = sym_matrix(5, 2)
        s[1, 3] = s[3, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            cluster(s, g=2)
    s = sym_matrix(5, 2)
    s[4, 4] = np.nan  # the diagonal is never compared, but is refused all the same
    with pytest.raises(DataError, match="non-finite"):
        cluster(s, g=2)


def test_cluster_refuses_an_overflowed_average():
    # finite entries whose block sums reach +inf and -inf at once (NaN), and
    # entries whose every block sum reaches -inf
    signs = np.random.default_rng(0).choice([-1.7e308, 1.7e308], size=(12, 12))
    for s in (signs, np.full((12, 12), -1.7e308)):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError, match="overflowed"):
                cluster(s, g=1, linkage="average")
