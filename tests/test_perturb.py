import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpshap import (
    CoalitionValueOracle,
    DataError,
    DeltaMatrix,
    SyntheticOracle,
    TabularOracle,
    canonical_name,
    delta_perf_matrix,
    gen_masks,
    mix64,
    oracle_table_from_delta,
    perturbation_influence,
    read_delta_csv,
    write_delta_csv,
)
from tests.test_oracle import make_config, tiny_schema

# Frozen from the drop fixture by hand: row sums 35.5 (nose) and 26.1
# (l-eye); PI = 0.5 * (5.3/35.5 + 7.1/26.1).
PI_NOSE_LEYE = 0.25280880686417356


# --- gen_masks ----------------------------------------------------------


def test_masks_deterministic():
    a = gen_masks((50.0, 40.0), 6, 0.15, (128, 96), seed=3)
    b = gen_masks((50.0, 40.0), 6, 0.15, (128, 96), seed=3)
    assert a == b
    assert len(a) == 6


@pytest.mark.parametrize("bounds", [(10**400, 10**400), (10**400, 10**309)])
def test_masks_refuse_bounds_beyond_a_float(bounds):
    with pytest.raises(DataError, match=r"^image bounds 10+x10+ are too large for a float mask side$"):
        gen_masks((5.0, 5.0), 1, 0.15, bounds, seed=0)


def test_masks_keep_a_huge_side_when_the_other_is_small():
    (spec,) = gen_masks((5.0, 5.0), 1, 0.15, (10**400, 20), seed=0)
    assert spec.rect[2] <= 10**400 and spec.rect[3] <= 20


def test_masks_change_with_seed():
    a = gen_masks((50.0, 40.0), 6, 0.15, (128, 96), seed=3)
    b = gen_masks((50.0, 40.0), 6, 0.15, (128, 96), seed=4)
    assert a != b


def test_masks_out_of_bounds_keypoint():
    with pytest.raises(DataError):
        gen_masks((200.0, 40.0), 1, 0.15, (128, 96), seed=0)


@given(
    st.integers(8, 300),
    st.integers(8, 300),
    st.floats(0.02, 0.4),
    st.integers(0, 50),
    st.data(),
)
@settings(max_examples=60)
def test_masks_always_inside_image(w, h, scale, seed, data):
    x = data.draw(st.floats(0, w - 1))
    y = data.draw(st.floats(0, h - 1))
    for spec in gen_masks((x, y), 4, scale, (w, h), seed=seed):
        x0, y0, x1, y1 = spec.rect
        assert 0 <= x0 < x1 <= w
        assert 0 <= y0 < y1 <= h
        assert spec.width >= 1 and spec.height >= 1


# --- DeltaMatrix / delta_perf_matrix ------------------------------------


def test_delta_matrix_validation():
    names = ("a", "b")
    with pytest.raises(DataError):
        DeltaMatrix(names, np.array([0.5, 1.2]), np.zeros((2, 2)))  # baseline > 1
    with pytest.raises(DataError):
        DeltaMatrix(names, np.array([0.5, 0.6]), -np.ones((2, 2)))  # negative drop
    with pytest.raises(DataError) as exc:
        DeltaMatrix(names, np.array([0.5, 0.6]), np.full((2, 2), 0.7))  # drop > baseline
    assert "a" in str(exc.value)


def test_delta_from_synthetic_oracle_matches_direct_eval():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(), schema)
    delta = delta_perf_matrix(oracle, m=1, seed=0)
    # baseline is the full-coalition score
    assert np.allclose(delta.baseline, [0.5, 0.6, 0.7])
    # hiding keypoint j: j falls to base*0.9, others stay -> drop col j
    assert delta.drops[0, 0] == pytest.approx(0.5 - 0.45, abs=1e-12)
    assert delta.drops[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_delta_trials_average_noise():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(noise=0.2), schema)
    few = delta_perf_matrix(oracle, m=2, seed=0)
    many = delta_perf_matrix(oracle, m=200, seed=0)
    clean = delta_perf_matrix(SyntheticOracle(make_config(), schema), m=1, seed=0)
    err_few = np.abs(few.baseline - clean.baseline).max()
    err_many = np.abs(many.baseline - clean.baseline).max()
    assert err_many < err_few


class RandomRows(CoalitionValueOracle):
    """Answers each (mask, trial) with its own uniform row in [0, 1)."""

    def _eval_many(self, instances, masks, trial):
        n = self.schema.n
        return np.array([np.random.default_rng([m, trial]).random(n) for m in masks])


def reference_delta(oracle, m, seed):
    """delta_perf_matrix's baseline and drops, averaged one column at a time."""
    n = oracle.schema.n
    full = (1 << n) - 1
    masks = [full] + [full & ~(1 << j) for j in range(n)]
    sweeps = [oracle.eval_many("all", masks, mix64("delta-trial", seed, t)) for t in range(m)]
    baseline = np.mean([sweep[0] for sweep in sweeps], axis=0)
    drops = np.zeros((n, n), dtype=np.float64)
    for j in range(n):
        perturbed = np.mean([sweep[j + 1] for sweep in sweeps], axis=0)
        drops[:, j] = np.maximum(0.0, baseline - perturbed)
    return baseline, drops


@given(st.sampled_from([2, 3, 17, 133]), st.sampled_from([1, 2, 3, 5, 8, 13]), st.integers(0, 99))
@settings(max_examples=30, deadline=None)
def test_delta_trials_average_as_the_column_loop(n, m, seed):
    oracle = RandomRows(tiny_schema(n))
    baseline, drops = reference_delta(oracle, m, seed)
    delta = delta_perf_matrix(oracle, m=m, seed=seed)
    assert np.array_equal(delta.baseline.view(np.uint64), baseline.view(np.uint64))
    assert np.array_equal(delta.drops.view(np.uint64), drops.view(np.uint64))
    # perturbation_influence sums the rows; over an F-ordered copy they round
    # differently, so the drops must be laid out as the loop's
    assert delta.drops.flags.c_contiguous
    sums = drops.sum(axis=1)
    assert np.array_equal(delta.drops.sum(axis=1).view(np.uint64), sums.view(np.uint64))
    if np.all(sums > 0.0):
        want = perturbation_influence(DeltaMatrix(delta.names, baseline, drops))
        assert np.array_equal(perturbation_influence(delta).view(np.uint64), want.view(np.uint64))


def test_fixture_roundtrip_through_oracle(schema, table2_delta):
    # delta -> coalition table -> oracle -> delta again is the identity
    oracle = TabularOracle(schema, oracle_table_from_delta(table2_delta))
    again = delta_perf_matrix(oracle, m=1, seed=0)
    assert np.allclose(again.baseline, table2_delta.baseline, atol=1e-12)
    assert np.allclose(again.drops, table2_delta.drops, atol=1e-12)


# --- perturbation influence ---------------------------------------------


def test_pi_frozen_fixture_value(schema, table2_delta):
    pi = perturbation_influence(table2_delta)
    i = schema.index_of("nose")
    j = schema.index_of("l-eye")
    assert pi[i, j] == pytest.approx(PI_NOSE_LEYE, abs=1e-15)


def test_pi_recomputed_from_raw_fixture(fixtures_dir, schema, table2_delta):
    # independent reading of the CSV with plain string math
    rows = {}
    lines = (fixtures_dir / "table2.csv").read_text().strip().splitlines()
    header = lines[0].split(",")[2:]
    for line in lines[1:]:
        cells = line.split(",")
        rows[canonical_name(cells[0])] = [float(x) for x in cells[2:]]
    pi = perturbation_influence(table2_delta)
    cols = [canonical_name(c) for c in header]
    for a in ("nose", "l-hip", "r-ankle"):
        for b in ("l-eye", "r-knee"):
            ia, ib = schema.index_of(a), schema.index_of(b)
            expected = 0.5 * (
                rows[a][cols.index(b)] / sum(rows[a])
                + rows[b][cols.index(a)] / sum(rows[b])
            )
            assert pi[ia, ib] == pytest.approx(expected, abs=1e-12)


def test_pi_zero_row_gets_zero_shares_and_a_warning(table2_delta):
    # row a sums to zero: it gets zero shares and is named in a warning; the
    # rows with positive sums are divided as they would be on their own
    drops = np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.05], [0.3, 0.0, 0.1]])
    delta = DeltaMatrix(("a", "b", "c"), np.array([0.5, 0.6, 0.7]), drops)
    with pytest.warns(UserWarning, match=r"^all-zero drop row, given zero shares, for: a$"):
        pi = perturbation_influence(delta)
    share = np.zeros_like(drops)
    share[1:] = drops[1:] / drops[1:].sum(axis=1)[:, None]
    assert pi.tobytes() == (0.5 * (share + share.T)).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        perturbation_influence(table2_delta)


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=40)
def test_pi_symmetric_rowstochastic_random(n, seed):
    rng = np.random.default_rng(seed)
    drops = rng.random((n, n)) * 0.3 + 1e-3
    baseline = np.full(n, 0.9)
    delta = DeltaMatrix(tuple(f"k{i}" for i in range(n)), baseline, drops)
    pi = perturbation_influence(delta)
    assert np.allclose(pi, pi.T, atol=1e-12)
    assert pi.min() >= 0.0
    # each row of share sums to 1, so total mass is n/2 + n/2
    assert pi.sum() == pytest.approx(n, abs=1e-9)


# --- CSV round trips -----------------------------------------------------


def test_delta_csv_roundtrip(tmp_path, schema, table2_delta):
    path = tmp_path / "delta.csv"
    write_delta_csv(path, table2_delta)
    again = read_delta_csv(path, schema)
    assert again.names == table2_delta.names
    assert np.allclose(again.baseline, table2_delta.baseline, atol=1e-12)
    assert np.allclose(again.drops, table2_delta.drops, atol=1e-12)


def test_delta_csv_write_is_stable(tmp_path, table2_delta):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_delta_csv(p1, table2_delta)
    write_delta_csv(p2, table2_delta)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_delta_rejects_missing_row(tmp_path, schema, table2_delta):
    path = tmp_path / "short.csv"
    write_delta_csv(path, table2_delta)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataError):
        read_delta_csv(path, schema)


def test_read_delta_rejects_duplicate_row(tmp_path, schema, table2_delta):
    path = tmp_path / "dup.csv"
    write_delta_csv(path, table2_delta)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    with pytest.raises(DataError):
        read_delta_csv(path, schema)


def test_read_delta_accepts_alias_headers(fixtures_dir, schema):
    # the drop fixture itself spells ankles as feet and shoulders as shd
    delta = read_delta_csv(fixtures_dir / "table2.csv", schema)
    assert delta.names == schema.names


def test_oracle_table_from_delta_values(schema, table2_delta):
    table = oracle_table_from_delta(table2_delta)
    full = (1 << 17) - 1
    assert len(table) == 18
    nose = schema.index_of("nose")
    hidden_nose = full & ~(1 << nose)
    assert table[hidden_nose][nose] == pytest.approx(0.761 - 0.206, abs=1e-12)
