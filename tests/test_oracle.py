import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpshap import (
    Coalition,
    CountingOracle,
    DataError,
    MissingCoalitionError,
    SyntheticModelConfig,
    SyntheticOracle,
    TabularOracle,
    load_schema,
    load_tabular_oracle,
    write_oracle_table,
)


def tiny_schema(n=3):
    names = [f"k{i}" for i in range(n)]
    edges = [[f"k{i}", f"k{i + 1}"] for i in range(n - 1)]
    return load_schema({"names": names, "edges": edges})[0]


# --- Coalition ---------------------------------------------------------


def test_coalition_basics():
    c = Coalition.from_indices([0, 2], 3)
    assert c.bits == 0b101
    assert c.indices() == (0, 2)
    assert c.contains(2) and not c.contains(1)
    assert len(c) == 2
    assert c.hex() == "0x5"
    assert Coalition.parse_hex("0x5", 3) == c
    assert c.without(2).bits == 0b001
    assert c.union(Coalition.from_indices([1], 3)).bits == 0b111


def test_coalition_bounds():
    with pytest.raises(DataError):
        Coalition.from_indices([3], 3)
    with pytest.raises(DataError):
        Coalition.parse_hex("0x8", 3)
    with pytest.raises(DataError):
        Coalition.parse_hex("zz", 3)


def test_coalition_full_empty():
    assert Coalition.full(4).bits == 0b1111
    assert Coalition.empty(4).bits == 0


@given(st.integers(1, 16), st.data())
def test_coalition_roundtrip(n, data):
    bits = data.draw(st.integers(0, (1 << n) - 1))
    c = Coalition(bits, n)
    assert Coalition.from_indices(c.indices(), n) == c
    assert Coalition.parse_hex(c.hex(), n) == c
    assert len(c.indices()) == len(c)


# --- SyntheticModelConfig validation -----------------------------------


def make_config(n=3, noise=0.0):
    base = tuple(0.5 + 0.1 * i for i in range(n))
    recovery = tuple(
        tuple(0.0 if i == j else round(0.9 / (n - 1), 6) for j in range(n))
        for i in range(n)
    )
    return SyntheticModelConfig(base, recovery, noise)


def test_config_validation():
    ok = make_config()
    assert ok.digest() == make_config().digest()
    with pytest.raises(DataError):
        SyntheticModelConfig((0.0, 0.5), ((0.0, 0.0), (0.0, 0.0)))  # base not in (0,1]
    with pytest.raises(DataError):
        SyntheticModelConfig((0.5, 0.5), ((0.1, 0.0), (0.0, 0.0)))  # nonzero diagonal
    with pytest.raises(DataError):
        SyntheticModelConfig((0.5, 0.5), ((0.0, 0.8), (0.8, 0.0)), -0.1)  # bad noise
    with pytest.raises(DataError):
        SyntheticModelConfig((0.5, 0.5), ((0.0, 1.2), (0.0, 0.0)))  # row sum > 1
    with pytest.raises(DataError):
        SyntheticModelConfig((0.5, 0.5), ((0.0, -0.1), (0.0, 0.0)))  # negative weight


def test_config_json_roundtrip(tmp_path):
    cfg = make_config()
    path = tmp_path / "cfg.json"
    import json

    path.write_text(json.dumps(cfg.to_json_dict()))
    assert SyntheticModelConfig.from_json(path) == cfg


# --- SyntheticOracle ----------------------------------------------------


def test_synthetic_full_and_empty():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(), schema)
    full = oracle.eval("all", Coalition.full(3))
    empty = oracle.eval("all", Coalition.empty(3))
    assert np.allclose(full, [0.5, 0.6, 0.7])
    assert np.allclose(empty, 0.0)


def test_synthetic_hidden_keypoint_recovers_through_visible():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(), schema)
    # keypoint 0 hidden, 1 and 2 visible: recovers base * (w01 + w02)
    vals = oracle.eval("all", Coalition.from_indices([1, 2], 3))
    assert vals[0] == pytest.approx(0.5 * 0.9, abs=1e-9)
    assert vals[1] == pytest.approx(0.6)
    assert vals[2] == pytest.approx(0.7)


@given(st.integers(2, 6), st.data())
def test_synthetic_noiseless_monotone(n, data):
    # growing the visible set never hurts any keypoint's score
    schema = tiny_schema(n)
    oracle = SyntheticOracle(make_config(n), schema)
    small = data.draw(st.integers(0, (1 << n) - 1))
    extra = data.draw(st.integers(0, (1 << n) - 1))
    big = small | extra
    v_small = oracle.eval("all", Coalition(small, n))
    v_big = oracle.eval("all", Coalition(big, n))
    assert np.all(v_big >= v_small - 1e-12)


def test_synthetic_noise_is_keyed_by_trial_and_instance():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(noise=0.05), schema)
    c = Coalition.full(3)
    a = oracle.eval(("7",), c, trial=0)
    b = oracle.eval(("7",), c, trial=0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, oracle.eval(("7",), c, trial=1))
    assert not np.array_equal(a, oracle.eval(("8",), c, trial=0))


def test_synthetic_all_is_single_instance_universe():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(noise=0.05), schema)
    c = Coalition.from_indices([0], 3)
    assert np.array_equal(oracle.eval("all", c), oracle.eval(("0",), c))


def test_synthetic_mean_over_instances():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(noise=0.05), schema)
    c = Coalition.full(3)
    a = oracle.eval(("a",), c)
    b = oracle.eval(("b",), c)
    both = oracle.eval(("a", "b"), c)
    assert np.allclose(both, (a + b) / 2, atol=1e-12)


def test_reserved_instance_id_rejected():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(), schema)
    with pytest.raises(DataError):
        oracle.eval(("all",), Coalition.full(3))
    with pytest.raises(DataError):
        oracle.eval((), Coalition.full(3))


def test_width_mismatch_rejected():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(), schema)
    with pytest.raises(DataError):
        oracle.eval("all", Coalition.full(4))


# --- TabularOracle ------------------------------------------------------


def test_tabular_roundtrip_and_missing(tmp_path):
    schema = tiny_schema()
    full = (1 << 3) - 1
    table = {full: np.array([0.5, 0.6, 0.7]), 0b011: np.array([0.1, 0.6, 0.7])}
    path = tmp_path / "table.csv"
    write_oracle_table(path, schema, table)
    oracle = load_tabular_oracle(path, schema)
    assert np.allclose(oracle.eval("all", Coalition(full, 3)), [0.5, 0.6, 0.7])
    with pytest.raises(MissingCoalitionError):
        oracle.eval("all", Coalition(0b101, 3))


def test_tabular_requires_full_coalition():
    schema = tiny_schema()
    with pytest.raises(DataError) as exc:
        TabularOracle(schema, {0b011: np.array([0.1, 0.2, 0.3])})
    assert exc.value.code == "missing-full-coalition"


@pytest.mark.parametrize("mask", [-3, 1 << 3, 1 << 20])
def test_tabular_rejects_coalition_out_of_range(mask):
    # a table built in code is checked as strictly as one loaded from a file
    schema = tiny_schema()
    full = np.array([0.5, 0.6, 0.7])
    with pytest.raises(DataError, match="out of range for n=3"):
        TabularOracle(schema, {0b111: full, mask: full})


def test_tabular_file_rejects_coalition_out_of_range(tmp_path):
    schema = tiny_schema()
    path = tmp_path / "wide.csv"
    path.write_text("coalition_hex,v_0,v_1,v_2\n0x7,0.1,0.2,0.3\n0x8,0.1,0.2,0.3\n")
    with pytest.raises(DataError, match="0x8 out of range"):
        load_tabular_oracle(path, schema)


def test_tabular_rejects_duplicate_rows(tmp_path):
    schema = tiny_schema()
    path = tmp_path / "dup.csv"
    path.write_text(
        "coalition_hex,v_0,v_1,v_2\n0x7,0.1,0.2,0.3\n0x7,0.1,0.2,0.3\n"
    )
    with pytest.raises(DataError):
        load_tabular_oracle(path, schema)


def test_tabular_rejects_bad_header(tmp_path):
    schema = tiny_schema()
    path = tmp_path / "bad.csv"
    path.write_text("coalition_hex,v_0,v_1\n0x7,0.1,0.2\n")
    with pytest.raises(DataError):
        load_tabular_oracle(path, schema)


def test_tabular_rejects_out_of_range_values(tmp_path):
    schema = tiny_schema()
    path = tmp_path / "range.csv"
    path.write_text("coalition_hex,v_0,v_1,v_2\n0x7,0.1,0.2,1.5\n")
    with pytest.raises(DataError):
        load_tabular_oracle(path, schema)


# --- CountingOracle -----------------------------------------------------


def test_counting_oracle_tracks_calls_and_distinct():
    schema = tiny_schema()
    counted = CountingOracle(SyntheticOracle(make_config(), schema))
    c = Coalition.full(3)
    counted.eval("all", c)
    counted.eval("all", c)
    counted.eval("all", Coalition.empty(3))
    assert counted.calls == 3
    assert counted.coalitions == {c.bits, 0}
    counted.reset()
    assert counted.calls == 0 and counted.coalitions == set()


def test_describe_identities():
    schema = tiny_schema()
    synth = SyntheticOracle(make_config(), schema)
    assert synth.describe() == f"synthetic:{make_config().digest()}"
    counted = CountingOracle(synth)
    assert counted.describe().startswith("counting(synthetic:")
