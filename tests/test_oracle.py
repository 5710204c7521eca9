import functools
import json
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpshap import (
    Coalition,
    CoalitionValueOracle,
    CountingOracle,
    DataError,
    ExternalOracle,
    MissingCoalitionError,
    SyntheticModelConfig,
    SyntheticOracle,
    TabularOracle,
    delta_perf_matrix,
    generator,
    load_schema,
    load_tabular_oracle,
    query_count,
    run_group_attribution,
    write_oracle_table,
)


def tiny_schema(n=3):
    names = [f"k{i}" for i in range(n)]
    edges = [[f"k{i}", f"k{i + 1}"] for i in range(n - 1)]
    return load_schema({"names": names, "edges": edges})[0]


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
    full = oracle.eval("all", Coalition(0b111, 3))
    empty = oracle.eval("all", Coalition(0, 3))
    assert np.allclose(full, [0.5, 0.6, 0.7])
    assert np.allclose(empty, 0.0)


def test_synthetic_hidden_keypoint_recovers_through_visible():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(), schema)
    # keypoint 0 hidden, 1 and 2 visible: recovers base * (w01 + w02)
    vals = oracle.eval("all", Coalition(0b110, 3))
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
    c = Coalition(0b111, 3)
    a = oracle.eval(("7",), c, trial=0)
    b = oracle.eval(("7",), c, trial=0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, oracle.eval(("7",), c, trial=1))
    assert not np.array_equal(a, oracle.eval(("8",), c, trial=0))


def test_synthetic_all_is_single_instance_universe():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(noise=0.05), schema)
    c = Coalition(0b001, 3)
    assert np.array_equal(oracle.eval("all", c), oracle.eval(("0",), c))


def test_synthetic_mean_over_instances():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(noise=0.05), schema)
    c = Coalition(0b111, 3)
    a = oracle.eval(("a",), c)
    b = oracle.eval(("b",), c)
    both = oracle.eval(("a", "b"), c)
    assert np.allclose(both, (a + b) / 2, atol=1e-12)


def test_reserved_instance_id_rejected():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(), schema)
    with pytest.raises(DataError):
        oracle.eval(("all",), Coalition(0b111, 3))
    with pytest.raises(DataError):
        oracle.eval((), Coalition(0b111, 3))
    with pytest.raises(DataError, match="reserved"):
        oracle.eval_many(("all",), [7])
    with pytest.raises(DataError, match="empty"):
        oracle.eval_many((), [7])


def test_width_mismatch_rejected():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(), schema)
    with pytest.raises(DataError):
        oracle.eval("all", Coalition(0b1111, 4))


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
    c = Coalition(0b111, 3)
    counted.eval("all", c)
    counted.eval("all", c)
    counted.eval("all", Coalition(0, 3))
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


# --- eval_many: the batched primitive ---------------------------------------


def reference_eval(config: SyntheticModelConfig, instances, bits: int, trial: int) -> np.ndarray:
    """The synthetic model scored one coalition at a time, with the plain
    per-row formula: the reference eval_many must match bit for bit."""
    base = np.asarray(config.base, dtype=np.float64)
    recovery = np.asarray(config.recovery, dtype=np.float64)
    n = len(base)
    ids = ("0",) if instances == "all" else tuple(instances)
    vis = np.zeros(n, dtype=np.float64)
    for i in range(n):
        if bits >> i & 1:
            vis[i] = 1.0
    core = base * vis + base * (recovery @ vis) * (1.0 - vis)
    if config.noise_sd == 0.0:
        return np.clip(core, 0.0, 1.0)
    acc = np.zeros(n, dtype=np.float64)
    digest = config_digest(config)
    for iid in ids:
        eps = generator("synthetic-noise", digest, iid, bits, trial).normal(
            0.0, config.noise_sd, size=n
        )
        acc += np.clip(core + eps, 0.0, 1.0)
    return acc / len(ids)


config_digest = functools.cache(SyntheticModelConfig.digest)


@functools.cache
def wide_oracle(n: int, noise: float) -> SyntheticOracle:
    return SyntheticOracle(wide_config(n, noise), tiny_schema(n))


@functools.cache
def wide_config(n: int, noise: float) -> SyntheticModelConfig:
    """A dense n-keypoint model whose hidden keypoints recover up to 95%."""
    rng = np.random.default_rng(n)
    recovery = rng.random((n, n))
    np.fill_diagonal(recovery, 0.0)
    recovery *= rng.uniform(0.3, 0.95, size=(n, 1)) / recovery.sum(axis=1, keepdims=True)
    base = rng.uniform(0.4, 1.0, size=n)
    return SyntheticModelConfig(tuple(base), tuple(map(tuple, recovery)), noise)


def _random_masks(n: int, rows: int, seed: int) -> list[int]:
    """rows random coalitions of n keypoints, the empty and the full one among them."""
    rng = random.Random(seed)
    masks = [rng.getrandbits(n) for _ in range(rows)]
    first, second = rng.sample(range(rows), 2)
    masks[first], masks[second] = 0, (1 << n) - 1
    return masks


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([17, 133]),
    noise=st.sampled_from([0.0, 0.05]),
    instances=st.sampled_from(["all", ("3", "x")]),
    rows=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    trial=st.integers(0, 2**63 - 1),
)
@example(n=133, noise=0.05, instances=("3", "x"), rows=520, seed=0, trial=7)
@example(n=17, noise=0.0, instances="all", rows=257, seed=1, trial=0)
def test_eval_many_rows_match_the_one_row_reference(n, noise, instances, rows, seed, trial):
    config = wide_config(n, noise)
    oracle = wide_oracle(n, noise)
    masks = _random_masks(n, rows, seed)
    got = oracle.eval_many(instances, masks, trial)
    assert got.shape == (rows, n) and not got.flags.writeable
    for row, bits in zip(got, masks):
        assert row.tobytes() == reference_eval(config, instances, bits, trial).tobytes()
    # eval is a one-row batch of the same model
    one = oracle.eval(instances, Coalition(masks[-1], n), trial)
    assert one.tobytes() == got[-1].tobytes()


def test_eval_many_of_no_masks_is_empty():
    oracle = SyntheticOracle(make_config(noise=0.05), tiny_schema())
    assert oracle.eval_many("all", [], 0).shape == (0, 3)


_CALL = st.tuples(
    st.booleans(),  # eval (one Coalition) or eval_many
    st.sampled_from(["all", ("3", "x"), ("x",)]),
    st.integers(0, 2**63 - 1),
    st.lists(st.integers(0, (1 << 17) - 1), min_size=1, max_size=40),
)


@settings(max_examples=25, deadline=None)
@given(noise=st.sampled_from([0.0, 0.05]), calls=st.lists(_CALL, min_size=2, max_size=8))
def test_interleaved_calls_on_one_oracle_match_the_reference(noise, calls):
    # the oracle keeps one noise generator across calls: no call may see
    # state left by the one before it
    config = wide_config(17, noise)
    oracle = SyntheticOracle(config, tiny_schema(17))
    for one, instances, trial, masks in calls:
        if one:
            masks = masks[:1]
            got = [oracle.eval(instances, Coalition(masks[0], 17), trial)]
        else:
            got = oracle.eval_many(instances, masks, trial)
        for row, bits in zip(got, masks):
            assert row.tobytes() == reference_eval(config, instances, bits, trial).tobytes()


# --- one primitive, every backend ---------------------------------------

_TABLE_MASKS = (0, 6, 7)


@pytest.fixture(params=["synthetic", "tabular", "counting", "external"])
def backend(request, tmp_path):
    """A noisy 3-keypoint oracle of each kind, with the masks it can score."""
    schema = tiny_schema()
    noisy = SyntheticOracle(make_config(noise=0.05), schema)
    if request.param == "synthetic":
        yield noisy, range(8)
    elif request.param == "tabular":
        table = {m: noisy.eval_many("all", [m], 0)[0] for m in _TABLE_MASKS}
        yield TabularOracle(schema, table), _TABLE_MASKS
    elif request.param == "counting":
        yield CountingOracle(noisy), range(8)
    else:
        (tmp_path / "config.json").write_text(json.dumps(make_config(noise=0.05).to_json_dict()))
        (tmp_path / "schema.json").write_text(
            json.dumps({"names": list(schema.names), "edges": [["k0", "k1"], ["k1", "k2"]]})
        )
        command = [sys.executable, "-m", "kpshap", "oracle", "serve-synthetic"]
        command += ["--config", str(tmp_path / "config.json"), "--schema", str(tmp_path / "schema.json")]
        with ExternalOracle(command, schema, timeout=30.0) as remote:
            yield remote, range(8)


def test_eval_is_a_one_mask_batch_on_every_backend(backend):
    oracle, masks = backend
    for instances, trial in [("all", 0), (("a", "b"), 3)]:
        for m in masks:
            one = oracle.eval(instances, Coalition(m, 3), trial)
            assert one.shape == (3,) and not one.flags.writeable
            assert one.tobytes() == oracle.eval_many(instances, [m], trial)[0].tobytes()
    for bits in (8, -1):
        with pytest.raises(DataError, match="out of range for n=3"):
            oracle.eval("all", Coalition(bits, 3))


def test_tabular_batch_names_its_first_missing_coalition():
    schema = tiny_schema()
    oracle = TabularOracle(schema, {0b111: np.array([0.5, 0.6, 0.7])})
    with pytest.raises(MissingCoalitionError, match=r"no value for coalition 0x5$"):
        oracle.eval_many("all", [7, 5, 3])
    assert oracle.eval_many("all", []).shape == (0, 3)


class NoBackend(CoalitionValueOracle):
    pass


def test_oracle_with_neither_eval_nor_eval_many_is_refused():
    oracle = NoBackend(tiny_schema())
    for call in (lambda: oracle.eval_many("all", [7]), lambda: oracle.eval("all", Coalition(7, 3))):
        with pytest.raises(NotImplementedError, match="NoBackend overrides neither"):
            call()


@pytest.mark.parametrize("trial", [1.5, "1", True, np.float64(1.9)], ids=repr)
@pytest.mark.parametrize("kind", ["synthetic", "counting-tabular"])
def test_eval_many_refuses_a_trial_that_is_not_an_integer(kind, trial):
    # each of these used to be scored as trial 1
    schema = tiny_schema()
    if kind == "synthetic":
        oracle = SyntheticOracle(make_config(noise=0.05), schema)
    else:
        oracle = CountingOracle(TabularOracle(schema, {0b111: np.array([0.5, 0.6, 0.7])}))
    with pytest.raises(DataError, match="is not an integer"):
        oracle.eval_many(("a",), [7], trial=trial)
    with pytest.raises(DataError, match="is not an integer"):
        oracle.eval(("a",), Coalition(7, 3), trial)
    assert getattr(oracle, "calls", 0) == 0
    # numpy integers name the trial they hold
    want = oracle.eval_many(("a",), [7], trial=1)
    assert oracle.eval_many(("a",), [7], trial=np.int64(1)).tobytes() == want.tobytes()


def test_counting_oracle_counts_a_batch_exactly():
    schema = tiny_schema()
    inner = SyntheticOracle(make_config(noise=0.05), schema)
    counted = CountingOracle(inner)
    got = counted.eval_many(("a",), [7, 7, 0, 5], trial=3)
    assert counted.calls == 4
    assert counted.coalitions == {7, 0, 5}
    assert np.array_equal(got, inner.eval_many(("a",), [7, 7, 0, 5], trial=3))
    counted.eval("all", Coalition(2, 3))
    assert counted.calls == 5 and counted.coalitions == {7, 0, 5, 2}


class RecordingOracle(CoalitionValueOracle):
    """A wrapper that overrides only the public eval, as tracing wrappers do."""

    def __init__(self, inner):
        super().__init__(inner.schema)
        self.inner = inner
        self.seen = []

    def eval(self, instances, coalition, trial=0):
        self.seen.append(coalition.bits)
        return self.inner.eval(instances, coalition, trial)


def test_wrapper_overriding_only_eval_sees_every_coalition(
    schema, expected_grouping, synthetic_config
):
    plain = SyntheticOracle(synthetic_config, schema)
    wrapped = RecordingOracle(SyntheticOracle(synthetic_config, schema))
    report, budget = run_group_attribution(wrapped, expected_grouping, trial=4)
    want = query_count(expected_grouping).oracle_calls
    assert len(wrapped.seen) == budget.oracle_calls == want
    assert len(set(wrapped.seen)) == budget.distinct_coalitions
    assert report.to_json_dict() == run_group_attribution(plain, expected_grouping, trial=4)[0].to_json_dict()
    wrapped.seen.clear()
    delta = delta_perf_matrix(wrapped, m=2, seed=9)
    assert len(wrapped.seen) == 2 * (schema.n + 1)
    assert np.array_equal(delta.drops, delta_perf_matrix(plain, m=2, seed=9).drops)


@pytest.mark.parametrize("masks", [[-1], [5, -1], [1 << 3], [0, 7, 9], [1 << 200]])
def test_eval_many_rejects_masks_out_of_range(masks):
    schema = tiny_schema()
    counted = CountingOracle(SyntheticOracle(make_config(), schema))
    with pytest.raises(DataError, match="out of range for n=3"):
        counted.eval_many("all", masks)
    assert counted.calls == 0


class NaNOracle(CoalitionValueOracle):
    def _eval_many(self, instances, masks, trial):
        return np.full((len(masks), self.schema.n), np.nan)


class BatchedOutOfRangeOracle(CoalitionValueOracle):
    def _eval_many(self, instances, masks, trial):
        return np.full((len(masks), self.schema.n), 1.5)


def test_eval_many_refuses_bad_values_from_custom_oracles():
    schema = tiny_schema()
    with pytest.raises(DataError, match="non-finite"):
        NaNOracle(schema).eval_many("all", [0, 7])
    with pytest.raises(DataError, match="non-finite"):
        CountingOracle(NaNOracle(schema)).eval_many("all", [7])
    with pytest.raises(DataError, match=r"outside \[0, 1\]"):
        BatchedOutOfRangeOracle(schema).eval_many("all", [7])


@pytest.mark.parametrize("instances", [("0", "0"), ("a", 0, "0")])
def test_duplicate_instance_ids_rejected(instances):
    # a repeated id would count that instance twice in the mean
    oracle = SyntheticOracle(make_config(noise=0.05), tiny_schema())
    with pytest.raises(DataError, match="instance id '0' is listed twice"):
        oracle.eval(instances, Coalition(0b111, 3))
    with pytest.raises(DataError, match="instance id '0' is listed twice"):
        oracle.eval_many(instances, [7])
