import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpshap import (
    Coalition,
    CoalitionValueOracle,
    CountingOracle,
    DataError,
    Grouping,
    MissingCoalitionError,
    QueryBudget,
    SyntheticModelConfig,
    ShapleyTable,
    SyntheticOracle,
    TabularOracle,
    combined_attribution,
    exact_query_count,
    exact_shapley,
    load_schema,
    normalize_nonneg,
    query_count,
    read_game_csv,
    run_group_attribution,
    stage_tables,
    write_game_csv,
)
from kpshap.shapley import MAX_PLAYERS, _group_means, _tables
from tests.test_protocol import RecordingOracle


def shapley_by_permutations(value, n):
    """Independent oracle: average marginal gain over all n! orderings."""
    phi = [0.0] * n
    count = 0
    for order in itertools.permutations(range(n)):
        mask = 0
        prev = value(0)
        for j in order:
            mask |= 1 << j
            cur = value(mask)
            phi[j] += cur - prev
            prev = cur
        count += 1
    return [p / count for p in phi]


def sweep(game, n):
    return np.array([game(m) for m in range(1 << n)], dtype=np.float64)


def random_game(n, seed):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=1 << n)
    return lambda mask: float(table[mask])


# --- exact_shapley vs the permutation oracle -----------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_exact_matches_permutation_enumeration(n):
    for seed in range(3):
        game = random_game(n, seed)
        expected = shapley_by_permutations(game, n)
        table = exact_shapley(sweep(game, n))
        assert np.allclose(table.phi, expected, atol=1e-10)


def test_glove_game_frozen_values():
    # player 0 holds a left glove, 1 and 2 right gloves; a pair is worth 1
    def glove(mask):
        left = bool(mask & 1)
        right = bool(mask & 0b110)
        return 1.0 if left and right else 0.0

    table = exact_shapley(sweep(glove, 3))
    assert table.phi == pytest.approx((2 / 3, 1 / 6, 1 / 6), abs=1e-12)


def test_glove_fixture_matches(fixtures_dir):
    values = read_game_csv(fixtures_dir / "glove3.csv")
    assert len(values) == 1 << 3
    table = exact_shapley(values)
    assert table.phi == pytest.approx((2 / 3, 1 / 6, 1 / 6), abs=1e-12)


def test_efficiency_dummy_symmetry_axioms():
    # value = sum of per-player weights for members, plus a coupling term
    # between 0 and 1; player 3 is a dummy by construction
    w = [0.4, 0.3, 0.2, 0.0]

    def game(mask):
        v = sum(w[j] for j in range(4) if mask >> j & 1)
        if mask & 1 and mask & 2:
            v += 0.5
        return v

    table = exact_shapley(sweep(game, 4))
    assert table.efficiency_gap() <= 1e-12
    assert abs(table.phi[3]) <= 1e-12  # dummy
    # players 0 and 1 differ only by their solo weight; strip it and they
    # become symmetric
    sym = exact_shapley(sweep(lambda m: game(m) - sum(w[j] for j in range(4) if m >> j & 1), 4))
    assert sym.phi[0] == pytest.approx(sym.phi[1], abs=1e-12)


@given(st.integers(1, 7), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_efficiency_property(n, seed):
    game = random_game(n, seed)
    table = exact_shapley(sweep(game, n))
    assert table.efficiency_gap() <= 1e-9


@given(st.integers(1, 6), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_additivity_property(n, seed):
    g1 = random_game(n, seed)
    g2 = random_game(n, seed + 77)
    both = exact_shapley(sweep(lambda m: g1(m) + g2(m), n))
    split = np.array(exact_shapley(sweep(g1, n)).phi) + np.array(exact_shapley(sweep(g2, n)).phi)
    assert np.allclose(both.phi, split, atol=1e-9)


def test_player_count_guard():
    with pytest.raises(DataError) as exc:
        exact_shapley(sweep(lambda m: 0.0, 21))
    assert exc.value.code == "too-many-players"
    with pytest.raises(DataError):
        exact_shapley(sweep(lambda m: 0.0, 0))


def test_non_finite_game_rejected():
    with pytest.raises(DataError):
        exact_shapley(sweep(lambda m: math.inf if m else 0.0, 2))


# --- game CSV ------------------------------------------------------------


def test_game_csv_roundtrip(tmp_path):
    values = np.array([0.0, 0.25, 0.5, 1.0])
    path = tmp_path / "game.csv"
    write_game_csv(path, values)
    again = read_game_csv(path)
    assert len(again) == 1 << 2
    assert np.array_equal(values, again)


def test_game_csv_rejects_incomplete(tmp_path):
    path = tmp_path / "game.csv"
    path.write_text("coalition_hex,value\n0x0,0\n0x1,1\n0x3,1\n")
    with pytest.raises(DataError):
        read_game_csv(path)


def test_game_csv_rejects_duplicates(tmp_path):
    path = tmp_path / "game.csv"
    path.write_text("coalition_hex,value\n0x0,0\n0x0,1\n0x2,1\n0x3,1\n")
    with pytest.raises(DataError):
        read_game_csv(path)


# --- normalize_nonneg ----------------------------------------------------


def test_normalize_clamps_and_scales():
    out = normalize_nonneg([2.0, -1.0, 2.0])
    assert np.allclose(out, [0.5, 0.0, 0.5])


def test_normalize_degenerate():
    with pytest.raises(DataError) as exc:
        normalize_nonneg([-1.0, 0.0])
    assert exc.value.code == "degenerate-attribution"


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=10))
def test_normalize_simplex_property(values):
    if max(values, default=0.0) <= 0.0:
        return
    out = normalize_nonneg(values)
    assert out.min() >= 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


# --- grouped stages on separable games ------------------------------------


def separable_oracle(sizes, seed):
    """Per-keypoint value depends only on the visible part of its own group."""
    n = sum(sizes)
    names = [f"k{i}" for i in range(n)]
    edges = [[f"k{i}", f"k{i + 1}"] for i in range(n - 1)]
    schema = load_schema({"names": names, "edges": edges})[0]
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    grouping = Grouping.from_sets(blocks, n)
    rng = np.random.default_rng(seed)
    tables = [rng.random(1 << s) for s in sizes]

    class Oracle(CoalitionValueOracle):
        def _eval_many(self, instances, masks, trial):
            out = np.empty((len(masks), n))
            for row, mask in zip(out, masks):
                for k, members in enumerate(grouping.groups):
                    local = 0
                    for pos, j in enumerate(members):
                        if mask >> j & 1:
                            local |= 1 << pos
                    for j in members:
                        row[j] = tables[k][local]
            return out

    return Oracle(schema), grouping, tables


def test_intra_stage_matches_full_exact_on_separable_game():
    oracle, grouping, _ = separable_oracle([3, 2], seed=5)
    n = 5
    intra_tables, _, _ = stage_tables(oracle, grouping)
    for target in range(n):
        members = grouping.groups[grouping.group_of(target)]
        intra = intra_tables[target]
        full = exact_shapley(
            sweep(lambda m, t=target: float(oracle.eval("all", Coalition(m, n))[t]), n)
        )
        for pos, j in enumerate(members):
            assert intra.phi[pos] == pytest.approx(full.phi[j], abs=1e-9)
        for j in range(n):
            if j not in members:
                assert abs(full.phi[j]) <= 1e-9


def test_group_stage_off_diagonal_zero_on_separable_game():
    oracle, grouping, _ = separable_oracle([2, 3], seed=8)
    _, group_tables, _ = stage_tables(oracle, grouping)
    for h, table in enumerate(group_tables):
        for k in range(grouping.g):
            if k != h:
                assert abs(table.phi[k]) <= 1e-9


# --- combined attribution --------------------------------------------------


def test_budget_prediction_coco(expected_grouping):
    budget = query_count(expected_grouping)
    assert budget.distinct_coalitions == 96
    assert budget.oracle_calls == 96
    full = exact_query_count(17)
    assert full.distinct_coalitions == 131072


def test_budget_validation():
    with pytest.raises(DataError):
        QueryBudget(10, 5)


@pytest.mark.parametrize("trials", [0, -2])
def test_budgets_need_a_trial(expected_grouping, trials):
    message = f"trial count must be >= 1, got {trials}"
    with pytest.raises(DataError, match=message):
        query_count(expected_grouping, trials=trials)
    with pytest.raises(DataError, match=message):
        exact_query_count(17, trials=trials)


def test_run_group_attribution_simplex_rows(schema, expected_grouping, synthetic_config):
    oracle = SyntheticOracle(synthetic_config, schema)
    report, budget = run_group_attribution(oracle, expected_grouping)
    assert report.sigma.shape == (17, 17)
    assert report.sigma.min() >= 0.0
    assert np.allclose(report.sigma.sum(axis=1), 1.0, atol=1e-9)
    assert budget.oracle_calls == 96
    assert budget.distinct_coalitions == 86  # stages overlap on full and N\G_k


def test_stage_tables_are_the_report_tables(schema, expected_grouping, synthetic_config):
    counter = CountingOracle(SyntheticOracle(synthetic_config, schema))
    intra, group, budget = stage_tables(counter, expected_grouping, trial=1)
    assert (counter.calls, len(counter.coalitions)) == (96, 86)
    assert budget == QueryBudget(distinct_coalitions=86, oracle_calls=96)
    report, run_budget = run_group_attribution(counter, expected_grouping, trial=1)
    assert (intra, group, budget) == (list(report.intra_tables), list(report.group_tables), run_budget)


def test_split_modes_differ(schema, expected_grouping, synthetic_config):
    oracle = SyntheticOracle(synthetic_config, schema)
    uni, _ = run_group_attribution(oracle, expected_grouping, split_mode="uniform")
    prop, _ = run_group_attribution(oracle, expected_grouping, split_mode="proportional")
    assert uni.split_mode == "uniform" and prop.split_mode == "proportional"
    assert not np.allclose(uni.sigma, prop.sigma)
    assert np.allclose(prop.sigma.sum(axis=1), 1.0, atol=1e-9)


def test_combined_attribution_needs_all_tables(schema, expected_grouping, synthetic_config):
    oracle = SyntheticOracle(synthetic_config, schema)
    report, _ = run_group_attribution(oracle, expected_grouping)
    with pytest.raises(DataError):
        combined_attribution(
            schema, expected_grouping, report.intra_tables[:-1], report.group_tables
        )


def test_report_json_shape(schema, expected_grouping, synthetic_config):
    oracle = SyntheticOracle(synthetic_config, schema)
    report, _ = run_group_attribution(oracle, expected_grouping)
    doc = report.to_json_dict()
    assert doc["grouping"]["g"] == 5
    assert len(doc["attribution"]) == 17
    assert len(doc["intra_tables"]) == 17
    assert len(doc["group_tables"]) == 5
    assert doc["group_tables"][0]["players"] == [f"group{i}" for i in range(1, 6)]


# --- golden reports and the budget of the stage list -------------------------


def random_oracle(n, seed):
    """A noisy synthetic model over n keypoints drawn from a fixed seed."""
    rng = np.random.default_rng(seed)
    names = [f"k{i}" for i in range(n)]
    edges = [[f"k{i}", f"k{i + 1}"] for i in range(n - 1)]
    schema = load_schema({"names": names, "edges": edges})[0]
    base = rng.uniform(0.5, 1.0, n)
    rec = rng.random((n, n))
    np.fill_diagonal(rec, 0.0)
    rec /= 1.25 * rec.sum(axis=1, keepdims=True)
    config = SyntheticModelConfig(tuple(base), tuple(map(tuple, rec)), noise_sd=0.05)
    return SyntheticOracle(config, schema)


def wide_groups_oracle():
    """20 keypoints in groups of 9 and 11, so group means run over 8 or more
    members."""
    return random_oracle(20, 20261017), Grouping.from_sets([range(0, 9), range(9, 20)], 20)


@pytest.mark.parametrize(
    "split_mode, sha256",
    [
        ("uniform", "3655170189a0b3d788ec58a57b8dfc6bb44a043c493e45435aa6756dcacf214c"),
        ("proportional", "074c4194c6bb7680d91035605cae2aeee73611ba0971593311a31f544f2f14fb"),
    ],
    ids=["uniform", "proportional"],
)
def test_wide_groups_report_is_golden(split_mode, sha256):
    oracle, grouping = wide_groups_oracle()
    report, budget = run_group_attribution(oracle, grouping, trial=3, split_mode=split_mode)
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == sha256
    assert budget == QueryBudget(distinct_coalitions=2560, oracle_calls=2564)


@st.composite
def random_groupings(draw):
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(n)))
    sets = []
    while order:
        size = draw(st.integers(1, min(5, len(order))))
        sets.append(order[:size])
        order = order[size:]
    return Grouping.from_sets(sets, n)


@settings(max_examples=60, deadline=None)
@given(random_groupings())
def test_budget_counts_agree(grouping):
    n = grouping.n
    names = [f"k{i}" for i in range(n)]
    schema = load_schema({"names": names, "edges": [names[:2]]})[0]
    base = tuple(0.5 + 0.04 * i for i in range(n))
    rec = tuple(tuple(0.0 if i == j else 0.9 / (n - 1) for j in range(n)) for i in range(n))
    counter = CountingOracle(SyntheticOracle(SyntheticModelConfig(base, rec), schema))
    _, budget = run_group_attribution(counter, grouping)
    assert counter.calls == query_count(grouping).oracle_calls == budget.oracle_calls
    assert len(counter.coalitions) == budget.distinct_coalitions


# --- stages packed into batches ------------------------------------------------


def stage_masks(grouping):
    """Each stage's coalitions in evaluation order, built from the grouping:
    row r of a stage makes its j-th player visible when bit j of r is set,
    and every keypoint outside the stage's players is always visible."""
    full = (1 << grouping.n) - 1
    members = [[1 << i for i in grp] for grp in grouping.groups]
    stages = members + [[sum(bits) for bits in members]]
    return [
        [
            full ^ sum(players) | sum(p for j, p in enumerate(players) if r >> j & 1)
            for r in range(1 << len(players))
        ]
        for players in stages
    ]


def assert_priced_stage_by_stage(report, oracle, grouping, trial=0):
    """Each stage priced from its slice of a packed batch exactly as the
    per-stage branch prices it from a batch of its own."""
    names = oracle.schema.names
    want = [
        branch_price_stage(names, grouping, k, oracle.eval_many("all", masks, trial))
        for k, masks in enumerate(stage_masks(grouping))
    ]
    for members, tables in zip(grouping.groups, want):
        assert [report.intra_tables[i] for i in members] == tables
    assert list(report.group_tables) == want[-1]


def linear_oracle(n):
    names = [f"k{i}" for i in range(n)]
    schema = load_schema({"names": names, "edges": [names[:2]]})[0]
    base = tuple(0.5 + 0.02 * i for i in range(n))
    rec = tuple(tuple(0.0 if i == j else 0.9 / (n - 1) for j in range(n)) for i in range(n))
    return SyntheticOracle(SyntheticModelConfig(base, rec, noise_sd=0.05), schema)


def test_coco_run_is_one_batch_in_stage_order(schema, expected_grouping, synthetic_config):
    local = SyntheticOracle(synthetic_config, schema)
    recorder = RecordingOracle(local)
    report, _ = run_group_attribution(recorder, expected_grouping, trial=4)
    masks = [m for stage in stage_masks(expected_grouping) for m in stage]
    assert len(masks) == 96
    assert recorder.batches == [("all", 4, masks)]
    assert_priced_stage_by_stage(report, local, expected_grouping, trial=4)


@pytest.mark.parametrize(
    "groups, packs",
    [
        # stages of 4, 512, 8, 2 and 4 coalitions, then a group stage of 32
        ([range(0, 2), range(2, 11), range(11, 14), [14], range(15, 17)], [[0], [1], [2, 3, 4, 5]]),
        # two stages of 128 fill one batch exactly; the group stage of 4 does not fit
        ([range(0, 7), range(7, 14)], [[0, 1], [2]]),
        # 128 + 2 + 128 coalitions are two more than a batch holds
        ([range(0, 7), [7], range(8, 15)], [[0, 1], [2, 3]]),
    ],
)
def test_stages_share_a_batch_up_to_the_pack_limit(groups, packs):
    n = max(max(grp) for grp in groups) + 1
    grouping = Grouping.from_sets(groups, n)
    local = linear_oracle(n)
    recorder = RecordingOracle(local)
    report, budget = run_group_attribution(recorder, grouping)
    stages = stage_masks(grouping)
    assert [masks for _, _, masks in recorder.batches] == [
        [m for k in pack for m in stages[k]] for pack in packs
    ]
    assert all(len(masks) <= 256 for _, _, masks in recorder.batches if masks not in stages)
    assert budget.oracle_calls == query_count(grouping).oracle_calls
    assert_priced_stage_by_stage(report, local, grouping)


def test_partial_table_misses_the_coalition_stage_by_stage_misses(
    schema, expected_grouping, synthetic_config
):
    local = SyntheticOracle(synthetic_config, schema)
    stages = stage_masks(expected_grouping)
    table = {m: local.eval("all", Coalition(m, 17)) for stage in stages for m in stage}
    # a group-stage coalition and, earlier in the batch, one of stage 2's
    first_missing = stages[2][1]
    del table[stages[-1][3]], table[first_missing]
    oracle = TabularOracle(schema, table)
    with pytest.raises(MissingCoalitionError) as alone:
        for masks in stages:
            oracle.eval_many("all", masks)
    for price in (stage_tables, run_group_attribution):
        with pytest.raises(MissingCoalitionError) as packed:
            price(oracle, expected_grouping)
        assert str(packed.value) == str(alone.value) == f"no value for coalition {first_missing:#x}"


# --- table and grouping must agree ----------------------------------------


def coco_tables(schema, grouping, config):
    report, _ = run_group_attribution(SyntheticOracle(config, schema), grouping)
    return list(report.intra_tables), list(report.group_tables)


def test_combined_attribution_refuses_an_extra_intra_player(
    schema, expected_grouping, synthetic_config
):
    intra, groups = coco_tables(schema, expected_grouping, synthetic_config)
    t = intra[0]
    intra[0] = ShapleyTable(
        t.target, t.players + ("l-hip",), t.phi + (0.5,), t.value_full, t.value_empty
    )
    with pytest.raises(DataError, match=r"^intra table 0 prices 'nose' over \[.*'l-hip'\]"):
        combined_attribution(schema, expected_grouping, intra, groups)


def test_combined_attribution_refuses_a_short_intra_table(
    schema, expected_grouping, synthetic_config
):
    intra, groups = coco_tables(schema, expected_grouping, synthetic_config)
    t = intra[7]
    intra[7] = ShapleyTable(t.target, t.players[:-1], t.phi[:-1], t.value_full, t.value_empty)
    with pytest.raises(DataError, match=r"^intra table 7 prices 'l-elbow' over "):
        combined_attribution(schema, expected_grouping, intra, groups)


def test_combined_attribution_refuses_a_partial_group_table(
    schema, expected_grouping, synthetic_config
):
    intra, groups = coco_tables(schema, expected_grouping, synthetic_config)
    t = groups[2]
    groups[2] = ShapleyTable(t.target, t.players[:3], t.phi[:3], t.value_full, t.value_empty)
    with pytest.raises(
        DataError,
        match=r"^group table 2 prices 'group3' over \['group1', 'group2', 'group3'\], "
        r"expected 'group3' over \['group1', 'group2', 'group3', 'group4', 'group5'\]$",
    ):
        combined_attribution(schema, expected_grouping, intra, groups)


def test_combined_attribution_refuses_swapped_intra_tables(
    schema, expected_grouping, synthetic_config
):
    intra, groups = coco_tables(schema, expected_grouping, synthetic_config)
    intra[5], intra[11] = intra[11], intra[5]
    with pytest.raises(DataError, match=r"^intra table 5 prices 'l-hip' over .*expected 'l-shoulder'"):
        combined_attribution(schema, expected_grouping, intra, groups)


def test_combined_attribution_refuses_a_grouping_of_another_size(
    schema, expected_grouping, synthetic_config
):
    intra, groups = coco_tables(schema, expected_grouping, synthetic_config)
    smaller = Grouping.from_sets([range(0, 8), range(8, 16)], 16)
    with pytest.raises(DataError, match=r"^grouping over n=16, schema has n=17$"):
        combined_attribution(schema, smaller, intra, groups)


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize(
    "price",
    [stage_tables, run_group_attribution],
    ids=["stages", "run"],
)
def test_pricing_refuses_a_grouping_of_another_size_before_any_call(
    schema, synthetic_config, n, price
):
    oracle = RecordingOracle(SyntheticOracle(synthetic_config, schema))
    grouping = Grouping.from_sets([range(0, n // 2), range(n // 2, n)], n)
    with pytest.raises(DataError, match=rf"^grouping over n={n}, oracle schema has n=17$"):
        price(oracle, grouping)
    assert oracle.batches == []


# --- whole-array reductions against the loops they replaced ------------------


def loop_group_means(values, groups):
    """The per-row loop _group_means replaced: one 1-D sum per row. Row h
    holds group h's means, one per row of values."""
    means = np.empty((len(groups), len(values)), dtype=np.float64)
    for h, members in enumerate(groups):
        for m, row in enumerate(values[:, list(members)]):
            means[h, m] = np.add.reduce(row) / len(members)
    return means


def loop_phi(games, n):
    """The per-target loop _tables replaced: one np.sum per (player, target);
    row t of games is target t's game."""
    masks = np.arange(1 << n, dtype=np.int64)
    size = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        size += (masks >> b) & 1
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = np.array([fact[k] * fact[n - 1 - k] / fact[n] for k in range(n)])
    phi = np.empty((len(games), n), dtype=np.float64)
    for j in range(n):
        without = masks[(masks >> j) & 1 == 0]
        weighted = weight[size[without]] * (games[:, without | (1 << j)] - games[:, without])
        for t, row in enumerate(weighted):
            phi[t, j] = np.sum(row)
    return phi


def loop_sigma(grouping, intra_tables, group_tables, split_mode):
    """The per-row loop combined_attribution replaced."""
    n = grouping.n
    intra_norm = [normalize_nonneg(t.phi) for t in intra_tables]
    group_norm = [normalize_nonneg(t.phi) for t in group_tables]
    self_share = np.empty(n, dtype=np.float64)
    for j in range(n):
        members = grouping.groups[grouping.group_of(j)]
        self_share[j] = intra_norm[j][members.index(j)]
    sigma = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        gi = grouping.group_of(i)
        psi = group_norm[gi]
        row = np.zeros(n, dtype=np.float64)
        for pos, j in enumerate(grouping.groups[gi]):
            row[j] = psi[gi] * intra_norm[i][pos]
        for h in range(grouping.g):
            if h == gi:
                continue
            members = list(grouping.groups[h])
            if split_mode == "proportional":
                w = self_share[members]
                w = w / w.sum() if w.sum() > 0 else np.full(len(members), 1 / len(members))
            else:
                w = np.full(len(members), 1.0 / len(members))
            row[members] = psi[h] * w
        sigma[i] = normalize_nonneg(row)
    return sigma


def uneven(rng, shape):
    """Floats over many magnitudes, so that summation order shows."""
    return rng.lognormal(0.0, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def split(order, sizes):
    out, start = [], 0
    for size in sizes:
        out.append(tuple(sorted(order[start : start + size])))
        start += size
    return out


@pytest.mark.parametrize("width", [*range(1, 41), 127, 128, 129, 300])
def test_group_means_match_the_row_loop_at_block_edges(width):
    rng = np.random.default_rng(width)
    for rows in (1, 7, 8, 129, 4096):
        values = uneven(rng, (rows, width + 3))
        groups = [tuple(range(1, width + 1)), (0, width + 1, width + 2)]
        assert np.array_equal(_group_means(values, groups), loop_group_means(values, groups))


@given(st.integers(1, 4096), st.lists(st.integers(1, 40), min_size=1, max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_group_means_match_the_row_loop(rows, sizes, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = uneven(rng, (rows, sum(sizes)))
    groups = split(rng.permutation(sum(sizes)), sizes)
    assert np.array_equal(_group_means(values, groups), loop_group_means(values, groups))


@given(st.integers(1, 12), st.integers(1, 20), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tables_match_the_per_target_loop(n, t, seed):
    games = uneven(np.random.default_rng(seed), (t, 1 << n))
    players = tuple(f"p{j}" for j in range(n))
    targets = tuple(f"t{k}" for k in range(t))
    got = _tables(games, players, targets)
    want = loop_phi(games, n)
    assert [tab.target for tab in got] == list(targets)
    assert np.array_equal(np.array([tab.phi for tab in got]), want)


def block_bound_cases():
    """(n, t) pairs from one player to 16 and from one target to 1025: many
    targets over few players, few over many, and the sizes between, where
    (target, coalition) blocks of 2^14 gathered gains once split the work."""
    return [
        (1, 1), (5, 5), (5, 1024), (5, 1025),
        (11, 7), (11, 9), (11, 16), (11, 17),
        (12, 3), (12, 5), (12, 8), (12, 9),
        (13, 1), (13, 3), (13, 4), (13, 5),
        (15, 1), (16, 3),
    ]


@pytest.mark.parametrize(("n", "t"), block_bound_cases())
def test_tables_match_the_per_target_loop_across_the_block_bound(n, t):
    games = uneven(np.random.default_rng(1000 * n + t), (t, 1 << n))
    players = tuple(f"p{j}" for j in range(n))
    got = _tables(games, players, tuple(f"t{k}" for k in range(t)))
    assert np.array_equal(np.array([tab.phi for tab in got]), loop_phi(games, n))
    assert [tab.value_full for tab in got] == games[:, -1].tolist()
    assert [tab.value_empty for tab in got] == games[:, 0].tolist()


def test_exact_shapley_matches_the_per_target_loop_at_the_player_limit():
    game = uneven(np.random.default_rng(MAX_PLAYERS), (1, 1 << MAX_PLAYERS))
    table = exact_shapley(game[0])
    assert np.array_equal(np.array([table.phi]), loop_phi(game, MAX_PLAYERS))


@pytest.mark.parametrize("n", [1, 4, 9])
def test_tables_price_a_strided_game_as_its_contiguous_copy(n):
    # every other row and every other coalition of a wider array, and an
    # F-ordered copy: the tables must not depend on the input's layout
    rng = np.random.default_rng(n)
    wide = uneven(rng, (6, 2 << n))
    games = wide[::2, ::2]
    assert not games.flags.c_contiguous and not games.flags.f_contiguous
    players = tuple(f"p{j}" for j in range(n))
    targets = ("a", "b", "c")
    want = loop_phi(np.ascontiguousarray(games), n)
    for layout in (games, np.asfortranarray(games)):
        got = _tables(layout, players, targets)
        assert np.array([tab.phi for tab in got]).tobytes() == want.tobytes()
        assert [tab.value_full for tab in got] == games[:, -1].tolist()
    one = exact_shapley(wide[0, 1::2])
    assert np.array([one.phi]).tobytes() == loop_phi(wide[:1, 1::2].copy(), n).tobytes()


def test_a_negative_zero_of_a_one_keypoint_player_is_priced_as_zero():
    # a within-group stage gathers its members' columns in one step; -0.0
    # still reads as 0.0, as the per-row sum of the loop reads it
    values = np.array([[-0.0, 0.25, -0.0], [0.5, -0.0, 0.75], [-0.0, -0.0, 1.0], [1.0, 1.0, 0.0]])
    players = [(0,), (1,), (2,)]
    means = _group_means(values, players)
    assert means.flags.c_contiguous
    assert means.tobytes() == loop_group_means(values, players).tobytes()
    assert not np.signbit(means).any()
    game = _group_means(values[:, :2], [(0,), (1,)])
    (table, _) = _tables(game, ("a", "b"), ("a", "b"))
    assert math.copysign(1.0, table.value_empty) == 1.0


def random_tables(grouping, rng):
    """Intra and group tables that fit the grouping, with some negative
    entries, and one group whose self-values all vanish."""
    names = tuple(f"k{i}" for i in range(grouping.n))
    intra = [None] * grouping.n
    for h, members in enumerate(grouping.groups):
        players = tuple(names[j] for j in members)
        for pos, i in enumerate(members):
            phi = rng.random(len(members)) - 0.2
            phi[pos] = abs(phi[pos]) + 0.1
            if h == 1 and len(members) > 1:
                phi[pos - 1], phi[pos] = phi[pos], 0.0
            intra[i] = ShapleyTable(names[i], players, tuple(phi), 1.0, 0.0)
    labels = tuple(f"group{h + 1}" for h in range(grouping.g))
    group = []
    for h, label in enumerate(labels):
        phi = rng.random(grouping.g) - 0.1
        phi[h] += 0.2
        group.append(ShapleyTable(label, labels, tuple(phi), 1.0, 0.0))
    schema = load_schema({"names": list(names), "edges": [list(names[:2])]})[0]
    return schema, intra, group


@pytest.mark.parametrize("split_mode", ["uniform", "proportional"])
@pytest.mark.parametrize("sizes", [[9, 11], [8, 1, 30, 12, 2], [40, 3, 129]])
def test_combined_attribution_matches_the_row_loop(split_mode, sizes):
    rng = np.random.default_rng(sum(sizes))
    grouping = Grouping.from_sets(split(rng.permutation(sum(sizes)), sizes), sum(sizes))
    schema, intra, group = random_tables(grouping, rng)
    report = combined_attribution(schema, grouping, intra, group, split_mode)
    assert np.array_equal(report.sigma, loop_sigma(grouping, intra, group, split_mode))
    assert report.sigma.flags.c_contiguous


@given(st.lists(st.integers(1, 12), min_size=2, max_size=6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_combined_attribution_matches_the_row_loop_on_random_groupings(sizes, seed):
    rng = np.random.default_rng(seed)
    grouping = Grouping.from_sets(split(rng.permutation(sum(sizes)), sizes), sum(sizes))
    schema, intra, group = random_tables(grouping, rng)
    for split_mode in ("uniform", "proportional"):
        report = combined_attribution(schema, grouping, intra, group, split_mode)
        assert np.array_equal(report.sigma, loop_sigma(grouping, intra, group, split_mode))


def test_combined_attribution_refuses_a_degenerate_table():
    # the tables of one group size are normalized together, and a row with
    # no positive mass is refused as normalize_nonneg refuses it alone
    rng = np.random.default_rng(7)
    grouping = Grouping.from_sets([(0, 1), (2, 3), (4,)], 5)
    schema, intra, group = random_tables(grouping, rng)
    with pytest.raises(DataError) as alone:
        normalize_nonneg([-1.0, 0.0])
    bad = [
        (intra[:3] + [ShapleyTable(intra[3].target, intra[3].players, (-1.0, 0.0), 1.0, 0.0)] + intra[4:], group),
        (intra, group[:1] + [ShapleyTable(group[1].target, group[1].players, (0.0, -0.5, 0.0), 1.0, 0.0)] + group[2:]),
    ]
    for intra_tables, group_tables in bad:
        with pytest.raises(DataError) as exc:
            combined_attribution(schema, grouping, intra_tables, group_tables)
        assert (exc.value.code, str(exc.value)) == (alone.value.code, str(alone.value))


# --- one pricing path against the per-stage branch it replaced ---------------


def branch_price_stage(names, grouping, k, values):
    """The per-stage branch that pricing every player as a keypoint set
    replaced: a within-group stage prices its members' columns of the values
    directly, and the group stage prices the groups' mean performance."""
    if k < grouping.g:
        members = list(grouping.groups[k])
        players = tuple(names[i] for i in members)
        return _tables(np.ascontiguousarray(values[:, members].T), players, players)
    labels = tuple(f"group{h + 1}" for h in range(grouping.g))
    return _tables(loop_group_means(values, grouping.groups), labels, labels)


@pytest.mark.parametrize(
    "groups",
    [
        # g = 1: one group of 10, so the group stage has a single player
        [range(0, 10)],
        # a one-keypoint group between groups of 8 and 12
        [range(0, 8), [8], range(9, 21)],
        # two one-keypoint groups and one of 11
        [[0], [1], range(2, 13)],
    ],
    ids=["g1", "8-1-12", "1-1-11"],
)
def test_one_pricing_path_matches_the_per_stage_branch(groups):
    n = max(max(grp) for grp in groups) + 1
    grouping = Grouping.from_sets(groups, n)
    oracle = random_oracle(n, n)
    report, _ = run_group_attribution(oracle, grouping, trial=2)
    assert_priced_stage_by_stage(report, oracle, grouping, trial=2)
    intra, group, _ = stage_tables(oracle, grouping, trial=2)
    assert (intra, group) == (list(report.intra_tables), list(report.group_tables))
