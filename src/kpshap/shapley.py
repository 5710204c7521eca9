"""Exact Shapley attribution, coarse-to-fine over keypoint groups.

Pricing every keypoint against every other needs 2^n oracle calls. Grouping
cuts this two ways: a within-group stage prices each member against its own
group while everything outside stays visible, and a group-level stage prices
whole groups against each other. Both stages are exact Shapley computations
over at most a handful of players, so the budget collapses from 2^n to
sum_k 2^|G_k| + 2^g.

A player is a set of keypoints shown or hidden together, and its game is
the mean performance of its keypoints: one keypoint per player inside a
group, one group per player across groups (the Owen value's coalition
structure). The stages, their players and labels are listed in one place
(``_stages``). A run has two steps. ``stage_tables`` prices every stage from
one row of coalition values per player, submitting consecutive small stages
as one ``eval_many`` batch of at most ``_PACK_ROWS`` coalitions and a larger
stage as a batch of its own; the oracle sees each stage coalition once, and
the budget is the summed stage sizes. ``combined_attribution`` then combines
the stage tables into one n x n attribution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .grouping import Grouping
from .oracle import (
    CoalitionValueOracle,
    _check_trials,
    _read_coalition_table,
    _write_coalition_table,
)
from .skeleton import KeypointSchema

MAX_PLAYERS = 20

# stage_tables packs consecutive stages into one eval_many while the batch
# holds at most this many coalitions. Over the wire to a synthetic n=17
# child each batch costs about 0.35 ms of CPU (client and child, 2-vCPU
# host) on top of its rows, about 30 us each, small next to 256 rows of
# work, and a 256-row batch at n=133 holds only 272 KB of values.
_PACK_ROWS = 256

SPLIT_MODES = ("uniform", "proportional")


@dataclass(frozen=True)
class ShapleyTable:
    """Exact attribution of one target over a set of players."""

    target: str
    players: tuple[str, ...]
    phi: tuple[float, ...]
    value_full: float
    value_empty: float

    def __post_init__(self):
        if len(self.players) != len(self.phi):
            raise DataError("players and phi lengths differ")

    def efficiency_gap(self) -> float:
        return abs(sum(self.phi) - (self.value_full - self.value_empty))

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "players": list(self.players),
            "phi": [float(v) for v in self.phi],
            "value_full": float(self.value_full),
            "value_empty": float(self.value_empty),
        }


@dataclass(frozen=True)
class QueryBudget:
    """Oracle work: distinct coalitions evaluated, and total eval calls."""

    distinct_coalitions: int
    oracle_calls: int

    def __post_init__(self):
        if self.distinct_coalitions < 0 or self.oracle_calls < 0:
            raise DataError("budget counts must be non-negative")
        if self.distinct_coalitions > self.oracle_calls:
            raise DataError("distinct coalitions cannot exceed total calls")


def _check_player_count(n: int) -> None:
    if n < 1:
        raise DataError(f"need at least one player, got {n}")
    if n > MAX_PLAYERS:
        raise DataError(
            f"{n} players would need 2^{n} evaluations; limit is {MAX_PLAYERS}",
            code="too-many-players",
        )


def _game_table(values, what: str) -> tuple[np.ndarray, int]:
    """A game's 2^n values as a float array, and n; 1 <= n <= MAX_PLAYERS."""
    arr = np.asarray(values, dtype=np.float64)
    count = arr.shape[0] if arr.ndim == 1 else 0
    if count < 2 or count & (count - 1):
        raise DataError(f"{what}: expected 2^n scalar values, got shape {arr.shape}")
    n = count.bit_length() - 1
    _check_player_count(n)
    return arr, n


def _popcounts(n: int) -> np.ndarray:
    masks = np.arange(1 << n, dtype=np.int64)
    size = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        size += (masks >> b) & 1
    return size


@functools.cache
def _weights(n: int) -> np.ndarray:
    """The read-only weight |S|! (n-|S|-1)! / n! of each coalition S of the
    other n-1 players, by S's bitmask over them."""
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = np.array(
        [fact[k] * fact[n - 1 - k] / fact[n] for k in range(n)], dtype=np.float64
    )[_popcounts(n - 1)]
    weight.flags.writeable = False
    return weight


def _tables(games: np.ndarray, players, targets) -> list[ShapleyTable]:
    """Exact Shapley tables of t games over the same players, in one pass.

    ``games`` is (t, 2^n): row t holds target t's game, one value per
    coalition bitmask. Viewed as (t, 2^(n-1-j), 2, 2^j), its halves [:, :, 0]
    and [:, :, 1] are the coalitions without and with player j, each in
    ascending order of the other players' bits, so player j's gains need no
    index arrays. They come out as a fresh C-contiguous (t, 2^(n-1)) array,
    and reducing its last axis sums each target's row pairwise, exactly as
    np.sum sums it alone: pricing t games together rounds as pricing them one
    at a time.
    """
    if not np.all(np.isfinite(games)):
        raise DataError("game value is non-finite")
    games = np.ascontiguousarray(games)
    t, n = len(games), len(players)
    weights = _weights(n)
    phi = np.empty((t, n), dtype=np.float64)
    for j in range(n):
        halves = games.reshape(t, 1 << (n - 1 - j), 2, 1 << j)
        gain = np.subtract(halves[:, :, 1], halves[:, :, 0]).reshape(t, 1 << (n - 1))
        gain *= weights
        np.add.reduce(gain, axis=-1, out=phi[:, j])
    full, empty = games[:, -1].tolist(), games[:, 0].tolist()
    return [
        ShapleyTable(target, players, tuple(row), full[k], empty[k])
        for k, (target, row) in enumerate(zip(targets, phi.tolist()))
    ]


def exact_shapley(values) -> ShapleyTable:
    """Exact Shapley values of a scalar coalition game.

    ``values`` holds the game's 2^n coalition values, indexed by the bitmask
    over n players, labelled p0, p1, ...; the target is "". Marginal gains
    are weighted by the classic |S|! (n-|S|-1)! / n! coefficients.
    """
    table, n = _game_table(values, "game")
    return _tables(table[None, :], tuple(f"p{i}" for i in range(n)), ("",))[0]


def read_game_csv(path) -> np.ndarray:
    """Scalar game table: a coalition table with one column, value, holding
    all 2^n coalitions; n is inferred from the row count. Returns the values
    indexed by bitmask."""
    table = _read_coalition_table(path, ["value"], "game table")
    missing = set(range(len(table))) - set(table)
    if missing:
        raise DataError(f"{path}: incomplete table, e.g. missing coalition 0x{min(missing):x}")
    return _game_table([table[m][0] for m in range(len(table))], str(path))[0]


def write_game_csv(path, values) -> None:
    arr, _ = _game_table(values, "game table")
    _write_coalition_table(path, ["value"], dict(enumerate(arr[:, None])), "game table")


def group_label(k: int) -> str:
    return f"group{k + 1}"


def _stages(grouping: Grouping, names) -> list[tuple[tuple, tuple]]:
    """Every stage's players and their labels: one stage per group, then the
    group stage. A player is a tuple of keypoints shown or hidden together:
    group k's stage has one player per member, labelled by ``names``, and the
    group stage one player per group, labelled ``group_label(h)``. Evaluation,
    pricing, the budget and the table checks all read this one list."""
    stages = [(tuple((i,) for i in grp), tuple(names[i] for i in grp)) for grp in grouping.groups]
    return stages + [(grouping.groups, tuple(group_label(h) for h in range(grouping.g)))]


def _coalitions(players, n: int) -> list[int]:
    """The 2^k coalitions of a stage; bit j of a coalition's index shows
    players[j], and every keypoint outside the players stays visible."""
    _check_player_count(len(players))
    masks = [sum(1 << i for i in player) for player in players]
    bits = [((1 << n) - 1) ^ sum(masks)]
    for p in masks:
        bits += [b | p for b in bits]
    return bits


def _group_means(values: np.ndarray, players) -> np.ndarray:
    """Row h holds player h's game: each coalition's mean performance over
    the keypoints of players[h].

    The mean is each coalition's 1-D sum divided by the player's size, which
    is what np.mean of a 1-D row does; a one-keypoint player's row is its
    keypoint's values, except that -0.0 reads as 0.0, as in any numpy sum.
    When every player is one keypoint, as in a within-group stage, the rows
    are one gather of those columns plus 0.0, which reads -0.0 the same way.
    """
    if all(len(members) == 1 for members in players):
        idx = [members[0] for members in players]
        return np.ascontiguousarray(values[:, idx].T) + 0.0
    means = np.empty((len(players), len(values)), dtype=np.float64)
    for h, members in enumerate(players):
        # values[:, members] is F-ordered, and reducing it across axis 1 adds
        # column by column, which rounds differently once a player has 8 or
        # more keypoints; over a C-contiguous copy numpy sums each row
        # pairwise, as it sums a 1-D row
        block = np.ascontiguousarray(values[:, list(members)])
        means[h] = np.add.reduce(block, axis=1) / len(members)
    return means


def _price_batch(oracle, stages, instances, trial):
    """Score the given (stage, coalition bits) pairs as one eval_many, in
    order, and price every player of each stage from its slice of the rows.
    Returns one list of tables per stage. The batch's value array lives only
    for this call."""
    values = oracle.eval_many(instances, [m for _, bits in stages for m in bits], trial)
    priced, start = [], 0
    for (players, labels), bits in stages:
        games = _group_means(values[start : start + len(bits)], players)
        priced.append(_tables(games, labels, labels))
        start += len(bits)
    return priced


def _packs(sizes) -> list[range]:
    """Consecutive stage indices, grouped into batches of at most _PACK_ROWS
    coalitions in all; a stage larger than that is a batch of its own."""
    packs, start, rows = [], 0, 0
    for k, size in enumerate(sizes):
        if k > start and rows + size > _PACK_ROWS:
            packs.append(range(start, k))
            start, rows = k, 0
        rows += size
    packs.append(range(start, len(sizes)))
    return packs


def normalize_nonneg(values) -> np.ndarray:
    """Clamp negatives to zero and rescale to a unit sum."""
    arr = np.maximum(np.asarray(values, dtype=np.float64), 0.0)
    total = arr.sum()
    if total <= 0.0:
        raise DataError(
            "no positive mass to normalize", code="degenerate-attribution"
        )
    return arr / total


def _normalize_rows(rows) -> np.ndarray:
    """normalize_nonneg of each row of a C-contiguous 2-D array at once.
    Reducing its last axis sums each row pairwise, exactly as
    normalize_nonneg sums one row alone."""
    arr = np.maximum(np.ascontiguousarray(rows, dtype=np.float64), 0.0)
    total = np.add.reduce(arr, axis=1)
    if np.any(total <= 0.0):
        raise DataError("no positive mass to normalize", code="degenerate-attribution")
    return arr / total[:, None]


def query_count(grouping: Grouping, trials: int = 1) -> QueryBudget:
    """Predicted budget of a full coarse-to-fine run (per instance batch).
    Refuses, as the run does, a grouping with a stage of more than
    MAX_PLAYERS players."""
    _check_trials(trials)
    # the labels are not read, so keypoint indices stand in for names
    stages = _stages(grouping, range(grouping.n))
    for players, _ in stages:
        _check_player_count(len(players))
    calls = sum(1 << len(players) for players, _ in stages)
    return QueryBudget(calls, calls * trials)


def exact_query_count(n: int, trials: int = 1) -> QueryBudget:
    """Budget of pricing all n keypoints jointly: the full 2^n sweep."""
    _check_trials(trials)
    distinct = 1 << n
    return QueryBudget(distinct, distinct * trials)


@dataclass(frozen=True)
class AttributionReport:
    """Full output of a coarse-to-fine run.

    ``sigma`` is the n x n combined attribution: row i says how target i's
    performance splits across all keypoints (within-group members get the
    group share times their within-group share; other groups' shares are
    split across their members). Rows are non-negative and sum to 1.
    """

    names: tuple[str, ...]
    grouping: Grouping
    split_mode: str
    intra_tables: tuple[ShapleyTable, ...]
    group_tables: tuple[ShapleyTable, ...]
    sigma: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "names": list(self.names),
            "grouping": {
                "groups": [[self.names[i] for i in grp] for grp in self.grouping.groups],
                "g": self.grouping.g,
            },
            "split_mode": self.split_mode,
            "intra_tables": [t.to_json_dict() for t in self.intra_tables],
            "group_tables": [t.to_json_dict() for t in self.group_tables],
            "attribution": self.sigma.tolist(),
        }


def _check_table(what: str, table: ShapleyTable, target: str, players: tuple[str, ...]) -> None:
    if table.target != target or tuple(table.players) != players:
        raise DataError(
            f"{what} prices {table.target!r} over {list(table.players)}, "
            f"expected {target!r} over {list(players)}"
        )


def combined_attribution(
    schema: KeypointSchema,
    grouping: Grouping,
    intra_tables,
    group_tables,
    split_mode: str = "uniform",
) -> AttributionReport:
    """Combine the two stages into one n x n attribution matrix.

    ``intra_tables`` has one table per keypoint (over its group's members);
    ``group_tables`` one per group (over all groups). Cross-group mass is
    split uniformly across the foreign group's members, or proportionally to
    each member's own normalized within-group self-value in
    ``proportional`` mode.

    Table i must price keypoint i over its group's members in order, and
    group table h must price ``group_label(h)`` over all groups in order; the
    first table that does not is refused.
    """
    if split_mode not in SPLIT_MODES:
        raise DataError(f"unknown split mode {split_mode!r}, pick from {SPLIT_MODES}")
    n = schema.n
    if grouping.n != n:
        raise DataError(f"grouping over n={grouping.n}, schema has n={n}")
    intra_tables = tuple(intra_tables)
    group_tables = tuple(group_tables)
    if len(intra_tables) != n or len(group_tables) != grouping.g:
        raise DataError("need one intra table per keypoint and one group table per group")

    label = np.empty(n, dtype=np.intp)
    for h, members in enumerate(grouping.groups):
        label[list(members)] = h
    stages = _stages(grouping, schema.names)
    for (_, players), members in zip(stages, grouping.groups):
        for i in members:
            _check_table(f"intra table {i}", intra_tables[i], schema.names[i], players)
    labels = stages[-1][1]
    for h, table in enumerate(group_tables):
        _check_table(f"group table {h}", table, labels[h], labels)

    # each group's intra tables are normalized together: row pos of its
    # block is the within-group share row of its member at pos
    blocks = [_normalize_rows([intra_tables[i].phi for i in members]) for members in grouping.groups]
    psi = _normalize_rows([t.phi for t in group_tables])

    # weight[j]: keypoint j's part of its group's share in a foreign row;
    # uniform, or in proportional mode proportional to the members'
    # normalized within-group self-values unless these all vanish
    weight = np.empty(n, dtype=np.float64)
    for members, block in zip(map(list, grouping.groups), blocks):
        share = block.diagonal()
        if split_mode == "proportional" and share.sum() > 0:
            weight[members] = share / share.sum()
        else:
            weight[members] = 1.0 / len(members)

    # sigma[i, j] = psi[i's group][j's group] * weight[j], except in i's own
    # group, where it is the group's self-share times i's within-group share
    sigma = psi[label][:, label] * weight
    for h, (members, block) in enumerate(zip(grouping.groups, blocks)):
        rows = np.array(members, dtype=np.intp)
        sigma[rows[:, None], rows] = psi[h, h] * block
    # the fancy-indexed matrix is F-ordered, and reducing that across axis 1
    # adds column by column; _normalize_rows sums C-contiguous rows
    sigma = _normalize_rows(sigma)

    return AttributionReport(
        names=schema.names,
        grouping=grouping,
        split_mode=split_mode,
        intra_tables=intra_tables,
        group_tables=group_tables,
        sigma=sigma,
    )


def stage_tables(
    oracle: CoalitionValueOracle,
    grouping: Grouping,
    instances="all",
    trial: int = 0,
) -> tuple[list[ShapleyTable], list[ShapleyTable], QueryBudget]:
    """Price every stage: one intra table per keypoint (over its group's
    members), one group table per group (over all groups), and the budget.
    Oracle calls match query_count(grouping); distinct coalitions are the
    size of the stages' union. A grouping over another keypoint count is
    refused before any oracle call."""
    n = oracle.schema.n
    if grouping.n != n:
        raise DataError(f"grouping over n={grouping.n}, oracle schema has n={n}")
    stages = _stages(grouping, oracle.schema.names)
    bits = [_coalitions(players, n) for players, _ in stages]
    priced = []
    for pack in _packs([len(b) for b in bits]):
        priced += _price_batch(oracle, [(stages[k], bits[k]) for k in pack], instances, trial)
    intra_tables: list[ShapleyTable | None] = [None] * n
    for members, tables in zip(grouping.groups, priced):
        for i, table in zip(members, tables):
            intra_tables[i] = table
    distinct = set().union(*bits)
    return intra_tables, priced[-1], QueryBudget(len(distinct), sum(len(b) for b in bits))


def run_group_attribution(
    oracle: CoalitionValueOracle,
    grouping: Grouping,
    instances="all",
    trial: int = 0,
    split_mode: str = "uniform",
) -> tuple[AttributionReport, QueryBudget]:
    """Full coarse-to-fine run over every keypoint and group: the stages
    priced by ``stage_tables``, then combined by ``combined_attribution``."""
    intra_tables, group_tables, budget = stage_tables(oracle, grouping, instances, trial)
    report = combined_attribution(oracle.schema, grouping, intra_tables, group_tables, split_mode)
    return report, budget
