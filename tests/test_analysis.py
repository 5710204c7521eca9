import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpshap import (
    ConfidenceTable,
    DataError,
    confidence_correlation,
    read_confidence_csv,
    read_matrix_csv,
    render_heatmap,
    write_confidence_csv,
    write_matrix_csv,
)
from kpshap.analysis import RAMP_HIGH, RAMP_LOW, _esc


def table(rows, names=None):
    arr = np.asarray(rows, dtype=np.float64)
    names = names or tuple(f"k{i}" for i in range(arr.shape[1]))
    ids = tuple(str(i) for i in range(arr.shape[0]))
    return ConfidenceTable(tuple(names), ids, arr)


# --- labeled matrix CSV ------------------------------------------------------


def test_matrix_csv_roundtrip(tmp_path):
    labels = ("a", "b", "c")
    m = np.array([[0.0, 1.5, -2.0], [1.5, 0.0, 0.25], [-2.0, 0.25, 0.0]])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, labels, m)
    got_labels, got = read_matrix_csv(path)
    assert got_labels == labels
    assert np.array_equal(got, m)
    assert path.read_text().startswith("keypoint,a,b,c\n")


def test_matrix_csv_rejects_duplicate_columns(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("k,a,a\na,1,2\na,3,4\n")
    with pytest.raises(DataError):
        read_matrix_csv(path)


def test_matrix_csv_rejects_row_label_mismatch(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("k,a,b\na,1,2\nc,3,4\n")
    with pytest.raises(DataError):
        read_matrix_csv(path)


def test_matrix_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("k,a,b\na,1,2,3\nb,4,5\n")
    with pytest.raises(DataError):
        read_matrix_csv(path)


def test_matrix_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("k,a,b\na,1,x\nb,3,4\n")
    with pytest.raises(DataError):
        read_matrix_csv(path)


def test_write_matrix_rejects_label_count_mismatch(tmp_path):
    with pytest.raises(DataError):
        write_matrix_csv(tmp_path / "m.csv", ("a",), np.eye(2))


# --- confidence tables -------------------------------------------------------


def test_confidence_table_validation():
    with pytest.raises(DataError):
        table([[0.5, 0.5]][:1])  # single row
    with pytest.raises(DataError):
        table([[0.5, 1.5], [0.5, 0.5]])  # out of range
    with pytest.raises(DataError):
        ConfidenceTable(("a",), ("0", "1"), np.zeros((2, 2)))  # shape


def test_confidence_values_are_frozen():
    t = table([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValueError):
        t.values[0, 0] = 0.9


def test_confidence_csv_roundtrip_keeps_missing(tmp_path):
    t = table([[0.1, math.nan, 0.3], [0.4, 0.5, math.nan], [0.6, 0.7, 0.8]])
    path = tmp_path / "conf.csv"
    write_confidence_csv(path, t)
    text = path.read_text()
    assert text.splitlines()[0] == "instance,k0,k1,k2"
    assert ",," in text  # missing scores stay empty cells
    back = read_confidence_csv(path)
    assert back.names == t.names
    assert back.instances == t.instances
    assert np.array_equal(np.isnan(back.values), np.isnan(t.values))
    assert np.array_equal(back.values[~np.isnan(back.values)], t.values[~np.isnan(t.values)])


def test_confidence_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "conf.csv"
    path.write_text("frame,a,b\n0,0.1,0.2\n1,0.3,0.4\n")
    with pytest.raises(DataError):
        read_confidence_csv(path)


# --- correlation -------------------------------------------------------------


def test_correlation_frozen_trios():
    # Pearson is affine-invariant, so these [0,1]-scaled columns carry the
    # classic integer fixtures exactly.
    t = table(
        [
            [0.1, 0.2, 0.3, 0.1],
            [0.2, 0.4, 0.2, 0.3],
            [0.3, 0.6, 0.1, 0.2],
            [0.4, 0.8, 0.0, 0.4],
        ]
    )
    r = confidence_correlation(t).matrix
    assert r[0, 1] == pytest.approx(1.0)
    assert r[0, 2] == pytest.approx(-1.0)
    assert r[0, 3] == pytest.approx(0.8)
    assert statistics.correlation([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_correlation_matches_stdlib_on_random_table():
    rng = np.random.default_rng(7)
    vals = rng.random((20, 5))
    r = confidence_correlation(table(vals)).matrix
    for i in range(5):
        for j in range(i + 1, 5):
            want = statistics.correlation(list(vals[:, i]), list(vals[:, j]))
            assert r[i, j] == pytest.approx(want, abs=1e-12)


def test_correlation_is_pairwise_complete():
    # k0/k1 agree on rows 0-3; the NaN row 4 must only drop out of pairs
    # that involve k2.
    t = table(
        [
            [0.1, 0.1, 0.5],
            [0.2, 0.2, 0.6],
            [0.3, 0.3, 0.4],
            [0.4, 0.4, 0.9],
            [0.5, 0.0, math.nan],
        ]
    )
    r = confidence_correlation(t).matrix
    full = statistics.correlation([0.1, 0.2, 0.3, 0.4, 0.5], [0.1, 0.2, 0.3, 0.4, 0.0])
    assert r[0, 1] == pytest.approx(full)
    overlap = statistics.correlation([0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.4, 0.9])
    assert r[0, 2] == pytest.approx(overlap)


def test_correlation_insufficient_overlap():
    t = table(
        [
            [0.1, math.nan],
            [0.2, math.nan],
            [math.nan, 0.3],
            [0.4, 0.5],
        ]
    )
    with pytest.raises(DataError) as exc:
        confidence_correlation(t)
    assert exc.value.code == "insufficient-pairs"


def test_correlation_zero_variance_sentinel_and_warning():
    t = table([[0.1, 0.5, 0.2], [0.2, 0.5, 0.1], [0.3, 0.5, 0.4]], names=("a", "flat", "c"))
    with pytest.warns(UserWarning, match="flat"):
        res = confidence_correlation(t)
    assert res.zero_variance == (1,)
    assert res.matrix[0, 1] == 0.0
    assert res.matrix[1, 2] == 0.0
    assert res.matrix[1, 1] == 1.0
    assert res.matrix[0, 2] != 0.0


def test_correlation_clean_table_emits_no_warning():
    t = table([[0.1, 0.9], [0.5, 0.2], [0.9, 0.4]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = confidence_correlation(t)
    assert res.zero_variance == ()


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(3, 12))
def test_correlation_matrix_invariants(seed, n, rows):
    rng = np.random.default_rng(seed)
    vals = rng.random((rows, n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r = confidence_correlation(table(vals)).matrix
    assert r.shape == (n, n)
    assert np.array_equal(r, r.T)
    assert np.array_equal(np.diag(r), np.ones(n))
    assert (r >= -1.0).all() and (r <= 1.0).all()


def test_within_group_correlation_beats_cross_group():
    # two latent factors drive three keypoints each; confidence columns in
    # the same block should co-move far more than columns across blocks
    rng = np.random.default_rng(42)
    rows = 200
    z = rng.random((rows, 2))
    cols = []
    for k in range(6):
        base = z[:, k // 3]
        cols.append(0.25 + 0.5 * base + 0.02 * rng.standard_normal(rows))
    vals = np.clip(np.stack(cols, axis=1), 0.0, 1.0)
    r = confidence_correlation(table(vals)).matrix
    within = [r[i, j] for i in range(6) for j in range(i + 1, 6) if i // 3 == j // 3]
    cross = [r[i, j] for i in range(6) for j in range(i + 1, 6) if i // 3 != j // 3]
    assert np.mean(within) > 0.9
    assert np.mean(within) > np.mean(cross) + 0.5


# --- heatmap rendering -------------------------------------------------------


def test_heatmap_identity_hits_ramp_ends():
    svg = render_heatmap(np.eye(3), ("a", "b", "c"))
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert "<desc>linear ramp #f7fbff at 0 to #08306b at 1</desc>" in svg
    assert svg.count('fill="#08306b"') == 3
    assert svg.count('fill="#f7fbff"') == 6
    # dark diagonal cells switch to white ink
    assert svg.count('fill="#ffffff">1</text>') == 3


def test_heatmap_constant_matrix_renders_ramp_top():
    svg = render_heatmap(np.full((2, 2), 0.3), ("x", "y"))
    assert svg.count('fill="#08306b"') == 4
    assert "at 0.3 to" in svg and "at 0.3</desc>" in svg


def test_heatmap_single_cell():
    svg = render_heatmap([[2.5]], ["only"])
    assert svg.count("<rect") == 1
    assert ">2.5</text>" in svg


def test_heatmap_is_byte_deterministic():
    m = np.random.default_rng(3).random((4, 4))
    labels = ("nose", "l-eye", "r-eye", "l-ear")
    assert render_heatmap(m, labels) == render_heatmap(m, labels)


def test_heatmap_escapes_labels():
    svg = render_heatmap(np.eye(2), ("a<b", '"q"'))
    assert "a&lt;b" in svg
    assert "&quot;q&quot;" in svg
    assert "a<b" not in svg


def test_heatmap_rejects_bad_input():
    with pytest.raises(DataError):
        render_heatmap(np.zeros((2, 3)), ("a", "b"))
    with pytest.raises(DataError):
        render_heatmap(np.array([[math.nan]]), ("a",))
    with pytest.raises(DataError):
        render_heatmap(np.eye(2), ("a",))
    with pytest.raises(DataError):
        render_heatmap([[1e308, 0.0], [0.0, -1e308]], ("a", "b"))  # span overflows


def reference_heatmap(matrix, labels) -> str:
    """render_heatmap as it was written first, one cell and one colour at a
    time: the vectorized renderer must produce the same bytes."""
    arr = np.asarray(matrix, dtype=np.float64)
    labels = [str(x) for x in labels]

    def ramp_color(t):
        channels = (
            int(math.floor(lo + (hi - lo) * t + 0.5)) for lo, hi in zip(RAMP_LOW, RAMP_HIGH)
        )
        return "#%02x%02x%02x" % tuple(channels)

    n = len(labels)
    vmin = float(arr.min())
    vmax = float(arr.max())
    span = vmax - vmin
    cell = 44
    pad = 8
    label_px = max(len(s) for s in labels) * 7 + 2 * pad
    width = label_px + n * cell + pad
    height = label_px + n * cell + pad
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<desc>linear ramp {ramp_color(0.0)} at {vmin:.10g} to "
        f"{ramp_color(1.0)} at {vmax:.10g}</desc>",
        '<g font-family="monospace" font-size="11">',
    ]
    for j, name in enumerate(labels):
        x = label_px + j * cell + cell // 2
        out.append(
            f'<text x="{x}" y="{label_px - pad}" text-anchor="start" '
            f'transform="rotate(-90 {x} {label_px - pad})">{_esc(name)}</text>'
        )
    for i, name in enumerate(labels):
        y = label_px + i * cell + cell // 2 + 4
        out.append(f'<text x="{label_px - pad}" y="{y}" text-anchor="end">{_esc(name)}</text>')
    for i in range(n):
        for j in range(n):
            v = float(arr[i, j])
            t = 1.0 if span == 0.0 else (v - vmin) / span
            x = label_px + j * cell
            y = label_px + i * cell
            out.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{ramp_color(t)}" stroke="#ffffff" stroke-width="1"/>'
            )
            ink = "#ffffff" if t > 0.55 else "#000000"
            out.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                f'text-anchor="middle" fill="{ink}">{v:.3g}</text>'
            )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-9, 1e6]),
    constant=st.one_of(st.none(), _FINITE),
)
def test_heatmap_matches_the_per_cell_reference(n, seed, scale, constant):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) * scale if constant is None else np.full((n, n), constant)
    if n > 1 and constant is None:
        m[0, 1] = m[1, 0] = -0.0  # signed zeros and repeated values
    labels = [f"k{i}" for i in range(n)]
    assert render_heatmap(m, labels) == reference_heatmap(m, labels)


@pytest.mark.parametrize(
    "m",
    [
        np.random.default_rng(133).random((133, 133)),  # the wholebody size
        np.linspace(0.0, 1.0, 400).reshape(20, 20),  # every ramp step
        np.array([[0.0, 0.55], [1.0, 0.3]]),  # a cell exactly at the ink threshold
        # half steps over a span of 239 (the red channel's): channel values
        # that end in exactly .5, where rounding ties
        np.concatenate([np.arange(0.0, 239.5, 0.5), np.full(5, 239.0)]).reshape(22, 22),
    ],
    ids=["wholebody", "grid", "ink-threshold", "rounding-ties"],
)
def test_heatmap_matches_the_per_cell_reference_on_fixed_matrices(m):
    labels = [f"kp{i}" for i in range(len(m))]
    assert render_heatmap(m, labels) == reference_heatmap(m, labels)
