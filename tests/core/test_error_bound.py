"""The per-layer error bound of a quantized tensor, and of the lookup kernel.

For a tensor quantized by a centroid method, outliers decode exactly and
every G-group weight decodes to its nearest centroid.  A G-group weight
between two adjacent centroids is therefore off by at most half their gap,
and one outside the table by its distance to the end centroid, so

    max_err = max(half the widest adjacent gap, c_min - g_min, g_max - c_max)

over the centroids ``c`` and the G-group weights ``g``.  The last two terms
are not rounding slack: the G group reaches past the extreme centroids, and
on gobo and kmeans tables those tails dominate (3-bit gobo on a seed-0
256x256 N(0, 0.04) tensor is off by up to 0.065 against a half-gap of
0.016).  Every entry of ``x @ W.T`` then moves by at most
``||x||_1 * max_err``.

Q-BERT's ``qbert-group`` joins one dictionary per contiguous group into a
single table, and a weight's nearest centroid in that table may belong to
another group.  Its bound is therefore taken per group: each weight decodes
to the nearest centroid of its own group's dictionary, and ``x @ W.T``
moves by at most ``||x||_1`` times the largest per-group ``max_err``.

An embedding lookup on a served model runs :meth:`LookupKernel.gather`,
whose rows equal the decoded table's bit for bit, so each gathered row
keeps the per-weight bound unchanged.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.quantizer import quantize_tensor
from repro.kernels.lookup import LookupKernel

METHODS = ("gobo", "kmeans", "linear", "q8bert-grid")
GROUP_COUNTS = (1, 2, 4, 7, 128)
EPS = np.finfo(np.float64).eps


def _weights(seed: int, rows: int, cols: int) -> np.ndarray:
    """Heavy-tailed weights, so every tensor has outliers and wide tails."""
    rng = np.random.default_rng(seed)
    return rng.standard_t(5, size=(rows, cols)) * 0.04


def max_err(tensor, weights: np.ndarray) -> float:
    """The bound in the module docstring for ``tensor`` quantized from ``weights``."""
    inlier = np.ones(weights.size, dtype=bool)
    inlier[tensor.outlier_positions] = False
    return _table_err(tensor.centroids, weights.ravel()[inlier])


def _table_err(centroids: np.ndarray, group: np.ndarray) -> float:
    centroids = np.sort(np.asarray(centroids, dtype=np.float64))
    half_gap = np.diff(centroids).max(initial=0.0) / 2.0
    return max(half_gap, centroids[0] - group.min(), group.max() - centroids[-1])


def _qbert_groups(tensor, bits: int):
    """``(lo, hi, dictionary)`` per group of a ``qbert-group`` tensor.

    Group ``g`` owns the ``g``-th block of ``2^bits`` entries of the joined
    table and the ``g``-th of the contiguous bounds the method splits at.
    """
    k = 1 << bits
    groups = tensor.centroids.size // k
    size = int(np.prod(tensor.shape))
    bounds = np.linspace(0, size, groups + 1).round().astype(np.int64)
    return [
        (bounds[g], bounds[g + 1], tensor.centroids[g * k:(g + 1) * k])
        for g in range(groups)
    ]


cases = st.tuples(
    st.sampled_from(METHODS),
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(8, 48),
    st.integers(8, 48),
)


@given(cases)
@settings(max_examples=60, deadline=None)
def test_decode_is_exact_or_nearest_centroid(case):
    method, seed, bits, rows, cols = case
    weights = _weights(seed, rows, cols)
    tensor, _ = quantize_tensor(weights, bits=bits, method=method)
    decoded = tensor.dequantize(dtype=np.float64).ravel()
    flat = weights.ravel()

    outliers = tensor.outlier_positions
    np.testing.assert_array_equal(decoded[outliers], flat[outliers])

    inlier = np.ones(flat.size, dtype=bool)
    inlier[outliers] = False
    group, got = flat[inlier], decoded[inlier]
    centroids = np.asarray(tensor.centroids, dtype=np.float64)
    nearest = np.abs(group[:, None] - centroids[None, :]).min(axis=1)
    # A weight on a midpoint may go either way; the rounding of the
    # midpoint itself is the only slack.
    assert np.all(np.abs(group - got) <= nearest + 4 * EPS * np.abs(group).max())

    bound = max_err(tensor, weights)
    assert np.abs(group - got).max() <= bound * (1 + 4 * EPS)


@given(cases, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_lookup_kernel_within_l1_bound(case, batch):
    method, seed, bits, rows, cols = case
    weights = _weights(seed, rows, cols)
    tensor, _ = quantize_tensor(weights, bits=bits, method=method)
    x = np.random.default_rng(seed ^ 0x5EED).normal(size=(batch, cols))

    exact = x @ weights.T
    got = LookupKernel(tensor).matmul(x)
    bound = np.abs(x).sum(axis=1, keepdims=True) * max_err(tensor, weights)
    # Each product sums ``cols`` terms; both sides carry the standard
    # gamma_n summation error of their own dot products.
    decoded = tensor.dequantize(dtype=np.float64)
    gamma = 2 * cols * EPS
    rounding = gamma * (np.abs(x) @ np.abs(weights).T + np.abs(x) @ np.abs(decoded).T)
    assert np.all(np.abs(exact - got) <= bound + rounding)


def test_tails_dominate_the_half_gap():
    """The docstring's example: the half-gap alone is not a bound."""
    weights = np.random.default_rng(0).normal(0.0, 0.04, size=(256, 256))
    tensor, _ = quantize_tensor(weights, bits=3, method="gobo")
    decoded = tensor.dequantize(dtype=np.float64)
    observed = np.abs(weights - decoded).max()
    half_gap = np.diff(np.sort(tensor.centroids)).max() / 2.0
    assert observed > 2 * half_gap
    assert observed <= max_err(tensor, weights) * (1 + 4 * EPS)


group_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(8, 48),
    st.integers(8, 48),
    st.sampled_from(GROUP_COUNTS),
)


def _qbert_tensor(case):
    seed, bits, rows, cols, num_groups = case
    weights = _weights(seed, rows, cols)
    tensor, _ = quantize_tensor(
        weights, bits=bits, method="qbert-group", aux=np.array(num_groups)
    )
    return weights, tensor, _qbert_groups(tensor, bits)


@given(group_cases)
@settings(max_examples=60, deadline=None)
def test_qbert_decodes_to_its_own_groups_nearest_centroid(case):
    weights, tensor, groups = _qbert_tensor(case)
    flat = weights.ravel()
    decoded = tensor.dequantize(dtype=np.float64).ravel()
    assert tensor.outlier_positions.size == 0
    assert len(groups) == min(case[-1], flat.size)
    assert groups[-1][1] == flat.size
    for lo, hi, dictionary in groups:
        group, got = flat[lo:hi], decoded[lo:hi]
        assert np.isin(got, dictionary).all()
        nearest = np.abs(group[:, None] - dictionary[None, :]).min(axis=1)
        assert np.all(np.abs(group - got) <= nearest + 4 * EPS * np.abs(group).max())
        assert np.abs(group - got).max() <= _table_err(dictionary, group) * (1 + 4 * EPS)


@given(group_cases, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_qbert_lookup_kernel_within_per_group_l1_bound(case, batch):
    weights, tensor, groups = _qbert_tensor(case)
    flat = weights.ravel()
    cols = weights.shape[1]
    x = np.random.default_rng(case[0] ^ 0x5EED).normal(size=(batch, cols))

    exact = x @ weights.T
    got = LookupKernel(tensor).matmul(x)
    worst = max(_table_err(dictionary, flat[lo:hi]) for lo, hi, dictionary in groups)
    bound = np.abs(x).sum(axis=1, keepdims=True) * worst
    decoded = tensor.dequantize(dtype=np.float64)
    gamma = 2 * cols * EPS
    rounding = gamma * (np.abs(x) @ np.abs(weights).T + np.abs(x) @ np.abs(decoded).T)
    assert np.all(np.abs(exact - got) <= bound + rounding)


gather_cases = st.tuples(
    st.sampled_from((*METHODS, "qbert-group")),
    st.integers(0, 2**32 - 1),
    st.integers(2, 8),
    st.integers(2, 128),
    st.integers(2, 96),
)


@given(gather_cases, st.integers(1, 4), st.integers(1, 6))
# Padded strides: four 2-bit codes per index on 95-wide rows, two 3-bit
# codes per index on 63-wide rows.
@example(("gobo", 0, 2, 128, 95), 3, 5)
@example(("kmeans", 1, 3, 64, 63), 2, 2)
@settings(max_examples=80, deadline=None)
def test_gathered_rows_equal_the_decoded_rows(case, id_rows, id_cols):
    method, seed, bits, rows, cols = case
    weights = _weights(seed, rows, cols)
    # Outliers in the first and last slot of one row.
    row = seed % rows
    weights[row, 0], weights[row, -1] = 1.0, -1.0
    aux = np.array(1 + seed % 7) if method == "qbert-group" else None
    tensor, _ = quantize_tensor(weights, bits=bits, method=method, aux=aux)
    planted = (row * cols, row * cols + cols - 1)
    outliers = set(tensor.outlier_positions.tolist())
    if method in ("gobo", "kmeans", "linear"):
        # Eq. 1 fits the Gaussian to every weight, the planted ones included,
        # so in a small tensor a planted value can score above -4 and stay in
        # the G group (+1.0 scores -3.63 in the 4x4 seed-140440478 tensor).
        flat = weights.ravel()
        z = (flat - flat.mean()) / flat.std()
        log_pdf = -0.5 * (z * z + np.log(2 * np.pi)) - np.log(flat.std())
        assert {p for p in planted if log_pdf[p] < -4 - 1e-9} <= outliers
        assert not {p for p in planted if log_pdf[p] > -4 + 1e-9} & outliers
    else:
        assert not outliers
    # Drawn with replacement from a few rows: duplicates, unsorted, 2-D.
    ids = np.random.default_rng(seed ^ 0x1D5).integers(0, rows, size=(id_rows, id_cols))
    ids[0, 0] = row
    got = LookupKernel(tensor).gather(ids)
    np.testing.assert_array_equal(got, tensor.dequantize(dtype=np.float64)[ids])
