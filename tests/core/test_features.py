"""Unit tests for the fourteen Haralick features."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import incremental_scan
from repro.core.features import (
    HARALICK_FEATURES,
    PAPER_FEATURES,
    feature_index,
    haralick_feature_vector,
    haralick_features,
)
from repro.core.roi import ROISpec


def naive_features(counts):
    """Scalar-loop reference implementation of all 14 features."""
    counts = np.asarray(counts, dtype=float)
    g = counts.shape[0]
    total = counts.sum()
    p = counts / total
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mu_x = sum(i * px[i] for i in range(g))
    mu_y = sum(j * py[j] for j in range(g))
    var_x = sum((i - mu_x) ** 2 * px[i] for i in range(g))
    var_y = sum((j - mu_y) ** 2 * py[j] for j in range(g))
    p_sum = np.zeros(2 * g - 1)
    p_diff = np.zeros(g)
    for i in range(g):
        for j in range(g):
            p_sum[i + j] += p[i, j]
            p_diff[abs(i - j)] += p[i, j]

    def ent(arr):
        return -sum(v * np.log(v) for v in np.ravel(arr) if v > 0)

    out = {}
    out["asm"] = (p**2).sum()
    out["contrast"] = sum(k**2 * p_diff[k] for k in range(g))
    num = sum(i * j * p[i, j] for i in range(g) for j in range(g)) - mu_x * mu_y
    den = np.sqrt(var_x * var_y)
    out["correlation"] = num / den if den > 0 else 0.0
    out["sum_of_squares"] = sum(
        (i - mu_x) ** 2 * p[i, j] for i in range(g) for j in range(g)
    )
    out["idm"] = sum(
        p[i, j] / (1 + (i - j) ** 2) for i in range(g) for j in range(g)
    )
    f6 = sum(k * p_sum[k] for k in range(2 * g - 1))
    out["sum_average"] = f6
    out["sum_variance"] = sum((k - f6) ** 2 * p_sum[k] for k in range(2 * g - 1))
    out["sum_entropy"] = ent(p_sum)
    out["entropy"] = ent(p)
    mean_d = sum(k * p_diff[k] for k in range(g))
    out["difference_variance"] = sum((k - mean_d) ** 2 * p_diff[k] for k in range(g))
    out["difference_entropy"] = ent(p_diff)
    hxy = out["entropy"]
    hxy1 = -sum(
        p[i, j] * np.log(px[i] * py[j])
        for i in range(g)
        for j in range(g)
        if p[i, j] > 0 and px[i] * py[j] > 0
    )
    hxy2 = ent(np.outer(px, py))
    hx, hy = ent(px), ent(py)
    hmax = max(hx, hy)
    out["imc1"] = (hxy - hxy1) / hmax if hmax > 0 else 0.0
    out["imc2"] = np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * (hxy2 - hxy))))
    return out


def random_symmetric_counts(rng, g, scale=10):
    m = rng.integers(0, scale, size=(g, g))
    return m + m.T


class TestAgainstNaive:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("g", [4, 8, 16])
    def test_all_but_mcc_match_naive(self, seed, g):
        rng = np.random.default_rng(seed)
        counts = random_symmetric_counts(rng, g)
        want = naive_features(counts)
        got = haralick_features(counts)
        for name in HARALICK_FEATURES:
            if name == "mcc":
                continue
            assert got[name] == pytest.approx(want[name], abs=1e-10), name


class TestPaperConfigScan:
    def test_incremental_scan_matches_naive_at_g32(self):
        """Real scan output at the paper's G=32, 5x5x5x3 ROI, 40 directions."""
        rng = np.random.default_rng(21)
        volume = rng.integers(0, 32, size=(6, 6, 6, 4))
        mats = np.concatenate(
            [m for _s, m in incremental_scan(volume, ROISpec((5, 5, 5, 3)), 32)]
        )
        assert mats.dtype == np.int64 and mats.shape[1:] == (32, 32)
        got = haralick_features(mats[:6])
        for k in range(6):
            want = naive_features(mats[k])
            for name in HARALICK_FEATURES:
                if name == "mcc":
                    continue
                assert got[name][k] == pytest.approx(want[name], abs=1e-10), name


class TestKnownValues:
    def test_uniform_matrix(self):
        g = 8
        p = np.ones((g, g))
        f = haralick_features(p, ["asm", "entropy", "correlation"])
        assert f["asm"] == pytest.approx(1.0 / g**2)
        assert f["entropy"] == pytest.approx(2 * np.log(g))
        # Independent marginals -> zero correlation.
        assert f["correlation"] == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_matrix(self):
        g = 8
        m = np.eye(g)
        f = haralick_features(m, ["contrast", "idm", "correlation"])
        assert f["contrast"] == pytest.approx(0.0)
        assert f["idm"] == pytest.approx(1.0)
        assert f["correlation"] == pytest.approx(1.0)

    def test_single_cell_degenerate(self):
        m = np.zeros((4, 4))
        m[2, 2] = 5
        f = haralick_features(m)
        assert f["asm"] == pytest.approx(1.0)
        assert f["entropy"] == pytest.approx(0.0)
        assert f["correlation"] == pytest.approx(0.0)  # zero variance
        assert f["mcc"] == pytest.approx(0.0)

    def test_empty_matrix_gives_zeros(self):
        f = haralick_features(np.zeros((8, 8)))
        for name in HARALICK_FEATURES:
            assert f[name] == 0.0

    def test_mcc_perfect_association(self):
        # A permutation-structured p gives MCC = 1.
        g = 4
        m = np.zeros((g, g))
        for i in range(g):
            m[i, (i + 1) % g] = 1.0
        m = m + m.T
        f = haralick_features(m, ["mcc"])
        assert f["mcc"] == pytest.approx(1.0, abs=1e-8)

    def test_mcc_independent(self):
        f = haralick_features(np.ones((6, 6)), ["mcc"])
        assert f["mcc"] == pytest.approx(0.0, abs=1e-8)


class TestBatching:
    def test_batch_matches_individual(self):
        rng = np.random.default_rng(11)
        mats = np.stack([random_symmetric_counts(rng, 8) for _ in range(5)])
        batched = haralick_features(mats)
        for k in range(5):
            single = haralick_features(mats[k])
            for name in HARALICK_FEATURES:
                assert batched[name][k] == single[name], name

    def test_empty_batch(self):
        f = haralick_features(np.zeros((0, 8, 8), dtype=np.int64))
        assert all(f[name].shape == (0,) for name in HARALICK_FEATURES)

    def test_leading_shape_preserved(self):
        mats = np.ones((2, 3, 8, 8))
        f = haralick_features(mats, ["asm"])
        assert f["asm"].shape == (2, 3)

    def test_feature_vector_order(self):
        rng = np.random.default_rng(5)
        m = random_symmetric_counts(rng, 8)
        vec = haralick_feature_vector(m, ["contrast", "asm"])
        d = haralick_features(m, ["contrast", "asm"])
        assert vec[0] == d["contrast"] and vec[1] == d["asm"]

    def test_full_vector_shape(self):
        rng = np.random.default_rng(6)
        mats = np.stack([random_symmetric_counts(rng, 4) for _ in range(3)])
        assert haralick_feature_vector(mats).shape == (3, 14)


class TestValidation:
    def test_unknown_feature(self):
        with pytest.raises(KeyError):
            haralick_features(np.ones((4, 4)), ["bogus"])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            haralick_features(np.ones((4, 5)))

    def test_feature_index(self):
        assert feature_index("asm") == 0
        assert feature_index("mcc") == 13
        assert len(HARALICK_FEATURES) == 14
        assert set(PAPER_FEATURES) <= set(HARALICK_FEATURES)

    def test_scaling_invariance(self):
        # Counts vs normalized probabilities give identical features.
        rng = np.random.default_rng(9)
        m = random_symmetric_counts(rng, 8)
        a = haralick_features(m)
        b = haralick_features(m / m.sum())
        for name in HARALICK_FEATURES:
            assert a[name] == pytest.approx(b[name]), name


@st.composite
def count_batches(draw):
    """Random int64 count stacks plus a split of them into sub-batches."""
    g = draw(st.sampled_from([2, 8, 32]))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = draw(st.sampled_from([2, 50, 100000]))
    density = draw(st.sampled_from([0.05, 0.5, 1.0]))
    counts = rng.integers(0, scale, size=(n, g, g)) * (rng.random((n, g, g)) < density)
    counts[rng.random(n) < 0.1] = 0  # some empty matrices
    sizes = draw(st.lists(st.integers(1, n), min_size=1, max_size=8))
    sizes.append(1)  # a single-matrix sub-batch is always in the mix
    return counts.astype(np.int64), sizes


class TestBatchInvariance:
    @given(count_batches())
    @settings(max_examples=40, deadline=None)
    def test_every_split_bit_identical(self, case):
        """A matrix's features never depend on the batch it arrives in."""
        counts, sizes = case
        whole = haralick_features(counts)
        lo, k = 0, 0
        while lo < len(counts):
            hi = min(len(counts), lo + sizes[k % len(sizes)])
            part = haralick_features(counts[lo:hi])
            for name in HARALICK_FEATURES:
                assert np.array_equal(part[name], whole[name][lo:hi]), name
            lo, k = hi, k + 1


class TestMemory:
    def test_paper_features_make_no_float_copy(self):
        """A 3,136-ROI G=32 packet: temporaries < 1/4 of the packet itself.

        A float64 ``(n, G, G)`` copy of the counts alone would be the
        packet's full size.
        """
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 400, size=(3136, 32, 32)) * (
            rng.random((3136, 32, 32)) < 0.05
        )
        haralick_features(counts, PAPER_FEATURES)  # warm up
        tracemalloc.start()
        try:
            haralick_features(counts, PAPER_FEATURES)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < counts.nbytes / 4, (peak, counts.nbytes)
