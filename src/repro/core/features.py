"""The fourteen Haralick textural features (Haralick et al., 1973).

All features are defined on the normalized co-occurrence probability
matrix ``p(i, j) = counts(i, j) / counts.sum()``, but are computed from
exact integer reductions of the counts, without forming ``p``.  The
implementation is fully vectorized over batches: input of shape
``(..., G, G)`` produces one value of shape ``(...,)`` per feature.

Feature names (paper numbering f1..f14):

==== ======================= =====================================
 f1  ``asm``                 angular second moment (energy)
 f2  ``contrast``            contrast
 f3  ``correlation``         correlation
 f4  ``sum_of_squares``      sum of squares: variance
 f5  ``idm``                 inverse difference moment (homogeneity)
 f6  ``sum_average``         sum average
 f7  ``sum_variance``        sum variance
 f8  ``sum_entropy``         sum entropy
 f9  ``entropy``             entropy
 f10 ``difference_variance`` difference variance
 f11 ``difference_entropy``  difference entropy
 f12 ``imc1``                information measure of correlation 1
 f13 ``imc2``                information measure of correlation 2
 f14 ``mcc``                 maximal correlation coefficient
==== ======================= =====================================

The paper's experiments compute the four most expensive of these: ASM,
Correlation, Sum of Squares and Inverse Difference Moment (Section 5.1),
exported as ``PAPER_FEATURES``.

Conventions: entropies use the natural logarithm with ``0 log 0 = 0``;
degenerate statistics (zero variance, empty matrix) yield 0.0.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "HARALICK_FEATURES",
    "PAPER_FEATURES",
    "haralick_features",
    "haralick_feature_vector",
    "feature_index",
]

HARALICK_FEATURES: Tuple[str, ...] = (
    "asm",
    "contrast",
    "correlation",
    "sum_of_squares",
    "idm",
    "sum_average",
    "sum_variance",
    "sum_entropy",
    "entropy",
    "difference_variance",
    "difference_entropy",
    "imc1",
    "imc2",
    "mcc",
)

#: The four parameters used in the paper's evaluation (Section 5.1).
PAPER_FEATURES: Tuple[str, ...] = ("asm", "correlation", "sum_of_squares", "idm")


def feature_index(name: str) -> int:
    """Position of a feature name in ``HARALICK_FEATURES`` (f``i+1``)."""
    try:
        return HARALICK_FEATURES.index(name)
    except ValueError:
        raise KeyError(
            f"unknown Haralick feature {name!r}; valid: {HARALICK_FEATURES}"
        ) from None


def _row_entropy(m: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``-sum_k q ln q`` per row of ``q = m / totals[:, None]`` (``0 ln 0 = 0``).

    ``m`` is a non-negative ``(n, K)`` array.  Only non-zero cells are
    visited (paper Section 4.4.1), and ``bincount`` adds each row's
    terms in cell order, so a row's value does not depend on the other
    rows passed with it.
    """
    n, k = m.shape
    nz = np.flatnonzero(m)
    rows = nz // k
    q = m.reshape(-1)[nz] / totals[rows]
    return -np.bincount(rows, weights=q * np.log(q), minlength=n)


def _sum_diff_marginals(acc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Un-normalized ``p_{x+y}`` ``(n, 2G-1)`` and ``p_{x-y}`` ``(n, G)``.

    Scattered from the non-zero cells only; with integer counts every
    entry is an exact integer sum (held in float64, exact below 2**53).
    """
    n, levels, _ = acc.shape
    nz = np.flatnonzero(acc)
    rows, cell = np.divmod(nz, levels * levels)
    i, j = np.divmod(cell, levels)
    c = acc.reshape(-1)[nz]
    k_sum = 2 * levels - 1
    p_sum = np.bincount(rows * k_sum + i + j, weights=c, minlength=n * k_sum)
    p_diff = np.bincount(rows * levels + np.abs(i - j), weights=c, minlength=n * levels)
    return p_sum.reshape(n, k_sum), p_diff.reshape(n, levels)


def _mcc(p: np.ndarray, px: np.ndarray, py: np.ndarray) -> float:
    """Maximal correlation coefficient of a single probability matrix.

    sqrt of the second-largest eigenvalue magnitude of
    ``Q(i, j) = sum_k p(i, k) p(j, k) / (px(i) py(k))``, computed on the
    submatrix of levels with non-zero marginals.
    """
    keep = (px > 0) & (py > 0)
    if keep.sum() < 2:
        return 0.0
    psub = p[np.ix_(keep, keep)]
    pxs = px[keep]
    pys = py[keep]
    a = psub / pxs[:, None]
    b = psub / pys[None, :]
    q = np.einsum("ik,jk->ij", a, b)
    eig = np.abs(np.linalg.eigvals(q))
    eig.sort()
    second = eig[-2]
    return float(np.sqrt(max(0.0, min(second, 1.0))))


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` with 0.0 where ``den`` is not positive."""
    ok = den > 0
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


def haralick_features(
    matrices: np.ndarray,
    features: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Compute Haralick features of a batch of co-occurrence matrices.

    Parameters
    ----------
    matrices:
        Count (or probability) matrices of shape ``(..., G, G)``.
    features:
        Feature names to compute; defaults to all fourteen.  Computing a
        subset skips unrelated work (e.g. the eigendecompositions behind
        ``mcc``).

    Returns
    -------
    dict mapping feature name -> array of shape ``matrices.shape[:-2]``.

    Every statistic is a reduction of the raw counts ``c`` taken per
    matrix: the total ``T``, the marginals, ``S_x = sum c i``,
    ``S_xx = sum c i^2`` (and the ``y`` forms), ``S_xy = sum c i j``,
    ``sum c^2`` and ``sum c |i - j|``.  Integer input keeps them in
    int64, where sums are exact in any order, so a matrix's features do
    not depend on the batch it arrives in.  Floating point enters only
    in the final per-matrix arithmetic, e.g. ``var_x = (T S_xx - S_x^2)
    / T^2``, and in the non-integer weights (IDM, the logarithms), each
    a reduction over one matrix's own cells.  No float ``(n, G, G)``
    copy is made and no BLAS routine is called (see docs/kernels.md,
    "Feature layer").
    """
    wanted = tuple(features) if features is not None else HARALICK_FEATURES
    for name in wanted:
        feature_index(name)  # validates

    acc = np.asarray(matrices)
    if acc.ndim < 2 or acc.shape[-1] != acc.shape[-2]:
        raise ValueError(f"expected (..., G, G) matrices, got {acc.shape}")
    acc = acc.astype(np.int64 if acc.dtype.kind in "biu" else np.float64, copy=False)
    levels = acc.shape[-1]
    lead = acc.shape[:-2]
    acc = acc.reshape(-1, levels, levels)
    nmat = acc.shape[0]
    need = set(wanted)

    lev = np.arange(levels, dtype=acc.dtype)
    px = np.einsum("nij->ni", acc)
    py = np.einsum("nij->nj", acc)
    tot = px.sum(axis=1)
    sx = np.einsum("ni,i->n", px, lev)
    sy = np.einsum("nj,j->n", py, lev)
    sxx = np.einsum("ni,i->n", px, lev * lev)
    syy = np.einsum("nj,j->n", py, lev * lev)
    sxy = np.einsum("ni,i->n", np.einsum("nij,j->ni", acc, lev), lev)

    # Float arithmetic from here on is per matrix.
    t = np.where(tot > 0, tot, 1).astype(np.float64)
    t2 = t * t
    fx, fy = sx.astype(np.float64), sy.astype(np.float64)
    var_x = np.maximum(t * sxx - fx * fx, 0.0)  # T^2 var_x
    out: Dict[str, np.ndarray] = {}

    if "asm" in need:
        out["asm"] = np.einsum("nij,nij->n", acc, acc) / t2
    if "correlation" in need:
        var_y = np.maximum(t * syy - fy * fy, 0.0)
        out["correlation"] = _ratio(t * sxy - fx * fy, np.sqrt(var_x * var_y))
    if "sum_of_squares" in need:
        # Variance about the mean of the x-marginal (Haralick f4).
        out["sum_of_squares"] = var_x / t2
    if "idm" in need:
        d = lev[:, None] - lev[None, :]
        out["idm"] = np.einsum("nij,ij->n", acc, 1.0 / (1.0 + d * d)) / t
    # sum c (i - j)^2 and sum c (i + j)^2, exact for integer counts.
    d2 = sxx + syy - 2 * sxy
    if "contrast" in need:
        out["contrast"] = d2 / t
    if "sum_average" in need:
        out["sum_average"] = (fx + fy) / t
    if "sum_variance" in need:
        s = fx + fy
        out["sum_variance"] = (t * (sxx + syy + 2 * sxy) - s * s) / t2
    if "difference_variance" in need:
        absd = np.abs(lev[:, None] - lev[None, :])
        m1 = np.einsum("nij,ij->n", acc, absd).astype(np.float64)
        out["difference_variance"] = (t * d2 - m1 * m1) / t2
    if {"sum_entropy", "difference_entropy"} & need:
        p_sum, p_diff = _sum_diff_marginals(acc)
        out["sum_entropy"] = _row_entropy(p_sum, t)
        out["difference_entropy"] = _row_entropy(p_diff, t)
    if {"entropy", "imc1", "imc2"} & need:
        hxy = _row_entropy(acc.reshape(nmat, levels * levels), t)
        out["entropy"] = hxy
        # With p(i, j) > 0 only where px(i) py(j) > 0, both HXY1 and
        # HXY2 of Haralick's f12/f13 reduce to HX + HY.
        hx = _row_entropy(px, t)
        hy = _row_entropy(py, t)
        out["imc1"] = _ratio(hxy - (hx + hy), np.maximum(hx, hy))
        out["imc2"] = np.sqrt(np.clip(1.0 - np.exp(-2.0 * (hx + hy - hxy)), 0.0, 1.0))
    if "mcc" in need:
        out["mcc"] = np.array(
            [_mcc(acc[k] / t[k], px[k] / t[k], py[k] / t[k]) for k in range(nmat)],
            dtype=np.float64,
        )

    empty = tot == 0
    return {name: np.where(empty, 0.0, out[name]).reshape(lead) for name in wanted}


def haralick_feature_vector(
    matrices: np.ndarray, features: Optional[Sequence[str]] = None
) -> np.ndarray:
    """Features stacked as an array of shape ``(..., n_features)``.

    Column order follows the ``features`` argument (default: all fourteen
    in ``HARALICK_FEATURES`` order).
    """
    wanted = tuple(features) if features is not None else HARALICK_FEATURES
    vals = haralick_features(matrices, wanted)
    return np.stack([vals[name] for name in wanted], axis=-1)
