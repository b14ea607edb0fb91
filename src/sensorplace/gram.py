"""Column-blocked Grams and norms, the small decompositions and their cut.

The reductions of an N x n node-space matrix to a small Gram or to its
per-column norms run here, COLUMN_BLOCK columns at a time, so no scaled
n-column copy is allocated.  Every small symmetric eigendecomposition
goes through ``sym_eigh``, every small SVD through ``thin_svd``, and
every truncation of their eigenvalues or singular values through
``cut_mask``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericalFailure

__all__ = ["column_gram", "column_sq_norms", "sym_eigh", "thin_svd", "cut_mask"]

# Columns per block of the column passes, and of the interior-point
# QP's elementwise phases (``qp_solver``): 8192 doubles are 64 KiB, so the
# few rows a phase touches stay in a 2 MiB L2 cache between its steps.
COLUMN_BLOCK = 8192

# Relative cuts for ``cut_mask``.  The posterior spectrum drops eigenvalues
# at or below 1e-12 of its largest, which keeps lam/(alpha + lam)
# well-defined; the QP's Hessian core, PSD but usually rank deficient,
# drops those at or below 1e-10.  The input Gram of N_in rows drops those
# at or below N_in * eps of its largest, round-off of a rank-deficient
# Gram, so its cut is GRAM_CUT_PER_ROW times its size.  The surrogate's
# input factor drops singular values at or below FACTOR_CUT of its
# largest; cut on the singular values themselves, since their squares,
# the eigenvalues of its Gram, lose everything below about 3e-8 of it.
SPECTRUM_CUT = 1e-12
HESSIAN_CUT = 1e-10
GRAM_CUT_PER_ROW = np.finfo(float).eps
FACTOR_CUT = 1e-15


def column_gram(mat: np.ndarray, weights: np.ndarray | None = None,
                left: np.ndarray | None = None) -> np.ndarray:
    """S diag(weights) S^T for S = left @ mat (S = mat without ``left``),
    summed over COLUMN_BLOCK-column blocks as (S_b diag(w_b)) S_b^T, so
    neither left @ mat nor a weighted copy of ``mat`` is allocated;
    symmetric to the last bit."""
    n = mat.shape[1]
    size = mat.shape[0] if left is None else left.shape[0]
    gram = np.zeros((size, size))
    for j in range(0, n, COLUMN_BLOCK):
        block = mat[:, j : j + COLUMN_BLOCK]
        if left is not None:
            block = left @ block
        if weights is None:
            gram += block @ block.T
        else:
            gram += (block * weights[j : j + COLUMN_BLOCK]) @ block.T
    return 0.5 * (gram + gram.T)


def column_sq_norms(left: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """||left @ mat[:, j]||^2 for every column j, over COLUMN_BLOCK-column blocks."""
    n = mat.shape[1]
    out = np.empty(n)
    for j in range(0, n, COLUMN_BLOCK):
        sc = left @ mat[:, j : j + COLUMN_BLOCK]
        out[j : j + COLUMN_BLOCK] = np.einsum("ij,ij->j", sc, sc)
    return out


def sym_eigh(mat: np.ndarray, what: str):
    """Eigenvalues (descending) and eigenvectors of the symmetric part of
    ``mat``; NumericalFailure, naming ``what``, if it is not finite or
    the eigensolver fails."""
    mat = 0.5 * (mat + mat.T)
    # eigh may return NaNs for a NaN entry, which every cut would drop
    if not np.all(np.isfinite(mat)):
        raise NumericalFailure(f"{what} is not finite", {"size": mat.shape[0]})
    try:
        lam, vec = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as err:
        raise NumericalFailure(
            f"eigendecomposition of the {what} failed",
            {"size": mat.shape[0], "fro_norm": float(np.linalg.norm(mat))},
        ) from err
    return lam[::-1], vec[:, ::-1]


def thin_svd(mat: np.ndarray, what: str):
    """Singular values (descending) and right singular vectors, as rows,
    of the thin SVD of ``mat``; NumericalFailure, naming ``what``, if it
    is not finite or the SVD fails."""
    if not np.all(np.isfinite(mat)):
        raise NumericalFailure(f"{what} is not finite", {"shape": mat.shape})
    try:
        _, s, vt = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise NumericalFailure(
            f"SVD of the {what} failed",
            {"shape": mat.shape, "fro_norm": float(np.linalg.norm(mat))},
        ) from err
    return s, vt


def cut_mask(lam: np.ndarray, rel: float) -> np.ndarray:
    """Eigenvalues (or singular values) kept: those above rel * max(lam),
    none when max(lam) <= 0.

    Works in either sort order."""
    top = lam.max() if lam.size else 0.0
    if not top > 0.0:
        return np.zeros(lam.shape, dtype=bool)
    return lam > rel * top
