"""Dense complex matrix kernel: tolerances, rank decisions, factorizations.

All numerical rank decisions in the package go through this module and use a
single policy: a singular value counts as nonzero when it exceeds
``rank_rel * max(sigma_max, 1)``.  Equality of subspaces and relations is
judged by projector gap against the absolute tolerance ``eq_abs``.  Both
knobs live in one :class:`Tolerances` object, given once where a computation
starts: the functions here take it as an argument, and every relation built
on them stores it, so each later operation reads it from its input.

Which factorization an operation takes depends on whether a rank can drop:

* an SVD where a numerical rank is decided.  :func:`rank_svd` is the one
  place a factorization is cut at the shared rank (:func:`orthonormal_columns`,
  :func:`null_space` and :func:`pseudo_inverse` read it).  The only other
  SVD is the polar factor in :func:`nearest_isometry`;
* a reduced QR (:func:`orthonormalize`) for spanning sets that are linearly
  independent by construction, such as a graph ``[I; M]`` whose smallest
  singular value is at least 1.  Cutting those at a rank relative to their
  largest singular value would only drop real directions once an image is
  large, so no rank is decided; a complete QR gives the complements in
  :func:`full_complement`;
* nothing for products that are already orthonormal, such as an orthonormal
  basis times an orthonormal kernel basis: callers use them as they stand.

Nor is the split of a subspace that P_S leaves invariant into its slices
in S and S-perp (:func:`linrel.subspace.require_invariant`) a rank
decision: one ``eigh`` whose eigenvalues sit near 0 or 1, cut at 1/2.

Spectral norms come from the largest eigenvalue of the smaller Gram matrix
(``eigvalsh``), which gives the exact 2-norm without computing singular
vectors.  A check that only compares a norm against a bound asks
:func:`opnorm_within` instead, which settles most cases by the Frobenius
norm and computes the exact norm only when that is not enough.

Matrices are plain numpy arrays in complex double precision; real input is
promoted on entry.  Zero-sized matrices (0 rows or 0 columns) are legal
everywhere and denote maps to or from the trivial space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPsdError,
    UnsolvableError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "as_matrix",
    "opnorm",
    "opnorm_within",
    "hermitian_part",
    "hermitian_eig",
    "rank_svd",
    "orthonormal_columns",
    "orthonormalize",
    "null_space",
    "full_complement",
    "psd_sqrt",
    "pseudo_inverse",
    "pseudo_apply_inverse",
    "nearest_isometry",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy knobs shared by every operation.

    ``rank_rel``: relative singular value cutoff for rank decisions.
    ``eq_abs``: absolute tolerance for equality of subspaces, relations,
    residuals and eigenvalue sign checks.
    """

    rank_rel: float = 1e-10
    eq_abs: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.rank_rel < 1.0):
            raise ValueError(f"rank_rel must lie in (0, 1), got {self.rank_rel}")
        if not (0.0 < self.eq_abs < 1.0):
            raise ValueError(f"eq_abs must lie in (0, 1), got {self.eq_abs}")


DEFAULT_TOL = Tolerances()


def as_matrix(data, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce ``data`` to a complex128 matrix, rejecting non-finite entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if shape is not None and m.shape != shape:
        raise DimensionMismatchError(f"expected shape {shape}, got {m.shape}")
    return m


def opnorm(m: np.ndarray) -> float:
    """Operator 2-norm; zero for empty matrices.

    The square root of the largest eigenvalue of ``m^H m`` or ``m m^H``,
    whichever is smaller.  The matrix is first scaled by the power of two
    that brings its largest entry into [1, 2) (the smallest normal power
    for subnormal entries), which is exact and keeps the Gram matrix clear
    of overflow and underflow.
    """
    if m.size == 0:
        return 0.0
    top = float(np.abs(m).max())
    if top == 0.0:
        return 0.0
    scale = math.ldexp(1.0, max(math.frexp(top)[1] - 1, -1022))
    m = m / scale
    gram = m.conj().T @ m if m.shape[0] >= m.shape[1] else m @ m.conj().T
    return scale * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def opnorm_within(m: np.ndarray, bound: float) -> bool:
    """Whether ``opnorm(m) <= bound``.

    The Frobenius norm bounds the 2-norm from above, so it settles the
    comparison whenever it is within the bound; only otherwise is the exact
    :func:`opnorm` computed.  For checks that compare and do not report.
    """
    if m.size == 0:
        return True
    with np.errstate(over="ignore"):  # an overflow to inf defers to opnorm
        frobenius = float(np.linalg.norm(m))
    return frobenius <= bound or opnorm(m) <= bound


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def hermitian_eig(h, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` ascending and unitary ``v``
    such that ``h = v @ diag(w) @ v.conj().T``.  Raises
    :class:`NotHermitianError` when the anti-Hermitian part exceeds
    ``eq_abs * (1 + ||h||)``.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"square matrix required, got {h.shape}")
    _require_hermitian(h, tol)
    return np.linalg.eigh(hermitian_part(h))


def _require_hermitian(h: np.ndarray, tol: Tolerances) -> None:
    """Raise :class:`NotHermitianError` as :func:`hermitian_eig` does."""
    anti = h - h.conj().T
    # eq_abs is the least the bound can be, so a defect within it passes
    if not opnorm_within(anti, tol.eq_abs):
        defect = opnorm(anti)
        if defect > tol.eq_abs * (1.0 + opnorm(h)):
            raise NotHermitianError(f"anti-Hermitian defect {defect:.3e} exceeds tolerance")


def rank_cutoff(s: np.ndarray, tol: Tolerances) -> float:
    """Singular value cutoff: ``rank_rel * max(sigma_max, 1)``.

    Relative to the top singular value, with an absolute floor at 1.  All
    graph and projector constructions in this library are at unit scale, so
    a matrix whose largest singular value sits below ``rank_rel`` is
    cancellation noise, not data; without the floor its noise directions
    would count as full rank.
    """
    top = float(s[0]) if s.size else 0.0
    return tol.rank_rel * max(top, 1.0)


def rank_svd(m, tol: Tolerances = DEFAULT_TOL):
    """SVD of ``m`` cut at the shared rank: ``(u, s, vh, null)``.

    Keeps the triplets above :func:`rank_cutoff`; ``null`` is an orthonormal
    kernel basis.  A wide input needs complete factors for it; a tall
    input's reduced ``vh`` is already square, hence complete.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    if not m.any():
        return (np.zeros((rows, 0), dtype=np.complex128), np.zeros(0),
                np.zeros((0, cols), dtype=np.complex128), np.eye(cols, dtype=np.complex128))
    u, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    r = int(np.sum(s > rank_cutoff(s, tol)))
    return u[:, :r], s[:r], vh[:r], vh[r:].conj().T


def orthonormal_columns(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis for the column span of ``m`` (an ``(n, rank)`` matrix)."""
    return np.ascontiguousarray(rank_svd(m, tol)[0])


def null_space(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis for the kernel of ``m`` (an ``(ncols, k)`` matrix)."""
    return np.ascontiguousarray(rank_svd(m, tol)[3])


def orthonormalize(m) -> np.ndarray:
    """Orthonormal basis for the column span of ``m``, which must be independent.

    The Q factor of a reduced QR factorization; no rank decision, so every
    column counts.  Only for spanning sets that are full column rank by
    construction, however large their images: the shared rank cutoff is
    relative to the largest singular value and would drop real directions.
    """
    return np.ascontiguousarray(np.linalg.qr(as_matrix(m))[0])


def full_complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of orthonormal ``basis``.

    Exact dimension count: an ``(n, k)`` input yields an ``(n, n-k)`` result.
    The trailing columns of a complete QR factorization; no rank decision.
    """
    basis = as_matrix(basis)
    n, k = basis.shape
    if k == 0:
        return np.eye(n, dtype=np.complex128)
    if k == n:
        return np.zeros((n, 0), dtype=np.complex128)
    q, _ = np.linalg.qr(basis, mode="complete")
    return np.ascontiguousarray(q[:, k:])


def psd_sqrt(h, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``[-eq_abs, 0)`` are clamped to zero; roundoff from Gram
    constructions lands there.  An eigenvalue below ``-eq_abs`` raises
    :class:`NotPsdError` with the witness value.

    Eigenvalues below the shared rank cutoff are zeroed outright, not
    square-rooted: the root would amplify eigenvalue noise eps to sqrt(eps),
    promoting a numerically-zero block to a visible spurious action.
    """
    return _psd_root_and_eigh(h, tol)[0]


def _psd_root_and_eigh(h, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`psd_sqrt` with the eigenpairs it was taken from: ``(root, w, v)``.

    ``w`` is ascending with every eigenvalue below the shared rank cutoff set
    to 0, so the eigenvectors with nonzero ``w`` span the root's range.  For
    callers that need the root and the eigenvectors from one ``eigh``.
    """
    return _psd_root_from_eigh(*hermitian_eig(h, tol), tol)


def _psd_root_from_eigh(w: np.ndarray, v: np.ndarray,
                        tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_psd_root_and_eigh` on the ``eigh`` of a Hermitian matrix already taken."""
    if w.size == 0:
        return np.zeros((0, 0), dtype=np.complex128), w, v
    wmin = float(w[0])
    if wmin < -tol.eq_abs:
        raise NotPsdError(f"eigenvalue {wmin:.3e} below -eq_abs", witness=wmin)
    w = np.clip(w, 0.0, None)
    w[w < rank_cutoff(w[::-1], tol)] = 0.0
    return hermitian_part((v * np.sqrt(w)) @ v.conj().T), w, v


def pseudo_inverse(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse with the shared rank cutoff."""
    u, s, vh, _ = rank_svd(m, tol)
    return vh.conj().T @ ((1.0 / s)[:, None] * u.conj().T)


def pseudo_apply_inverse(r, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Minimal-norm solution ``y`` of ``r @ y = b``.

    Every column of ``b`` must lie in the column span of ``r`` within
    ``eq_abs * (1 + ||column||)``; otherwise :class:`UnsolvableError`.  The
    solution columns lie in the row-space support of ``r``.
    """
    r = as_matrix(r)
    b = as_matrix(b)
    if r.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"row counts differ: {r.shape[0]} vs {b.shape[0]}"
        )
    y = pseudo_inverse(r, tol) @ b
    resid = np.linalg.norm(r @ y - b, axis=0)
    bad = np.flatnonzero(resid > tol.eq_abs * (1.0 + np.linalg.norm(b, axis=0)))
    if bad.size:
        raise UnsolvableError(
            f"column {bad[0]} leaves the span of the coefficient matrix"
        )
    return y


def nearest_isometry(w: np.ndarray) -> np.ndarray:
    """Polar factor of ``w``: the nearest matrix with orthonormal columns.

    Used to restore exact isometry after constructions that divide by small
    singular values; keeps operator norms at 1 up to machine precision.
    """
    w = as_matrix(w)
    if w.size == 0:
        return w.copy()
    u, _, vh = np.linalg.svd(w, full_matrices=False)
    return u @ vh
