"""Subspaces of C^n with orthonormal stored bases.

A :class:`Subspace` is immutable and stores an orthonormal basis; two
subspaces are compared by the operator-norm gap between their orthogonal
projectors.  Sum and intersection reduce to the kernel's rank decisions; the
complement is exact, and so is the split of a subspace that P_S leaves
invariant into its slices in S and S-perp (:func:`require_invariant`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernel
from .errors import DimensionMismatchError, InternalInconsistencyError, InvarianceViolatedError
from .kernel import DEFAULT_TOL, Tolerances

__all__ = ["Subspace", "InvarianceReport", "invariance_report", "require_invariant"]


class Subspace:
    """A linear subspace of C^n, stored as an orthonormal column basis."""

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        if ambient_dim < 0:
            raise DimensionMismatchError("ambient_dim must be nonnegative")
        basis = kernel.as_matrix(basis)
        if basis.shape[0] != ambient_dim:
            raise DimensionMismatchError(
                f"basis rows {basis.shape[0]} != ambient_dim {ambient_dim}"
            )
        self.ambient_dim = int(ambient_dim)
        self.basis = basis

    # -- constructors ------------------------------------------------------

    @classmethod
    def span(cls, vectors, ambient_dim: int, tol: Tolerances = DEFAULT_TOL) -> "Subspace":
        """Subspace spanned by the given vectors (columns or list of vectors)."""
        m = np.asarray(vectors, dtype=np.complex128)
        if m.ndim == 1:
            m = m.reshape(-1, 1)
        if m.size == 0:
            m = m.reshape(ambient_dim, -1)
        elif m.shape[0] != ambient_dim and m.shape[1] == ambient_dim:
            # accept a list of vectors as rows
            m = m.T
        return cls(ambient_dim, kernel.orthonormal_columns(m, tol))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim, dtype=np.complex128))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto this subspace, as an n x n matrix."""
        return self.basis @ self.basis.conj().T

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient dims differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    # -- arithmetic --------------------------------------------------------

    @cached_property
    def _complement(self) -> "Subspace":
        return Subspace(self.ambient_dim, kernel.full_complement(self.basis))

    def complement(self) -> "Subspace":
        """Orthogonal complement; dims add up to the ambient dim exactly.

        Computed on first use and kept: a subspace never changes.
        """
        return self._complement

    def add(self, other: "Subspace", tol: Tolerances = DEFAULT_TOL) -> "Subspace":
        """Subspace sum (span of the union)."""
        self._check_ambient(other)
        stacked = np.hstack([self.basis, other.basis])
        return Subspace(self.ambient_dim, kernel.orthonormal_columns(stacked, tol))

    def intersect(self, other: "Subspace", tol: Tolerances = DEFAULT_TOL) -> "Subspace":
        """Intersection, as the directions of ``other`` that stay in this subspace.

        The kernel of ``(1 - P_self) V`` on the orthonormal basis V of
        ``other``, mapped back by V.  Its singular values are the sines of
        the principal angles between the two subspaces (and 1 for every
        dimension of ``other`` beyond this one), so a direction is shared
        when the sine of its angle is at most the rank cutoff, ``rank_rel``.
        The rule is symmetric in the two subspaces.  ``V null`` is
        orthonormal as it stands and lies in ``other``.
        """
        self._check_ambient(other)
        null = kernel.null_space(self._residual(other), tol)
        return Subspace(self.ambient_dim, other.basis @ null)

    def gap(self, other: "Subspace") -> float:
        """Operator-norm distance between the two projectors.

        Uses Kato's identity ||P_U - P_V|| = max(||(1 - P_V) U||,
        ||(1 - P_U) V||) on the orthonormal bases U and V, so no n x n
        projector is formed.  For dim U = dim V both terms are the sine of
        the largest principal angle, so one of them is the gap.  Subspaces
        of different dimension are at gap 1, and bit-identical bases at gap
        exactly 0.
        """
        self._check_ambient(other)
        return 1.0 if self.dim != other.dim else self.containment_defect(other)

    def equals(self, other: "Subspace", tol: Tolerances = DEFAULT_TOL) -> bool:
        """``gap(other) <= eq_abs``, without computing the gap where it is small."""
        self._check_ambient(other)
        # subspaces of different dimension are at gap 1, above any eq_abs
        return self.dim == other.dim and (
            np.array_equal(self.basis, other.basis)
            or kernel.opnorm_within(self._residual(other), tol.eq_abs))

    def contains_vector(self, v, tol: Tolerances = DEFAULT_TOL) -> bool:
        v = np.asarray(v, dtype=np.complex128).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise DimensionMismatchError("vector length does not match ambient dim")
        resid = v - self.projector @ v
        return float(np.linalg.norm(resid)) <= tol.eq_abs * (1.0 + float(np.linalg.norm(v)))

    def contains(self, other: "Subspace", tol: Tolerances = DEFAULT_TOL) -> bool:
        """True when ``other`` is a subset of this subspace."""
        self._check_ambient(other)
        return kernel.opnorm_within(self._residual(other), tol.eq_abs)

    def containment_defect(self, other: "Subspace") -> float:
        """Norm of the part of ``other`` sticking out; 0 for the same basis."""
        self._check_ambient(other)
        return 0.0 if np.array_equal(self.basis, other.basis) else kernel.opnorm(self._residual(other))

    def _residual(self, other: "Subspace") -> np.ndarray:
        """``(1 - P_self) V`` on the basis V of ``other``, without forming P_self."""
        return other.basis - self.basis @ (self.basis.conj().T @ other.basis)

    def apply(self, matrix: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> "Subspace":
        """Image of this subspace under a matrix (rows give the new ambient)."""
        matrix = kernel.as_matrix(matrix)
        if matrix.shape[1] != self.ambient_dim:
            raise DimensionMismatchError("matrix columns must match ambient dim")
        return Subspace(matrix.shape[0], kernel.orthonormal_columns(matrix @ self.basis, tol))


def _orthogonal_sum(u: Subspace, v: Subspace, tol: Tolerances) -> Subspace:
    """Sum of two subspaces that are orthogonal by construction.

    The stacked bases are orthonormal as they stand, so no rank decision is
    made; :class:`InternalInconsistencyError` is raised when ``||U* V||``
    exceeds ``eq_abs``, since then the construction that promised
    orthogonality disagrees with its result.
    """
    u._check_ambient(v)
    overlap = u.basis.conj().T @ v.basis
    if not kernel.opnorm_within(overlap, tol.eq_abs):
        raise InternalInconsistencyError(
            f"subspaces meant to be orthogonal overlap: ||U* V|| = "
            f"{kernel.opnorm(overlap):.3e} exceeds eq_abs"
        )
    return Subspace(u.ambient_dim, np.hstack([u.basis, v.basis]))


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of the three equivalent invariance conditions for (M, S).

    The conditions characterize when the orthogonal projection onto S maps M
    into itself:

    1. ``projects_into``: P_S(M) is a subset of M;
    2. ``splits``: M = (S meet M) + (S-perp meet M) as an orthogonal sum;
    3. ``projection_matches``: span(P_S(M)) equals S meet M.

    ``residuals`` records the numerical defect of each condition.
    """

    projects_into: bool
    splits: bool
    projection_matches: bool
    residuals: tuple[float, float, float]
    witness: np.ndarray | None

    @property
    def invariant(self) -> bool:
        return self.projects_into

    @property
    def consistent(self) -> bool:
        return self.projects_into == self.splits == self.projection_matches

    def __bool__(self) -> bool:
        return self.invariant


def _projection_escape(m: Subspace, s: Subspace, tol: Tolerances):
    """Condition 1: ``(h, r1, witness)`` with h = M* P_S M and r1 = ||(1 - P_M) P_S M||.

    With C = S* M on the bases, (1 - P_M) P_S M = S C - M h for h = C* C.
    """
    m._check_ambient(s)
    c = s.basis.conj().T @ m.basis
    h = c.conj().T @ c
    resid_mat = s.basis @ c - m.basis @ h
    r1 = kernel.opnorm(resid_mat)
    witness = None
    if r1 > tol.eq_abs and m.dim > 0:
        worst = int(np.argmax(np.linalg.norm(resid_mat, axis=0)))
        witness = m.basis[:, worst].copy()
    return h, r1, witness


def invariance_report(m: Subspace, s: Subspace, tol: Tolerances = DEFAULT_TOL) -> InvarianceReport:
    """Check whether P_S maps the subspace ``m`` into itself.

    Evaluates all three equivalent formulations and reports them separately;
    disagreement between them flags borderline rank decisions.
    """
    _, r1, witness = _projection_escape(m, s, tol)

    sm = s.intersect(m, tol)
    spm = s.complement().intersect(m, tol)

    # condition 2: the two slices, orthogonal as they lie in S and S-perp,
    # recombine to all of M
    recombined = _orthogonal_sum(sm, spm, tol)
    r2 = recombined.gap(m)
    splits = r2 <= tol.eq_abs and sm.dim + spm.dim == m.dim

    # condition 3: span of the projected basis equals the slice S meet M
    projected = s.projector @ m.basis
    proj_span = Subspace(s.ambient_dim, kernel.orthonormal_columns(projected, tol))
    r3 = proj_span.gap(sm)

    return InvarianceReport(
        projects_into=r1 <= tol.eq_abs,
        splits=splits,
        projection_matches=r3 <= tol.eq_abs,
        residuals=(r1, r2, r3),
        witness=witness,
    )


def require_invariant(m: Subspace, s: Subspace, tol: Tolerances = DEFAULT_TOL):
    """The slices (M meet S, M meet S-perp) of a subspace that P_S maps into itself.

    Raises :class:`InvarianceViolatedError` with a witness when condition 1
    of :func:`invariance_report` fails.  Otherwise h = M* P_S M has
    ||h - h^2|| = r1^2, so each eigenvalue lies within about r1^2 of 0 or
    1, and one ``eigh`` of h cut at 1/2 splits M with no rank cutoff: M
    times the eigenvectors above 1/2, and M times the rest.
    """
    h, r1, witness = _projection_escape(m, s, tol)
    if r1 > tol.eq_abs:
        raise InvarianceViolatedError(
            f"projection leaves the subspace (defect {r1:.3e})", witness=witness)
    w, v = np.linalg.eigh(h)
    near = w > 0.5
    return (Subspace(m.ambient_dim, m.basis @ v[:, near]),
            Subspace(m.ambient_dim, m.basis @ v[:, ~near]))
