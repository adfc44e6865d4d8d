"""Linear relations (multivalued linear operators) between C^n spaces.

A linear relation from C^din to C^dout is any subspace of the product space
C^(din+dout); an ordinary operator is the special case whose multivalued part
is trivial.  The relation is stored as its graph, a :class:`Subspace` whose
vectors carry the input components first.  Domain, range, kernel and
multivalued part are projections or slices of the graph, and the whole
calculus (adjoint, sum, product, restriction, operator part) reduces to
subspace arithmetic.

Everything here is finite dimensional, so every relation is closed and
``closure`` is the identity.  A separate notion of a core is pointless for
the same reason: a dense subspace of a finite-dimensional domain is the
domain itself, so none is provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernel
from .errors import (
    ComponentMismatchError,
    DimensionMismatchError,
    InternalInconsistencyError,
)
from .kernel import DEFAULT_TOL, Tolerances
from .subspace import Subspace

__all__ = [
    "LinearRelation",
    "OperatorPartDecomposition",
    "identity_relation",
    "zero_operator_on",
    "mul_only",
]


class LinearRelation:
    """A linear relation from C^dim_in to C^dim_out, stored as its graph.

    ``tol`` is given once, when a relation is built from raw data.  Every
    rank decision on the relation (its lazily derived subspaces and every
    operation it is the receiver of) reads it, and every relation an
    operation returns carries it on.
    """

    def __init__(self, dim_in: int, dim_out: int, graph: Subspace,
                 tol: Tolerances = DEFAULT_TOL):
        if graph.ambient_dim != dim_in + dim_out:
            raise DimensionMismatchError(
                f"graph ambient {graph.ambient_dim} != dim_in + dim_out = {dim_in + dim_out}"
            )
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)
        self.graph = graph
        self.tol = tol

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_graph(cls, vectors, dim_in: int, dim_out: int,
                   tol: Tolerances = DEFAULT_TOL) -> "LinearRelation":
        """Relation spanned by (input, output) pairs stacked as vectors."""
        g = Subspace.span(vectors, dim_in + dim_out, tol)
        return cls(dim_in, dim_out, g, tol=tol)

    @classmethod
    def from_matrix(cls, m, tol: Tolerances = DEFAULT_TOL) -> "LinearRelation":
        """Graph of an everywhere-defined matrix operator.

        ``[I; M]`` has smallest singular value at least 1, however large M
        is, so its columns are orthonormalized with no rank decision.
        """
        m = kernel.as_matrix(m)
        dout, din = m.shape
        stacked = np.vstack([np.eye(din, dtype=np.complex128), m])
        return cls(din, dout, Subspace(din + dout, kernel.orthonormalize(stacked)), tol=tol)

    @classmethod
    def from_operator_and_mul(cls, domain: Subspace, matrix_on_domain, mul: Subspace,
                              tol: Tolerances = DEFAULT_TOL) -> "LinearRelation":
        """Single-valued part plus multivalued part, for square relations.

        ``matrix_on_domain`` is a ``dim(domain) x dim(domain)`` matrix in the
        coordinates of the stored domain basis, so the single-valued part maps
        the domain into itself; the graph is its span together with
        ``{0} x mul``.
        """
        if domain.ambient_dim != mul.ambient_dim:
            raise DimensionMismatchError("domain and mul must share the ambient space")
        k = domain.dim
        m = kernel.as_matrix(matrix_on_domain, (k, k)) if k else np.zeros((0, 0), np.complex128)
        images = domain.basis @ m
        return cls.from_images_and_mul(domain, images, mul, tol=tol)

    @classmethod
    def from_images_and_mul(cls, domain: Subspace, images, mul: Subspace,
                            tol: Tolerances = DEFAULT_TOL) -> "LinearRelation":
        """Graph through ambient image vectors: pairs (basis column, image column).

        ``images`` has one column per domain basis vector, rows in the output
        space; the multivalued part ``mul`` is appended as ``{0} x mul``.
        The spanning set ``[U 0; W M]`` with orthonormal U and M is independent
        by construction (its input rows U pin the first columns, then M the
        rest), so every column counts, however large the images W are.
        """
        din = domain.ambient_dim
        dout = mul.ambient_dim
        images = kernel.as_matrix(images) if np.size(images) else np.zeros((dout, domain.dim), np.complex128)
        if images.shape != (dout, domain.dim):
            raise DimensionMismatchError(
                f"images shape {images.shape} != ({dout}, {domain.dim})"
            )
        op_cols = np.vstack([domain.basis, images])
        mul_cols = np.vstack([np.zeros((din, mul.dim), dtype=np.complex128), mul.basis])
        g = kernel.orthonormalize(np.hstack([op_cols, mul_cols]))
        return cls(din, dout, Subspace(din + dout, g), tol=tol)

    # -- slices of the graph -------------------------------------------------

    @property
    def _gin(self) -> np.ndarray:
        return self.graph.basis[: self.dim_in]

    @property
    def _gout(self) -> np.ndarray:
        return self.graph.basis[self.dim_in:]

    def _cut_graph_slice(self, cut: np.ndarray, kept: np.ndarray,
                         null: np.ndarray) -> np.ndarray:
        """``kept @ null``, where ``null`` is a kernel basis of the block ``cut``.

        The graph basis is orthonormal, so ``(kept null)^H (kept null) =
        1 - (cut null)^H (cut null)``: the product is orthonormal up to the
        square of the part of ``cut`` that the rank decision dropped.  That
        square must stay within the relation's ``eq_abs``, or the rank
        decision disagrees with the relation it was made on, and
        :class:`InternalInconsistencyError` is raised.
        """
        dropped = cut @ null
        if not kernel.opnorm_within(dropped, self.tol.eq_abs ** 0.5):
            raise InternalInconsistencyError(
                f"rank decisions disagree: squared norm {kernel.opnorm(dropped) ** 2:.3e} "
                f"left over the numerical kernel of a graph block exceeds eq_abs"
            )
        return kept @ null

    @cached_property
    def _input_split(self) -> tuple[Subspace, Subspace, np.ndarray]:
        """``(dom, mul, V S^-1)`` from one SVD ``U S V^H`` of the input block X.

        mul is spanned by the outputs over the kernel of X: ``Y null`` is
        its basis as it stands, since the graph basis [X; Y] is orthonormal
        and ``X null`` is below the rank cutoff.  That makes
        ``dom.dim + mul.dim == graph.dim`` hold by construction; the
        single-valuedness check it stood for is that ``||X null||^2 <=
        eq_abs`` (see :meth:`_cut_graph_slice`).  ``X V S^-1 = U``.
        """
        u, s, vh, null = kernel.rank_svd(self._gin, self.tol)
        mul = self._cut_graph_slice(self._gin, self._gout, null)
        return (Subspace(self.dim_in, np.ascontiguousarray(u)),
                Subspace(self.dim_out, mul), vh.conj().T / s)

    @cached_property
    def dom(self) -> Subspace:
        """Domain: first components of the graph."""
        return self._input_split[0]

    @cached_property
    def ran(self) -> Subspace:
        """Range: second components of the graph."""
        return Subspace(self.dim_out, kernel.orthonormal_columns(self._gout, self.tol))

    @cached_property
    def mul(self) -> Subspace:
        """Multivalued part: values paired with input zero."""
        return self._input_split[1]

    @cached_property
    def ker(self) -> Subspace:
        """Kernel: inputs paired with output zero.

        ``X null(Y)`` is orthonormal as it stands; see
        :meth:`_cut_graph_slice` for the check that keeps it so.
        """
        null = kernel.null_space(self._gout, self.tol)
        return Subspace(self.dim_in,
                        self._cut_graph_slice(self._gout, self._gin, null))

    def __repr__(self):
        return (
            f"LinearRelation(dim_in={self.dim_in}, dim_out={self.dim_out}, "
            f"graph_dim={self.graph.dim})"
        )

    # -- calculus ------------------------------------------------------------

    def closure(self) -> "LinearRelation":
        """Identity in finite dimension; present so formulas read naturally."""
        return self

    def adjoint(self) -> "LinearRelation":
        """Adjoint relation: flip of the orthogonal complement of the graph.

        The complement of the graph inside the product space is rotated by
        (x, y) -> (y, -x), which lands in the product taken in the opposite
        order.  Both steps are unitary, so no rank decision is involved.
        """
        comp = kernel.full_complement(self.graph.basis)
        flipped = np.vstack([comp[self.dim_in:], -comp[: self.dim_in]])
        return LinearRelation(self.dim_out, self.dim_in,
                              Subspace(self.dim_in + self.dim_out, flipped),
                              tol=self.tol)

    def add(self, other: "LinearRelation") -> "LinearRelation":
        """Relation sum: pairs (x, y + z) with (x, y) here and (x, z) there.

        The domain of the sum is the intersection of the domains.
        """
        self._check_same_spaces(other)
        gt, gs = self.graph.basis, other.graph.basis
        r = gt.shape[1]
        constraint = np.hstack([gt[: self.dim_in], -gs[: self.dim_in]])
        coeff = kernel.null_space(constraint, self.tol)
        x = gt[: self.dim_in] @ coeff[:r]
        y = gt[self.dim_in:] @ coeff[:r] + gs[self.dim_in:] @ coeff[r:]
        g = kernel.orthonormal_columns(np.vstack([x, y]), self.tol)
        return LinearRelation(self.dim_in, self.dim_out,
                              Subspace(self.dim_in + self.dim_out, g), tol=self.tol)

    def cw_sum(self, other: "LinearRelation") -> "LinearRelation":
        """Componentwise sum: span of the two graphs inside the product space."""
        self._check_same_spaces(other)
        g = self.graph.add(other.graph, self.tol)
        return LinearRelation(self.dim_in, self.dim_out, g, tol=self.tol)

    def compose(self, inner: "LinearRelation") -> "LinearRelation":
        """Product self o inner: pairs (x, y) with (x, z) in inner, (z, y) in self."""
        if inner.dim_out != self.dim_in:
            raise DimensionMismatchError(
                f"cannot compose: inner dim_out {inner.dim_out} != outer dim_in {self.dim_in}"
            )
        gi, go = inner.graph.basis, self.graph.basis
        r = gi.shape[1]
        mid = inner.dim_out
        constraint = np.hstack([gi[inner.dim_in:], -go[:mid]])
        coeff = kernel.null_space(constraint, self.tol)
        x = gi[: inner.dim_in] @ coeff[:r]
        y = go[mid:] @ coeff[r:]
        g = kernel.orthonormal_columns(np.vstack([x, y]), self.tol)
        return LinearRelation(inner.dim_in, self.dim_out,
                              Subspace(inner.dim_in + self.dim_out, g), tol=self.tol)

    def map_output(self, m) -> "LinearRelation":
        """Product M o self with a matrix M: pairs (x, M y) for (x, y) here.

        Same relation as ``LinearRelation.from_matrix(m).compose(self)``,
        without building and intersecting the graph of M.
        """
        m = kernel.as_matrix(m)
        if m.shape[1] != self.dim_out:
            raise DimensionMismatchError(
                f"cannot compose: dim_out {self.dim_out} != matrix columns {m.shape[1]}"
            )
        g = kernel.orthonormal_columns(np.vstack([self._gin, m @ self._gout]), self.tol)
        return LinearRelation(self.dim_in, m.shape[0],
                              Subspace(self.dim_in + m.shape[0], g), tol=self.tol)

    def pull_input(self, m) -> "LinearRelation":
        """Product self o M with a matrix M: pairs (x, y) with (M x, y) here.

        Same relation as ``self.compose(LinearRelation.from_matrix(m))``: the
        inputs x and graph coefficients c with M x = (input part) c span it.
        Each unit vector (x, c) of the orthonormal kernel basis gives a pair
        (x, (output part) c) of norm at least ``1 / sqrt(1 + ||M||^2)``, so
        the pairs are orthonormalized with no rank decision.
        """
        m = kernel.as_matrix(m)
        if m.shape[0] != self.dim_in:
            raise DimensionMismatchError(
                f"cannot compose: matrix rows {m.shape[0]} != dim_in {self.dim_in}"
            )
        k = m.shape[1]
        coeff = kernel.null_space(np.hstack([m, -self._gin]), self.tol)
        y = self._gout @ coeff[k:]
        g = kernel.orthonormalize(np.vstack([coeff[:k], y]))
        return LinearRelation(k, self.dim_out, Subspace(k + self.dim_out, g), tol=self.tol)

    def restrict(self, s: Subspace) -> "LinearRelation":
        """Pairs of the relation whose input lies in ``s``.

        The graph basis times an orthonormal kernel basis is orthonormal as
        it stands.
        """
        if s.ambient_dim != self.dim_in:
            raise DimensionMismatchError("restriction subspace must live in the input space")
        g = self.graph.basis
        outside = (np.eye(self.dim_in, dtype=np.complex128) - s.projector) @ g[: self.dim_in]
        basis = g @ kernel.null_space(outside, self.tol)
        return LinearRelation(self.dim_in, self.dim_out,
                              Subspace(self.dim_in + self.dim_out, basis), tol=self.tol)

    def image(self, s: Subspace) -> Subspace:
        """Values taken over inputs in ``s``.

        Since 0 always lies in ``s``, the image always contains the
        multivalued part.
        """
        return self.restrict(s).ran

    # -- comparisons ---------------------------------------------------------

    def equals(self, other: "LinearRelation") -> bool:
        self._check_same_spaces(other)
        return self.graph.equals(other.graph, self.tol)

    def graph_gap(self, other: "LinearRelation") -> float:
        self._check_same_spaces(other)
        return self.graph.gap(other.graph)

    def includes(self, other: "LinearRelation") -> bool:
        """True when ``other`` is a subrelation (its graph is contained here)."""
        self._check_same_spaces(other)
        return self.graph.contains(other.graph, self.tol)

    def _check_same_spaces(self, other: "LinearRelation"):
        if self.dim_in != other.dim_in or self.dim_out != other.dim_out:
            raise DimensionMismatchError(
                f"relations act between different spaces: "
                f"({self.dim_in},{self.dim_out}) vs ({other.dim_in},{other.dim_out})"
            )

    # -- operator part -------------------------------------------------------

    def operator_part(self) -> "OperatorPartDecomposition":
        """Split a closed relation into a single-valued operator plus its mul.

        The operator part is ``(1 - P_mul) Y X^+`` on the graph's input and
        output blocks X and Y: of the values Y c + mul at x = X c, the one
        orthogonal to mul.  The returned matrix holds the ambient images of
        the domain basis vectors.  The relation's ``tol`` governs the rank
        decisions and bounds the solve residual; the decomposition keeps it.

        The operator part is single-valued when the graph's inputs over the
        kernel of X, the ones mul is read from, are numerically zero:
        ``||X null||^2 <= eq_abs``, checked where mul is built, which raises
        :class:`InternalInconsistencyError` otherwise.  The operator-part
        graph then has dimension graph.dim - mul.dim by construction.
        """
        domain, m, coeff = self._input_split
        resid = self._gin @ coeff - domain.basis
        if not kernel.opnorm_within(resid, self.tol.eq_abs):
            raise InternalInconsistencyError(
                f"operator part solve residual {kernel.opnorm(resid):.3e} exceeds tolerance"
            )
        images = self._gout @ coeff
        images = images - m.basis @ (m.basis.conj().T @ images)
        return OperatorPartDecomposition(domain=domain, images=images, mul=m,
                                         dim_in=self.dim_in, dim_out=self.dim_out,
                                         tol=self.tol)

    # -- viewing a relation inside component subspaces -----------------------

    def compress_to(self, u: Subspace, v: Subspace) -> "LinearRelation":
        """Coordinates of a relation whose graph lives inside ``u x v``.

        Rewrites the graph in the orthonormal bases of ``u`` and ``v``; the
        result is a relation between C^dim(u) and C^dim(v).  Raises when the
        graph actually leaves the product.  Inside the product the
        coordinates keep the norms of the orthonormal graph basis up to the
        square of the defect, so they are orthonormalized with no rank
        decision.
        """
        if u.ambient_dim != self.dim_in or v.ambient_dim != self.dim_out:
            raise DimensionMismatchError("component subspaces live in the wrong spaces")
        gin, gout = self._gin, self._gout
        outside = (gin - u.projector @ gin, gout - v.projector @ gout)
        if not all(kernel.opnorm_within(part, self.tol.eq_abs) for part in outside):
            defect = max(kernel.opnorm(part) for part in outside)
            raise ComponentMismatchError(
                f"graph leaves the component product (defect {defect:.3e})"
            )
        basis = np.vstack([u.basis.conj().T @ gin, v.basis.conj().T @ gout])
        basis = kernel.orthonormalize(basis)
        return LinearRelation(u.dim, v.dim, Subspace(u.dim + v.dim, basis), tol=self.tol)

    def embed_from(self, u: Subspace, v: Subspace) -> "LinearRelation":
        """Inverse of :meth:`compress_to`: map coordinates back into ambient."""
        if u.dim != self.dim_in or v.dim != self.dim_out:
            raise DimensionMismatchError("coordinate dims do not match the subspaces")
        basis = np.vstack([u.basis @ self._gin, v.basis @ self._gout])
        n = u.ambient_dim + v.ambient_dim
        return LinearRelation(u.ambient_dim, v.ambient_dim, Subspace(n, basis),
                              tol=self.tol)

    def adjoint_between(self, u: Subspace, v: Subspace) -> "LinearRelation":
        """Adjoint of the relation viewed as acting from ``u`` to ``v``.

        The ambient adjoint of a relation squeezed into ``u x v`` picks up a
        huge multivalued part from the ambient complement of ``u``; taking the
        adjoint in coordinates and embedding back gives the adjoint relative
        to the component spaces instead.
        """
        compressed = self.compress_to(u, v)
        return compressed.adjoint().embed_from(v, u)


@dataclass(frozen=True)
class OperatorPartDecomposition:
    """Operator part of a closed relation: domain basis images plus mul.

    ``images`` holds ambient vectors, one column per domain basis vector, all
    orthogonal to ``mul``.  ``as_relation`` rebuilds the single-valued graph;
    componentwise-summing it with ``{0} x mul`` recovers the original
    relation.  Both carry ``tol``, the tolerance of the relation the
    decomposition came from.
    """

    domain: Subspace
    images: np.ndarray
    mul: Subspace
    dim_in: int
    dim_out: int
    tol: Tolerances

    def as_relation(self) -> LinearRelation:
        return LinearRelation.from_images_and_mul(
            self.domain, self.images, Subspace.zero(self.dim_out), tol=self.tol
        )

    def reassemble(self) -> LinearRelation:
        return LinearRelation.from_images_and_mul(self.domain, self.images, self.mul,
                                                  tol=self.tol)

    def compressed(self) -> np.ndarray:
        """Matrix of the operator part in the domain basis coordinates.

        Only faithful when the images stay inside the domain closure, as they
        do for selfadjoint relations.
        """
        return self.domain.basis.conj().T @ self.images


def identity_relation(n: int) -> LinearRelation:
    return LinearRelation.from_matrix(np.eye(n, dtype=np.complex128))

def zero_operator_on(domain: Subspace, dim_out: int | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> LinearRelation:
    """Everywhere-defined-on-``domain`` zero operator into C^dim_out."""
    dout = domain.ambient_dim if dim_out is None else dim_out
    images = np.zeros((dout, domain.dim), dtype=np.complex128)
    return LinearRelation.from_images_and_mul(domain, images, Subspace.zero(dout), tol=tol)

def mul_only(values: Subspace, dim_in: int | None = None,
             tol: Tolerances = DEFAULT_TOL) -> LinearRelation:
    """The purely multivalued relation {0} x values."""
    din = values.ambient_dim if dim_in is None else dim_in
    return LinearRelation.from_images_and_mul(
        Subspace.zero(din), np.zeros((values.ambient_dim, 0), np.complex128), values,
        tol=tol,
    )
