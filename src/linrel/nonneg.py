"""Nonnegative selfadjoint relations: validation, roots, form ordering.

A square relation A is selfadjoint when it equals its adjoint, and
nonnegative when the quadratic form of its operator part is positive
semidefinite on the domain.  In finite dimension such A is exactly its form:
a domain U and a Hermitian PSD operator A0 on it, with the multivalued part
the orthogonal complement of U.  The form is what is stored; the graph is
built from it on first use.  :func:`validate` certifies what is not proven:
input from outside and the outputs of the relation calculus (Gram products,
block corners).  Roots, scalings, generated instances, Friedrichs
extensions, Schur complements and compressions are nonnegative selfadjoint
by construction and are built from their form without it.

The partial order compares quadratic form norms: A <= B demands that the
domain of B's root be contained in the domain of A's root and that the root
norms be dominated there.  With orthonormal bases this reduces to a PSD test
on a difference of Gram matrices.  Note the direction: a larger relation has
the smaller root domain, so the everywhere-defined identity operator sits
below the purely multivalued relation {0} x H, which is the top element.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import kernel
from .errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotNonnegativeError,
    NotSelfAdjointError,
    NotSymmetricError,
    OrderViolatedError,
)
from .kernel import Tolerances
from .relation import LinearRelation
from .subspace import Subspace

__all__ = [
    "NonnegSelfAdjointRelation",
    "validate",
    "leq",
    "leq_report",
    "order_contraction",
    "gram",
    "gram_with_diagnostics",
    "friedrichs",
]


class NonnegSelfAdjointRelation:
    """A nonnegative selfadjoint relation, stored as its form (dom, A0).

    ``op_compressed`` is the Hermitian PSD A0 in the coordinates of the
    orthonormal domain basis; mul is the domain's complement.  Instances come
    from :func:`validate` or from operations that prove the property, so
    holding one is a certificate.  The graph ``rel`` is built on first use,
    or is the relation :func:`validate` certified.
    """

    def __init__(self, dom: Subspace, a0, tol: Tolerances):
        self.dom = dom
        self.op_compressed = kernel.as_matrix(a0, (dom.dim, dom.dim))
        self.tol = tol

    @property
    def dim(self) -> int:
        return self.dom.ambient_dim

    @property
    def mul(self) -> Subspace:
        return self.dom.complement()

    @cached_property
    def rel(self) -> LinearRelation:
        """The graph: A0 on the domain plus ``{0} x mul``."""
        return LinearRelation.from_operator_and_mul(
            self.dom, self.op_compressed, self.mul, tol=self.tol)

    @cached_property
    def op_ambient(self) -> np.ndarray:
        """Operator part extended by zero off the domain."""
        u = self.dom.basis
        return u @ self.op_compressed @ u.conj().T

    def __repr__(self):
        return (
            f"NonnegSelfAdjointRelation(dim={self.dim}, dom_dim={self.dom.dim}, "
            f"mul_dim={self.mul.dim})"
        )

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """One ``eigh`` of A0's Hermitian part: the root and the norm read it."""
        return np.linalg.eigh(kernel.hermitian_part(self.op_compressed))

    @cached_property
    def norm(self) -> float:
        """Operator norm of A0, its largest eigenvalue in absolute value."""
        return float(np.abs(self._eigh[0]).max(initial=0.0))

    @cached_property
    def _sqrt(self) -> "NonnegSelfAdjointRelation":
        # kernel.psd_sqrt(A0), its checks included, on the eigh already taken
        kernel._require_hermitian(self.op_compressed, self.tol)
        root = kernel._psd_root_from_eigh(*self._eigh, self.tol)[0]
        return NonnegSelfAdjointRelation(self.dom, root, self.tol)

    def sqrt(self) -> "NonnegSelfAdjointRelation":
        """Square root: operator root of A0 plus the untouched mul part."""
        return self._sqrt

    @cached_property
    def sqrt_ambient(self) -> np.ndarray:
        """Root of the operator part extended by zero off the domain."""
        return self._sqrt.op_ambient

    def scale(self, c: float) -> "NonnegSelfAdjointRelation":
        """Nonnegative scaling c * A0 plus the untouched mul part.

        At c = 0 this is the zero operator on the domain together with the
        multivalued part, which stays selfadjoint; plain graph scaling would
        drop the mul and leave the selfadjoint class.  A negative or
        non-finite factor, or an overflowing product, raises ``ValueError``.
        """
        c = float(c)
        if not 0.0 <= c < np.inf:
            raise ValueError(f"scale factor must be nonnegative and finite, got {c}")
        with np.errstate(over="ignore"):  # the constructor rejects an inf entry
            return NonnegSelfAdjointRelation(self.dom, c * self.op_compressed, self.tol)

    def to_matrix(self) -> np.ndarray:
        """Full matrix when the relation is an everywhere-defined operator."""
        if self.dom.dim != self.dim:
            raise DimensionMismatchError(
                "relation is not an everywhere-defined operator"
            )
        return self.op_ambient


def validate(t: LinearRelation) -> NonnegSelfAdjointRelation:
    """Certify that a relation is nonnegative selfadjoint.

    Checks, in order: the relation is square; it equals its adjoint within
    the projector gap tolerance; the compressed operator part is Hermitian
    with spectrum above ``-eq_abs``, all under ``t.tol``.  Returns the
    certified form, which keeps ``t`` as its graph and its tolerance.
    """
    tol = t.tol
    if t.dim_in != t.dim_out:
        raise DimensionMismatchError(
            f"selfadjointness needs a square relation, got ({t.dim_in},{t.dim_out})"
        )
    gap = t.graph_gap(t.adjoint())
    if gap > tol.eq_abs:
        raise NotSelfAdjointError(f"adjoint gap {gap:.3e} exceeds eq_abs")
    dec = t.operator_part()
    comp = dec.compressed()
    anti = comp - comp.conj().T
    # eq_abs is the least the bound can be, so a defect within it passes
    if not kernel.opnorm_within(anti, tol.eq_abs):
        herm_defect = kernel.opnorm(anti)
        if herm_defect > tol.eq_abs * (1.0 + kernel.opnorm(comp)):
            raise NotSelfAdjointError(
                f"operator part is not Hermitian (defect {herm_defect:.3e})"
            )
    form = kernel.hermitian_part(comp)
    if form.shape[0]:
        w = np.linalg.eigvalsh(form)
        if float(w[0]) < -tol.eq_abs:
            raise NotNonnegativeError(
                f"form eigenvalue {float(w[0]):.3e} below -eq_abs", witness=float(w[0])
            )
    # selfadjointness forces mul = dom-perp; a failure here is a kernel bug
    if not dec.mul.equals(dec.domain.complement(), tol):
        raise InternalInconsistencyError("mul differs from the domain complement")
    out = NonnegSelfAdjointRelation(dec.domain, form, tol)
    out.rel = t
    return out


def _root_gram(a: NonnegSelfAdjointRelation, basis: np.ndarray) -> np.ndarray:
    """Gram matrix of A's root on the given orthonormal column vectors."""
    c = a.dom.basis.conj().T @ basis
    return kernel.hermitian_part(c.conj().T @ a.op_compressed @ c)


def leq_report(a: NonnegSelfAdjointRelation,
               b: NonnegSelfAdjointRelation) -> tuple[bool, float]:
    """Form order test A <= B with a defect size.

    Returns ``(holds, defect)``.  The defect is 0.0 when the order holds;
    otherwise it is the larger of the domain containment defect and the
    normalized amount by which the Gram difference fails to be PSD.  The
    test runs under ``a.tol``.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError("relations live in different spaces")
    tol = a.tol
    dom_defect = a.dom.containment_defect(b.dom)
    if dom_defect > tol.eq_abs:
        return False, float(dom_defect)
    diff = kernel.hermitian_part(b.op_compressed - _root_gram(a, b.dom.basis))
    if diff.shape[0] == 0:
        return True, 0.0
    wmin = float(np.linalg.eigvalsh(diff)[0])
    scale = 1.0 + b.norm
    if wmin >= -tol.eq_abs * scale:
        return True, 0.0
    return False, -wmin / scale


def leq(a: NonnegSelfAdjointRelation, b: NonnegSelfAdjointRelation) -> bool:
    """Form order A <= B.

    Requires dom(B root) inside dom(A root) and the Gram matrix of B's root
    to dominate that of A's root there.  The PSD test allows eigenvalues down
    to ``-eq_abs * (1 + ||G_B||)``.
    """
    holds, _ = leq_report(a, b)
    return holds


def order_contraction(a: NonnegSelfAdjointRelation,
                      b: NonnegSelfAdjointRelation) -> np.ndarray:
    """The contraction W with W (B root) = (A root) on dom(B root).

    Returned as a full ambient matrix supported on dom(B), vanishing on the
    orthogonal complement of ran(B root) inside dom(B).  Singular values are
    clipped at 1: the exact interpolant is a contraction, so any excess is
    roundoff.  Raises :class:`OrderViolatedError` when not A <= B.
    """
    if not leq(a, b):
        raise OrderViolatedError("order_contraction requires A <= B")
    mb = b.sqrt_ambient
    ma = a.sqrt_ambient
    target = ma @ b.dom.projector
    w = target @ kernel.pseudo_inverse(mb, a.tol)
    if w.size:
        u, s, vh = np.linalg.svd(w, full_matrices=False)
        w = u @ (np.minimum(s, 1.0)[:, None] * vh)
    return w


def gram_with_diagnostics(t: LinearRelation):
    """Compute T* T and the residuals of the identities it must satisfy.

    Returns ``(validated product, diagnostics dict)``.  The identities: the
    product is unchanged when T is replaced by its operator part on the
    right, or both factors by their operator parts; its kernel is ker(T); its
    multivalued part is mul(T*); and its operator part is the product of the
    factors' operator parts.  Everything runs under ``t.tol``.
    """
    adj = t.adjoint()
    product = adj.compose(t)
    out = validate(product)

    t0 = t.operator_part().as_relation()
    adj0 = adj.operator_part().as_relation()

    diagnostics = {
        "with_op_right": product.graph_gap(adj.compose(t0)),
        "op_with_op": product.graph_gap(t0.adjoint().compose(t0)),
        "kernel": out.rel.ker.gap(t.ker),
        "mul": out.rel.mul.gap(adj.mul),
        "op_parts": product.operator_part().as_relation().graph_gap(adj0.compose(t0)),
    }
    return out, diagnostics


def gram(t: LinearRelation) -> NonnegSelfAdjointRelation:
    """T* T, validated; raises on any identity residual above ``t.tol``."""
    out, diagnostics = gram_with_diagnostics(t)
    worst = max(diagnostics.values())
    if worst > t.tol.eq_abs:
        name = max(diagnostics, key=diagnostics.get)
        raise InternalInconsistencyError(
            f"gram identity '{name}' residual {diagnostics[name]:.3e} exceeds tolerance"
        )
    return out


def friedrichs(t: LinearRelation) -> NonnegSelfAdjointRelation:
    """Friedrichs extension of a nonnegative symmetric relation.

    In finite dimension the extension has a closed form: project the operator
    part onto the domain and attach the full orthogonal complement of the
    domain as multivalued part.  The result is the unique selfadjoint
    extension whose form domain is the original domain.  It carries
    ``t.tol``, under which every check runs.
    """
    tol = t.tol
    if t.dim_in != t.dim_out:
        raise DimensionMismatchError("symmetric relations must be square")
    adj = t.adjoint()
    if not adj.includes(t):
        defect = adj.graph.containment_defect(t.graph)
        raise NotSymmetricError(f"relation exceeds its adjoint (defect {defect:.3e})")
    dec = t.operator_part()
    form = kernel.hermitian_part(dec.compressed())
    if form.shape[0]:
        wmin = float(np.linalg.eigvalsh(form)[0])
        if wmin < -tol.eq_abs:
            raise NotNonnegativeError(
                f"form eigenvalue {wmin:.3e} below -eq_abs", witness=wmin
            )
    out = NonnegSelfAdjointRelation(dec.domain, form, tol)
    if not out.rel.includes(t):
        raise InternalInconsistencyError("Friedrichs extension does not extend the input")
    return out
