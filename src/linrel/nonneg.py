"""Nonnegative selfadjoint relations: validation, roots, form ordering.

A square relation A is selfadjoint when it equals its adjoint, and
nonnegative when the quadratic form of its operator part is positive
semidefinite on the domain.  For such A the operator part A0 is a genuine
Hermitian PSD operator on the closed domain and the multivalued part is the
orthogonal complement of the domain.  The square root keeps the multivalued
part and takes the operator root of A0.

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
from .kernel import DEFAULT_TOL, Tolerances
from .relation import LinearRelation, OperatorPartDecomposition, mul_only
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
    """A validated nonnegative selfadjoint relation plus cached structure.

    Instances are only created by :func:`validate` (or operations that prove
    the property), so holding one is a certificate.  The wrapped relation,
    its operator-part decomposition and the compressed Hermitian form matrix
    are fixed at construction; the square root is computed on first use.
    """

    def __init__(self, rel: LinearRelation, decomposition: OperatorPartDecomposition,
                 tol: Tolerances):
        self.rel = rel
        self.decomposition = decomposition
        self.tol = tol

    @property
    def dim(self) -> int:
        return self.rel.dim_in

    @property
    def dom(self) -> Subspace:
        return self.decomposition.domain

    @property
    def mul(self) -> Subspace:
        return self.decomposition.mul

    @cached_property
    def op_compressed(self) -> np.ndarray:
        """Operator part in domain-basis coordinates; Hermitian PSD."""
        return kernel.hermitian_part(self.decomposition.compressed())

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
    def _sqrt(self) -> "NonnegSelfAdjointRelation":
        root = kernel.psd_sqrt(self.op_compressed, self.tol)
        rel = LinearRelation.from_operator_and_mul(self.dom, root, self.mul, tol=self.tol)
        out = validate(rel, self.tol)
        if not out.dom.equals(self.dom, self.tol) or not out.mul.equals(self.mul, self.tol):
            raise InternalInconsistencyError("square root changed the domain or mul")
        return out

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
        drop the mul and leave the selfadjoint class.
        """
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        rel = LinearRelation.from_operator_and_mul(
            self.dom, c * self.op_compressed, self.mul, tol=self.tol
        )
        return validate(rel, self.tol)

    def to_matrix(self) -> np.ndarray:
        """Full matrix when the relation is an everywhere-defined operator."""
        if self.dom.dim != self.dim or self.mul.dim != 0:
            raise DimensionMismatchError(
                "relation is not an everywhere-defined operator"
            )
        return self.op_ambient


def validate(t: LinearRelation, tol: Tolerances = DEFAULT_TOL) -> NonnegSelfAdjointRelation:
    """Certify that a relation is nonnegative selfadjoint.

    Checks, in order: the relation is square; it equals its adjoint within
    the projector gap tolerance; the compressed operator part is Hermitian
    with spectrum above ``-eq_abs``.  Returns the certified wrapper.
    """
    if t.dim_in != t.dim_out:
        raise DimensionMismatchError(
            f"selfadjointness needs a square relation, got ({t.dim_in},{t.dim_out})"
        )
    gap = t.graph_gap(t.adjoint())
    if gap > tol.eq_abs:
        raise NotSelfAdjointError(f"adjoint gap {gap:.3e} exceeds eq_abs")
    dec = t.operator_part(tol)
    comp = dec.compressed()
    anti = comp - comp.conj().T
    # eq_abs is the least the bound can be, so a defect within it passes
    if not kernel.opnorm_within(anti, tol.eq_abs):
        herm_defect = kernel.opnorm(anti)
        if herm_defect > tol.eq_abs * (1.0 + kernel.opnorm(comp)):
            raise NotSelfAdjointError(
                f"operator part is not Hermitian (defect {herm_defect:.3e})"
            )
    if comp.shape[0]:
        w = np.linalg.eigvalsh(kernel.hermitian_part(comp))
        if float(w[0]) < -tol.eq_abs:
            raise NotNonnegativeError(
                f"form eigenvalue {float(w[0]):.3e} below -eq_abs", witness=float(w[0])
            )
    # selfadjointness forces mul = dom-perp; a failure here is a kernel bug
    if not dec.mul.equals(dec.domain.complement(), tol):
        raise InternalInconsistencyError("mul differs from the domain complement")
    return NonnegSelfAdjointRelation(t, dec, tol)


def _root_gram(a: NonnegSelfAdjointRelation, basis: np.ndarray) -> np.ndarray:
    """Gram matrix of A's root on the given orthonormal column vectors."""
    c = a.dom.basis.conj().T @ basis
    return kernel.hermitian_part(c.conj().T @ a.op_compressed @ c)


def leq_report(a: NonnegSelfAdjointRelation, b: NonnegSelfAdjointRelation,
               tol: Tolerances | None = None) -> tuple[bool, float]:
    """Form order test A <= B with a defect size.

    Returns ``(holds, defect)``.  The defect is 0.0 when the order holds;
    otherwise it is the larger of the domain containment defect and the
    normalized amount by which the Gram difference fails to be PSD.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError("relations live in different spaces")
    tol = tol or a.tol
    dom_defect = a.dom.containment_defect(b.dom)
    if dom_defect > tol.eq_abs:
        return False, float(dom_defect)
    basis = b.dom.basis
    gb = b.op_compressed
    ga = _root_gram(a, basis)
    diff = kernel.hermitian_part(gb - ga)
    if diff.shape[0] == 0:
        return True, 0.0
    wmin = float(np.linalg.eigvalsh(diff)[0])
    slack = tol.eq_abs * (1.0 + kernel.opnorm(gb))
    if wmin >= -slack:
        return True, 0.0
    return False, -wmin / (1.0 + kernel.opnorm(gb))


def leq(a: NonnegSelfAdjointRelation, b: NonnegSelfAdjointRelation,
        tol: Tolerances | None = None) -> bool:
    """Form order A <= B.

    Requires dom(B root) inside dom(A root) and the Gram matrix of B's root
    to dominate that of A's root there.  The PSD test allows eigenvalues down
    to ``-eq_abs * (1 + ||G_B||)``.
    """
    holds, _ = leq_report(a, b, tol)
    return holds


def order_contraction(a: NonnegSelfAdjointRelation, b: NonnegSelfAdjointRelation,
                      tol: Tolerances | None = None) -> np.ndarray:
    """The contraction W with W (B root) = (A root) on dom(B root).

    Returned as a full ambient matrix supported on dom(B), vanishing on the
    orthogonal complement of ran(B root) inside dom(B).  Singular values are
    clipped at 1: the exact interpolant is a contraction, so any excess is
    roundoff.  Raises :class:`OrderViolatedError` when not A <= B.
    """
    tol = tol or a.tol
    if not leq(a, b, tol):
        raise OrderViolatedError("order_contraction requires A <= B")
    mb = b.sqrt_ambient
    ma = a.sqrt_ambient
    target = ma @ b.dom.projector
    w = target @ kernel.pseudo_inverse(mb, tol)
    if w.size:
        u, s, vh = np.linalg.svd(w, full_matrices=False)
        w = u @ (np.minimum(s, 1.0)[:, None] * vh)
    return w


def gram_with_diagnostics(t: LinearRelation, tol: Tolerances = DEFAULT_TOL):
    """Compute T* T and the residuals of the identities it must satisfy.

    Returns ``(validated product, diagnostics dict)``.  The identities: the
    product is unchanged when T is replaced by its operator part on the
    right, or both factors by their operator parts; its kernel is ker(T); its
    multivalued part is mul(T*); and its operator part is the product of the
    factors' operator parts.
    """
    adj = t.adjoint()
    product = adj.compose(t, tol)
    out = validate(product, tol)

    dec = t.operator_part(tol)
    t0 = dec.as_relation(tol)
    adj_dec = adj.operator_part(tol)
    adj0 = adj_dec.as_relation(tol)

    diagnostics = {
        "with_op_right": product.graph_gap(adj.compose(t0, tol)),
        "op_with_op": product.graph_gap(t0.adjoint().compose(t0, tol)),
        "kernel": out.rel.ker.gap(t.ker),
        "mul": out.rel.mul.gap(adj.mul),
        "op_parts": out.decomposition.as_relation(tol).graph_gap(
            adj0.compose(t0, tol)
        ),
    }
    return out, diagnostics


def gram(t: LinearRelation, tol: Tolerances = DEFAULT_TOL) -> NonnegSelfAdjointRelation:
    """T* T, validated; raises on any identity residual above tolerance."""
    out, diagnostics = gram_with_diagnostics(t, tol)
    worst = max(diagnostics.values())
    if worst > tol.eq_abs:
        name = max(diagnostics, key=diagnostics.get)
        raise InternalInconsistencyError(
            f"gram identity '{name}' residual {diagnostics[name]:.3e} exceeds tolerance"
        )
    return out


def friedrichs(t: LinearRelation, tol: Tolerances = DEFAULT_TOL) -> NonnegSelfAdjointRelation:
    """Friedrichs extension of a nonnegative symmetric relation.

    In finite dimension the extension has a closed form: project the operator
    part onto the domain and attach the full orthogonal complement of the
    domain as multivalued part.  The result is the unique selfadjoint
    extension whose form domain is the original domain.
    """
    if t.dim_in != t.dim_out:
        raise DimensionMismatchError("symmetric relations must be square")
    adj = t.adjoint()
    if not adj.includes(t, tol):
        defect = adj.graph.containment_defect(t.graph)
        raise NotSymmetricError(f"relation exceeds its adjoint (defect {defect:.3e})")
    dec = t.operator_part(tol)
    form = kernel.hermitian_part(dec.compressed())
    if form.shape[0]:
        wmin = float(np.linalg.eigvalsh(form)[0])
        if wmin < -tol.eq_abs:
            raise NotNonnegativeError(
                f"form eigenvalue {wmin:.3e} below -eq_abs", witness=wmin
            )
    extension = dec.as_relation(tol).cw_sum(mul_only(dec.domain.complement(), tol=tol), tol)
    out = validate(extension, tol)
    if not extension.includes(t, tol):
        raise InternalInconsistencyError("Friedrichs extension does not extend the input")
    return out
