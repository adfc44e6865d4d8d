"""Block representation of a nonnegative selfadjoint relation along S + S-perp.

Given a closed subspace S whose orthogonal projection leaves the domain of A
invariant, the domain and multivalued part split as dom(A) = D1 + D2 and
mul(A) = M1 + M2 with D1, M1 inside S and D2, M2 inside the complement.  The
four corner relations obtained by restricting A and projecting its values

    a = P_S A|_S,   b = P_S A|_Sp,   c = P_Sp A|_S,   d = P_Sp A|_Sp

regenerate A: the block assembly of (a, b, c, d) equals A, and the diagonal
corners are nonnegative selfadjoint within their component spaces.  The
off-diagonal corners are controlled by one contraction: partial isometries
V1, V2 identify the roots of the diagonal corners with the root of A's
operator part, g = V1* V2 is a contraction from S-perp into S that vanishes
on M2, and

    b = a^(1/2) g d^(1/2)|_D2,   c = d^(1/2) g* a^(1/2)|_D1.

Its defect root Dg = (1 - g* g)^(1/2) on S-perp is the identity on M2.

A is stored as its form (dom, A0), so the corners are read off it: each is
its coordinate block of A0 over D1, D2 plus the mul slice on its output
side, and the roots of a and d are those of their blocks.  The relation
calculus only certifies them (:func:`assemble`, :func:`operator_block`).
This module records the residuals of every identity it relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import ComponentMismatchError, InternalInconsistencyError
from .kernel import Tolerances
from .nonneg import NonnegSelfAdjointRelation
from .relation import LinearRelation
from .subspace import Subspace, _orthogonal_sum, require_invariant

__all__ = ["BlockRepresentation", "assemble", "analyze", "operator_block", "factorize"]


@dataclass
class BlockRepresentation:
    """All structure extracted from one (relation, subspace) pair.

    Subspaces: ``s`` and its complement split the domain into ``d1, d2``, the
    multivalued part into ``m1, m2``.  Coordinate blocks ``a0, b0, c0, d0``
    express A's operator part in the bases of ``d1`` and ``d2``; the corner
    relations ``a, b, c, d`` are these blocks in the ambient space plus the
    mul slice on their output side, and ``a_sqrt, d_sqrt, a0_sqrt, d0_sqrt``
    come from the roots of ``a0`` and ``d0``.  The matrices ``v1, v2, g, dg``
    are ambient-sized, supported on the component subspaces.  ``tol`` is the
    relation's.
    """

    relation: NonnegSelfAdjointRelation
    s: Subspace
    s_perp: Subspace
    d1: Subspace
    d2: Subspace
    m1: Subspace
    m2: Subspace
    a: LinearRelation
    b: LinearRelation
    c: LinearRelation
    d: LinearRelation
    a0: np.ndarray
    b0: np.ndarray
    c0: np.ndarray
    d0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    a_sqrt: LinearRelation
    d_sqrt: LinearRelation
    a0_sqrt: np.ndarray
    d0_sqrt: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def tol(self) -> Tolerances:
        return self.relation.tol


def _check_component(rel: LinearRelation, dom_space: Subspace, ran_space: Subspace,
                     name: str, tol: Tolerances):
    gin = rel.graph.basis[: rel.dim_in]
    gout = rel.graph.basis[rel.dim_in:]
    outside_in = gin - dom_space.projector @ gin
    outside_out = gout - ran_space.projector @ gout
    if not (kernel.opnorm_within(outside_in, tol.eq_abs)
            and kernel.opnorm_within(outside_out, tol.eq_abs)):
        din, dout = kernel.opnorm(outside_in), kernel.opnorm(outside_out)
        raise ComponentMismatchError(
            f"block '{name}' leaves its component product "
            f"(input defect {din:.3e}, output defect {dout:.3e})"
        )


def assemble(a: LinearRelation, b: LinearRelation, c: LinearRelation,
             d: LinearRelation, s: Subspace) -> LinearRelation:
    """Relation generated by a 2x2 block of relations along S + S-perp.

    The result pairs x = x1 + x2 with y = (w1 + z1) + (w2 + z2) where
    (x1, w1) in a, (x2, z1) in b, (x1, w2) in c, (x2, z2) in d.  Its domain
    is (dom a meet dom c) + (dom b meet dom d) and its multivalued part is
    (mul a + mul b) + (mul c + mul d).  It is built under ``a.tol``.
    """
    n, tol = s.ambient_dim, a.tol
    for rel in (a, b, c, d):
        if rel.dim_in != n or rel.dim_out != n:
            raise ComponentMismatchError("blocks must be relations on the ambient space")
    sp = s.complement()
    _check_component(a, s, s, "a", tol)
    _check_component(b, sp, s, "b", tol)
    _check_component(c, s, sp, "c", tol)
    _check_component(d, sp, sp, "d", tol)

    ga, gb, gc, gd = (r.graph.basis for r in (a, b, c, d))
    ra, rb, rc, rd = (g.shape[1] for g in (ga, gb, gc, gd))
    # shared inputs: the S-input of a and c agree, likewise b and d in
    # S-perp, so each agreement reads in the coordinates of its component;
    # the two constraints share no coefficient, so their joint kernel is the
    # direct sum of the two kernels
    ac = kernel.null_space(s.basis.conj().T @ np.hstack([ga[:n], -gc[:n]]), tol)
    bd = kernel.null_space(sp.basis.conj().T @ np.hstack([gb[:n], -gd[:n]]), tol)
    ca, cc = ac[:ra], ac[ra:]
    cb, cd = bd[:rb], bd[rb:]
    x = np.hstack([ga[:n] @ ca, gb[:n] @ cb])
    y = np.hstack([ga[n:] @ ca + gc[n:] @ cc, gb[n:] @ cb + gd[n:] @ cd])
    basis = kernel.orthonormal_columns(np.vstack([x, y]), tol)
    return LinearRelation(n, n, Subspace(2 * n, basis), tol=tol)


def _partial_isometry(w: np.ndarray, q: np.ndarray, frame: np.ndarray,
                      root_ambient: np.ndarray) -> np.ndarray:
    """Partial isometry sending (corner root) h to (A root) h on the frame.

    ``w, q`` are the eigenpairs of the compressed PSD corner block in the
    ``frame`` coordinates, cut as the corner root cuts them, so the
    eigenvectors with nonzero eigenvalue span the root's initial space;
    their images under the ambient root, scaled back by the root
    eigenvalues, are orthonormal in exact arithmetic.  A polar correction
    restores exact isometry, which keeps downstream contractions at norm
    <= 1 even for ill-conditioned corners.
    """
    n = root_ambient.shape[0]
    keep = w > 0.0
    if not np.any(keep):
        return np.zeros((n, n), dtype=np.complex128)
    initial = frame @ q[:, keep]
    images = (root_ambient @ initial) / np.sqrt(w[keep])
    return kernel.nearest_isometry(images) @ initial.conj().T


def analyze(a_rel: NonnegSelfAdjointRelation, s: Subspace) -> BlockRepresentation:
    """Decompose a nonnegative selfadjoint relation along S + S-perp.

    Requires the orthogonal projection onto ``s`` to leave dom(A) invariant;
    raises :class:`InvarianceViolatedError` with a witness vector otherwise.
    The returned representation carries every derived object plus a
    diagnostics dict of identity residuals; the corners, read off A's form,
    are assembled and checked against A before returning.  Every rank
    decision runs under ``a_rel.tol``.
    """
    big, tol = a_rel, a_rel.tol
    if s.ambient_dim != big.dim:
        raise ComponentMismatchError("subspace must live in the relation's space")
    invariance = require_invariant(big.dom, s, tol)
    sp = s.complement()

    d1, d2 = invariance.slices
    m1 = s.intersect(big.mul, tol)
    m2 = sp.intersect(big.mul, tol)

    # each pair lies in S and S-perp, or in dom(A) and its complement
    diagnostics = {
        "dom_split": invariance.residuals[1],
        "mul_split": _orthogonal_sum(m1, m2, tol).gap(big.mul),
        "s_split": _orthogonal_sum(d1, m1, tol).gap(s),
        "s_perp_split": _orthogonal_sum(d2, m2, tol).gap(sp),
    }

    op_amb = big.op_ambient
    b1, b2 = d1.basis, d2.basis
    a0 = b1.conj().T @ op_amb @ b1
    b0 = b1.conj().T @ op_amb @ b2
    c0 = b2.conj().T @ op_amb @ b1
    d0 = b2.conj().T @ op_amb @ b2

    # a and d are principal compressions of a PSD form, so they and their
    # roots are nonnegative selfadjoint by construction
    def corner(dom, images, mul):
        return LinearRelation.from_images_and_mul(dom, images, mul, tol=tol)

    # one eigendecomposition per diagonal block gives its root and the
    # partial isometry below
    a0_root, *a_eig = kernel._psd_root_and_eigh(a0, tol)
    d0_root, *d_eig = kernel._psd_root_and_eigh(d0, tol)
    a_sqrt = corner(d1, b1 @ a0_root, m1)
    d_sqrt = corner(d2, b2 @ d0_root, m2)
    a0_sqrt = b1 @ a0_root @ b1.conj().T
    d0_sqrt = b2 @ d0_root @ b2.conj().T

    root_amb = big.sqrt_ambient
    v1 = _partial_isometry(*a_eig, b1, root_amb)
    v2 = _partial_isometry(*d_eig, b2, root_amb)
    diagnostics["v1_intertwines"] = kernel.opnorm((v1 @ a0_sqrt - root_amb) @ b1)
    diagnostics["v2_intertwines"] = kernel.opnorm((v2 @ d0_sqrt - root_amb) @ b2)

    g = v1.conj().T @ v2
    gc = s.basis.conj().T @ g @ sp.basis
    dg_c = kernel.psd_sqrt(np.eye(sp.dim, dtype=np.complex128) - gc.conj().T @ gc, tol)
    dg = sp.basis @ dg_c @ sp.basis.conj().T
    diagnostics["g_norm_excess"] = max(0.0, kernel.opnorm(g) - 1.0)

    rep = BlockRepresentation(
        relation=big, s=s, s_perp=sp, d1=d1, d2=d2, m1=m1, m2=m2,
        a=corner(d1, b1 @ a0, m1), b=corner(d2, b1 @ b0, m1),
        c=corner(d1, b2 @ c0, m2), d=corner(d2, b2 @ d0, m2),
        a0=a0, b0=b0, c0=c0, d0=d0, v1=v1, v2=v2, g=g, dg=dg,
        a_sqrt=a_sqrt, d_sqrt=d_sqrt, a0_sqrt=a0_sqrt, d0_sqrt=d0_sqrt,
        diagnostics=diagnostics,
    )

    assembled = assemble(rep.a, rep.b, rep.c, rep.d, s)
    diagnostics["assemble_roundtrip"] = assembled.graph_gap(big.rel)
    if diagnostics["assemble_roundtrip"] > tol.eq_abs:
        raise InternalInconsistencyError(
            f"block corners do not regenerate the relation "
            f"(gap {diagnostics['assemble_roundtrip']:.3e})"
        )
    return rep


def reconstruct_b(rep: BlockRepresentation) -> LinearRelation:
    """The relation a^(1/2) g d^(1/2)|_D2, which must equal corner b."""
    chain = rep.d_sqrt.restrict(rep.d2).map_output(rep.g)
    return rep.a_sqrt.compose(chain)


def reconstruct_c(rep: BlockRepresentation) -> LinearRelation:
    """The relation d^(1/2) g* a^(1/2)|_D1, which must equal corner c."""
    chain = rep.a_sqrt.restrict(rep.d1).map_output(rep.g.conj().T)
    return rep.d_sqrt.compose(chain)


def operator_block(rep: BlockRepresentation) -> tuple[np.ndarray, ...]:
    """Coordinate blocks of A's operator part, with the corners certified.

    :func:`analyze` reads the corners off the form.  Here each is rebuilt by
    its definition in the relation calculus, P_S A|_S, P_S A|_Sp, P_Sp A|_S
    and P_Sp A|_Sp, and compared with the corner read off the form.  The
    graph gaps are stored in the representation's diagnostics as
    ``a_decomposed`` .. ``d_decomposed``; one above ``eq_abs`` raises
    :class:`InternalInconsistencyError`.  Returns (a0, b0, c0, d0).
    """
    s, sp = rep.s, rep.s_perp
    on_s, on_sp = rep.relation.rel.restrict(s), rep.relation.rel.restrict(sp)
    gaps = {
        "a_decomposed": on_s.map_output(s.projector).graph_gap(rep.a),
        "b_decomposed": on_sp.map_output(s.projector).graph_gap(rep.b),
        "c_decomposed": on_s.map_output(sp.projector).graph_gap(rep.c),
        "d_decomposed": on_sp.map_output(sp.projector).graph_gap(rep.d),
    }
    rep.diagnostics.update(gaps)
    name = max(gaps, key=gaps.get)
    if gaps[name] > rep.tol.eq_abs:
        raise InternalInconsistencyError(
            f"corner decomposition '{name}' gap {gaps[name]:.3e} exceeds tolerance"
        )
    return rep.a0, rep.b0, rep.c0, rep.d0


def factorize(rep: BlockRepresentation) -> tuple[np.ndarray, LinearRelation]:
    """Column-operator factorization A = (W Z)* (W Z).

    Z is the diagonal relation acting as the root of a0 on D1 and the root of
    d0 on D2; W is the upper-triangular matrix with identity on D1, the
    contraction g in the corner and the defect root Dg on D2.  The product
    of the adjoint flips reproduces A; the residual is recorded and enforced.
    """
    tol = rep.tol
    big = rep.relation
    m_z = rep.a0_sqrt + rep.d0_sqrt
    z = LinearRelation.from_images_and_mul(
        big.dom, m_z @ big.dom.basis, Subspace.zero(big.dim), tol=tol
    )
    w = rep.d1.projector + rep.g + rep.dg @ rep.d2.projector
    wz = z.map_output(w)
    product = wz.adjoint().compose(wz)
    gap = product.graph_gap(big.rel)
    rep.diagnostics["factorize_gap"] = gap
    if gap > tol.eq_abs:
        raise InternalInconsistencyError(
            f"(WZ)*(WZ) differs from the relation (gap {gap:.3e})"
        )
    return w, z
