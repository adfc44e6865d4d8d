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

A is stored as its form (dom, A0), so :func:`analyze` computes: D1 and D2
are the slices :func:`require_invariant` reads off one eigendecomposition,
M1 and M2 the parts of S and S-perp orthogonal to them, and A0's blocks,
their roots, V1, V2, g and Dg are matrices over dom(A), D1 and D2, never
n x n.  The ambient V1, V2, g, Dg and the corner relations, each its block
of A0 plus the mul slice on its output side, are built on first use.
:func:`operator_block` certifies the split and the corners by the relation
calculus.  This module records the residuals of every identity it relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    multivalued part into ``m1, m2``; ``e1, e2`` are the bases of ``d1, d2``
    in the coordinates of A's domain basis U.  Coordinate blocks
    ``a0, b0, c0, d0`` = Ei* A0 Ej express A's operator part over ``d1`` and
    ``d2``, and ``a0_root, d0_root`` are the roots of ``a0`` and ``d0``
    there.  V1 = U ``p1`` (D1 ``q1``)*, with ``q1`` spanning its initial
    space in D1 coordinates, and V2 likewise; ``g_c`` is g = V1* V2 on
    D1 x D2 and ``dg_c`` is Dg on D2 (1 on M2).  ``tol`` is the relation's.

    Built on first use: the ambient matrices ``v1, v2, g, dg``, the ambient
    roots ``a0_sqrt, d0_sqrt``, the corner relations ``a, b, c, d`` (the
    blocks in the ambient space plus the mul slice on their output side) and
    their roots ``a_sqrt, d_sqrt``.
    """

    relation: NonnegSelfAdjointRelation
    s: Subspace
    s_perp: Subspace
    d1: Subspace
    d2: Subspace
    m1: Subspace
    m2: Subspace
    e1: np.ndarray
    e2: np.ndarray
    a0: np.ndarray
    b0: np.ndarray
    c0: np.ndarray
    d0: np.ndarray
    a0_root: np.ndarray
    d0_root: np.ndarray
    p1: np.ndarray
    q1: np.ndarray
    p2: np.ndarray
    q2: np.ndarray
    g_c: np.ndarray
    dg_c: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def tol(self) -> Tolerances:
        return self.relation.tol

    def _corner(self, dom: Subspace, images: np.ndarray,
                mul: Subspace) -> LinearRelation:
        return LinearRelation.from_images_and_mul(dom, images, mul, tol=self.tol)

    @cached_property
    def v1(self) -> np.ndarray:
        return self.relation.dom.basis @ self.p1 @ (self.d1.basis @ self.q1).conj().T

    @cached_property
    def v2(self) -> np.ndarray:
        return self.relation.dom.basis @ self.p2 @ (self.d2.basis @ self.q2).conj().T

    @cached_property
    def g(self) -> np.ndarray:
        return self.d1.basis @ self.g_c @ self.d2.basis.conj().T

    @cached_property
    def dg(self) -> np.ndarray:
        return self.d2.basis @ self.dg_c @ self.d2.basis.conj().T + self.m2.projector

    @cached_property
    def a0_sqrt(self) -> np.ndarray:
        return self.d1.basis @ self.a0_root @ self.d1.basis.conj().T

    @cached_property
    def d0_sqrt(self) -> np.ndarray:
        return self.d2.basis @ self.d0_root @ self.d2.basis.conj().T

    # a and d are principal compressions of a PSD form, so they and their
    # roots are nonnegative selfadjoint by construction
    @cached_property
    def a(self) -> LinearRelation:
        return self._corner(self.d1, self.d1.basis @ self.a0, self.m1)

    @cached_property
    def b(self) -> LinearRelation:
        return self._corner(self.d2, self.d1.basis @ self.b0, self.m1)

    @cached_property
    def c(self) -> LinearRelation:
        return self._corner(self.d1, self.d2.basis @ self.c0, self.m2)

    @cached_property
    def d(self) -> LinearRelation:
        return self._corner(self.d2, self.d2.basis @ self.d0, self.m2)

    @cached_property
    def a_sqrt(self) -> LinearRelation:
        return self._corner(self.d1, self.d1.basis @ self.a0_root, self.m1)

    @cached_property
    def d_sqrt(self) -> LinearRelation:
        return self._corner(self.d2, self.d2.basis @ self.d0_root, self.m2)


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


def _partial_isometry(w: np.ndarray, q: np.ndarray, e: np.ndarray,
                      root: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial isometry sending (corner root) h to (A root) h, as ``(p, q)``.

    ``w, q`` are the eigenpairs of the corner block, cut as its root cuts
    them, so the returned ``q`` (eigenvalue nonzero) spans the initial space.
    ``e`` (the slice's basis) and ``root`` (A0's) are in dom(A) coordinates.
    The images ``root e q``, scaled back by the root eigenvalues, are
    orthonormal in exact arithmetic; their polar factor ``p`` restores exact
    isometry, which keeps contractions at norm <= 1 for ill-conditioned
    corners.
    """
    keep = w > 0.0
    q = q[:, keep]
    return kernel.nearest_isometry(root @ e @ q / np.sqrt(w[keep])), q


def analyze(a_rel: NonnegSelfAdjointRelation, s: Subspace) -> BlockRepresentation:
    """Decompose a nonnegative selfadjoint relation along S + S-perp.

    Requires the orthogonal projection onto ``s`` to leave dom(A) invariant;
    raises :class:`InvarianceViolatedError` with a witness vector otherwise.
    D1 and D2 are the slices :func:`require_invariant` returns, and M1, M2
    the parts of S and S-perp orthogonal to them: complete QRs, so no rank
    is decided and D1 + D2 = dom(A), M1 + M2 = mul(A) by construction.
    Computes the blocks, their roots, V1, V2, g and Dg over dom(A), D1 and
    D2 off A's form and A0's root, with a diagnostics dict of identity
    residuals, and forms no n x n matrix.  :func:`operator_block` certifies
    the corners and the split.  Every rank decision runs under ``a_rel.tol``.
    """
    big, tol = a_rel, a_rel.tol
    if s.ambient_dim != big.dim:
        raise ComponentMismatchError("subspace must live in the relation's space")
    d1, d2 = require_invariant(big.dom, s, tol)
    sp = s.complement()
    # mul(A) = dom(A)-perp splits as dom(A) does
    m1 = Subspace(big.dim, s.basis @ kernel.full_complement(s.basis.conj().T @ d1.basis))
    m2 = Subspace(big.dim, sp.basis @ kernel.full_complement(sp.basis.conj().T @ d2.basis))

    u_h, op = big.dom.basis.conj().T, big.op_compressed
    e1, e2 = u_h @ d1.basis, u_h @ d2.basis
    a0, b0, c0, d0 = (x.conj().T @ op @ y for x, y in
                      ((e1, e1), (e1, e2), (e2, e1), (e2, e2)))

    # one eigendecomposition per diagonal block gives its root and the
    # partial isometry below
    a0_root, *a_eig = kernel._psd_root_and_eigh(a0, tol)
    d0_root, *d_eig = kernel._psd_root_and_eigh(d0, tol)
    root = big.sqrt().op_compressed
    p1, q1 = _partial_isometry(*a_eig, e1, root)
    p2, q2 = _partial_isometry(*d_eig, e2, root)

    # g = V1* V2 on D1 x D2; it vanishes on M2, where Dg is the identity
    g_c = q1 @ (p1.conj().T @ p2) @ q2.conj().T
    dg_c = kernel.psd_sqrt(np.eye(d2.dim, dtype=np.complex128) - g_c.conj().T @ g_c, tol)

    rep = BlockRepresentation(
        relation=big, s=s, s_perp=sp, d1=d1, d2=d2, m1=m1, m2=m2, e1=e1, e2=e2,
        a0=a0, b0=b0, c0=c0, d0=d0, a0_root=a0_root, d0_root=d0_root,
        p1=p1, q1=q1, p2=p2, q2=q2, g_c=g_c, dg_c=dg_c,
    )
    # V1 a0^{1/2} = A^{1/2} on D1, read in U coordinates; likewise V2
    rep.diagnostics["v1_intertwines"] = kernel.opnorm(p1 @ q1.conj().T @ a0_root - root @ e1)
    rep.diagnostics["v2_intertwines"] = kernel.opnorm(p2 @ q2.conj().T @ d0_root - root @ e2)
    rep.diagnostics["g_norm_excess"] = max(0.0, kernel.opnorm(g_c) - 1.0)
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
    """Coordinate blocks of A's operator part, with the split and corners certified.

    The slices of :func:`analyze` are compared with what they split: D1 + D2
    with dom(A) (``dom_split``), M1 + M2 with mul(A) (``mul_split``),
    D1 + M1 with S (``s_split``) and D2 + M2 with S-perp (``s_perp_split``).
    The corners are assembled back into a relation and compared with A
    (``assemble_roundtrip``), and each is rebuilt by its definition P_S A|_S,
    .., P_Sp A|_Sp in the relation calculus and compared with the corner
    read off the form (``a_decomposed`` .. ``d_decomposed``).  The gaps are
    stored in the representation's diagnostics; one above ``eq_abs`` raises
    :class:`InternalInconsistencyError`.  Returns (a0, b0, c0, d0).
    """
    s, sp, big, tol = rep.s, rep.s_perp, rep.relation, rep.tol
    a_rel = big.rel
    on_s, on_sp = a_rel.restrict(s), a_rel.restrict(sp)
    # each pair lies in S and S-perp, or in dom(A) and its complement
    gaps = {
        "dom_split": _orthogonal_sum(rep.d1, rep.d2, tol).gap(big.dom),
        "mul_split": _orthogonal_sum(rep.m1, rep.m2, tol).gap(big.mul),
        "s_split": _orthogonal_sum(rep.d1, rep.m1, tol).gap(s),
        "s_perp_split": _orthogonal_sum(rep.d2, rep.m2, tol).gap(sp),
        "assemble_roundtrip": assemble(rep.a, rep.b, rep.c, rep.d, s).graph_gap(a_rel),
        "a_decomposed": on_s.map_output(s.projector).graph_gap(rep.a),
        "b_decomposed": on_sp.map_output(s.projector).graph_gap(rep.b),
        "c_decomposed": on_s.map_output(sp.projector).graph_gap(rep.c),
        "d_decomposed": on_sp.map_output(sp.projector).graph_gap(rep.d),
    }
    rep.diagnostics.update(gaps)
    name = max(gaps, key=gaps.get)
    if gaps[name] > tol.eq_abs:
        raise InternalInconsistencyError(
            f"block decomposition '{name}' gap {gaps[name]:.3e} exceeds tolerance"
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
