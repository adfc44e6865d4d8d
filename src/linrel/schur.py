"""Schur complement and compression of a nonnegative selfadjoint relation
with respect to a decomposing subspace.

Everything starts from the block analysis of the relation A over the subspace
S (see :mod:`linrel.block`): corner roots, the contraction g between them,
and the defect roots.  Two objects are produced, both nonnegative
selfadjoint on the same space:

* the complement of A by S, supported in the complement of S.  It vanishes
  on S and on the far side equals the Gram product T* T of the relation
  T = Dg d^{1/2} with domain the far domain slice;
* the compression of A to S, the Gram product of the row relation
  a^{1/2} P_S + g d^{1/2} P_{S-perp} on dom(A).

:func:`schur_analysis` computes both by the paper's closed forms, as forms
(dom, A0) read off the block analysis: the complement is d^{1/2}(1 - g* g)
d^{1/2} on D2 and zero on S, with M2 as its multivalued part, and the
compression is (a^{1/2} P_S + g d^{1/2} P_{S-perp})* (a^{1/2} P_S + g d^{1/2}
P_{S-perp}) on dom(A).  It checks the range of the complement and the
form-order domination of both results by A, and raises when a result is not
below A.  The block analysis builds no corner relation on this path: the
corners and their round-trip through A are certified by
:func:`linrel.block.operator_block`.

:func:`certify` checks the closed forms against their definitions in the
relation calculus.  Each construction runs on the isometric copy of its
graph inside the component product that holds it: T and T* T inside S-perp
x S-perp, the row from dom(A) into S.  Projector gaps, kernels and ranks do
not change under the isometric embedding, so every certificate reads the
same fact it would read on the ambient graph, at the size of the component.

On top of that the module offers membership and maximality sampling for the
extremal characterization of the complement, a projection formula routed
through the square root of A, the additive decomposition A = compression +
complement, and the classical shorted-matrix formula for everywhere-defined
PSD matrices as a fully independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernel
from .block import BlockRepresentation, analyze
from .errors import (
    ConditionViolatedError,
    DimensionMismatchError,
    InternalInconsistencyError,
    NotPsdError,
)
from .generator import random_psd, rng_for
from .kernel import DEFAULT_TOL, Tolerances
from .nonneg import (
    NonnegSelfAdjointRelation,
    gram_with_diagnostics,
    leq,
    leq_report,
)
from .relation import LinearRelation, zero_operator_on
from .subspace import Subspace

__all__ = [
    "SchurResult",
    "schur_analysis",
    "certify",
    "schur_complement",
    "compress",
    "is_member",
    "MaximalityReport",
    "maximality_probe",
    "PekarevResult",
    "pekarev",
    "AdditiveDecomposition",
    "additive_decomposition",
    "anderson_trapp",
]


@dataclass
class SchurResult:
    """Complement, compression, and the data connecting them.

    ``rep`` is the block analysis of A over S; its ``relation``, ``s`` and
    ``tol`` are the inputs every consumer of this result reads.
    ``l_space`` is the closure of the image of the near domain slice under
    the root of A, intersected with dom(A); the projection formula pivots on
    it.  It is read off the form as U ran(sqrt(A0) U* P_D1), since the root
    maps D1 to U sqrt(A0) U* D1 plus mul(A), orthogonal to dom(A) = ran U.
    ``diagnostics`` holds the residuals of every identity checked by
    :func:`schur_analysis`, and of those checked by :func:`certify` once it
    has run.
    """

    rep: BlockRepresentation
    schur: NonnegSelfAdjointRelation
    compression: NonnegSelfAdjointRelation
    l_space: Subspace
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def projected_root_image_defect(self) -> float:
        """How far P_L of the root's image over dom(A) sticks out of dom(root)."""
        a_rel, tol = self.rep.relation, self.rep.tol
        sqrt_rel = a_rel.sqrt().rel
        image = sqrt_rel.image(a_rel.dom)
        projected = Subspace(a_rel.dim, kernel.orthonormal_columns(
            self.l_space.projector @ image.basis, tol))
        return float(sqrt_rel.dom.containment_defect(projected))


def schur_analysis(a_rel: NonnegSelfAdjointRelation, s: Subspace) -> SchurResult:
    """Complement and compression of ``a_rel`` by the subspace ``s``, in closed form.

    Both results are forms read off the block analysis, no n x n matrix
    formed: the complement is zero on S and d0^{1/2} Dg^2 d0^{1/2} on D2,
    with M2 as its multivalued part; the compression is R* R on dom(A), with
    R = a0^{1/2} E1* + g d0^{1/2} E2*.  The cheap certificates run here:
    range of the complement, domination of both results by A, and the
    projector of L.  The relation-calculus certificates are :func:`certify`'s.

    Raises :class:`InvarianceViolatedError` when dom(A) is not invariant
    under the projection onto S, :class:`ComponentMismatchError` when ``s``
    lives in another space, and :class:`InternalInconsistencyError` when a
    result is not dominated by A.  Every rank decision runs under
    ``a_rel.tol``, and both results carry it.
    """
    tol = a_rel.tol
    rep = analyze(a_rel, s)
    sp, b2 = rep.s_perp, rep.d2.basis
    n, k = a_rel.dim, a_rel.dom.dim
    diag: dict = {}

    # complement: the orthogonal sum of zero on S and the far block
    # d0^{1/2} Dg^2 d0^{1/2} on D2; its domain complement is M2
    far = kernel.hermitian_part(rep.d0_root @ rep.dg_c @ rep.dg_c @ rep.d0_root)
    schur = NonnegSelfAdjointRelation(
        Subspace(n, np.hstack([s.basis, b2])), np.pad(far, (s.dim, 0)), tol)
    far_range = np.hstack([b2 @ kernel.orthonormal_columns(far, tol), schur.mul.basis])
    diag["schur_ran_outside_far"] = float(sp.containment_defect(Subspace(n, far_range)))
    ok, below = leq_report(schur, a_rel)
    diag["schur_below_defect"] = float(below)
    if not ok:
        raise InternalInconsistencyError(
            f"complement is not dominated by the relation: defect {below:.3e}"
        )

    # compression: the Gram matrix of the row a^{1/2} P_S + g d^{1/2} P_Sp
    # on dom(A), everywhere defined there, so mul(A) is its multivalued part
    row = rep.a0_root @ rep.e1.conj().T + rep.g_c @ rep.d0_root @ rep.e2.conj().T
    compression = NonnegSelfAdjointRelation(
        a_rel.dom, kernel.hermitian_part(row.conj().T @ row), tol)
    ok, below = leq_report(compression, a_rel)
    diag["compression_below_defect"] = float(below)
    if not ok:
        raise InternalInconsistencyError(
            f"compression is not dominated by the relation: defect {below:.3e}"
        )

    # pivot space of the projection formula, with its projector identity:
    # the root's image of D1 is U sqrt(A0) E1 plus mul(A), and the
    # intersection with dom(A) keeps the first term; V1's range is U ran(p1)
    l_basis = kernel.orthonormal_columns(a_rel.sqrt().op_compressed @ rep.e1, tol)
    l_space = Subspace(n, a_rel.dom.basis @ l_basis)
    diag["l_projector_gap"] = float(Subspace(k, l_basis).gap(Subspace(k, rep.p1)))

    return SchurResult(rep=rep, schur=schur, compression=compression,
                       l_space=l_space, diagnostics=diag)


def certify(res: SchurResult) -> SchurResult:
    """Certify the results of :func:`schur_analysis` by the relation calculus.

    Builds both results by their definitions, in the coordinates of the
    component product that holds each: the far factor T = Dg d^{1/2} and
    T* T inside S-perp x S-perp, and the row a^{1/2} P_S + g d^{1/2} P_Sp
    from dom(A) into S with its Gram product.  Records in ``res.diagnostics``
    the Gram identity residuals (``far_gram_identities``,
    ``compression_gram_identities``), the row's multivalued part against M1
    (``row_mul_gap``), and the graph gaps between each Gram product and the
    returned result in the same coordinates (``far_gram_alt_gap``,
    ``compression_alt_gap``).

    Raises :class:`InternalInconsistencyError` when a Gram identity residual
    exceeds ``eq_abs``, and the errors of :func:`validate` when a Gram
    product fails to validate.  Returns ``res``.
    """
    rep = res.rep
    s, sp, tol = rep.s, rep.s_perp, rep.tol
    u = rep.relation.dom.basis
    s_h, sp_h = s.basis.conj().T, sp.basis.conj().T
    diag = res.diagnostics

    # the slices and the roots of the diagonal corners in S and S-perp coordinates
    d1_c, m1_c = (Subspace(s.dim, s_h @ x.basis) for x in (rep.d1, rep.m1))
    d2_c, m2_c = (Subspace(sp.dim, sp_h @ x.basis) for x in (rep.d2, rep.m2))
    a_sqrt_c = LinearRelation.from_images_and_mul(d1_c, d1_c.basis @ rep.a0_root, m1_c, tol=tol)
    d_sqrt_c = LinearRelation.from_images_and_mul(d2_c, d2_c.basis @ rep.d0_root, m2_c, tol=tol)

    # far block: T = Dg d^{1/2} and T* T, in S-perp coordinates
    t_c = d_sqrt_c.map_output(sp_h @ rep.dg @ sp.basis)
    tt_c, tt_diag = gram_with_diagnostics(t_c)
    worst_tt = max(tt_diag.values()) if tt_diag else 0.0
    diag["far_gram_identities"] = float(worst_tt)
    if worst_tt > tol.eq_abs:
        raise InternalInconsistencyError(
            f"Gram identities of the far corner failed: residual {worst_tt:.3e}"
        )

    # the returned complement on D2, with M2 as its multivalued part
    far = LinearRelation.from_images_and_mul(
        d2_c, sp_h @ res.schur.op_ambient @ rep.d2.basis, m2_c, tol=tol)
    diag["far_gram_alt_gap"] = float(tt_c.rel.graph_gap(far))

    # compression: Gram product of the row a^{1/2} P_S + g d^{1/2} P_{S-perp}
    # from dom(A) into S, in the coordinates of both
    r1 = a_sqrt_c.pull_input(s_h @ u)
    r2 = d_sqrt_c.map_output(s_h @ rep.g @ sp.basis).pull_input(sp_h @ u)
    row = r1.add(r2)
    diag["row_mul_gap"] = float(row.mul.gap(m1_c))
    comp_c, comp_diag = gram_with_diagnostics(row)
    worst_row = max(comp_diag.values()) if comp_diag else 0.0
    diag["compression_gram_identities"] = float(worst_row)
    if worst_row > tol.eq_abs:
        raise InternalInconsistencyError(
            f"Gram identities of the row relation failed: residual {worst_row:.3e}"
        )

    # the returned compression, everywhere defined in dom(A) coordinates
    k = u.shape[1]
    comp = LinearRelation.from_images_and_mul(
        Subspace.full(k), u.conj().T @ res.compression.op_ambient @ u,
        Subspace.zero(k), tol=tol)
    diag["compression_alt_gap"] = float(comp_c.rel.graph_gap(comp))
    return res


def schur_complement(a_rel: NonnegSelfAdjointRelation,
                     s: Subspace) -> NonnegSelfAdjointRelation:
    """The complement of ``a_rel`` by ``s``, in closed form.

    Raises what :func:`schur_analysis` raises; the relation-calculus
    certificates of :func:`certify` do not run.
    """
    return schur_analysis(a_rel, s).schur


def compress(a_rel: NonnegSelfAdjointRelation, s: Subspace) -> NonnegSelfAdjointRelation:
    """The compression of ``a_rel`` to ``s``, in closed form.

    Raises what :func:`schur_analysis` raises; the relation-calculus
    certificates of :func:`certify` do not run.
    """
    return schur_analysis(a_rel, s).compression


def _form_range(x: NonnegSelfAdjointRelation) -> Subspace:
    """The range U ran(A0) + U-perp of a form, rank under ``x.tol``."""
    return Subspace(x.dim, np.hstack([
        x.dom.basis @ kernel.orthonormal_columns(x.op_compressed, x.tol),
        x.mul.basis]))


def is_member(a_rel: NonnegSelfAdjointRelation, s: Subspace,
              x: NonnegSelfAdjointRelation) -> bool:
    """Whether ``x`` competes with the complement of ``a_rel`` by ``s``.

    Membership means: nonnegative selfadjoint (already certified by the
    type), range inside the complement of ``s``, and below ``a_rel`` in the
    form order.  The complement of A by S is the maximum of this set.  The
    range U ran(A0) + U-perp is read off the form (rank under ``x.tol``) and
    tested under ``a_rel.tol``, the order under ``x.tol``.
    """
    if x.dim != a_rel.dim or s.ambient_dim != a_rel.dim:
        raise DimensionMismatchError("member candidate lives in a different space")
    if s.complement().containment_defect(_form_range(x)) > a_rel.tol.eq_abs:
        return False
    return leq(x, a_rel)


@dataclass(frozen=True)
class MaximalityReport:
    """Outcome of sampling the membership set against the complement."""

    samples: int
    members: int
    rejected: int
    violations: tuple[int, ...]
    worst_defect: float

    @property
    def ok(self) -> bool:
        return not self.violations


def maximality_probe(res: SchurResult, *, seed: int = 0,
                     samples: int = 20) -> MaximalityReport:
    """Sample candidate members and check each against the complement.

    Even samples scale the complement's single-valued part by a factor in
    [0, 1], so they are members by construction and must stay below the
    complement.  Odd samples draw a random PSD matrix supported on the
    complement of S and are filtered through :func:`is_member`; every
    accepted one must also sit below the complement in the form order.
    """
    a_rel, s, tol = res.rep.relation, res.rep.s, res.rep.tol
    sp = res.rep.s_perp
    schur = res.schur
    scale_cap = float(kernel.opnorm(a_rel.op_compressed)) + 1.0
    full = Subspace.full(a_rel.dim)

    members = 0
    rejected = 0
    violations: list[int] = []
    worst = 0.0
    for i in range(samples):
        rng = rng_for(seed, i)
        if i % 2 == 0:
            x = schur.scale(float(rng.uniform(0.0, 1.0)))
        else:
            lam = float(rng.uniform(0.0, scale_cap))
            m = random_psd(rng, sp.dim, scale=lam)
            x = NonnegSelfAdjointRelation(full, sp.basis @ m @ sp.basis.conj().T, tol)
        if not is_member(a_rel, s, x):
            rejected += 1
            continue
        members += 1
        holds, defect = leq_report(x, schur)
        if not holds:
            violations.append(i)
            worst = max(worst, float(defect))
    return MaximalityReport(samples=samples, members=members, rejected=rejected,
                            violations=tuple(violations), worst_defect=worst)


@dataclass
class PekarevResult:
    """Complement and compression computed through the root of A.

    Both are Gram products of one factor: for the complement the factor is
    (1 - P_L) composed with the root of A on dom(A), completed by zero
    across the part of S inside the multivalued part; for the
    compression the factor is P_L composed with the root on dom(A).  P_L
    projects onto ``l_space``.  The ``diagnostics`` record the gaps against
    the block-formula results.
    """

    schur: NonnegSelfAdjointRelation
    compression: NonnegSelfAdjointRelation
    l_space: Subspace
    diagnostics: dict = field(default_factory=dict)


def pekarev(res: SchurResult) -> PekarevResult:
    """Projection route to the complement and compression.

    Two domain conditions make the route legitimate: P_L keeps the root's
    image over dom(A) inside dom(root), and g* g maps D2 into D2, so that
    d^{1/2} g* g d^{1/2} keeps D2 as domain.  Then so does d^{1/2} Dg^2
    d^{1/2}, as Dg^2 = P_Sp - g* g on S-perp.  The second reads
    ``||(P_Sp - P_D2) g* g P_D2||``, unitless as ||g|| <= 1.  In finite
    dimension both hold, so a failure signals a rank-policy bug and raises
    :class:`ConditionViolatedError`.  The resulting relations are compared
    against the block formula; the gaps land in the diagnostics.  A, S and
    the tolerances are those ``res`` was built with.

    The complement factor is completed by zero on the intersection of S
    with the multivalued part.  Taking closures does exactly this completion
    when the domain is dense; here the completion is explicit, and without
    it the Gram product would miss that slice of the complement's domain.
    """
    rep = res.rep
    a_rel, tol = rep.relation, rep.tol
    sqrt_rel = a_rel.sqrt().rel

    # P_L of the root's image over dom(A) must stay inside dom(root)
    c1 = res.projected_root_image_defect
    # g* g must map D2 into D2: no part of D2 may land in M2
    far_mul = rep.s_perp.projector - rep.d2.projector
    c2 = kernel.opnorm(far_mul @ rep.g.conj().T @ rep.g @ rep.d2.projector)
    worst = max(c1, c2)
    if worst > tol.eq_abs:
        raise ConditionViolatedError(
            f"projection-route domain condition failed: residual {worst:.3e}"
        )

    n = a_rel.dim
    root_on_dom = sqrt_rel.restrict(a_rel.dom)
    pl = res.l_space.projector

    w = (root_on_dom.map_output(np.eye(n, dtype=np.complex128) - pl)
         .cw_sum(zero_operator_on(rep.m1, tol=tol)))
    schur_p, w_diag = gram_with_diagnostics(w)
    v = root_on_dom.map_output(pl)
    comp_p, v_diag = gram_with_diagnostics(v)
    worst_gram = max(list(w_diag.values()) + list(v_diag.values()), default=0.0)
    if worst_gram > tol.eq_abs:
        raise InternalInconsistencyError(
            f"Gram identities of the projection factors failed: {worst_gram:.3e}"
        )

    diag = {
        "condition_residuals": (c1, c2),
        "schur_gap": float(schur_p.rel.graph_gap(res.schur.rel)),
        "compression_gap": float(comp_p.rel.graph_gap(res.compression.rel)),
    }
    return PekarevResult(schur=schur_p, compression=comp_p,
                         l_space=res.l_space, diagnostics=diag)


@dataclass
class AdditiveDecomposition:
    """The splitting A = compression + complement with its validity record.

    ``verified`` is True when the two domain conditions and the sum identity
    all hold within tolerance; ``conditions`` maps each check to its
    residual.
    """

    compression: NonnegSelfAdjointRelation
    schur: NonnegSelfAdjointRelation
    verified: bool
    conditions: dict
    sum_gap: float


def additive_decomposition(res: SchurResult) -> AdditiveDecomposition:
    """Split A into its compression to S plus its complement.

    The splitting is valid exactly when dom(A) lies in the domain of the
    compression and the projection onto the pivot space keeps the root's
    image over dom(A) inside the root's domain; in finite dimension both
    always hold and the relation sum reproduces A.  A, S and the tolerances
    are those ``res`` was built with.
    """
    a_rel, tol = res.rep.relation, res.rep.tol
    c_dom = float(res.compression.dom.containment_defect(a_rel.dom))
    c_image = res.projected_root_image_defect
    total = res.compression.rel.add(res.schur.rel)
    sum_gap = float(total.graph_gap(a_rel.rel))
    conditions = {
        "dom_in_compression_dom": c_dom,
        "projected_root_image_in_dom": c_image,
        "sum_gap": sum_gap,
    }
    verified = max(conditions.values()) <= tol.eq_abs
    return AdditiveDecomposition(compression=res.compression, schur=res.schur,
                                 verified=verified, conditions=conditions,
                                 sum_gap=sum_gap)


def anderson_trapp(matrix, s: Subspace, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Shorted matrix of an everywhere-defined PSD operator to ``s``-perp.

    Classical two-by-two formula: with blocks a, b, d of the matrix over S
    and its complement, the shorted matrix is d - b* a^+ b computed through
    the root of a, returned as a full ambient matrix supported on the
    complement of S.  Completely independent of the relation machinery, so
    it serves as an oracle for the complement of operator instances.

    The formula runs on the matrix scaled by the power of two 2^-k that
    brings its norm into [1/2, 1), and the result is scaled back by 2^k.
    Both scalings are exact and the shorted matrix is scale-equivariant, so
    the absolute floor of the rank cutoffs sees a unit-scale input whatever
    the norm of the matrix.
    """
    m = kernel.as_matrix(matrix)
    n = s.ambient_dim
    if m.shape != (n, n):
        raise DimensionMismatchError(
            f"matrix is {m.shape}, subspace ambient dimension is {n}")
    evals, _ = kernel.hermitian_eig(m, tol)
    norm = kernel.opnorm(m)
    if evals.size and float(evals[0]) < -tol.eq_abs * (1.0 + norm):
        raise NotPsdError(f"matrix has eigenvalue {float(evals[0]):.3e}",
                          witness=float(evals[0]))

    # 2^-k overflows below the normal range, so a subnormal norm is lifted
    # only as far as 2^1021 takes it
    k = max(math.frexp(norm)[1], -1021)
    m = m * 2.0 ** -k
    b1 = s.basis
    b2 = s.complement().basis
    a = kernel.hermitian_part(b1.conj().T @ m @ b1)
    b = b1.conj().T @ m @ b2
    d = kernel.hermitian_part(b2.conj().T @ m @ b2)
    a_root = kernel.psd_sqrt(a, tol)
    y = kernel.pseudo_apply_inverse(a_root, b, tol)
    core = kernel.hermitian_part(d - y.conj().T @ y)
    return kernel.hermitian_part(b2 @ core @ b2.conj().T) * 2.0 ** k
