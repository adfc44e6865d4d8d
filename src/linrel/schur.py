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
  a^{1/2} P_S + g d^{1/2} P_{S-perp} restricted to dom(A).

Each comes with independent cross-checks computed along the way: an
alternative matrix expression for T* T, the single-row matrix expression for
the compression, range and multivalued-part identities, and form-order
domination by A.  On top of that the module offers membership and maximality
sampling for the extremal characterization of the complement, a projection
formula routed through the square root of A, the additive decomposition
A = compression + complement, and the classical shorted-matrix formula for
everywhere-defined PSD matrices as a fully independent oracle.
"""

from __future__ import annotations

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
from .relation import LinearRelation, mul_only, zero_operator_on
from .subspace import Subspace

__all__ = [
    "SchurResult",
    "schur_analysis",
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
    it.  ``diagnostics`` holds the residuals of every identity checked
    during construction.
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
        image = sqrt_rel.image(a_rel.dom, tol)
        projected = Subspace(a_rel.dim, kernel.orthonormal_columns(
            self.l_space.projector @ image.basis, tol))
        return float(sqrt_rel.dom.containment_defect(projected))


def schur_analysis(a_rel: NonnegSelfAdjointRelation, s: Subspace,
                   tol: Tolerances | None = None) -> SchurResult:
    """Build complement and compression of ``a_rel`` by the subspace ``s``.

    Requires dom(A) invariant under the projection onto S (checked by the
    block analysis).  Raises :class:`InternalInconsistencyError` when any
    identity that is automatic in finite dimension fails numerically.
    """
    tol = tol or a_rel.tol
    rep = analyze(a_rel, s, tol)
    sp = rep.s_perp
    diag: dict = {}

    # far block: T = Dg d^{1/2}, then T* T computed in S-perp coordinates
    t_rel = rep.d_sqrt.map_output(rep.dg, tol)
    t_op = rep.dg @ rep.d0_sqrt
    t_c = t_rel.compress_to(sp, sp, tol)
    tt_c, tt_diag = gram_with_diagnostics(t_c, tol)
    worst_tt = max(tt_diag.values()) if tt_diag else 0.0
    diag["far_gram_identities"] = float(worst_tt)
    if worst_tt > tol.eq_abs:
        raise InternalInconsistencyError(
            f"Gram identities of the far corner failed: residual {worst_tt:.3e}"
        )
    tt = tt_c.rel.embed_from(sp, sp)

    # alternative expression: d0^{1/2} Dg (Dg d0^{1/2} on the far slice),
    # componentwise-summed with the pure multivalued part over M2
    alt_inner = LinearRelation.from_images_and_mul(
        rep.d2, t_op @ rep.d2.basis, Subspace.zero(a_rel.dim), tol=tol)
    alt = (alt_inner.map_output(rep.d0_sqrt @ rep.dg, tol)
           .cw_sum(mul_only(rep.m2, tol=tol), tol))
    diag["far_gram_alt_gap"] = float(tt.graph_gap(alt))

    # complement: the orthogonal sum of zero on S and T* T on the far block
    schur = NonnegSelfAdjointRelation(
        Subspace(a_rel.dim, np.hstack([rep.s.basis, sp.basis @ tt_c.dom.basis])),
        np.pad(tt_c.op_compressed, (rep.s.dim, 0)), tol)
    diag["schur_ran_outside_far"] = float(sp.containment_defect(schur.rel.ran))
    ok, below = leq_report(schur, a_rel, tol)
    diag["schur_below_defect"] = float(below)
    if not ok:
        raise InternalInconsistencyError(
            f"complement is not dominated by the relation: defect {below:.3e}"
        )

    # compression: Gram product of the row a^{1/2} P_S + g d^{1/2} P_{S-perp}
    r1 = rep.a_sqrt.pull_input(rep.s.projector, tol).restrict(a_rel.dom, tol)
    r2 = (rep.d_sqrt.pull_input(sp.projector, tol)
          .map_output(rep.g, tol)
          .restrict(a_rel.dom, tol))
    row = r1.add(r2, tol)
    diag["row_mul_gap"] = float(row.mul.gap(rep.m1))
    comp_c, comp_diag = gram_with_diagnostics(row, tol)
    worst_row = max(comp_diag.values()) if comp_diag else 0.0
    diag["compression_gram_identities"] = float(worst_row)
    if worst_row > tol.eq_abs:
        raise InternalInconsistencyError(
            f"Gram identities of the row relation failed: residual {worst_row:.3e}"
        )
    compression = comp_c

    # single-matrix expression for the compression
    s_op = rep.a0_sqrt + rep.g @ rep.d0_sqrt
    sxs = kernel.hermitian_part(s_op.conj().T @ s_op)
    comp_alt = LinearRelation.from_images_and_mul(
        a_rel.dom, sxs @ a_rel.dom.basis, a_rel.mul, tol=tol)
    diag["compression_alt_gap"] = float(compression.rel.graph_gap(comp_alt))
    diag["compression_mul_gap"] = float(compression.mul.gap(a_rel.mul))
    diag["compression_dom_defect"] = float(
        compression.dom.containment_defect(a_rel.dom))
    ok, below = leq_report(compression, a_rel, tol)
    diag["compression_below_defect"] = float(below)
    if not ok:
        raise InternalInconsistencyError(
            f"compression is not dominated by the relation: defect {below:.3e}"
        )

    # pivot space of the projection formula, with its projector identity
    l_space = a_rel.sqrt().rel.image(rep.d1, tol).intersect(a_rel.dom, tol)
    diag["l_projector_gap"] = float(
        kernel.opnorm(l_space.projector - rep.v1 @ rep.v1.conj().T))

    return SchurResult(rep=rep, schur=schur, compression=compression,
                       l_space=l_space, diagnostics=diag)


def schur_complement(a_rel: NonnegSelfAdjointRelation, s: Subspace,
                     tol: Tolerances | None = None) -> NonnegSelfAdjointRelation:
    """The complement of ``a_rel`` by ``s``; see :func:`schur_analysis`."""
    return schur_analysis(a_rel, s, tol).schur


def compress(a_rel: NonnegSelfAdjointRelation, s: Subspace,
             tol: Tolerances | None = None) -> NonnegSelfAdjointRelation:
    """The compression of ``a_rel`` to ``s``; see :func:`schur_analysis`."""
    return schur_analysis(a_rel, s, tol).compression


def is_member(a_rel: NonnegSelfAdjointRelation, s: Subspace,
              x: NonnegSelfAdjointRelation,
              tol: Tolerances | None = None) -> bool:
    """Whether ``x`` competes with the complement of ``a_rel`` by ``s``.

    Membership means: nonnegative selfadjoint (already certified by the
    type), range inside the complement of ``s``, and below ``a_rel`` in the
    form order.  The complement of A by S is the maximum of this set.
    """
    tol = tol or a_rel.tol
    if x.dim != a_rel.dim or s.ambient_dim != a_rel.dim:
        raise DimensionMismatchError("member candidate lives in a different space")
    if s.complement().containment_defect(x.rel.ran) > tol.eq_abs:
        return False
    return leq(x, a_rel, tol)


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
        if not is_member(a_rel, s, x, tol):
            rejected += 1
            continue
        members += 1
        holds, defect = leq_report(x, schur, tol)
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

    Three domain conditions make the route legitimate; in finite dimension
    they always hold, so a failure signals a rank-policy bug and raises
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
    # d^{1/2} g* g d^{1/2} and d^{1/2} Dg^2 d^{1/2} must keep the full far slice
    ghg = rep.g.conj().T @ rep.g
    chain2 = rep.d_sqrt.compose(rep.d_sqrt.map_output(ghg, tol), tol)
    c2 = float(chain2.dom.gap(rep.d2))
    dg2 = rep.dg @ rep.dg
    chain3 = rep.d_sqrt.compose(rep.d_sqrt.map_output(dg2, tol), tol)
    c3 = float(chain3.dom.gap(rep.d2))
    worst = max(c1, c2, c3)
    if worst > tol.eq_abs:
        raise ConditionViolatedError(
            f"projection-route domain condition failed: residual {worst:.3e}"
        )

    n = a_rel.dim
    root_on_dom = sqrt_rel.restrict(a_rel.dom, tol)
    pl = res.l_space.projector

    w = (root_on_dom.map_output(np.eye(n, dtype=np.complex128) - pl, tol)
         .cw_sum(zero_operator_on(rep.m1, tol=tol), tol))
    schur_p, w_diag = gram_with_diagnostics(w, tol)
    v = root_on_dom.map_output(pl, tol)
    comp_p, v_diag = gram_with_diagnostics(v, tol)
    worst_gram = max(list(w_diag.values()) + list(v_diag.values()), default=0.0)
    if worst_gram > tol.eq_abs:
        raise InternalInconsistencyError(
            f"Gram identities of the projection factors failed: {worst_gram:.3e}"
        )

    diag = {
        "condition_residuals": (c1, c2, c3),
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
    total = res.compression.rel.add(res.schur.rel, tol)
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
    """
    m = kernel.as_matrix(matrix)
    n = s.ambient_dim
    if m.shape != (n, n):
        raise DimensionMismatchError(
            f"matrix is {m.shape}, subspace ambient dimension is {n}")
    evals, _ = kernel.hermitian_eig(m, tol)
    if evals.size and float(evals[0]) < -tol.eq_abs * (1.0 + kernel.opnorm(m)):
        raise NotPsdError(f"matrix has eigenvalue {float(evals[0]):.3e}",
                          witness=float(evals[0]))

    b1 = s.basis
    b2 = s.complement().basis
    a = kernel.hermitian_part(b1.conj().T @ m @ b1)
    b = b1.conj().T @ m @ b2
    d = kernel.hermitian_part(b2.conj().T @ m @ b2)
    a_root = kernel.psd_sqrt(a, tol)
    y = kernel.pseudo_apply_inverse(a_root, b, tol)
    core = kernel.hermitian_part(d - y.conj().T @ y)
    return kernel.hermitian_part(b2 @ core @ b2.conj().T)
