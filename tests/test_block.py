"""Block decomposition along an invariant subspace and its reassembly."""

from dataclasses import replace

import numpy as np
import pytest

from linrel import block, kernel
from linrel.block import analyze, assemble, factorize, operator_block, reconstruct_b, reconstruct_c
from linrel.errors import ComponentMismatchError, InternalInconsistencyError, InvarianceViolatedError
from linrel.generator import InstanceSpec, generate
from linrel.kernel import Tolerances
from linrel.nonneg import friedrichs, gram, validate
from linrel.relation import LinearRelation, identity_relation, mul_only, zero_operator_on
from linrel.schur import certify, schur_analysis
from linrel.subspace import Subspace

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
SPAN_E1 = Subspace.span([E1], 2)
SPAN_E2 = Subspace.span([E2], 2)
SQ2 = np.sqrt(2.0)
CORNERS = {"a", "b", "c", "d", "a_sqrt", "d_sqrt"}
AMBIENT = {"v1", "v2", "g", "dg", "a0_sqrt", "d0_sqrt"}
# proper domain and nontrivial multivalued part: every slice is nonzero
SPLIT_SPEC = InstanceSpec(ambient_dim=6, s_dim=3, d1_dim=2, d2_dim=2, seed=1)


def _op_on(domain, images):
    return LinearRelation.from_images_and_mul(
        domain, np.array(images, dtype=complex),
        Subspace.zero(domain.ambient_dim))


def _e2_relation():
    return validate(LinearRelation.from_matrix(
        np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)))


def _e3_relation():
    return validate(LinearRelation.from_operator_and_mul(
        SPAN_E1, np.eye(1, dtype=complex), SPAN_E2))


def test_assemble_identity_from_corners():
    a = _op_on(SPAN_E1, [[1.0], [0.0]])
    b = _op_on(SPAN_E2, [[0.0], [0.0]])
    c = _op_on(SPAN_E1, [[0.0], [0.0]])
    d = _op_on(SPAN_E2, [[0.0], [1.0]])
    assert assemble(a, b, c, d, SPAN_E1).equals(identity_relation(2))


def test_assemble_dense_matrix():
    a = _op_on(SPAN_E1, [[2.0], [0.0]])
    b = _op_on(SPAN_E2, [[1.0], [0.0]])
    c = _op_on(SPAN_E1, [[0.0], [1.0]])
    d = _op_on(SPAN_E2, [[0.0], [1.0]])
    expected = LinearRelation.from_matrix(np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex))
    assert assemble(a, b, c, d, SPAN_E1).equals(expected)


def test_assemble_with_mul_corner():
    a = zero_operator_on(SPAN_E1, 2)
    b = _op_on(SPAN_E2, [[0.0], [0.0]])
    c = _op_on(SPAN_E1, [[0.0], [0.0]])
    d = mul_only(SPAN_E2, 2)
    out = assemble(a, b, c, d, SPAN_E1)
    assert out.dom.equals(SPAN_E1)
    assert out.mul.equals(SPAN_E2)
    assert out.image(SPAN_E1).equals(SPAN_E2)


def test_assemble_rejects_misplaced_corner():
    good = _op_on(SPAN_E1, [[1.0], [0.0]])
    with pytest.raises(ComponentMismatchError):
        assemble(good, identity_relation(2), good, good, SPAN_E1)
    with pytest.raises(ComponentMismatchError):
        assemble(good, good, good, identity_relation(3), SPAN_E1)


def test_analyze_identity():
    rep = analyze(validate(identity_relation(2)), SPAN_E1)
    assert rep.d1.equals(SPAN_E1) and rep.d2.equals(SPAN_E2)
    assert rep.m1.dim == 0 and rep.m2.dim == 0
    assert np.allclose(rep.a0, [[1.0]]) and np.allclose(rep.d0, [[1.0]])
    assert np.allclose(rep.b0, [[0.0]]) and np.allclose(rep.c0, [[0.0]])
    assert np.allclose(rep.g, np.zeros((2, 2)), atol=1e-12)


def test_analyze_dense_matrix_contraction():
    rep = analyze(_e2_relation(), SPAN_E1)
    assert rep.a.equals(_op_on(SPAN_E1, [[2.0], [0.0]]))
    assert rep.b.equals(_op_on(SPAN_E2, [[1.0], [0.0]]))
    assert rep.c.equals(_op_on(SPAN_E1, [[0.0], [1.0]]))
    assert rep.d.equals(_op_on(SPAN_E2, [[0.0], [1.0]]))
    assert abs(rep.g[0, 1] - 1.0 / SQ2) < 1e-12
    assert max(rep.diagnostics.values()) < 1e-10


def test_analyze_with_mul():
    rep = analyze(_e3_relation(), SPAN_E1)
    assert rep.d1.equals(SPAN_E1)
    assert rep.d2.dim == 0
    assert rep.m1.dim == 0
    assert rep.m2.equals(SPAN_E2)
    assert np.allclose(rep.g, np.zeros((2, 2)), atol=1e-12)
    # the S-side corner is 1 on span{e1}; the far corner is pure mul
    assert rep.a.equals(_op_on(SPAN_E1, [[1.0], [0.0]]))
    assert rep.d.equals(mul_only(SPAN_E2, 2))


def test_operator_block_values():
    rep = analyze(_e2_relation(), SPAN_E1)
    a0, b0, c0, d0 = operator_block(rep)
    assert np.allclose(a0, [[2.0]]) and np.allclose(b0, [[1.0]])
    assert np.allclose(c0, [[1.0]]) and np.allclose(d0, [[1.0]])

    rep = analyze(_e3_relation(), SPAN_E1)
    a0, b0, c0, d0 = operator_block(rep)
    assert np.allclose(a0, [[1.0]])
    assert d0.shape == (0, 0)


def test_reconstruct_off_diagonal_corners():
    for rel in (_e2_relation(), _e3_relation(), validate(identity_relation(2))):
        rep = analyze(rel, SPAN_E1)
        assert reconstruct_b(rep).graph_gap(rep.b) < 1e-10
        assert reconstruct_c(rep).graph_gap(rep.c) < 1e-10


def test_factorize_identity():
    rep = analyze(validate(identity_relation(2)), SPAN_E1)
    w, z = factorize(rep)
    assert np.allclose(w, np.eye(2), atol=1e-12)
    assert z.equals(identity_relation(2))


def test_factorize_dense_matrix():
    rep = analyze(_e2_relation(), SPAN_E1)
    w, z = factorize(rep)
    assert np.allclose(w, [[1.0, 1.0 / SQ2], [0.0, 1.0 / SQ2]], atol=1e-12)
    assert z.equals(LinearRelation.from_matrix(np.diag([SQ2, 1.0]).astype(complex)))
    column = LinearRelation.from_matrix(w).compose(z)
    assert np.allclose(gram(column).to_matrix(), [[2.0, 1.0], [1.0, 1.0]], atol=1e-10)


def test_factorize_block_diagonal():
    a = validate(LinearRelation.from_matrix(np.diag([3.0, 7.0]).astype(complex)))
    rep = analyze(a, SPAN_E1)
    assert np.allclose(rep.g, np.zeros((2, 2)), atol=1e-12)
    w, z = factorize(rep)
    assert np.allclose(w, np.eye(2), atol=1e-12)
    assert z.equals(LinearRelation.from_matrix(np.diag([np.sqrt(3.0), np.sqrt(7.0)])))


def test_partial_isometry_cuts_at_the_shared_rank(monkeypatch):
    tol = Tolerances(rank_rel=2e-10, eq_abs=2e-8)
    calls = []
    original = kernel.rank_cutoff

    def counting(s, tol_arg):
        calls.append(tol_arg)
        return original(s, tol_arg)

    monkeypatch.setattr(kernel, "rank_cutoff", counting)
    root = np.diag([2.0, 1.0, 0.0]).astype(complex)
    frame = np.eye(3, 2, dtype=complex)
    corner = frame.conj().T @ root @ root @ frame
    # the corner's eigenpairs are cut once, as its root cuts them
    _, *eig = kernel._psd_root_and_eigh(corner, tol)
    p, q = block._partial_isometry(*eig, frame, root)
    assert calls == [tol] and calls[0] is tol
    w = p @ (frame @ q).conj().T
    # an isometry on span{e1, e2}, zero on e3
    assert np.allclose(w.conj().T @ w, np.diag([1.0, 1.0, 0.0]), atol=1e-13)


def test_analyze_requires_invariance():
    diag = Subspace.span([np.array([1.0, 1.0], dtype=complex)], 2)
    tilted = friedrichs(_op_on(diag, np.array([[1.0], [1.0]]) / SQ2))
    with pytest.raises(InvarianceViolatedError):
        analyze(tilted, SPAN_E1)


def break_roundtrip(monkeypatch):
    """Make :func:`assemble` return the orthogonal complement of its graph.

    For a selfadjoint A that complement is the rotated graph J G(A), which
    meets G(A) only in zero, so the round-trip gap reads 1.
    """
    real = block.assemble

    def misassembled(*args):
        rel = real(*args)
        return LinearRelation(rel.dim_in, rel.dim_out, rel.graph.complement(), tol=rel.tol)

    monkeypatch.setattr(block, "assemble", misassembled)


def test_schur_analysis_builds_no_corner_relation(monkeypatch):
    def refuse(*args):
        raise AssertionError("the round-trip belongs to operator_block")

    monkeypatch.setattr(block, "assemble", refuse)
    res = schur_analysis(*generate(SPLIT_SPEC))
    assert CORNERS & set(vars(res.rep)) == set()
    # the Gram products of certify build the corner roots in S and S-perp
    # coordinates, not as ambient relations
    certify(res)
    assert CORNERS & set(vars(res.rep)) == set()


@pytest.mark.parametrize("spec", [SPLIT_SPEC, InstanceSpec(6, 3, 3, 3, seed=1)])
def test_schur_analysis_builds_no_ambient_matrix(spec):
    # the block analysis and both closed forms run in the coordinates of
    # dom(A), D1 and D2; the n x n matrices wait for a consumer that reads them
    a, s = generate(spec)
    res = schur_analysis(a, s)
    assert AMBIENT & set(vars(res.rep)) == set()
    assert {"op_ambient", "sqrt_ambient"} & set(vars(a)) == set()


def test_ambient_matrices_keep_the_paper_identities(battery_analyses):
    for _, a, _, rep, _ in battery_analyses:
        root, p_sp = a.sqrt_ambient, rep.s_perp.projector
        # V1 a^{1/2} = A^{1/2} on D1, V2 d^{1/2} = A^{1/2} on D2
        assert kernel.opnorm((rep.v1 @ rep.a0_sqrt - root) @ rep.d1.projector) <= 1e-12
        assert kernel.opnorm((rep.v2 @ rep.d0_sqrt - root) @ rep.d2.projector) <= 1e-12
        assert kernel.opnorm(rep.g - rep.v1.conj().T @ rep.v2) <= 1e-12
        # Dg is the defect root of g on S-perp
        defect = rep.dg @ rep.dg - (p_sp - rep.g.conj().T @ rep.g)
        assert kernel.opnorm(defect @ p_sp) <= 1e-12
        assert kernel.opnorm(rep.g) <= 1.0 + 1e-12


def test_operator_block_certifies_the_roundtrip(monkeypatch):
    rep = analyze(*generate(SPLIT_SPEC))
    operator_block(rep)
    assert rep.diagnostics["assemble_roundtrip"] <= 1e-12
    break_roundtrip(monkeypatch)
    with pytest.raises(InternalInconsistencyError, match="assemble_roundtrip"):
        operator_block(analyze(*generate(SPLIT_SPEC)))


def _drop_first_column(x):
    return Subspace(x.ambient_dim, x.basis[:, 1:])


@pytest.mark.parametrize("side", ["dom", "mul"])
def test_analyze_raises_on_a_split_that_misses_part_of_the_relation(monkeypatch, side):
    # analyze's S-perp slice of dom(A) or mul(A) loses a direction, so
    # D1 + D2 or M1 + M2 no longer spans it and the corners could not
    # regenerate A; operator_block names the split that misses it
    a, s = generate(SPLIT_SPEC)
    if side == "dom":
        real = block.require_invariant

        def lossy(m, s_arg, tol):
            d1, d2 = real(m, s_arg, tol)
            return d1, _drop_first_column(d2)

        monkeypatch.setattr(block, "require_invariant", lossy)
        rep = analyze(a, s)
    else:
        rep = analyze(a, s)
        rep = replace(rep, m2=_drop_first_column(rep.m2))
    with pytest.raises(InternalInconsistencyError, match=f"{side}_split"):
        operator_block(rep)


def test_block_invariants_on_battery(battery_analyses):
    for _, a, s, rep, _ in battery_analyses[:30]:
        # the corners read off the form regenerate A and match their
        # definitions
        operator_block(rep)
        assert rep.diagnostics["assemble_roundtrip"] < 1e-8
        for name in "abcd":
            assert rep.diagnostics[f"{name}_decomposed"] <= 1e-8
        assert rep.diagnostics["g_norm_excess"] <= 1e-10
        # the slices of dom(A) and mul(A) are those the rank decisions of
        # Subspace.intersect find, and mul is projection invariant
        assert rep.d1.equals(s.intersect(a.dom))
        assert rep.d2.equals(rep.s_perp.intersect(a.dom))
        assert rep.m1.equals(s.intersect(a.mul))
        assert rep.m2.equals(rep.s_perp.intersect(a.mul))
        assert a.mul.contains(a.mul.apply(s.projector))
        # the c corner is the component adjoint of the b corner
        assert rep.b.adjoint_between(rep.s_perp, rep.s).includes(rep.c)
        # transposing the corners reassembles the adjoint, which is A itself
        flipped = assemble(
            rep.a.adjoint_between(rep.s, rep.s),
            rep.c.adjoint_between(rep.s, rep.s_perp),
            rep.b.adjoint_between(rep.s_perp, rep.s),
            rep.d.adjoint_between(rep.s_perp, rep.s_perp),
            s)
        assert flipped.graph_gap(a.rel) < 1e-8


def test_reconstruction_on_battery(battery_analyses):
    for _, _, _, rep, _ in battery_analyses[:30]:
        assert reconstruct_b(rep).graph_gap(rep.b) < 1e-8
        assert reconstruct_c(rep).graph_gap(rep.c) < 1e-8
