"""Relation calculus: constructors, derived subspaces, adjoints, products."""

import numpy as np
import pytest

from linrel import kernel
from linrel.errors import DimensionMismatchError, InternalInconsistencyError
from linrel.generator import rng_for
from linrel.kernel import Tolerances
from linrel.relation import LinearRelation, identity_relation, mul_only, zero_operator_on
from linrel.subspace import Subspace

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
SPAN_E1 = Subspace.span([E1], 2)
SPAN_E2 = Subspace.span([E2], 2)


def _shift():
    # the nilpotent shift e2 -> e1
    return LinearRelation.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def _e3():
    # operator 1 on span{e1} together with mul part span{e2}
    return LinearRelation.from_operator_and_mul(SPAN_E1, np.eye(1, dtype=complex), SPAN_E2)


def test_identity_relation_basics():
    t = identity_relation(2)
    assert t.dom.dim == 2 and t.ran.dim == 2
    assert t.ker.dim == 0 and t.mul.dim == 0
    assert t.adjoint().equals(t)


def test_mul_only_and_zero_operator():
    t = mul_only(SPAN_E2)
    assert t.dom.dim == 0 and t.mul.equals(SPAN_E2)
    z = zero_operator_on(SPAN_E1)
    assert z.dom.equals(SPAN_E1)
    assert z.ran.dim == 0 and z.mul.dim == 0


def test_derived_subspaces_of_the_shift():
    t = _shift()
    assert t.dom.dim == 2
    assert t.ran.equals(SPAN_E1)
    assert t.ker.equals(SPAN_E1)
    assert t.mul.dim == 0


def test_graph_rank_nullity():
    for rel in (_shift(), _e3(), identity_relation(2), mul_only(SPAN_E2)):
        assert rel.graph.dim == rel.dom.dim + rel.mul.dim


@pytest.mark.parametrize("norm", [1e9, 1e11, 1e13])
def test_large_images_keep_every_graph_dimension(norm):
    # a cut relative to the largest singular value of the spanning set
    # would drop the unit-sized directions next to an image of this norm
    rng = rng_for(61)
    e = np.eye(4, dtype=complex)
    matrices = [np.diag([norm, 1.0, 0.5]).astype(complex),
                np.diag([norm, 0.0, 0.0]) + rng.standard_normal((3, 3))]
    full, plane, line = Subspace.full(3), Subspace.span(e[:, :2], 4), Subspace.span(e[:, 3:], 4)
    # (domain, ambient images of its basis, mul); images also along mul
    cases = [(full, m, Subspace.zero(3)) for m in matrices] + [
        (plane, norm * e[:, [2, 0]], line),
        (plane, norm * (e[:, [2, 3]] + e[:, [1, 0]]), Subspace.span(e[:, 2:], 4)),
    ]
    rels = [(LinearRelation.from_matrix(m), full, Subspace.zero(3)) for m in matrices]
    rels += [(LinearRelation.from_images_and_mul(dom, images, mul), dom, mul)
             for dom, images, mul in cases]
    for rel, domain, mul in rels:
        g = rel.graph.basis
        assert rel.graph.dim == domain.dim + mul.dim
        assert np.allclose(g.conj().T @ g, np.eye(g.shape[1]), atol=1e-12)


def test_kernel_and_mul_raise_when_the_cut_block_is_not_negligible():
    # under rank_rel = 0.9 the singular value 0.5 of one block is cut, so
    # the other block keeps only 0.75 of its squared norm over that kernel
    tol = Tolerances(rank_rel=0.9)
    pairs = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0], [0.0, 0.75 ** 0.5]], dtype=complex)
    graph = Subspace(4, pairs)
    flipped = Subspace(4, pairs[[2, 3, 0, 1]])
    with pytest.raises(InternalInconsistencyError):
        LinearRelation(2, 2, graph, tol=tol).mul
    with pytest.raises(InternalInconsistencyError):
        LinearRelation(2, 2, flipped, tol=tol).ker
    # under the default rank rule nothing is cut and nothing raises
    rel = LinearRelation(2, 2, graph)
    assert (rel.dom.dim, rel.mul.dim, rel.ker.dim) == (2, 0, 1)
    rel = LinearRelation(2, 2, flipped)
    assert (rel.dom.dim, rel.mul.dim, rel.ker.dim) == (1, 1, 0)


def test_e3_derived_subspaces():
    t = _e3()
    assert t.dom.equals(SPAN_E1)
    assert t.ran.dim == 2
    assert t.ker.dim == 0
    assert t.mul.equals(SPAN_E2)
    # and its graph is exactly span{(e1,e1), (0,e2)}
    expected = LinearRelation.from_graph(
        np.array([[1, 0], [0, 0], [1, 0], [0, 1]], dtype=complex), 2, 2)
    assert t.graph_gap(expected) < 1e-12


def test_adjoint_of_matrix_is_conjugate_transpose():
    t = _shift()
    expected = LinearRelation.from_matrix(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))
    assert t.adjoint().equals(expected)


def test_adjoint_of_pure_mul():
    h = Subspace.full(2)
    t = mul_only(h)
    assert t.adjoint().equals(t)
    assert t.adjoint().mul.equals(t.dom.complement())


def test_adjoint_involution_and_subspace_identities():
    for rel in (_shift(), _e3(), mul_only(SPAN_E2), zero_operator_on(SPAN_E1)):
        adj = rel.adjoint()
        assert adj.adjoint().equals(rel)
        assert adj.mul.gap(rel.dom.complement()) < 1e-12
        assert adj.ker.gap(rel.ran.complement()) < 1e-12


def test_add_semantics():
    t = identity_relation(2)
    assert t.add(t).equals(LinearRelation.from_matrix(2 * np.eye(2, dtype=complex)))
    # adding the zero operator keeps the relation (domains intersect to dom t)
    zero_full = LinearRelation.from_matrix(np.zeros((2, 2), dtype=complex))
    assert _shift().add(zero_full).equals(_shift())
    # domains intersect: identity + (1 on span e1) lives on span e1 only
    on_e1 = LinearRelation.from_operator_and_mul(SPAN_E1, np.eye(1, dtype=complex),
                                                 Subspace.zero(2))
    out = t.add(on_e1)
    assert out.dom.equals(SPAN_E1)
    assert out.image(SPAN_E1).equals(SPAN_E1)


def test_cw_sum_semantics():
    empty = LinearRelation(2, 2, Subspace.zero(4))
    t = _shift()
    assert t.cw_sum(empty).equals(t)
    on_e1 = LinearRelation.from_operator_and_mul(SPAN_E1, np.eye(1, dtype=complex),
                                                 Subspace.zero(2))
    assert on_e1.cw_sum(mul_only(SPAN_E2)).equals(_e3())


def test_compose_known_products():
    t = _shift()
    assert identity_relation(2).compose(t).equals(t)
    product = t.adjoint().compose(t)
    expected = LinearRelation.from_matrix(np.diag([0.0, 1.0]).astype(complex))
    assert product.equals(expected)
    h = mul_only(Subspace.full(2))
    assert h.adjoint().compose(h).equals(h)


def test_compose_dimension_check():
    t = identity_relation(2)
    s = identity_relation(3)
    with pytest.raises(DimensionMismatchError):
        s.compose(t)


def _factor(rng, rows, cols):
    """A Gaussian matrix, a projector or zero, in turn by the draw."""
    kind = int(rng.integers(0, 3))
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if kind == 1 and rows == cols:
        q, _ = np.linalg.qr(m)
        k = int(rng.integers(0, rows + 1))
        return q[:, :k] @ q[:, :k].conj().T
    return m if kind != 2 else np.zeros((rows, cols), dtype=complex)


def test_matrix_factor_products_match_compose(relation_battery):
    for i, t in enumerate(relation_battery):
        rng = rng_for(7778, i)
        p = int(rng.integers(1, 9))
        out = _factor(rng, *((t.dim_out, t.dim_out) if i % 2 else (p, t.dim_out)))
        inp = _factor(rng, *((t.dim_in, t.dim_in) if i % 2 else (t.dim_in, p)))
        via_graph = LinearRelation.from_matrix(out).compose(t)
        assert t.map_output(out).graph_gap(via_graph) <= 1e-12
        via_graph = t.compose(LinearRelation.from_matrix(inp))
        assert t.pull_input(inp).graph_gap(via_graph) <= 1e-12


def test_matrix_factor_products_check_dimensions():
    t = _e3()
    with pytest.raises(DimensionMismatchError):
        t.map_output(np.eye(3, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        t.pull_input(np.eye(3, dtype=complex))
    # the shapes of the factor set the new spaces
    assert t.map_output(np.ones((3, 2), dtype=complex)).dim_out == 3
    assert t.pull_input(np.ones((2, 4), dtype=complex)).dim_in == 4


def test_restrict_and_image():
    t = identity_relation(2)
    r = t.restrict(SPAN_E1)
    assert r.dom.equals(SPAN_E1)
    assert r.graph_gap(LinearRelation.from_graph(
        np.array([[1.0], [0.0], [1.0], [0.0]], dtype=complex), 2, 2)) < 1e-12
    assert _shift().restrict(_shift().dom).equals(_shift())
    # the image always carries the mul part along
    assert _e3().image(SPAN_E1).dim == 2


def test_operator_part_of_e3():
    dec = _e3().operator_part()
    assert dec.domain.equals(SPAN_E1)
    assert dec.mul.equals(SPAN_E2)
    # single-valued action is 1 on span{e1}
    assert np.allclose(dec.images, SPAN_E1.basis @ np.eye(1), atol=1e-12)
    assert dec.reassemble().equals(_e3())


def test_operator_part_of_pure_mul():
    dec = mul_only(Subspace.full(2)).operator_part()
    assert dec.domain.dim == 0
    assert dec.mul.dim == 2
    assert dec.reassemble().equals(mul_only(Subspace.full(2)))


def test_equals_and_includes():
    t = identity_relation(2)
    assert t.equals(t)
    assert not t.equals(LinearRelation.from_matrix(2 * np.eye(2, dtype=complex)))
    assert _e3().includes(mul_only(SPAN_E2))
    assert not mul_only(SPAN_E2).includes(_e3())


def test_adjoint_of_product_and_sum_inclusions(relation_battery):
    # (ST)* includes T*S* always; equality when S is a bounded operator
    for t in relation_battery[:40]:
        if t.dim_out != t.dim_in:
            continue
        s = _random_square_op(t.dim_in)
        st_rel = s.compose(t)
        lhs = st_rel.adjoint()
        rhs = t.adjoint().compose(s.adjoint())
        assert lhs.includes(rhs)
        assert lhs.equals(rhs)
        sum_rel = t.add(s)
        lhs = sum_rel.adjoint()
        rhs = t.adjoint().add(s.adjoint())
        assert lhs.includes(rhs)
        assert lhs.equals(rhs)


def _random_square_op(n):
    rng = np.random.default_rng(n + 17)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return LinearRelation.from_matrix(m)


def test_selfadjointness_criterion():
    herm = LinearRelation.from_matrix(np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex))
    assert herm.adjoint().equals(herm)
    nonherm = LinearRelation.from_matrix(np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex))
    assert not nonherm.adjoint().equals(nonherm)
    # selfadjoint with mul: operator part Hermitian on dom and dom(T*) = dom(T)
    t = _e3()
    assert t.adjoint().equals(t)


def test_closure_is_identity_here():
    t = _shift()
    assert t.closure() is t


def test_compress_embed_roundtrip():
    t = _e3()
    u = Subspace.full(2)
    assert t.compress_to(u, u).embed_from(u, u).equals(t)


def test_calculus_on_random_battery(relation_battery):
    # spot-check the involution and reassembly on a slice; the full
    # thousand-instance sweep lives in the acceptance suite
    for t in relation_battery[:60]:
        adj = t.adjoint()
        assert adj.adjoint().graph_gap(t) < 1e-8
        dec = t.operator_part()
        assert dec.reassemble().graph_gap(t) < 1e-8
        assert kernel.opnorm(dec.mul.basis.conj().T @ dec.images) <= 1e-12
