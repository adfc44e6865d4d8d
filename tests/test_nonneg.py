"""Nonnegative selfadjoint relations: certification, roots, form order."""

import warnings

import numpy as np
import pytest

from linrel.errors import (
    DimensionMismatchError,
    NotNonnegativeError,
    NotSelfAdjointError,
    NotSymmetricError,
    OrderViolatedError,
)
from linrel.errors import NotPsdError
from linrel.generator import InstanceSpec, generate
from linrel.kernel import DEFAULT_TOL, opnorm, psd_sqrt
from linrel.nonneg import (
    NonnegSelfAdjointRelation,
    friedrichs,
    gram,
    gram_with_diagnostics,
    leq,
    leq_report,
    order_contraction,
    validate,
)
from linrel.relation import LinearRelation, identity_relation, mul_only, zero_operator_on
from linrel.subspace import Subspace

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
SPAN_E1 = Subspace.span([E1], 2)
SPAN_E2 = Subspace.span([E2], 2)


def _matrix_rel(rows):
    return LinearRelation.from_matrix(np.array(rows, dtype=complex))


def _e2_relation():
    return validate(_matrix_rel([[2.0, 1.0], [1.0, 1.0]]))


def _e3_relation():
    rel = LinearRelation.from_operator_and_mul(SPAN_E1, np.eye(1, dtype=complex), SPAN_E2)
    return validate(rel)


def _e4_relation():
    return validate(mul_only(Subspace.full(2)))


def test_validate_accepts_identity_and_top():
    a = validate(identity_relation(2))
    assert a.dom.dim == 2 and a.mul.dim == 0
    top = _e4_relation()
    assert top.dom.dim == 0 and top.mul.dim == 2


def test_validate_rejects_nonselfadjoint():
    with pytest.raises(NotSelfAdjointError):
        validate(_matrix_rel([[0.0, 1.0], [0.0, 0.0]]))


def test_validate_rejects_negative_form():
    with pytest.raises(NotNonnegativeError) as info:
        validate(_matrix_rel([[1.0, 0.0], [0.0, -1.0]]))
    assert info.value.witness == pytest.approx(-1.0, abs=1e-12)


def test_to_matrix_round_trip():
    a = _e2_relation()
    assert np.allclose(a.to_matrix(), [[2.0, 1.0], [1.0, 1.0]], atol=1e-12)
    with pytest.raises(DimensionMismatchError):
        _e4_relation().to_matrix()


def test_sqrt_of_diagonal():
    a = validate(_matrix_rel([[4.0, 0.0], [0.0, 9.0]]))
    assert np.allclose(a.sqrt().to_matrix(), np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_fixes_e3_and_top():
    a = _e3_relation()
    assert a.sqrt().rel.equals(a.rel)
    top = _e4_relation()
    assert top.sqrt().rel.equals(top.rel)


def test_sqrt_squares_back(battery):
    for _, a, _ in battery[:40]:
        root = a.sqrt().rel
        assert root.compose(root).graph_gap(a.rel) < 1e-8


def _norm_instances(battery, relation_battery):
    yield from (a for _, a, _ in battery)
    yield from (gram_with_diagnostics(t)[0] for t in relation_battery[:100])
    for i, scale in enumerate(np.geomspace(1e-3, 1e3, 25)):
        yield generate(InstanceSpec(8, 4, 3, 2, seed=i, spectrum_scale=float(scale)))[0]
    yield NonnegSelfAdjointRelation(Subspace.zero(3), np.zeros((0, 0)), DEFAULT_TOL)
    yield NonnegSelfAdjointRelation(Subspace.full(3), np.zeros((3, 3)), DEFAULT_TOL)


def test_norm_and_root_share_one_eigendecomposition(battery, relation_battery):
    for a in _norm_instances(battery, relation_battery):
        want = opnorm(a.op_compressed)
        assert abs(a.norm - want) <= 1e-14 * max(1.0, want)
        assert np.array_equal(a.sqrt().op_compressed, psd_sqrt(a.op_compressed, a.tol))


def test_leq_report_reads_the_norm_of_a_form_that_is_not_psd():
    # a hand-built form below -eq_abs: the order test reports, as it did
    # with the norm taken by opnorm, and only the root raises
    b = NonnegSelfAdjointRelation(Subspace.full(2), np.diag([1.0, -1.0]), DEFAULT_TOL)
    a = NonnegSelfAdjointRelation(Subspace.full(2), np.zeros((2, 2)), DEFAULT_TOL)
    assert b.norm == 1.0
    assert leq_report(a, b) == (False, 0.5)
    with pytest.raises(NotPsdError):
        b.sqrt()


def test_scale():
    a = _e2_relation()
    assert np.allclose(a.scale(3.0).to_matrix(), [[6.0, 3.0], [3.0, 3.0]], atol=1e-12)


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf, -1.0, 1e308])
def test_scale_rejects_bad_factors_without_warnings(c):
    # 1e308 is a valid factor, but its product with the form overflows
    a = _e2_relation()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            a.scale(c)


def test_leq_reflexive_and_top():
    a = _e2_relation()
    top = _e4_relation()
    assert leq(a, a)
    assert leq(a, top)
    assert not leq(top, a)
    ident = validate(identity_relation(2))
    assert leq(ident, validate(_matrix_rel([[2.0, 0.0], [0.0, 2.0]])))


def test_leq_frozen_boundary():
    b = _e2_relation()
    inside = validate(_matrix_rel([[0.0, 0.0], [0.0, 0.5]]))
    outside = validate(_matrix_rel([[0.0, 0.0], [0.0, 0.6]]))
    assert leq(inside, b)
    assert not leq(outside, b)


def test_leq_transitive_on_scalings(battery):
    for _, a, _ in battery[:25]:
        b = a.scale(2.0)
        c = a.scale(5.0)
        assert leq(a, b) and leq(b, c) and leq(a, c)
        if a.op_compressed.size and opnorm(a.op_compressed) > 1e-6:
            assert not leq(b, a)


def test_order_contraction_identity_cases():
    ident = validate(identity_relation(2))
    assert np.allclose(order_contraction(ident, ident), np.eye(2), atol=1e-10)
    zero = validate(_matrix_rel([[0.0, 0.0], [0.0, 0.0]]))
    assert opnorm(order_contraction(zero, ident)) < 1e-10


def test_order_contraction_interpolates():
    a = validate(_matrix_rel([[0.0, 0.0], [0.0, 0.5]]))
    b = _e2_relation()
    w = order_contraction(a, b)
    gap = opnorm(w @ b.sqrt_ambient @ b.dom.projector - a.sqrt_ambient @ b.dom.projector)
    assert gap < 1e-8
    assert opnorm(w) <= 1.0 + 1e-10


def test_order_contraction_requires_order():
    b = _e2_relation()
    outside = validate(_matrix_rel([[0.0, 0.0], [0.0, 0.6]]))
    with pytest.raises(OrderViolatedError):
        order_contraction(outside, b)


def test_order_contraction_on_battery(battery):
    for _, a, _ in battery[:25]:
        b = a.scale(4.0)
        w = order_contraction(a, b)
        assert opnorm(w) <= 1.0 + 1e-10
        gap = opnorm(w @ b.sqrt_ambient @ b.dom.projector
                     - a.sqrt_ambient @ b.dom.projector)
        assert gap < 1e-8


def test_gram_known_values():
    assert np.allclose(gram(identity_relation(2)).to_matrix(), np.eye(2), atol=1e-12)
    shift = _matrix_rel([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(gram(shift).to_matrix(), np.diag([0.0, 1.0]), atol=1e-12)
    top = mul_only(Subspace.full(2))
    assert gram(top).rel.equals(top)


def test_gram_diagnostics_small(relation_battery):
    for t in relation_battery[:50]:
        _, diag = gram_with_diagnostics(t)
        assert max(diag.values()) < 1e-8


def test_friedrichs_of_selfadjoint_is_itself():
    ident = identity_relation(2)
    assert friedrichs(ident).rel.equals(ident)


def test_friedrichs_attaches_domain_complement():
    partial = LinearRelation.from_operator_and_mul(SPAN_E1, np.eye(1, dtype=complex),
                                                   Subspace.zero(2))
    ext = friedrichs(partial)
    assert ext.rel.equals(_e3_relation().rel)
    zero_partial = zero_operator_on(SPAN_E1, 2)
    ext = friedrichs(zero_partial)
    assert ext.dom.equals(SPAN_E1)
    assert ext.mul.equals(SPAN_E2)
    assert np.allclose(ext.op_compressed, np.zeros((1, 1)), atol=1e-12)


def test_friedrichs_extends_input(battery):
    for _, a, _ in battery[:25]:
        dec = a.rel.operator_part()
        if dec.domain.dim == 0:
            continue
        half = Subspace(a.dim, dec.domain.basis[:, : max(1, dec.domain.dim // 2)])
        restricted = a.rel.restrict(half)
        sym = restricted.operator_part().as_relation()
        ext = friedrichs(sym)
        assert ext.rel.includes(sym)


def test_friedrichs_rejects_nonsymmetric():
    with pytest.raises(NotSymmetricError):
        friedrichs(_matrix_rel([[0.0, 1.0], [0.0, 0.0]]))


def test_friedrichs_rejects_negative():
    neg = LinearRelation.from_operator_and_mul(SPAN_E1, -np.eye(1, dtype=complex),
                                               Subspace.zero(2))
    with pytest.raises(NotNonnegativeError):
        friedrichs(neg)
